package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cohera/internal/admission"
	"cohera/internal/exec"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// The streaming scatter-gather. One producer goroutine per live
// fragment pulls its site's subquery stream and ships pooled row
// batches over a bounded channel; a single consumer (the caller's
// goroutine, inside RowStream.Next) merges them. The channel holds at
// most one batch per fragment, so coordinator memory is
// O(batchRows × fragments) regardless of result size, and a consumer
// that stops reading (LIMIT reached, Close) back-pressures every
// producer through the blocked send.

// fragMsg is one message from a fragment producer: either a batch of
// rows or the fragment's completion record (done=true), which is
// always the producer's last message.
type fragMsg struct {
	frag   *Fragment
	batch  *storage.Batch
	done   bool
	site   *Site // serving site (done messages of successful fragments)
	rows   int   // rows delivered to the fan-in, post-residual (done messages)
	pushed int   // rows the site shipped, pre-residual (done messages)
	width  int   // columns per shipped row (done messages)
	fail   int   // replicas tried and found down (done messages)
	stale  bool  // serving site had journaled intents pending (done messages)
	err    error // fragment failure (done messages)
}

// streamCounters tracks rows resident in the fan-in channel, and the
// high-water mark the bench harness reports.
type streamCounters struct {
	inflight atomic.Int64
	peak     atomic.Int64
}

func (c *streamCounters) add(n int64) {
	v := c.inflight.Add(n)
	for {
		p := c.peak.Load()
		if v <= p || c.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// scatter fans one global table's fragment subqueries out to producer
// goroutines and returns the fan-in channel and the number of
// producers. The channel is closed after every producer has sent its
// done message. Fragments the pushed predicate provably excludes are
// pruned here and counted on trace, before any producer runs.
// canReplay permits mid-stream failover to the next replica — sound
// only when the consumer dedupes by primary key, since the
// replacement replica replays rows the failed stream already shipped.
func (f *Federation) scatter(ctx context.Context, gt *GlobalTable, push sqlparse.Expr, cols []string,
	limit int, batchRows int, canReplay bool, counters *streamCounters, trace *QueryTrace) (ch <-chan fragMsg, active int) {
	var frags []*Fragment
	for _, frag := range f.FragmentsOf(gt) {
		if frag.Predicate != nil && push != nil && disjoint(frag.Predicate, push) {
			trace.PrunedFragments++
			metPruned.Inc()
			continue
		}
		frags = append(frags, frag)
	}
	out := make(chan fragMsg, len(frags))
	var wg sync.WaitGroup
	for _, frag := range frags {
		wg.Add(1)
		go func(frag *Fragment) {
			defer wg.Done()
			f.pumpFragment(ctx, gt, frag, push, cols, limit, batchRows, canReplay, counters, out)
		}(frag)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, len(frags)
}

// pumpFragment streams one fragment from its best available replica
// into the fan-in channel, failing over across replicas, and finishes
// with exactly one done message. Per replica, the fragment predicate is
// split against that site's advertised capabilities: the pushable part
// travels with the subquery, the residual (plus projection and limit
// when the site declined them) is fused here, before the rows enter
// the fan-in — so every fragment contributes uniformly filtered,
// uniformly projected rows no matter how capable its serving site was.
// limit, when ≥ 0, caps each site's scan at OFFSET+LIMIT rows; it is
// only pushed to a site that applies the entire predicate, since the
// first K rows of a partially filtered stream are not the first K of
// the filtered one.
func (f *Federation) pumpFragment(ctx context.Context, gt *GlobalTable, frag *Fragment,
	push sqlparse.Expr, cols []string, limit int, batchRows int, canReplay bool,
	counters *streamCounters, out chan<- fragMsg) {
	gctx, gsp := obs.StartSpan(ctx, "federation.gatherstream")
	gsp.Set("table", gt.Def.Name)
	gsp.Set("fragment", frag.ID)
	defer gsp.End()
	gctx, fstage := obs.StartStage(gctx, "fragment", gt.Def.Name+"/"+frag.ID)

	send := func(m fragMsg) bool {
		m.frag = frag
		// Count the batch as resident before offering it: a batch parked
		// in a blocked send is coordinator memory just like one sitting
		// in the channel.
		if m.batch != nil {
			counters.add(int64(len(m.batch.Rows)))
		}
		// A blocked send is this fragment waiting on the consumer; batch
		// sends are measured exactly (per batch, not per row).
		var sendStart time.Time
		if fstage != nil && m.batch != nil {
			sendStart = time.Now()
		}
		select {
		case out <- m:
			if !sendStart.IsZero() {
				fstage.BlockedDownstream(time.Since(sendStart))
			}
			return true
		case <-gctx.Done():
			if m.batch != nil {
				counters.add(-int64(len(m.batch.Rows)))
				storage.PutBatch(m.batch)
			}
			return false
		}
	}
	finish := func(m fragMsg) {
		m.done = true
		if m.err != nil {
			gsp.SetErr(m.err)
			fstage.Fail(m.err)
		} else if m.site != nil {
			gsp.Set("site", m.site.Name())
			gsp.Set("rows", strconv.Itoa(m.rows))
			gsp.Set("failovers", strconv.Itoa(m.fail))
			fstage.SetDetail(gt.Def.Name + "/" + frag.ID + "@" + m.site.Name())
		}
		fstage.Done()
		gsp.SetStage(fstage)
		send(m)
	}

	ranked := f.optimizer().Rank(gctx, frag, estimateRows(frag, gt.Def.Name))
	if len(ranked) == 0 {
		// An auction can close empty (bid timeout shorter than the
		// slowest bidder, or a stale snapshot). The query must still
		// run: fall back to trying every replica in order.
		ranked = frag.Replicas()
	}
	fails := 0
	var lastErr error
	for _, site := range ranked {
		// Capability split, re-done per replica: a failover can land on a
		// site with different capabilities than the one that just died.
		sitePush, siteResid := push, sqlparse.Expr(nil)
		siteCols, siteLimit := cols, -1
		if f.DisablePredicatePushdown {
			sitePush, siteResid = nil, push
		} else {
			caps := site.PushCaps()
			sitePush, siteResid = plan.SplitPushable(push, caps)
			if !caps.Project {
				siteCols = nil
			}
			if limit >= 0 && caps.Limit && siteResid == nil {
				siteLimit = limit
			}
		}
		st, err := site.SubQueryStream(gctx, gt.Def.Name, sitePush, siteCols, siteLimit)
		if err != nil {
			if cutByConsumer(gctx) {
				fstage.Cut()
				return
			}
			// Availability failures — declared outages, an open breaker,
			// transient faults — fail over to the next replica; anything
			// else (semantic) aborts the fragment.
			if isAvailabilityErr(err) && gctx.Err() == nil {
				fails++
				lastErr = err
				continue
			}
			finish(fragMsg{err: err})
			return
		}
		// The residual stage sits between the site stream and the fan-in,
		// so fstage (and with it EXPLAIN ANALYZE's per-fragment rows)
		// counts what the fragment contributes to the merge, while the
		// fuse's RowsIn keeps what the site shipped for the trace's
		// pushed-vs-residual accounting.
		siteWidth := len(st.Columns())
		var fuse *plan.FusedStream
		if siteResid != nil || (cols != nil && siteCols == nil) {
			spec := plan.FuseSpec{Where: siteResid, Limit: -1}
			if cols != nil && siteCols == nil {
				idx, perr := plan.ProjectIndexes(st.Columns(), cols)
				if perr != nil {
					//lint:ignore errdrop the open already failed; close is best-effort cleanup
					_ = st.Close()
					finish(fragMsg{err: fmt.Errorf("federation: shipped stream: %w", perr)})
					return
				}
				spec.Project = idx
			}
			//lint:ignore streamclose fuse aliases st, which pumpStream and the failover cleanup close
			fuse = plan.FuseStream(st, spec)
			st = fuse
		}
		shipped, pumpErr := pumpStream(gctx, st, fstage, batchRows, send)
		pushedRows := shipped
		if fuse != nil {
			pushedRows = int(fuse.RowsIn())
		}
		if pumpErr == nil {
			finish(fragMsg{site: site, rows: shipped, pushed: pushedRows, width: siteWidth,
				fail: fails, stale: frag.PendingAt(site) > 0})
			return
		}
		if gctx.Err() != nil {
			// The consumer went away (LIMIT, Close); not a failure —
			// unless an operator killed the query, in which case the
			// cancellation the wrapper recorded stays on the stage.
			if cutByConsumer(gctx) {
				fstage.Cut()
			}
			return
		}
		// A stream that broke mid-flight may have shipped a prefix. With
		// primary-key dedupe downstream the next replica's full replay is
		// absorbed, so availability failures keep failing over; without a
		// key a replay would duplicate rows, so the fragment fails.
		if canReplay && isAvailabilityErr(pumpErr) {
			fails++
			lastErr = pumpErr
			continue
		}
		finish(fragMsg{err: pumpErr})
		return
	}
	if lastErr != nil {
		finish(fragMsg{err: fmt.Errorf("%w: fragment %s of %s: %w", ErrNoReplica, frag.ID, gt.Def.Name, lastErr)})
	} else {
		finish(fragMsg{err: fmt.Errorf("%w: fragment %s of %s", ErrNoReplica, frag.ID, gt.Def.Name)})
	}
}

// noteFragment is the one fragment-completion accountant: it folds a
// producer's done record into the query's trace and the shared
// metrics, for the materialized gather and the streaming merge alike.
// commit reports whether the fragment's rows belong in the result. A
// fragment lost to unavailability under PartialResults is degraded
// around (commit false, nil error): its typed error lands on the trace
// and the live fragments still answer. Any other failure is returned
// as the query's error. Only the fan-in's single consumer calls it,
// which keeps QueryTrace race-free.
func (f *Federation) noteFragment(ctx context.Context, trace *QueryTrace, gt *GlobalTable, m fragMsg) (commit bool, err error) {
	trace.Failovers += m.fail
	metFailovers.Add(int64(m.fail))
	key := gt.Def.Name + "/" + m.frag.ID
	if m.err != nil {
		if f.PartialResults && isAvailabilityErr(m.err) && ctx.Err() == nil {
			trace.noteFragmentError(key, m.err)
			obs.MarkDegraded(ctx)
			return false, nil
		}
		return false, m.err
	}
	trace.FragmentSites[key] = m.site.Name()
	if m.stale {
		trace.StaleServed = append(trace.StaleServed, key+"@"+m.site.Name())
		metStaleReads.Inc()
		obs.MarkStale(ctx)
	}
	// Shipping cost is what crossed the site boundary: the rows the
	// site actually served (pre-residual) at the width it served them.
	fullWidth := len(gt.Def.Columns)
	metSiteRows(m.site.Name()).Add(int64(m.pushed))
	trace.CellsShipped += m.pushed * m.width
	trace.CellsWithoutPushdown += m.pushed * fullWidth
	metCellsShipped.Add(int64(m.pushed * m.width))
	metCellsSaved.Add(int64(m.pushed * (fullWidth - m.width)))
	trace.notePushed(key, m.pushed, m.pushed-m.rows)
	return true, nil
}

// cutByConsumer reports whether ctx ended because the stream's own
// consumer cut the producers off — LIMIT satisfied, an early Close, or
// the caller abandoning the query — rather than an operator kill.
// Operator cancels through the query registry carry
// obs.ErrQueryCanceled as the cancel cause; internal cuts leave the
// plain context.Canceled.
func cutByConsumer(ctx context.Context) bool {
	return ctx.Err() != nil && !errors.Is(context.Cause(ctx), obs.ErrQueryCanceled)
}

// pumpStream drains one site stream into the fan-in channel in pooled
// batches, returning the rows shipped and the stream's terminal error
// (nil on clean EOF). stage, when non-nil, accounts the rows pulled
// off the site stream (a failover replay pumps again into the same
// stage, so its row count is "rows shipped", not distinct rows).
func pumpStream(ctx context.Context, st storage.RowStream, stage *obs.StageStats, batchRows int,
	send func(fragMsg) bool) (int, error) {
	// Closing the wrapper closes st and settles the stage; with a nil
	// stage InstrumentStream returns st itself.
	src := storage.InstrumentStream(st, stage, storage.TimingSample)
	defer src.Close()
	shipped := 0
	batch := storage.GetBatch()
	flush := func() bool {
		if len(batch.Rows) == 0 {
			return true
		}
		shipped += len(batch.Rows)
		if !send(fragMsg{batch: batch}) {
			batch = nil
			return false
		}
		batch = storage.GetBatch()
		return true
	}
	for {
		row, err := src.Next()
		if err == io.EOF {
			if !flush() {
				return shipped, ctx.Err()
			}
			storage.PutBatch(batch)
			return shipped, nil
		}
		if err != nil {
			storage.PutBatch(batch)
			return shipped, err
		}
		batch.Rows = append(batch.Rows, row)
		if len(batch.Rows) >= batchRows && !flush() {
			return shipped, ctx.Err()
		}
	}
}

// clampFedBatch resolves the federation's rows-per-batch setting.
func clampFedBatch(n int) int {
	if n <= 0 {
		return storage.DefaultBatchRows
	}
	return n
}

// StreamableSelect reports whether a federated SELECT can run on the
// incremental merge path: single table, no joins/grouping/aggregation/
// ordering/DISTINCT (exec.Streamable) and no text predicates, which
// need the coordinator's inverted index over gathered rows.
func StreamableSelect(sel sqlparse.SelectStmt) bool {
	if !exec.Streamable(sel) {
		return false
	}
	hasText := false
	check := func(e sqlparse.Expr) {
		plan.Walk(e, func(x sqlparse.Expr) bool {
			if _, ok := x.(sqlparse.TextMatch); ok {
				hasText = true
				return false
			}
			return true
		})
	}
	check(sel.Where)
	for _, it := range sel.Items {
		check(it.Expr)
	}
	return !hasText
}

// QueryStream parses and executes one federated SELECT as a row
// stream. See SelectStream for the contract.
func (f *Federation) QueryStream(ctx context.Context, sql string) (storage.RowStream, *QueryTrace, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(sqlparse.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("federation: only SELECT streams, got %T", stmt)
	}
	return f.SelectStream(ctx, sel)
}

// SelectStream executes a federated SELECT as a pull-based row stream.
// Streamable statements merge the fragment streams incrementally:
// rows flow from sites through pooled batches and a bounded channel,
// so coordinator memory is O(batch × fragments) instead of O(total
// rows), and LIMIT cancels the remaining producers as soon as it is
// satisfied. Non-streamable statements (joins, aggregates, ORDER BY,
// text search) run the materialized path and stream the finished
// result. The caller must Close the stream; the returned trace's
// fields settle once the stream ends (EOF, error, or Close).
func (f *Federation) SelectStream(ctx context.Context, sel sqlparse.SelectStmt) (storage.RowStream, *QueryTrace, error) {
	ctx, release, err := f.admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	if !StreamableSelect(sel) {
		// Materialized fallback: the coordinator work is done when
		// Select returns, so the slot is released here; the returned
		// stream is a pure in-memory replay.
		defer release()
		res, trace, err := f.Select(ctx, sel)
		if err != nil {
			return nil, nil, err
		}
		return storage.NewSliceStream(res.Columns, res.Rows), trace, nil
	}
	ctx, sp := obs.StartSpan(ctx, "federation.selectstream")
	sp.Set("table", sel.From.Name)
	if f.gate != nil {
		sp.Set("tenant", admission.TenantOf(ctx))
	}
	metQueries.Inc()
	ctx, aq := f.registerQuery(ctx, "select", sel.String())
	aq.SetTraceID(sp.TraceID)

	st, trace, err := f.openSelectStream(ctx, sel, sp, aq)
	if err != nil {
		release()
		metQueryErrs.Inc()
		sp.SetErr(err)
		sp.End()
		aq.Finish()
		return nil, nil, err
	}
	trace.TraceID = sp.TraceID
	// The admission slot rides the stream: it frees when the caller
	// drains or closes it, so a slow consumer exerts backpressure at
	// the gate (new work queues or sheds) instead of inflating buffers.
	return admission.NewTrackedStream(st, release), trace, nil
}

// openSelectStream builds the merge stream for a streamable SELECT.
// aq is the stream's registry entry (nil when observability is off);
// the stream owns it and unregisters it when it settles.
func (f *Federation) openSelectStream(ctx context.Context, sel sqlparse.SelectStmt, sp *obs.Span, aq *obs.ActiveQuery) (storage.RowStream, *QueryTrace, error) {
	gt, err := f.Table(sel.From.Name)
	if err != nil {
		return nil, nil, err
	}
	alias := lower(sel.From.EffectiveName())
	trace := &QueryTrace{FragmentSites: make(map[string]string)}

	// Predicate pushdown, as in the materialized path: all conjuncts are
	// local to the single table; text predicates were excluded by
	// StreamableSelect.
	conjuncts := plan.Conjuncts(sel.Where)
	local, _ := plan.SplitByTable(conjuncts, alias, true)
	push := unqualify(plan.AndExprs(dropTextPredicates(local)))

	// Projection pushdown: ship only the referenced columns plus the
	// primary key the merge dedupes on.
	def := gt.Def
	var cols []string
	if !f.DisableProjectionPushdown {
		aliases := map[string]aliasInfo{alias: {table: lower(gt.Def.Name), def: gt.Def}}
		if want, ok := neededColumns(sel, aliases)[lower(gt.Def.Name)]; ok {
			if projected, pc := projectDef(gt.Def, want); projected != nil {
				def, cols = projected, pc
			}
		}
	}

	// The merge evaluates the original statement over shipped rows:
	// qualified names resolve both "alias.col" and bare "col" refs.
	names := make([]string, len(def.Columns))
	for i, c := range def.Columns {
		names[i] = alias + "." + lower(c.Name)
	}
	items, err := expandFedStars(sel.Items, alias, def)
	if err != nil {
		return nil, nil, err
	}
	var keyIdx []int
	for _, k := range def.Key {
		ci := def.ColumnIndex(k)
		if ci < 0 {
			keyIdx = nil
			break
		}
		keyIdx = append(keyIdx, ci)
	}

	// The consumer side is two stages: "filter/limit" (the bound WHERE
	// re-check, the bound select items — or the shipped row itself when
	// they are exactly its columns — and OFFSET/LIMIT: the rows the
	// caller actually sees) over "merge" (the fan-in: every row shipped
	// by every fragment). Both ride the context so the fragment pumps
	// parent under the merge.
	limitDetail := lower(sel.From.Name)
	if sel.Limit >= 0 {
		limitDetail += " limit " + strconv.Itoa(sel.Limit)
	}
	if sel.Offset > 0 {
		limitDetail += " offset " + strconv.Itoa(sel.Offset)
	}
	ctx, limitStage := obs.StartStage(ctx, "filter/limit", limitDetail)
	ctx, mergeStage := obs.StartStage(ctx, "merge", lower(sel.From.Name))

	sctx, cancel := context.WithCancel(ctx)
	counters := &streamCounters{}
	batchRows := clampFedBatch(f.StreamBatchRows)
	// Each fragment may hold the whole answer, so a per-site limit must
	// cover OFFSET+LIMIT rows; the PK dedupe and this stream's own
	// offset/limit do the rest.
	fragLimit := -1
	if sel.Limit >= 0 {
		fragLimit = sel.Limit + sel.Offset
	}
	ch, active := f.scatter(sctx, gt, push, cols, fragLimit, batchRows, len(keyIdx) > 0, counters, trace)

	remain := -1
	if sel.Limit >= 0 {
		remain = sel.Limit
	}
	// WHERE and the select items are bound to shipped-row slots once
	// here, not resolved by name per row. Items that are exactly the
	// shipped columns in order let the merge hand shipped rows through.
	var ev plan.Evaluator
	var where plan.Bound
	if sel.Where != nil {
		where = ev.Bind(sel.Where, names)
	}
	bound := make([]plan.Bound, len(items))
	passthrough := len(items) == len(names)
	for i, it := range items {
		bound[i] = ev.Bind(it.Expr, names)
		if ref, ok := it.Expr.(sqlparse.ColumnRef); !ok {
			passthrough = false
		} else if slot, err := plan.ResolveSlot(names, ref); err != nil || slot != i {
			passthrough = false
		}
	}
	return &fedStream{
		f: f, ctx: ctx, cancel: cancel, sp: sp, start: time.Now(),
		aq: aq, sql: sel.String(), limitStage: limitStage, mergeStage: mergeStage,
		trace: trace, ch: ch, counters: counters,
		gt:    gt,
		where: where, items: bound, passthrough: passthrough,
		cols: fedItemNames(items), keyIdx: keyIdx,
		seen: make(map[string]bool), waiting: active,
		skip: sel.Offset, remain: remain,
	}, trace, nil
}

// expandFedStars expands * / alias.* select items against the shipped
// schema, mirroring the executor's expansion so streamed and
// materialized results name columns identically.
func expandFedStars(items []sqlparse.SelectItem, alias string, def *schema.Table) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, it := range items {
		star, ok := it.Expr.(sqlparse.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		want := lower(star.Table)
		if want != "" && want != alias {
			return nil, fmt.Errorf("federation: %s matches no columns", star)
		}
		for _, c := range def.Columns {
			col := lower(c.Name)
			out = append(out, sqlparse.SelectItem{
				Expr:  sqlparse.ColumnRef{Table: alias, Column: col},
				Alias: col,
			})
		}
	}
	return out, nil
}

// fedItemNames mirrors the executor's output-column naming.
func fedItemNames(items []sqlparse.SelectItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Alias != "":
			out[i] = it.Alias
		default:
			if c, ok := it.Expr.(sqlparse.ColumnRef); ok {
				out[i] = c.Column
			} else {
				out[i] = it.Expr.String()
			}
		}
	}
	return out
}

// fedStream is the coordinator side of the streaming scatter-gather:
// the single consumer of the fan-in channel. It dedupes by primary
// key (first write wins — fragments are disjoint or replicated, so
// any copy is the row), re-checks the statement's WHERE, projects the
// select items, applies OFFSET/LIMIT, and folds producers' completion
// records into the query trace. WHERE and the items are bound to
// shipped-row slots once per stream (plan.Evaluator.Bind), so no row
// pays name resolution. The re-check stays even though sites apply the
// pushed predicate: it is what keeps a weaker or older peer's rows
// correct. When the items are exactly the shipped columns in order,
// the shipped row is emitted as is — RowStream rows already belong to
// their consumer, so no copy is needed.
//
// The dedupe set is the one deliberate exception to the O(batch ×
// fragments) memory bound: keyed streams record one encoded key per
// distinct shipped row, because nothing guarantees fragment
// predicates are disjoint (nil means "may hold anything") and a
// mid-stream replica failover replays the failed stream's prefix.
// Keys are a few bytes where rows are whole tuples, and keyless
// tables carry no set at all — but coordinator memory on keyed
// streams is O(distinct keys), not constant. See DESIGN.md
// "Streaming execution".
type fedStream struct {
	f        *Federation
	ctx      context.Context
	cancel   context.CancelFunc
	sp       *obs.Span
	start    time.Time
	trace    *QueryTrace
	ch       <-chan fragMsg
	counters *streamCounters

	aq         *obs.ActiveQuery // registry entry; finished when the stream settles
	sql        string           // statement text, for the slow-query log
	limitStage *obs.StageStats  // rows surviving WHERE/OFFSET/LIMIT
	mergeStage *obs.StageStats  // rows arriving over the fan-in
	limitRows  int64            // emitted rows not yet flushed to limitStage

	gt          *GlobalTable
	where       plan.Bound // WHERE re-check; nil when the statement has none
	items       []plan.Bound
	passthrough bool // items are the shipped columns in order
	cols        []string
	keyIdx      []int
	seen        map[string]bool
	keyBuf      []byte

	pending []storage.Row
	pos     int
	waiting int // producers still owing a done message
	skip    int
	remain  int // -1 = unlimited
	err     error
	closed  bool
	settled bool
}

// Columns implements storage.RowStream.
func (s *fedStream) Columns() []string { return s.cols }

// Next implements storage.RowStream.
func (s *fedStream) Next() (storage.Row, error) {
	if s.closed {
		return nil, storage.ErrStreamClosed
	}
	for {
		if s.remain == 0 {
			return nil, s.finish(io.EOF)
		}
		for s.pos < len(s.pending) {
			row := s.pending[s.pos]
			s.pos++
			if s.skip > 0 {
				s.skip--
				continue
			}
			if s.remain > 0 {
				s.remain--
				if s.remain == 0 {
					// LIMIT satisfied: stop every producer now rather than
					// letting them finish their scans.
					s.cancel()
				}
			}
			// Counted locally and flushed per batch (and at finish): the
			// consumer loop pays no atomic per emitted row, and live
			// snapshots lag by at most one batch.
			s.limitRows++
			return row, nil
		}
		if s.err != nil {
			return nil, s.err
		}
		if s.waiting == 0 {
			return nil, s.finishEOF()
		}
		// The fan-in receive is the merge's producer wait; it is measured
		// exactly (per message, not per row) so the cost stays O(batches).
		recvStart := time.Now()
		msg, ok := <-s.ch
		s.mergeStage.BlockedUpstream(time.Since(recvStart))
		if !ok {
			s.waiting = 0
			return nil, s.finishEOF()
		}
		if msg.done {
			s.waiting--
			if _, err := s.f.noteFragment(s.ctx, s.trace, s.gt, msg); err != nil {
				s.fail(err)
			}
			continue
		}
		s.consumeBatch(msg.batch)
	}
}

// consumeBatch turns one shipped batch into pending output rows.
func (s *fedStream) consumeBatch(b *storage.Batch) {
	s.counters.add(-int64(len(b.Rows)))
	s.mergeStage.AddBatch(int64(len(b.Rows)), 0)
	s.flushLimitRows()
	defer storage.PutBatch(b)
	s.pending = s.pending[:0]
	s.pos = 0
	for _, r := range b.Rows {
		if len(s.keyIdx) > 0 {
			s.keyBuf = s.keyBuf[:0]
			for _, ki := range s.keyIdx {
				s.keyBuf = value.AppendRowKey(s.keyBuf, storage.Row{r[ki]})
			}
			k := string(s.keyBuf)
			if s.seen[k] {
				continue
			}
			s.seen[k] = true
		}
		if s.where != nil {
			v, err := s.where(r)
			if err != nil {
				s.fail(err)
				return
			}
			if !v.Truthy() {
				continue
			}
		}
		if s.passthrough {
			// Shipped rows already belong to the merge (RowStream rows
			// are owned by the caller), so the row is the output row.
			s.pending = append(s.pending, r)
			continue
		}
		out := make(storage.Row, len(s.items))
		for i, item := range s.items {
			v, err := item(r)
			if err != nil {
				s.fail(err)
				return
			}
			out[i] = v
		}
		s.pending = append(s.pending, out)
	}
}

// finishEOF ends the stream after the last producer message — unless
// the caller's context was cancelled, in which case producers may have
// stopped mid-fragment without a done record and a clean EOF would
// silently truncate the result. The RowStream contract forbids a
// silent early EOF, so cancellation surfaces as the stream's terminal
// error instead. (The internal cancel — LIMIT satisfied, Close — never
// touches s.ctx, so those paths still end clean.)
func (s *fedStream) finishEOF() error {
	if s.ctx.Err() != nil {
		// Cause keeps an operator kill typed (obs.ErrQueryCanceled)
		// through the wrap; Err would flatten it to context.Canceled.
		s.fail(fmt.Errorf("federation: streaming select interrupted: %w", context.Cause(s.ctx)))
		return s.err
	}
	return s.finish(io.EOF)
}

// flushLimitRows moves the locally counted emitted rows onto the
// filter/limit stage's atomic.
func (s *fedStream) flushLimitRows() {
	if s.limitRows > 0 {
		s.limitStage.AddRows(s.limitRows)
		s.limitRows = 0
	}
}

// fail records the stream's terminal error and stops the producers.
func (s *fedStream) fail(err error) {
	if s.err == nil {
		s.err = s.finish(err)
	}
}

// finish settles the trace, metrics and span exactly once; it returns
// the terminal value Next should report (err, or io.EOF for a clean
// end).
func (s *fedStream) finish(err error) error {
	if s.settled {
		return err
	}
	s.settled = true
	s.cancel()
	s.flushLimitRows()
	s.trace.PeakBufferedRows = int(s.counters.peak.Load())
	metQuerySeconds.Observe(time.Since(s.start))
	if err != nil && err != io.EOF {
		metQueryErrs.Inc()
		s.sp.SetErr(err)
		s.limitStage.Fail(err)
	} else {
		if s.trace.Degraded {
			s.sp.Set("degraded", strconv.Itoa(len(s.trace.FragmentErrors)))
			metDegraded.Inc()
			metDegradedFragments.Add(int64(len(s.trace.FragmentErrors)))
		}
		s.sp.Set("peak_buffered_rows", strconv.Itoa(s.trace.PeakBufferedRows))
	}
	s.mergeStage.NotePeak(s.counters.peak.Load())
	s.mergeStage.Done()
	s.limitStage.Done()
	s.sp.SetStage(s.mergeStage)
	s.sp.End()
	if s.f.Slow != nil && s.aq != nil {
		s.f.Slow.RecordStages(s.sql, time.Since(s.start), s.trace.TraceID, s.aq.Stages().Snapshot())
	}
	s.aq.Finish()
	return err
}

// Close implements storage.RowStream: cancels the producers and drains
// the fan-in channel so every pooled batch is returned. Idempotent.
func (s *fedStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	//lint:ignore errdrop Close reports success; the stream's terminal error belongs to Next
	s.finish(nil)
	for msg := range s.ch {
		if msg.batch != nil {
			s.counters.add(-int64(len(msg.batch.Rows)))
			storage.PutBatch(msg.batch)
		}
	}
	return nil
}
