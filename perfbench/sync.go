package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cohera/internal/federation"
	"cohera/internal/obs"
	"cohera/internal/sqlparse"
	"cohera/internal/wal"
	"cohera/internal/workload"
)

// The supplier-sync topology: three in-process sites, each with a WAL at
// fsync=batch (coherad's default), plus a coordinator journal WAL.
// Replicas are co-hosted in a ring — fragment i (supplier i) lives on
// sites i and i+1 — so every site holds two fragments, which is the
// placement where a searched write pays the pre-statement census.
const (
	journalWAL = "journal"
	// downFrom and downTo bound the span of the statement sequence for
	// which one site is down; reaching downTo brings it back and runs
	// one reconciler pass with the writers paused.
	downFrom = 40
	downTo   = 120
	// scriptLen is the fixed statement script the recovery bed runs
	// before its restart, so recovery time is measured on a log that
	// depends on the seed alone; its middle third runs with a site down
	// so the coordinator journal has intents to restore.
	scriptLen = 30
	// readAttempts caps how often the buyer tries one read.
	readAttempts = 3
	// maxThink bounds the buyer's uniform think time between reads.
	maxThink = 20 * time.Millisecond
)

// syncTimes accumulates the walls timed around the calls the benchmark
// makes into the WAL and durability layers. With tracer set (the traced
// run) each call is also recorded as a span under the set-up, recovery
// or repair operation that made it.
type syncTimes struct {
	tracer             *Tracer
	loads              []int64 // per LoadFragment call
	loadRows           int64
	checkpoints        []int64
	walOpens, restores []int64
	reconcile          []int64
}

// call runs fn as a child span of ctx's operation and, when acc is not
// nil, appends its wall time to *acc.
func call(ctx context.Context, name string, acc *[]int64, fn func() error) error {
	_, sp := startChild(ctx, name)
	start := time.Now()
	err := fn()
	if acc != nil {
		*acc = append(*acc, int64(time.Since(start)))
	}
	sp.end(nil)
	return err
}

type syncBed struct {
	fed   *federation.Federation
	sites []*federation.Site
	logs  []*wal.Log // per site, then the journal log last
	frags []*federation.Fragment
}

// close closes every log; the first error wins.
func (b *syncBed) close() error {
	var first error
	for _, l := range b.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.logs = nil
	return first
}

// openLog opens one WAL at fsync=batch, timed as "wal.open".
func openLog(ctx context.Context, dir, name string, acc *[]int64) (l *wal.Log, rec *wal.Recovered, err error) {
	err = call(ctx, "wal.open", acc, func() error {
		l, rec, err = wal.Open(dir, wal.Options{Policy: wal.SyncBatch, Name: name})
		return err
	})
	return l, rec, err
}

// openSyncBed opens the bed's logs under root and restores whatever
// they hold: an empty directory gives an empty federation, a closed
// bed's directory gives it back. The WAL open and site restore calls
// are timed into tm.
func openSyncBed(ctx context.Context, root string, names []string, tm *syncTimes) (*syncBed, error) {
	b := &syncBed{fed: federation.New(federation.NewAgoric())}
	for i := range names {
		site := federation.NewSite(fmt.Sprintf("site-%02d", i))
		if err := b.fed.AddSite(site); err != nil {
			return nil, err
		}
		l, rec, err := openLog(ctx, filepath.Join(root, site.Name()), site.Name(), &tm.walOpens)
		if err != nil {
			_ = b.close() // the open error is the one worth reporting
			return nil, err
		}
		b.logs = append(b.logs, l)
		if err := call(ctx, "federation.restore_site", &tm.restores, func() error {
			_, err := federation.RestoreSite(site, l, rec)
			return err
		}); err != nil {
			_ = b.close() // the restore error is the one worth reporting
			return nil, err
		}
		b.sites = append(b.sites, site)
	}
	jl, jrec, err := openLog(ctx, filepath.Join(root, journalWAL), journalWAL, &tm.walOpens)
	if err != nil {
		_ = b.close() // the open error is the one worth reporting
		return nil, err
	}
	b.logs = append(b.logs, jl)
	if err := call(ctx, "federation.restore_journal", nil, func() error {
		return federation.RestoreJournal(b.fed, jl, jrec)
	}); err != nil {
		_ = b.close() // the restore error is the one worth reporting
		return nil, err
	}
	for i, name := range names {
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("supplier = '%s'", name))
		if err != nil {
			_ = b.close() // the parse error is the one worth reporting
			return nil, err
		}
		b.frags = append(b.frags, federation.NewFragment(name, pred, b.sites[i], b.sites[(i+1)%len(b.sites)]))
	}
	if _, err := b.fed.DefineTable(workload.CatalogDef(), b.frags...); err != nil {
		_ = b.close() // the define error is the one worth reporting
		return nil, err
	}
	return b, nil
}

// newSyncBed builds a fresh bed as one "sync.setup" operation: bulk-load
// every fragment through the WALs, index sku at every site, then
// checkpoint sites and journal so the timed work starts from a
// truncated log.
func newSyncBed(ctx context.Context, root string, cat *catalog, tm *syncTimes) (*syncBed, error) {
	ctx, sp := startOp(ctx, tm.tracer, "sync.setup")
	defer sp.end(nil)
	fresh := &syncTimes{} // opening empty logs is not a recovery sample
	b, err := openSyncBed(ctx, root, cat.suppliers, fresh)
	if err != nil {
		return nil, err
	}
	for i, frag := range b.frags {
		if err := call(ctx, "federation.load_fragment", &tm.loads, func() error {
			return b.fed.LoadFragment("catalog", frag, cat.rows[i])
		}); err != nil {
			_ = b.close() // the load error is the one worth reporting
			return nil, err
		}
		tm.loadRows += int64(len(cat.rows[i]))
	}
	for _, s := range b.sites {
		if err := call(ctx, "exec.create_index", nil, func() error {
			return s.DB().CreateTableIndex("catalog", "sku", false)
		}); err != nil {
			_ = b.close() // the index error is the one worth reporting
			return nil, err
		}
	}
	for _, s := range b.sites {
		if err := call(ctx, "federation.checkpoint_site", &tm.checkpoints, func() error {
			return federation.CheckpointSite(s)
		}); err != nil {
			_ = b.close() // the checkpoint error is the one worth reporting
			return nil, err
		}
	}
	if err := call(ctx, "federation.checkpoint_journal", nil, func() error {
		return federation.CheckpointJournal(b.logs[len(b.logs)-1])
	}); err != nil {
		_ = b.close() // the checkpoint error is the one worth reporting
		return nil, err
	}
	return b, nil
}

// Statement kinds of the supplier-sync sequence.
const (
	stRead = iota
	stUpdate
	stDelete
	stInsert
	numStmtKinds
)

var stmtNames = [numStmtKinds]string{"sync.read", "sync.update", "sync.delete", "sync.insert"}

// syncModel is the supplier writer's view of the rows it writes: the
// even-numbered items of every supplier plus whatever it inserts. The
// buyer reads the odd-numbered items, which nothing writes, so every
// read has an exact expected answer while writes land beside it.
type syncModel struct {
	rng      *rand.Rand
	mix      *mix
	live     []string          // written-partition skus currently present
	index    map[string]int    // sku → position in live
	qty      map[string]int64  // sku → expected qty
	supplier map[string]string // sku → owning supplier
	touched  map[string]bool   // skus any statement wrote; false once deleted
	category []string
	inserted int
}

func newSyncModel(cat *catalog, seed int64) *syncModel {
	rng := rand.New(rand.NewSource(seed))
	m := &syncModel{
		// Per block of thirteen writes: seven supplier-scoped UPDATEs by
		// sku, two DELETEs by sku and four 10-row INSERTs.
		rng: rng, mix: newMix(rng, 0, 7, 2, 4),
		index: make(map[string]int), qty: make(map[string]int64), supplier: make(map[string]string),
		touched: make(map[string]bool), category: cat.categories,
	}
	for s, rows := range cat.rows {
		for j := 0; j < len(rows); j += 2 {
			m.add(rows[j][colSKU].Str(), cat.suppliers[s], rows[j][colQty].Int())
		}
	}
	return m
}

func (m *syncModel) add(sku, supplier string, qty int64) {
	m.index[sku] = len(m.live)
	m.live = append(m.live, sku)
	m.qty[sku] = qty
	m.supplier[sku] = supplier
}

func (m *syncModel) remove(sku string) {
	i := m.index[sku]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.index[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.index, sku)
	delete(m.qty, sku)
	delete(m.supplier, sku)
	m.touched[sku] = false
}

// syncStmt is one generated statement, its expected effect, and the
// model update to apply once it succeeds.
type syncStmt struct {
	kind  int
	sql   string
	rows  int // expected affected rows (writes) or returned rows (reads)
	check func(rows [][2]string) error
	apply func()
}

// readStmt is a buyer point read of an item nothing writes.
func readStmt(rng *rand.Rand, cat *catalog) syncStmt {
	rows := cat.rows[rng.Intn(len(cat.rows))]
	row := rows[1+2*rng.Intn(len(rows)/2)]
	return pointReadStmt(row[colSKU].Str(), row[colQty].Int(), true)
}

// pointReadStmt reads one sku's qty, expecting it present with want or
// absent.
func pointReadStmt(sku string, want int64, present bool) syncStmt {
	return syncStmt{kind: stRead, rows: 1, sql: fmt.Sprintf("SELECT sku, qty FROM catalog WHERE sku = '%s'", sku),
		check: func(rows [][2]string) error {
			if !present {
				if len(rows) != 0 {
					return fmt.Errorf("read of deleted %s returned %v", sku, rows)
				}
				return nil
			}
			if len(rows) != 1 || rows[0][0] != sku || rows[0][1] != fmt.Sprint(want) {
				return fmt.Errorf("read of %s returned %v, want [[%s %d]]", sku, rows, sku, want)
			}
			return nil
		}}
}

// next draws the writer's next statement.
func (m *syncModel) next(suppliers []string) syncStmt {
	kind := m.mix.next()
	sku := m.live[m.rng.Intn(len(m.live))]
	sup := m.supplier[sku]
	switch kind {
	case stUpdate:
		q := m.rng.Int63n(1000)
		return syncStmt{kind: stUpdate, rows: 1,
			sql:   fmt.Sprintf("UPDATE catalog SET qty = %d WHERE supplier = '%s' AND sku = '%s'", q, sup, sku),
			apply: func() { m.qty[sku] = q; m.touched[sku] = true }}
	case stDelete:
		return syncStmt{kind: stDelete, rows: 1,
			sql:   fmt.Sprintf("DELETE FROM catalog WHERE supplier = '%s' AND sku = '%s'", sup, sku),
			apply: func() { m.remove(sku) }}
	default:
		sup := suppliers[m.rng.Intn(len(suppliers))]
		var vals, skus []string
		var qtys []int64
		for k := 0; k < 10; k++ {
			m.inserted++
			nsku := fmt.Sprintf("%s-N%06d", sup[len(sup)-2:], m.inserted)
			q := m.rng.Int63n(1000)
			cat := m.category[m.rng.Intn(len(m.category))]
			vals = append(vals, fmt.Sprintf("('%s', '%s', '%s', %d)", nsku, sup, cat, q))
			skus, qtys = append(skus, nsku), append(qtys, q)
		}
		return syncStmt{kind: stInsert, rows: 10,
			sql: "INSERT INTO catalog (sku, supplier, category, qty) VALUES " + strings.Join(vals, ", "),
			apply: func() {
				for i, sku := range skus {
					m.add(sku, sup, qtys[i])
					m.touched[sku] = true
				}
			}}
	}
}

// verifyWrites reads back every sku the writer touched and checks it
// against the model: present with its last qty, or gone.
func verifyWrites(ctx context.Context, fed *federation.Federation, m *syncModel) error {
	for sku, present := range m.touched {
		if _, _, err := execStmt(ctx, fed, pointReadStmt(sku, m.qty[sku], present)); err != nil {
			return fmt.Errorf("write read-back: %w", err)
		}
	}
	return nil
}

// execStmt runs one statement and checks its effect; it returns the
// affected (or read) row count and the replicas journaled for later.
func execStmt(ctx context.Context, fed *federation.Federation, st syncStmt) (rows, skipped int, err error) {
	if st.kind == stRead {
		res, err := fed.Query(ctx, st.sql)
		if err != nil {
			return 0, 0, err
		}
		got := make([][2]string, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = [2]string{r[0].String(), r[1].String()}
		}
		return len(res.Rows), 0, st.check(got)
	}
	_, dr, err := fed.Exec(ctx, st.sql)
	if err != nil {
		return 0, 0, err
	}
	if dr.Rows != st.rows || len(dr.Diverged) > 0 {
		return 0, 0, fmt.Errorf("%s: %d rows affected (diverged %v), want %d", st.sql, dr.Rows, dr.Diverged, st.rows)
	}
	st.apply()
	return dr.Rows, len(dr.SkippedReplicas), nil
}

// repairAndVerify runs one reconciler pass (timed into acc as
// "federation.reconcile"), then checks that every fragment's replicas
// hold identical digests with nothing pending and that a second pass
// finds nothing to do.
func repairAndVerify(ctx context.Context, fed *federation.Federation, acc *[]int64) error {
	r := federation.NewReconciler(fed)
	var rep federation.RepairReport
	if err := call(ctx, "federation.reconcile", acc, func() (err error) {
		rep, err = r.RunOnce(ctx)
		return err
	}); err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	if rep.Pending != 0 {
		return fmt.Errorf("repair left %d intents pending: %+v", rep.Pending, rep)
	}
	again, err := r.RunOnce(ctx)
	if err != nil {
		return fmt.Errorf("second repair pass: %w", err)
	}
	if again.Replayed != 0 || again.CopyRepaired != 0 || again.Divergent != 0 {
		return fmt.Errorf("second repair pass was not idle: %+v", again)
	}
	byFrag := make(map[string][]federation.ReplicaState)
	for _, st := range r.Status() {
		byFrag[st.Fragment] = append(byFrag[st.Fragment], st)
	}
	for frag, sts := range byFrag {
		for _, st := range sts {
			if st.Pending != 0 || !st.Digest.Equal(sts[0].Digest) {
				return fmt.Errorf("fragment %s replicas disagree after repair: %+v", frag, sts)
			}
		}
	}
	return nil
}

// siteDigests snapshots each site's whole-table digest.
func siteDigests(b *syncBed) ([]string, error) {
	var out []string
	for _, s := range b.sites {
		d, err := s.DB().TableDigest("catalog")
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%s:%016x/%d", s.Name(), d.Hash, d.Rows))
	}
	return out, nil
}

// recoveryBed builds a bed, runs the seed's fixed script on it (with a
// site down for the middle third), closes every log, and times the
// reopen + restore as one "sync.recovery" operation. The restored site
// digests and journal backlog must equal the ones taken before
// shutdown, and a reconciler pass over the restored bed must converge
// it.
func recoveryBed(ctx context.Context, root string, cat *catalog, seed int64, tm *syncTimes) (time.Duration, error) {
	b, err := newSyncBed(ctx, root, cat, tm)
	if err != nil {
		return 0, err
	}
	m := newSyncModel(cat, seed+7)
	down := b.sites[int(seed%int64(len(b.sites)))]
	for k := 0; k < scriptLen; k++ {
		down.SetDown(k >= scriptLen/3 && k < 2*scriptLen/3)
		if _, _, err := execStmt(ctx, b.fed, m.next(cat.suppliers)); err != nil {
			_ = b.close() // the script error is the one worth reporting
			return 0, fmt.Errorf("recovery script: %w", err)
		}
	}
	down.SetDown(false)
	want, err := siteDigests(b)
	if err != nil {
		_ = b.close() // the digest error is the one worth reporting
		return 0, err
	}
	wantPending := b.fed.Journal().PendingTotal()
	if wantPending == 0 {
		_ = b.close() // the missing backlog is the error worth reporting
		return 0, fmt.Errorf("recovery script journaled no intents")
	}
	if err := b.close(); err != nil {
		return 0, err
	}

	rctx, sp := startOp(ctx, tm.tracer, "sync.recovery")
	start := time.Now()
	r, err := openSyncBed(rctx, root, cat.suppliers, tm)
	wall := time.Since(start)
	sp.end(nil)
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	defer func() { _ = r.close() }() // verification below reports the errors that matter
	got, err := siteDigests(r)
	if err != nil {
		return 0, err
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		return 0, fmt.Errorf("restored digests %v, want %v", got, want)
	}
	if p := r.fed.Journal().PendingTotal(); p != wantPending {
		return 0, fmt.Errorf("restored journal holds %d pending intents, want %d", p, wantPending)
	}
	if err := repairAndVerify(ctx, r.fed, nil); err != nil {
		return 0, fmt.Errorf("after recovery: %w", err)
	}
	if err := verifyWrites(ctx, r.fed, m); err != nil {
		return 0, fmt.Errorf("after recovery: %w", err)
	}
	return wall, nil
}

func runSync(cfg config, rep *report) error {
	ctx := context.Background()
	cat, err := genCatalog(cfg.seed, numSuppliers, itemsPerSupplier)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, "work-sync-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// The recovery bed runs first and alone; then setupReps plain
	// builds are timed, the last of which carries the closed loop.
	tm := &syncTimes{}
	if cfg.trace {
		tm.tracer = newTracer()
	}
	recovery, err := recoveryBed(ctx, filepath.Join(work, "recovery"), cat, cfg.seed, tm)
	if err != nil {
		return err
	}
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		b, err := newSyncBed(ctx, filepath.Join(work, fmt.Sprintf("setup-%d", i)), cat, tm)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
		if i < setupReps-1 {
			if err := b.close(); err != nil {
				return err
			}
			continue
		}
		rep.set("setup_s", medianSeconds(setups))
		rep.note("setup: %d builds, median %.3fs (%v)", len(setups), medianSeconds(setups), setups)
		err = timedSync(ctx, cfg, rep, cat, b, tm)
		if cerr := b.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	rep.note("recovery (reopen + restore of the fixed-script bed): %.3fs", recovery.Seconds())
	rep.note("repair (one reconciler pass after the down span): %.3fs", meanNS(tm.reconcile)/1e9)
	if !cfg.trace {
		return nil
	}
	var loadNS int64
	for _, ns := range tm.loads {
		loadNS += ns
	}
	rep.set("sync.recovery_s", recovery.Seconds())
	rep.set("wal.load_ns_per_row", float64(loadNS)/float64(max(tm.loadRows, 1)))
	rep.set("federation.checkpoint_ms", meanNS(tm.checkpoints)/1e6)
	rep.set("wal.open_ms", meanNS(tm.walOpens)/1e6)
	rep.set("federation.restore_site_ms", meanNS(tm.restores)/1e6)
	rep.set("federation.reconcile_ms", meanNS(tm.reconcile)/1e6)
	accountSpans(rep, tm.tracer.Spans())
	return tm.tracer.Write(cfg.out + ".spans.jsonl")
}

// timedSync is the closed loop: a supplier client issues the seed's
// write sequence while a buyer client issues point reads beside it.
// One site is down for statements [downFrom, downTo) of the combined
// sequence, and reaching downTo pauses both clients for one timed
// reconciler pass. After the loop every written sku is read back.
func timedSync(ctx context.Context, cfg config, rep *report, cat *catalog, b *syncBed, tm *syncTimes) error {
	writer := newSyncModel(cat, cfg.seed*1000)
	readRNG := rand.New(rand.NewSource(cfg.seed*1000 + 1))
	down := b.sites[int(cfg.seed%int64(len(b.sites)))]
	var (
		readRetries atomic.Int64
		pause       sync.RWMutex // statements hold it shared; the repair holds it exclusively
		seq         atomic.Int64
		repaired    atomic.Bool
		mu          sync.Mutex
		lat         [numStmtKinds]Sample
		latT        [numStmtKinds]Sample
		rowsDone    int64
		writes      int64
		written     int64
		skipped     int64
		pending     int
		pauseNS     int64
	)
	siteLogs := b.logs[:len(b.sites)]
	sizes0 := make([]int64, len(siteLogs))
	for i, l := range siteLogs {
		sizes0[i] = l.Size()
	}
	appends := func() int64 {
		var n int64
		for _, s := range b.sites {
			n += obs.Default().Counter("cohera_wal_appends_total", "", obs.Labels{"wal": s.Name()}).Value()
		}
		return n
	}
	appends0 := appends()

	repair := func() {
		pause.Lock()
		defer pause.Unlock()
		pstart := time.Now()
		down.SetDown(false)
		rctx, sp := startOp(ctx, tm.tracer, "sync.repair")
		err := repairAndVerify(rctx, b.fed, &tm.reconcile)
		sp.end(nil)
		mu.Lock()
		pauseNS += int64(time.Since(pstart))
		mu.Unlock()
		if err != nil {
			rep.fail(err)
		}
	}

	tracer := tm.tracer
	stopProfile, err := beginMeasure(cfg)
	if err != nil {
		return err
	}
	wall := closedLoop(cfg.dur, func(c, i int) {
		k := seq.Add(1) - 1
		switch k {
		case downFrom:
			down.SetDown(true)
		case downTo:
			if repaired.CompareAndSwap(false, true) {
				repair()
			}
		}
		var st syncStmt
		if c == 0 {
			st = writer.next(cat.suppliers)
		} else {
			// A random think time before each read keeps the buyer from
			// phase-locking onto the writer's lock releases, so its reads
			// sample the writer's state the way independent buyers do.
			//lint:ignore sleepsync buyer think time: paces the next read, synchronizes with nothing
			time.Sleep(time.Duration(readRNG.Int63n(int64(maxThink))))
			st = readStmt(readRNG, cat)
		}
		traced := tracedOp(cfg, i)
		opCtx := ctx
		var sp *liveSpan
		if traced {
			opCtx, sp = startOp(ctx, tracer, stmtNames[st.kind])
		}
		pause.RLock()
		rep.attempted.Add(1)
		start := time.Now()
		n, sk, err := execStmt(opCtx, b.fed, st)
		// A buyer-facing app server retries a read refused with the
		// typed, retryable ErrNoReplica; so does the buyer here, with
		// every attempt inside the read's latency and each retry
		// counted. (It happens while a site is down: the agoric
		// auction's bid timeout can drop the one live replica's bid
		// while the writer's census holds that replica's journal lock.)
		for attempt := 1; err != nil && st.kind == stRead && errors.Is(err, federation.ErrNoReplica) && attempt < readAttempts; attempt++ {
			readRetries.Add(1)
			n, sk, err = execStmt(opCtx, b.fed, st)
		}
		d := time.Since(start)
		pause.RUnlock()
		sp.end(nil)
		if err != nil {
			rep.fail(err)
			return
		}
		// Only the writer samples the backlog: PendingTotal takes every
		// journal group's lock, which would park the buyer behind the
		// writer's census between its reads.
		p := 0
		if c == 0 {
			p = b.fed.Journal().PendingTotal()
		}
		mu.Lock()
		defer mu.Unlock()
		if traced {
			latT[st.kind].add(d)
		} else {
			lat[st.kind].add(d)
		}
		rowsDone += int64(n)
		if st.kind != stRead {
			writes++
			written += int64(n)
			skipped += int64(sk)
		}
		if p > pending {
			pending = p
		}
	})
	if err := stopProfile(); err != nil {
		return err
	}
	active := wall - time.Duration(pauseNS) // the loop has ended: no lock needed
	if !repaired.Load() {
		repair()
	}
	if err := verifyWrites(ctx, b.fed, writer); err != nil {
		rep.fail(err)
	}
	ops := rep.attempted.Load()
	rep.set("ops_per_s", float64(ops)/active.Seconds())
	rep.set("rows_per_s", float64(rowsDone)/active.Seconds())
	rep.note("measured %d statements (%d writes, %d rows) in %.3fs, excluding %.3fs paused for repair; %d buyer read retries",
		ops, writes, rowsDone, active.Seconds(), (wall - active).Seconds(), readRetries.Load())

	var walBytes int64
	for i, l := range siteLogs {
		walBytes += l.Size() - sizes0[i]
	}
	walPerRow := float64(walBytes) / float64(max(written, 1))
	rep.note("wal: %d bytes over %d written rows = %.1f B/row", walBytes, written, walPerRow)

	classes := lat
	if cfg.trace {
		classes = latT
	}
	rep.setClass("point", "buyer point reads", &classes[stRead])
	rep.setClass("search", "searched UPDATE/DELETE by sku", merged(&classes[stUpdate], &classes[stDelete]))
	ins := classes[stInsert].summarize()
	rep.note("10-row INSERTs: n=%d p50=%.3fms p%02.0f=%.3fms", ins.N, ins.P50, ins.TailQ*100, ins.Tail)
	if !cfg.trace {
		return nil
	}
	rep.set("trace.overhead_pct", overheadPct(&latT[stUpdate], &lat[stUpdate]))
	rep.set("sync.insert_p50_ms", ins.P50)
	rep.set("sync.insert_p90_ms", ins.Tail)
	rep.set("sync.wal_bytes_per_row", walPerRow)
	rep.set("wal.appends_per_stmt", float64(appends()-appends0)/float64(max(writes, 1)))
	rep.set("journal.intents_appended", float64(skipped))
	rep.set("sync.read_retries", float64(readRetries.Load()))
	rep.set("journal.pending_peak", float64(pending))
	var fsyncP50 []float64
	for _, s := range b.sites {
		h := obs.Default().Histogram("cohera_wal_fsync_latency", "", obs.Labels{"wal": s.Name()})
		if h.Count() > 0 {
			fsyncP50 = append(fsyncP50, float64(h.Quantile(0.5))/1e3)
		}
	}
	sort.Float64s(fsyncP50)
	rep.set("wal.fsync_p50_us", quantile(fsyncP50, 0.5))
	return nil
}
