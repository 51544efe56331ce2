package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"cohera/internal/admission"
	"cohera/internal/exec"
	"cohera/internal/federation"
	"cohera/internal/obs"
	"cohera/internal/remote"
	"cohera/internal/sqlparse"
	"cohera/internal/workload"
)

// remoteBed is the browse and feed topology: one coordinator over three
// supplier sites, each a remote.Server on loopback HTTP serving one
// supplier's catalog with sku and category indexed and eq-pushable, and
// an admission gate in front of the coordinator whose window is above
// the client count (so it admits and never sheds: what it costs is the
// admission path itself, not queueing behind other requests).
type remoteBed struct {
	servers []*httptest.Server
	fed     *federation.Federation
	gate    *admission.Controller
}

func (b *remoteBed) Close() {
	if b.gate != nil {
		b.gate.Close()
	}
	for _, s := range b.servers {
		s.Close()
	}
}

func newRemoteBed(ctx context.Context, cat *catalog) (*remoteBed, error) {
	b := &remoteBed{fed: federation.New(federation.NewAgoric())}
	def := workload.CatalogDef()
	var frags []*federation.Fragment
	for i, name := range cat.suppliers {
		db := exec.NewDatabase()
		if err := db.LoadRows(def.Clone("catalog"), cat.rows[i]); err != nil {
			b.Close()
			return nil, err
		}
		for _, col := range []string{"sku", "category"} {
			if err := db.CreateTableIndex("catalog", col, false); err != nil {
				b.Close()
				return nil, err
			}
		}
		tbl, err := db.Table("catalog")
		if err != nil {
			b.Close()
			return nil, err
		}
		srv := remote.NewServer()
		srv.PublishTable(tbl, "sku", "category")
		hs := httptest.NewServer(srv)
		b.servers = append(b.servers, hs)

		sources, err := remote.Dial(hs.URL, "").Tables(ctx)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("dialing %s: %w", name, err)
		}
		if len(sources) != 1 {
			b.Close()
			return nil, fmt.Errorf("%s publishes %d tables, want 1", name, len(sources))
		}
		src, err := newTimedSource(sources[0])
		if err != nil {
			b.Close()
			return nil, err
		}
		site := federation.NewSite(fmt.Sprintf("site-%02d", i))
		if err := b.fed.AddSite(site); err != nil {
			b.Close()
			return nil, err
		}
		site.AddSource(src)
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("supplier = '%s'", name))
		if err != nil {
			b.Close()
			return nil, err
		}
		frags = append(frags, federation.NewFragment(name, pred, site))
	}
	if _, err := b.fed.DefineTable(def, frags...); err != nil {
		b.Close()
		return nil, err
	}
	b.gate = admission.New(admission.Config{MaxInFlight: 2 * clients})
	b.fed.SetAdmission(b.gate)
	return b, nil
}

// setUpRemote builds the bed setupReps times (each from scratch, the
// earlier ones torn down) and records the median as setup_s.
func setUpRemote(ctx context.Context, cat *catalog, rep *report) (*remoteBed, error) {
	var walls []time.Duration
	var bed *remoteBed
	for i := 0; i < setupReps; i++ {
		if bed != nil {
			bed.Close()
		}
		start := time.Now()
		b, err := newRemoteBed(ctx, cat)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(start))
		bed = b
	}
	rep.set("setup_s", medianSeconds(walls))
	rep.note("setup: %d builds, median %.3fs (%v)", len(walls), medianSeconds(walls), walls)
	return bed, nil
}

// Browse op classes.
const (
	opPoint = iota
	opSearch
	opAgg
)

// browseOp is one generated buyer request and its expected answer.
type browseOp struct {
	kind  int
	sql   string
	check func(*exec.Result) error
}

// browseMix deals the request mix: per block of ten, six sku point
// lookups (fanning out to all three sites), three category searches and
// one per-supplier category summary.
func browseMix(rng *rand.Rand) *mix { return newMix(rng, 6, 3, 1) }

// genBrowseOp draws the next request of the given kind.
func genBrowseOp(rng *rand.Rand, kind int, cat *catalog) browseOp {
	switch kind {
	case opPoint:
		s := rng.Intn(len(cat.rows))
		row := cat.rows[s][rng.Intn(len(cat.rows[s]))]
		return browseOp{kind: opPoint, sql: pointSQL(row[colSKU].Str()),
			check: func(res *exec.Result) error { return checkPoint(res, row) }}
	case opSearch:
		c := cat.categories[rng.Intn(len(cat.categories))]
		q := 800 + rng.Int63n(190)
		want := searchOracle(cat.byCategory[c], q)
		return browseOp{kind: opSearch, sql: searchSQL(c, q),
			check: func(res *exec.Result) error { return checkSearch(res, want) }}
	default:
		c := cat.categories[rng.Intn(len(cat.categories))]
		q := 800 + rng.Int63n(190)
		want := aggOracle(cat.byCategory[c], q)
		return browseOp{kind: opAgg, sql: aggSQL(c, q),
			check: func(res *exec.Result) error { return checkAgg(res, want) }}
	}
}

var opNames = map[int]string{opPoint: "browse.point", opSearch: "browse.search", opAgg: "browse.agg"}

// warmUpOps is how many requests each client runs before the clock
// starts, so connections, pools and lazily built state are in place
// (users do not pay for them on every request).
const warmUpOps = 50

func runBrowse(cfg config, rep *report) error {
	ctx := context.Background()
	cat, err := genCatalog(cfg.seed, numSuppliers, itemsPerSupplier)
	if err != nil {
		return err
	}
	bed, err := setUpRemote(ctx, cat, rep)
	if err != nil {
		return err
	}
	defer bed.Close()

	rngs := make([]*rand.Rand, clients)
	mixes := make([]*mix, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(cfg.seed*1000 + int64(c)))
		mixes[c] = browseMix(rngs[c])
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < warmUpOps; i++ {
			op := genBrowseOp(rngs[c], mixes[c].next(), cat)
			res, err := bed.fed.Query(ctx, op.sql)
			if err == nil {
				err = op.check(res)
			}
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	var tracer *Tracer
	if cfg.trace {
		tracer = newTracer()
	}
	stopProfile, err := beginMeasure(cfg)
	if err != nil {
		return err
	}
	type clientStats struct {
		lat, latTraced [3]Sample
		parseNS        []int64
		resultRows     int64
		usefulRows     int64
		decodedRows    int64
		localExecNS    []int64
		gatherNS       []int64
	}
	stats := make([]clientStats, clients)
	waitH := obs.Default().Histogram("cohera_admission_queue_wait_seconds", "", nil)
	waitN0, waitSum0 := waitH.Count(), waitH.Sum()

	wall := closedLoop(cfg.dur, func(c, i int) {
		st := &stats[c]
		op := genBrowseOp(rngs[c], mixes[c].next(), cat)
		traced := tracedOp(cfg, i)
		opCtx := ctx
		var sp *liveSpan
		if traced {
			opCtx, sp = startOp(ctx, tracer, opNames[op.kind])
		}
		rep.attempted.Add(1)
		start := time.Now()
		res, trace, err := bed.fed.QueryTraced(opCtx, op.sql)
		lat := time.Since(start)
		sp.end(nil)
		if err == nil {
			err = op.check(res)
		}
		if err != nil {
			rep.fail(fmt.Errorf("%s: %w", op.sql, err))
			return
		}
		st.resultRows += int64(len(res.Rows))
		if !traced {
			st.lat[op.kind].add(lat)
			return
		}
		st.latTraced[op.kind].add(lat)
		// Layers with no entry point the benchmark can wrap: the
		// statement's parse cost is timed on its own, and summaries are
		// re-run under EXPLAIN ANALYZE for stage walls.
		pstart := time.Now()
		if _, err := sqlparse.Parse(op.sql); err != nil {
			rep.fail(err)
			return
		}
		st.parseNS = append(st.parseNS, int64(time.Since(pstart)))
		switch op.kind {
		case opSearch:
			st.usefulRows += int64(len(res.Rows))
			for _, n := range trace.PushedRows {
				st.decodedRows += int64(n)
			}
		case opAgg:
			// Summaries run the materialized path, whose gather and
			// local-exec stages EXPLAIN ANALYZE times.
			lx, g, err := explainStages(ctx, bed.fed, op.sql)
			if err != nil {
				rep.fail(err)
				return
			}
			st.localExecNS = append(st.localExecNS, lx)
			st.gatherNS = append(st.gatherNS, g)
		}
	})
	if err := stopProfile(); err != nil {
		return err
	}

	var lat, latTraced [3]*Sample
	var parseNS, localNS, gatherNS []int64
	var resultRows, useful, decoded int64
	for k := range lat {
		lat[k] = merged(&stats[0].lat[k], &stats[1].lat[k])
		latTraced[k] = merged(&stats[0].latTraced[k], &stats[1].latTraced[k])
	}
	for c := range stats {
		st := &stats[c]
		parseNS = append(parseNS, st.parseNS...)
		localNS = append(localNS, st.localExecNS...)
		gatherNS = append(gatherNS, st.gatherNS...)
		resultRows += st.resultRows
		useful += st.usefulRows
		decoded += st.decodedRows
	}
	ops := rep.attempted.Load()
	rep.set("ops_per_s", float64(ops)/wall.Seconds())
	rep.set("rows_per_s", float64(resultRows)/wall.Seconds())
	rep.note("measured %d requests in %.3fs", ops, wall.Seconds())
	untracedPoint := lat[opPoint]
	if cfg.trace {
		// The traced run's end-to-end figures come from its traced half.
		lat = latTraced
	}
	rep.setClass("point", "point lookups", lat[opPoint])
	rep.setClass("search", "searches + summaries", merged(lat[opSearch], lat[opAgg]))
	s := lat[opSearch].summarize()
	a := lat[opAgg].summarize()
	rep.note("searches alone: n=%d p50=%.3fms; summaries alone: n=%d p50=%.3fms", s.N, s.P50, a.N, a.P50)
	if !cfg.trace {
		return nil
	}

	rep.set("trace.overhead_pct", overheadPct(latTraced[opPoint], untracedPoint))
	rep.set("sqlparse.parse_us", meanNS(parseNS)/1e3)
	if n := waitH.Count() - waitN0; n > 0 {
		rep.set("admission.wait_us", float64(waitH.Sum()-waitSum0)/float64(n)/1e3)
		rep.note("admission: %d admissions over %d requests", n, ops)
	}
	if decoded > 0 {
		rep.set("federation.useful_row_frac", float64(useful)/float64(decoded))
	}
	rep.set("exec.local_exec_ms", medianNS(localNS)/1e6)
	rep.set("federation.gather_ms", medianNS(gatherNS)/1e6)

	// The point-lookup layers: remote opens per lookup and their
	// latency, and the coordinator's self time around them.
	spans := tracer.Spans()
	rootName := make(map[int64]string)
	for _, s := range spans {
		if s.Parent == 0 {
			rootName[s.Op] = s.Name
		}
	}
	var opens, selfs []int64
	for _, s := range spans {
		if s.Name == "remote.open" && rootName[s.Op] == opNames[opPoint] {
			opens = append(opens, s.End-s.Start)
		}
	}
	for _, b := range accountSpans(rep, spans) {
		if b.name == opNames[opPoint] {
			selfs = append(selfs, b.self)
		}
	}
	rep.set("remote.open_ms", meanNS(opens)/1e6)
	if len(selfs) > 0 {
		rep.set("remote.fetches_per_query", float64(len(opens))/float64(len(selfs)))
	}
	rep.set("federation.self_ms", medianNS(selfs)/1e6)
	return tracer.Write(cfg.out + ".spans.jsonl")
}

// explainStages re-runs a statement under EXPLAIN ANALYZE and returns
// the coordinator's local-exec and gather stage walls.
func explainStages(ctx context.Context, fed *federation.Federation, sql string) (localNS, gatherNS int64, err error) {
	stmt, err := sqlparse.Parse("EXPLAIN ANALYZE " + sql)
	if err != nil {
		return 0, 0, err
	}
	x, ok := stmt.(sqlparse.ExplainStmt)
	if !ok {
		return 0, 0, fmt.Errorf("EXPLAIN ANALYZE parsed as %T", stmt)
	}
	r, err := fed.Explain(ctx, x)
	if err != nil {
		return 0, 0, err
	}
	for _, st := range r.Stages {
		switch st.Stage {
		case "local-exec":
			localNS += st.WallNs
		case "gather":
			gatherNS += st.WallNs
		}
	}
	return localNS, gatherNS, nil
}

func runFeed(cfg config, rep *report) error {
	ctx := context.Background()
	cat, err := genCatalog(cfg.seed, numSuppliers, itemsPerSupplier)
	if err != nil {
		return err
	}
	wantRows, wantDigest := exportOracle(cat)
	bed, err := setUpRemote(ctx, cat, rep)
	if err != nil {
		return err
	}
	defer bed.Close()

	type exportStats struct {
		rows, nextNS int64
		peak         int
	}
	// export drains one export, checking it against the oracle; traced
	// exports also time each Next of the federated stream.
	export := func(opCtx context.Context, traced bool) (first, total time.Duration, es exportStats, err error) {
		start := time.Now()
		st, trace, err := bed.fed.QueryStream(opCtx, exportSQL())
		if err != nil {
			return 0, 0, es, err
		}
		var digest uint64
		for {
			var t0 time.Time
			if traced {
				t0 = time.Now()
			}
			row, err := st.Next()
			if traced {
				es.nextNS += int64(time.Since(t0))
			}
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				_ = st.Close() // the stream error is the one worth reporting
				return 0, 0, es, err
			}
			if es.rows == 0 {
				first = time.Since(start)
			}
			es.rows++
			digest ^= rowHash(row[0], row[1], row[2], row[3])
		}
		if err := st.Close(); err != nil {
			return 0, 0, es, err
		}
		total = time.Since(start)
		es.peak = trace.PeakBufferedRows
		if es.rows != int64(wantRows) || digest != wantDigest {
			return 0, 0, es, fmt.Errorf("export returned %d rows digest %016x, want %d rows digest %016x", es.rows, digest, wantRows, wantDigest)
		}
		return first, total, es, nil
	}
	// One export per client warms connections and pools.
	for c := 0; c < clients; c++ {
		if _, _, _, err := export(ctx, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	var tracer *Tracer
	if cfg.trace {
		tracer = newTracer()
	}
	stopProfile, err := beginMeasure(cfg)
	if err != nil {
		return err
	}
	bytesC := obs.Default().Counter("cohera_stream_bytes_total", "", obs.Labels{"side": "client"})
	bytes0 := bytesC.Value()
	var mu sync.Mutex
	var firstS, totalS, firstT, totalT Sample
	var rows, tracedRows, tracedNextNS int64
	peak := 0
	wall := closedLoop(cfg.dur, func(c, i int) {
		traced := tracedOp(cfg, i)
		opCtx := ctx
		var sp *liveSpan
		if traced {
			opCtx, sp = startOp(ctx, tracer, "feed.export")
		}
		rep.attempted.Add(1)
		first, total, es, err := export(opCtx, traced)
		sp.end(nil)
		if err != nil {
			rep.fail(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		rows += es.rows
		if es.peak > peak {
			peak = es.peak
		}
		if traced {
			firstT.add(first)
			totalT.add(total)
			tracedRows += es.rows
			tracedNextNS += es.nextNS
		} else {
			firstS.add(first)
			totalS.add(total)
		}
	})
	if err := stopProfile(); err != nil {
		return err
	}
	ops := rep.attempted.Load()
	rep.set("ops_per_s", float64(ops)/wall.Seconds())
	rep.set("rows_per_s", float64(rows)/wall.Seconds())
	rep.note("measured %d exports (%d rows each) in %.3fs: %.0f rows/s, %.2fµs/row", ops, wantRows, wall.Seconds(),
		float64(rows)/wall.Seconds(), wall.Seconds()*1e6/float64(max(rows, 1)))
	if !cfg.trace {
		rep.setClass("point", "time to first row", &firstS)
		rep.setClass("search", "full export", &totalS)
		return nil
	}
	rep.setClass("point", "time to first row", &firstT)
	rep.setClass("search", "full export", &totalT)
	rep.set("trace.overhead_pct", overheadPct(&totalT, &totalS))
	rep.set("federation.stream_next_ns_per_row", float64(tracedNextNS)/float64(max(tracedRows, 1)))
	rep.set("federation.peak_buffered_rows", float64(peak))
	rep.set("remote.bytes_per_row", float64(bytesC.Value()-bytes0)/float64(max(rows, 1)))
	spans := tracer.Spans()
	accountSpans(rep, spans)
	var remoteNext, remoteRows int64
	for _, s := range spans {
		if s.Name == "remote.stream" {
			remoteNext += s.Attrs["next_ns"]
			remoteRows += s.Attrs["rows"]
		}
	}
	rep.set("remote.next_ns_per_row", float64(remoteNext)/float64(max(remoteRows, 1)))
	return tracer.Write(cfg.out + ".spans.jsonl")
}

func meanNS(v []int64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

func medianNS(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	sort.Float64s(f)
	return quantile(f, 0.5)
}
