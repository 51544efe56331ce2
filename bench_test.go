package cohera_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"cohera/internal/bench"
	"cohera/internal/exec"
	"cohera/internal/federation"
	"cohera/internal/ir"
	"cohera/internal/mview"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
	"cohera/internal/wrapper"
)

// One benchmark per experiment in DESIGN.md's index. Each runs the same
// code path as cmd/coherabench in quick mode; the full sweeps and their
// printed tables are recorded in EXPERIMENTS.md.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var run func(bench.Config) (bench.Table, error)
	for _, e := range bench.All() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("no experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		cfg := bench.Quick()
		cfg.Seed = int64(i + 1)
		if _, err := run(cfg); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE1Staleness(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Hybrid(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE2bSemanticCache(b *testing.B) { benchExperiment(b, "E2b") }
func BenchmarkE3OptimizerScale(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4LoadBalance(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Availability(b *testing.B)   { benchExperiment(b, "E5") }
func BenchmarkE6FuzzySearch(b *testing.B)    { benchExperiment(b, "E6") }
func BenchmarkE7TaxonomyMatch(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8Pipeline(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Syndication(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10ScaleOut(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11Pushdown(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Remote(b *testing.B)        { benchExperiment(b, "E12") }

// --- Micro-benchmarks on the hot paths the experiments exercise ---

// BenchmarkLocalSelect measures the single-site executor on an indexed
// point query.
func BenchmarkLocalSelect(b *testing.B) {
	db := exec.NewDatabase()
	def := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "payload", Kind: value.KindString},
	}, "id")
	tbl, err := db.CreateTable(def)
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 10000; i++ {
		if _, err := tbl.Insert(storage.Row{value.NewInt(i), value.NewString("x")}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("SELECT payload FROM t WHERE id = %d", i%10000)
		if _, err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederatedSelect measures the full decompose-gather-recombine
// path over four fragments.
func BenchmarkFederatedSelect(b *testing.B) {
	fed := federation.New(federation.NewAgoric())
	def := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "region", Kind: value.KindInt},
	}, "id")
	var frags []*federation.Fragment
	for i := 0; i < 4; i++ {
		s := federation.NewSite(fmt.Sprintf("s%d", i))
		if err := fed.AddSite(s); err != nil {
			b.Fatal(err)
		}
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("region = %d", i))
		if err != nil {
			b.Fatal(err)
		}
		frags = append(frags, federation.NewFragment(fmt.Sprintf("f%d", i), pred, s))
	}
	if _, err := fed.DefineTable(def, frags...); err != nil {
		b.Fatal(err)
	}
	for i, f := range frags {
		var rows []storage.Row
		for j := 0; j < 500; j++ {
			rows = append(rows, storage.Row{value.NewInt(int64(i*500 + j)), value.NewInt(int64(i))})
		}
		if err := fed.LoadFragment("t", f, rows); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Query(ctx, "SELECT COUNT(*) FROM t WHERE region = 2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParse measures the parser on a representative query.
func BenchmarkSQLParse(b *testing.B) {
	const q = `SELECT p.sku, s.name, SUM(p.qty) AS total FROM parts p
		JOIN suppliers s ON p.sid = s.id
		WHERE p.price BETWEEN 10 AND 500 AND FUZZY(p.name, 'drlls')
		GROUP BY p.sku, s.name HAVING SUM(p.qty) > 10 ORDER BY total DESC LIMIT 20`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuzzyLookup measures trigram fuzzy matching over the MRO
// vocabulary-scale term set.
func BenchmarkFuzzyLookup(b *testing.B) {
	ix := ir.NewIndex()
	for i, s := range workload.Suppliers(20, 20, 0, 1) {
		for j, it := range s.Items {
			ix.Add(int64(i*100+j), it.Name)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := ix.Search("drlls crdlss", ir.SearchOptions{Fuzzy: true, Limit: 5})
		if len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkBTreeInsert measures ordered-index maintenance.
func BenchmarkBTreeInsert(b *testing.B) {
	b.ReportAllocs()
	bt := storage.NewBTree()
	for i := 0; i < b.N; i++ {
		bt.Insert(value.NewInt(int64(i%100000)), int64(i))
	}
}

// BenchmarkTransformPipeline measures per-row normalization cost.
func BenchmarkTransformPipeline(b *testing.B) {
	sup := workload.Suppliers(1, 100, 0, 3)[0]
	rates := value.DefaultCurrencyTable()
	rows, err := workload.GroundTruthRows(sup, rates)
	if err != nil {
		b.Fatal(err)
	}
	_ = rows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.GroundTruthRows(sup, rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatviewRefresh measures a view refresh over a 1k-row base.
func BenchmarkMatviewRefresh(b *testing.B) {
	fed := federation.New(federation.NewAgoric())
	s := federation.NewSite("s")
	if err := fed.AddSite(s); err != nil {
		b.Fatal(err)
	}
	def := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
	}, "id")
	frag := federation.NewFragment("f", nil, s)
	if _, err := fed.DefineTable(def, frag); err != nil {
		b.Fatal(err)
	}
	var rows []storage.Row
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, storage.Row{value.NewInt(i)})
	}
	if err := fed.LoadFragment("t", frag, rows); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	mgr, err := mview.NewManager(fed, "mv-cache")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Create(ctx, "snapshot", "SELECT id FROM t", 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Refresh(ctx, "snapshot"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Layer ledger: per-row cost of the streaming layers ---

// measurePerRow runs op b.N times and reports ns/row and allocs/row,
// where each op yields rowsPerOp rows. Allocations are counted
// process-wide, so producer goroutines are charged too.
func measurePerRow(b *testing.B, rowsPerOp int, op func() int) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := op(); n != rowsPerOp {
			b.Fatalf("op yielded %d rows, want %d", n, rowsPerOp)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(rowsPerOp)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
}

// drainStream counts a stream's rows and closes it.
func drainStream(b *testing.B, st storage.RowStream) int {
	b.Helper()
	defer st.Close()
	n := 0
	for {
		if _, err := st.Next(); err == io.EOF {
			return n
		} else if err != nil {
			b.Fatal(err)
		}
		n++
	}
}

// benchCatalog generates itemsEach catalog rows per supplier
// (workload.GroundTruthRows), qty uniform in [0, 1000).
func benchCatalog(b *testing.B, suppliers, itemsEach int) ([]workload.Supplier, [][]storage.Row) {
	b.Helper()
	sups := workload.Suppliers(suppliers, itemsEach, 0, 7)
	out := make([][]storage.Row, len(sups))
	for i, s := range sups {
		rows, err := workload.GroundTruthRows(s, value.DefaultCurrencyTable())
		if err != nil {
			b.Fatal(err)
		}
		out[i] = rows
	}
	return sups, out
}

// BenchmarkFuseStream is the "plan eval and FuseStream" layer: a fused
// σ/π stage (qty >= 100, ~90% selective; 4 of 7 columns) over
// in-memory catalog rows, binding included.
func BenchmarkFuseStream(b *testing.B) {
	_, rows := benchCatalog(b, 1, 4096)
	cols := workload.CatalogDef().ColumnNames()
	where, err := sqlparse.ParseExpr("qty >= 100")
	if err != nil {
		b.Fatal(err)
	}
	spec := plan.FuseSpec{Where: where, Project: []int{0, 1, 4, 6}, Limit: -1}
	want := drainStream(b, plan.FuseStream(storage.NewSliceStream(cols, rows[0]), spec))
	measurePerRow(b, want, func() int {
		return drainStream(b, plan.FuseStream(storage.NewSliceStream(cols, rows[0]), spec))
	})
}

// BenchmarkStreamMerge is the "fan-in merge" layer end to end in one
// process: a federated export (σ/π pushed) drained from three
// in-process ERP gateways through the streaming scatter-gather, with
// the coordinator's PK dedupe and WHERE re-check.
func BenchmarkStreamMerge(b *testing.B) {
	fed := federation.New(federation.NewAgoric())
	def := workload.CatalogDef()
	sups, rows := benchCatalog(b, 3, 2000)
	var frags []*federation.Fragment
	for i, s := range sups {
		tbl := storage.NewTable(def.Clone("catalog"))
		for _, r := range rows[i] {
			if _, err := tbl.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
		site := federation.NewSite(fmt.Sprintf("erp-%d", i))
		if err := fed.AddSite(site); err != nil {
			b.Fatal(err)
		}
		site.AddSource(wrapper.NewERPSource("catalog", tbl))
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("supplier = '%s'", s.Name))
		if err != nil {
			b.Fatal(err)
		}
		frags = append(frags, federation.NewFragment(s.Name, pred, site))
	}
	if _, err := fed.DefineTable(def, frags...); err != nil {
		b.Fatal(err)
	}
	const sql = "SELECT sku, supplier, price, qty FROM catalog WHERE qty >= 100"
	ctx := context.Background()
	export := func() int {
		st, _, err := fed.QueryStream(ctx, sql)
		if err != nil {
			b.Fatal(err)
		}
		return drainStream(b, st)
	}
	measurePerRow(b, export(), export)
}
