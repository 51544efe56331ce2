package federation

import (
	"context"
	"fmt"
	"io"
	"testing"

	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
	"cohera/internal/wrapper"
)

// erpCatalogFed federates one catalog of itemsEach rows per supplier,
// each served in-process by an ERP gateway (full σ/π/limit pushdown)
// on its own site, fragmented by supplier.
func erpCatalogFed(t testing.TB, suppliers, itemsEach int) *Federation {
	t.Helper()
	fed := New(NewAgoric())
	def := workload.CatalogDef()
	var frags []*Fragment
	for i, s := range workload.Suppliers(suppliers, itemsEach, 0, 7) {
		rows, err := workload.GroundTruthRows(s, value.DefaultCurrencyTable())
		if err != nil {
			t.Fatal(err)
		}
		tbl := storage.NewTable(def.Clone("catalog"))
		for _, r := range rows {
			if _, err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		site := NewSite(fmt.Sprintf("erp-%d", i))
		if err := fed.AddSite(site); err != nil {
			t.Fatal(err)
		}
		site.AddSource(wrapper.NewERPSource("catalog", tbl))
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("supplier = '%s'", s.Name))
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, NewFragment(s.Name, pred, site))
	}
	if _, err := fed.DefineTable(def, frags...); err != nil {
		t.Fatal(err)
	}
	return fed
}

// drainCount runs sql as a stream and returns the rows it yields.
func drainCount(t testing.TB, fed *Federation, sql string) int {
	st, _, err := fed.QueryStream(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for {
		if _, err := st.Next(); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// maxAllocsPerRow is the streaming path's per-row allocation budget
// for a pushed σ/π export over ERP gateways. Measured at 2.10: one
// projected copy of each surviving row at the gateway and one dedupe
// key at the merge, plus per-query and per-batch overhead spread over
// the rows. Cloning every stored row, copying it again to project,
// and building a fresh output row at the merge cost ~4.
const maxAllocsPerRow = 2.5

// TestStreamAllocsPerRowBudget pins the per-row allocation cost of the
// streaming scatter-gather with σ/π pushed into the gateway scan:
// stored rows are filtered in place, only survivors' pushed columns are
// copied, and the merge hands shipped rows through when the select
// list is exactly the shipped columns.
func TestStreamAllocsPerRowBudget(t *testing.T) {
	fed := erpCatalogFed(t, 3, 2000)
	const sql = "SELECT sku, supplier, price, qty FROM catalog WHERE qty >= 100"
	rows := drainCount(t, fed, sql)
	if rows < 3*2000*8/10 {
		t.Fatalf("export yielded %d rows, want ~90%% of 6000", rows)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if n := drainCount(t, fed, sql); n != rows {
			t.Fatalf("export yielded %d rows, then %d", rows, n)
		}
	})
	perRow := allocs / float64(rows)
	t.Logf("%.0f allocs per export of %d rows = %.2f per row", allocs, rows, perRow)
	if perRow > maxAllocsPerRow {
		t.Fatalf("%.2f allocations per row, budget %.2f", perRow, maxAllocsPerRow)
	}
}
