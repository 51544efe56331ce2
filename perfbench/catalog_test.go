package main

import (
	"math/rand"
	"strings"
	"testing"

	"cohera/internal/exec"
	"cohera/internal/storage"
	"cohera/internal/value"
)

func smallCatalog(t *testing.T) *catalog {
	t.Helper()
	c, err := genCatalog(42, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenCatalogDeterministic(t *testing.T) {
	a, b := smallCatalog(t), smallCatalog(t)
	if len(a.rows) != 3 || len(a.rows[2]) != 200 || len(a.bySKU) != 600 {
		t.Fatalf("catalog has %d suppliers, %d distinct skus; want 3 × 200", len(a.rows), len(a.bySKU))
	}
	na, da := exportOracle(a)
	nb, db := exportOracle(b)
	if na != nb || da != db {
		t.Fatalf("same seed, different catalogs: %d/%x vs %d/%x", na, da, nb, db)
	}
	c, err := genCatalog(43, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, dc := exportOracle(c); dc == da {
		t.Fatal("different seeds gave the same export digest")
	}
}

func TestSearchOracleMatchesBruteForce(t *testing.T) {
	c := smallCatalog(t)
	for _, cat := range c.categories {
		want := searchOracle(c.byCategory[cat], 500)
		n := 0
		for _, rs := range c.rows {
			for _, r := range rs {
				if r[colCategory].Str() == cat && r[colQty].Int() > 500 {
					n++
				}
			}
		}
		if len(want) != n {
			t.Fatalf("category %s: oracle has %d rows, brute force %d", cat, len(want), n)
		}
	}
}

// oracleResult renders the oracle's rows back into an exec.Result, as
// a correct federation would return them (in any order).
func searchResult(c *catalog, cat string, minQty int64) *exec.Result {
	res := &exec.Result{Columns: []string{"sku", "price", "qty"}}
	rows := c.byCategory[cat]
	for i := len(rows) - 1; i >= 0; i-- { // reversed: order must not matter
		r := rows[i]
		if r[colQty].Int() > minQty {
			res.Rows = append(res.Rows, storage.Row{r[colSKU], r[colPrice], r[colQty]})
		}
	}
	return res
}

func TestCheckSearchAcceptsAnyOrderRejectsDifferences(t *testing.T) {
	c := smallCatalog(t)
	cat := c.categories[0]
	want := searchOracle(c.byCategory[cat], 100)
	res := searchResult(c, cat, 100)
	if err := checkSearch(res, want); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	res.Rows[0][2] = value.NewInt(res.Rows[0][2].Int() + 1)
	if err := checkSearch(res, want); err == nil {
		t.Fatal("wrong qty accepted")
	}
	short := searchResult(c, cat, 100)
	short.Rows = short.Rows[1:]
	if err := checkSearch(short, want); err == nil {
		t.Fatal("missing row accepted")
	}
}

func TestCheckAgg(t *testing.T) {
	c := smallCatalog(t)
	cat := c.categories[1]
	want := aggOracle(c.byCategory[cat], 300)
	res := &exec.Result{Columns: []string{"supplier", "n", "total"}}
	for sup, w := range want {
		res.Rows = append(res.Rows, storage.Row{value.NewString(sup), value.NewInt(w[0]), value.NewFloat(float64(w[1]))})
	}
	if err := checkAgg(res, want); err != nil {
		t.Fatalf("correct summary rejected: %v", err)
	}
	res.Rows[0][1] = value.NewInt(res.Rows[0][1].Int() + 1)
	if err := checkAgg(res, want); err == nil {
		t.Fatal("wrong count accepted")
	}
	if err := checkAgg(&exec.Result{}, want); err == nil {
		t.Fatal("empty summary accepted")
	}
}

func TestCheckPoint(t *testing.T) {
	c := smallCatalog(t)
	row := c.rows[1][17]
	res := &exec.Result{Columns: []string{"sku", "supplier", "name", "category", "price", "delivery", "qty"},
		Rows: []storage.Row{row.Clone()}}
	if err := checkPoint(res, row); err != nil {
		t.Fatalf("correct row rejected: %v", err)
	}
	res.Rows[0][colPrice] = value.NewMoney(1, "USD")
	if err := checkPoint(res, row); err == nil || !strings.Contains(err.Error(), "price") {
		t.Fatalf("wrong price not reported: %v", err)
	}
	if err := checkPoint(&exec.Result{}, row); err == nil {
		t.Fatal("missing row accepted")
	}
}

func TestExportDigestIsOrderIndependent(t *testing.T) {
	c := smallCatalog(t)
	n, want := exportOracle(c)
	var got uint64
	count := 0
	for s := len(c.rows) - 1; s >= 0; s-- {
		for _, r := range c.rows[s] {
			if r[colQty].Int() >= exportMinQty {
				got ^= rowHash(r[colSKU], r[colSupplier], r[colPrice], r[colQty])
				count++
			}
		}
	}
	if count != n || got != want {
		t.Fatalf("reordered export %d/%x, oracle %d/%x", count, got, n, want)
	}
	r := c.rows[0][0]
	if rowHash(r[colSKU], r[colSupplier], r[colPrice], value.NewInt(r[colQty].Int()+1)) ==
		rowHash(r[colSKU], r[colSupplier], r[colPrice], r[colQty]) {
		t.Fatal("row hash ignores qty")
	}
}

func TestSyncModelTracksWrittenRows(t *testing.T) {
	c := smallCatalog(t)
	m := newSyncModel(c, 7)
	if len(m.live) != 300 {
		t.Fatalf("writer owns %d rows, want 300", len(m.live))
	}
	kinds := make(map[int]int)
	for i := 0; i < 130; i++ {
		st := m.next(c.suppliers)
		kinds[st.kind]++
		st.apply()
	}
	if kinds[stUpdate] != 70 || kinds[stDelete] != 20 || kinds[stInsert] != 40 || kinds[stRead] != 0 {
		t.Fatalf("ten blocks dealt %v, want 70 updates, 20 deletes, 40 inserts", kinds)
	}
	if len(m.live) != 300-20+400 {
		t.Fatalf("%d live rows after 20 deletes and 400 inserted, want 680", len(m.live))
	}
	for sku, i := range m.index {
		if m.live[i] != sku {
			t.Fatalf("index of %s points at %s", sku, m.live[i])
		}
	}
	gone := 0
	for sku, present := range m.touched {
		if _, live := m.index[sku]; live != present {
			t.Fatalf("touched %s present=%v but live=%v", sku, present, live)
		}
		if !present {
			gone++
		}
	}
	if gone != 20 || len(m.qty) != len(m.live) {
		t.Fatalf("%d deleted skus tracked, %d qtys for %d live rows", gone, len(m.qty), len(m.live))
	}
}

func TestReadStmtReadsOnlyUnwrittenRows(t *testing.T) {
	c := smallCatalog(t)
	m := newSyncModel(c, 7)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		st := readStmt(r, c)
		sku := strings.Split(st.sql, "'")[1]
		if _, written := m.index[sku]; written {
			t.Fatalf("buyer read %s, which the writer owns", sku)
		}
		if err := st.check([][2]string{{sku, c.bySKU[sku][colQty].String()}}); err != nil {
			t.Fatalf("generator row rejected: %v", err)
		}
	}
}
