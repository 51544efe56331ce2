package main

import (
	"fmt"
	"sort"
	"strings"

	"cohera/internal/exec"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// Catalog column positions (workload.CatalogDef order).
const (
	colSKU = iota
	colSupplier
	colName
	colCategory
	colPrice
	colDelivery
	colQty
)

const (
	numSuppliers     = 3
	itemsPerSupplier = 20_000
	dirtyRate        = 0.05
	// exportMinQty is the feed's export predicate: qty ≥ 100 keeps ~90%
	// of the catalog (qty is uniform on [0, 1000)).
	exportMinQty = 100
)

// catalog is the generated ground truth every workload loads and every
// result check compares against.
type catalog struct {
	suppliers  []string
	rows       [][]storage.Row // per supplier, generator order
	bySKU      map[string]storage.Row
	byCategory map[string][]storage.Row
	categories []string
}

// genCatalog builds the seed's catalogs: workload.Suppliers rendered to
// normalized rows by workload.GroundTruthRows.
func genCatalog(seed int64, suppliers, items int) (*catalog, error) {
	c := &catalog{bySKU: make(map[string]storage.Row), byCategory: make(map[string][]storage.Row)}
	rates := value.DefaultCurrencyTable()
	for _, s := range workload.Suppliers(suppliers, items, dirtyRate, seed) {
		rows, err := workload.GroundTruthRows(s, rates)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", s.Name, err)
		}
		c.suppliers = append(c.suppliers, s.Name)
		c.rows = append(c.rows, rows)
		for _, r := range rows {
			c.bySKU[r[colSKU].Str()] = r
			cat := r[colCategory].Str()
			c.byCategory[cat] = append(c.byCategory[cat], r)
		}
	}
	for cat := range c.byCategory {
		c.categories = append(c.categories, cat)
	}
	sort.Strings(c.categories)
	return c, nil
}

// rowKey renders values into one comparable string.
func rowKey(vals ...value.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.Kind().String() + ":" + v.String()
	}
	return strings.Join(parts, "\x1f")
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// rowHash is one row's contribution to an order-independent (XOR)
// digest. It hashes each value's kind and payload directly, so an
// export can digest every row it drains for well under the cost of
// decoding that row.
func rowHash(vals ...value.Value) uint64 {
	h := uint64(fnvOffset)
	mix := func(b byte) { h = (h ^ uint64(b)) * fnvPrime }
	mixInt := func(n int64) {
		for i := 0; i < 8; i++ {
			mix(byte(n >> (8 * i)))
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
	}
	for _, v := range vals {
		mix(byte(v.Kind()))
		switch v.Kind() {
		case value.KindString:
			mixStr(v.Str())
		case value.KindInt:
			mixInt(v.Int())
		case value.KindMoney:
			amount, cur := v.Money()
			mixInt(amount)
			mixStr(cur)
		default:
			mixStr(v.String())
		}
		mix(0x1f)
	}
	return h
}

// searchSQL is the buyer's category search.
func searchSQL(category string, minQty int64) string {
	return fmt.Sprintf("SELECT sku, price, qty FROM catalog WHERE category = '%s' AND qty > %d", category, minQty)
}

// aggSQL is the buyer's per-supplier summary of a category.
func aggSQL(category string, minQty int64) string {
	return fmt.Sprintf("SELECT supplier, COUNT(*) AS n, SUM(qty) AS total FROM catalog WHERE category = '%s' AND qty > %d GROUP BY supplier", category, minQty)
}

// pointSQL is the buyer's sku lookup.
func pointSQL(sku string) string {
	return fmt.Sprintf("SELECT * FROM catalog WHERE sku = '%s'", sku)
}

// exportSQL is the feed's catalog export.
func exportSQL() string {
	return fmt.Sprintf("SELECT sku, supplier, price, qty FROM catalog WHERE qty >= %d", exportMinQty)
}

// searchOracle is the sorted row keys a category search must return.
func searchOracle(rows []storage.Row, minQty int64) []string {
	var out []string
	for _, r := range rows {
		if r[colQty].Int() > minQty {
			out = append(out, rowKey(r[colSKU], r[colPrice], r[colQty]))
		}
	}
	sort.Strings(out)
	return out
}

// aggOracle is the per-supplier (count, sum qty) a summary must return.
func aggOracle(rows []storage.Row, minQty int64) map[string][2]int64 {
	out := make(map[string][2]int64)
	for _, r := range rows {
		if q := r[colQty].Int(); q > minQty {
			cur := out[r[colSupplier].Str()]
			out[r[colSupplier].Str()] = [2]int64{cur[0] + 1, cur[1] + q}
		}
	}
	return out
}

// exportOracle is the row count and order-independent digest an export
// must produce.
func exportOracle(c *catalog) (int, uint64) {
	n := 0
	var digest uint64
	for _, rs := range c.rows {
		for _, r := range rs {
			if r[colQty].Int() >= exportMinQty {
				n++
				digest ^= rowHash(r[colSKU], r[colSupplier], r[colPrice], r[colQty])
			}
		}
	}
	return n, digest
}

// checkPoint verifies a sku lookup returned exactly the generator's row.
func checkPoint(res *exec.Result, want storage.Row) error {
	if len(res.Rows) != 1 {
		return fmt.Errorf("point lookup of %s returned %d rows, want 1", want[colSKU].Str(), len(res.Rows))
	}
	got := res.Rows[0]
	if len(got) != len(want) {
		return fmt.Errorf("point lookup of %s returned %d columns, want %d", want[colSKU].Str(), len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("point lookup of %s: column %s = %v, want %v", want[colSKU].Str(), res.Columns[i], got[i], want[i])
		}
	}
	return nil
}

// checkSearch verifies a search returned exactly the oracle's rows.
func checkSearch(res *exec.Result, want []string) error {
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		if len(r) != 3 {
			return fmt.Errorf("search row has %d columns, want 3", len(r))
		}
		got[i] = rowKey(r[0], r[1], r[2])
	}
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("search returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("search row %d = %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// checkAgg verifies a per-supplier summary against the oracle.
func checkAgg(res *exec.Result, want map[string][2]int64) error {
	if len(res.Rows) != len(want) {
		return fmt.Errorf("summary returned %d groups, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		if len(r) != 3 {
			return fmt.Errorf("summary row has %d columns, want 3", len(r))
		}
		w, ok := want[r[0].Str()]
		if !ok {
			return fmt.Errorf("summary has unexpected group %q", r[0].Str())
		}
		n, sum := asInt(r[1]), asInt(r[2])
		if n != w[0] || sum != w[1] {
			return fmt.Errorf("summary group %s = (%d, %d), want (%d, %d)", r[0].Str(), n, sum, w[0], w[1])
		}
	}
	return nil
}

// asInt reads an aggregate that may come back as an int or a float.
func asInt(v value.Value) int64 {
	if v.Kind() == value.KindFloat {
		return int64(v.Float())
	}
	return v.Int()
}
