package storage

import (
	"errors"
	"sync"
	"testing"

	"cohera/internal/ir"
	"cohera/internal/schema"
	"cohera/internal/value"
)

func partsDef() *schema.Table {
	return schema.MustTable("parts", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "name", Kind: value.KindString, FullText: true},
		{Name: "price", Kind: value.KindMoney},
		{Name: "qty", Kind: value.KindInt},
	}, "sku")
}

func row(sku, name string, cents int64, qty int64) Row {
	return Row{
		value.NewString(sku), value.NewString(name),
		value.NewMoney(cents, "USD"), value.NewInt(qty),
	}
}

func TestInsertGetDelete(t *testing.T) {
	tbl := NewTable(partsDef())
	id, err := tbl.Insert(row("SKU-1", "black ink", 199, 10))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := tbl.Get(id)
	if err != nil || got[0].Str() != "SKU-1" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	// Duplicate key rejected.
	if _, err := tbl.Insert(row("SKU-1", "other", 1, 1)); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate insert err = %v", err)
	}
	// Invalid row rejected.
	if _, err := tbl.Insert(Row{value.NewInt(1)}); err == nil {
		t.Error("bad arity should fail")
	}
	if err := tbl.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := tbl.Get(id); !errors.Is(err, ErrNoRow) {
		t.Errorf("Get after delete err = %v", err)
	}
	if err := tbl.Delete(id); !errors.Is(err, ErrNoRow) {
		t.Errorf("double delete err = %v", err)
	}
	// Key freed for reuse.
	if _, err := tbl.Insert(row("SKU-1", "back again", 5, 5)); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestInsertReturnsCopy(t *testing.T) {
	tbl := NewTable(partsDef())
	r := row("SKU-1", "ink", 100, 1)
	id, _ := tbl.Insert(r)
	r[1] = value.NewString("mutated")
	got, _ := tbl.Get(id)
	if got[1].Str() != "ink" {
		t.Error("table shares storage with caller's row")
	}
	got[1] = value.NewString("mutated2")
	again, _ := tbl.Get(id)
	if again[1].Str() != "ink" {
		t.Error("Get returns aliased row")
	}
}

func TestUpdate(t *testing.T) {
	tbl := NewTable(partsDef())
	id, _ := tbl.Insert(row("SKU-1", "ink", 100, 1))
	id2, _ := tbl.Insert(row("SKU-2", "pen", 50, 2))
	if err := tbl.Update(id, row("SKU-1", "black ink", 120, 3)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, _ := tbl.Get(id)
	if got[1].Str() != "black ink" {
		t.Errorf("updated row = %v", got)
	}
	// Key change to a free key.
	if err := tbl.Update(id, row("SKU-9", "black ink", 120, 3)); err != nil {
		t.Fatalf("key-changing update: %v", err)
	}
	if _, _, err := tbl.GetByKey(value.NewString("SKU-9")); err != nil {
		t.Errorf("GetByKey after key change: %v", err)
	}
	// Key change colliding with id2's key.
	if err := tbl.Update(id, row("SKU-2", "x", 1, 1)); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("colliding key update err = %v", err)
	}
	_ = id2
	// Missing row.
	if err := tbl.Update(12345, row("SKU-0", "x", 1, 1)); !errors.Is(err, ErrNoRow) {
		t.Errorf("update missing row err = %v", err)
	}
}

func TestUpsert(t *testing.T) {
	tbl := NewTable(partsDef())
	id1, err := tbl.Upsert(row("SKU-1", "ink", 100, 1))
	if err != nil {
		t.Fatalf("Upsert insert: %v", err)
	}
	id2, err := tbl.Upsert(row("SKU-1", "black ink", 150, 2))
	if err != nil {
		t.Fatalf("Upsert replace: %v", err)
	}
	if id1 != id2 {
		t.Errorf("upsert allocated new id %d != %d", id2, id1)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
	got, _ := tbl.Get(id1)
	if got[1].Str() != "black ink" {
		t.Errorf("upserted row = %v", got)
	}
}

func TestVersionBumps(t *testing.T) {
	tbl := NewTable(partsDef())
	v0 := tbl.Version()
	id, _ := tbl.Insert(row("SKU-1", "ink", 100, 1))
	v1 := tbl.Version()
	_ = tbl.Update(id, row("SKU-1", "ink2", 100, 1))
	v2 := tbl.Version()
	_ = tbl.Delete(id)
	v3 := tbl.Version()
	if !(v0 < v1 && v1 < v2 && v2 < v3) {
		t.Errorf("versions not monotone: %d %d %d %d", v0, v1, v2, v3)
	}
}

func TestIndexedLookups(t *testing.T) {
	tbl := NewTable(partsDef())
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		sku := "SKU-" + string(rune('A'+i))
		name := "ink"
		if i%2 == 0 {
			name = "drill"
		}
		if _, err := tbl.Insert(row(sku, name, 100*i, i%5)); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := tbl.LookupEqual("name", value.NewString("drill"))
	if err != nil || len(ids) != 10 {
		t.Errorf("LookupEqual(name=drill) = %d ids, %v", len(ids), err)
	}
	ids, err = tbl.LookupEqual("qty", value.NewInt(3))
	if err != nil || len(ids) != 4 {
		t.Errorf("LookupEqual(qty=3) = %d ids, %v", len(ids), err)
	}
	ids, err = tbl.LookupRange("qty", value.NewInt(1), value.NewInt(2))
	if err != nil || len(ids) != 8 {
		t.Errorf("LookupRange(qty 1..2) = %d ids, %v", len(ids), err)
	}
	if _, err := tbl.LookupRange("name", value.Null, value.Null); !errors.Is(err, ErrNoIndex) {
		t.Errorf("range on hash-only column err = %v", err)
	}
	if _, err := tbl.LookupEqual("ghost", value.Null); err == nil {
		t.Error("lookup on missing column should fail")
	}
	if !tbl.HasIndex("qty") || tbl.HasIndex("price") {
		t.Error("HasIndex wrong")
	}
}

func TestIndexBackfillAndMaintenance(t *testing.T) {
	tbl := NewTable(partsDef())
	id, _ := tbl.Insert(row("SKU-1", "ink", 100, 7))
	// Index created after the fact must backfill.
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := tbl.LookupEqual("qty", value.NewInt(7)); len(ids) != 1 {
		t.Error("backfill missed existing row")
	}
	// Update moves the row in the index.
	_ = tbl.Update(id, row("SKU-1", "ink", 100, 9))
	if ids, _ := tbl.LookupEqual("qty", value.NewInt(7)); len(ids) != 0 {
		t.Error("stale index entry after update")
	}
	if ids, _ := tbl.LookupEqual("qty", value.NewInt(9)); len(ids) != 1 {
		t.Error("index missing updated row")
	}
	// Delete removes it.
	_ = tbl.Delete(id)
	if ids, _ := tbl.LookupEqual("qty", value.NewInt(9)); len(ids) != 0 {
		t.Error("stale index entry after delete")
	}
	// Idempotent index creation.
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Error(err)
	}
	if err := tbl.CreateIndex("ghost"); err == nil {
		t.Error("index on missing column should fail")
	}
	if err := tbl.CreateHashIndex("ghost"); err == nil {
		t.Error("hash index on missing column should fail")
	}
}

func TestTextSearchIntegration(t *testing.T) {
	tbl := NewTable(partsDef())
	_, _ = tbl.Insert(row("SKU-1", "cordless drill 18V", 9999, 3))
	_, _ = tbl.Insert(row("SKU-2", "India ink bottle", 299, 50))
	hits, err := tbl.TextSearch("name", "drill", ir.SearchOptions{})
	if err != nil || len(hits) != 1 {
		t.Fatalf("TextSearch = %v, %v", hits, err)
	}
	r, _ := tbl.Get(hits[0].DocID)
	if r[0].Str() != "SKU-1" {
		t.Errorf("hit row = %v", r)
	}
	// Fuzzy finds the typo.
	hits, _ = tbl.TextSearch("name", "drlls", ir.SearchOptions{Fuzzy: true})
	if len(hits) != 1 {
		t.Errorf("fuzzy TextSearch = %v", hits)
	}
	// Text index follows deletes.
	_ = tbl.Delete(hits[0].DocID)
	hits, _ = tbl.TextSearch("name", "drill", ir.SearchOptions{})
	if len(hits) != 0 {
		t.Errorf("stale text hit after delete: %v", hits)
	}
	if _, err := tbl.TextSearch("price", "x", ir.SearchOptions{}); !errors.Is(err, ErrNoIndex) {
		t.Errorf("TextSearch on non-text column err = %v", err)
	}
	if _, err := tbl.TextSearch("ghost", "x", ir.SearchOptions{}); err == nil {
		t.Error("TextSearch on missing column should fail")
	}
	if tbl.TextIndex("name") == nil || tbl.TextIndex("price") != nil || tbl.TextIndex("ghost") != nil {
		t.Error("TextIndex exposure wrong")
	}
}

func TestGetByKey(t *testing.T) {
	tbl := NewTable(partsDef())
	_, _ = tbl.Insert(row("SKU-1", "ink", 100, 1))
	id, r, err := tbl.GetByKey(value.NewString("SKU-1"))
	if err != nil || r[1].Str() != "ink" || id == 0 {
		t.Fatalf("GetByKey = %d, %v, %v", id, r, err)
	}
	if _, _, err := tbl.GetByKey(value.NewString("SKU-9")); !errors.Is(err, ErrNoRow) {
		t.Errorf("missing key err = %v", err)
	}
	if _, _, err := tbl.GetByKey(); err == nil {
		t.Error("wrong key arity should fail")
	}
	noKey := NewTable(schema.MustTable("log", []schema.Column{{Name: "msg", Kind: value.KindString}}))
	if _, _, err := noKey.GetByKey(value.NewString("x")); err == nil {
		t.Error("GetByKey without primary key should fail")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := NewTable(partsDef())
	for i := 0; i < 10; i++ {
		_, _ = tbl.Insert(row("SKU-"+string(rune('0'+i)), "x", 1, 1))
	}
	n := 0
	tbl.Scan(func(int64, Row) bool { n++; return n < 4 })
	if n != 4 {
		t.Errorf("scan visited %d", n)
	}
}

func TestStats(t *testing.T) {
	tbl := NewTable(partsDef())
	_, _ = tbl.Insert(row("SKU-1", "ink", 100, 1))
	_, _ = tbl.Insert(row("SKU-2", "ink", 300, 2))
	_, _ = tbl.Insert(Row{value.NewString("SKU-3"), value.Null, value.Null, value.NewInt(2)})
	st := tbl.Stats()
	if st.Rows != 3 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	name := st.Columns["name"]
	if name.Distinct != 1 || name.Nulls != 1 {
		t.Errorf("name stats = %+v", name)
	}
	qty := st.Columns["qty"]
	if qty.Distinct != 2 || qty.Min.Int() != 1 || qty.Max.Int() != 2 {
		t.Errorf("qty stats = %+v", qty)
	}
	if s := st.Selectivity("qty"); s != 0.5 {
		t.Errorf("Selectivity(qty) = %g", s)
	}
	if s := st.Selectivity("ghost"); s != 0.1 {
		t.Errorf("Selectivity(ghost) = %g", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	tbl := NewTable(schema.MustTable("events", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "note", Kind: value.KindString, FullText: true},
	}, "id"))
	_ = tbl.CreateIndex("id")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := int64(w*100 + i)
				if _, err := tbl.Insert(Row{value.NewInt(id), value.NewString("note text")}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%10 == 0 {
					tbl.Scan(func(int64, Row) bool { return false })
					_, _ = tbl.LookupEqual("id", value.NewInt(id))
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != 800 {
		t.Errorf("Len = %d, want 800", tbl.Len())
	}
}

// TestViewAndIndexKinds pins View (the stored row in place, or false
// without calling fn for a missing id) and that HasIndex/HasHashIndex
// tell the two index kinds apart.
func TestViewAndIndexKinds(t *testing.T) {
	tbl := NewTable(partsDef())
	id, err := tbl.Insert(row("SKU-1", "black ink", 199, 10))
	if err != nil {
		t.Fatal(err)
	}
	var seen Row
	if !tbl.View(id, func(r Row) { seen = r.Clone() }) || seen[3].Int() != 10 {
		t.Fatalf("View(live) saw %v", seen)
	}
	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	if tbl.View(id, func(Row) { t.Fatal("fn called for a deleted row") }) {
		t.Fatal("View reported a deleted row")
	}

	if err := tbl.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasHashIndex("name") || tbl.HasIndex("name") || !tbl.HasIndex("qty") || tbl.HasHashIndex("qty") {
		t.Fatal("index kinds mixed up")
	}
}
