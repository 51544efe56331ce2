package exec

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cohera/internal/ir"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := NewDatabase()
	def := schema.MustTable("catalog", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "name", Kind: value.KindString, FullText: true, Taxonomy: "mro"},
		{Name: "price", Kind: value.KindMoney},
		{Name: "at", Kind: value.KindTime},
		{Name: "lead", Kind: value.KindDuration},
		{Name: "hot", Kind: value.KindBool},
		{Name: "score", Kind: value.KindFloat},
		{Name: "qty", Kind: value.KindInt},
	}, "sku")
	tbl, err := db.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2001, 5, 21, 9, 30, 0, 0, time.UTC)
	rows := []storage.Row{
		{value.NewString("P1"), value.NewString("cordless drill"),
			value.NewMoney(9950, "USD"), value.NewTime(when),
			value.Days(2, value.BusinessDays), value.NewBool(true),
			value.NewFloat(4.5), value.NewInt(10)},
		{value.NewString("P2"), value.Null, value.Null, value.Null,
			value.Null, value.Null, value.Null, value.NewInt(3)},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	db2 := NewDatabase()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	t2, err := db2.Table("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if t2.Len() != 2 {
		t.Fatalf("restored rows = %d", t2.Len())
	}
	// Schema details survive.
	c, _ := t2.Def().Column("name")
	if !c.FullText || c.Taxonomy != "mro" {
		t.Errorf("column metadata lost: %+v", c)
	}
	if t2.Def().Key[0] != "sku" {
		t.Errorf("key lost: %v", t2.Def().Key)
	}
	// Indexes rebuilt and used.
	if !t2.HasIndex("qty") {
		t.Error("ordered index lost")
	}
	// Full value fidelity.
	_, r1, err := t2.GetByKey(value.NewString("P1"))
	if err != nil {
		t.Fatal(err)
	}
	if m, cur := r1[2].Money(); m != 9950 || cur != "USD" {
		t.Errorf("money = %d %s", m, cur)
	}
	if !r1[3].Time().Equal(when) {
		t.Errorf("time = %v", r1[3])
	}
	if d, sem := r1[4].Duration(); d != 48*time.Hour || sem != value.BusinessDays {
		t.Errorf("duration = %v %v", d, sem)
	}
	if !r1[5].Bool() || r1[6].Float() != 4.5 {
		t.Errorf("bool/float = %v", r1)
	}
	// NULLs stay NULL.
	_, r2, _ := t2.GetByKey(value.NewString("P2"))
	if !r2[1].IsNull() || !r2[4].IsNull() {
		t.Errorf("nulls lost: %v", r2)
	}
	// Full-text index rebuilt (FullText flag → inverted index on load).
	hits, err := t2.TextSearch("name", "drill", ir.SearchOptions{})
	if err != nil || len(hits) != 1 {
		t.Errorf("text search after restore = %v, %v", hits, err)
	}
	// Queries behave identically.
	res, err := db2.Exec("SELECT sku FROM catalog WHERE qty = 10")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "P1" {
		t.Errorf("query after restore = %v, %v", res, err)
	}
}

func TestSnapshotErrors(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadSnapshot(strings.NewReader("not json")); err == nil {
		t.Error("bad JSON should fail")
	}
	if err := db.LoadSnapshot(strings.NewReader(`{"version":9}`)); err == nil {
		t.Error("unknown version should fail")
	}
	// Loading into a database that already has the table fails cleanly.
	demo := demoDB(t)
	var buf bytes.Buffer
	if err := demo.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := demo.LoadSnapshot(&buf); err == nil {
		t.Error("load over existing tables should fail")
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	db := NewDatabase()
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if len(db2.TableNames()) != 0 {
		t.Error("empty snapshot grew tables")
	}
}

// TestSnapshotKeepsHashIndexes pins that hash indexes survive a
// Save/Load round trip: only the ordered list used to be written, so a
// restored table lost every hash-only access path.
func TestSnapshotKeepsHashIndexes(t *testing.T) {
	db := NewDatabase()
	execSQL(t, db, "CREATE TABLE parts (sku TEXT NOT NULL, bin TEXT, qty INTEGER, PRIMARY KEY (sku))")
	if err := db.CreateTableIndex("parts", "bin", true); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableIndex("parts", "qty", false); err != nil {
		t.Fatal(err)
	}
	execSQL(t, db, "INSERT INTO parts (sku, bin, qty) VALUES ('a', 'x1', 1), ('b', 'x2', 2), ('c', 'x1', 3)")

	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	db2 := NewDatabase()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	tbl, err := db2.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.HasHashIndex("bin") || tbl.HasIndex("bin") {
		t.Fatalf("bin: hash=%v ordered=%v, want hash only", tbl.HasHashIndex("bin"), tbl.HasIndex("bin"))
	}
	if !tbl.HasIndex("qty") || tbl.HasHashIndex("qty") {
		t.Fatalf("qty: hash=%v ordered=%v, want ordered only", tbl.HasHashIndex("qty"), tbl.HasIndex("qty"))
	}
	ids, err := tbl.LookupEqual("bin", value.NewString("x1"))
	if err != nil || len(ids) != 2 {
		t.Fatalf("LookupEqual(bin) after restore = %v, %v; want 2 ids", ids, err)
	}
}
