package storage

import (
	"fmt"
	"slices"
	"sync"

	"cohera/internal/ir"
	"cohera/internal/schema"
	"cohera/internal/value"
)

// Row is a stored tuple: values in schema column order.
type Row []value.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// ErrDuplicateKey is returned on inserting a row whose primary key exists.
var ErrDuplicateKey = fmt.Errorf("storage: duplicate primary key")

// ErrNoRow is returned for operations on a missing row id.
var ErrNoRow = fmt.Errorf("storage: no such row")

// ErrNoIndex is returned when an index lookup names an unindexed column.
var ErrNoIndex = fmt.Errorf("storage: no index on column")

// Table is a heap of rows with secondary indexes. All methods are safe for
// concurrent use.
//
// Stored rows are immutable: every mutation stores a fresh copy under
// the write lock (Insert, Upsert and Update replace t.rows[id], never
// write into the old slice). A row slice once observed is never written
// again, so View's callback, and any copy it makes, sees exactly one
// version of a row, never a mix of an old and a new one.
type Table struct {
	def *schema.Table

	mu      sync.RWMutex
	rows    map[int64]Row
	nextID  int64
	pk      map[string]int64           // encoded key → row id (when schema has a key)
	btrees  map[int]*BTree             // column ordinal → ordered index
	hashes  map[int]map[string][]int64 // column ordinal → hash index
	texts   map[int]*ir.Index          // column ordinal → inverted index
	version uint64                     // bumped on every mutation (staleness tracking)
	digest  uint64                     // XOR of RowHash over stored rows (see digest.go)
}

// NewTable creates an empty table for the given schema. Columns marked
// FullText get inverted indexes automatically.
func NewTable(def *schema.Table) *Table {
	t := &Table{
		def:    def,
		rows:   make(map[int64]Row),
		nextID: 1,
		btrees: make(map[int]*BTree),
		hashes: make(map[int]map[string][]int64),
		texts:  make(map[int]*ir.Index),
	}
	if len(def.Key) > 0 {
		t.pk = make(map[string]int64)
	}
	for i, c := range def.Columns {
		if c.FullText {
			t.texts[i] = ir.NewIndex()
		}
	}
	return t
}

// Def returns the table's schema.
func (t *Table) Def() *schema.Table { return t.def }

// Version returns a counter bumped by every mutation. The materialized
// view layer compares versions to detect staleness.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// CreateIndex builds an ordered (B+tree) index on the named column,
// backfilling existing rows.
func (t *Table) CreateIndex(column string) error {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.btrees[ci]; ok {
		return nil
	}
	bt := NewBTree()
	for id, row := range t.rows {
		if !row[ci].IsNull() {
			bt.Insert(row[ci], id)
		}
	}
	t.btrees[ci] = bt
	return nil
}

// CreateHashIndex builds an equality-only hash index on the named column.
func (t *Table) CreateHashIndex(column string) error {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.hashes[ci]; ok {
		return nil
	}
	h := make(map[string][]int64)
	for id, row := range t.rows {
		if !row[ci].IsNull() {
			k := encodeValue(row[ci])
			h[k] = append(h[k], id)
		}
	}
	t.hashes[ci] = h
	return nil
}

// HasIndex reports whether column has an ordered index.
func (t *Table) HasIndex(column string) bool {
	ci := t.def.ColumnIndex(column)
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.btrees[ci]
	return ok
}

// HasHashIndex reports whether column has a hash index.
func (t *Table) HasHashIndex(column string) bool {
	ci := t.def.ColumnIndex(column)
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.hashes[ci]
	return ok
}

// encodeValue produces a stable map key for a value (kind-tagged).
func encodeValue(v value.Value) string {
	return value.Key(v)
}

func (t *Table) encodeKey(row Row) string {
	buf := make([]byte, 0, 32)
	for _, ki := range t.def.KeyIndexes() {
		buf = value.AppendKey(buf, row[ki])
		buf = append(buf, 0)
	}
	return string(buf)
}

// Insert validates and stores a row, returning its row id.
func (t *Table) Insert(row Row) (int64, error) {
	if err := t.def.Validate(row); err != nil {
		return 0, err
	}
	stored := row.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk != nil {
		k := t.encodeKey(stored)
		if _, exists := t.pk[k]; exists {
			return 0, fmt.Errorf("%w: table %q key %v", ErrDuplicateKey, t.def.Name, k)
		}
		defer func() { t.pk[k] = t.nextID - 1 }()
	}
	id := t.nextID
	t.nextID++
	t.rows[id] = stored
	t.indexRowLocked(id, stored)
	t.version++
	return id, nil
}

// Upsert inserts the row or, when the primary key already exists, replaces
// the existing row in place. Tables without a key always insert.
func (t *Table) Upsert(row Row) (int64, error) {
	if err := t.def.Validate(row); err != nil {
		return 0, err
	}
	stored := row.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk != nil {
		k := t.encodeKey(stored)
		if id, exists := t.pk[k]; exists {
			old := t.rows[id]
			t.unindexRowLocked(id, old)
			t.rows[id] = stored
			t.indexRowLocked(id, stored)
			t.version++
			return id, nil
		}
		t.pk[k] = t.nextID
	}
	id := t.nextID
	t.nextID++
	t.rows[id] = stored
	t.indexRowLocked(id, stored)
	t.version++
	return id, nil
}

// indexRowLocked maintains the secondary indexes and the content
// digest for a stored row; the caller holds t.mu. Every row addition
// flows through here and every removal through unindexRowLocked, and
// XOR is self-inverse, so the digest tracks the live row set exactly.
func (t *Table) indexRowLocked(id int64, row Row) {
	t.digest ^= RowHash(row)
	for ci, bt := range t.btrees {
		if !row[ci].IsNull() {
			bt.Insert(row[ci], id)
		}
	}
	for ci, h := range t.hashes {
		if !row[ci].IsNull() {
			k := encodeValue(row[ci])
			h[k] = append(h[k], id)
		}
	}
	for ci, ix := range t.texts {
		if !row[ci].IsNull() && row[ci].Kind() == value.KindString {
			ix.Add(id, row[ci].Str())
		}
	}
}

// unindexRowLocked removes a row from the secondary indexes and the
// content digest; the caller holds t.mu.
func (t *Table) unindexRowLocked(id int64, row Row) {
	t.digest ^= RowHash(row)
	for ci, bt := range t.btrees {
		if !row[ci].IsNull() {
			bt.Delete(row[ci], id)
		}
	}
	for ci, h := range t.hashes {
		if !row[ci].IsNull() {
			k := encodeValue(row[ci])
			ids := h[k]
			for j, r := range ids {
				if r == id {
					h[k] = append(ids[:j], ids[j+1:]...)
					break
				}
			}
			if len(h[k]) == 0 {
				delete(h, k)
			}
		}
	}
	for _, ix := range t.texts {
		ix.Remove(id)
	}
}

// Truncate removes every row, resetting indexes. Used by materialized
// view refresh to replace the view's contents atomically under the
// table's lock.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = make(map[int64]Row)
	if t.pk != nil {
		t.pk = make(map[string]int64)
	}
	for ci := range t.btrees {
		t.btrees[ci] = NewBTree()
	}
	for ci := range t.hashes {
		t.hashes[ci] = make(map[string][]int64)
	}
	for ci, ix := range t.texts {
		_ = ix
		t.texts[ci] = ir.NewIndex()
	}
	t.digest = 0
	t.version++
}

// Get returns a copy of the row with the given id.
func (t *Table) Get(id int64) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.rows[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoRow, id)
	}
	return row.Clone(), nil
}

// View calls fn with the stored row for id under the table's read lock
// and reports whether the row exists (fn is not called when it does
// not). It lets a scan test a row before paying for a copy. fn must not
// retain or modify the row, and must not call back into the table.
func (t *Table) View(id int64, fn func(Row)) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.rows[id]
	if ok {
		fn(row)
	}
	return ok
}

// Update replaces the row with the given id after validation.
func (t *Table) Update(id int64, row Row) error {
	if err := t.def.Validate(row); err != nil {
		return err
	}
	stored := row.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRow, id)
	}
	if t.pk != nil {
		oldK, newK := t.encodeKey(old), t.encodeKey(stored)
		if oldK != newK {
			if _, exists := t.pk[newK]; exists {
				return fmt.Errorf("%w: table %q", ErrDuplicateKey, t.def.Name)
			}
			delete(t.pk, oldK)
			t.pk[newK] = id
		}
	}
	t.unindexRowLocked(id, old)
	t.rows[id] = stored
	t.indexRowLocked(id, stored)
	t.version++
	return nil
}

// Delete removes the row with the given id.
func (t *Table) Delete(id int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRow, id)
	}
	if t.pk != nil {
		delete(t.pk, t.encodeKey(row))
	}
	t.unindexRowLocked(id, row)
	delete(t.rows, id)
	t.version++
	return nil
}

// Scan visits every row (copy) in unspecified order. The visitor returns
// false to stop early.
func (t *Table) Scan(visit func(id int64, row Row) bool) {
	for _, id := range t.IDs() {
		t.mu.RLock()
		row, ok := t.rows[id]
		var c Row
		if ok {
			c = row.Clone()
		}
		t.mu.RUnlock()
		if !ok {
			continue
		}
		if !visit(id, c) {
			return
		}
	}
}

// IDs returns a snapshot of every row id, sorted ascending. Streaming
// scans iterate the snapshot and fetch rows lazily, so a stream holds
// O(ids) int64s instead of O(rows) materialized tuples; rows deleted
// after the snapshot are skipped at fetch time.
func (t *Table) IDs() []int64 {
	t.mu.RLock()
	ids := make([]int64, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	t.mu.RUnlock()
	slices.Sort(ids)
	return ids
}

// LookupEqual returns ids of rows whose column equals v, using the hash or
// B+tree index on that column.
func (t *Table) LookupEqual(column string, v value.Value) ([]int64, error) {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if h, ok := t.hashes[ci]; ok {
		ids := h[encodeValue(v)]
		out := make([]int64, len(ids))
		copy(out, ids)
		return out, nil
	}
	if bt, ok := t.btrees[ci]; ok {
		return bt.Lookup(v), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoIndex, column)
}

// LookupRange returns ids of rows with lo <= column <= hi in key order,
// using the ordered index. NULL bounds are open.
func (t *Table) LookupRange(column string, lo, hi value.Value) ([]int64, error) {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	bt, ok := t.btrees[ci]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoIndex, column)
	}
	var out []int64
	bt.Range(lo, hi, func(_ value.Value, rows []int64) bool {
		out = append(out, rows...)
		return true
	})
	return out, nil
}

// TextSearch ranks rows of a full-text column against the query. See
// ir.SearchOptions for synonym and fuzzy expansion.
func (t *Table) TextSearch(column, query string, opts ir.SearchOptions) ([]ir.Hit, error) {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.def.Name, column)
	}
	t.mu.RLock()
	ix, ok := t.texts[ci]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (not FullText)", ErrNoIndex, column)
	}
	return ix.Search(query, opts), nil
}

// TextIndex exposes the inverted index of a full-text column, or nil.
func (t *Table) TextIndex(column string) *ir.Index {
	ci := t.def.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.texts[ci]
}

// GetByKey fetches a row by primary key values (in key order).
func (t *Table) GetByKey(key ...value.Value) (int64, Row, error) {
	if t.pk == nil {
		return 0, nil, fmt.Errorf("storage: table %q has no primary key", t.def.Name)
	}
	kis := t.def.KeyIndexes()
	if len(key) != len(kis) {
		return 0, nil, fmt.Errorf("storage: table %q key arity %d, got %d", t.def.Name, len(kis), len(key))
	}
	probe := make(Row, len(t.def.Columns))
	for i, ki := range kis {
		probe[ki] = key[i]
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.pk[t.encodeKey(probe)]
	if !ok {
		return 0, nil, fmt.Errorf("%w: key %v", ErrNoRow, key)
	}
	return id, t.rows[id].Clone(), nil
}
