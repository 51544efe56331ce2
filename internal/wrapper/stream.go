package wrapper

import (
	"context"
	"fmt"
	"io"
	"time"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/storage"
)

// openTableStream charges the simulated latency and picks the id
// snapshot: an index lookup for a pushed equality filter when the
// table has one, every id otherwise.
func (s *ERPSource) openTableStream(ctx context.Context, filters []Filter) (*tableStream, error) {
	s.mu.Lock()
	s.fetches++
	latency := s.latency
	s.mu.Unlock()
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	caps := s.Capabilities()
	var pushed *Filter
	for i := range filters {
		if caps.CanPush(filters[i].Column) {
			pushed = &filters[i]
			break
		}
	}
	var ids []int64
	if pushed != nil && s.table.HasIndex(pushed.Column) {
		var err error
		ids, err = s.table.LookupEqual(pushed.Column, pushed.Value)
		if err != nil {
			return nil, fmt.Errorf("wrapper: erp %s: %w", s.name, err)
		}
	} else {
		ids = s.table.IDs()
	}
	st := &tableStream{
		ctx: ctx, table: s.table, def: s.table.Def(),
		cols: s.table.Def().ColumnNames(), filters: filters, ids: ids, remain: -1,
	}
	st.visit = st.visitRow
	return st, nil
}

// tableStream iterates a storage.Table lazily over an id snapshot. Each
// row is tested in place, under the table's read lock (Table.View),
// against the equality filters and the bound pushed predicate; only a
// surviving row is copied, and only its projected columns. Rows
// deleted after the snapshot are skipped.
type tableStream struct {
	ctx     context.Context
	table   *storage.Table
	def     *schema.Table
	cols    []string // output column names
	filters []Filter
	where   plan.Bound // pushed predicate; nil keeps every row
	project []int      // schema indexes to copy; nil copies the whole row
	remain  int        // rows still allowed out; -1 unlimited
	ids     []int64
	pos     int
	closed  bool

	// visit is visitRow bound once, so the per-row View call allocates
	// no closure; it leaves its verdict in out/err.
	visit func(storage.Row)
	out   storage.Row
	err   error
}

// Columns implements storage.RowStream.
func (s *tableStream) Columns() []string { return s.cols }

// Next implements storage.RowStream.
func (s *tableStream) Next() (storage.Row, error) {
	if s.closed {
		return nil, storage.ErrStreamClosed
	}
	if s.err != nil {
		return nil, s.err
	}
	for s.remain != 0 && s.pos < len(s.ids) {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		id := s.ids[s.pos]
		s.pos++
		if !s.table.View(id, s.visit) {
			continue // deleted since the snapshot
		}
		if s.err != nil {
			return nil, s.err
		}
		if s.out == nil {
			continue
		}
		r := s.out
		s.out = nil
		if s.remain > 0 {
			s.remain--
		}
		return r, nil
	}
	return nil, io.EOF
}

// visitRow judges one stored row under the table's read lock and
// copies it out when it survives. It must not retain the row.
func (s *tableStream) visitRow(r storage.Row) {
	if !matchesFilters(s.def, r, s.filters) {
		return
	}
	if s.where != nil {
		v, err := s.where(r)
		if err != nil {
			s.err = err
			return
		}
		if !v.Truthy() {
			return
		}
	}
	if s.project == nil {
		s.out = r.Clone()
		return
	}
	out := make(storage.Row, len(s.project))
	for i, ci := range s.project {
		out[i] = r[ci]
	}
	s.out = out
}

// Close implements storage.RowStream.
func (s *tableStream) Close() error {
	s.closed = true
	s.ids = nil
	return nil
}
