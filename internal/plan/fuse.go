package plan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"cohera/internal/obs"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
)

// FuseStream fuses filter, projection, offset, and limit into one
// RowStream decorator: each upstream row is tested, projected, and
// emitted (or dropped) in a single pass with no intermediate batch
// materialization. It is the coordinator-side residual stage of the
// pushdown split and the scan-side evaluation stage on servers — the
// same operator either way, so pushed and unpushed plans share one
// filtering semantics.

// FuseSpec configures a fused stage. The zero value passes rows through
// unchanged (but still counts them).
type FuseSpec struct {
	// Where filters rows: only truthy evaluations pass (NULL drops the
	// row, per SQL three-valued logic). nil keeps every row. Column
	// refs resolve against Cols.
	Where sqlparse.Expr
	// Eval evaluates Where; nil uses a zero Evaluator (no text
	// predicates, builtin scalar functions only).
	Eval *Evaluator
	// Cols names the upstream columns for WHERE resolution. nil uses
	// inner.Columns(). Where is bound to these columns once, at
	// construction, so rows pay no per-row name resolution.
	Cols []string
	// Project lists upstream column indexes to keep, in output order.
	// nil keeps all columns. Projection happens after filtering, so
	// Where may reference dropped columns.
	Project []int
	// Offset skips that many filtered rows before emitting.
	Offset int
	// Limit caps emitted rows; negative means unlimited.
	Limit int
	// Stage, when non-nil, receives emitted-row counts and settles
	// Done/Fail/Cut exactly like storage.InstrumentStream.
	Stage *obs.StageStats
}

// ProjectIndexes resolves a projection by name into FuseSpec.Project
// form: the index in have of each name in want, matched
// case-insensitively. It fails on the first wanted name have lacks.
func ProjectIndexes(have, want []string) ([]int, error) {
	idx := make([]int, len(want))
	for i, w := range want {
		idx[i] = -1
		for j, h := range have {
			if strings.EqualFold(h, w) {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("no column %q", w)
		}
	}
	return idx, nil
}

// FusedStream is the decorator FuseStream returns. RowsIn/RowsOut
// expose pushed-vs-residual accounting to the planner: RowsIn is what
// the site shipped, RowsOut what survived the residual filter.
type FusedStream struct {
	inner   storage.RowStream
	where   Bound    // nil keeps every row
	cols    []string // output column names
	project []int
	skip    int
	remain  int // rows still allowed out; -1 unlimited
	stage   *obs.StageStats
	unrows  int64 // stage rows not yet flushed
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
	done    bool // terminal Next already returned (EOF from limit)
	closed  bool
}

// FuseStream wraps inner with spec. The returned stream owns inner:
// closing it closes inner.
func FuseStream(inner storage.RowStream, spec FuseSpec) *FusedStream {
	cols := spec.Cols
	if cols == nil {
		cols = inner.Columns()
	}
	out := cols
	if spec.Project != nil {
		out = make([]string, len(spec.Project))
		for i, idx := range spec.Project {
			out[i] = cols[idx]
		}
	}
	var where Bound
	if spec.Where != nil {
		ev := spec.Eval
		if ev == nil {
			ev = &Evaluator{}
		}
		where = ev.Bind(spec.Where, cols)
	}
	remain := spec.Limit
	if remain < 0 {
		remain = -1
	}
	return &FusedStream{
		inner: inner, where: where,
		cols: out, project: spec.Project,
		skip: spec.Offset, remain: remain, stage: spec.Stage,
	}
}

// Columns implements storage.RowStream.
func (f *FusedStream) Columns() []string { return f.cols }

// RowsIn reports rows read from the inner stream so far.
func (f *FusedStream) RowsIn() int64 { return f.rowsIn.Load() }

// RowsOut reports rows emitted downstream so far.
func (f *FusedStream) RowsOut() int64 { return f.rowsOut.Load() }

// Next implements storage.RowStream.
func (f *FusedStream) Next() (storage.Row, error) {
	if f.closed {
		return nil, storage.ErrStreamClosed
	}
	if f.done {
		return nil, io.EOF
	}
	if f.remain == 0 {
		f.done = true
		f.settle(nil)
		return nil, io.EOF
	}
	for {
		r, err := f.inner.Next()
		if err != nil {
			if err != storage.ErrStreamClosed {
				f.done = true
			}
			f.settle(err)
			return nil, err
		}
		f.rowsIn.Add(1)
		if f.where != nil {
			v, everr := f.where(r)
			if everr != nil {
				f.done = true
				f.settle(everr)
				return nil, everr
			}
			if !v.Truthy() {
				continue
			}
		}
		if f.skip > 0 {
			f.skip--
			continue
		}
		if f.project != nil {
			out := make(storage.Row, len(f.project))
			for i, idx := range f.project {
				out[i] = r[idx]
			}
			r = out
		}
		if f.remain > 0 {
			f.remain--
		}
		f.rowsOut.Add(1)
		if f.stage != nil {
			f.unrows++
			if f.unrows >= storage.TimingSample {
				f.stage.AddRows(f.unrows)
				f.unrows = 0
			}
		}
		return r, nil
	}
}

// settle flushes pending stage rows and records the terminal outcome.
// err nil or io.EOF is a clean finish; a plain context.Canceled means
// the consumer cut us off; anything else fails the stage.
func (f *FusedStream) settle(err error) {
	if f.stage == nil {
		return
	}
	if f.unrows > 0 {
		f.stage.AddRows(f.unrows)
		f.unrows = 0
	}
	switch {
	case err == nil || err == io.EOF:
		f.stage.Done()
	case err == storage.ErrStreamClosed:
		// Use-after-close: the stage settled at Close already.
	case errors.Is(err, context.Canceled) && !errors.Is(err, obs.ErrQueryCanceled):
		f.stage.Cut()
	default:
		f.stage.Fail(err)
	}
}

// Close implements storage.RowStream.
func (f *FusedStream) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.inner.Close()
	f.settle(nil)
	return err
}
