package wrapper

import (
	"context"
	"fmt"
	"time"

	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
)

// Pushdown is the capability-negotiated σ/π/limit request a caller hands
// a push-capable source alongside the legacy equality filters. The
// caller must only push what the source's Capabilities().Push
// advertises; the Applied receipt reports what the source actually did,
// and the caller evaluates whatever was not applied.
type Pushdown struct {
	// Where is the pushed predicate, with bare (unqualified) column
	// refs resolving against the source schema. nil pushes no filter.
	Where sqlparse.Expr
	// Cols is the projected column subset in output order. nil ships
	// full-width rows.
	Cols []string
	// Limit caps delivered rows; <= 0 means no limit.
	Limit int
}

// Empty reports whether the request asks for nothing.
func (p Pushdown) Empty() bool {
	return p.Where == nil && p.Cols == nil && p.Limit <= 0
}

// Applied is a source's receipt for a Pushdown: which parts of the
// request the delivered stream already reflects. The zero value means
// "nothing applied" — the caller re-filters, re-projects, and re-limits,
// which is exactly the old-server / non-push-capable fallback.
type Applied struct {
	// Where: rows are pre-filtered by the pushed predicate.
	Where bool
	// Cols: rows contain exactly the requested columns, in order.
	Cols bool
	// Limit: at most the requested number of rows will be delivered.
	Limit bool
}

// PushStreamingSource is the optional push-capable streaming face of a
// connector. Implementations may apply any subset of the request (the
// receipt says which); they must never apply a different predicate or
// column set than asked.
type PushStreamingSource interface {
	Source
	// FetchPushStream retrieves rows as a stream with the pushed
	// σ/π/limit applied as far as the source is able.
	FetchPushStream(ctx context.Context, filters []Filter, push Pushdown) (storage.RowStream, Applied, error)
}

// OpenPushStream opens a stream from src with push applied when the
// source supports it. A source without a push-capable stream is read
// with Fetch and replayed as a stream under an all-false receipt. The
// caller owns the returned stream and the residual evaluation of
// anything the receipt disclaims.
func OpenPushStream(ctx context.Context, src Source, filters []Filter, push Pushdown) (storage.RowStream, Applied, error) {
	if ps, ok := src.(PushStreamingSource); ok {
		return ps.FetchPushStream(ctx, filters, push)
	}
	rows, err := src.Fetch(ctx, filters)
	if err != nil {
		return nil, Applied{}, err
	}
	return storage.NewSliceStream(src.Schema().ColumnNames(), rows), Applied{}, nil
}

// FetchPushStream implements PushStreamingSource: the gateway stands in
// for a full remote engine, so it applies the pushed predicate,
// projection, and limit at its own scan. The predicate is bound to the
// schema once and evaluated against each stored row in place; rows
// failing it are never copied, and survivors are copied only as far as
// the pushed columns.
func (s *ERPSource) FetchPushStream(ctx context.Context, filters []Filter, push Pushdown) (storage.RowStream, Applied, error) {
	var project []int
	if push.Cols != nil {
		def := s.table.Def()
		idx, err := plan.ProjectIndexes(def.ColumnNames(), push.Cols)
		if err != nil {
			return nil, Applied{}, fmt.Errorf("wrapper: pushed projection on schema %q: %w", def.Name, err)
		}
		project = idx
	}
	st, err := s.openTableStream(ctx, filters)
	if err != nil {
		return nil, Applied{}, err
	}
	if push.Where != nil {
		var ev plan.Evaluator
		st.where = ev.Bind(push.Where, st.cols)
	}
	if project != nil {
		st.project = project
		out := make([]string, len(project))
		for i, ci := range project {
			out[i] = st.cols[ci]
		}
		st.cols = out
	}
	if push.Limit > 0 {
		st.remain = push.Limit
	}
	return st, Applied{Where: push.Where != nil, Cols: project != nil, Limit: push.Limit > 0}, nil
}

// FetchPushStream implements PushStreamingSource for the instrumented
// decorator: the underlying source's push support (or lack of it) shows
// through, so Instrument never silently downgrades a push-capable
// source. Rows are counted as they flow, and the span and latency
// settle at Close, so streamed reads feed the same metrics as Fetch.
func (s *instrumented) FetchPushStream(ctx context.Context, filters []Filter, push Pushdown) (storage.RowStream, Applied, error) {
	ctx, sp := obs.StartSpan(ctx, "wrapper.fetchstream")
	sp.Set("source", s.Source.Name())
	table := s.Source.Schema().Name
	ctx, stage := obs.StartStage(ctx, "wrapper.fetch", table)
	start := time.Now()
	st, applied, err := OpenPushStream(ctx, s.Source, filters, push)
	if err != nil {
		metFetchSeconds.Observe(time.Since(start))
		metFetches(table, "error").Inc()
		stage.Fail(err)
		sp.SetErr(err)
		sp.End()
		return nil, Applied{}, err
	}
	metFetches(table, "ok").Inc()
	return &countedStream{RowStream: storage.InstrumentStream(st, stage, storage.TimingSample),
		sp: sp, stage: stage, start: start}, applied, nil
}
