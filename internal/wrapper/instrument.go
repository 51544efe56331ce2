package wrapper

import (
	"context"
	"strconv"
	"time"

	"cohera/internal/obs"
	"cohera/internal/storage"
)

// metFetches counts fetches per source table and outcome.
func metFetches(table, outcome string) *obs.Counter {
	return obs.Default().Counter("cohera_wrapper_fetches_total",
		"Wrapper source fetches by table and outcome.",
		obs.Labels{"table": table, "outcome": outcome})
}

var (
	metFetchRows = obs.Default().Counter("cohera_wrapper_rows_total",
		"Rows produced by wrapper source fetches.", nil)
	metFetchSeconds = obs.Default().Histogram("cohera_wrapper_fetch_seconds",
		"Wrapper source fetch latency.", nil)
)

// instrumented decorates a Source with fetch spans and metrics.
type instrumented struct {
	Source
}

// Instrument wraps a source so every Fetch records a "wrapper.fetch"
// span plus latency/row/outcome metrics, labeled by the source's schema
// name (stable across processes, unlike connector names that may embed
// URLs). Wrapping an already-instrumented source is a no-op.
func Instrument(src Source) Source {
	if src == nil {
		return nil
	}
	if _, ok := src.(*instrumented); ok {
		return src
	}
	return &instrumented{Source: src}
}

// countedStream forwards a stream while feeding the wrapper fetch
// metrics; the span and latency histogram settle at Close, when the
// stream's true extent is known.
type countedStream struct {
	storage.RowStream
	sp    *obs.Span
	stage *obs.StageStats
	start time.Time
	rows  int64
	done  bool
}

func (c *countedStream) Next() (storage.Row, error) {
	r, err := c.RowStream.Next()
	if err == nil {
		c.rows++
		metFetchRows.Inc()
	}
	return r, err
}

func (c *countedStream) Close() error {
	err := c.RowStream.Close()
	if !c.done {
		c.done = true
		metFetchSeconds.Observe(time.Since(c.start))
		c.sp.Set("rows", strconv.FormatInt(c.rows, 10))
		c.sp.SetStage(c.stage)
		c.sp.End()
	}
	return err
}

// Fetch implements Source.
func (s *instrumented) Fetch(ctx context.Context, filters []Filter) ([]storage.Row, error) {
	ctx, sp := obs.StartSpan(ctx, "wrapper.fetch")
	sp.Set("source", s.Source.Name())
	defer sp.End()
	table := s.Source.Schema().Name
	start := time.Now()
	rows, err := s.Source.Fetch(ctx, filters)
	metFetchSeconds.Observe(time.Since(start))
	if err != nil {
		metFetches(table, "error").Inc()
		sp.SetErr(err)
		return nil, err
	}
	metFetches(table, "ok").Inc()
	metFetchRows.Add(int64(len(rows)))
	sp.Set("rows", strconv.Itoa(len(rows)))
	return rows, nil
}
