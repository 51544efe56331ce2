package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cohera/internal/storage"
	"cohera/internal/wrapper"
)

// Span is one recorded interval around a call the benchmark makes into
// a layer. Spans of one operation share Op; Parent links a child to the
// span that caused it (0 for an operation's root span).
type Span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Op     int64            `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// Tracer keeps spans in memory for the whole run; Write dumps them when
// the run ends, so recording never touches the disk mid-measurement.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write stores the spans as JSON lines.
func (t *Tracer) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}

// liveSpan is an open span; end records it. A nil liveSpan (tracing off
// for this operation) records nothing.
type liveSpan struct {
	t    *Tracer
	span Span
}

func (s *liveSpan) end(attrs map[string]int64) {
	if s == nil {
		return
	}
	s.span.End = s.t.now()
	s.span.Attrs = attrs
	s.t.record(s.span)
}

type spanKey struct{}

// spanRef is what a context carries: the tracer, the operation, and the
// span new children hang under.
type spanRef struct {
	t    *Tracer
	op   int64
	span int64
}

// startOp opens an operation's root span. With t nil the operation is
// untraced: the context is returned unchanged and every child span the
// layers would record is skipped.
func startOp(ctx context.Context, t *Tracer, name string) (context.Context, *liveSpan) {
	if t == nil {
		return ctx, nil
	}
	id := t.nextID.Add(1)
	ls := &liveSpan{t: t, span: Span{ID: id, Op: id, Name: name, Start: t.now()}}
	return context.WithValue(ctx, spanKey{}, spanRef{t: t, op: id, span: id}), ls
}

// startChild opens a span under the one ctx carries, or returns nil when
// the operation is untraced.
func startChild(ctx context.Context, name string) (context.Context, *liveSpan) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx, nil
	}
	id := ref.t.nextID.Add(1)
	ls := &liveSpan{t: ref.t, span: Span{ID: id, Parent: ref.span, Op: ref.op, Name: name, Start: ref.t.now()}}
	return context.WithValue(ctx, spanKey{}, spanRef{t: ref.t, op: ref.op, span: id}), ls
}

// timedSource decorates a client remote.Source: it forwards the
// push-capable streaming face and, for traced operations, records a
// "remote.open" span around FetchPushStream and a "remote.stream" span
// from open to Close carrying the rows delivered and the time spent
// inside the stream's Next.
type timedSource struct {
	wrapper.Source
	push wrapper.PushStreamingSource
}

func newTimedSource(src wrapper.Source) (*timedSource, error) {
	ps, ok := src.(wrapper.PushStreamingSource)
	if !ok {
		return nil, fmt.Errorf("source %s has no push-capable streaming face", src.Name())
	}
	return &timedSource{Source: src, push: ps}, nil
}

func (s *timedSource) FetchPushStream(ctx context.Context, filters []wrapper.Filter, push wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	_, open := startChild(ctx, "remote.open")
	st, applied, err := s.push.FetchPushStream(ctx, filters, push)
	if open == nil {
		return st, applied, err
	}
	open.end(nil)
	if err != nil {
		return st, applied, err
	}
	_, stream := startChild(ctx, "remote.stream")
	return &timedStream{RowStream: st, span: stream}, applied, nil
}

// timedStream times each Next of a traced remote stream. Two clock
// reads per row are the only cost, well under the ~9µs a row costs to
// decode.
type timedStream struct {
	storage.RowStream
	span   *liveSpan
	nextNS int64
	rows   int64
	closed bool
}

func (s *timedStream) Next() (storage.Row, error) {
	start := time.Now()
	row, err := s.RowStream.Next()
	s.nextNS += int64(time.Since(start))
	if err == nil {
		s.rows++
	}
	return row, err
}

func (s *timedStream) Close() error {
	err := s.RowStream.Close()
	if !s.closed {
		s.closed = true
		s.span.end(map[string]int64{"rows": s.rows, "next_ns": s.nextNS})
	}
	return err
}

// opBreakdown is one traced operation's wall time split into the union
// of its children's intervals and its own (self) time.
type opBreakdown struct {
	name    string
	wall    int64
	union   int64 // union over all children
	self    int64
	escaped int // child spans that started before or ended after their op
}

// breakdown groups spans by operation and computes each root's self
// time: its duration minus the union of its descendants' intervals.
func breakdown(spans []Span) []opBreakdown {
	byOp := make(map[int64][]Span)
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var out []opBreakdown
	for _, group := range byOp {
		var root *Span
		for i := range group {
			if group[i].Parent == 0 {
				root = &group[i]
				break
			}
		}
		if root == nil {
			continue
		}
		b := opBreakdown{name: root.Name, wall: root.End - root.Start}
		var all []interval
		for _, s := range group {
			if s.ID == root.ID {
				continue
			}
			if s.Start < root.Start || s.End > root.End {
				b.escaped++
			}
			all = append(all, interval{s.Start, s.End})
		}
		// The union is taken unclipped, so a child that outlives its
		// operation pushes union + self past the wall time and fails
		// the accounting check instead of vanishing.
		b.union = unionLen(all, math.MinInt64, math.MaxInt64)
		b.self = selfTime(interval{root.Start, root.End}, all)
		out = append(out, b)
	}
	return out
}
