package federation

import (
	"context"
	"errors"
	"io"
	"testing"

	"cohera/internal/resilience"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/wrapper"
)

// Regression tests for the streaming scatter-gather failure semantics:
// a cancelled caller context must never surface as a clean (silently
// short) result, a degraded materialized result must never contain a
// failed fragment's partial prefix, and a site that dies mid-transfer
// must trip its circuit breaker like one that fails at open.

// flakyStream yields a fixed prefix of rows, then hands control to
// onEnd — which may return an error (a source dying mid-transfer) or
// cancel the caller and report the cancellation.
type flakyStream struct {
	cols  []string
	rows  []storage.Row
	pos   int
	onEnd func() error
}

func (s *flakyStream) Columns() []string { return s.cols }

func (s *flakyStream) Next() (storage.Row, error) {
	if s.pos < len(s.rows) {
		r := s.rows[s.pos]
		s.pos++
		return r, nil
	}
	return nil, s.onEnd()
}

func (s *flakyStream) Close() error { return nil }

// flakySource is a stream-only wrapper source backing the flaky
// streams above.
type flakySource struct {
	def   *schema.Table
	rows  []storage.Row
	onEnd func(ctx context.Context) error
}

func (s *flakySource) Name() string                       { return "flaky-" + s.def.Name }
func (s *flakySource) Schema() *schema.Table              { return s.def }
func (s *flakySource) Capabilities() wrapper.Capabilities { return wrapper.Capabilities{} }

func (s *flakySource) Fetch(ctx context.Context, _ []wrapper.Filter) ([]storage.Row, error) {
	return nil, errors.New("flaky source is stream-only")
}

func (s *flakySource) FetchPushStream(ctx context.Context, _ []wrapper.Filter, _ wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	return &flakyStream{
		cols:  s.def.ColumnNames(),
		rows:  s.rows,
		onEnd: func() error { return s.onEnd(ctx) },
	}, wrapper.Applied{}, nil
}

// flakyFed builds a federation whose single "parts" fragment is served
// by one site fronting a flakySource, with batch size 1 so every row
// the source yields is shipped before the failure lands.
func flakyFed(t *testing.T, src *flakySource) (*Federation, *Site) {
	t.Helper()
	fed := New(NewAgoric())
	site := NewSite("flaky")
	if err := fed.AddSite(site); err != nil {
		t.Fatal(err)
	}
	site.AddSource(src)
	if _, err := fed.DefineTable(partsDef(), NewFragment("all", nil, site)); err != nil {
		t.Fatal(err)
	}
	fed.StreamBatchRows = 1
	return fed, site
}

// TestSelectStreamParentCancelNotSilentEOF asserts that when the
// caller's context dies mid-stream, Next surfaces the cancellation
// rather than a clean io.EOF over a prefix of the rows.
func TestSelectStreamParentCancelNotSilentEOF(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &flakySource{
		def:  partsDef(),
		rows: []storage.Row{row("F1", "widget", 1, "east"), row("F2", "widget", 2, "east")},
		onEnd: func(sctx context.Context) error {
			cancel() // caller times out mid-transfer
			<-sctx.Done()
			return sctx.Err()
		},
	}
	fed, _ := flakyFed(t, src)
	st, _, err := fed.QueryStream(ctx, "SELECT sku FROM parts")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows, err := storage.CollectRows(st)
	if err == nil || err == io.EOF {
		t.Fatalf("cancelled stream drained clean with %d rows — silent truncation", len(rows))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation surfaced as %v, want context.Canceled in the chain", err)
	}
}

// TestGatherParentCancelNotPartialSuccess is the materialized twin:
// a SELECT whose context dies mid-gather must fail, not return the
// shipped prefix as a complete result.
func TestGatherParentCancelNotPartialSuccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &flakySource{
		def:  partsDef(),
		rows: []storage.Row{row("F1", "widget", 1, "east"), row("F2", "widget", 2, "east")},
		onEnd: func(sctx context.Context) error {
			cancel()
			<-sctx.Done()
			return sctx.Err()
		},
	}
	fed, _ := flakyFed(t, src)
	res, err := fed.Query(ctx, "SELECT sku FROM parts")
	if err == nil {
		t.Fatalf("cancelled gather returned success with %d rows — silent truncation", len(res.Rows))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation surfaced as %v, want context.Canceled in the chain", err)
	}
}

// TestPartialResultsExcludesMidStreamFailedFragment asserts a degraded
// materialized result contains only whole surviving fragments: a
// fragment that ships a prefix and then loses its only replica must
// contribute no rows, while its typed error lands on the trace.
func TestPartialResultsExcludesMidStreamFailedFragment(t *testing.T) {
	fed := New(NewAgoric())
	east := NewSite("east-ok")
	west := NewSite("west-flaky")
	for _, s := range []*Site{east, west} {
		if err := fed.AddSite(s); err != nil {
			t.Fatal(err)
		}
	}
	west.AddSource(&flakySource{
		def:  partsDef(),
		rows: []storage.Row{row("W1", "drill", 99, "west"), row("W2", "forklift", 12000, "west")},
		onEnd: func(context.Context) error {
			return errors.New("replica died mid-transfer")
		},
	})
	fragEast := NewFragment("east", nil, east)
	fragWest := NewFragment("west", nil, west)
	if _, err := fed.DefineTable(partsDef(), fragEast, fragWest); err != nil {
		t.Fatal(err)
	}
	if err := fed.LoadFragment("parts", fragEast, []storage.Row{
		row("E1", "ink", 3.5, "east"),
		row("E2", "pen", 1.2, "east"),
	}); err != nil {
		t.Fatal(err)
	}
	fed.StreamBatchRows = 1 // ship the west prefix row by row before the failure
	fed.PartialResults = true

	res, trace, err := fed.QueryTraced(context.Background(), "SELECT sku FROM parts")
	if err != nil {
		t.Fatalf("degraded select: %v", err)
	}
	got := sortedFirstCol(res.Rows)
	if len(got) != 2 || got[0] != "E1" || got[1] != "E2" {
		t.Fatalf("degraded rows = %v, want exactly [E1 E2] (no partial west prefix)", got)
	}
	if !trace.Degraded {
		t.Fatal("trace must be marked degraded")
	}
	if fe := trace.FragmentErrors["parts/west"]; fe == nil || !errors.Is(fe, ErrNoReplica) {
		t.Fatalf("fragment error = %v, want ErrNoReplica", fe)
	}
}

// TestBreakerRecordsMidStreamFailure asserts the streaming subquery
// path charges mid-transfer deaths to the site's circuit breaker: a
// site whose streams open fine but keep dying must trip open, exactly
// like one whose subqueries fail at open.
func TestBreakerRecordsMidStreamFailure(t *testing.T) {
	src := &flakySource{
		def:  partsDef(),
		rows: []storage.Row{row("F1", "widget", 1, "east")},
		onEnd: func(context.Context) error {
			return errors.New("wire cut")
		},
	}
	_, site := flakyFed(t, src)
	site.Breaker().FailureThreshold = 2

	for i := 0; i < 2; i++ {
		st, err := site.SubQueryStream(context.Background(), "parts", nil, nil, -1)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		for {
			if _, err := st.Next(); err != nil {
				if !errors.Is(err, ErrSiteFailure) {
					t.Fatalf("mid-stream death surfaced as %v, want ErrSiteFailure", err)
				}
				break
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if got := site.Breaker().State(); got != resilience.Open {
		t.Fatalf("breaker state after repeated mid-stream deaths = %v, want Open", got)
	}
}
