package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cohera/internal/admission"
	"cohera/internal/fault"
	"cohera/internal/resilience"
)

// flakyHandler returns 500 for the first fails requests, then 200.
func flakyHandler(fails int64) (http.Handler, *atomic.Int64) {
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= fails {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte("{}"))
	})
	return h, &hits
}

func TestClientRetriesTransient5xx(t *testing.T) {
	h, hits := flakyHandler(2)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var retries atomic.Int64
	c := Dial(ts.URL, "", WithRetry(resilience.Retry{
		MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1,
		OnRetry: func(int, error, time.Duration) { retries.Add(1) },
	}))
	before := metClientRetries.Value()
	if !c.Healthy(context.Background()) {
		t.Fatal("third attempt should have succeeded")
	}
	if hits.Load() != 3 {
		t.Fatalf("server hits = %d, want 3 (two retries)", hits.Load())
	}
	if retries.Load() != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", retries.Load())
	}
	if got := metClientRetries.Value() - before; got != 2 {
		t.Fatalf("retry counter advanced by %d, want 2", got)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"no such table"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	c := Dial(ts.URL, "", WithRetry(resilience.Retry{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1}))
	if _, err := c.Tables(context.Background()); err == nil {
		t.Fatal("404 should fail")
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want exactly 1 (4xx is permanent)", hits.Load())
	}
}

func TestClientNeverRetriesNonIdempotent(t *testing.T) {
	h, hits := flakyHandler(1)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := Dial(ts.URL, "", WithRetry(resilience.Retry{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1}))
	// A write-shaped call opts out of the retry policy entirely: a
	// blindly replayed statement could apply twice.
	if _, err := c.do(context.Background(), http.MethodPost, "/", nil, false); err == nil {
		t.Fatal("single failed attempt should surface")
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want exactly 1 (no blind retry)", hits.Load())
	}
}

func TestClientRetryExhaustionKeepsType(t *testing.T) {
	h, _ := flakyHandler(1 << 30)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := Dial(ts.URL, "", WithRetry(resilience.Retry{MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 1}))
	_, err := c.do(context.Background(), http.MethodGet, "/healthz", nil, true)
	if err == nil {
		t.Fatal("exhausted retries should fail")
	}
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusInternalServerError {
		t.Fatalf("exhaustion error should wrap the last statusError, got %v", err)
	}
}

func TestClientRecoversThroughFaultyTransport(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`[]`))
	}))
	defer ts.Close()

	// The transport drops the first request on the floor; the retry
	// policy recovers the read without the caller noticing.
	inj := fault.New("client-rt", fault.Config{FailFirst: 1, Seed: 1})
	c := Dial(ts.URL, "",
		WithTransport(&fault.RoundTripper{Injector: inj}),
		WithRetry(resilience.Retry{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}))
	if _, err := c.Tables(context.Background()); err != nil {
		t.Fatalf("retry should absorb the injected transport fault: %v", err)
	}

	// Without a retry policy the same fault surfaces, typed.
	inj2 := fault.New("client-rt2", fault.Config{FailFirst: 1, Seed: 1})
	c2 := Dial(ts.URL, "", WithTransport(&fault.RoundTripper{Injector: inj2}))
	if _, err := c2.Tables(context.Background()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want fault.ErrInjected through the transport, got %v", err)
	}
}

func TestClientRetryRespectsContext(t *testing.T) {
	h, hits := flakyHandler(1 << 30)
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := Dial(ts.URL, "", WithRetry(resilience.Retry{
		MaxAttempts: 100, BaseDelay: 10 * time.Millisecond, Seed: 1,
		OnRetry: func(attempt int, _ error, _ time.Duration) {
			if attempt == 2 {
				cancel()
			}
		},
	}))
	start := time.Now()
	if _, err := c.do(ctx, http.MethodGet, "/healthz", nil, true); err == nil {
		t.Fatal("cancelled retry loop should fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation should stop the retry loop promptly")
	}
	if hits.Load() >= 100 {
		t.Fatal("cancellation should not burn the whole attempt budget")
	}
}

// TestSourceFetchRetriesWholeDrain: Source.Fetch drains the push
// stream, and each attempt (open plus drain) runs under WithRetry. A
// transport that drops the first two requests is absorbed with four
// attempts and surfaces, typed, without a retry policy.
func TestSourceFetchRetriesWholeDrain(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 20), "id")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	discovered := streamSource(t, ts)
	faulty := func(name string, opts ...DialOption) *Source {
		inj := fault.New(name, fault.Config{FailFirst: 2, Seed: 1})
		opts = append(opts, WithTransport(&fault.RoundTripper{Injector: inj}))
		return &Source{client: Dial(ts.URL, "", opts...), def: discovered.def, caps: discovered.caps}
	}

	before := metClientRetries.Value()
	src := faulty("fetch-rt", WithRetry(resilience.Retry{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1}))
	rows, err := src.Fetch(context.Background(), nil)
	if err != nil {
		t.Fatalf("retry should absorb two dropped requests: %v", err)
	}
	if len(rows) != 20 {
		t.Fatalf("Fetch returned %d rows, want 20", len(rows))
	}
	if got := metClientRetries.Value() - before; got != 2 {
		t.Fatalf("retry counter advanced by %d, want 2", got)
	}

	if _, err := faulty("fetch-rt2").Fetch(context.Background(), nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("without a retry policy want fault.ErrInjected, got %v", err)
	}
}

// TestSourceFetchDoesNotRetryShed: a 429 from the server's admission
// gate comes back from Source.Fetch as the typed overload error, on the
// first attempt, even with a retry policy installed.
func TestSourceFetchDoesNotRetryShed(t *testing.T) {
	_, ts := admittedServer(t, admission.Config{MaxInFlight: 4, TenantRate: 1, TenantBurst: 1,
		Clock: func() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) }})
	discovered := streamSource(t, ts)
	c := Dial(ts.URL, "", WithRetry(resilience.Retry{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1}))
	src := &Source{client: c, def: discovered.def, caps: discovered.caps}
	ctx := admission.WithTenant(context.Background(), "acme")
	if _, err := src.Fetch(ctx, nil); err != nil {
		t.Fatalf("first fetch within burst: %v", err)
	}
	before := metClientRetries.Value()
	_, err := src.Fetch(ctx, nil)
	if oe, ok := admission.AsOverload(err); !ok || oe.Reason != "remote-tenant-rate" {
		t.Fatalf("over-rate fetch = %v, want typed remote-tenant-rate overload", err)
	}
	if got := metClientRetries.Value() - before; got != 0 {
		t.Fatalf("a shed was retried %d times", got)
	}
}
