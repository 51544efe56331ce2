package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cohera/internal/admission"
	"cohera/internal/obs"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

// numbersTable builds a table with n rows for chunking tests.
func numbersTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	def := schema.MustTable("numbers", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "bucket", Kind: value.KindInt},
	}, "id")
	tbl := storage.NewTable(def)
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(storage.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func streamSource(t *testing.T, hs *httptest.Server, opts ...DialOption) *Source {
	t.Helper()
	c := Dial(hs.URL, "", opts...)
	srcs, err := c.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 1 {
		t.Fatalf("got %d sources", len(srcs))
	}
	return srcs[0].(*Source)
}

// fetchStream opens a stream from src with nothing pushed.
func fetchStream(ctx context.Context, src *Source, filters []wrapper.Filter) (storage.RowStream, error) {
	st, _, err := src.FetchPushStream(ctx, filters, wrapper.Pushdown{})
	return st, err
}

// TestFetchStreamRoundTrip asserts the streaming path returns exactly
// the published table's rows, as a multiset, across multiple chunks.
func TestFetchStreamRoundTrip(t *testing.T) {
	srv := NewServer()
	srv.StreamBatchRows = 7 // force many chunks for 100 rows
	tbl := numbersTable(t, 100)
	srv.PublishTable(tbl, "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)

	want := make(map[string]int)
	tbl.Scan(func(_ int64, r storage.Row) bool {
		want[string(value.AppendRowKey(nil, r))]++
		return true
	})
	st, err := fetchStream(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Columns(); len(got) != 2 || got[0] != "id" {
		t.Fatalf("Columns = %v", got)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != tbl.Len() {
		t.Fatalf("stream %d rows, table %d", len(rows), tbl.Len())
	}
	for _, r := range rows {
		k := string(value.AppendRowKey(nil, r))
		if want[k] == 0 {
			t.Fatalf("stream row %v is not in the table (or arrived too often)", r)
		}
		want[k]--
	}
}

// TestFetchStreamPushdownAndRecheck asserts pushed and unpushed filters
// both apply.
func TestFetchStreamPushdownAndRecheck(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 50), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)

	// "bucket" is not pushable: the client must re-check it locally.
	st, err := fetchStream(context.Background(), src, []wrapper.Filter{
		{Column: "bucket", Value: value.NewInt(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("bucket filter: got %d rows, want 10", len(rows))
	}
	// "id" is pushable.
	st, err = fetchStream(context.Background(), src, []wrapper.Filter{
		{Column: "id", Value: value.NewInt(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err = storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("id filter: got %v", rows)
	}
}

// TestFetchStreamReuseAfterClose pins the reuse-after-Close contract on
// the network stream: Next must fail typed, and a second Close must be
// a safe no-op (not a double body close).
func TestFetchStreamReuseAfterClose(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 20), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)

	st, err := fetchStream(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if _, err := st.Next(); !errors.Is(err, storage.ErrStreamClosed) {
		t.Fatalf("Next after Close = %v, want ErrStreamClosed", err)
	}
}

// TestFetchStreamTruncation asserts a body that ends without the eof
// terminator surfaces ErrTruncated — never a silent short result.
func TestFetchStreamTruncation(t *testing.T) {
	// A fake server that sends one valid chunk and hangs up without the
	// terminator.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/tables" {
			fmt.Fprint(w, `[{"name":"numbers","columns":[{"name":"id","kind":"int","not_null":true}],"key":["id"]}]`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, `{"rows":[[{"k":"int","i":1}],[{"k":"int","i":2}]]}`+"\n")
	}))
	defer hs.Close()
	src := streamSource(t, hs)

	st, err := fetchStream(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 2; i++ {
		if _, err := st.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if _, err := st.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream Next = %v, want ErrTruncated", err)
	}
	// Terminal errors are sticky.
	if _, err := st.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("second Next = %v, want sticky ErrTruncated", err)
	}
}

// TestFetchStreamServerError asserts a mid-stream server failure
// arrives as an error chunk, typed as a failure rather than EOF.
func TestFetchStreamServerError(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/tables" {
			fmt.Fprint(w, `[{"name":"numbers","columns":[{"name":"id","kind":"int","not_null":true}],"key":["id"]}]`)
			return
		}
		fmt.Fprint(w, `{"rows":[[{"k":"int","i":1}]]}`+"\n")
		fmt.Fprint(w, `{"error":"disk on fire"}`+"\n")
	}))
	defer hs.Close()
	src := streamSource(t, hs)

	st, err := fetchStream(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = st.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("server error surfaced as %v", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("error %q does not carry the server message", err)
	}
}

// TestFetchStreamNotFound asserts unknown tables fail at open, with the
// server's message.
func TestFetchStreamNotFound(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 1), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)
	src.def = schema.MustTable("ghosts", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
	}, "id")
	if _, err := fetchStream(context.Background(), src, nil); err == nil {
		t.Fatal("expected open error for unknown table")
	}
}

// TestClampBatchRows pins the batch-size negotiation table.
func TestClampBatchRows(t *testing.T) {
	for _, tc := range []struct{ asked, serverDefault, want int }{
		{0, 0, storage.DefaultBatchRows},
		{0, 64, 64},
		{16, 64, 16},
		{1 << 20, 0, maxStreamBatchRows},
		{-3, 0, storage.DefaultBatchRows},
	} {
		if got := clampBatchRows(tc.asked, tc.serverDefault); got != tc.want {
			t.Errorf("clampBatchRows(%d, %d) = %d, want %d", tc.asked, tc.serverDefault, got, tc.want)
		}
	}
}

// TestStreamCodecNegotiation pins when binary frames are used: only
// when the client names the frame codec and the server knows it. An
// old server (DisablePushdown simulates one), an old client that sends
// no codec, and an unknown codec name all get NDJSON with a 200, and
// the client decodes whichever the Content-Type announces.
func TestStreamCodecNegotiation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		oldServer bool
		codec     string
		want      string
	}{
		{"new client, new server", false, streamCodecFrames, framesContentType},
		{"new client, old server", true, streamCodecFrames, ndjsonContentType},
		{"old client", false, "", ndjsonContentType},
		{"unknown codec", false, "frames/99", ndjsonContentType},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer()
			srv.StreamBatchRows = 7
			srv.DisablePushdown = tc.oldServer
			srv.PublishTable(numbersTable(t, 50), "id")
			hs := httptest.NewServer(srv)
			defer hs.Close()

			body, err := json.Marshal(streamRequest{Table: "numbers", Codec: tc.codec})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(hs.URL+"/fetchstream", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200", resp.StatusCode)
			}
			ct := resp.Header.Get("Content-Type")
			if ct != tc.want {
				t.Fatalf("Content-Type %q, want %q", ct, tc.want)
			}
			dec := newChunkDecoder(resp.Body, ct)
			rows := 0
			for {
				ch, _, err := dec.decode()
				if err != nil {
					t.Fatalf("decode after %d rows: %v", rows, err)
				}
				if ch.eof {
					break
				}
				rows += len(ch.rows)
			}
			if rows != 50 {
				t.Fatalf("decoded %d rows, want 50", rows)
			}

			if tc.codec != streamCodecFrames {
				return
			}
			// The real client asks for frames and follows the answer.
			st, err := fetchStream(context.Background(), streamSource(t, hs), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, gotFrames := st.(*clientStream).dec.(*frameDecoder)
			got, err := storage.CollectRows(st)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 50 || gotFrames != (tc.want == framesContentType) {
				t.Fatalf("client read %d rows, frames=%v; want 50, frames=%v", len(got), gotFrames, tc.want == framesContentType)
			}
		})
	}
}

// TestFrameStreamFailuresAreTyped carries the NDJSON stream contracts
// over to binary frames: a missing eof frame or a body cut mid-frame is
// ErrTruncated, an error frame carries the server's message, and a
// wrong-width row or an unknown frame type is a decode error, never a
// silent short result.
func TestFrameStreamFailuresAreTyped(t *testing.T) {
	one := rowsFrame([]value.Value{value.NewInt(1)})
	for _, tc := range []struct {
		name    string
		body    []byte
		rows    int
		wantErr string
	}{
		{"missing eof frame", one, 1, ErrTruncated.Error()},
		{"cut mid-header", concat(one, one[:3]), 1, ErrTruncated.Error()},
		{"cut mid-payload", concat(one, one[:len(one)-1]), 1, ErrTruncated.Error()},
		{"error frame", concat(one, frame(frameErr, []byte("disk on fire"))), 1, "disk on fire"},
		{"wide row", concat(rowsFrame([]value.Value{value.NewInt(1), value.NewInt(2)}), frame(frameEOF, nil)), 0, "cells, want 1"},
		{"unknown frame type", concat(one, frame('?', nil)), 1, "unknown stream frame type"},
		{"oversized frame", concat([]byte{frameRows}, binary.BigEndian.AppendUint32(nil, maxStreamLine+1)), 0, "exceeds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/tables" {
					fmt.Fprint(w, `[{"name":"numbers","columns":[{"name":"id","kind":"int","not_null":true}],"key":["id"]}]`)
					return
				}
				w.Header().Set("Content-Type", framesContentType)
				//lint:ignore errdrop test handler; a failed write reads as truncation on the client
				_, _ = w.Write(tc.body)
			}))
			defer hs.Close()
			st, err := fetchStream(context.Background(), streamSource(t, hs), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := 0; i < tc.rows; i++ {
				if _, err := st.Next(); err != nil {
					t.Fatalf("row %d: %v", i, err)
				}
			}
			_, err = st.Next()
			if err == nil || err == io.EOF || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Next = %v, want an error containing %q", err, tc.wantErr)
			}
			if tc.wantErr == ErrTruncated.Error() && !errors.Is(err, ErrTruncated) {
				t.Fatalf("Next = %v, want ErrTruncated", err)
			}
			if _, again := st.Next(); again != err && again.Error() != err.Error() {
				t.Fatalf("terminal error not sticky: %v then %v", err, again)
			}
		})
	}
}

// brokenSource streams `rows` rows of the numbers schema, then fails.
type brokenSource struct {
	def  *schema.Table
	rows int
}

func (b brokenSource) Name() string                       { return "broken" }
func (b brokenSource) Schema() *schema.Table              { return b.def }
func (b brokenSource) Capabilities() wrapper.Capabilities { return wrapper.Capabilities{} }
func (b brokenSource) Fetch(context.Context, []wrapper.Filter) ([]storage.Row, error) {
	return nil, errors.New("disk on fire")
}
func (b brokenSource) FetchPushStream(context.Context, []wrapper.Filter, wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	return &brokenStream{cols: b.def.ColumnNames(), left: b.rows}, wrapper.Applied{}, nil
}

type brokenStream struct {
	cols []string
	left int
}

func (s *brokenStream) Columns() []string { return s.cols }
func (s *brokenStream) Next() (storage.Row, error) {
	if s.left == 0 {
		return nil, errors.New("disk on fire")
	}
	s.left--
	return storage.Row{value.NewInt(int64(s.left)), value.NewInt(0)}, nil
}
func (s *brokenStream) Close() error { return nil }

// TestFrameServerFailuresSurfaceTyped: under binary frames a real
// server's mid-stream failure arrives as an error frame after the rows
// already sent, and an admission shed is still the typed 429 overload.
func TestFrameServerFailuresSurfaceTyped(t *testing.T) {
	srv := NewServer()
	srv.StreamBatchRows = 2
	srv.Publish(brokenSource{def: numbersTable(t, 0).Def(), rows: 3})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	st, err := fetchStream(context.Background(), streamSource(t, hs), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, frames := st.(*clientStream).dec.(*frameDecoder); !frames {
		t.Fatal("stream was not negotiated to binary frames")
	}
	for i := 0; i < 2; i++ {
		if _, err := st.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if _, err := st.Next(); err == nil || !strings.Contains(err.Error(), "stream failed at server: disk on fire") {
		t.Fatalf("mid-stream failure surfaced as %v", err)
	}

	_, ts := admittedServer(t, admission.Config{MaxInFlight: 4, TenantRate: 1, TenantBurst: 1,
		Clock: func() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) }})
	src := streamSource(t, ts)
	ctx := admission.WithTenant(context.Background(), "acme")
	first, err := fetchStream(ctx, src, nil)
	if err != nil {
		t.Fatalf("first stream within burst: %v", err)
	}
	if _, err := storage.CollectRows(first); err != nil {
		t.Fatal(err)
	}
	_, err = fetchStream(ctx, src, nil)
	if oe, ok := admission.AsOverload(err); !ok || oe.Reason != "remote-tenant-rate" || oe.RetryAfter <= 0 {
		t.Fatalf("over-rate stream = %v, want typed remote-tenant-rate overload", err)
	}
}

// TestStreamByteAccounting pins that both ends count the same wire
// bytes, frame header plus payload (or line plus newline): the client
// and server cohera_stream_bytes_total deltas match, and so do the
// remote.decode and remote.encode stage byte counts, which cover row
// chunks only — an ack is not charged to the first row batch.
func TestStreamByteAccounting(t *testing.T) {
	where, err := sqlparse.ParseExpr("bucket >= 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		oldServer bool
		push      wrapper.Pushdown
	}{
		{"frames", false, wrapper.Pushdown{}},
		{"frames with ack", false, wrapper.Pushdown{Where: where}},
		{"ndjson", true, wrapper.Pushdown{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer()
			srv.StreamBatchRows = 7
			srv.DisablePushdown = tc.oldServer
			srv.PublishTable(numbersTable(t, 100), "id")
			hs := httptest.NewServer(srv)
			defer hs.Close()
			src := streamSource(t, hs)

			ctx, q := obs.NewQueryRegistry().Register(context.Background(), "select", "bytes")
			defer q.Finish()
			ctx, sp := obs.StartSpan(ctx, "test")
			defer sp.End()
			client0, server0 := metStreamBytes("client").Value(), metStreamBytes("server").Value()
			st, _, err := src.FetchPushStream(ctx, nil, tc.push)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := storage.CollectRows(st); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			clientBytes := metStreamBytes("client").Value() - client0

			// The server settles its counters after its last write, so
			// wait for its span (recorded just before the byte counter).
			var encBytes string
			deadline := time.Now().Add(5 * time.Second)
			for encBytes == "" || metStreamBytes("server").Value()-server0 != clientBytes {
				if time.Now().After(deadline) {
					t.Fatalf("server bytes %d, client %d; encode stage bytes %q",
						metStreamBytes("server").Value()-server0, clientBytes, encBytes)
				}
				time.Sleep(time.Millisecond)
				for _, s := range obs.DefaultTracer().Spans(sp.TraceID) {
					if s.Name != "remote.streamencode" {
						continue
					}
					for _, a := range s.Attrs {
						if a.Key == "stage.bytes" {
							encBytes = a.Value
						}
					}
				}
			}
			var decBytes int64
			for _, s := range q.Stages().Snapshot() {
				if s.Stage == "remote.decode" {
					decBytes = s.Bytes
				}
			}
			if decBytes == 0 || encBytes != fmt.Sprint(decBytes) {
				t.Fatalf("remote.decode stage %d bytes, remote.encode stage %s", decBytes, encBytes)
			}
			if clientBytes <= decBytes {
				t.Fatalf("stream total %d bytes must exceed the row chunks' %d (eof chunk)", clientBytes, decBytes)
			}
		})
	}
}
