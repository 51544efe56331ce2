package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cohera/internal/admission"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

// The chunked-transfer wire format: POST /fetchstream answers with a
// sequence of chunks — a pushdown ack, a batch of rows, a mid-stream
// error, or the eof terminator — in one of two codecs:
//
//   - Binary frames (Content-Type application/x-cohera-frames), sent
//     when the request names codec "frames/1". Each frame is a type byte
//     ('A' ack, 'R' rows, 'E' error, 'Z' eof), a 4-byte big-endian
//     payload length, then the payload: for rows a uvarint row count
//     followed by rows in value.AppendRow form; for an ack its JSON
//     record; for an error the message text; for eof nothing.
//   - Newline-delimited JSON (NDJSON), one streamChunk per line, for a
//     request without a codec or with a codec the server does not know,
//     and from servers that predate frames. The client picks its decoder
//     from the response Content-Type, so nothing needs configuring.
//
// The terminator is load-bearing: a connection that dies mid-transfer
// ends the body without it, and the client reports ErrTruncated instead
// of passing off a prefix as the full result.

// ErrTruncated reports a stream body that ended before the EOF
// terminator — the transport died mid-transfer. Consumers must treat
// the rows received so far as incomplete.
var ErrTruncated = errors.New("remote: stream truncated before eof terminator")

// maxStreamLine bounds one NDJSON line or one frame payload on the
// client. A chunk carries at most maxStreamBatchRows encoded rows.
const maxStreamLine = 64 << 20

// maxStreamBatchRows caps the negotiated batch size so a hostile client
// cannot make the server buffer unbounded rows per chunk.
const maxStreamBatchRows = 8192

// streamCodecFrames names the binary frame codec in streamRequest.Codec.
const streamCodecFrames = "frames/1"

// Response content types; the client decodes by them.
const (
	framesContentType = "application/x-cohera-frames"
	ndjsonContentType = "application/x-ndjson"
)

// Frame types of the binary codec.
const (
	frameAck  byte = 'A'
	frameRows byte = 'R'
	frameErr  byte = 'E'
	frameEOF  byte = 'Z'
)

// frameHeaderLen is the type byte plus the uint32 payload length.
const frameHeaderLen = 5

// streamRequest is the body of POST /fetchstream. The pushdown fields
// (where/cols/limit) and the codec are ignored by servers that predate
// them — JSON decoding drops unknown fields — and the missing first-chunk
// ack or the NDJSON Content-Type tells the client what it got.
type streamRequest struct {
	Table   string       `json:"table"`
	Filters []wireFilter `json:"filters,omitempty"`
	// BatchRows asks the server for a specific rows-per-chunk; 0 lets
	// the server choose.
	BatchRows int `json:"batch_rows,omitempty"`
	// Where is a pushed predicate in SQL text form (bare column refs);
	// the server parses and applies it before encoding rows.
	Where string `json:"where,omitempty"`
	// Cols asks for a column subset, in order.
	Cols []string `json:"cols,omitempty"`
	// Limit caps delivered rows; <= 0 means no limit.
	Limit int `json:"limit,omitempty"`
	// Codec asks for a response codec; only streamCodecFrames is known.
	// Empty or unknown gets NDJSON.
	Codec string `json:"codec,omitempty"`
}

// streamChunk is one NDJSON line of a /fetchstream response. A chunk
// carries rows, a pushdown ack, a mid-stream error, or the terminator;
// old clients see an ack chunk as zero rows and skip it.
type streamChunk struct {
	Rows   [][]wireValue  `json:"rows,omitempty"`
	Pushed *wirePushedAck `json:"pushed,omitempty"`
	Error  string         `json:"error,omitempty"`
	EOF    bool           `json:"eof,omitempty"`
}

// chunk is one decoded unit of a /fetchstream response, whichever codec
// carried it.
type chunk struct {
	rows   []storage.Row
	pushed *wirePushedAck
	err    string
	eof    bool
}

// chunkEncoder writes chunks in one wire codec.
type chunkEncoder interface {
	encode(chunk) error
}

// ndjsonEncoder writes one JSON line per chunk.
type ndjsonEncoder struct{ enc *json.Encoder }

func (e ndjsonEncoder) encode(c chunk) error {
	return e.enc.Encode(streamChunk{Rows: encodeRows(c.rows), Pushed: c.pushed, Error: c.err, EOF: c.eof})
}

// frameEncoder writes one binary frame per chunk, each with a single
// Write, reusing its buffer across frames.
type frameEncoder struct {
	w   io.Writer
	buf []byte
}

func (e *frameEncoder) encode(c chunk) error {
	b := append(e.buf[:0], make([]byte, frameHeaderLen)...)
	switch {
	case c.pushed != nil:
		b[0] = frameAck
		ack, err := json.Marshal(c.pushed)
		if err != nil {
			return err
		}
		b = append(b, ack...)
	case c.err != "":
		b[0] = frameErr
		b = append(b, c.err...)
	case c.eof:
		b[0] = frameEOF
	default:
		b[0] = frameRows
		b = binary.AppendUvarint(b, uint64(len(c.rows)))
		for _, r := range c.rows {
			b = value.AppendRow(b, r)
		}
	}
	binary.BigEndian.PutUint32(b[1:frameHeaderLen], uint32(len(b)-frameHeaderLen))
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

// chunkDecoder reads the next chunk in one wire codec, returning the
// bytes it took on the wire. A body that ends before the eof terminator
// is an error wrapping ErrTruncated.
type chunkDecoder interface {
	decode() (chunk, int, error)
}

// newChunkDecoder picks the decoder for a response's Content-Type:
// frames when the server confirmed them, NDJSON for everything else —
// an old server labels its NDJSON, or labels nothing at all.
func newChunkDecoder(body io.Reader, contentType string) chunkDecoder {
	if contentType == framesContentType {
		return &frameDecoder{r: bufio.NewReaderSize(body, 64<<10)}
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)
	return ndjsonDecoder{sc: sc}
}

// ndjsonDecoder reads one JSON line per chunk, skipping blank lines.
type ndjsonDecoder struct{ sc *bufio.Scanner }

func (d ndjsonDecoder) decode() (chunk, int, error) {
	for {
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				return chunk{}, 0, fmt.Errorf("%w: %v", ErrTruncated, err)
			}
			return chunk{}, 0, ErrTruncated
		}
		raw := d.sc.Bytes()
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		var sc streamChunk
		if err := json.Unmarshal(line, &sc); err != nil {
			if !d.sc.Scan() {
				// An undecodable final line is a connection cut
				// mid-chunk, not corruption: classify it as truncation
				// so callers see one typed error for "body ended early".
				return chunk{}, 0, fmt.Errorf("%w: partial final chunk: %v", ErrTruncated, err)
			}
			return chunk{}, 0, fmt.Errorf("remote: decoding stream chunk: %w", err)
		}
		rows, err := decodeRows(sc.Rows)
		if err != nil {
			return chunk{}, 0, err
		}
		// The scanner strips the newline the server wrote; count it so
		// both sides tally the same bytes.
		return chunk{rows: rows, pushed: sc.Pushed, err: sc.Error, eof: sc.EOF}, len(raw) + 1, nil
	}
}

// frameDecoder reads binary frames. The payload buffer grows only as
// payload bytes actually arrive, so a header claiming a huge length on
// a short body costs nothing.
type frameDecoder struct {
	r       *bufio.Reader
	payload bytes.Buffer
}

func (d *frameDecoder) decode() (chunk, int, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return chunk{}, 0, truncation(err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxStreamLine {
		return chunk{}, 0, fmt.Errorf("remote: stream frame of %d bytes exceeds %d", n, maxStreamLine)
	}
	d.payload.Reset()
	if got, err := io.CopyN(&d.payload, d.r, int64(n)); got < int64(n) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return chunk{}, 0, truncation(err)
	}
	p, size := d.payload.Bytes(), frameHeaderLen+int(n)
	switch hdr[0] {
	case frameRows:
		rows, err := decodeRowsFrame(p)
		return chunk{rows: rows}, size, err
	case frameAck:
		var ack wirePushedAck
		if err := json.Unmarshal(p, &ack); err != nil {
			return chunk{}, 0, fmt.Errorf("remote: decoding ack frame: %w", err)
		}
		return chunk{pushed: &ack}, size, nil
	case frameErr:
		// An empty message must still read as a failure, not as rows.
		msg := string(p)
		if msg == "" {
			msg = "unspecified error"
		}
		return chunk{err: msg}, size, nil
	case frameEOF:
		if n != 0 {
			return chunk{}, 0, fmt.Errorf("remote: eof frame carries %d payload bytes", n)
		}
		return chunk{eof: true}, size, nil
	default:
		return chunk{}, 0, fmt.Errorf("remote: unknown stream frame type %#x", hdr[0])
	}
}

// truncation classifies a read failure inside a frame: the body ended,
// or the transport broke, before the eof frame.
func truncation(err error) error {
	if err == io.EOF {
		return ErrTruncated
	}
	return fmt.Errorf("%w: %v", ErrTruncated, err)
}

// decodeRowsFrame decodes a rows frame payload. The row count is
// checked against the batch cap and the bytes left before anything is
// allocated for it.
func decodeRowsFrame(p []byte) ([]storage.Row, error) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > maxStreamBatchRows || n > uint64(len(p)-k) {
		return nil, errors.New("remote: rows frame has a bad row count")
	}
	p = p[k:]
	rows := make([]storage.Row, n)
	for i := range rows {
		r, rest, err := value.DecodeRow(p)
		if err != nil {
			return nil, fmt.Errorf("remote: rows frame row %d: %w", i, err)
		}
		rows[i], p = r, rest
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("remote: rows frame has %d trailing bytes", len(p))
	}
	return rows, nil
}

// metStreamBatches counts row chunks by side ("server" encodes,
// "client" decodes).
func metStreamBatches(side string) *obs.Counter {
	return obs.Default().Counter("cohera_stream_batches_total",
		"Row-batch chunks moved through the streaming wire protocol.",
		obs.Labels{"side": side})
}

// metStreamBytes counts stream wire bytes by side: every chunk, frame
// header plus payload or line plus newline.
func metStreamBytes(side string) *obs.Counter {
	return obs.Default().Counter("cohera_stream_bytes_total",
		"Payload bytes moved through the streaming wire protocol.",
		obs.Labels{"side": side})
}

// metStreamInflight gauges streams currently open, by side.
func metStreamInflight(side string) *obs.Gauge {
	return obs.Default().Gauge("cohera_stream_inflight",
		"Row streams currently open.", obs.Labels{"side": side})
}

// batchRowBuckets are row counts disguised as durations: the obs
// histogram observes time.Duration, so the peak-batch histogram encodes
// N rows as time.Duration(N). Quantiles read back as row counts.
var batchRowBuckets = []time.Duration{1, 4, 16, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

var metStreamPeakBatch = obs.Default().HistogramBuckets("cohera_stream_peak_batch_rows",
	"Peak rows observed in a single chunk per stream (unit: rows, not seconds).",
	batchRowBuckets, nil)

// clampBatchRows resolves the effective rows-per-chunk from the
// client's ask and the server's default.
func clampBatchRows(asked, serverDefault int) int {
	n := asked
	if n <= 0 {
		n = serverDefault
	}
	if n <= 0 {
		n = storage.DefaultBatchRows
	}
	if n > maxStreamBatchRows {
		n = maxStreamBatchRows
	}
	return n
}

// countingWriter tallies bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// handleFetchStream streams a source's rows as chunks, in binary frames
// when the client asked for them and NDJSON otherwise. Each chunk is
// flushed as soon as it is full, so a slow consumer exerts
// backpressure on the producing scan through the socket's window
// instead of forcing the server to buffer the whole result.
func (s *Server) handleFetchStream(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
		return
	}
	var req streamRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, `{"error":"bad json"}`, http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	src, ok := s.sources[strings.ToLower(req.Table)]
	s.mu.RUnlock()
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
		_ = writeJSON(w, errorResponse{Error: fmt.Sprintf("no table %q", req.Table)})
		return
	}
	var filters []wrapper.Filter
	for _, wf := range req.Filters {
		v, err := decodeValue(wf.Value)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
			_ = writeJSON(w, errorResponse{Error: err.Error()})
			return
		}
		filters = append(filters, wrapper.Filter{Column: wf.Column, Value: v})
	}
	// Capability-aware pushdown: parse the request's σ/π/limit, hand it
	// to the source, and fuse whatever the source could not apply right
	// here — rows failing the pushed WHERE are never encoded. With
	// DisablePushdown set the fields and the codec are ignored, no ack
	// is sent and rows go out as NDJSON, reproducing an old server for
	// fallback tests.
	var push wrapper.Pushdown
	frames := false
	if !s.DisablePushdown {
		frames = req.Codec == streamCodecFrames
		if req.Where != "" {
			expr, perr := sqlparse.ParseExpr(req.Where)
			if perr != nil {
				w.WriteHeader(http.StatusBadRequest)
				//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
				_ = writeJSON(w, errorResponse{Error: fmt.Sprintf("bad pushdown where: %v", perr)})
				return
			}
			push.Where = expr
		}
		if len(req.Cols) > 0 {
			push.Cols = req.Cols
		}
		if req.Limit > 0 {
			push.Limit = req.Limit
		}
	}
	st, applied, err := wrapper.OpenPushStream(r.Context(), src, filters, push)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
		_ = writeJSON(w, errorResponse{Error: err.Error()})
		return
	}
	var ack *wirePushedAck
	if !push.Empty() {
		spec := plan.FuseSpec{Limit: -1}
		fuse := false
		if push.Where != nil && !applied.Where {
			spec.Where = push.Where
			fuse = true
		}
		if push.Cols != nil && !applied.Cols {
			idx, ierr := plan.ProjectIndexes(st.Columns(), push.Cols)
			if ierr != nil {
				ierr = fmt.Errorf("remote: pushed projection: %w", ierr)
				//lint:ignore errdrop the request is being rejected; close is best-effort cleanup
				_ = st.Close()
				w.WriteHeader(http.StatusBadRequest)
				//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
				_ = writeJSON(w, errorResponse{Error: ierr.Error()})
				return
			}
			spec.Project = idx
			fuse = true
		}
		if push.Limit > 0 && !applied.Limit {
			spec.Limit = push.Limit
			fuse = true
		}
		if fuse {
			st = plan.FuseStream(st, spec)
		}
		ack = &wirePushedAck{Where: push.Where != nil, Cols: push.Cols, Limit: push.Limit > 0}
	}
	batchRows := clampBatchRows(req.BatchRows, s.StreamBatchRows)
	metStreamInflight("server").Add(1)
	defer metStreamInflight("server").Add(-1)

	// The encode stage lives on this process's span tree only — the
	// coordinator is across a process boundary, so the serving side's
	// operator profile travels through the propagated trace, not the
	// coordinator's stage collector.
	_, sp := obs.StartSpan(r.Context(), "remote.streamencode")
	sp.Set("table", req.Table)
	encStage := obs.NewStage("remote.encode", req.Table)
	// Closing the wrapper closes st; the defer covers every exit below.
	scan := storage.InstrumentStream(st, encStage, storage.TimingSample)
	defer scan.Close()

	cw := &countingWriter{w: w}
	defer func() { metStreamBytes("server").Add(cw.n) }()
	var enc chunkEncoder = ndjsonEncoder{enc: json.NewEncoder(cw)}
	if frames {
		w.Header().Set("Content-Type", framesContentType)
		enc = &frameEncoder{w: cw}
	} else {
		w.Header().Set("Content-Type", ndjsonContentType)
	}
	flusher, _ := w.(http.Flusher)
	// The ack must be the first chunk: the client reads it synchronously
	// to learn what was applied before it sees any rows.
	if ack != nil {
		if err := enc.encode(chunk{pushed: ack}); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The encode stage counts row chunks only, as the decode stage does.
	sentBytes := cw.n
	peak := 0
	defer func() {
		encStage.NotePeak(int64(peak))
		encStage.Done()
		sp.SetStage(encStage)
		sp.End()
	}()

	batch := storage.GetBatch()
	defer storage.PutBatch(batch)
	emit := func() bool {
		if len(batch.Rows) == 0 {
			return true
		}
		if len(batch.Rows) > peak {
			peak = len(batch.Rows)
		}
		if err := enc.encode(chunk{rows: batch.Rows}); err != nil {
			return false // consumer went away; stop producing
		}
		metStreamBatches("server").Inc()
		encStage.AddBatch(0, cw.n-sentBytes)
		sentBytes = cw.n
		batch.Rows = batch.Rows[:0]
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		row, err := scan.Next()
		if err == io.EOF {
			if !emit() {
				return
			}
			//lint:ignore errdrop the stream is already committed as 200; a failed terminator reads as truncation on the client
			_ = enc.encode(chunk{eof: true})
			metStreamPeakBatch.Observe(time.Duration(peak))
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if err != nil {
			// Buffered rows are dropped: an error chunk tells the client
			// the result is broken, so a partial flush would only move
			// rows it must discard.
			//lint:ignore errdrop the stream is already committed as 200; the error chunk is best-effort
			_ = enc.encode(chunk{err: err.Error()})
			return
		}
		batch.Rows = append(batch.Rows, row)
		if len(batch.Rows) >= batchRows && !emit() {
			return
		}
	}
}

// FetchPushStream implements wrapper.PushStreamingSource: the pushed
// σ/π/limit travel as /fetchstream request fields. The first response
// chunk is the server's ack; a server too old to know the fields sends
// none, the receipt comes back all-false, and the caller re-evaluates
// locally — full-width unfiltered rows, exactly the pre-push behavior.
// The returned stream holds the response body open and decodes chunks
// on demand, so client-side memory is one chunk regardless of result
// size. A stream is never retried — a replayed stream could double
// rows already consumed; failover belongs to the federation layer,
// which can dedupe by primary key.
func (s *Source) FetchPushStream(ctx context.Context, filters []wrapper.Filter, push wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	ctx, sp := obs.StartSpan(ctx, "remote.fetchstream")
	sp.Set("table", s.def.Name)
	req := streamRequest{Table: s.def.Name, BatchRows: s.client.streamBatch, Codec: streamCodecFrames}
	if push.Where != nil {
		req.Where = push.Where.String()
	}
	req.Cols = push.Cols
	if push.Limit > 0 {
		req.Limit = push.Limit
	}
	var local []wrapper.Filter
	for _, f := range filters {
		if s.caps.CanPush(f.Column) {
			req.Filters = append(req.Filters, wireFilter{Column: f.Column, Value: encodeValue(f.Value)})
		}
		local = append(local, f)
	}
	body, err := json.Marshal(req)
	if err != nil {
		sp.SetErr(err)
		sp.End()
		return nil, wrapper.Applied{}, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.client.base+"/fetchstream", bytes.NewReader(body))
	if err != nil {
		sp.SetErr(err)
		sp.End()
		metClientReqs("error").Inc()
		return nil, wrapper.Applied{}, fmt.Errorf("remote: request: %w", err)
	}
	if s.client.token != "" {
		httpReq.Header.Set("Authorization", "Bearer "+s.client.token)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	obs.InjectHeaders(ctx, httpReq.Header)
	httpReq.Header.Set(TenantHeader, admission.TenantOf(ctx))
	// The client's whole-call timeout would kill a long-lived stream
	// body mid-read, so streams go through a timeout-free client that
	// shares the transport (and any injected faults). Cancellation
	// stays with ctx.
	streamHTTP := &http.Client{Transport: s.client.http.Transport}
	resp, err := streamHTTP.Do(httpReq)
	if err != nil {
		sp.SetErr(err)
		sp.End()
		metClientReqs("error").Inc()
		return nil, wrapper.Applied{}, fmt.Errorf("remote: POST /fetchstream: %w", err)
	}
	metClientReqs(respClass(resp.StatusCode)).Inc()
	if resp.StatusCode != http.StatusOK {
		//lint:ignore errdrop the body is best-effort context for the status error
		out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		//lint:ignore errdrop the response is already a failure; close is best-effort cleanup
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			err := shedError(ctx, http.MethodPost, "/fetchstream", resp.Header)
			sp.SetErr(err)
			sp.End()
			return nil, wrapper.Applied{}, err
		}
		se := &statusError{method: http.MethodPost, path: "/fetchstream", code: resp.StatusCode}
		var er errorResponse
		if json.Unmarshal(out, &er) == nil && er.Error != "" {
			se.msg = er.Error
		}
		sp.SetErr(se)
		sp.End()
		return nil, wrapper.Applied{}, se
	}
	metStreamInflight("client").Add(1)
	// The decode stage is a leaf under the wrapper.fetch stage: rows and
	// bytes are counted per chunk as they come off the wire, before the
	// local filter re-check drops anything.
	_, stage := obs.StartStage(ctx, "remote.decode", s.def.Name)
	cs := &clientStream{
		def:     s.def,
		cols:    s.def.ColumnNames(),
		filters: local,
		body:    resp.Body,
		dec:     newChunkDecoder(resp.Body, resp.Header.Get("Content-Type")),
		sp:      sp,
		stage:   stage,
	}
	cs.rebindFilters()
	var applied wrapper.Applied
	if !push.Empty() {
		// Read the first chunk now: a push-aware server leads with its
		// ack, an old server leads with rows (stashed for Next). Either
		// way the receipt is known before the caller sees the stream.
		if ack := cs.awaitAck(); ack != nil {
			applied = wrapper.Applied{
				Where: ack.Where && push.Where != nil,
				Cols:  len(ack.Cols) > 0 && push.Cols != nil,
				Limit: ack.Limit && push.Limit > 0,
			}
			if applied.Cols {
				// Rows arrive projected: narrow the stream's column set
				// and re-resolve the filter re-check against it.
				cs.cols = append([]string(nil), ack.Cols...)
				cs.rebindFilters()
			}
		}
	}
	return cs, applied, nil
}

// clientStream decodes chunks from an open /fetchstream response into
// rows, one chunk in memory at a time.
type clientStream struct {
	def     *schema.Table
	cols    []string
	filters []wrapper.Filter
	// filterIdx maps filters onto the (possibly projected) row layout;
	// -1 skips a filter whose column the rows no longer carry.
	filterIdx []int
	body      io.ReadCloser
	dec       chunkDecoder
	sp        *obs.Span
	stage     *obs.StageStats

	// stash holds a chunk read ahead of its turn (the ack probe hit
	// rows on an old server); stashLen is its wire size for byte
	// accounting.
	stash    *chunk
	stashLen int

	pending []storage.Row
	pos     int
	peak    int
	err     error // sticky terminal error (io.EOF for clean end)
	closed  bool
}

// Columns implements storage.RowStream.
func (c *clientStream) Columns() []string { return c.cols }

// rebindFilters resolves the equality-filter columns against the
// current row layout. Called again when an ack narrows the columns.
func (c *clientStream) rebindFilters() {
	c.filterIdx = make([]int, len(c.filters))
	for i, f := range c.filters {
		c.filterIdx[i] = -1
		for j, col := range c.cols {
			if strings.EqualFold(col, f.Column) {
				c.filterIdx[i] = j
				break
			}
		}
	}
}

// readChunk reads and decodes the next chunk. ok=false means a
// terminal condition was recorded in c.err (truncation or corruption).
func (c *clientStream) readChunk() (ch chunk, size int, ok bool) {
	// Time the chunk fetch+decode exactly: chunks are coarse enough
	// (hundreds of rows) that two clock reads per chunk are free, and
	// the wait on the body is precisely this stage's blocked-upstream
	// (network/server) time.
	chunkStart := time.Now()
	ch, size, err := c.dec.decode()
	if err != nil {
		c.err = err
		return ch, 0, false
	}
	metStreamBytes("client").Add(int64(size))
	c.stage.BlockedUpstream(time.Since(chunkStart))
	return ch, size, true
}

// awaitAck reads the first chunk looking for a pushdown ack. A non-ack
// chunk (old server) is stashed for Next; a read failure stays sticky
// in c.err and surfaces on the first Next.
func (c *clientStream) awaitAck() *wirePushedAck {
	ch, n, ok := c.readChunk()
	if !ok {
		return nil
	}
	if ch.pushed != nil {
		return ch.pushed
	}
	c.stash, c.stashLen = &ch, n
	return nil
}

// Next implements storage.RowStream.
func (c *clientStream) Next() (storage.Row, error) {
	if c.closed {
		return nil, storage.ErrStreamClosed
	}
	for {
		if c.pos < len(c.pending) {
			r := c.pending[c.pos]
			c.pos++
			return r, nil
		}
		if c.err != nil {
			return nil, c.err
		}
		var ch chunk
		var size int
		if c.stash != nil {
			ch, size = *c.stash, c.stashLen
			c.stash = nil
		} else {
			var ok bool
			ch, size, ok = c.readChunk()
			if !ok {
				return nil, c.err
			}
		}
		if ch.err != "" {
			c.err = fmt.Errorf("remote: stream failed at server: %s", ch.err)
			return nil, c.err
		}
		if ch.eof {
			c.err = io.EOF
			return nil, c.err
		}
		if ch.pushed != nil && len(ch.rows) == 0 {
			// A stray ack chunk mid-stream carries no rows; skip it.
			continue
		}
		rows := ch.rows
		// A row of the wrong width is wire corruption; letting it
		// through would index-panic in the filter re-check or feed the
		// evaluator garbage.
		for _, r := range rows {
			if len(r) != len(c.cols) {
				c.err = fmt.Errorf("remote: stream row has %d cells, want %d", len(r), len(c.cols))
				return nil, c.err
			}
		}
		metStreamBatches("client").Inc()
		c.stage.AddBatch(int64(len(rows)), int64(size))
		c.stage.NotePeak(int64(len(rows)))
		if len(rows) > c.peak {
			c.peak = len(rows)
		}
		// Re-check every filter locally: the server only applied the
		// pushable subset. Filters on columns a pushed projection
		// dropped are skipped — the caller holds the receipt and keeps
		// responsibility for anything it did not push.
		c.pending = c.pending[:0]
		c.pos = 0
		for _, r := range rows {
			if c.rowPassesFilters(r) {
				c.pending = append(c.pending, r)
			}
		}
	}
}

// rowPassesFilters re-applies equality filters to one decoded row using
// the prebound layout indexes.
func (c *clientStream) rowPassesFilters(r storage.Row) bool {
	for i, f := range c.filters {
		ci := c.filterIdx[i]
		if ci < 0 {
			continue
		}
		cmp, err := r[ci].Compare(f.Value)
		if err != nil || cmp != 0 {
			return false
		}
	}
	return true
}

// Close implements storage.RowStream. Idempotent; settles the stream's
// span and peak-batch observation.
func (c *clientStream) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	metStreamInflight("client").Add(-1)
	metStreamPeakBatch.Observe(time.Duration(c.peak))
	c.sp.Set("peak_batch_rows", strconv.Itoa(c.peak))
	if c.err != nil && c.err != io.EOF {
		c.sp.SetErr(c.err)
		c.stage.Fail(c.err)
	}
	c.stage.Done()
	c.sp.SetStage(c.stage)
	c.sp.End()
	return c.body.Close()
}
