package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cohera/internal/admission"
	"cohera/internal/obs"
	"cohera/internal/resilience"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/wrapper"
)

// DefaultTimeout bounds each client call unless WithTimeout overrides it.
const DefaultTimeout = 30 * time.Second

// TenantHeader carries the caller's tenant identity to the server's
// admission gate; DefaultTenant when the context is untagged.
const TenantHeader = "X-Cohera-Tenant"

// ShedReasonHeader carries the server-side shed reason of a 429 back
// to the client, so the typed overload error survives the wire.
const ShedReasonHeader = "X-Cohera-Shed-Reason"

// metClientReqs counts client calls by outcome class ("2xx", "4xx",
// "5xx", ... or "error" for transport failures that never got a status).
func metClientReqs(class string) *obs.Counter {
	return obs.Default().Counter("cohera_remote_client_requests_total",
		"Remote client calls by status class (error = transport failure).",
		obs.Labels{"class": class})
}

var (
	metClientBytes = obs.Default().Counter("cohera_remote_client_bytes_read_total",
		"Response bytes read by the remote client.", nil)
	metClientSeconds = obs.Default().Histogram("cohera_remote_client_seconds",
		"Remote client call latency.", nil)
	metClientRetries = obs.Default().Counter("cohera_remote_client_retries_total",
		"Retries of idempotent remote reads (attempts beyond the first).", nil)
)

// Client talks to a remote Server.
type Client struct {
	base        string
	token       string
	http        *http.Client
	retry       *resilience.Retry
	streamBatch int
}

// DialOption customizes a Client.
type DialOption func(*Client)

// WithTimeout overrides the whole-call timeout (DefaultTimeout). d ≤ 0
// disables the timeout entirely, leaving cancellation to the context.
func WithTimeout(d time.Duration) DialOption {
	return func(c *Client) {
		if d < 0 {
			d = 0
		}
		c.http.Timeout = d
	}
}

// WithTransport overrides the client's HTTP transport — the seam a
// fault.RoundTripper plugs into. nil restores the default transport.
func WithTransport(rt http.RoundTripper) DialOption {
	return func(c *Client) { c.http.Transport = rt }
}

// WithStreamBatch asks /fetchstream servers for n rows per chunk.
// 0 (the default) accepts the server's choice; the server clamps
// oversized asks.
func WithStreamBatch(n int) DialOption {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.streamBatch = n
	}
}

// WithRetry installs a retry policy for idempotent reads (Tables,
// Digest, Healthy, and Source.Fetch). Transport failures and 5xx
// responses are retried with capped exponential backoff and full
// jitter; 4xx responses are the caller's fault and fail immediately,
// and 429 sheds come back typed without a retry. A Source.Fetch
// attempt is the stream's open plus its full drain, so a transfer that
// breaks mid-body is retried whole: the failed attempt returned no
// rows to the caller, so nothing can be doubled. Streams opened with
// FetchPushStream are never retried (their rows are already with the
// caller), and writes are never retried: a blindly replayed
// non-idempotent statement could apply twice.
func WithRetry(r resilience.Retry) DialOption {
	return func(c *Client) { c.retry = &r }
}

// Dial creates a client for a server base URL ("http://host:port").
// token may be empty for unauthenticated servers.
func Dial(base, token string, opts ...DialOption) *Client {
	c := &Client{
		base:  base,
		token: token,
		http:  &http.Client{Timeout: DefaultTimeout},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// statusError carries a non-200 response through the error chain so the
// retry policy can distinguish server faults (5xx) from caller errors.
type statusError struct {
	method, path string
	code         int
	msg          string
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("remote: %s %s: %s", e.method, e.path, e.msg)
	}
	return fmt.Sprintf("remote: %s %s: status %d", e.method, e.path, e.code)
}

// retryableError classifies one failed attempt: 5xx and transport-level
// failures are transient; 4xx, context expiry, and overload sheds are
// permanent. A shed is never blind-retried — the server just said it
// is at capacity, and an immediate retry is the start of a retry storm;
// honoring the Retry-After hint is the caller's (scheduler's) job.
func retryableError(err error) bool {
	if errors.Is(err, admission.ErrOverloaded) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// shedError converts a 429 response into the same typed overload error
// a local admission gate produces, so errors.Is(err, ErrOverloaded)
// holds whether the shed happened in-process or across the wire.
// Retry-After is parsed as delta-seconds; absent or malformed, a
// conservative default stands in. The server's shed reason rides
// ShedReasonHeader, prefixed "remote-" to keep origins distinguishable.
func shedError(ctx context.Context, method, path string, h http.Header) error {
	ra := 250 * time.Millisecond
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 && secs <= 3600 {
			ra = time.Duration(secs * float64(time.Second))
		}
	}
	reason := h.Get(ShedReasonHeader)
	if reason == "" {
		reason = "unknown"
	}
	oe := &admission.OverloadError{
		Tenant:     admission.TenantOf(ctx),
		Reason:     "remote-" + reason,
		RetryAfter: ra,
	}
	return fmt.Errorf("remote: %s %s: %w", method, path, oe)
}

// do performs one client call under the retry policy retrying picks
// for it.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool) ([]byte, error) {
	var out []byte
	err := c.retrying(ctx, idempotent, func(ctx context.Context) error {
		var opErr error
		out, opErr = c.doOnce(ctx, method, path, body)
		return opErr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// retrying runs one attempt function under the client's retry policy
// when the operation is idempotent and a policy is installed, and
// exactly once otherwise. Each retry beyond the first attempt advances
// cohera_remote_client_retries_total.
func (c *Client) retrying(ctx context.Context, idempotent bool, attempt func(context.Context) error) error {
	if c.retry == nil || !idempotent {
		return attempt(ctx)
	}
	r := *c.retry
	prev := r.OnRetry
	r.OnRetry = func(n int, err error, delay time.Duration) {
		metClientRetries.Inc()
		if prev != nil {
			prev(n, err, delay)
		}
	}
	return r.Run(ctx, attempt, retryableError)
}

// doOnce is a single client call attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	start := time.Now()
	defer func() { metClientSeconds.Observe(time.Since(start)) }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		metClientReqs("error").Inc()
		return nil, fmt.Errorf("remote: request: %w", err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace so the server's spans join our tree,
	// and the tenant so the server's admission gate bills the right
	// account.
	obs.InjectHeaders(ctx, req.Header)
	req.Header.Set(TenantHeader, admission.TenantOf(ctx))
	resp, err := c.http.Do(req)
	if err != nil {
		metClientReqs("error").Inc()
		return nil, fmt.Errorf("remote: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	metClientReqs(respClass(resp.StatusCode)).Inc()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("remote: reading %s: %w", path, err)
	}
	metClientBytes.Add(int64(len(out)))
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, shedError(ctx, method, path, resp.Header)
	}
	if resp.StatusCode != http.StatusOK {
		se := &statusError{method: method, path: path, code: resp.StatusCode}
		var er errorResponse
		if json.Unmarshal(out, &er) == nil && er.Error != "" {
			se.msg = er.Error
		}
		return nil, se
	}
	return out, nil
}

// statusClass folds an HTTP status into its hundreds class ("2xx"…).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// respClass is statusClass with sheds broken out: 429s get their own
// "shed" class in the request counters so overload is visible at a
// glance instead of hiding inside 4xx.
func respClass(code int) string {
	if code == http.StatusTooManyRequests {
		return "shed"
	}
	return statusClass(code)
}

// Tables discovers the remote schemas as ready-to-register sources.
func (c *Client) Tables(ctx context.Context) ([]wrapper.Source, error) {
	body, err := c.do(ctx, http.MethodGet, "/tables", nil, true)
	if err != nil {
		return nil, err
	}
	var schemas []wireSchema
	if err := json.Unmarshal(body, &schemas); err != nil {
		return nil, fmt.Errorf("remote: decoding /tables: %w", err)
	}
	var out []wrapper.Source
	for _, ws := range schemas {
		def, err := decodeSchema(ws)
		if err != nil {
			return nil, err
		}
		out = append(out, &Source{
			client: c, def: def,
			caps: wrapper.Capabilities{
				PushdownEq: ws.PushdownEq,
				Push:       decodePushCaps(ws.Push),
				Volatile:   ws.Volatile,
			},
		})
	}
	return out, nil
}

// Healthy probes /healthz.
func (c *Client) Healthy(ctx context.Context) bool {
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil, true)
	return err == nil
}

// Digest fetches the content digest of a stored table published on
// the server — the remote half of anti-entropy divergence detection.
// Read-only, so it rides the idempotent retry policy.
func (c *Client) Digest(ctx context.Context, table string) (storage.TableDigest, error) {
	body, err := json.Marshal(digestRequest{Table: table})
	if err != nil {
		return storage.TableDigest{}, err
	}
	out, err := c.do(ctx, http.MethodPost, "/digest", body, true)
	if err != nil {
		return storage.TableDigest{}, err
	}
	var resp digestResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return storage.TableDigest{}, fmt.Errorf("remote: decoding /digest: %w", err)
	}
	h, err := strconv.ParseUint(resp.Hash, 16, 64)
	if err != nil {
		return storage.TableDigest{}, fmt.Errorf("remote: /digest hash %q: %w", resp.Hash, err)
	}
	return storage.TableDigest{Hash: h, Rows: resp.Rows}, nil
}

// Source is a remote table presented through the standard connector
// interface: the federation treats an enterprise across the network
// exactly like a local wrapper (Characteristic 1's arms-length end, with
// structure instead of scraping).
type Source struct {
	client *Client
	def    *schema.Table
	caps   wrapper.Capabilities
}

// Name implements wrapper.Source.
func (s *Source) Name() string { return s.client.base + "/" + s.def.Name }

// Schema implements wrapper.Source.
func (s *Source) Schema() *schema.Table { return s.def }

// Capabilities implements wrapper.Source.
func (s *Source) Capabilities() wrapper.Capabilities { return s.caps }

// Fetch implements wrapper.Source as a drain of FetchPushStream with
// nothing pushed: pushable filters travel to the server and every
// filter is re-checked on the decoded rows. Each attempt (the open plus
// the full drain) runs under the client's retry policy and is bounded
// by the client's whole-call timeout.
func (s *Source) Fetch(ctx context.Context, filters []wrapper.Filter) ([]storage.Row, error) {
	var rows []storage.Row
	err := s.client.retrying(ctx, true, func(ctx context.Context) error {
		if d := s.client.http.Timeout; d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		st, _, err := s.FetchPushStream(ctx, filters, wrapper.Pushdown{})
		if err != nil {
			return err
		}
		rows, err = storage.CollectRows(st)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
