package encoder

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"collabscope/internal/checkpoint"
	"collabscope/internal/exchange"
	"collabscope/internal/faultinject"
	"collabscope/internal/obs"
)

// DefaultMaxBatch is the coalescing window: the most texts one HTTP
// request carries. Larger batches amortise round trips; the cap keeps a
// single request's body (and the server's per-request work) bounded.
const DefaultMaxBatch = 256

// Remote is the HTTP encoder backend: it speaks the versioned encode wire
// format (SHA-256 trailers both ways) against a server's POST endpoint,
// with the same retry/backoff/deadline discipline as the model-exchange
// client (it reuses exchange.RetryPolicy), request coalescing across
// concurrent callers, and a content-addressed signature cache so repeat
// texts — and with a checkpoint store, repeat runs — never leave the
// process.
//
// Determinism contract: the server must be a pure function of the text
// (the stub server wraps the deterministic hash encoder). Under that
// contract the backend is bit-identical to calling the server per text,
// regardless of batching, coalescing, caching, or retries — pinned by the
// backend conformance test.
type Remote struct {
	url      string
	model    string
	dim      int
	maxBatch int

	hc     *http.Client
	policy exchange.RetryPolicy
	randN  func(n time.Duration) time.Duration
	inject *faultinject.Injector
	reg    *obs.Registry

	cache *sigCache
	// Cache construction inputs, consumed in finish().
	store    *checkpoint.Store
	capacity int

	co coalescer
}

// RemoteOption configures a Remote backend.
type RemoteOption func(*Remote)

// WithDim sets the signature dimensionality the backend requests and
// validates (default embed.DefaultDim via New; 768).
func WithDim(d int) RemoteOption {
	return func(r *Remote) { r.dim = d }
}

// WithModel sets the model identifier sent with every request and mixed
// into every cache key.
func WithModel(model string) RemoteOption {
	return func(r *Remote) { r.model = model }
}

// WithMaxBatch sets the coalescing window (texts per HTTP request;
// default DefaultMaxBatch).
func WithMaxBatch(n int) RemoteOption {
	return func(r *Remote) {
		if n > 0 {
			r.maxBatch = n
		}
	}
}

// WithHTTPClient replaces the transport (http.DefaultClient if unset).
func WithHTTPClient(hc *http.Client) RemoteOption {
	return func(r *Remote) {
		if hc != nil {
			r.hc = hc
		}
	}
}

// WithRetryPolicy replaces the default retry policy (the exchange client
// defaults: 3 attempts, 100 ms base delay, 2 s cap, 5 s attempt timeout).
func WithRetryPolicy(p exchange.RetryPolicy) RemoteOption {
	return func(r *Remote) { r.policy = p }
}

// WithStore persists the signature cache through a checkpoint store, so a
// rerun over the same texts costs zero requests even across restarts.
func WithStore(s *checkpoint.Store) RemoteOption {
	return func(r *Remote) { r.store = s }
}

// WithCacheCapacity bounds the in-memory signature cache (entries;
// default DefaultCacheCapacity). Evictions are counted as
// "encoder.cache_evictions".
func WithCacheCapacity(n int) RemoteOption {
	return func(r *Remote) { r.capacity = n }
}

// WithMetrics attaches a metrics registry: request latency
// ("encoder.request"), request/retry/failure counters, and cache
// hit/miss/eviction counters. A nil registry keeps instrumentation
// disabled.
func WithMetrics(reg *obs.Registry) RemoteOption {
	return func(r *Remote) { r.reg = reg }
}

// WithFaultInjector arms a fault injector on this backend only (sites
// encoder.client.request and encoder.client.body).
func WithFaultInjector(in *faultinject.Injector) RemoteOption {
	return func(r *Remote) { r.inject = in }
}

// WithJitterRand replaces the backoff jitter's randomness source, pinning
// the retry schedule for tests.
func WithJitterRand(rng *rand.Rand) RemoteOption {
	return func(r *Remote) {
		if rng != nil {
			r.randN = func(n time.Duration) time.Duration {
				return time.Duration(rng.Int64N(int64(n)))
			}
		}
	}
}

// NewRemote returns a remote backend for the given encode endpoint URL.
func NewRemote(url string, opts ...RemoteOption) (*Remote, error) {
	if strings.TrimSpace(url) == "" {
		return nil, fmt.Errorf("encoder: remote backend needs a server URL")
	}
	r := &Remote{
		url:      url,
		dim:      0, // filled below; New passes the configured dimension
		maxBatch: DefaultMaxBatch,
		hc:       http.DefaultClient,
		policy:   exchange.DefaultRetryPolicy(),
		randN:    func(n time.Duration) time.Duration { return rand.N(n) },
	}
	for _, o := range opts {
		o(r)
	}
	if r.dim <= 0 {
		return nil, fmt.Errorf("encoder: remote backend needs a positive dimension")
	}
	r.policy = r.policy.WithDefaults()
	r.cache = newSigCache(r.capacity, r.store, r.reg)
	r.co.flush = r.flush
	r.co.window = r.maxBatch
	return r, nil
}

// Dim implements embed.Encoder.
func (r *Remote) Dim() int { return r.dim }

// EncodeBatch implements embed.Encoder: cache lookups first, then the
// misses — deduplicated — through the coalescer, which groups concurrent
// misses into requests of at most the coalescing window. A cancelled ctx
// releases the caller promptly; an in-flight request finishes in the
// background and still feeds the cache.
func (r *Remote) EncodeBatch(ctx context.Context, texts []string) ([][]float64, error) {
	ctx, sp := obs.Start(ctx, "encoder.remote")
	sp.Annotate("texts", int64(len(texts)))
	defer sp.End()
	out := make([][]float64, len(texts))
	if len(texts) == 0 {
		return out, nil
	}
	// Cache pass: resolve hits, collect one pending item per distinct
	// missing text (batch-internal duplicates share it).
	byKey := make(map[string]*pending)
	itemOf := make([]*pending, len(texts))
	var misses []*pending
	for i, text := range texts {
		key := CacheKey(r.model, r.dim, text)
		if p, ok := byKey[key]; ok {
			itemOf[i] = p
			continue
		}
		if v, ok := r.cache.get(key); ok {
			out[i] = v
			continue
		}
		p := &pending{key: key, text: text, done: make(chan struct{})}
		byKey[key] = p
		itemOf[i] = p
		misses = append(misses, p)
	}
	sp.Annotate("misses", int64(len(misses)))
	if len(misses) > 0 {
		r.co.submit(misses)
	}
	for i := range texts {
		p := itemOf[i]
		if p == nil {
			continue // cache hit
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-p.done:
		}
		if p.err != nil {
			return nil, fmt.Errorf("encoder: remote %s: %w", r.url, p.err)
		}
		out[i] = append([]float64(nil), p.vec...)
	}
	return out, nil
}

// pending is one not-yet-encoded text awaiting a coalesced request.
type pending struct {
	key, text string
	done      chan struct{}
	vec       []float64
	err       error
}

// coalescer groups pending texts from concurrent EncodeBatch calls into
// requests of at most `window` texts. The drain goroutine is started on
// demand by the first submitter and exits once the queue runs dry — no
// long-lived goroutine, nothing to leak or Close.
type coalescer struct {
	mu       sync.Mutex
	queue    []*pending
	draining bool
	window   int
	flush    func(batch []*pending)
}

func (c *coalescer) submit(items []*pending) {
	c.mu.Lock()
	c.queue = append(c.queue, items...)
	start := !c.draining
	if start {
		c.draining = true
	}
	c.mu.Unlock()
	if start {
		go c.drain()
	}
}

func (c *coalescer) drain() {
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.draining = false
			c.mu.Unlock()
			return
		}
		n := len(c.queue)
		if n > c.window {
			n = c.window
		}
		batch := c.queue[:n:n]
		c.queue = c.queue[n:]
		c.mu.Unlock()
		c.flush(batch)
	}
}

// flush sends one coalesced request and resolves its pending items. It
// runs on the drain goroutine with no caller context: callers may have
// gone away (cancellation), yet the result still warms the cache for the
// next run. The retry policy's per-attempt timeout bounds each attempt,
// so an abandoned flush terminates promptly.
func (r *Remote) flush(batch []*pending) {
	texts := make([]string, len(batch))
	for i, p := range batch {
		texts[i] = p.text
	}
	resp, err := r.post(texts)
	for i, p := range batch {
		if err != nil {
			p.err = err
		} else {
			p.vec = resp.Vectors[i]
			r.cache.put(p.key, p.vec)
		}
		close(p.done)
	}
}

// post runs one encode request through the retry loop: capped exponential
// backoff with jitter between attempts, per-attempt timeouts from the
// policy, Retry-After honoured as a backoff floor, and checksum
// validation of the response envelope.
func (r *Remote) post(texts []string) (*EncodeResponse, error) {
	payload, err := MarshalRequest(EncodeRequest{Model: r.model, Dim: r.dim, Texts: texts})
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.reg.Counter("encoder.retries").Inc()
			sleep(r.backoff(attempt, lastErr))
		}
		resp, err := r.once(payload, len(texts))
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retryableEncode(err) {
			break
		}
	}
	r.reg.Counter("encoder.request_failures").Inc()
	return nil, fmt.Errorf("after %d attempts: %w", r.policy.MaxAttempts, lastErr)
}

// once performs a single attempt under the policy's per-attempt timeout.
// "encoder.client.request" (error/delay before the attempt) and
// "encoder.client.body" (response corruption, caught by the checksum
// trailer) are fault-injection hook points, mirroring the exchange client.
func (r *Remote) once(payload []byte, wantTexts int) (*EncodeResponse, error) {
	if err := r.hit("encoder.client.request"); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.policy.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/json")
	sw := r.reg.Clock()
	r.reg.Counter("encoder.requests").Inc()
	r.reg.Counter("encoder.texts").Add(int64(wantTexts))
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	r.reg.Histogram("encoder.request").ObserveSince(sw)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &encodeStatusError{
			code:       resp.StatusCode,
			body:       string(snippet),
			retryAfter: exchange.ParseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxResponseBody {
		return nil, fmt.Errorf("response exceeds %d bytes", maxResponseBody)
	}
	return UnmarshalResponse(r.corrupt("encoder.client.body", body), r.dim, wantTexts)
}

func (r *Remote) hit(site string) error {
	if r.inject != nil {
		return r.inject.Hit(site)
	}
	return faultinject.Hit(site)
}

func (r *Remote) corrupt(site string, b []byte) []byte {
	if r.inject != nil {
		return r.inject.Corrupt(site, b)
	}
	return faultinject.Corrupt(site, b)
}

// encodeStatusError is a non-2xx response; retryable for 5xx and 429.
type encodeStatusError struct {
	code       int
	body       string
	retryAfter time.Duration
}

func (e *encodeStatusError) Error() string {
	msg := strings.TrimSpace(e.body)
	if msg == "" {
		return fmt.Sprintf("http status %d", e.code)
	}
	return fmt.Sprintf("http status %d: %.120s", e.code, msg)
}

// retryableEncode mirrors the exchange client's retry classification: 5xx
// and 429 retry, any other HTTP answer (including a checksum-valid but
// malformed payload) does not, and transport-level failures do.
func retryableEncode(err error) bool {
	var se *encodeStatusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	var netErr interface{ Timeout() bool }
	if errors.As(err, &netErr) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// backoff returns the jittered delay before retry number attempt (≥ 1):
// BaseDelay·2^(attempt−1) capped at MaxDelay, jittered uniformly over
// [delay/2, delay], floored by a server's Retry-After advice (itself
// capped at MaxDelay).
func (r *Remote) backoff(attempt int, lastErr error) time.Duration {
	delay := r.policy.BaseDelay
	for i := 1; i < attempt && delay < r.policy.MaxDelay; i++ {
		delay *= 2
	}
	if delay > r.policy.MaxDelay {
		delay = r.policy.MaxDelay
	}
	half := delay / 2
	d := half + r.randN(delay-half+1)
	var se *encodeStatusError
	if errors.As(lastErr, &se) && se.retryAfter > 0 {
		floor := se.retryAfter
		if floor > r.policy.MaxDelay {
			floor = r.policy.MaxDelay
		}
		if d < floor {
			d = floor
		}
	}
	return d
}

func sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	<-t.C
}
