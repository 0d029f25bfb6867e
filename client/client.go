// Package client is a retrying HTTP client for the oregami mapping
// daemon (oregami serve). It exists so tools and embedders can survive
// the daemon's transient states — admission-control 429s, drains,
// restarts mid-deploy — without hand-rolling backoff at every call
// site: Map retries retryable failures with capped exponential backoff
// plus jitter, honors the server's adaptive Retry-After header, bounds
// every attempt with its own timeout, and stops the moment the caller's
// context is done.
//
// This package is also the single Go definition of the daemon's wire
// schema: MapRequest, MapOptions, MapResponse, MetricsSummary and
// BatchItem are declared here, and internal/serve decodes and encodes
// these same types (through type aliases), so client and server cannot
// drift apart. The package stays stdlib-only for that reason.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// MapOptions is the options envelope of POST /v1/map: the
// result-affecting knobs of oregami.MapOptions plus per-request
// deadlines and request behavior.
type MapOptions struct {
	// Algo restricts the dispatcher to one algorithm class: "canned",
	// "systolic", "group-theoretic", "arbitrary", "multilevel", or
	// "recursive-bisection" ("" or "auto" lets the dispatcher choose;
	// the scale-oriented multilevel/recursive-bisection mappers are
	// never auto-selected).
	Algo string `json:"algo,omitempty"`
	// Check runs the post-condition oracle on the served mapping (also
	// settable with ?check=1); violations fail the request with 422.
	Check bool `json:"check,omitempty"`
	// NoCache bypasses the result cache lookup (the result is still
	// stored), forcing a full computation. NoCache requests are never
	// proxied to the owning cluster node — a bypass measures this node's
	// pipeline.
	NoCache bool `json:"nocache,omitempty"`
	// MaxTasksPerProc is MWM-Contract's load-balance bound B.
	MaxTasksPerProc int `json:"max_tasks_per_proc,omitempty"`
	// MaximumMatchingRouter swaps MM-Route's greedy maximal matching for
	// a maximum matching per round.
	MaximumMatchingRouter bool `json:"maximum_matching_router,omitempty"`
	// Refine applies local-search refinement on the arbitrary path.
	Refine bool `json:"refine,omitempty"`
	// TimeoutMS bounds this request's pipeline; it is capped by the
	// server's configured request timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// StageTimeoutMS bounds the MWM contraction stage (degrading to the
	// Stone/greedy ladder on expiry); capped by the server's configured
	// stage timeout when one is set.
	StageTimeoutMS int `json:"stage_timeout_ms,omitempty"`
	// Parallelism bounds the worker count of this request's MAPPER hot
	// paths. Zero means "use the server's per-request budget"; positive
	// values are capped by that budget; negative values are rejected
	// with 400. The mapping produced — and therefore the cache key — is
	// identical at every setting.
	Parallelism int `json:"parallelism,omitempty"`
}

// MapRequest is the body of POST /v1/map: a LaRCS program (inline source
// or a bundled workload name), parameter bindings, a target network
// spec, and options.
type MapRequest struct {
	// Source is inline LaRCS text. Exactly one of Source and Workload
	// must be set.
	Source string `json:"source,omitempty"`
	// Workload names a bundled workload (GET /v1/workloads lists them);
	// its default bindings are merged under Bindings.
	Workload string `json:"workload,omitempty"`
	// Bindings are LaRCS parameter values, e.g. {"n": 15, "s": 2}.
	Bindings map[string]int `json:"bindings,omitempty"`
	// Net is the target network spec in CLI syntax, e.g. "hypercube:3"
	// or "mesh:4,4".
	Net     string      `json:"net"`
	Options *MapOptions `json:"options,omitempty"`
}

// MetricsSummary is the METRICS headline numbers for a served mapping.
type MetricsSummary struct {
	Imbalance     float64 `json:"imbalance"`
	TotalIPC      float64 `json:"total_ipc"`
	TotalVolume   float64 `json:"total_volume"`
	MaxContention int     `json:"max_contention"`
	MaxDilation   int     `json:"max_dilation"`
}

// MapResponse is the body of a successful POST /v1/map.
type MapResponse struct {
	// APIVersion is the wire schema version (always "v2" today).
	APIVersion string `json:"apiVersion"`
	// Workload echoes the workload name, or "source" for inline text.
	Workload string `json:"workload"`
	// Net is the canonical network name, e.g. "hypercube(3)".
	Net   string `json:"net"`
	Tasks int    `json:"tasks"`
	Procs int    `json:"procs"`
	// Class and Method identify the MAPPER algorithms used.
	Class  string   `json:"class"`
	Method string   `json:"method"`
	Trail  []string `json:"trail,omitempty"`
	// Assignment[t] is the processor hosting task t.
	Assignment []int           `json:"assignment"`
	Metrics    *MetricsSummary `json:"metrics,omitempty"`
	// Fingerprint is the hex SHA-256 of the mapping's deterministic
	// fingerprint: equal inputs must serve equal fingerprints.
	Fingerprint string `json:"fingerprint"`
	// Cache reports how the result was obtained: "miss" (computed),
	// "hit" (served from cache), "shared" (deduplicated onto a
	// concurrent identical computation), or "bypass" (nocache).
	Cache string `json:"cache"`
	// Checked is set when the post-condition oracle ran for this
	// response; Violations lists what it found (empty on success —
	// non-empty only appears on 422 bodies).
	Checked    bool     `json:"checked,omitempty"`
	Violations []string `json:"violations,omitempty"`
	// ComputeMS is the pipeline time of the computation that produced
	// the mapping (zero-ish for cache hits); ElapsedMS is this request's
	// wall time including queueing.
	ComputeMS float64 `json:"compute_ms"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Node identifies the cluster node whose cache/pipeline produced the
	// result (empty outside cluster mode); Proxied marks a response the
	// receiving node obtained by forwarding the miss to the key's owner.
	Node    string `json:"node,omitempty"`
	Proxied bool   `json:"proxied,omitempty"`
	// Error is set on failed items of a /v1/map/batch stream.
	Error string `json:"error,omitempty"`
}

// BatchItem is one streamed result line of POST /v1/map/batch: the
// item's position in the request array plus its full MapResponse
// (failed items carry the Error field). Items arrive in completion
// order, not request order — Index is how the client reassembles.
type BatchItem struct {
	Index int `json:"index"`
	MapResponse
}

// Stats is the counter subset of GET /v1/stats?json=1 that tools read.
type Stats struct {
	Requests         int64   `json:"requests"`
	Rejected         int64   `json:"rejected"`
	Errors           int64   `json:"errors"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheCorrupt     int64   `json:"cache_corrupt"`
	WarmHits         int64   `json:"warm_hits"`
	PersistWrites    int64   `json:"persist_writes"`
	PersistErrors    int64   `json:"persist_errors"`
	PersistDropped   int64   `json:"persist_dropped"`
	StoreRecovered   int64   `json:"store_recovered"`
	StoreQuarantined int64   `json:"store_quarantined"`
	RecoveryMS       int64   `json:"recovery_ms"`
	Ready            int64   `json:"ready"`
	ProxiedIn        int64   `json:"proxied_in"`
	ProxiedOut       int64   `json:"proxied_out"`
	ProxyFallbacks   int64   `json:"proxy_fallbacks"`
	ProxyErrors      int64   `json:"proxy_errors"`
	PeersUp          int64   `json:"peers_up"`
	HitRatio         float64 `json:"hit_ratio"`
}

// APIError is a non-retryable server response: the request reached the
// daemon and was rejected on its merits (400, 404, 422, 500, ...).
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// RetriesExhaustedError wraps the last failure after every attempt was
// spent; errors.Unwrap exposes it.
type RetriesExhaustedError struct {
	Attempts int
	Last     error
}

func (e *RetriesExhaustedError) Error() string {
	return fmt.Sprintf("client: giving up after %d attempts: %v", e.Attempts, e.Last)
}

func (e *RetriesExhaustedError) Unwrap() error { return e.Last }

// Option configures a Client during New. Options are applied in
// order, so a later one overrides an earlier one.
type Option func(*options)

// WithHTTPClient overrides the transport; by default a dedicated client
// with generous idle-connection reuse is built.
func WithHTTPClient(hc *http.Client) Option {
	return func(o *options) { o.httpClient = hc }
}

// WithRetries bounds tries per call, first attempt included (default 5).
func WithRetries(n int) Option {
	return func(o *options) { o.maxAttempts = n }
}

// WithBackoff sets the exponential schedule's seed (default 100ms) and
// cap (default 5s): the wait before retry k is base<<k, jittered, capped
// by max. A server Retry-After overrides the schedule (still capped).
func WithBackoff(base, max time.Duration) Option {
	return func(o *options) { o.baseBackoff, o.maxBackoff = base, max }
}

// WithTimeout bounds each individual attempt (default 30s); the caller's
// context still bounds the call as a whole.
func WithTimeout(d time.Duration) Option {
	return func(o *options) { o.attemptTimeout = d }
}

// WithRand replaces the jitter source (tests); the default is math/rand.
func WithRand(fn func() float64) Option {
	return func(o *options) { o.rand = fn }
}

// WithSleep replaces the inter-attempt wait (tests); the default sleeps
// on the clock, waking early when ctx is done.
func WithSleep(fn func(ctx context.Context, d time.Duration) error) Option {
	return func(o *options) { o.sleep = fn }
}

// WithOnRetry observes each scheduled retry.
func WithOnRetry(fn func(attempt int, wait time.Duration, cause error)) Option {
	return func(o *options) { o.onRetry = fn }
}

// options is a Client's configuration; zero fields take the defaults
// documented on the With* constructors.
type options struct {
	httpClient              *http.Client
	maxAttempts             int
	baseBackoff, maxBackoff time.Duration
	attemptTimeout          time.Duration
	rand                    func() float64
	sleep                   func(ctx context.Context, d time.Duration) error
	onRetry                 func(attempt int, wait time.Duration, cause error)
}

// Client talks to one oregami serve instance. Safe for concurrent use.
type Client struct {
	base string
	opt  options
}

// New builds a client for the daemon at base ("http://host:port" or a
// bare "host:port"), configured by zero or more Options applied in
// order.
func New(base string, opts ...Option) *Client {
	var opt options
	for _, o := range opts {
		o(&opt)
	}
	if base != "" && base[0] != 'h' {
		base = "http://" + base
	}
	if opt.httpClient == nil {
		opt.httpClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}}
	}
	if opt.maxAttempts <= 0 {
		opt.maxAttempts = 5
	}
	if opt.baseBackoff <= 0 {
		opt.baseBackoff = 100 * time.Millisecond
	}
	if opt.maxBackoff <= 0 {
		opt.maxBackoff = 5 * time.Second
	}
	if opt.attemptTimeout <= 0 {
		opt.attemptTimeout = 30 * time.Second
	}
	if opt.rand == nil {
		opt.rand = rand.Float64
	}
	if opt.sleep == nil {
		opt.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return &Client{base: base, opt: opt}
}

// BaseURL returns the server base URL the client targets.
func (c *Client) BaseURL() string { return c.base }

// retryableStatus reports whether a status code signals a transient
// server condition worth retrying: admission-control pushback (429),
// drain/recovery (503), and gateway-ish errors (502, 504). Plain 500s
// and all 4xx are the request's fault and retried never.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attemptError is one failed try plus the server's pacing hint, if any.
type attemptError struct {
	err        error
	retryable  bool
	retryAfter time.Duration
}

// Map requests one mapping, retrying transient failures.
func (c *Client) Map(ctx context.Context, req MapRequest) (*MapResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out *MapResponse
	doErr := c.withRetries(ctx, func(actx context.Context) attemptError {
		resp, ae := c.post(actx, "/v1/map", body)
		if ae.err != nil {
			return ae
		}
		out = resp
		return attemptError{}
	})
	if doErr != nil {
		return nil, doErr
	}
	return out, nil
}

// MapBatch streams a batch of mapping requests through POST
// /v1/map/batch as NDJSON, invoking onItem for every line as it
// arrives (completion order, each item carrying its request index).
// One attempt only — a half-consumed stream cannot be transparently
// retried; callers wanting retries should retry whole batches. A
// non-nil error from onItem aborts the stream and is returned.
func (c *Client) MapBatch(ctx context.Context, reqs []MapRequest, onItem func(BatchItem) error) error {
	body, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/map/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := c.opt.httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("client: batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp).err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item BatchItem
		if err := json.Unmarshal(line, &item); err != nil {
			return fmt.Errorf("client: decoding batch line: %w", err)
		}
		if err := onItem(item); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: reading batch stream: %w", err)
	}
	return nil
}

// Stats fetches the server's counter snapshot (retrying like Map, so a
// momentarily-restarting server does not fail a monitoring loop).
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	doErr := c.withRetries(ctx, func(actx context.Context) attemptError {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/v1/stats?json=1", nil)
		if err != nil {
			return attemptError{err: err}
		}
		resp, err := c.opt.httpClient.Do(req)
		if err != nil {
			return attemptError{err: err, retryable: true}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return statusError(resp)
		}
		var envelope struct {
			Stats Stats `json:"stats"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			return attemptError{err: fmt.Errorf("client: decoding stats: %w", err), retryable: true}
		}
		out = envelope.Stats
		return attemptError{}
	})
	if doErr != nil {
		return nil, doErr
	}
	return &out, nil
}

// WaitReady polls GET /readyz until the server reports ready, the
// context expires, or maxWait elapses (0 means context-bounded only).
// It absorbs connection errors, so it is safe to call against a server
// that has not bound its listener yet.
func (c *Client) WaitReady(ctx context.Context, maxWait time.Duration) error {
	if maxWait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, maxWait)
		defer cancel()
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.opt.httpClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if serr := c.opt.sleep(ctx, 25*time.Millisecond); serr != nil {
			return fmt.Errorf("client: server never became ready: %w", serr)
		}
	}
}

// post runs one POST attempt and classifies the outcome.
func (c *Client) post(ctx context.Context, path string, body []byte) (*MapResponse, attemptError) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, attemptError{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opt.httpClient.Do(req)
	if err != nil {
		// Transport-level failures (refused, reset, attempt timeout) are
		// exactly the restart window this client exists for.
		return nil, attemptError{err: err, retryable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, attemptError{err: fmt.Errorf("client: decoding response: %w", err), retryable: true}
	}
	return &out, attemptError{}
}

// statusError turns a non-200 response into a classified attemptError,
// reading the server's {"error": ...} body and Retry-After header.
func statusError(resp *http.Response) attemptError {
	var envelope struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&envelope); err == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	ae := attemptError{
		err:       &APIError{Status: resp.StatusCode, Message: msg},
		retryable: retryableStatus(resp.StatusCode),
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			ae.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// withRetries drives fn through the backoff schedule. Non-retryable
// failures surface unwrapped after the first attempt; retryable ones
// come back as *RetriesExhaustedError once the budget is spent.
func (c *Client) withRetries(ctx context.Context, fn func(ctx context.Context) attemptError) error {
	var last error
	for attempt := 0; attempt < c.opt.maxAttempts; attempt++ {
		actx, cancel := context.WithTimeout(ctx, c.opt.attemptTimeout)
		ae := fn(actx)
		cancel()
		if ae.err == nil {
			return nil
		}
		last = ae.err
		if !ae.retryable {
			return last
		}
		if ctx.Err() != nil {
			return &RetriesExhaustedError{Attempts: attempt + 1, Last: errors.Join(last, ctx.Err())}
		}
		if attempt == c.opt.maxAttempts-1 {
			break
		}
		wait := c.backoff(attempt, ae.retryAfter)
		if c.opt.onRetry != nil {
			c.opt.onRetry(attempt+1, wait, ae.err)
		}
		if err := c.opt.sleep(ctx, wait); err != nil {
			return &RetriesExhaustedError{Attempts: attempt + 1, Last: errors.Join(last, err)}
		}
	}
	return &RetriesExhaustedError{Attempts: c.opt.maxAttempts, Last: last}
}

// backoff computes the wait before retrying attempt (0-based): the
// server's Retry-After when given, else the base backoff<<attempt with up to
// 50% random jitter subtracted (decorrelating synchronized clients),
// everything capped at the backoff cap.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if retryAfter > c.opt.maxBackoff {
			return c.opt.maxBackoff
		}
		return retryAfter
	}
	d := c.opt.baseBackoff << uint(attempt)
	if d > c.opt.maxBackoff || d <= 0 {
		d = c.opt.maxBackoff
	}
	jitter := time.Duration(c.opt.rand() * float64(d) * 0.5)
	return d - jitter
}
