package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"oregami/client"
	"oregami/internal/analysis"
	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/larcs"
	"oregami/internal/metrics"
	"oregami/internal/route"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// APIVersion is the wire schema version stamped into every JSON
// response envelope (success, error, and batch alike) as "apiVersion".
// Clients should reject envelopes whose version they do not understand.
//
// v2 moved the request knobs into the options{} envelope
// (options.algo/check/nocache), added node/proxied to response envelopes
// for cluster mode, and made /v1/map/batch a stream (NDJSON or SSE).
const APIVersion = "v2"

// The /v1/map wire types are declared once, in oregami/client; the
// server decodes and encodes the very same Go types.
type (
	// MapRequest is the body of POST /v1/map.
	MapRequest = client.MapRequest
	// MapRequestOptions is the options envelope of a MapRequest.
	MapRequestOptions = client.MapOptions
	// MapResponse is the body of a successful POST /v1/map.
	MapResponse = client.MapResponse
	// MetricsSummary is the METRICS headline numbers for a served mapping.
	MetricsSummary = client.MetricsSummary
	// BatchItem is one streamed result line of POST /v1/map/batch.
	BatchItem = client.BatchItem
)

// VetRequest is the body of POST /v1/vet.
type VetRequest struct {
	Source string `json:"source"`
}

// VetResponse carries the static analyzer's findings.
type VetResponse struct {
	APIVersion  string          `json:"apiVersion"`
	Diagnostics []analysis.Diag `json:"diagnostics"`
	HasErrors   bool            `json:"has_errors"`
}

// WorkloadInfo is one entry of GET /v1/workloads.
type WorkloadInfo struct {
	Name  string `json:"name"`
	About string `json:"about"`
}

// WorkloadsResponse is the body of GET /v1/workloads.
type WorkloadsResponse struct {
	APIVersion string         `json:"apiVersion"`
	Workloads  []WorkloadInfo `json:"workloads"`
}

// StatsResponse is the body of GET /v1/stats?json=1.
type StatsResponse struct {
	APIVersion string      `json:"apiVersion"`
	Stats      interface{} `json:"stats"`
}

// ErrorResponse is every error body: {"apiVersion": "v2", "error": msg}.
type ErrorResponse struct {
	APIVersion string `json:"apiVersion"`
	Error      string `json:"error"`
}

// httpError is an error with an HTTP status; the handlers render it as
// {"error": msg}.
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unprocessable(format string, args ...interface{}) *httpError {
	return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

// resolved is a MapRequest parsed, canonicalized, and content-addressed,
// ready for a cache lookup or a computation.
type resolved struct {
	name         string // workload name or "source"
	prog         *larcs.Program
	canonical    string
	bindings     map[string]int
	net          *topology.Network
	opts         MapRequestOptions
	key          string
	check        bool
	nocache      bool
	timeout      time.Duration
	stageTimeout time.Duration
	// parallelism is the effective worker budget for this request's
	// pipeline: the server's per-request budget, lowered by the
	// request's own parallelism option when set.
	parallelism int
}

// resolve validates and canonicalizes one request. It parses the program
// (but does not expand it), builds the target network, merges workload
// default bindings, clamps deadlines to the server's configuration, and
// derives the content-addressed cache key.
func (s *Server) resolve(req *MapRequest) (*resolved, *httpError) {
	if req == nil {
		return nil, badRequest("empty request")
	}
	if (req.Source == "") == (req.Workload == "") {
		return nil, badRequest("exactly one of source and workload must be set")
	}
	if req.Net == "" {
		return nil, badRequest("net is required, e.g. \"hypercube:3\"")
	}
	r := &resolved{
		name:     "source",
		bindings: make(map[string]int),
	}
	src := req.Source
	if req.Workload != "" {
		w, err := workload.ByName(req.Workload)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		r.name = w.Name
		src = w.Source
		for k, v := range w.Defaults {
			r.bindings[k] = v
		}
	}
	for k, v := range req.Bindings {
		r.bindings[k] = v
	}
	prog, err := larcs.Parse(src)
	if err != nil {
		return nil, unprocessable("parse: %v", err)
	}
	r.prog = prog
	r.canonical = larcs.Format(prog)
	net, err := topology.ParseSpec(req.Net)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	r.net = net
	if req.Options != nil {
		r.opts = *req.Options
		switch r.opts.Algo {
		case "", "auto", string(core.ClassCanned), string(core.ClassSystolic),
			string(core.ClassGroup), string(core.ClassArbitrary),
			string(core.ClassMultilevel), string(core.ClassBisect):
		default:
			return nil, badRequest("options.algo %q is not a MAPPER class (canned|systolic|group-theoretic|arbitrary|multilevel|recursive-bisection)", r.opts.Algo)
		}
		if r.opts.Parallelism < 0 {
			return nil, badRequest("options.parallelism must be >= 0 (0 = server budget), got %d", r.opts.Parallelism)
		}
		// "auto" and "" are the same dispatcher behavior; normalize so
		// they share one cache entry.
		if r.opts.Algo == "auto" {
			r.opts.Algo = ""
		}
		r.check = r.opts.Check
		r.nocache = r.opts.NoCache
	}
	// The effective budget is the server's per-request share of the
	// machine; a request may only lower it.
	r.parallelism = s.cfg.Parallel
	if r.opts.Parallelism > 0 && r.opts.Parallelism < r.parallelism {
		r.parallelism = r.opts.Parallelism
	}
	r.timeout = s.cfg.RequestTimeout
	if d := time.Duration(r.opts.TimeoutMS) * time.Millisecond; d > 0 && d < r.timeout {
		r.timeout = d
	}
	r.stageTimeout = s.cfg.StageTimeout
	if d := time.Duration(r.opts.StageTimeoutMS) * time.Millisecond; d > 0 && (r.stageTimeout == 0 || d < r.stageTimeout) {
		r.stageTimeout = d
	}
	r.key = cacheKey(r.canonical, r.bindings, net.Name, &r.opts)
	return r, nil
}

// compute runs the full pipeline for a resolved request — LaRCS
// expansion, MAPPER, METRICS — under the per-request deadline, recording
// stage latencies, and returns a cache-ready entry.
func (s *Server) compute(ctx context.Context, r *resolved) (*cacheEntry, error) {
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	if s.computeHook != nil {
		if err := s.computeHook(ctx); err != nil {
			return nil, err
		}
	}
	compileStart := time.Now()
	comp, err := r.prog.Compile(r.bindings, larcs.Limits{
		MaxTasks: s.cfg.MaxTasks,
		MaxEdges: s.cfg.MaxEdges,
	})
	if err != nil {
		return nil, unprocessable("compile: %v", err)
	}
	s.reg.ObserveStage("compile", time.Since(compileStart))

	mapStart := time.Now()
	res, err := core.Map(core.Request{
		Compiled:        comp,
		Net:             r.net,
		Force:           core.Class(r.opts.Algo),
		MaxTasksPerProc: r.opts.MaxTasksPerProc,
		Refine:          r.opts.Refine,
		Route:           route.Options{UseMaximum: r.opts.MaximumMatchingRouter},
		Ctx:             ctx,
		StageTimeout:    r.stageTimeout,
		Observe:         s.reg.ObserveStage,
		Parallelism:     r.parallelism,
	})
	if err != nil {
		return nil, pipelineHTTPError(err)
	}
	s.reg.ObserveStage("map", time.Since(mapStart))

	metricsStart := time.Now()
	rep, err := metrics.ComputeN(res.Mapping, r.parallelism)
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: fmt.Sprintf("metrics: %v", err)}
	}
	s.reg.ObserveStage("metrics", time.Since(metricsStart))

	m := res.Mapping
	assignment := make([]int, comp.Graph.NumTasks)
	for t := range assignment {
		assignment[t] = m.ProcOf(t)
	}
	summary := &MetricsSummary{
		Imbalance:   rep.Load.Imbalance,
		TotalIPC:    rep.TotalIPC,
		TotalVolume: rep.TotalVolume,
	}
	for _, lm := range rep.Links {
		if lm.MaxContention > summary.MaxContention {
			summary.MaxContention = lm.MaxContention
		}
		if lm.MaxDilation > summary.MaxDilation {
			summary.MaxDilation = lm.MaxDilation
		}
	}
	fp := check.Fingerprint(m)
	resp := MapResponse{
		APIVersion:  APIVersion,
		Workload:    r.name,
		Net:         r.net.Name,
		Tasks:       comp.Graph.NumTasks,
		Procs:       r.net.N,
		Class:       string(res.Class),
		Method:      m.Method,
		Trail:       res.Trail,
		Assignment:  assignment,
		Metrics:     summary,
		Fingerprint: check.FingerprintHash(m),
		ComputeMS:   float64(time.Since(compileStart)) / float64(time.Millisecond),
		Node:        s.nodeID(),
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: fmt.Sprintf("encode: %v", err)}
	}
	return &cacheEntry{
		key:  r.key,
		resp: resp,
		m:    m,
		fp:   fp,
		size: entrySize(len(body), fp, m),
	}, nil
}

// runOracle re-runs the post-condition oracle against a (possibly
// cached) mapping and returns the rendered violations, empty when clean.
func (s *Server) runOracle(m *cacheEntry) []string {
	if m.m == nil {
		// Unreachable in practice: checked requests miss on restored
		// entries, so every oracle run sees a live mapping.
		return []string{"no live mapping available for oracle"}
	}
	checkStart := time.Now()
	rep, err := metrics.Compute(m.m)
	if err != nil {
		rep = nil // the structural violations below explain why
	}
	vs := check.Verify(m.m.Graph, m.m.Net, m.m, rep)
	s.reg.ObserveStage("check", time.Since(checkStart))
	if len(vs) == 0 {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// pipelineHTTPError maps pipeline failures to HTTP statuses: deadline
// expiry is 504, cancellation 499 (client closed), oracle violations
// 422, everything else 500.
func pipelineHTTPError(err error) *httpError {
	var herr *httpError
	if errors.As(err, &herr) {
		return herr
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{status: http.StatusGatewayTimeout, msg: err.Error()}
	case errors.Is(err, context.Canceled):
		return &httpError{status: 499, msg: err.Error()}
	}
	var verr *check.ViolationError
	if errors.As(err, &verr) {
		return unprocessable("%v", err)
	}
	var fpe *FlightPanicError
	if errors.As(err, &fpe) {
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	var perr *core.PipelineError
	if errors.As(err, &perr) {
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return unprocessable("%v", err)
}
