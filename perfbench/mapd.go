package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/larcs"
	"oregami/internal/metrics"
	"oregami/internal/par"
	"oregami/internal/serve"
	"oregami/internal/serve/stats"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// mapd-mixed: the mapd HTTP handler driven in-process by a closed-loop
// caller (no sockets, no child process). Most requests read a hot set
// that stays cached; a fixed share are writes with unique bindings that
// miss, compute through LaRCS and the dispatcher, and insert into a
// cache small enough that they keep evicting each other.
//
// One caller, not one per CPU: with two, runs on a shared 2-CPU machine
// split into two modes (about 1.7k and 3.2k requests/s, tails of 9 and
// 3 ms) depending on whether the host left both CPUs to the process. One
// caller also never has two requests in one flight, so the hit and miss
// counts are exact.

// Seven hot keys, each once per block of nine, make hits 7/9 of the
// requests; all are faster than the misses, so the median request is the
// 9/14 point of the hits, the middle of the fifth of seven hot keys
// ordered by latency, never the edge between two keys.
const (
	mapdHot             = 7                                 // hot keys
	mapdColdPerBlock    = 2                                 // cold writes per block of the 7 hot reads: 2/9 of requests
	mapdRoundRequests   = 28 * (mapdHot + mapdColdPerBlock) // whole blocks: 252
	mapdRoundsPerSecond = 5.6
	mapdColdResident    = 64 // cold entries the cache budget holds besides the hot set
	mapdHotWorkload     = "nbody"
	mapdHotNet          = "hypercube:5"
	mapdColdWorkload    = "jacobi"
	mapdColdNet         = "mesh:12,12"
)

// mapdRequest is one scheduled request.
type mapdRequest struct {
	body []byte
	cold bool
	key  int // index into the distinct inputs
}

// mapdInput is one distinct request, for the in-process oracle.
type mapdInput struct {
	workload string
	bindings map[string]int
	net      string
}

// mapdPlan is the seeded request schedule: plan.rounds[r] is the
// request sequence of round r.
type mapdPlan struct {
	inputs []mapdInput
	rounds [][]mapdRequest
	hot    []int // indices of the hot inputs
}

func (p *mapdPlan) add(in mapdInput, cold bool) (mapdRequest, error) {
	body, err := json.Marshal(serve.MapRequest{
		Workload: in.workload,
		Bindings: in.bindings,
		Net:      in.net,
		Options:  &serve.MapRequestOptions{Parallelism: 1},
	})
	if err != nil {
		return mapdRequest{}, err
	}
	p.inputs = append(p.inputs, in)
	return mapdRequest{body: body, cold: cold, key: len(p.inputs) - 1}, nil
}

// mapdSchedule builds the plan. The hot set is nbody at seven of the odd
// n in 97..127, s=2; cold writes are Jacobi n=12 with an iteration count never
// used before, so each one misses.
func mapdSchedule(cfg config) (*mapdPlan, []mapdRequest, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	p := &mapdPlan{}
	perm := r.Perm(16)
	hot := make([]mapdRequest, mapdHot)
	for i := range hot {
		req, err := p.add(mapdInput{mapdHotWorkload, map[string]int{"n": 97 + 2*perm[i], "s": 2}, mapdHotNet}, false)
		if err != nil {
			return nil, nil, err
		}
		hot[i] = req
		p.hot = append(p.hot, req.key)
	}
	iters := 100 + r.Intn(100000)
	rounds := roundsFor(cfg, mapdRoundsPerSecond)
	perRound := mapdRoundRequests
	if cfg.tiny {
		perRound = 2 * (mapdHot + mapdColdPerBlock)
	}
	p.rounds = make([][]mapdRequest, rounds)
	for ri := range p.rounds {
		seq := make([]mapdRequest, 0, perRound)
		for len(seq) < perRound {
			// A block: the hot keys in a shuffled order, with the cold
			// writes at random places.
			block := make([]mapdRequest, 0, len(hot)+mapdColdPerBlock)
			for _, k := range r.Perm(len(hot)) {
				block = append(block, hot[k])
			}
			for j := 0; j < mapdColdPerBlock; j++ {
				iters++
				cold, err := p.add(mapdInput{mapdColdWorkload, map[string]int{"n": 12, "iters": iters}, mapdColdNet}, true)
				if err != nil {
					return nil, nil, err
				}
				at := r.Intn(len(block) + 1)
				block = append(block[:at], append([]mapdRequest{cold}, block[at:]...)...)
			}
			seq = append(seq, block...)
		}
		p.rounds[ri] = seq[:perRound]
	}
	return p, hot, nil
}

// mapdReply is the part of a response the benchmark checks.
type mapdReply struct {
	Cache       string                `json:"cache"`
	Fingerprint string                `json:"fingerprint"`
	Metrics     *serve.MetricsSummary `json:"metrics"`
}

// mapdServer builds a server whose cache holds the hot set plus
// mapdColdResident cold entries. A throwaway server measures the entry
// sizes first, through the cache_bytes gauge.
func mapdServer(hot []mapdRequest, cold mapdRequest) (*serve.Server, error) {
	probe := serve.New(serve.Config{Workers: 1, Parallel: 1})
	for _, req := range hot {
		if _, err := post(probe.Handler(), req.body); err != nil {
			return nil, err
		}
	}
	hotBytes := probe.Stats().CacheBytes.Load()
	if _, err := post(probe.Handler(), cold.body); err != nil {
		return nil, err
	}
	coldBytes := probe.Stats().CacheBytes.Load() - hotBytes
	s := serve.New(serve.Config{
		Workers:    1,
		Parallel:   1,
		CacheBytes: hotBytes + mapdColdResident*coldBytes,
	})
	for _, req := range hot { // fill the hot set
		if _, err := post(s.Handler(), req.body); err != nil {
			return nil, err
		}
	}
	for _, req := range hot { // and read it once
		if rep, err := post(s.Handler(), req.body); err != nil || rep.Cache != "hit" {
			return nil, fmt.Errorf("warm-up read: cache %q, %v", rep.Cache, err)
		}
	}
	return s, nil
}

// newPost builds one request and the recorder for its response.
func newPost(body []byte) (*http.Request, *httptest.ResponseRecorder) {
	return httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)), httptest.NewRecorder()
}

// decode checks a recorded response and decodes the part the benchmark
// checks.
func decode(rec *httptest.ResponseRecorder) (mapdReply, error) {
	var rep mapdReply
	if rec.Code != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("decode: %w", err)
	}
	return rep, nil
}

// post sends one request through the handler and returns the decoded
// reply.
func post(h http.Handler, body []byte) (mapdReply, error) {
	req, rec := newPost(body)
	h.ServeHTTP(rec, req)
	return decode(rec)
}

// mapdSample is one answered request, kept for the checks after the
// window.
type mapdSample struct {
	key   int
	cold  bool
	lat   time.Duration
	reply mapdReply
	err   error
}

func runMapd(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var plan *mapdPlan
	var srv *serve.Server
	setups, err := repeatSetup(func() error {
		plan, srv = nil, nil // let the previous repetition's state go
		p, hot, err := mapdSchedule(cfg)
		if err != nil {
			return err
		}
		// The size probe uses a cold request outside the schedule.
		coldProbe, err := (&mapdPlan{}).add(mapdInput{mapdColdWorkload, map[string]int{"n": 12, "iters": 1}, mapdColdNet}, true)
		if err != nil {
			return err
		}
		s, err := mapdServer(hot, coldProbe)
		if err != nil {
			return err
		}
		plan, srv = p, s
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.setups = setups
	o.inputs = len(plan.inputs)
	o.tailGroup = len(plan.rounds[0])
	h := srv.Handler()

	// Only h.ServeHTTP is timed: each round's requests and recorders are
	// built before it and the responses decoded after it.
	before := srv.Stats().Snapshot()
	var samples []mapdSample
	reqs := make([]*http.Request, o.tailGroup)
	recs := make([]*httptest.ResponseRecorder, o.tailGroup)
	o.lat = make([]time.Duration, 0, len(plan.rounds)*o.tailGroup)
	for ri, round := range plan.rounds {
		for i, req := range round {
			reqs[i], recs[i] = newPost(req.body)
		}
		o.round()
		first := len(o.lat)
		o.timed(len(round), func() {
			for i := range round {
				sp := tr.begin("op", -1, int64(ri*len(round)+i))
				t0 := time.Now()
				h.ServeHTTP(recs[i], reqs[i])
				o.lat = append(o.lat, time.Since(t0))
				tr.end(sp)
			}
		})
		for i, req := range round {
			rep, err := decode(recs[i])
			samples = append(samples, mapdSample{key: req.key, cold: req.cold, lat: o.lat[first+i], reply: rep, err: err})
		}
	}
	after := srv.Stats().Snapshot()

	oracle := mapdOracle(plan.inputs)
	var hitLat, missLat []time.Duration
	for _, s := range samples {
		o.attempted++
		want := oracle[s.key]
		switch {
		case s.err != nil:
			o.fail("%s: %v", plan.inputs[s.key], s.err)
		case want.err != nil:
			o.fail("%v: in-process library: %v", plan.inputs[s.key], want.err)
		case s.cold && s.reply.Cache != "miss", !s.cold && s.reply.Cache != "hit":
			o.fail("%v: cache %q, want a %s", plan.inputs[s.key], s.reply.Cache, map[bool]string{true: "miss", false: "hit"}[s.cold])
		case s.reply.Fingerprint != want.fp:
			o.fail("%v: fingerprint differs from the in-process library's", plan.inputs[s.key])
		case s.reply.Metrics == nil || s.reply.Metrics.TotalIPC != want.ipc:
			o.fail("%v: served metrics differ from the in-process library's", plan.inputs[s.key])
		}
		if s.cold {
			missLat = append(missLat, s.lat)
		} else {
			hitLat = append(hitLat, s.lat)
		}
	}
	var rounds, hops, tried float64
	for _, want := range oracle {
		if want.err != nil {
			continue // its requests are counted failed above
		}
		n := float64(len(oracle))
		q := &o.quality
		q.ipcSum += want.ipc
		q.imbalanceMean += want.imbalance / n
		q.contentionSum += float64(want.contention)
		q.dilationSum += float64(want.dilation)
		rounds += float64(want.routeRounds) / n
		hops += float64(want.routeHop) / n
		tried += float64(want.tried) / n
	}

	if tr != nil {
		ops := float64(len(samples))
		probes, err := mapdHitPath(tr, plan)
		if err != nil {
			return nil, err
		}
		busy := func(stage string) float64 {
			a, b := after.Stages[stage], before.Stages[stage]
			return (a.MeanMS*float64(a.Count) - b.MeanMS*float64(b.Count)) / ops
		}
		d := func(f func(stats.Snapshot) int64) float64 { return float64(f(after) - f(before)) }
		hits := d(func(s stats.Snapshot) int64 { return s.CacheHits })
		misses := d(func(s stats.Snapshot) int64 { return s.CacheMisses })
		o.layers = map[string]float64{
			"route.ms":               busy("route"),
			"route.rounds":           rounds,
			"route.hops":             hops,
			"contract.ms":            busy("contract"),
			"embed.ms":               busy("embed"),
			"core.dispatch_self_ms":  busy("dispatch") - busy("contract") - busy("embed"),
			"core.classes_tried":     tried,
			"check.ms":               busy("check"),
			"larcs.parse_ms":         probes["larcs.parse"],
			"larcs.format_ms":        probes["larcs.format"],
			"topology.parse_spec_ms": probes["topology.parse_spec"],
			"check.fingerprint_ms":   probes["check.fingerprint"],
			"larcs.compile_ms":       busy("compile"),
			"serve.map_ms":           busy("map") - busy("dispatch") - busy("route") - busy("check"),
			"serve.metrics_ms":       busy("metrics"),
			"serve.queue_ms":         busy("queue"),
			"serve.hit_ms":           meanMS(hitLat),
			"serve.miss_ms":          meanMS(missLat),
			"serve.hits":             hits,
			"serve.misses":           misses,
			"serve.hit_ratio":        hits / (hits + misses),
			"serve.evictions":        d(func(s stats.Snapshot) int64 { return s.CacheEvictions }),
			"serve.deduped":          d(func(s stats.Snapshot) int64 { return s.Deduped }),
			"serve.rejected":         d(func(s stats.Snapshot) int64 { return s.Rejected }),
			"serve.errors":           d(func(s stats.Snapshot) int64 { return s.Errors }),
		}
		// Every request resolves (parse, format, net spec); hits also
		// re-walk the fingerprint. The stage histograms give the misses'
		// compute time.
		resolve := probes["larcs.parse"] + probes["larcs.format"] + probes["topology.parse_spec"]
		attributed := resolve + probes["check.fingerprint"]*hits/ops +
			busy("compile") + busy("map") + busy("metrics") + busy("queue")
		o.layers["unattributed_ms"] = meanMS(o.lat) - attributed
	}
	return o, nil
}

func (in mapdInput) String() string { return fmt.Sprintf("%s%v@%s", in.workload, in.bindings, in.net) }

// mapdExpected is the in-process library's answer to one request,
// reduced to what the checks and the metrics need.
type mapdExpected struct {
	fp                    string
	ipc, imbalance        float64
	contention, dilation  int // summed over phases
	routeRounds, routeHop int // summed over phases
	tried                 int // dispatcher classes tried, the winning one included
	err                   error
}

// mapdOracle maps every distinct request in-process, the way
// oregami.MapContext does (core.Map with the request's options), with
// one worker per CPU. An input's error stays in its slot, so every
// request it answers counts as failed.
func mapdOracle(inputs []mapdInput) []mapdExpected {
	out := make([]mapdExpected, len(inputs))
	_ = par.ForEach(context.Background(), runtime.GOMAXPROCS(0), len(inputs), func(i int) error {
		res, err := mapInProcess(inputs[i])
		if err == nil {
			out[i], err = expectation(res)
		}
		out[i].err = err
		return nil
	})
	return out
}

// mapInProcess runs one request through the library: the workload's
// default bindings under the request's, LaRCS compile, core.Map with the
// oracle on (a violation is an error; the mapping is the same either way).
func mapInProcess(in mapdInput) (*core.Result, error) {
	w, err := workload.ByName(in.workload)
	if err != nil {
		return nil, err
	}
	bindings := map[string]int{}
	for k, v := range w.Defaults {
		bindings[k] = v
	}
	for k, v := range in.bindings {
		bindings[k] = v
	}
	prog, err := larcs.Parse(w.Source)
	if err != nil {
		return nil, err
	}
	comp, err := prog.Compile(bindings, larcs.Limits{})
	if err != nil {
		return nil, err
	}
	net, err := topology.ParseSpec(in.net)
	if err != nil {
		return nil, err
	}
	return core.Map(core.Request{Compiled: comp, Net: net, Check: true, Parallelism: 1})
}

func expectation(res *core.Result) (mapdExpected, error) {
	rep, err := metrics.ComputeN(res.Mapping, 1)
	if err != nil {
		return mapdExpected{}, err
	}
	e := mapdExpected{fp: check.FingerprintHash(res.Mapping), ipc: rep.TotalIPC, imbalance: rep.Load.Imbalance}
	for _, lm := range rep.Links {
		e.contention += lm.MaxContention
		e.dilation += lm.MaxDilation
	}
	for _, st := range res.RouteStats {
		e.routeRounds += st.Rounds
		e.routeHop += st.TotalHops
	}
	e.tried = classesTried(res)
	return e, nil
}

// classesTried counts the dispatcher classes core.Map tried: the winner
// and each class the Trail names other than it. A class the dispatcher
// gave up on always leaves a "<class>: <error>" entry, and classes after
// the winner never run.
func classesTried(res *core.Result) int {
	failed := map[core.Class]bool{}
	for _, line := range res.Trail {
		name, _, _ := strings.Cut(line, ": ")
		switch c := core.Class(name); c {
		case core.ClassSystolic, core.ClassCanned, core.ClassGroup, core.ClassArbitrary:
			if c != res.Class {
				failed[c] = true
			}
		}
	}
	return 1 + len(failed)
}

// mapdHitPath times, on every hot input, the calls a cache hit makes
// before it answers: parse and format the program, parse the network
// spec, re-walk the cached mapping's fingerprint. It returns the mean
// milliseconds per call, by span name.
func mapdHitPath(tr *tracer, plan *mapdPlan) (map[string]float64, error) {
	const reps = 50
	self := map[string]time.Duration{}
	count := 0
	timed := func(name string, req int64, fn func() error) error {
		sp := tr.begin(name, -1, req)
		t0 := time.Now()
		err := fn()
		self[name] += time.Since(t0)
		tr.end(sp)
		return err
	}
	for _, k := range plan.hot {
		in := plan.inputs[k]
		w, err := workload.ByName(in.workload)
		if err != nil {
			return nil, err
		}
		res, err := mapInProcess(in)
		if err != nil {
			return nil, err
		}
		for i := 0; i < reps; i++ {
			req := int64(-1 - count)
			count++
			var prog *larcs.Program
			if err := timed("larcs.parse", req, func() (err error) { prog, err = larcs.Parse(w.Source); return }); err != nil {
				return nil, err
			}
			_ = timed("larcs.format", req, func() error { _ = larcs.Format(prog); return nil })
			if err := timed("topology.parse_spec", req, func() error { _, err := topology.ParseSpec(in.net); return err }); err != nil {
				return nil, err
			}
			_ = timed("check.fingerprint", req, func() error { _ = check.Fingerprint(res.Mapping); return nil })
		}
	}
	out := map[string]float64{}
	for name, d := range self {
		out[name] = ms(d) / float64(count)
	}
	return out, nil
}
