package main

import (
	"fmt"
	"math/rand"
	"time"

	"oregami/internal/check"
	"oregami/internal/core"
	"oregami/internal/gen"
	"oregami/internal/larcs"
	"oregami/internal/metrics"
	"oregami/internal/topology"
)

// map-arbitrary: seeded random task graphs of one size class through
// core.Map's arbitrary class with the oracle on, then METRICS. MWM-
// Contract, NN-Embed and MM-Route do nearly all the work; the serve,
// LaRCS and multilevel layers do none.

// arbitraryNets are the targets, 32 processors each; input i goes to
// arbitraryNets[i%3], so each network gets a third of the inputs.
var arbitraryNets = []string{"hypercube:5", "mesh:8,4", "hier:4,8"}

const (
	arbitraryInputs          = 48  // distinct graphs, 16 per network
	arbitraryRoundsPerSecond = 0.5 // passes over the inputs per nominal second
)

// arbitraryInput is one graph bound to one network.
type arbitraryInput struct {
	comp *larcs.Compiled
	net  *topology.Network
}

// arbitraryGraphs builds the seeded inputs, all of one size class:
// 112 tasks, 6 communication phases, fixed edge density.
func arbitraryGraphs(cfg config) ([]arbitraryInput, error) {
	nets := make([]*topology.Network, len(arbitraryNets))
	for i, spec := range arbitraryNets {
		net, err := topology.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		net.WarmDistances()
		nets[i] = net
	}
	r := rand.New(rand.NewSource(cfg.seed))
	n := arbitraryInputs
	if cfg.tiny {
		n = 2 * len(nets)
	}
	in := make([]arbitraryInput, n)
	for i := range in {
		g := gen.TaskGraph(r, gen.GraphSize{
			Tasks:     112,
			Phases:    6,
			Density:   0.03,
			MaxWeight: 5,
		})
		g.WarmCSR()
		in[i] = arbitraryInput{
			comp: &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g},
			net:  nets[i%len(nets)],
		}
	}
	return in, nil
}

// arbitraryResult is what one operation produced.
type arbitraryResult struct {
	res *core.Result
	rep *metrics.Report
}

// mapArbitrary is one operation: the checked pipeline, then METRICS.
func mapArbitrary(tr *tracer, req int64, in arbitraryInput) (arbitraryResult, error) {
	op := tr.begin("op", -1, req)
	defer tr.end(op)
	sp := tr.begin("core.map", op, req)
	r := core.Request{
		Compiled:    in.comp,
		Net:         in.net,
		Force:       core.ClassArbitrary,
		Check:       true,
		Parallelism: 1,
	}
	if tr != nil {
		r.Observe = func(stage string, d time.Duration) { tr.completed(stage, d, sp, req) }
	}
	res, err := core.Map(r)
	tr.end(sp)
	if err != nil {
		return arbitraryResult{}, err
	}
	sp = tr.begin("metrics", op, req)
	rep, err := metrics.ComputeN(res.Mapping, 1)
	tr.end(sp)
	if err != nil {
		return arbitraryResult{}, err
	}
	return arbitraryResult{res, rep}, nil
}

func runArbitrary(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var in []arbitraryInput
	var err error
	o.setups, err = repeatSetup(func() error {
		in = nil // let the previous repetition's graphs go
		if in, err = arbitraryGraphs(cfg); err != nil {
			return err
		}
		// Warm up: one operation per network.
		for i := 0; i < len(arbitraryNets) && i < len(in); i++ {
			if _, err := mapArbitrary(nil, -1, in[i]); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The tail is taken per two rounds (p89.6 of 96 operations, inside
	// the slowest network's third) and the median over those reported:
	// over all 480 operations it is set by a handful of stalls of the
	// shared machine.
	o.tailGroup = 2 * len(in)
	o.inputs = len(in)
	fps := make([]string, len(in))
	var routeRounds, hops int
	rounds := roundsFor(cfg, arbitraryRoundsPerSecond)
	for round := 0; round < rounds; round++ {
		o.round()
		for i, x := range in {
			req := int64(round*len(in) + i)
			o.attempted++
			var out arbitraryResult
			var err error
			o.op(func() { out, err = mapArbitrary(tr, req, x) })
			if err != nil {
				o.fail("input %d: %v", i, err)
				continue
			}
			fp := check.FingerprintHash(out.res.Mapping)
			if round > 0 {
				if fp != fps[i] {
					o.fail("input %d: fingerprint changed between repetitions", i)
				}
				continue
			}
			fps[i] = fp
			q := &o.quality
			q.ipcSum += out.rep.TotalIPC
			q.imbalanceMean += out.rep.Load.Imbalance / float64(len(in))
			for _, lm := range out.rep.Links {
				q.contentionSum += float64(lm.MaxContention)
				q.dilationSum += float64(lm.MaxDilation)
			}
			for _, st := range out.res.RouteStats {
				routeRounds += st.Rounds
				hops += st.TotalHops
			}
		}
	}

	if tr != nil {
		self := tr.selfTimes()
		ops := float64(len(o.lat))
		per := func(name string) float64 { return ms(self[name]) / ops }
		o.layers = map[string]float64{
			"route.ms":              per("route"),
			"route.rounds":          float64(routeRounds) / float64(len(in)),
			"route.hops":            float64(hops) / float64(len(in)),
			"contract.ms":           per("contract"),
			"embed.ms":              per("embed"),
			"core.dispatch_self_ms": per("dispatch"),
			"core.classes_tried":    1, // the class is forced
			"metrics.ms":            per("metrics"),
			"check.ms":              per("check"),
		}
		var attributed float64
		for _, name := range []string{"route.ms", "contract.ms", "embed.ms", "core.dispatch_self_ms", "metrics.ms", "check.ms"} {
			attributed += o.layers[name]
		}
		o.layers["unattributed_ms"] = meanMS(o.lat) - attributed
	}
	return o, nil
}
