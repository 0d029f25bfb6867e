package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"oregami/internal/check"
	"oregami/internal/embed"
	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/mapping"
	"oregami/internal/metrics"
	"oregami/internal/multilevel"
	"oregami/internal/topology"
)

// map-multilevel: 5-point stencils of about the same task count but
// different aspect ratios through multilevel.Map (coarsen, coarsest-level
// MWM-Contract, uncoarsen with refinement, NN-Embed) onto the 512-PE
// hierarchy, checked with check.VerifyMapping. MM-Route does not run.

const (
	multilevelNet             = "hier:4,4,4,8"
	multilevelTasks           = 30000 // tasks per stencil, before rounding
	multilevelPerRatio        = 4     // stencils per aspect ratio
	multilevelRoundsPerSecond = 0.1   // passes over the inputs per nominal second
)

// multilevelRatios are the rows:columns aspect ratios, cycled over the
// inputs; each input jitters its row count so seeds differ. Seven classes
// of four inputs, run twice, give 56 operations: the median (28th and
// 29th) and the tail (p82.1, the 46th) fall inside the fourth and sixth
// class by latency, not on the edge between two.
var multilevelRatios = []float64{1, 2, 0.5, 3, 1.0 / 3, 4, 0.25}

// multilevelInputs builds the seeded stencils.
func multilevelInputs(cfg config) ([]*graph.TaskGraph, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	tasks, perRatio := multilevelTasks, multilevelPerRatio
	if cfg.tiny {
		tasks, perRatio = 300, 1 // 300 tasks fit the 512 processors uncoarsened
	}
	in := make([]*graph.TaskGraph, perRatio*len(multilevelRatios))
	for i := range in {
		ratio := multilevelRatios[i%len(multilevelRatios)]
		rows := int(math.Round(math.Sqrt(float64(tasks)*ratio))) + r.Intn(7) - 3
		if rows < 2 {
			rows = 2
		}
		cols := (tasks + rows/2) / rows
		if cols < 2 {
			cols = 2
		}
		g := gen.Grid2D(rows, cols)
		g.WarmCSR()
		in[i] = g
	}
	return in, nil
}

// multilevelQuality is the exact quality of one mapping.
type multilevelQuality struct {
	ipc, imbalance   float64
	portContention   int // max cross-processor messages sent by one PE
	maxHops          int // from embed.WeightedDilation
	levels, coarsest int
	moves            int
}

// mapMultilevel is one operation: map, run the oracle, measure quality.
func mapMultilevel(tr *tracer, req int64, g *graph.TaskGraph, net *topology.Network) (*mapping.Mapping, multilevelQuality, error) {
	var q multilevelQuality
	op := tr.begin("op", -1, req)
	defer tr.end(op)
	sp := tr.begin("multilevel.map", op, req)
	m, st, err := multilevel.Map(g, net, multilevel.Options{Parallelism: 1})
	tr.end(sp)
	if err != nil {
		return nil, q, err
	}
	sp = tr.begin("check", op, req)
	vs := check.VerifyMapping(g, net, m)
	tr.end(sp)
	if len(vs) > 0 {
		return nil, q, fmt.Errorf("oracle: %d violations, first: %v", len(vs), vs[0])
	}
	sp = tr.begin("metrics", op, req)
	defer tr.end(sp)
	rep, err := metrics.ComputeN(m, 1)
	if err != nil {
		return nil, q, err
	}
	_, q.maxHops = embed.WeightedDilation(m.ClusterGraph(), net, m.Place)
	q.portContention = portContention(m)
	q.ipc, q.imbalance = rep.TotalIPC, rep.Load.Imbalance
	q.levels, q.coarsest, q.moves = st.Levels, st.CoarsestTasks, st.RefineMoves
	return m, q, nil
}

// portContention is, summed over phases, the largest number of
// cross-processor messages one processor sends: the contention at a PE's
// network port. It stands in for link contention on an unrouted mapping.
func portContention(m *mapping.Mapping) int {
	sum := 0
	sent := make([]int, m.Net.N)
	for _, p := range m.Graph.Comm {
		for i := range sent {
			sent[i] = 0
		}
		max := 0
		for _, e := range p.Edges {
			a, b := m.ProcOf(e.From), m.ProcOf(e.To)
			if a != b {
				sent[a]++
				if sent[a] > max {
					max = sent[a]
				}
			}
		}
		sum += max
	}
	return sum
}

func runMultilevel(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var in []*graph.TaskGraph
	var net *topology.Network
	var err error
	o.setups, err = repeatSetup(func() error {
		in = nil // let the previous repetition's stencils go
		if net, err = topology.ParseSpec(multilevelNet); err != nil {
			return err
		}
		net.WarmDistances()
		if in, err = multilevelInputs(cfg); err != nil {
			return err
		}
		if _, _, err := mapMultilevel(nil, -1, in[0], net); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	o.inputs = len(in)
	fps := make([]string, len(in))
	qs := make([]multilevelQuality, len(in))
	var probe time.Duration // multilevel.Contract alone, traced runs only
	rounds := roundsFor(cfg, multilevelRoundsPerSecond)
	for round := 0; round < rounds; round++ {
		o.round()
		for i, g := range in {
			req := int64(round*len(in) + i)
			o.attempted++
			var m *mapping.Mapping
			var q multilevelQuality
			var err error
			o.op(func() { m, q, err = mapMultilevel(tr, req, g, net) })
			if err != nil {
				o.fail("stencil %s: %v", g.Name, err)
				continue
			}
			if tr != nil {
				// Contract alone, outside the window: Map minus this is
				// the embedding's share.
				sp := tr.begin("multilevel.contract", -1, req)
				t0 := time.Now()
				_, _, err := multilevel.Contract(g, multilevel.Options{Processors: net.NumLive(), Parallelism: 1})
				probe += time.Since(t0)
				tr.end(sp)
				if err != nil {
					o.fail("stencil %s: contract: %v", g.Name, err)
				}
			}
			fp := check.FingerprintHash(m)
			if round == 0 {
				fps[i], qs[i] = fp, q
			} else if fp != fps[i] || q != qs[i] {
				o.fail("stencil %s: result changed between repetitions", g.Name)
			}
		}
	}

	var levels, coarsest, moves float64
	for _, q := range qs {
		o.quality.ipcSum += q.ipc
		o.quality.contentionSum += float64(q.portContention)
		o.quality.dilationSum += float64(q.maxHops)
		o.quality.imbalanceMean += q.imbalance / float64(len(qs))
		levels += float64(q.levels) / float64(len(qs))
		coarsest += float64(q.coarsest) / float64(len(qs))
		moves += float64(q.moves) / float64(len(qs))
	}
	if tr != nil {
		self := tr.selfTimes()
		ops := float64(len(o.lat))
		mapMS := ms(self["multilevel.map"]) / ops
		o.layers = map[string]float64{
			"multilevel.contract_ms":    ms(probe) / ops,
			"multilevel.embed_ms":       mapMS - ms(probe)/ops,
			"multilevel.levels":         levels,
			"multilevel.coarsest_tasks": coarsest,
			"multilevel.refine_moves":   moves,
			"metrics.ms":                ms(self["metrics"]) / ops,
			"check.ms":                  ms(self["check"]) / ops,
		}
		o.layers["unattributed_ms"] = meanMS(o.lat) - mapMS - o.layers["metrics.ms"] - o.layers["check.ms"]
	}
	return o, nil
}
