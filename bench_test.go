package oregami

// Benchmark harness: one benchmark per paper figure/claim (see the
// per-experiment index in DESIGN.md) plus the ablations called out
// there. cmd/experiments prints the corresponding tables; these
// benchmarks measure the cost of regenerating them.

import (
	"fmt"
	"testing"

	"runtime"

	"oregami/internal/aggregate"
	"oregami/internal/canned"
	"oregami/internal/contract"
	"oregami/internal/core"
	"oregami/internal/embed"
	"oregami/internal/gen"
	"oregami/internal/graph"
	"oregami/internal/group"
	"oregami/internal/larcs"
	"oregami/internal/matching"
	"oregami/internal/perm"
	"oregami/internal/route"
	"oregami/internal/sched"
	"oregami/internal/sim"
	"oregami/internal/spawn"
	"oregami/internal/topology"
	"oregami/internal/workload"
)

// --- F1: full pipeline --------------------------------------------------

func BenchmarkPipelineNBody(b *testing.B) {
	w, _ := workload.ByName("nbody")
	c, err := w.Compile(map[string]int{"n": 15, "s": 2})
	if err != nil {
		b.Fatal(err)
	}
	net := topology.Hypercube(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Map(core.Request{Compiled: c, Net: net}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2: LaRCS compilation ----------------------------------------------

func BenchmarkLaRCSCompileNBody(b *testing.B) {
	w, _ := workload.ByName("nbody")
	prog, err := larcs.Parse(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{15, 101, 1001} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prog.Compile(map[string]int{"n": n, "s": 2}, larcs.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLaRCSParse(b *testing.B) {
	w, _ := workload.ByName("sor")
	for i := 0; i < b.N; i++ {
		if _, err := larcs.Parse(w.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F3: dispatcher -----------------------------------------------------

func BenchmarkDispatch(b *testing.B) {
	cases := []struct {
		name      string
		workload  string
		overrides map[string]int
		net       *topology.Network
	}{
		{"canned-jacobi", "jacobi", map[string]int{"n": 4}, topology.Mesh(4, 4)},
		{"systolic-mm", "systolicmm", map[string]int{"n": 4}, topology.Linear(4)},
		{"group-broadcast", "broadcast8", nil, topology.Hypercube(2)},
		{"arbitrary-nbody", "nbody", map[string]int{"n": 15, "s": 1}, topology.Hypercube(3)},
	}
	for _, tc := range cases {
		w, _ := workload.ByName(tc.workload)
		c, err := w.Compile(tc.overrides)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Map(core.Request{Compiled: c, Net: tc.net}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F4 / C2: group theory ----------------------------------------------

func BenchmarkGroupContract(b *testing.B) {
	w, _ := workload.ByName("broadcast8")
	c, _ := w.Compile(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := contract.GroupContract(c.Graph, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupClosure(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		gens := make([]perm.Perm, 0, 3)
		for _, shift := range []int{1, 2, n / 2} {
			img := make([]int, n)
			for i := range img {
				img[i] = (i + shift) % n
			}
			p, _ := perm.FromImage(img)
			gens = append(gens, p)
		}
		b.Run(fmt.Sprintf("X=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := group.Generate(gens, n); !ok {
					b.Fatal("generation aborted")
				}
			}
		})
	}
}

// --- F5 / C3: contraction -----------------------------------------------

func BenchmarkMWMContract(b *testing.B) {
	b.Run("fig5", func(b *testing.B) {
		g := workload.Fig5Graph()
		for i := 0; i < b.N; i++ {
			if _, err := contract.MWMContract(g, contract.Options{Processors: 3, MaxTasksPerProc: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{32, 64, 128} {
		g := workload.RandomTaskGraph(n, 0.3, 20, int64(n))
		p := n / 4
		b.Run(fmt.Sprintf("random-n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := contract.MWMContract(g, contract.Options{Processors: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkContractBaselines(b *testing.B) {
	g := workload.RandomTaskGraph(48, 0.3, 20, 7)
	b.Run("mwm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := contract.MWMContract(g, contract.Options{Processors: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := contract.GreedyOnly(g, 8, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			contract.Random(g, 8, int64(i))
		}
	})
}

func BenchmarkContractAblation(b *testing.B) {
	g := workload.RandomTaskGraph(64, 0.3, 20, 11)
	for _, tc := range []struct {
		name string
		opt  contract.Options
	}{
		{"full", contract.Options{Processors: 8}},
		{"skip-greedy", contract.Options{Processors: 8, SkipGreedy: true}},
		{"skip-matching", contract.Options{Processors: 8, SkipMatching: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := contract.MWMContract(g, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBlossomMatching(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		var edges []matching.WEdge
		rng := int64(n)
		next := func() int { rng = rng*6364136223846793005 + 1442695040888963407; return int(uint64(rng) >> 40) }
		for a := 0; a < n; a++ {
			for c := a + 1; c < n; c++ {
				if next()%4 == 0 {
					edges = append(edges, matching.WEdge{I: a, J: c, Weight: float64(1 + next()%50)})
				}
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.MaxWeightMatching(n, edges, false)
			}
		})
	}
}

// --- F6 / C4: routing ---------------------------------------------------

func BenchmarkMMRoute(b *testing.B) {
	b.Run("fig6", func(b *testing.B) {
		net := topology.Hypercube(3)
		pairs := workload.Fig6Pairs()
		for i := 0; i < b.N; i++ {
			route.MMRoute(net, pairs, route.Options{})
		}
	})
	for _, d := range []int{4, 6, 8} {
		net := topology.Hypercube(d)
		var pairs [][2]int
		for v := 0; v < net.N; v++ {
			pairs = append(pairs, [2]int{v, (v + net.N/2 + 1) % net.N})
		}
		b.Run(fmt.Sprintf("perm-hypercube-%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				route.MMRoute(net, pairs, route.Options{})
			}
		})
	}
}

func BenchmarkRouteBaselines(b *testing.B) {
	net := topology.Hypercube(6)
	var pairs [][2]int
	for v := 0; v < net.N; v++ {
		pairs = append(pairs, [2]int{v, (v*37 + 11) % net.N})
	}
	b.Run("mm-route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			route.MMRoute(net, pairs, route.Options{})
		}
	})
	b.Run("ecube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			route.ECube(net, pairs)
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			route.RandomShortest(net, pairs, int64(i))
		}
	})
}

func BenchmarkRouteMatchingAblation(b *testing.B) {
	net := topology.Hypercube(5)
	var pairs [][2]int
	for v := 0; v < net.N; v++ {
		pairs = append(pairs, [2]int{v, net.N - 1 - v})
	}
	for _, tc := range []struct {
		name string
		opt  route.Options
	}{
		{"greedy-maximal", route.Options{}},
		{"hopcroft-karp", route.Options{UseMaximum: true}},
		{"no-refine", route.Options{NoRefine: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				route.MMRoute(net, pairs, tc.opt)
			}
		})
	}
}

// --- C1: binomial tree embedding ----------------------------------------

func BenchmarkBinomialMeshEmbed(b *testing.B) {
	for _, k := range []int{8, 10, 12, 14} {
		rows := 1 << uint((k+1)/2)
		cols := 1 << uint(k/2)
		net := topology.Mesh(rows, cols)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := canned.BinomialIntoMesh(k, net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C5: description compactness ----------------------------------------

func BenchmarkDescriptionVsGraph(b *testing.B) {
	w, _ := workload.ByName("nbody")
	prog, err := larcs.Parse(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("description", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog.DescriptionSize()
		}
	})
	b.Run("expand-n=1001", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Compile(map[string]int{"n": 1001, "s": 1}, larcs.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Simulator ------------------------------------------------------------

func BenchmarkSimulateNBody(b *testing.B) {
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(map[string]int{"n": 15, "s": 2})
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Hypercube(3)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Makespan(res.Mapping, c.Phases, sim.Config{}, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Embedding ------------------------------------------------------------

func BenchmarkNNEmbed(b *testing.B) {
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(map[string]int{"n": 63, "s": 1})
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Hypercube(5)})
	if err != nil {
		b.Fatal(err)
	}
	cg := res.Mapping.ClusterGraph()
	net := topology.Hypercube(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embed.NNEmbed(cg, net); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 6 extensions -------------------------------------------------

func BenchmarkSynchronySchedule(b *testing.B) {
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(map[string]int{"n": 63, "s": 1})
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Hypercube(4)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Build(res.Mapping); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregationTree(b *testing.B) {
	g := graphFanIn(64)
	res, err := core.MapGraph(g, topology.Hypercube(6), core.ClassArbitrary)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.Replace(res.Mapping, "collect"); err != nil {
			b.Fatal(err)
		}
	}
}

func graphFanIn(n int) *graph.TaskGraph {
	g := graph.New("gather", n)
	p := g.AddCommPhase("collect")
	for i := 1; i < n; i++ {
		g.AddEdge(p, i, 0, 1)
	}
	return g
}

func BenchmarkSpawning(b *testing.B) {
	net := topology.Hypercube(6)
	for i := 0; i < b.N; i++ {
		sp, err := spawn.NewBinaryTree(6)
		if err != nil {
			b.Fatal(err)
		}
		im, err := spawn.NewIncrementalMapping(sp, net)
		if err != nil {
			b.Fatal(err)
		}
		im.RunAll()
	}
}

// --- Torus canned embedding ------------------------------------------------

func BenchmarkTorusDetectAndEmbed(b *testing.B) {
	w, _ := workload.ByName("matmul")
	c, _ := w.Compile(map[string]int{"n": 8})
	net := topology.Hypercube(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Map(core.Request{Compiled: c, Net: net}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Refinement ablations ---------------------------------------------------

func BenchmarkKLRefine(b *testing.B) {
	g := workload.RandomTaskGraph(64, 0.3, 20, 13)
	c := g.CSR()
	base := make([]int32, g.NumTasks)
	vw := make([]int32, g.NumTasks)
	for t, cl := range contract.Random(g, 8, 5) {
		base[t], vw[t] = int32(cl), 1
	}
	part := make([]int32, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(part, base)
		contract.Refine(c.Off, c.Adj, c.W, vw, part, 8, 8)
	}
}

func BenchmarkSwapRefine(b *testing.B) {
	g := workload.RandomTaskGraph(16, 0.5, 20, 19)
	net := topology.Hypercube(4)
	base, err := embed.Random(16, net, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place := append([]int(nil), base...)
		embed.SwapRefine(g, net, place, 8)
	}
}

func BenchmarkStoneAssignment(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		g := workload.RandomTaskGraph(n, 0.3, 20, int64(n+3))
		execA := make([]float64, n)
		execB := make([]float64, n)
		for i := range execA {
			execA[i] = float64(i % 7)
			execB[i] = float64((i * 3) % 11)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := contract.TwoProcStone(g, execA, execB); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMapWithRefine(b *testing.B) {
	g := workload.RandomTaskGraph(48, 0.3, 15, 21)
	comp := &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}
	net := topology.Hypercube(3)
	for _, tc := range []struct {
		name   string
		refine bool
	}{{"plain", false}, {"refine", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Map(core.Request{Compiled: comp, Net: net, Force: core.ClassArbitrary, Refine: tc.refine}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimSwitchingModels(b *testing.B) {
	w, _ := workload.ByName("nbody")
	c, _ := w.Compile(map[string]int{"n": 31, "s": 2})
	res, err := core.Map(core.Request{Compiled: c, Net: topology.Hypercube(4)})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  sim.Config
	}{
		{"store-and-forward", sim.Config{}},
		{"cut-through", sim.Config{CutThrough: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Makespan(res.Mapping, c.Phases, tc.cfg, 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel MAPPER hot paths ------------------------------------------

// BenchmarkParallelPipeline measures the full pipeline on a large
// generated workload at increasing Parallelism budgets. The workers=1
// sub-benchmark is the sequential baseline; the others report a
// "speedup" metric against it (>= ~2x at 4 workers on a 4+ core
// machine; ~1x when GOMAXPROCS=1 — the budget changes wall-clock only,
// never the mapping). `make bench-parallel` archives the results as
// BENCH_parallel.json.
func BenchmarkParallelPipeline(b *testing.B) {
	g := gen.TaskGraph(gen.Rand(7), gen.GraphSize{Tasks: 160, Phases: 8, Density: 0.15, MaxWeight: 8})
	c := &larcs.Compiled{Program: &larcs.Program{Name: g.Name}, Graph: g}
	net := topology.Hypercube(4)
	if _, err := core.Map(core.Request{Compiled: c, Net: net, Check: true, Parallelism: 0}); err != nil {
		b.Fatal(err)
	}
	workers := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		workers = append(workers, g)
	}
	baseline := 0.0
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Map(core.Request{Compiled: c, Net: net, Parallelism: w}); err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if w == 1 {
				baseline = nsPerOp
			} else if baseline > 0 {
				b.ReportMetric(baseline/nsPerOp, "speedup")
			}
		})
	}
}
