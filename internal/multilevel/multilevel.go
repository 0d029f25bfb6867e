// Package multilevel scales MAPPER's contraction to million-task
// graphs with the classic multilevel recipe (Schulz & Woydt; Predari et
// al.; ROADMAP item 2): repeatedly heavy-edge-match and contract the
// CSR graph until it is small, run the paper's exact MWM-Contract
// pipeline on the coarsest graph, then walk the hierarchy back up,
// projecting the partition and locally refining it with task moves and
// swaps judged by exact METRICS deltas. One matching round (the
// paper's Section 4.3) caps practical size around thousands of tasks;
// the O(|E|)-per-level hierarchy handles n=1e6 in seconds.
package multilevel

import (
	"context"
	"fmt"

	"oregami/internal/contract"
	"oregami/internal/embed"
	"oregami/internal/graph"
	"oregami/internal/mapping"
	"oregami/internal/topology"
)

// Options parameterizes the multilevel engine.
type Options struct {
	// Processors is the cluster budget (the live processor count).
	Processors int
	// MaxTasksPerProc is the load-balance target B (0 = MWM-Contract's
	// default, 2*ceil(n/(2P))). Multilevel enforces it on coarsening
	// (no coarse vertex aggregates more than ceil(B/2) tasks) and on
	// refinement (no move grows a cluster past B); the coarsest-level
	// MWM-Contract round balances coarse vertices, not fine tasks, so B
	// is a strongly-held target rather than the hard guarantee the
	// direct pipeline gives. docs/MULTILEVEL.md spells this out.
	MaxTasksPerProc int
	// CoarsenTo stops coarsening once a level has at most this many
	// vertices (0 = max(64, 2*Processors), small enough for the exact
	// blossom matching inside MWM-Contract, large enough that it has
	// pairs to choose from).
	CoarsenTo int
	// MaxLevels caps the hierarchy depth (0 = 48; a graph that halves
	// every level is exhausted long before that).
	MaxLevels int
	// RefinePasses is the number of refinement passes per uncoarsening
	// step (0 = 2). Each pass is a move sweep and a swap sweep, each
	// visiting every vertex once in index order.
	RefinePasses int
	// Ctx carries cooperative cancellation (nil = background).
	Ctx context.Context
	// Parallelism is the worker budget threaded into the coarsest-level
	// MWM-Contract round. Coarsening and refinement are sequential by
	// construction, so the result is bit-identical at every setting —
	// the same determinism contract as the rest of the pipeline.
	Parallelism int
}

func (o Options) coarsenTarget() int {
	if o.CoarsenTo > 0 {
		return o.CoarsenTo
	}
	t := 2 * o.Processors
	if t < 64 {
		t = 64
	}
	return t
}

func (o Options) maxLevels() int {
	if o.MaxLevels > 0 {
		return o.MaxLevels
	}
	return 48
}

func (o Options) refinePasses() int {
	if o.RefinePasses > 0 {
		return o.RefinePasses
	}
	return 2
}

// bound returns the fine-task load target B, mirroring MWM-Contract's
// default.
func (o Options) bound(n int) int {
	if o.MaxTasksPerProc > 0 {
		return o.MaxTasksPerProc
	}
	perProc := (n + 2*o.Processors - 1) / (2 * o.Processors)
	return 2 * perProc
}

// maxVertexWeight caps how many fine tasks a coarse vertex may
// aggregate: ceil(B/2), so two coarse vertices can still pair without
// blowing the load target.
func (o Options) maxVertexWeight(n int) int32 {
	b := o.bound(n)
	return int32((b + 1) / 2)
}

// Stats reports what the hierarchy did, for trails and benchmarks.
type Stats struct {
	// Levels is the number of hierarchy rungs including the fine graph.
	Levels int
	// LevelSizes[i] is the vertex count of level i (LevelSizes[0] ==
	// NumTasks).
	LevelSizes []int
	// CoarsestTasks is the vertex count MWM-Contract actually ran on.
	CoarsestTasks int
	// Clusters is the final cluster count.
	Clusters int
	// RefineMoves counts the moves plus swaps refinement applied across
	// all uncoarsening steps.
	RefineMoves int
}

// Contract computes a dense partition of g's tasks into at most
// opt.Processors clusters by coarsen -> MWM-Contract -> uncoarsen with
// refinement. It is the drop-in multilevel counterpart of
// contract.MWMContract.
func Contract(g *graph.TaskGraph, opt Options) ([]int, *Stats, error) {
	if opt.Processors < 1 {
		return nil, nil, fmt.Errorf("multilevel: need at least one processor, got %d", opt.Processors)
	}
	if g.NumTasks == 0 {
		return nil, nil, fmt.Errorf("multilevel: empty task graph")
	}
	levels, err := coarsen(g, opt)
	if err != nil {
		return nil, nil, err
	}
	st := &Stats{Levels: len(levels)}
	for _, lv := range levels {
		st.LevelSizes = append(st.LevelSizes, lv.n)
	}
	coarsest := levels[len(levels)-1]
	st.CoarsestTasks = coarsest.n

	cpart, err := initialPartition(coarsest, opt)
	if err != nil {
		return nil, nil, err
	}
	part, moves, err := uncoarsen(levels, cpart, opt)
	if err != nil {
		return nil, nil, err
	}
	st.RefineMoves = moves
	st.Clusters = countClusters(part)
	return part, st, nil
}

// initialPartition maps the coarsest level with the existing exact
// pipeline: the level becomes a one-phase task graph and MWM-Contract
// (greedy merge + blossom matching) partitions it. When the level
// already fits the processor budget the identity partition is used —
// refinement and the embedder still see every coarse vertex separately.
func initialPartition(coarsest *level, opt Options) ([]int32, error) {
	if coarsest.n <= opt.Processors {
		part := make([]int32, coarsest.n)
		for i := range part {
			part[i] = int32(i)
		}
		return part, nil
	}
	cg := levelGraph("coarsest", coarsest)
	p, err := contract.MWMContract(cg, contract.Options{
		Processors:  opt.Processors,
		Ctx:         opt.Ctx,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("multilevel: coarsest-level contraction: %w", err)
	}
	part := make([]int32, len(p))
	for i, c := range p {
		part[i] = int32(c)
	}
	return part, nil
}

// levelGraph wraps a level's adjacency as a one-phase TaskGraph (each
// undirected pair emitted once), the form MWM-Contract and NN-Embed
// consume.
func levelGraph(name string, lv *level) *graph.TaskGraph {
	cg := graph.NewCompact(name, lv.n)
	p := cg.AddCommPhase("contracted")
	p.Edges = make([]graph.Edge, 0, len(lv.adj)/2)
	for v := 0; v < lv.n; v++ {
		for i := lv.off[v]; i < lv.off[v+1]; i++ {
			if u := lv.adj[i]; int(u) > v {
				p.Edges = append(p.Edges, graph.Edge{From: v, To: int(u), Weight: lv.w[i]})
			}
		}
	}
	cg.AddExecPhase("e0", 1)
	return cg
}

// countClusters returns 1 + max(part), the dense cluster count.
func countClusters(part []int) int {
	max := -1
	for _, c := range part {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// Map runs the full multilevel pipeline: Contract, then NN-Embed of
// the refined cluster graph onto the network. The mapping's Routes are
// left empty for the caller (core's dispatcher runs MM-Route; the
// scale harness skips routing and verifies with check.VerifyMapping,
// which treats unrouted phases as not-yet-routed).
func Map(g *graph.TaskGraph, net *topology.Network, opt Options) (*mapping.Mapping, *Stats, error) {
	if net.NumLive() == 0 {
		return nil, nil, fmt.Errorf("multilevel: no live processors in %s", net.Name)
	}
	if opt.Processors == 0 {
		opt.Processors = net.NumLive()
	}
	if opt.Processors > net.NumLive() {
		return nil, nil, fmt.Errorf("multilevel: %d clusters exceed %d live processors", opt.Processors, net.NumLive())
	}
	part, st, err := Contract(g, opt)
	if err != nil {
		return nil, nil, err
	}
	m := mapping.New(g, net)
	m.Part = part
	cg := clusterGraph(g, part, st.Clusters)
	place, err := embed.NNEmbedCtx(ctxOf(opt.Ctx), cg, net)
	if err != nil {
		return nil, nil, err
	}
	m.Place = place
	m.Method = "multilevel+nn-embed"
	return m, st, nil
}

// clusterGraph builds the cluster adjacency of the refined partition
// flat from the fine CSR: a dense k*k accumulation matrix (k <= the
// processor count, so a few MB at most) visited in row order keeps the
// float sums deterministic without a map in the 1e6-edge scan.
func clusterGraph(g *graph.TaskGraph, part []int, k int) *graph.TaskGraph {
	c := g.CSR()
	acc := make([]float64, k*k)
	for v := 0; v < c.N; v++ {
		cv := part[v]
		for i := c.Off[v]; i < c.Off[v+1]; i++ {
			u := c.Adj[i]
			if int(u) <= v {
				continue
			}
			cu := part[u]
			if cu == cv {
				continue
			}
			a, b := cv, cu
			if a > b {
				a, b = b, a
			}
			acc[a*k+b] += c.W[i]
		}
	}
	cg := graph.NewCompact("clusters", k)
	p := cg.AddCommPhase("contracted")
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if w := acc[a*k+b]; w > 0 {
				cg.AddEdge(p, a, b, w)
			}
		}
	}
	cg.AddExecPhase("e0", 1)
	return cg
}

func ctxOf(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
