// Package contract implements OREGAMI's contraction algorithms: the
// group-theoretic contraction for node-symmetric task graphs
// (Section 4.2.2) and Algorithm MWM-Contract for arbitrary task graphs
// (Section 4.3), plus the greedy-only and random baselines used by the
// evaluation harness.
package contract

//oregami:hot

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"oregami/internal/graph"
	"oregami/internal/matching"
	"oregami/internal/par"
)

// Options parameterizes MWM-Contract.
type Options struct {
	// Processors is the number of clusters allowed (|A| in the paper).
	Processors int
	// MaxTasksPerProc is the load-balancing constraint B: no cluster may
	// exceed B tasks. Zero means the tightest feasible even bound,
	// 2 * ceil(V / (2P)).
	MaxTasksPerProc int
	// SkipGreedy disables the greedy pre-merge stage (ablation). The
	// matching stage then runs directly on individual tasks and the
	// result may use more than Processors clusters if V > 2P.
	SkipGreedy bool
	// SkipMatching disables the maximum-weight-matching stage
	// (ablation): the greedy heuristic runs all the way down to
	// Processors clusters by itself.
	SkipMatching bool
	// Ctx carries cooperative cancellation into the O(E V log V) merge
	// and repair loops (nil means no cancellation).
	Ctx context.Context
	// Parallelism bounds the worker count for candidate-gain scoring:
	// the per-phase collapsed-weight accumulation and the weight-ordered
	// candidate sorts run on up to this many goroutines (0 = GOMAXPROCS,
	// 1 = sequential). The partition produced is bit-identical at every
	// setting (see internal/par).
	Parallelism int
}

func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

func (o Options) bound(numTasks int) (int, error) {
	b := o.MaxTasksPerProc
	if b == 0 {
		perProc := (numTasks + 2*o.Processors - 1) / (2 * o.Processors)
		b = 2 * perProc
	}
	if numTasks > o.Processors*b {
		return 0, fmt.Errorf("contract: %d tasks cannot fit %d processors with B=%d",
			numTasks, o.Processors, b)
	}
	return b, nil
}

// MWMContract partitions the tasks of g into at most opt.Processors
// clusters of at most B tasks while minimizing total interprocessor
// communication, per Section 4.3 of the paper:
//
//  1. A greedy heuristic examines collapsed edges in non-increasing
//     weight order, merging clusters while no cluster exceeds B/2 tasks,
//     until at most 2P clusters remain.
//  2. A maximum-weight matching over the cluster graph pairs clusters
//     optimally; matched pairs merge.
//
// It returns part with part[t] = cluster of task t.
func MWMContract(g *graph.TaskGraph, opt Options) ([]int, error) {
	ctx := opt.ctx()
	workers := par.Resolve(opt.Parallelism)
	if opt.Processors < 1 {
		return nil, fmt.Errorf("contract: need at least one processor")
	}
	v := g.NumTasks
	if v == 0 {
		return nil, fmt.Errorf("contract: empty task graph")
	}
	b, err := opt.bound(v)
	if err != nil {
		return nil, err
	}
	// The collapsed static graph is scored once and reused by every
	// stage (the sequential version recomputed it per stage).
	entries := g.CollapsedEntries()
	u := newUnionFind(v)

	if !opt.SkipGreedy && v > 2*opt.Processors {
		if err := greedyMerge(ctx, workers, entries, u, 2*opt.Processors, b/2); err != nil {
			return nil, err
		}
		if u.count > 2*opt.Processors {
			// The edge list ran dry (or pairwise merges dead-ended);
			// repair at task level. A partition into 2P clusters of
			// B/2 always exists since V <= P*B.
			part, err := repairPartition(ctx, entries, u.partition(), 2*opt.Processors, b/2)
			if err != nil {
				return nil, err
			}
			u = unionFindFromPartition(part)
		}
	}
	if opt.SkipMatching {
		// Ablation: greedy all the way to P clusters, allowing full B.
		if err := greedyMerge(ctx, workers, entries, u, opt.Processors, b); err != nil {
			return nil, err
		}
		if u.count > opt.Processors {
			return repairPartition(ctx, entries, u.partition(), opt.Processors, b)
		}
		return u.partition(), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Matching stage. Cluster ids and sizes.
	ids, size := u.clusters()
	k := len(ids)
	scr := graph.GetScratch()
	defer scr.Release()
	index := scr.Ints(v)
	for i, id := range ids {
		index[id] = i
	}
	// Aggregate intercluster weights, scanning entries in their sorted
	// order so each blossom edge weight accumulates in a fixed sequence —
	// the same per-pair addition order the map[[2]int]float64 table this
	// replaces saw. Either path yields the edge list already in the
	// strict (I, J) order the matching needs, so no re-sort.
	edges := interclusterEdges(entries, u, index, size, k, b, scr)
	mate := matching.MaxWeightMatching(k, edges, false)
	merged := k
	for i, m := range mate {
		if m > i {
			u.union(ids[i], ids[m])
			merged--
		}
	}
	// The matching maximizes internalized weight but may leave more than
	// P clusters (zero-benefit merges are not in the edge set). Repair
	// the count down by redistributing the smallest clusters.
	if merged > opt.Processors {
		return repairPartition(ctx, entries, u.partition(), opt.Processors, b)
	}
	return u.partition(), nil
}

// interclusterEdges folds the collapsed entries into the weighted
// cluster graph the matching stage runs on: one WEdge per connected
// cluster pair whose combined size fits b, ascending by (I, J). Both
// paths accumulate each pair's weight in entries order, so the sums are
// bit-identical to the historical map accumulation.
func interclusterEdges(entries []graph.CollapsedEntry, u *unionFind, index, size []int, k, b int, scr *graph.Scratch) []matching.WEdge {
	if k <= 512 {
		// Dense k x k half-matrix; after greedyMerge k is at most 2P.
		agg := scr.Float64s(k * k)
		hit := scr.Bools(k * k)
		for _, e := range entries {
			a, bb := index[u.find(e.A)], index[u.find(e.B)]
			if a == bb {
				continue
			}
			if a > bb {
				a, bb = bb, a
			}
			agg[a*k+bb] += e.W
			hit[a*k+bb] = true
		}
		edges := make([]matching.WEdge, 0, k*(k-1)/2)
		for a := 0; a < k; a++ {
			for bb := a + 1; bb < k; bb++ {
				if hit[a*k+bb] && size[a]+size[bb] <= b {
					edges = append(edges, matching.WEdge{I: a, J: bb, Weight: agg[a*k+bb]})
				}
			}
		}
		return edges
	}
	// Large k (SkipGreedy ablation on a big graph): sort (a, b, entry)
	// triples and fold runs — per-pair additions still happen in entries
	// order, so the weights match the dense path bit for bit.
	type aggTriple struct {
		a, b, i int32
		w       float64
	}
	ts := make([]aggTriple, 0, len(entries))
	for i, e := range entries {
		a, bb := index[u.find(e.A)], index[u.find(e.B)]
		if a == bb {
			continue
		}
		if a > bb {
			a, bb = bb, a
		}
		ts = append(ts, aggTriple{a: int32(a), b: int32(bb), i: int32(i), w: e.W})
	}
	sort.Slice(ts, func(x, y int) bool {
		if ts[x].a != ts[y].a {
			return ts[x].a < ts[y].a
		}
		if ts[x].b != ts[y].b {
			return ts[x].b < ts[y].b
		}
		return ts[x].i < ts[y].i
	})
	var edges []matching.WEdge
	for i := 0; i < len(ts); {
		a, bb := ts[i].a, ts[i].b
		w := 0.0
		for i < len(ts) && ts[i].a == a && ts[i].b == bb {
			w += ts[i].w
			i++
		}
		if size[a]+size[bb] <= b {
			edges = append(edges, matching.WEdge{I: int(a), J: int(bb), Weight: w})
		}
	}
	return edges
}

// greedyMerge is the paper's greedy pre-merge: process collapsed edges by
// non-increasing weight, merging when the combined cluster stays within
// maxSize, stopping once at most target clusters remain. It may stop
// short if the edge list runs dry; callers repair afterwards. The
// candidate-gain ranking (weight-descending sort) runs on up to workers
// goroutines; the merge scan itself is inherently sequential and checks
// ctx periodically so a deadline interrupts large graphs mid-merge.
func greedyMerge(ctx context.Context, workers int, entries []graph.CollapsedEntry, u *unionFind, target, maxSize int) error {
	edges := append([]graph.CollapsedEntry(nil), entries...)
	if err := ctx.Err(); err != nil {
		return err
	}
	// (W desc, A, B) is a strict total order because (A, B) is unique,
	// so the sorted order — and every merge below — is worker-count
	// independent.
	par.Sort(workers, edges, func(a, b graph.CollapsedEntry) bool {
		if a.W != b.W {
			return a.W > b.W
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	for i, e := range edges {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if u.count <= target {
			return nil
		}
		ra, rb := u.find(e.A), u.find(e.B)
		if ra == rb || u.size[ra]+u.size[rb] > maxSize {
			continue
		}
		u.union(ra, rb)
	}
	return nil
}

// repairPartition reduces the cluster count to at most target by
// dissolving the smallest clusters: each of their tasks moves to the
// cluster with spare capacity (size < maxSize) to which it communicates
// the most. While the count exceeds the target, a cluster with spare
// capacity must exist (otherwise total size would exceed
// target*maxSize >= V), so the repair always terminates.
func repairPartition(ctx context.Context, entries []graph.CollapsedEntry, part []int, target, maxSize int) ([]int, error) {
	n := len(part)
	scr := graph.GetScratch()
	defer scr.Release()
	// Cluster ids stay within the dense range partition() produced, so
	// sizes is a flat array instead of the map it used to be; scanning
	// ids ascending reproduces the map version's (size, id) and
	// (adjacency, id) tie-breaks exactly.
	sizes := scr.Ints(n)
	// Incidence index over entries: task t's entries are
	// incIdx[incOff[t]:incOff[t+1]], ascending, so per-task adjacency
	// weights accumulate in entries order — the same float addition
	// sequence as the full entry scan this replaces.
	incOff := scr.Ints(n + 1)
	for _, e := range entries {
		incOff[e.A+1]++
		incOff[e.B+1]++
	}
	for t := 0; t < n; t++ {
		incOff[t+1] += incOff[t]
	}
	incIdx := scr.Ints(2 * len(entries))
	next := scr.Ints(n)
	copy(next, incOff[:n])
	for i, e := range entries {
		incIdx[next[e.A]] = i
		next[e.A]++
		incIdx[next[e.B]] = i
		next[e.B]++
	}
	aw := scr.Float64s(n)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range sizes {
			sizes[i] = 0
		}
		numClusters := 0
		for _, c := range part {
			if sizes[c] == 0 {
				numClusters++
			}
			sizes[c]++
		}
		if numClusters <= target {
			return densePartition(part), nil
		}
		// Smallest cluster (ties: smallest id).
		smallest, best := -1, 1<<30
		for c, s := range sizes {
			if s > 0 && s < best {
				smallest, best = c, s
			}
		}
		var members []int
		for t, c := range part {
			if c == smallest {
				members = append(members, t)
			}
		}
		for _, t := range members {
			// Adjacency weight from t to every cluster, accumulated in
			// entries order.
			for te := incOff[t]; te < incOff[t+1]; te++ {
				e := entries[incIdx[te]]
				other := e.A
				if other == t {
					other = e.B
				}
				aw[part[other]] += e.W
			}
			// Destination with spare capacity maximizing adjacency
			// (ties: smallest id, via the ascending scan).
			dest, destW := -1, -1.0
			for c, s := range sizes {
				if c == smallest || s == 0 || s >= maxSize {
					continue
				}
				if aw[c] > destW {
					dest, destW = c, aw[c]
				}
			}
			for te := incOff[t]; te < incOff[t+1]; te++ {
				e := entries[incIdx[te]]
				other := e.A
				if other == t {
					other = e.B
				}
				aw[part[other]] = 0
			}
			if dest == -1 {
				return nil, fmt.Errorf("contract: cannot place task %d within B=%d", t, maxSize)
			}
			part[t] = dest
			sizes[dest]++
			sizes[smallest]--
		}
	}
}

// densePartition renumbers cluster ids to 0..k-1 by smallest member.
func densePartition(part []int) []int {
	out := make([]int, len(part))
	id := make([]int, len(part))
	for i := range id {
		id[i] = -1
	}
	next := 0
	for t, c := range part {
		if id[c] == -1 {
			id[c] = next
			next++
		}
		out[t] = id[c]
	}
	return out
}

// unionFindFromPartition rebuilds a union-find matching a partition.
func unionFindFromPartition(part []int) *unionFind {
	u := newUnionFind(len(part))
	first := make([]int, len(part))
	for i := range first {
		first[i] = -1
	}
	for t, c := range part {
		if first[c] >= 0 {
			u.union(first[c], t)
		} else {
			first[c] = t
		}
	}
	return u
}

// GreedyOnly is the ablation baseline: the greedy heuristic alone,
// merging to at most processors clusters within bound B.
func GreedyOnly(g *graph.TaskGraph, processors, b int) ([]int, error) {
	return MWMContract(g, Options{Processors: processors, MaxTasksPerProc: b, SkipMatching: true})
}

// Random is the naive baseline: a random balanced partition into exactly
// min(processors, tasks) clusters.
func Random(g *graph.TaskGraph, processors int, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	v := g.NumTasks
	k := processors
	if v < k {
		k = v
	}
	order := r.Perm(v)
	part := make([]int, v)
	for i, t := range order {
		part[t] = i % k
	}
	return part
}

// --- union-find ---------------------------------------------------------

type unionFind struct {
	parent []int
	size   []int
	count  int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n), count: n}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.count--
}

// clusters returns the current root ids, ascending, and aligned with
// them the cluster sizes: size[i] counts the members of root ids[i].
func (u *unionFind) clusters() (ids []int, size []int) {
	n := len(u.parent)
	count := make([]int, n)
	for x := range u.parent {
		count[u.find(x)]++
	}
	// Roots scanned ascending, so ids is sorted by construction.
	for r, c := range count {
		if c > 0 {
			ids = append(ids, r)
			size = append(size, c)
		}
	}
	return ids, size
}

// partition returns dense cluster ids per element, ordered by smallest
// member.
func (u *unionFind) partition() []int {
	n := len(u.parent)
	out := make([]int, n)
	id := make([]int, n)
	for i := range id {
		id[i] = -1
	}
	next := 0
	for x := range u.parent {
		r := u.find(x)
		if id[r] == -1 {
			id[r] = next
			next++
		}
		out[x] = id[r]
	}
	return out
}
