package graph

// This file is the flat core of the collapsed static graph: offset and
// adjacency arrays built once and shared by every hot caller.

//oregami:hot

import "oregami/internal/par"

// CSR is the collapsed static task graph in compressed-sparse-row form.
// Row v spans Adj[Off[v]:Off[v+1]]: the distinct neighbors of task v in
// ascending order, with W aligned slot for slot carrying the total
// undirected communication volume between the pair, accumulated in the
// collapsedPairs chain order. A CSR is immutable once built and safe to
// share across goroutines.
type CSR struct {
	// N is the number of tasks (rows).
	N int
	// Off has N+1 entries; row v is Adj[Off[v]:Off[v+1]].
	Off []int32
	// Adj holds neighbor task ids, ascending within each row.
	Adj []int32
	// W holds the collapsed pair weight for the matching Adj slot. The
	// weight appears on both directed rows of the pair.
	W []float64
}

// Neighbors returns task v's neighbor row. The slice aliases the CSR;
// callers must not modify it.
func (c *CSR) Neighbors(v int) []int32 { return c.Adj[c.Off[v]:c.Off[v+1]] }

// RowWeights returns the weights aligned with Neighbors(v). The slice
// aliases the CSR; callers must not modify it.
func (c *CSR) RowWeights(v int) []float64 { return c.W[c.Off[v]:c.Off[v+1]] }

// Degree returns the number of distinct collapsed-graph neighbors of v.
func (c *CSR) Degree(v int) int { return int(c.Off[v+1] - c.Off[v]) }

// WeightBetween returns the collapsed weight between tasks a and b and
// whether the pair is connected, by binary search on a's row.
func (c *CSR) WeightBetween(a, b int) (float64, bool) {
	lo, hi := int(c.Off[a]), int(c.Off[a+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(c.Adj[mid]) < b:
			lo = mid + 1
		case int(c.Adj[mid]) > b:
			hi = mid
		default:
			return c.W[mid], true
		}
	}
	return 0, false
}

// NumPairs returns the number of undirected collapsed edges.
func (c *CSR) NumPairs() int { return len(c.Adj) / 2 }

// triple is one directed contribution to the collapsed graph during the
// CSR build: the undirected pair (a < b) and its global position in
// phase-then-edge traversal order. seq makes (a, b, seq) a strict total
// order, so the sort is deterministic and each pair's weights add up in
// one chain, in phase-then-edge order.
type triple struct {
	a, b int32
	seq  int32
	w    float64
}

// collapsedPairs returns the collapsed pairs sorted by (A, B): the total
// communication volume between each pair of distinct tasks, summed over
// all phases and both directions in phase-then-edge order. It is the
// only summation order of the collapsed graph; the CSR is built from it.
func (g *TaskGraph) collapsedPairs() []CollapsedEntry {
	ts := make([]triple, 0, g.NumEdges())
	seq := int32(0)
	for _, p := range g.Comm {
		for _, e := range p.Edges {
			seq++
			if e.From == e.To {
				continue
			}
			a, b := int32(e.From), int32(e.To)
			if a > b {
				a, b = b, a
			}
			ts = append(ts, triple{a: a, b: b, seq: seq, w: e.Weight})
		}
	}
	par.Sort(1, ts, func(x, y triple) bool {
		if x.a != y.a {
			return x.a < y.a
		}
		if x.b != y.b {
			return x.b < y.b
		}
		return x.seq < y.seq
	})
	out := make([]CollapsedEntry, 0, len(ts))
	for i := 0; i < len(ts); {
		a, b := ts[i].a, ts[i].b
		var total float64
		for i < len(ts) && ts[i].a == a && ts[i].b == b {
			total += ts[i].w
			i++
		}
		out = append(out, CollapsedEntry{A: int(a), B: int(b), W: total})
	}
	return out
}

// buildCSR constructs the CSR from the sorted entries.
func buildCSR(n int, entries []CollapsedEntry) *CSR {
	c := &CSR{N: n, Off: make([]int32, n+1)}
	for _, e := range entries {
		c.Off[e.A+1]++
		c.Off[e.B+1]++
	}
	for v := 0; v < n; v++ {
		c.Off[v+1] += c.Off[v]
	}
	c.Adj = make([]int32, len(entries)*2)
	c.W = make([]float64, len(entries)*2)
	next := make([]int32, n)
	copy(next, c.Off[:n])
	// Entries arrive sorted by (A, B). For a fixed row v, neighbors
	// u < v stream in ascending u (from entries (u, v) whose A = u < v
	// sort first), then neighbors u > v in ascending u (from entries
	// (v, u)) — each row fills already sorted, no per-row sort.
	for _, e := range entries {
		c.Adj[next[e.A]] = int32(e.B)
		c.W[next[e.A]] = e.W
		next[e.A]++
		c.Adj[next[e.B]] = int32(e.A)
		c.W[next[e.B]] = e.W
		next[e.B]++
	}
	return c
}

// CSR returns the collapsed static graph in flat form, building and
// caching it on first use. Mutating the graph (AddEdge, AddCommPhase)
// invalidates the cache. The first call builds lazily and is not safe
// to race with other CSR/Degree calls; callers about to share the graph
// across goroutines warm it once, single-threaded, via WarmCSR — the
// same discipline as topology.WarmDistances.
func (g *TaskGraph) CSR() *CSR {
	if g.csr == nil {
		g.csr = buildCSR(g.NumTasks, g.collapsedPairs())
	}
	return g.csr
}

// WarmCSR forces the cached CSR to exist so later concurrent readers
// never trigger the unsynchronized lazy build.
func (g *TaskGraph) WarmCSR() { g.CSR() }
