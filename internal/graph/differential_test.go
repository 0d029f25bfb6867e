package graph_test

// Differential referee for the flat CSR core: the collapsed weights are
// recomputed here with the straightforward map algorithm the flat
// build replaced, and the CSR and CollapsedEntries must match it bit
// for bit — float comparisons go through math.Float64bits, not epsilon.

import (
	"math"
	"math/rand"
	"testing"

	"oregami/internal/gen"
	"oregami/internal/graph"
)

// refChainWeights is the map form of the CSR weights: one map,
// accumulated pair by pair in phase-then-edge order (a single addition
// chain per pair).
func refChainWeights(g *graph.TaskGraph) map[[2]int]float64 {
	w := make(map[[2]int]float64)
	for _, p := range g.Comm {
		for _, e := range p.Edges {
			if e.From == e.To {
				continue
			}
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			w[[2]int{a, b}] += e.Weight
		}
	}
	return w
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// diffSize draws the stock generator's shapes for the referees.
func diffSize(r *rand.Rand) gen.GraphSize {
	return gen.GraphSize{
		Tasks:     2 + r.Intn(24),
		Phases:    1 + r.Intn(4),
		Density:   0.1 + 0.6*r.Float64(),
		MaxWeight: 1 + r.Intn(7),
	}
}

func TestCollapsedWeightsMatchesMapReferee(t *testing.T) {
	gen.ForEachSeed(t, 60, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, diffSize(r))
		ref := refChainWeights(g)
		got := g.CSR()
		if got.NumPairs() != len(ref) {
			t.Fatalf("CSR has %d pairs, referee %d", got.NumPairs(), len(ref))
		}
		for k, w := range ref {
			gw, ok := got.WeightBetween(k[0], k[1])
			if !ok {
				t.Fatalf("pair %v missing from the CSR", k)
			}
			if !sameBits(gw, w) {
				t.Fatalf("pair %v weight %v (bits %x), referee %v (bits %x)",
					k, gw, math.Float64bits(gw), w, math.Float64bits(w))
			}
		}
	})
}

// TestCollapsedEntriesMatchesChainReferee: on fractional weights
// (generator weights x 0.1, several phases, so pairs collect several
// contributions and the addition order shows in the last ulp)
// CollapsedEntries is exactly the CSR's upper triangle, and every
// weight is the single phase-then-edge chain of refChainWeights.
func TestCollapsedEntriesMatchesChainReferee(t *testing.T) {
	gen.ForEachSeed(t, 60, func(t *testing.T, seed int64, r *rand.Rand) {
		size := diffSize(r)
		size.Phases += 2
		g := gen.TaskGraph(r, size)
		for _, p := range g.Comm {
			for i := range p.Edges {
				p.Edges[i].Weight *= 0.1
			}
		}
		g = g.Clone() // a fresh graph has no CSR cached from before the scaling
		ref := refChainWeights(g)
		c := g.CSR()
		entries := g.CollapsedEntries()
		if len(entries) != len(ref) || len(entries) != c.NumPairs() {
			t.Fatalf("%d entries, referee %d pairs, CSR %d pairs", len(entries), len(ref), c.NumPairs())
		}
		i := 0
		for v := 0; v < c.N; v++ {
			ws := c.RowWeights(v)
			for j, u := range c.Neighbors(v) {
				if int(u) <= v {
					continue
				}
				e := entries[i]
				if e.A != v || e.B != int(u) || !sameBits(e.W, ws[j]) {
					t.Fatalf("entry %d = %+v, CSR upper triangle has (%d,%d,%v)", i, e, v, u, ws[j])
				}
				w := ref[[2]int{e.A, e.B}]
				if !sameBits(e.W, w) {
					t.Fatalf("pair (%d,%d) weight %v (bits %x), referee %v (bits %x)",
						e.A, e.B, e.W, math.Float64bits(e.W), w, math.Float64bits(w))
				}
				i++
			}
		}
	})
}

func TestCSRMatchesMapReferee(t *testing.T) {
	gen.ForEachSeed(t, 60, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, diffSize(r))
		ref := refChainWeights(g)
		c := g.CSR()
		if c.N != g.NumTasks {
			t.Fatalf("CSR.N=%d, graph has %d tasks", c.N, g.NumTasks)
		}
		if c.NumPairs() != len(ref) {
			t.Fatalf("CSR.NumPairs=%d, referee %d", c.NumPairs(), len(ref))
		}
		seen := 0
		for v := 0; v < g.NumTasks; v++ {
			nbrs, ws := c.Neighbors(v), c.RowWeights(v)
			if len(nbrs) != c.Degree(v) || len(ws) != len(nbrs) {
				t.Fatalf("task %d: row lengths disagree (%d nbrs, %d weights, degree %d)",
					v, len(nbrs), len(ws), c.Degree(v))
			}
			if g.Degree(v) != len(nbrs) {
				t.Fatalf("task %d: TaskGraph.Degree=%d, CSR row %d", v, g.Degree(v), len(nbrs))
			}
			for i, nb := range nbrs {
				u := int(nb)
				if i > 0 && int(nbrs[i-1]) >= u {
					t.Fatalf("task %d: row not strictly ascending: %v", v, nbrs)
				}
				if u == v {
					t.Fatalf("task %d: self loop in CSR row", v)
				}
				a, b := v, u
				if a > b {
					a, b = b, a
				}
				w, ok := ref[[2]int{a, b}]
				if !ok {
					t.Fatalf("task %d: CSR edge to %d not in referee", v, u)
				}
				if !sameBits(ws[i], w) {
					t.Fatalf("task %d->%d: CSR weight %v, referee %v", v, u, ws[i], w)
				}
				if bw, ok := c.WeightBetween(v, u); !ok || !sameBits(bw, w) {
					t.Fatalf("WeightBetween(%d,%d)=%v,%v, referee %v", v, u, bw, ok, w)
				}
				seen++
			}
			// Binary search misses must miss: probe a non-neighbor.
			for probe := 0; probe < g.NumTasks; probe++ {
				a, b := v, probe
				if a > b {
					a, b = b, a
				}
				if _, inRef := ref[[2]int{a, b}]; !inRef || probe == v {
					if _, ok := c.WeightBetween(v, probe); ok {
						t.Fatalf("WeightBetween(%d,%d) hit, referee has no pair", v, probe)
					}
				}
			}
		}
		if seen != 2*len(ref) {
			t.Fatalf("CSR has %d directed slots, referee implies %d", seen, 2*len(ref))
		}
	})
}

// TestCSRCacheInvalidation mutates a graph after its CSR is cached and
// checks the next CSR call reflects the mutation — the lazy cache must
// never serve a stale view.
func TestCSRCacheInvalidation(t *testing.T) {
	gen.ForEachSeed(t, 30, func(t *testing.T, seed int64, r *rand.Rand) {
		g := gen.TaskGraph(r, diffSize(r))
		g.WarmCSR()
		// Mutate: new phase plus a duplicated and a fresh edge.
		p := g.AddCommPhase("extra")
		a, b := r.Intn(g.NumTasks), r.Intn(g.NumTasks)
		g.AddEdge(p, a, b, 2.5)
		g.AddEdge(p, b, a, 1.25)
		ref := refChainWeights(g)
		c := g.CSR()
		if c.NumPairs() != len(ref) {
			t.Fatalf("after mutation: CSR has %d pairs, referee %d", c.NumPairs(), len(ref))
		}
		for k, w := range ref {
			got, ok := c.WeightBetween(k[0], k[1])
			if !ok || !sameBits(got, w) {
				t.Fatalf("after mutation: pair %v = %v,%v, referee %v", k, got, ok, w)
			}
		}
	})
}
