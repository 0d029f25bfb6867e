package contract

// Partition refinement: one local-search kernel over CSR arrays, shared
// by the direct pipeline's Refine option and every uncoarsening level
// of the multilevel engine.

//oregami:hot

// Refine improves a partition of a CSR graph by single-vertex moves and
// pairwise swaps, keeping every change that strictly lowers the edge
// cut (total IPC) without pushing a cluster's load past bound.
//
// Row v of the graph spans adj[off[v]:off[v+1]], with w aligned slot
// for slot; every undirected pair appears on both rows. vw[v] is v's
// load (1 for a task, the aggregated task count for a coarse vertex)
// and part[v] its cluster; part is updated in place. Each pass is a
// move sweep then a swap sweep, both in vertex index order; passes stop
// early once one changes nothing. It returns the number of moves plus
// swaps applied.
//
// Move sweep: v goes to the adjacent cluster it has the most weight to,
// if that strictly beats its own cluster, the destination stays within
// bound, and v is not its cluster's last vertex (clusters never empty).
// Ties go to the smallest cluster id. Swap sweep: for each row pair
// a < b in different clusters, a and b trade clusters when the combined
// gain is strictly positive and neither cluster's load grows past
// bound. Gains are the exact cut deltas, accumulated in row order, so
// the result is deterministic.
func Refine(off, adj []int32, w []float64, vw, part []int32, bound int32, passes int) int {
	n := len(part)
	k := int32(0)
	for _, c := range part {
		if c >= k {
			k = c + 1
		}
	}
	load := make([]int32, k)
	count := make([]int32, k)
	for v, c := range part {
		load[c] += vw[v]
		count[c]++
	}
	// conn/seen/gen/touched gather a vertex's weight to each adjacent
	// cluster without a map: conn[c] is valid when seen[c] == gen.
	conn := make([]float64, k)
	seen := make([]int32, k)
	touched := make([]int32, 0, k)
	gen := int32(0)
	gather := func(v int) {
		gen++
		touched = touched[:0]
		for i := off[v]; i < off[v+1]; i++ {
			c := part[adj[i]]
			if seen[c] != gen {
				seen[c] = gen
				conn[c] = 0
				touched = append(touched, c)
			}
			conn[c] += w[i]
		}
	}
	connTo := func(c int32) float64 {
		if seen[c] == gen {
			return conn[c]
		}
		return 0
	}
	// boundary[v] is set whenever v may have a neighbor in another
	// cluster; the swap sweep skips the rows of the rest. The move
	// sweep sets it from v's gather, and every move or swap sets it on
	// the changed vertices and their neighbors.
	boundary := make([]bool, n)
	markRow := func(v int32) {
		boundary[v] = true
		for i := off[v]; i < off[v+1]; i++ {
			boundary[adj[i]] = true
		}
	}
	moves := 0
	for pass := 0; pass < passes; pass++ {
		changed := 0
		for v := 0; v < n; v++ {
			own := part[v]
			if count[own] == 1 {
				boundary[v] = true
				continue
			}
			gather(v)
			boundary[v] = len(touched) > 1 || (len(touched) == 1 && touched[0] != own)
			internal := connTo(own)
			best, bestGain := int32(-1), 0.0
			for _, c := range touched {
				if c == own || load[c]+vw[v] > bound {
					continue
				}
				gain := conn[c] - internal
				if gain > bestGain || (gain == bestGain && best != -1 && c < best) {
					best, bestGain = c, gain
				}
			}
			if best == -1 {
				continue
			}
			part[v] = best
			load[own] -= vw[v]
			load[best] += vw[v]
			count[own]--
			count[best]++
			markRow(int32(v))
			changed++
		}
		for a := 0; a < n; a++ {
			if !boundary[a] {
				continue
			}
			// a's row is gathered lazily, once per a and again after
			// each swap (a swap changes a's cluster and a neighbor's).
			stale := true
			for i := off[a]; i < off[a+1]; i++ {
				b := adj[i]
				ca, cb := part[a], part[b]
				if int(b) <= a || ca == cb {
					continue
				}
				if d := vw[b] - vw[a]; (d > 0 && load[ca]+d > bound) || (d < 0 && load[cb]-d > bound) {
					continue
				}
				if stale {
					gather(a)
					stale = false
				}
				var bOwn, bOther float64
				for j := off[b]; j < off[b+1]; j++ {
					switch part[adj[j]] {
					case cb:
						bOwn += w[j]
					case ca:
						bOther += w[j]
					}
				}
				gain := (connTo(cb) - connTo(ca)) + (bOther - bOwn) - 2*w[i]
				if gain > 0 {
					part[a], part[b] = cb, ca
					d := vw[b] - vw[a]
					load[ca] += d
					load[cb] -= d
					markRow(int32(a))
					markRow(b)
					changed++
					stale = true
				}
			}
		}
		moves += changed
		if changed == 0 {
			break
		}
	}
	return moves
}
