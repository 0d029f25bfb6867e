package multilevel

import "oregami/internal/contract"

// Uncoarsening with bounded local refinement: the partition computed on
// the coarsest level is projected down one level at a time, and at each
// level contract.Refine — the same kernel the direct pipeline's Refine
// option runs — applies a few passes of single-vertex moves and
// pairwise swaps. Every accepted change has a strictly positive exact
// TotalIPC gain, keeps each cluster within the load target, and leaves
// no cluster empty (cluster ids must stay dense and covering for
// mapping.Validate and the check oracle).

// uncoarsen walks the hierarchy from the coarsest level back to the
// fine graph, refining after every projection (the coarsest level
// included: MWM-Contract's partition can usually still be improved
// locally). It returns the fine partition and the total count of moves
// plus swaps.
func uncoarsen(levels []*level, cpart []int32, opt Options) ([]int, int, error) {
	bound := int32(opt.bound(levels[0].n))
	passes := opt.refinePasses()
	part := cpart
	moves := 0
	for li := len(levels) - 1; li >= 0; li-- {
		if li < len(levels)-1 {
			// Project: each level-li vertex inherits its coarse image's
			// cluster via the child level's cmap.
			cmap := levels[li+1].cmap
			proj := make([]int32, levels[li].n)
			for v := range proj {
				proj[v] = part[cmap[v]]
			}
			part = proj
		}
		if err := ctxErr(opt.Ctx); err != nil {
			return nil, 0, err
		}
		lv := levels[li]
		moves += contract.Refine(lv.off, lv.adj, lv.w, lv.vw, part, bound, passes)
	}
	out := make([]int, len(part))
	for i, c := range part {
		out[i] = int(c)
	}
	return out, moves, nil
}
