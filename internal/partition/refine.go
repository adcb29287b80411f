package partition

import "repro/internal/graph"

// Refine improves a partitioning's edge cut by greedy boundary moves in
// the Kernighan–Lin spirit: a node whose neighbors mostly live in another
// part moves there, provided the destination stays within maxImbalance of
// the ideal part size. It runs passes until no improving move exists (or
// the pass limit is hit) and returns how many nodes moved.
//
// BFS growth (BFSGrow) gets locality right globally but leaves ragged
// borders where its capacity counter flipped mid-frontier; one or two
// refinement passes typically remove a large share of those cut edges —
// and with them the ghost nodes every shard closure replicates
// (ablation A6).
func Refine(g *graph.Graph, p *Partitioning, maxImbalance float64, maxPasses int) (moved int) {
	if maxImbalance < 1 {
		maxImbalance = 1
	}
	if maxPasses <= 0 {
		maxPasses = 2
	}
	n := g.NumNodes()
	if n == 0 || p.P <= 1 {
		return 0
	}
	sizes := p.Sizes()
	ideal := float64(n) / float64(p.P)
	capLimit := int(ideal * maxImbalance)
	if capLimit < 1 {
		capLimit = 1
	}

	// Per-node neighbor-part tallies, reused across passes.
	tally := make([]int32, p.P)
	for pass := 0; pass < maxPasses; pass++ {
		movedThisPass := 0
		for u := 0; u < n; u++ {
			cur := int(p.Assign[u])
			nbrs := g.Neighbors(u)
			if len(nbrs) == 0 {
				continue
			}
			for i := range tally {
				tally[i] = 0
			}
			for _, v := range nbrs {
				tally[p.Assign[v]]++
			}
			best, bestScore := cur, tally[cur]
			for part, score := range tally {
				if part == cur || score <= bestScore {
					continue
				}
				if sizes[part]+1 > capLimit {
					continue // would overfill the destination
				}
				best, bestScore = part, score
			}
			if best != cur {
				p.Assign[u] = int32(best)
				sizes[cur]--
				sizes[best]++
				moved++
				movedThisPass++
			}
		}
		if movedThisPass == 0 {
			break
		}
	}
	return moved
}
