package core

import "afforest/internal/graph"

// This file holds the memory-level-parallelism kernels behind the hot
// phases. Afforest is bandwidth-bound: the dominant cost of a neighbor
// round or the final pass is random π reads, one cache miss each. Go
// has no prefetch intrinsic, but the same effect falls out of batching:
// issue a run of *independent* π loads into a small stack buffer first,
// then resolve them — the CPU's out-of-order window overlaps the misses
// instead of serializing one full memory latency per edge behind the
// Link branch.
//
// gatherBatch is the number of π reads issued together. It wants to be
// at least the line-fill-buffer depth (~10–16 outstanding misses on
// current x86/arm cores) and small enough that the gathered values are
// still register/L1-resident when consumed; 32 covers both with room
// for the compiler to keep the buffers on the stack.
const gatherBatch = 32

// LinkHint is Link seeded with a previously gathered π(v). The hint may
// be stale by the time the loop runs — some other worker may have
// re-pointed v — but any former parent of v is still in v's component
// (trees only ever merge, Lemma 4), so the climb converges to the same
// partition Link would. Control flow past the seed is identical to
// Link; the equivalence is pinned by TestLinkHintMatchesLink.
func LinkHint(p Parent, u, v, pv graph.V) {
	p1 := p.Get(u)
	p2 := pv
	for p1 != p2 {
		var h, l graph.V
		if p1 > p2 {
			h, l = p1, p2
		} else {
			h, l = p2, p1
		}
		ph := p.Get(h)
		if ph == l || (ph == h && p.cas(h, h, l)) {
			return
		}
		p1 = p.Get(p.Get(h))
		p2 = p.Get(l)
	}
}

// LinkCountedHint is LinkHint with LinkCounted's accounting. The two
// stay in lockstep the same way Link/LinkCounted do.
func LinkCountedHint(p Parent, u, v, pv graph.V) (iters, casFails int64, merged bool) {
	iters = 1
	p1 := p.Get(u)
	p2 := pv
	for p1 != p2 {
		iters++
		var h, l graph.V
		if p1 > p2 {
			h, l = p1, p2
		} else {
			h, l = p2, p1
		}
		ph := p.Get(h)
		if ph == l {
			break
		}
		if ph == h {
			if p.cas(h, h, l) {
				merged = true
				break
			}
			casFails++
		}
		p1 = p.Get(p.Get(h))
		p2 = p.Get(l)
	}
	return iters, casFails, merged
}

// linkRoundGathered is one vertex chunk of a neighbor round (Fig 5
// lines 2–5): collect up to gatherBatch (source, r-th neighbor) pairs,
// gather the neighbors' π entries as independent loads, then link with
// the gathered values as hints.
func linkRoundGathered(p Parent, offsets []int64, targets []graph.V, rr int64, lo, hi int) {
	var us [gatherBatch]int32
	var vs, pvs [gatherBatch]graph.V
	u := lo
	for u < hi {
		b := 0
		for u < hi && b < gatherBatch {
			if k := offsets[u] + rr; k < offsets[u+1] {
				us[b] = int32(u)
				vs[b] = targets[k]
				b++
			}
			u++
		}
		for i := 0; i < b; i++ {
			pvs[i] = p.Get(vs[i])
		}
		for i := 0; i < b; i++ {
			LinkHint(p, graph.V(us[i]), vs[i], pvs[i])
		}
	}
}

// linkRoundGatheredCounted mirrors linkRoundGathered for the
// instrumented runner.
func linkRoundGatheredCounted(p Parent, offsets []int64, targets []graph.V, rr int64, lo, hi int, st *LinkStats) {
	var us [gatherBatch]int32
	var vs, pvs [gatherBatch]graph.V
	u := lo
	for u < hi {
		b := 0
		for u < hi && b < gatherBatch {
			if k := offsets[u] + rr; k < offsets[u+1] {
				us[b] = int32(u)
				vs[b] = targets[k]
				b++
			}
			u++
		}
		for i := 0; i < b; i++ {
			pvs[i] = p.Get(vs[i])
		}
		for i := 0; i < b; i++ {
			st.Add(LinkCountedHint(p, graph.V(us[i]), vs[i], pvs[i]))
		}
	}
}

// CompressFrom flattens v given its already-loaded parent: walk the
// ancestor chain to the root, then store π(v) ← root once. During a
// compress-only pass roots never move (no hooks run), and concurrent
// compressions of other vertices only shorten the chain, so the root
// found is v's root and one store suffices — unlike Compress's
// store-per-hop, which re-reads π(v) it alone writes. Invariant 1 holds
// because the root is an ancestor: root ≤ parent ≤ v.
func CompressFrom(p Parent, v, parent graph.V) {
	root := parent
	for {
		g := p.Get(root)
		if g == root {
			break
		}
		root = g
	}
	if root != parent {
		p.set(v, root)
	}
}

// compressRangeGathered flattens a vertex range in two gather stages:
// π for a batch of consecutive vertices is one or two cache lines
// loaded together, then the batch's *grandparents* — the random,
// miss-prone loads — are gathered as independent reads before any root
// walk runs. On a post-link forest almost every gathered grandparent
// equals its parent (the tree is already depth ≤ 1 there), so most
// vertices finish inside the gathered data with no store; only the few
// deep chains fall through to the walking kernel.
func compressRangeGathered(p Parent, lo, hi int) {
	var ps, gs [gatherBatch]graph.V
	for v := lo; v < hi; {
		b := hi - v
		if b > gatherBatch {
			b = gatherBatch
		}
		for i := 0; i < b; i++ {
			ps[i] = p.Get(graph.V(v + i))
		}
		for i := 0; i < b; i++ {
			gs[i] = p.Get(ps[i])
		}
		for i := 0; i < b; i++ {
			if gs[i] == ps[i] {
				continue // parent is a root: already flat, nothing to store
			}
			CompressFrom(p, graph.V(v+i), ps[i])
		}
		v += b
	}
}
