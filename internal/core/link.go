package core

import (
	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// Link ensures u and v are in the same component tree of π, merging
// their trees if needed (Fig 3). It is lock-free and safe to call from
// any number of goroutines on any edge order: convergence is local, so
// each edge needs to be processed exactly once (Theorem 1).
//
// The procedure climbs from the current parents of u and v toward a
// root. At each step the higher-indexed vertex h of the two frontier
// parents is inspected; if h is a root it is hooked under the lower
// vertex l with a CAS (preserving Invariant 1: π(x) ≤ x). On CAS
// failure or a non-root h the climb continues from one ancestor up —
// unlike SV's hook, which would defer the edge to the next global
// iteration.
func Link(p Parent, u, v graph.V) {
	p1 := p.Get(u)
	p2 := p.Get(v)
	for p1 != p2 {
		var h, l graph.V
		if p1 > p2 {
			h, l = p1, p2
		} else {
			h, l = p2, p1
		}
		ph := p.Get(h)
		// Done if another processor already hooked h under l; otherwise
		// attempt the hook ourselves if h is (still) a root.
		if ph == l || (ph == h && p.cas(h, h, l)) {
			return
		}
		// Climb: one grandparent step on the high side, one parent step
		// on the low side (matching the GAP-style formulation the paper
		// derives from).
		p1 = p.Get(p.Get(h))
		p2 = p.Get(l)
	}
}

// Compress performs full path compression for v (Fig 2b): repeatedly
// π(v) ← π(π(v)) until v points at a root, reducing v's depth to one.
// Each goroutine writes only to its own π(v), so parallel Compress over
// all vertices has no write conflicts (Theorem 2); concurrent reads of
// ancestors may observe other goroutines' compressions, which only
// shorten the path.
func Compress(p Parent, v graph.V) {
	for {
		parent := p.Get(v)
		grand := p.Get(parent)
		if parent == grand {
			return
		}
		p.set(v, grand)
	}
}

// CompressAll flattens every vertex in parallel (Fig 5 lines 6–8 and
// 16–18), leaving every tree at depth one. Chunks run the gathered
// kernel (hotpath.go): π for runs of consecutive vertices is loaded
// batch-wise, root walks start from the gathered parents, and each
// vertex is stored at most once — same fixed point as Compress per
// vertex, fewer loads and stores per pass.
func CompressAll(p Parent, parallelism int) {
	concurrent.ForRange(len(p), parallelism, 512, func(lo, hi, _ int) {
		compressRangeGathered(p, lo, hi)
	})
}

// CompressHalve is the path-halving alternative to Compress: a single
// grandparent hop (π(v) ← π(π(v))) per call instead of a full walk to
// the root. Interleaving halving rounds is cheaper per pass but leaves
// trees deeper than one level, so subsequent links walk farther — the
// trade-off the compress-variant ablation measures. Halving preserves
// Invariant 1 for the same reason Compress does (Lemma 2).
func CompressHalve(p Parent, v graph.V) {
	parent := p.Get(v)
	grand := p.Get(parent)
	if parent != grand {
		p.set(v, grand)
	}
}

// CompressHalveAll applies one halving round to every vertex.
func CompressHalveAll(p Parent, parallelism int) {
	parallelFor(len(p), parallelism, func(i int) {
		CompressHalve(p, graph.V(i))
	})
}

// LinkAll applies Link over every arc of g in parallel — the core
// algorithm of Section III with no sampling. After LinkAll, each
// connected component of g is a single tree in π (Theorem 1). Work is
// distributed in arc-balanced chunks over the raw CSR slices, so
// skewed degree distributions cannot serialize a chunk behind one hub.
func LinkAll(g *graph.CSR, p Parent, parallelism int) {
	LinkAllGrain(g, p, parallelism, 0)
}

// LinkAllGrain is LinkAll with an explicit arc-chunk grain (0 means
// concurrent.DefaultEdgeGrain).
func LinkAllGrain(g *graph.CSR, p Parent, parallelism, edgeGrain int) {
	LinkAllObserved(g, p, parallelism, edgeGrain, nil)
}
