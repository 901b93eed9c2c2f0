package core

import (
	"afforest/internal/concurrent"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// Options configures an Afforest run (Fig 5).
type Options struct {
	// NeighborRounds is the number of vertex-neighbor sampling rounds
	// before the skip phase. The paper's analysis (Section V-B) sets
	// the default to 2. Zero means the default; negative disables
	// sampling (the final phase then processes every edge).
	NeighborRounds int

	// SkipLargest enables Theorem 3's large-component skipping. When
	// false the final phase processes every remaining edge ("Afforest
	// w/o component skipping" in Figs 7b and 8b).
	SkipLargest bool

	// SampleSize is the number of random π entries inspected to find
	// the most frequent intermediate component (Fig 5 line 10). Zero
	// means the default 1024.
	SampleSize int

	// Parallelism bounds the number of worker goroutines; 0 means
	// GOMAXPROCS.
	Parallelism int

	// EdgeGrain is the number of arcs per dynamically claimed chunk in
	// the edge-balanced phases (the final phase here, and LinkAll).
	// Zero means concurrent.DefaultEdgeGrain. Chunking by arcs rather
	// than vertices keeps per-chunk work uniform on power-law degree
	// distributions, where a single hub would otherwise serialize its
	// whole vertex chunk.
	EdgeGrain int

	// Seed drives the probabilistic most-frequent-element search.
	Seed uint64

	// HalvingCompress replaces the full compress between link phases
	// with single path-halving rounds (the cheaper-but-shallower
	// variant measured by the compress ablation). The final compress is
	// always the full one, so results are identical.
	HalvingCompress bool

	// GatherLinks runs the neighbor rounds through the gather-batched
	// kernel (hotpath.go): π entries for a batch of upcoming arcs are
	// loaded together before any Link resolves, so the cache misses
	// overlap instead of serializing. Pays on uniform-random topologies
	// where nearly every π[target] read misses; costs a few percent on
	// hub-heavy graphs whose hot π entries are cache-resident anyway
	// (DESIGN.md §12 has the A/B). The final pass always runs the plain
	// loop. Off by default.
	GatherLinks bool

	// Observer, when non-nil, receives the run's phase tree (spans per
	// neighbor round, compress pass, sample, and final pass) with
	// per-phase work counters. nil keeps the uninstrumented hot path:
	// Run dispatches on the nil check once per phase, not per edge.
	Observer obs.Observer
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: two neighbor rounds with component skipping enabled.
func DefaultOptions() Options {
	return Options{NeighborRounds: 2, SkipLargest: true}
}

func (o Options) rounds() int {
	switch {
	case o.NeighborRounds == 0:
		return 2
	case o.NeighborRounds < 0:
		return 0
	default:
		return o.NeighborRounds
	}
}

func (o Options) sampleSize() int {
	if o.SampleSize <= 0 {
		return 1024
	}
	return o.SampleSize
}

// Run executes the complete Afforest algorithm of Fig 5 on g and
// returns the flattened π: a labeling where ℓ(v) = ℓ(u) iff u and v are
// connected, with each label being the minimum vertex id of its
// component (a consequence of Invariant 1).
func Run(g *graph.CSR, opt Options) Parent {
	p := NewParent(g.NumVertices())
	if len(p) > 0 {
		run(g, opt, p, opt.Observer, nil)
	}
	return p
}

// run is the Afforest phase driver behind Run, RunInstrumented,
// RunAudited and EdgesProcessed. It writes into the caller's p (n > 0).
//
// With ob == nil every phase runs its plain loop body: Link, no
// counters, no spans. Otherwise every phase runs its counted body
// (LinkCounted) and reports a span with its accounting. The choice is
// made once per phase, on the nil check, never per edge. afterLink,
// when non-nil, runs after each link phase closes and before its
// compress; RunInstrumented measures tree depth there.
func run(g *graph.CSR, opt Options, p Parent, ob obs.Observer, afterLink func()) {
	n := g.NumVertices()
	offsets, targets := g.Adjacency(0, n)
	rounds := opt.rounds()
	counted := ob != nil
	root := beginPhase(ob, obs.PhaseRun)

	// Phase 1: neighbor-sampling rounds (Fig 5 lines 2–9). Round r
	// links each vertex to its r-th neighbor, followed by a compress
	// pass so the next round's links walk shallow trees.
	for r := 0; r < rounds; r++ {
		span := beginPhase(ob, obs.PhaseNeighborRound)
		endPhase(ob, span, neighborRound(p, offsets, targets, int64(r), opt, counted))
		if afterLink != nil {
			afterLink()
		}
		span = beginPhase(ob, obs.PhaseCompress)
		if opt.HalvingCompress {
			CompressHalveAll(p, opt.Parallelism)
		} else {
			CompressAll(p, opt.Parallelism)
		}
		endPhase(ob, span, obs.PhaseStats{})
	}

	// Phase 2: probabilistic search for the largest intermediate
	// component (Fig 5 line 10).
	var c graph.V
	skip := opt.SkipLargest
	if skip {
		span := beginPhase(ob, obs.PhaseSample)
		var ratio float64
		c, ratio = SampleFrequentElementRatio(p, opt.sampleSize(), opt.Seed)
		endPhase(ob, span, obs.PhaseStats{SkipRatio: ratio})
	}

	// Phase 3: process the remaining edges — neighbors beyond the
	// sampled rounds — skipping vertices already inside c (Fig 5 lines
	// 11–15; Theorem 3 guarantees the cross edges are seen from their
	// other endpoint).
	span := beginPhase(ob, obs.PhaseFinal)
	endPhase(ob, span, linkRemaining(p, offsets, targets, int64(rounds), skip, c, opt, counted))
	if afterLink != nil {
		afterLink()
	}

	// Phase 4: final compress (Fig 5 lines 16–18) flattens every tree
	// to depth one; π is now the component labeling.
	span = beginPhase(ob, obs.PhaseFinalCompress)
	CompressAll(p, opt.Parallelism)
	endPhase(ob, span, obs.PhaseStats{})
	endPhase(ob, root, obs.PhaseStats{})
}

func beginPhase(ob obs.Observer, name string) obs.SpanID {
	if ob == nil {
		return 0
	}
	return ob.BeginPhase(name)
}

func endPhase(ob obs.Observer, span obs.SpanID, st obs.PhaseStats) {
	if ob != nil {
		ob.EndPhase(span, st)
	}
}

// neighborRound links every vertex to its r-th neighbor, read straight
// off the raw CSR slices as targets[offsets[u]+r]. GatherLinks swaps
// the loop for the batch-gathered kernel (hotpath.go). The counted body
// accumulates into a chunk-local LinkStats and folds it into its
// worker's slot once per chunk.
func neighborRound(p Parent, offsets []int64, targets []graph.V, rr int64, opt Options, counted bool) obs.PhaseStats {
	n := len(offsets) - 1
	gather := opt.GatherLinks
	if !counted {
		if gather {
			concurrent.ForRange(n, opt.Parallelism, 512, func(lo, hi, _ int) {
				linkRoundGathered(p, offsets, targets, rr, lo, hi)
			})
		} else {
			concurrent.ForRange(n, opt.Parallelism, 512, func(lo, hi, _ int) {
				for u := lo; u < hi; u++ {
					if k := offsets[u] + rr; k < offsets[u+1] {
						Link(p, graph.V(u), targets[k])
					}
				}
			})
		}
		return obs.PhaseStats{}
	}
	per := make([]LinkStats, workerCount(opt.Parallelism))
	concurrent.ForRange(n, opt.Parallelism, 512, func(lo, hi, w int) {
		var st LinkStats
		if gather {
			linkRoundGatheredCounted(p, offsets, targets, rr, lo, hi, &st)
		} else {
			for u := lo; u < hi; u++ {
				if k := offsets[u] + rr; k < offsets[u+1] {
					st.Add(LinkCounted(p, graph.V(u), targets[k]))
				}
			}
		}
		per[w].Merge(&st)
	})
	return sumStats(per)
}

// linkRemaining links every arc past the first skipArcs of its source's
// adjacency, skipping sources already inside c when skip is set: the
// final pass of Fig 5, and with skipArcs = 0 and no skip, LinkAll.
// Chunks are balanced by arc count, so hub vertices split across
// chunks; each vertex's arc range is clipped to the chunk and offset
// past the already-sampled rounds. The skip test runs once per vertex
// per chunk; the counted body records each test in Checked and each
// skipped source in Skipped.
func linkRemaining(p Parent, offsets []int64, targets []graph.V, skipArcs int64, skip bool, c graph.V, opt Options, counted bool) obs.PhaseStats {
	if !counted {
		concurrent.ForEdgeRange(offsets, opt.Parallelism, opt.EdgeGrain, func(vlo, vhi int, alo, ahi int64, _ int) {
			for u := vlo; u < vhi; u++ {
				lo, hi := offsets[u]+skipArcs, offsets[u+1]
				if lo < alo {
					lo = alo
				}
				if hi > ahi {
					hi = ahi
				}
				if lo >= hi {
					continue
				}
				uu := graph.V(u)
				if skip && p.Get(uu) == c {
					continue
				}
				for _, v := range targets[lo:hi] {
					Link(p, uu, v)
				}
			}
		})
		return obs.PhaseStats{}
	}
	per := make([]LinkStats, workerCount(opt.Parallelism))
	concurrent.ForEdgeRange(offsets, opt.Parallelism, opt.EdgeGrain, func(vlo, vhi int, alo, ahi int64, w int) {
		var st LinkStats
		for u := vlo; u < vhi; u++ {
			lo, hi := offsets[u]+skipArcs, offsets[u+1]
			if lo < alo {
				lo = alo
			}
			if hi > ahi {
				hi = ahi
			}
			if lo >= hi {
				continue
			}
			uu := graph.V(u)
			if skip {
				st.Checked++
				if p.Get(uu) == c {
					st.Skipped++
					continue
				}
			}
			for _, v := range targets[lo:hi] {
				st.Add(LinkCounted(p, uu, v))
			}
		}
		per[w].Merge(&st)
	})
	return sumStats(per)
}

// SampleFrequentElement estimates the most frequent value in π by
// inspecting `samples` uniformly random entries (Fig 5 line 10). After
// a compress pass all trees are depth-1, so π values are component
// representatives and the mode of the sample identifies the largest
// intermediate component with high probability. The estimate only
// affects performance, never correctness (Theorem 3 holds for any
// choice of component).
func SampleFrequentElement(p Parent, samples int, seed uint64) graph.V {
	v, _ := SampleFrequentElementRatio(p, samples, seed)
	return v
}

// SampleFrequentElementRatio is SampleFrequentElement returning also
// the mode's observed sample frequency in [0,1] — the skip ratio: the
// estimated fraction of vertices the final phase will skip.
func SampleFrequentElementRatio(p Parent, samples int, seed uint64) (graph.V, float64) {
	n := len(p)
	if n == 0 || samples <= 0 {
		return 0, 0
	}
	if samples > n {
		samples = n
	}
	// Open-addressed counting table in place of a map[V]int: at the
	// default 1024 samples the table is two small arrays probed linearly
	// at load factor <= 1/2, with no per-sample allocation or hashing
	// through the runtime map.
	tableSize, tableBits := 1, 0
	for tableSize < 2*samples {
		tableSize <<= 1
		tableBits++
	}
	shift := uint(64 - tableBits)
	mask := uint64(tableSize - 1)
	keys := make([]graph.V, tableSize)
	counts := make([]int32, tableSize)
	s := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	best, bestCount := graph.V(0), int32(-1)
	for i := 0; i < samples; i++ {
		// SplitMix64 step inlined; this sampling is sequential and
		// cheap relative to the link phases (Fig 7c's "F" section).
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v := p.Get(graph.V(z % uint64(n)))
		// Fibonacci hashing: the high bits of the product mix all input
		// bits, unlike a low-bit mask.
		idx := (uint64(v) * 0x9e3779b97f4a7c15) >> shift
		for counts[idx] != 0 && keys[idx] != v {
			idx = (idx + 1) & mask
		}
		keys[idx] = v
		counts[idx]++
		if counts[idx] > bestCount {
			best, bestCount = v, counts[idx]
		}
	}
	return best, float64(bestCount) / float64(samples)
}

// parallelFor is the vertex-loop scheduler shared by the core phases:
// dynamic chunks large enough to amortize scheduling but small enough
// to balance skewed degree distributions.
func parallelFor(n, parallelism int, body func(i int)) {
	concurrent.ForGrain(n, parallelism, 512, body)
}

// workerCount returns the number of distinct worker ids parallelFor may
// use for the given parallelism setting.
func workerCount(parallelism int) int {
	return concurrent.Procs(parallelism)
}
