package core

import (
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// LinkStats aggregates the per-edge behaviour of Link for Table II:
// the number of local loop iterations each Link call performs, and the
// deepest parent-chain walk observed. In the paper's measurements the
// average local iteration count stays near 1 — most edges only verify
// already-converged trees — while the maximum observed depth stays
// close to SV's tree depth despite Link's unbounded climb.
type LinkStats struct {
	Calls      int64
	Iterations int64
	MaxIters   int64
	CASFails   int64
	Merges     int64 // successful hook CASes: edges that united two trees
	Checked    int64 // final pass: skip-filter decisions taken
	Skipped    int64 // final pass: decisions that dropped the source
}

// MeanIterations returns average Link loop iterations per call.
func (s *LinkStats) MeanIterations() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Iterations) / float64(s.Calls)
}

// Add folds one LinkCounted result into s.
func (s *LinkStats) Add(iters, casFails int64, merged bool) {
	s.Calls++
	s.Iterations += iters
	s.CASFails += casFails
	if merged {
		s.Merges++
	}
	if iters > s.MaxIters {
		s.MaxIters = iters
	}
}

// Merge adds o into s.
func (s *LinkStats) Merge(o *LinkStats) {
	s.Calls += o.Calls
	s.Iterations += o.Iterations
	s.CASFails += o.CASFails
	s.Merges += o.Merges
	s.Checked += o.Checked
	s.Skipped += o.Skipped
	if o.MaxIters > s.MaxIters {
		s.MaxIters = o.MaxIters
	}
}

// sumStats merges per-worker accounting into one phase payload.
func sumStats(per []LinkStats) obs.PhaseStats {
	var total LinkStats
	for w := range per {
		total.Merge(&per[w])
	}
	return total.PhaseStats()
}

// PhaseStats converts the accounting into the observability payload.
// Every Link call corresponds to one edge handed to the phase, so
// Edges == Links here; phases that skip edges without calling Link
// report the difference themselves.
func (s *LinkStats) PhaseStats() obs.PhaseStats {
	return obs.PhaseStats{
		Edges:      s.Calls,
		Links:      s.Calls,
		Iters:      s.Iterations,
		MaxIters:   s.MaxIters,
		CASRetries: s.CASFails,
		Merges:     s.Merges,
		Checked:    s.Checked,
		Skipped:    s.Skipped,
	}
}

// LinkCounted is Link returning its accounting: the local loop
// iterations of the call, its failed hook CASes, and whether its CAS
// united two trees. The control flow is identical to Link; duplication
// keeps the uninstrumented hot path free of counters, and the
// equivalence is pinned by TestLinkCountedMatchesLink. Returning the
// counts instead of storing through a shared struct lets callers keep
// them in chunk-local accumulators (LinkStats.Add).
func LinkCounted(p Parent, u, v graph.V) (iters, casFails int64, merged bool) {
	// The entry comparison counts as one local iteration, matching the
	// paper's accounting: an edge whose trees already converged runs "a
	// single local iteration of link for validation" (Section V-A).
	iters = 1
	p1 := p.Get(u)
	p2 := p.Get(v)
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

// RunStats is the full Table II record for one Afforest execution.
type RunStats struct {
	Link LinkStats
	// MaxDepth is the deepest tree observed at phase boundaries (after
	// each link phase, before its compress).
	MaxDepth int
	// Rounds is the number of neighbor rounds executed.
	Rounds int
}

// RunInstrumented executes Afforest exactly like Run while collecting
// RunStats. Each chunk accumulates its stats in a chunk-local struct,
// folded into a worker-private slot once per chunk and merged at phase
// boundaries, so the measured algorithm is the same algorithm. When opt.Observer is also
// set, it receives the same phase tree Run would emit.
func RunInstrumented(g *graph.CSR, opt Options) (Parent, *RunStats) {
	n := g.NumVertices()
	p := NewParent(n)
	rs := &RunStats{Rounds: opt.rounds()}
	if n == 0 {
		return p, rs
	}
	ob := obs.Multi(opt.Observer, &runStatsObserver{rs: rs})
	afterLink := func() {
		if d := p.MaxDepth(); d > rs.MaxDepth {
			rs.MaxDepth = d
		}
	}
	run(g, opt, p, ob, afterLink)
	return p, rs
}

// runStatsObserver folds every phase's stats into a RunStats — the
// Table II accounting expressed as an Observer. Phases without link
// work (compress, sample) contribute zeros.
type runStatsObserver struct {
	rs *RunStats
}

func (o *runStatsObserver) BeginPhase(string) obs.SpanID { return 0 }

func (o *runStatsObserver) EndPhase(_ obs.SpanID, st obs.PhaseStats) {
	o.rs.Link.Calls += st.Links
	o.rs.Link.Iterations += st.Iters
	o.rs.Link.CASFails += st.CASRetries
	o.rs.Link.Merges += st.Merges
	if st.MaxIters > o.rs.Link.MaxIters {
		o.rs.Link.MaxIters = st.MaxIters
	}
}

// LinkAllObserved is LinkAllGrain emitting one link_all span with the
// phase's accounting through ob. A nil observer falls through to the
// uninstrumented pass.
func LinkAllObserved(g *graph.CSR, p Parent, parallelism, edgeGrain int, ob obs.Observer) {
	n := g.NumVertices()
	if n == 0 {
		return
	}
	offsets, targets := g.Adjacency(0, n)
	opt := Options{Parallelism: parallelism, EdgeGrain: edgeGrain}
	span := beginPhase(ob, obs.PhaseLinkAll)
	endPhase(ob, span, linkRemaining(p, offsets, targets, 0, false, 0, opt, ob != nil))
}

// EdgesProcessed measures the work saved by sampling and skipping: it
// runs Afforest and returns the number of arcs handed to Link — the sum
// of Links over the run's phases, so exactly what Run processes —
// together with the total arc count.
func EdgesProcessed(g *graph.CSR, opt Options) (processed, total int64) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0
	}
	var rs RunStats
	run(g, opt, NewParent(n), &runStatsObserver{rs: &rs}, nil)
	return rs.Link.Calls, g.NumArcs()
}
