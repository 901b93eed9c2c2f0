package core

import (
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// RunAudited executes the full Afforest algorithm through Run's phase
// driver (counted loop bodies: LinkCounted in place of Link, identical
// loops and grains) while invoking audit(p, phase) every time a phase span
// closes, with the phase's obs name ("neighbor_round", "compress",
// "sample_frequent", "final_skip_pass", "final_compress",
// "afforest_run"). The audit runs on the submitting goroutine between
// phases — no parallel work is in flight — so it may read π freely and
// check invariants that only hold at phase boundaries (e.g. depth ≤ 1
// after a full compress). This is the hook the correctness harness
// (internal/testkit) hangs its per-phase invariant audits on.
//
// Any Observer already present in opt still receives the same phase
// tree Run would emit.
func RunAudited(g *graph.CSR, opt Options, audit func(p Parent, phase string)) Parent {
	n := g.NumVertices()
	p := NewParent(n)
	if n == 0 {
		// The contract is "at least one boundary per run": an empty graph
		// still closes its run phase so auditors can tell "nothing to do"
		// from "hook never fired".
		audit(p, obs.PhaseRun)
		return p
	}
	ao := &auditObserver{p: p, audit: audit}
	run(g, opt, p, obs.Multi(opt.Observer, ao), nil)
	return p
}

// auditObserver adapts the Observer span protocol into phase-boundary
// callbacks: it allocates its own span ids and remembers each open
// span's name, so EndPhase can hand the name to the audit function.
// Spans nest strictly (the phase driver opens/closes them LIFO under the
// root), and all calls come from the submitting goroutine, so a plain
// map without locking is enough.
type auditObserver struct {
	p     Parent
	audit func(p Parent, phase string)
	next  obs.SpanID
	open  map[obs.SpanID]string
}

func (a *auditObserver) BeginPhase(name string) obs.SpanID {
	if a.open == nil {
		a.open = make(map[obs.SpanID]string)
	}
	a.next++
	a.open[a.next] = name
	return a.next
}

func (a *auditObserver) EndPhase(id obs.SpanID, _ obs.PhaseStats) {
	name, ok := a.open[id]
	if !ok {
		return
	}
	delete(a.open, id)
	a.audit(a.p, name)
}
