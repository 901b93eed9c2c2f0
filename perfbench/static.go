package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"afforest"
	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// corePhases are the Afforest phases core.Options.Observer reports.
var corePhases = []string{"neighbor_round", "compress", "sample_frequent", "final_skip_pass", "final_compress"}

// staticPhase is the closed-loop phase: one caller labels the workload
// graph with afforest.ConnectedComponents (default options) back to back
// and checks every labeling against the oracle. The run calls slice
// several times, between the cluster phase's slices.
type staticPhase struct {
	r     *run
	in    *inputs
	g     *afforest.Graph
	edges float64
	setup float64

	cc []float64 // untraced: ns/edge of every call

	// Traced: each iteration times, in turn, the plain facade call,
	// core.Run alone, the facade call with Pool.SetMetrics attached, and
	// core.Run with an Observer; the facade minus core.Run is the census
	// the facade builds on top of the labels.
	csr                   *graph.CSR
	plain, tracedCC, runs []float64
	phases                map[string][]float64
	pool                  *concurrent.Pool
	pm                    *obs.PoolMetrics
	mu                    sync.Mutex
	lastBusy              int64
	weighted, busy        float64
}

// newStatic loads the graph (the set-up, repeated setupReps times) and
// warms up with one untimed call that faults in the graph and grows the
// heap once.
func (r *run) newStatic(in *inputs) (*staticPhase, error) {
	p := &staticPhase{r: r, in: in, edges: float64(in.mainEdges), phases: map[string][]float64{}}
	var setup []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		g, err := afforest.LoadGraph(in.mainPath)
		if err != nil {
			return nil, fmt.Errorf("static: loading input: %w", err)
		}
		setup = append(setup, time.Since(t).Seconds())
		p.g = g
	}
	p.setup = median(setup)
	p.timeCC()
	if r.traced {
		if err := p.traceSetup(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *staticPhase) check(what string, labels []graph.V) {
	if v := firstMismatch(labels, p.in.mainOracle); v >= 0 {
		p.r.fail("static: %s label of vertex %d differs from the union-find oracle", what, v)
	}
}

// timeCC times one facade call and returns its ns per edge.
func (p *staticPhase) timeCC() float64 {
	t := time.Now()
	res := afforest.ConnectedComponents(p.g, afforest.Options{})
	d := time.Since(t)
	p.r.spans.add(0, "afforest", "afforest.ConnectedComponents", t, d)
	p.r.op(nil)
	p.check("ConnectedComponents", res.Labels())
	return float64(d.Nanoseconds()) / p.edges
}

// slice runs the loop for d.
func (p *staticPhase) slice(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		if p.r.traced {
			p.traceIteration()
		} else {
			p.cc = append(p.cc, p.timeCC())
		}
	}
}

// finish reports the phase's metrics and returns its set-up time.
func (p *staticPhase) finish() float64 {
	if !p.r.traced {
		p.r.addE2E("cc_ns_per_edge", median(p.cc), "ns")
		p.r.samples["cc_ns_per_edge"] = p.cc
		fmt.Fprintf(os.Stderr, "static: %d calls\n", len(p.cc))
		return p.setup
	}
	p.r.addLayer("core.run_ms", median(p.runs), "ms")
	p.r.addLayer("afforest.census_ms", median(p.plain)*p.edges/1e6-median(p.runs), "ms")
	for _, name := range corePhases {
		p.r.addLayer("core.phase_ms."+name, median(p.phases[name]), "ms")
	}
	imbalance := 0.0
	if p.busy > 0 {
		imbalance = p.weighted / p.busy
	}
	p.r.addLayer("concurrent.imbalance", imbalance, "ratio")
	p.r.overhead("cc_ns_per_edge", median(p.tracedCC), median(p.plain), "ns")
	return p.setup
}

// traceSetup times graph.LoadFile, takes the exact arc counts, and
// prepares the busy-weighted max/mean imbalance over every pool job of
// the traced facade calls.
func (p *staticPhase) traceSetup() error {
	var loads []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		g, err := graph.LoadFile(p.in.mainPath)
		if err != nil {
			return fmt.Errorf("static: loading input: %w", err)
		}
		d := time.Since(t)
		p.r.spans.add(0, "internal/graph", "graph.LoadFile", t, d)
		loads = append(loads, ms(d))
		p.csr = g
	}
	p.r.addLayer("graph.load_ms", median(loads), "ms")

	processed, total := core.EdgesProcessed(p.csr, core.DefaultOptions())
	p.r.addLayer("core.final_arcs_frac", float64(processed)/float64(total), "ratio")

	p.pm = obs.NewPoolMetrics(obs.NewRegistry())
	p.pm.OnJob = func(imbalance float64) {
		p.mu.Lock()
		defer p.mu.Unlock()
		b := p.pm.Busy.Value()
		p.weighted += imbalance * float64(b-p.lastBusy)
		p.busy += float64(b - p.lastBusy)
		p.lastBusy = b
	}
	p.pool = concurrent.DefaultPool()
	return nil
}

func (p *staticPhase) traceIteration() {
	r := p.r
	p.plain = append(p.plain, p.timeCC())

	t := time.Now()
	res := core.Run(p.csr, core.DefaultOptions())
	d := time.Since(t)
	r.spans.add(0, "internal/core", "core.Run", t, d)
	r.op(nil)
	p.check("core.Run", res.Labels())
	p.runs = append(p.runs, ms(d))

	p.pool.SetMetrics(p.pm)
	p.tracedCC = append(p.tracedCC, p.timeCC())
	p.pool.SetMetrics(nil)

	tr := obs.NewTracer()
	opt := core.DefaultOptions()
	opt.Observer = tr
	t = time.Now()
	res = core.Run(p.csr, opt)
	d = time.Since(t)
	r.op(nil)
	p.check("observed core.Run", res.Labels())
	parent := r.spans.add(0, "internal/core", "core.Run(observed)", t, d)
	sums := map[string]float64{}
	ids := map[obs.SpanID]int64{}
	for _, s := range tr.Spans() {
		pid := parent
		if s.Parent >= 0 {
			pid = ids[s.Parent]
		}
		ids[s.ID] = r.spans.addRaw(pid, "internal/core", s.Name, "bench", r.spans.benchNS(t)+s.StartNS, s.DurNS)
		sums[s.Name] += float64(s.DurNS) / 1e6
	}
	for _, name := range corePhases {
		p.phases[name] = append(p.phases[name], sums[name])
	}
}
