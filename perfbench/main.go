// Command perfbench is the repository benchmark. Each workload is one
// graph family; a run drives three phases against the program's public
// functions, splitting --seconds by phaseShare:
//
//   - static: closed loop, one caller, afforest.ConnectedComponents on the
//     workload graph;
//   - serve: serve.Bootstrap over a smaller graph of the same family with
//     a durable WAL, driven by an open-loop HTTP client over loopback;
//   - cluster: cluster.StartLocal with two shards, bulk Router.LoadGraph of
//     a still smaller graph of the family on fresh clusters, then a
//     closed loop of Router.AddEdges + Router.Connected.
//
// The host's speed drifts over seconds, so static and cluster run in
// alternating slices spread over the whole run, with serve in one block
// in the middle; each of their medians then samples the whole run, not
// one stretch of it.
//
// Every workload prints every metric, so workloads compare metric by
// metric. All inputs come from --seed; every output is checked against a
// serial union-find oracle. With --trace 1 the run reports per-layer
// metrics instead, measured by hooks the layers already expose, and
// writes a span file and a per-layer self-time summary.
//
// Run it through run.sh, which builds this package first:
//
//	bash perfbench/run.sh --workload kron --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workDir holds everything a run writes: the input cache, WAL
// directories, span files and result records. It is relative to the
// directory the benchmark runs from (the repository root).
const workDir = ".bench_build/perfbench"

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 40, "measured seconds, split over the three phases")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r := newRun(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, workDir)
	res, err := r.execute()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r.report(os.Stderr)
	if err := r.record(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times the static and serve phases repeat their
// set-up; the reported set-up time is the median. The cluster phase sets
// up once per slice.
const setupReps = 3

// slices is how many slices the static and cluster phases are cut into.
const slices = 8

// phaseShare splits a run's measured time. Static needs the least
// because its median over back-to-back calls settles quickly; serve's
// upper quartile and the cluster's write median (each write a full
// ghost-label exchange) need the samples.
var phaseShare = map[string]float64{"static": 0.2, "serve": 0.4, "cluster": 0.4}

// run is one invocation: a workload at a seed, measured for a fixed
// time, traced or not.
type run struct {
	w      workload
	seed   uint64
	total  time.Duration // measured time, split by phaseShare
	traced bool
	dir    string

	e2e, layer map[string]metric
	attempted  int64
	failed     int64
	wrong      []string // correctness failures, reported and failing the run
	spans      *tracer  // nil when untraced
	steal      float64  // CPU seconds the hypervisor took during the run
	samples    map[string][]float64
}

func newRun(w workload, seed uint64, total time.Duration, traced bool, dir string) *run {
	r := &run{
		w: w, seed: seed, total: total, traced: traced, dir: dir,
		e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string][]float64{},
	}
	if traced {
		r.spans = newTracer()
	}
	return r
}

// execute prepares the inputs (untimed), runs the three phases, and
// assembles the result: end-to-end metrics untraced, per-layer traced.
func (r *run) execute() (result, error) {
	in, err := prepareInputs(r.w, r.seed, filepath.Join(r.dir, "inputs"))
	if err != nil {
		return result{}, err
	}
	debug.FreeOSMemory() // input generation leaves a large heap behind
	steal := stealSeconds()
	defer func() { r.steal = stealSeconds() - steal }()
	st, err := r.newStatic(in)
	if err != nil {
		return result{}, err
	}
	cl := r.newCluster(in)
	var serveSetup float64
	for k := 0; k < slices; k++ {
		if k == slices/2 {
			if serveSetup, err = r.serve(in); err != nil {
				return result{}, err
			}
			runtime.GC()
		}
		st.slice(r.budget("static") / slices)
		if err := cl.slice(r.budget("cluster") / slices); err != nil {
			return result{}, err
		}
	}
	clusterSetup, err := cl.finish()
	if err != nil {
		return result{}, err
	}
	r.addE2E("setup_s", st.finish()+serveSetup+clusterSetup, "s")
	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed}
	if r.traced {
		res.Metrics = r.layer
		if err := r.spans.write(filepath.Join(r.dir, "trace"), r.tag()); err != nil {
			return result{}, err
		}
	} else {
		res.Metrics = r.e2e
	}
	return res, nil
}

func (r *run) tag() string {
	trace := 0
	if r.traced {
		trace = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", r.w.name, r.seed, trace)
}

// budget is the measured time of one phase.
func (r *run) budget(phase string) time.Duration {
	return time.Duration(phaseShare[phase] * float64(r.total))
}

func (r *run) addE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *run) addLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// overhead records a traced-minus-untraced median for an end-to-end
// metric measured both ways in a traced run.
func (r *run) overhead(name string, traced, untraced float64, unit string) {
	r.addLayer("trace_overhead."+name, traced-untraced, unit)
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

// fail records a correctness failure. The run still finishes, so every
// failure is reported, and then exits non-zero.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, msg)
	}
	if len(r.wrong) == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
	}
}

// report prints every metric by name with its unit, plus the host, for
// a human reading standard error.
func (r *run) report(f *os.File) {
	fmt.Fprintf(f, "perfbench %s  %s\n", r.tag(), hostLine())
	ms := r.e2e
	if r.traced {
		ms = r.layer
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Fprintf(f, "  attempted %d, failed %d, correct %v, steal %.2f s\n", r.attempted, r.failed, len(r.wrong) == 0, r.steal)
	for _, w := range r.wrong {
		fmt.Fprintf(f, "  check failed: %s\n", w)
	}
}

// record writes the result together with the seed, the host
// fingerprint (numbers are compared only within one host) and the raw
// samples behind each end-to-end metric.
func (r *run) record(res result) error {
	dir := filepath.Join(r.dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"workload": r.w.name,
		"seed":     r.seed,
		"seconds":  r.total.Seconds(),
		"traced":   r.traced,
		"host":     host(),
		"steal_s":  r.steal,
		"wrong":    r.wrong,
		"result":   res,
		"samples":  r.samples,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.tag()+".json"), b, 0o644)
}
