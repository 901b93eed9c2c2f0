package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

// workload is one graph family: the static phase's graph, and the
// graphs the serve and cluster phases run on.
type workload struct {
	name    string
	main    func(seed uint64) *graph.CSR
	serve   func(seed uint64) *graph.CSR
	cluster func(seed uint64) *graph.CSR
}

// The two families trade which layer dominates (see metrics.json):
// kron is skewed (hubs, a giant component and ~400 k small ones), so the
// facade census and hub imbalance show; urand is uniform with a 16 MiB π
// far beyond L2, so the kernel's neighbor rounds dominate. Both serve
// 2^18-vertex graphs: on the static graphs a census refresh keeps the
// CPUs busy for 70-90 ms of every 250 ms, and the serve p50s then moved
// by up to half whenever the host stole CPU time. The kron one still
// has ~88 k components to sort per refresh; the urand one has few.
//
// The cluster graphs are small enough that a run holds hundreds of
// writes, each a full ghost-label exchange (~15-30 ms on a 2-vCPU VM),
// so the write p50 is a median of many samples. Both have about 1 M
// edges. The urand one has degree 16 because then every seed's bulk
// load takes one exchange round; at degree 8 it took one or two rounds
// depending on the seed, and the load cost 30% more with two.
var workloads = map[string]workload{
	"kron": {
		name:    "kron",
		main:    func(s uint64) *graph.CSR { return gen.Kronecker(20, 16, gen.Graph500, s) },
		serve:   func(s uint64) *graph.CSR { return gen.Kronecker(18, 16, gen.Graph500, s) },
		cluster: func(s uint64) *graph.CSR { return gen.Kronecker(16, 16, gen.Graph500, s) },
	},
	"urand": {
		name:    "urand",
		main:    func(s uint64) *graph.CSR { return gen.URandDegree(1<<22, 8, s) },
		serve:   func(s uint64) *graph.CSR { return gen.URandDegree(1<<18, 8, s) },
		cluster: func(s uint64) *graph.CSR { return gen.URandDegree(1<<17, 16, s) },
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inputs are a run's generated graphs, as binary .csr files the phases
// load (the load is part of set-up), with their oracle labelings.
type inputs struct {
	mainPath, clusterPath, servePath       string
	mainOracle, clusterOracle, serveOracle []graph.V
	mainEdges, clusterEdges                int64
}

// prepareInputs generates (or reuses) the workload's graphs for seed and
// computes their oracle labels. None of this is timed. The cache keeps
// one seed per workload, so disk use stays bounded across many seeds.
func prepareInputs(w workload, seed uint64, root string) (*inputs, error) {
	dir := filepath.Join(root, w.name, strconv.FormatUint(seed, 10))
	if err := evictOtherSeeds(filepath.Join(root, w.name), dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{
		mainPath:    filepath.Join(dir, "main.csr"),
		servePath:   filepath.Join(dir, "serve.csr"),
		clusterPath: filepath.Join(dir, "cluster.csr"),
	}
	var err error
	if in.mainOracle, in.mainEdges, err = cachedGraph(in.mainPath, func() *graph.CSR { return w.main(seed) }); err != nil {
		return nil, err
	}
	if in.serveOracle, _, err = cachedGraph(in.servePath, func() *graph.CSR { return w.serve(seed) }); err != nil {
		return nil, err
	}
	if in.clusterOracle, in.clusterEdges, err = cachedGraph(in.clusterPath, func() *graph.CSR { return w.cluster(seed) }); err != nil {
		return nil, err
	}
	return in, nil
}

func evictOtherSeeds(parent, keep string) error {
	entries, err := os.ReadDir(parent)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if p := filepath.Join(parent, e.Name()); p != keep {
			if err := os.RemoveAll(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// cachedGraph makes sure path holds the generated graph and returns its
// oracle labels and edge count.
func cachedGraph(path string, make func() *graph.CSR) ([]graph.V, int64, error) {
	g, err := graph.LoadFile(path)
	if err != nil {
		g = make()
		// The extension picks the format, so the temporary name keeps it.
		tmp := strings.TrimSuffix(path, ".csr") + ".part.csr"
		if err := graph.SaveFile(tmp, g); err != nil {
			return nil, 0, fmt.Errorf("caching %s: %w", path, err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, 0, err
		}
	}
	return oracleLabels(g), g.NumEdges(), nil
}

// dsu is the serial union-find oracle. Roots are always their set's
// minimum id, so find gives the min-id labels every layer must match.
type dsu []graph.V

// newDSU starts from a labeling whose labels are roots (a min-id
// labeling is one).
func newDSU(labels []graph.V) dsu { return append(dsu(nil), labels...) }

func (d dsu) find(v graph.V) graph.V {
	for d[v] != v {
		d[v] = d[d[v]]
		v = d[v]
	}
	return v
}

func (d dsu) union(u, v graph.V) {
	ru, rv := d.find(u), d.find(v)
	switch {
	case ru < rv:
		d[rv] = ru
	case rv < ru:
		d[ru] = rv
	}
}

func (d dsu) labels() []graph.V {
	out := make([]graph.V, len(d))
	for v := range d {
		out[v] = d.find(graph.V(v))
	}
	return out
}

func (d dsu) components() int {
	c := 0
	for v := range d {
		if d[v] == graph.V(v) {
			c++
		}
	}
	return c
}

func oracleLabels(g *graph.CSR) []graph.V {
	d := make(dsu, g.NumVertices())
	for v := range d {
		d[v] = graph.V(v)
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.V(u)) {
			if v > graph.V(u) {
				d.union(graph.V(u), v)
			}
		}
	}
	return d.labels()
}

// firstMismatch returns the first vertex whose label differs, or -1.
func firstMismatch(got, want []graph.V) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}
