package dist

import "afforest/internal/graph"

// Stats quantifies one distributed LP execution.
type Stats struct {
	Rounds   int   // relaxation supersteps
	Messages int64 // halo label updates delivered
}

// LP is the distributed Min-Label Propagation comparator: the classic
// size-1-halo BSP scheme the paper credits for LP's distributed-memory
// scalability (Section II-B). Each node owns a vertex block and a halo
// of ghost labels; every superstep performs ONE synchronous relaxation
// sweep over the owned vertices (Pregel-style), then exchanges updated
// boundary labels. The winning minimum label therefore crawls one hop
// per superstep — rounds scale with the graph *diameter*, and each
// round pays a full boundary exchange. The Afforest-style exchange in
// internal/cluster instead collapses distances inside each shard with
// local union-find, so its rounds scale with the partition quotient
// diameter; ExtDist quantifies the traffic gap on high-diameter graphs.
func LP(g *graph.CSR, numNodes int) ([]graph.V, Stats) {
	n := g.NumVertices()
	part := NewPartitioning(n, numNodes)
	var st Stats

	labels := make([]graph.V, n)
	for v := range labels {
		labels[v] = graph.V(v)
	}

	type lpNode struct {
		lo, hi   int
		halo     map[graph.V]graph.V // remote vertex -> last known label
		boundary []graph.V           // owned vertices with remote neighbors
	}
	nodes := make([]*lpNode, part.NumNodes)
	for id := range nodes {
		lo, hi := part.Range(id)
		nd := &lpNode{lo: lo, hi: hi, halo: make(map[graph.V]graph.V)}
		for u := lo; u < hi; u++ {
			remote := false
			for _, v := range g.Neighbors(graph.V(u)) {
				if int(v) < lo || int(v) >= hi {
					remote = true
					nd.halo[v] = v
				}
			}
			if remote {
				nd.boundary = append(nd.boundary, graph.V(u))
			}
		}
		nodes[id] = nd
	}

	labelOf := func(nd *lpNode, v graph.V) graph.V {
		if int(v) >= nd.lo && int(v) < nd.hi {
			return labels[v]
		}
		return nd.halo[v]
	}

	next := make([]graph.V, n)
	for {
		anyChange := false

		// One synchronous relaxation sweep per node (Jacobi-style: all
		// reads see the labels from the start of the superstep, and the
		// results land in next). A node reads only its own labels and
		// its halo, so running the nodes one after another is the same
		// superstep as running them concurrently.
		for _, nd := range nodes {
			for u := nd.lo; u < nd.hi; u++ {
				m := labels[u]
				for _, v := range g.Neighbors(graph.V(u)) {
					m = min(m, labelOf(nd, v))
				}
				next[u] = m
				anyChange = anyChange || m < labels[u]
			}
		}
		labels, next = next, labels
		st.Rounds++

		if !anyChange && st.Rounds > 1 {
			break
		}

		// Delta halo exchange: each node publishes a boundary label to a
		// neighbor node only when it changed since the last publish —
		// the standard optimization; counting full halos every round
		// would overstate LP's traffic. A second remote neighbor on the
		// same node finds the label already delivered.
		for _, nd := range nodes {
			for _, u := range nd.boundary {
				lbl := labels[u]
				for _, v := range g.Neighbors(u) {
					if int(v) >= nd.lo && int(v) < nd.hi {
						continue
					}
					if halo := nodes[part.Owner(v)].halo; halo[u] != lbl {
						halo[u] = lbl
						st.Messages++
					}
				}
			}
		}
	}
	return labels, st
}
