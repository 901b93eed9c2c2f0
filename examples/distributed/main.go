// Distributed demonstrates the paper's future-work direction (§VII):
// Afforest-style connectivity on a message-passing cluster. It boots a
// real sharded cluster on loopback TCP for each shard count; every
// shard computes its local forest with Afforest's link/compress and the
// router reconciles boundary labels in BSP exchange rounds. The
// printout compares the wire traffic against classic halo-exchange
// Label Propagation on the same partitioning.
package main

import (
	"fmt"
	"log"

	"afforest/internal/cluster"
	"afforest/internal/dist"
	"afforest/internal/gen"
	"afforest/internal/graph"
)

func main() {
	g := gen.Road(1<<17, 11)
	fmt.Printf("road graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())
	_, sizes := graph.SequentialCC(g)

	fmt.Printf("%-6s  %-40s  %-28s  %s\n", "nodes", "afforest-style cluster", "label-propagation", "traffic saved")
	for _, nodes := range []int{2, 4, 8, 16} {
		labelsA, stA := loadCluster(g, nodes)
		labelsL, stL := dist.LP(g, nodes)
		if countDistinct(labelsA) != len(sizes) || countDistinct(labelsL) != len(sizes) {
			log.Fatalf("component count mismatch at %d nodes", nodes)
		}
		fmt.Printf("%-6d  rounds=%-3d pairs=%-9d bytes=%-11d  rounds=%-3d msgs=%-12d  %.1fx\n",
			nodes, stA.Rounds, stA.Messages, stA.BytesSent+stA.BytesRecv, stL.Rounds, stL.Messages,
			float64(stL.Messages)/float64(max(stA.Messages, 1)))
	}
	fmt.Println("\nboth schemes agree with the sequential oracle on every node count")
}

// loadCluster streams g into a fresh loopback cluster of the given
// width and returns the assembled labels and the router's wire tallies.
func loadCluster(g *graph.CSR, nodes int) ([]graph.V, cluster.RouterStats) {
	l, err := cluster.StartLocal(g.NumVertices(), nodes, cluster.Config{})
	if err != nil {
		log.Fatalf("starting %d-shard cluster: %v", nodes, err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(g); err != nil {
		log.Fatalf("loading %d-shard cluster: %v", nodes, err)
	}
	labels, err := l.Router.GlobalLabels()
	if err != nil {
		log.Fatalf("reading %d-shard labels: %v", nodes, err)
	}
	return labels, l.Router.Stats()
}

func countDistinct(labels []graph.V) int {
	m := map[graph.V]bool{}
	for _, l := range labels {
		m[l] = true
	}
	return len(m)
}
