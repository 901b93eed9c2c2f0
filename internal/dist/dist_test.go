package dist_test

import (
	"testing"

	"afforest/internal/cluster"
	"afforest/internal/gen"
	"afforest/internal/validate"
)

// TestDistributedMatchesOracleOnSuite runs the ghost-label exchange on
// real loopback shards laid out by Partitioning, over the generator
// suite at 1, 2, 4 and 7 shards (7 leaves an uneven last block), and
// requires an oracle-equivalent labeling from every load.
func TestDistributedMatchesOracleOnSuite(t *testing.T) {
	for _, sg := range gen.Suite() {
		g := sg.Build(9, 33)
		for _, nodes := range []int{1, 2, 4, 7} {
			l, err := cluster.StartLocal(g.NumVertices(), nodes, cluster.Config{})
			if err != nil {
				t.Fatalf("%s/%d shards: StartLocal: %v", sg.Name, nodes, err)
			}
			err = l.Router.LoadGraph(g)
			labels, lerr := l.Router.GlobalLabels()
			st := l.Router.Stats()
			l.Close()
			if err != nil || lerr != nil {
				t.Fatalf("%s/%d shards: load %v, labels %v", sg.Name, nodes, err, lerr)
			}
			if err := validate.Labeling(g, labels); err != nil {
				t.Fatalf("%s/%d shards: %v", sg.Name, nodes, err)
			}
			if st.Shards != nodes && g.NumVertices() >= nodes {
				t.Fatalf("%s: stats report %d shards, want %d", sg.Name, st.Shards, nodes)
			}
			if st.Rounds < 1 {
				t.Fatalf("%s/%d shards: %d rounds", sg.Name, nodes, st.Rounds)
			}
		}
	}
}
