package dist

import (
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/validate"
)

func TestDistLPMatchesOracleOnSuite(t *testing.T) {
	for _, sg := range gen.Suite() {
		g := sg.Build(9, 44)
		for _, nodes := range []int{1, 3, 8} {
			labels, st := LP(g, nodes)
			if err := validate.Labeling(g, labels); err != nil {
				t.Fatalf("%s/%d nodes: %v", sg.Name, nodes, err)
			}
			if st.Rounds < 1 {
				t.Fatalf("%s: %d rounds", sg.Name, st.Rounds)
			}
		}
	}
}

func TestDistLPEdgeless(t *testing.T) {
	g := graph.Build(nil, graph.BuildOptions{NumVertices: 64})
	labels, st := LP(g, 4)
	for v, l := range labels {
		if l != graph.V(v) {
			t.Fatalf("edgeless vertex %d labeled %d", v, l)
		}
	}
	if st.Messages != 0 {
		t.Fatalf("edgeless graph sent %d messages", st.Messages)
	}
}
