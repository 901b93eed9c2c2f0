package testkit

import (
	"testing"

	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// TestPinnedReplayBitExact pins the deterministic-replay contract of
// the default Afforest: every phase schedules its chunks through the
// pool's ticket ordinals, so a pinned ScheduleID must reproduce the
// identical label array — bit for bit, not merely partition-equivalent
// — across repeated runs, in both deterministic modes.
func TestPinnedReplayBitExact(t *testing.T) {
	algo, err := LookupAlgo("afforest")
	if err != nil {
		t.Fatal(err)
	}
	graphs := []string{"path-1024", "bridged-cliques-32", "kron-10"}
	for _, name := range graphs {
		c, err := CaseByName(name)
		if err != nil {
			// Corpus names evolve; skip rather than hard-code its contents.
			t.Logf("skipping %s: %v", name, err)
			continue
		}
		g := c.Build()
		for _, serial := range []bool{true, false} {
			for _, seed := range []uint64{1, 0xbeef} {
				var first []graph.V
				for rep := 0; rep < 3; rep++ {
					labels := runPinned(g, algo, seed, serial)
					if rep == 0 {
						first = labels
						continue
					}
					for v := range labels {
						if labels[v] != first[v] {
							t.Fatalf("%s seed=%#x serial=%v: replay %d diverged at vertex %d: %d != %d",
								name, seed, serial, rep, v, labels[v], first[v])
						}
					}
				}
			}
		}
		// And the full Replay path (with audits) validates under the
		// same pinned schedules.
		for _, seed := range []uint64{1, 0xbeef} {
			id := ScheduleID{Graph: name, Algo: "afforest", Seed: seed, Workers: 2, Serial: true}
			if err := Replay(id); err != nil {
				t.Errorf("Replay(%s): %v", id, err)
			}
		}
	}
}

// runPinned executes one algorithm run under a pinned deterministic
// schedule and returns a private copy of its labels.
func runPinned(g *graph.CSR, algo Algo, seed uint64, serial bool) []graph.V {
	schedMu.Lock()
	defer schedMu.Unlock()
	concurrent.SetDeterministic(&concurrent.DetConfig{Seed: seed, Serial: serial})
	defer concurrent.SetDeterministic(nil)
	labels := algo.Run(g, 2, seed)
	return append([]graph.V(nil), labels...)
}
