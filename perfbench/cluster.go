package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"afforest/internal/cluster"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

const (
	clusterShards    = 2
	clusterWriteBulk = 64
	// loadsPerSlice is how many fresh clusters each slice boots and
	// bulk-loads per part; the writes go to the last one.
	loadsPerSlice = 2
	// exactWrites is the prefix of the write loop the exact wire counts
	// cover; the loop always runs at least this far, so the counts
	// repeat exactly for a seed.
	exactWrites = 16
	// pullEvery bounds how many traced writes pass between pulls of the
	// shards' span rings, which hold 4096 spans each.
	pullEvery = 8
)

// wireOps maps the RPC span names of cluster.Config.Trace to the
// protocol's op names.
var wireOps = map[string]string{
	obs.WireEdges: "opEdges", obs.WireOutbox: "opOutbox", obs.WireIngest: "opIngest",
	obs.WireAbsorb: "opAbsorb", obs.WireQuery: "opQuery",
}

// localCluster is an in-process cluster; when booted with Config.Trace
// it keeps the recorder and the wall time it was created at, which is
// the epoch of the router's spans.
type localCluster struct {
	*cluster.Local
	wire  *obs.WireTrace
	epoch time.Time
}

// clusterPhase is the sharded phase, cut into slices the run calls
// between the static phase's slices. Each slice boots fresh two-shard
// clusters (shard parallelism 1), bulk-loads the cluster graph into each
// with Router.LoadGraph, and then runs a closed loop with one caller of
// Router.AddEdges(64 random edges), each followed by one
// Router.Connected, until the slice ends. A traced run boots a second,
// traced cluster in every slice and alternates the loop between the
// two, so host noise falls on both alike.
type clusterPhase struct {
	r     *run
	in    *inputs
	edges float64

	slices        int
	setup         []float64    // graph.LoadFile + cluster.StartLocal, untraced clusters
	load          [2][]float64 // ns/edge, [untraced, traced]
	writes, reads [2][]float64 // ms
	exchange      []float64    // p50 of afforest_cluster_exchange_ns of each slice's untraced write cluster, ms
	self          map[string]float64
	iterations    int // traced loop iterations
}

func (r *run) newCluster(in *inputs) *clusterPhase {
	return &clusterPhase{r: r, in: in, edges: float64(in.clusterEdges), self: map[string]float64{}}
}

// boot loads the graph, starts a cluster on it and bulk-loads it, timing
// the set-up and the load; part 1 is traced.
func (p *clusterPhase) boot(part int) (*localCluster, error) {
	r := p.r
	t := time.Now()
	g, err := graph.LoadFile(p.in.clusterPath)
	if err != nil {
		return nil, fmt.Errorf("cluster: loading input: %w", err)
	}
	c := &localCluster{}
	cfg := cluster.Config{Parallelism: 1}
	if part == 1 {
		c.epoch = time.Now()
		c.wire = obs.NewWireTrace(1 << 16)
		cfg.Trace = c.wire
	}
	c.Local, err = cluster.StartLocal(g.NumVertices(), clusterShards, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: boot: %w", err)
	}
	d := time.Since(t)
	if part == 0 {
		p.setup = append(p.setup, d.Seconds())
	}
	r.spans.add(0, "internal/cluster", "graph.LoadFile+cluster.StartLocal", t, d)

	before := c.Router.Stats()
	t = time.Now()
	err = c.Router.LoadGraph(g)
	d = time.Since(t)
	r.op(err)
	r.spans.add(0, "internal/cluster", "cluster.Router.LoadGraph", t, d)
	if err != nil {
		c.Close()
		return nil, nil
	}
	p.load[part] = append(p.load[part], float64(d.Nanoseconds())/p.edges)
	if part == 0 && len(p.load[0]) == 1 {
		after := c.Router.Stats()
		wire := (after.BytesSent - before.BytesSent) + (after.BytesRecv - before.BytesRecv)
		r.addLayer("cluster.bytes_per_edge.load", float64(wire)/p.edges, "B")
	}
	r.checkCluster(c.Router, p.in.clusterOracle, "after LoadGraph")
	if c.wire != nil {
		// The load's spans overflow the shards' rings; only the
		// writes' spans are kept.
		if _, err := c.Router.ClusterTimeline(); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: pulling spans: %w", err)
		}
		c.wire.Reset()
	}
	return c, nil
}

// slice boots this slice's cluster(s) and runs the write loop for d.
// The first slice runs at least exactWrites writes on the untraced
// cluster, so the exact wire counts cover the same writes every run.
func (p *clusterPhase) slice(d time.Duration) error {
	r := p.r
	end := time.Now().Add(d)
	first := p.slices == 0
	p.slices++
	parts := 1
	if r.traced {
		parts = 2
	}
	var kept [2]*localCluster
	defer func() {
		for _, c := range kept {
			if c != nil {
				c.Close()
			}
		}
	}()
	for part := 0; part < parts; part++ {
		for i := 0; i < loadsPerSlice; i++ {
			c, err := p.boot(part)
			if err != nil {
				return err
			}
			if c == nil {
				return nil // LoadGraph failed; counted, and the slice is skipped
			}
			if kept[part] != nil {
				kept[part].Close()
			}
			kept[part] = c
		}
	}

	// Each cluster gets the same write sequence, drawn from the seed and
	// the slice number, so the inputs do not depend on timing and in a
	// traced run the untraced and the traced cluster see identical work.
	n := len(p.in.clusterOracle)
	var rngs [2]*rand.Rand
	var oracles [2]dsu
	for part := 0; part < parts; part++ {
		rngs[part] = rand.New(rand.NewSource(int64(r.seed)*104729 + int64(p.slices)))
		oracles[part] = newDSU(p.in.clusterOracle)
	}
	writes := 0
	before := kept[0].Router.Stats()
	for k := 0; time.Now().Before(end) || (first && k < exactWrites*parts); k++ {
		part := k % parts
		c, rng, oracle := kept[part], rngs[part], oracles[part]
		vtx := func() graph.V { return graph.V(rng.Intn(n)) }
		batch := make([]graph.Edge, clusterWriteBulk)
		for j := range batch {
			batch[j] = graph.Edge{U: vtx(), V: vtx()}
		}
		t := time.Now()
		_, err := c.Router.AddEdges(batch)
		d := time.Since(t)
		r.op(err)
		r.spans.add(0, "internal/cluster", "cluster.Router.AddEdges", t, d)
		if err == nil {
			p.writes[part] = append(p.writes[part], ms(d))
			for _, e := range batch {
				oracle.union(e.U, e.V)
			}
		}
		if part == 0 {
			writes++
		}
		if first && part == 0 && writes == exactWrites {
			after := c.Router.Stats()
			wire := (after.BytesSent - before.BytesSent) + (after.BytesRecv - before.BytesRecv)
			r.addLayer("cluster.bytes_per_edge.write", float64(wire)/(exactWrites*clusterWriteBulk), "B")
			r.addLayer("cluster.rounds_per_write", float64(after.Rounds-before.Rounds)/exactWrites, "rounds")
			r.addLayer("cluster.messages_per_write", float64(after.Messages-before.Messages)/exactWrites, "messages")
		}

		u, v := vtx(), vtx()
		t = time.Now()
		conn, err := c.Router.Connected(u, v)
		d = time.Since(t)
		r.op(err)
		r.spans.add(0, "internal/cluster", "cluster.Router.Connected", t, d)
		if err == nil {
			p.reads[part] = append(p.reads[part], ms(d))
			if want := oracle.find(u) == oracle.find(v); conn != want {
				r.fail("cluster: Connected(%d, %d) = %v, oracle says %v", u, v, conn, want)
			}
		}
		if part == 1 {
			p.iterations++
			if p.iterations%pullEvery == 0 {
				if err := r.pullWire(c, p.self); err != nil {
					return err
				}
			}
		}
	}
	for part := 0; part < parts; part++ {
		r.checkCluster(kept[part].Router, oracles[part].labels(), "after the writes")
	}
	if r.traced {
		ex := kept[0].Router.Registry().Histogram("afforest_cluster_exchange_ns", "", obs.DefaultLatencyBuckets).Snapshot()
		p.exchange = append(p.exchange, ex.Quantile(0.5)/1e6)
		return r.pullWire(kept[1], p.self)
	}
	return nil
}

// finish reports the phase's metrics and returns its set-up time.
func (p *clusterPhase) finish() (float64, error) {
	r := p.r
	if len(p.setup) == 0 || len(p.load[0]) == 0 || (r.traced && len(p.load[1]) == 0) {
		return 0, fmt.Errorf("cluster: every LoadGraph failed")
	}
	fmt.Fprintf(os.Stderr, "cluster: %d loads, %d writes, %d reads\n", len(p.load[0])+len(p.load[1]),
		len(p.writes[0])+len(p.writes[1]), len(p.reads[0])+len(p.reads[1]))
	if !r.traced {
		r.addE2E("cluster_load_ns_per_edge", median(p.load[0]), "ns")
		r.addE2E("cluster_write_p50_ms", quantile(p.writes[0], 0.5), "ms")

		r.samples["cluster_load_ns_per_edge"] = p.load[0]
		r.samples["cluster_write_ms"], r.samples["cluster_read_ms"] = p.writes[0], p.reads[0]
		return median(p.setup), nil
	}
	r.addLayer("cluster.exchange_ms.p50", median(p.exchange), "ms")
	for _, op := range []string{"opEdges", "opOutbox", "opIngest", "opAbsorb", "opQuery"} {
		r.addLayer("cluster.rpc_self_ms."+op, p.self[op]/float64(max(p.iterations, 1)), "ms")
	}
	r.overhead("cluster_load_ns_per_edge", median(p.load[1]), median(p.load[0]), "ns")
	r.overhead("cluster_write_p50_ms", quantile(p.writes[1], 0.5), quantile(p.writes[0], 0.5), "ms")
	r.addLayer("cluster.write_p90_ms", quantile(p.writes[0], 0.9), "ms")
	// Like the p90, the read p50 (~0.13 ms of loopback wake-ups) spread
	// up to 0.23 of its median between runs, so it is not gated.
	r.addLayer("cluster.read_p50_ms", quantile(p.reads[0], 0.5), "ms")
	return median(p.setup), nil
}

// checkCluster compares the cluster's global labels with the oracle.
func (r *run) checkCluster(rt *cluster.Router, want []graph.V, when string) {
	got, err := rt.GlobalLabels()
	if err != nil {
		r.fail("cluster: GlobalLabels %s: %v", when, err)
		return
	}
	if v := firstMismatch(got, want); v >= 0 {
		r.fail("cluster: global label of vertex %d %s differs from the union-find oracle", v, when)
	}
}

// pullWire pulls the traced cluster's spans recorded since the last
// pull, adds each RPC op's self time to self (the router-side RPC time
// minus the shard-side time that served it, from the merged timeline:
// framing, loopback and queueing), copies the spans into the run's
// trace, and empties the recorder. A shard closes its span after it has
// written the response, so on a busy host the span of a short op can
// end after the router's; such rows count as 0.
func (r *run) pullWire(c *localCluster, self map[string]float64) error {
	rows, err := c.Router.ClusterTimeline()
	if err != nil {
		return fmt.Errorf("cluster: pulling spans: %w", err)
	}
	for _, row := range rows {
		if op, ok := wireOps[row.Op]; ok {
			self[op] += float64(max(row.NS-row.SrvNS, 0)) / 1e6
		}
	}
	r.importWire(c)
	c.wire.Reset()
	return nil
}

// importWire adds the traced cluster's wire spans to the run's spans.
// Router spans and each shard's spans keep their own clocks; shard
// spans are tied to router spans by their remote parent ids.
func (r *run) importWire(c *localCluster) {
	spans := c.wire.Spans()
	type key struct {
		shard int // obs.RouterShard for router-side spans
		trace uint64
		id    uint32
	}
	onShard := func(s obs.WireSpan) bool {
		return s.Remote || s.Name == obs.WireDecode || s.Name == obs.WireWork || s.Name == obs.WireEncode
	}
	keyOf := func(s obs.WireSpan) key {
		if onShard(s) {
			return key{s.Shard, s.Trace, s.ID}
		}
		return key{obs.RouterShard, s.Trace, s.ID}
	}
	parentOf := func(s obs.WireSpan) key {
		if onShard(s) && !s.Remote {
			return key{s.Shard, s.Trace, s.Parent}
		}
		return key{obs.RouterShard, s.Trace, s.Parent}
	}
	// Parents start no later than their children and have lower ids
	// within one process, so this order imports parents first.
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if onShard(a) != onShard(b) {
			return !onShard(a)
		}
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		return a.ID < b.ID
	})
	offset := r.spans.benchNS(c.epoch)
	ids := map[key]int64{}
	for _, s := range spans {
		layer, clock := "internal/cluster/router", "router"
		if onShard(s) {
			layer, clock = "internal/cluster/shard", fmt.Sprintf("shard%d", s.Shard)
		}
		parent := ids[parentOf(s)]
		if s.Parent == 0 && !onShard(s) {
			parent = r.spans.containing(func(x span) bool {
				return strings.HasPrefix(x.Name, "cluster.Router.")
			}, offset+s.StartNS)
		}
		ids[keyOf(s)] = r.spans.addRaw(parent, layer, s.Name, clock, s.StartNS, s.DurNS)
	}
}
