package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"afforest/internal/dist"
	"afforest/internal/gen"
	"afforest/internal/graph"
)

// canonical returns the min-id labeling of g — the global ground truth
// every cluster topology must reproduce bit-for-bit.
func canonical(g *graph.CSR) []graph.V {
	labels, _ := graph.SequentialCC(g)
	minOf := map[int32]graph.V{}
	for v, l := range labels {
		if m, ok := minOf[l]; !ok || graph.V(v) < m {
			minOf[l] = graph.V(v)
		}
	}
	out := make([]graph.V, len(labels))
	for v, l := range labels {
		out[v] = minOf[l]
	}
	return out
}

func testGraphs() map[string]*graph.CSR {
	path := make([]graph.Edge, 0, 99)
	for v := 0; v < 99; v++ {
		path = append(path, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
	}
	star := make([]graph.Edge, 0, 63)
	for v := 0; v < 63; v++ {
		star = append(star, graph.Edge{U: 63, V: graph.V(v)})
	}
	return map[string]*graph.CSR{
		"path-100":  graph.Build(path, graph.BuildOptions{NumVertices: 100}),
		"star-64":   graph.Build(star, graph.BuildOptions{NumVertices: 64}),
		"urand-256": gen.URandDegree(256, 4, 7),
		"kron-8":    gen.Kronecker(8, 8, gen.Graph500, 42),
	}
}

// TestClusterMatchesSingleNode loads each graph into 1-, 2-, 3-, 4- and
// 7-shard topologies (7 leaves an uneven last block on every graph) and
// requires the assembled global labeling to equal the canonical min-id
// labeling exactly.
func TestClusterMatchesSingleNode(t *testing.T) {
	for name, g := range testGraphs() {
		want := canonical(g)
		for _, shards := range []int{1, 2, 3, 4, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				l := loadCanonical(t, g, shards)
				// Point queries agree with the labeling.
				checks := [][2]graph.V{{0, graph.V(g.NumVertices() - 1)}, {0, 1}}
				for _, c := range checks {
					conn, err := l.Router.Connected(c[0], c[1])
					if err != nil {
						t.Fatalf("Connected(%d,%d): %v", c[0], c[1], err)
					}
					if conn != (want[c[0]] == want[c[1]]) {
						t.Fatalf("Connected(%d,%d) = %v, want %v", c[0], c[1], conn, !conn)
					}
				}
			})
		}
	}
}

// loadCanonical loads g into a fresh shards-wide cluster, closed when
// the test ends, and requires the canonical labeling.
func loadCanonical(t *testing.T, g *graph.CSR, shards int) *Local {
	t.Helper()
	l, err := StartLocal(g.NumVertices(), shards, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	if err := l.Router.LoadGraph(g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	got, err := l.Router.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels: %v", err)
	}
	for v, want := range canonical(g) {
		if got[v] != want {
			t.Fatalf("%d shards: label[%d] = %d, want %d", shards, v, got[v], want)
		}
	}
	return l
}

// TestExchangeProperties pins what the ghost-label exchange promises
// about communication, measured on real loopback shards: rounds track
// the partition quotient graph, not the graph diameter; traffic tracks
// the cut, not |E|; and it undercuts halo-exchange LP on high-diameter
// graphs. Every load must also reproduce the canonical labeling.
func TestExchangeProperties(t *testing.T) {
	pathEdges := make([]graph.Edge, 0, 999)
	for v := 0; v+1 < 1000; v++ {
		pathEdges = append(pathEdges, graph.Edge{U: graph.V(v), V: graph.V(v + 1)})
	}
	path := graph.Build(pathEdges, graph.BuildOptions{NumVertices: 1000})
	cases := []struct {
		name   string
		g      *graph.CSR
		shards int
		want   string
		holds  func(t *testing.T, g *graph.CSR, st RouterStats) bool
	}{
		// The quotient graph of 8 blocks of a path is an 8-node path;
		// the graph diameter is 999.
		{"high_diameter", path, 8, "at most 16 rounds",
			func(t *testing.T, g *graph.CSR, st RouterStats) bool { return st.Rounds <= 16 }},
		{"single_shard_silent", gen.URandDegree(2000, 8, 5), 1, "no cut edges and no pairs",
			func(t *testing.T, g *graph.CSR, st RouterStats) bool { return st.CutEdges == 0 && st.Messages == 0 }},
		{"many_components", gen.URandComponents(4000, 8, 0.1, 9), 8, "some pairs exchanged",
			func(t *testing.T, g *graph.CSR, st RouterStats) bool { return st.Messages > 0 }},
		{"cut_edges_grow", gen.URandDegree(4000, 16, 3), 8, "more cut edges than over 2 shards",
			func(t *testing.T, g *graph.CSR, st RouterStats) bool {
				return st.CutEdges > loadCanonical(t, g, 2).Router.Stats().CutEdges
			}},
		{"fewer_pairs_than_lp", gen.Road(10_000, 5), 8, "fewer pairs than LP's halo messages",
			func(t *testing.T, g *graph.CSR, st RouterStats) bool {
				_, lp := dist.LP(g, 8)
				return st.Messages < lp.Messages
			}},
		{"pairs_below_arcs", gen.URandDegree(20_000, 16, 7), 4, "fewer pairs than arcs",
			func(t *testing.T, g *graph.CSR, st RouterStats) bool { return st.Messages < g.NumArcs() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if st := loadCanonical(t, tc.g, tc.shards).Router.Stats(); !tc.holds(t, tc.g, st) {
				t.Fatalf("%d shards: want %s, got %+v", tc.shards, tc.want, st)
			}
		})
	}
}

// TestShardConnPoisonedAfterTransportError drives a router-side
// connection against a fake shard that answers with scripted bytes. An
// opError reply leaves the connection usable; a bad length prefix
// followed by a well-formed frame must poison it, so the next call
// fails wrapping the first error instead of decoding the leftover
// bytes as its reply.
func TestShardConnPoisonedAfterTransportError(t *testing.T) {
	ping := []byte{0, 0, 0, 1, opPing}
	script := [][]byte{
		{0, 0, 0, 5, opError, 'b', 'o', 'o', 'm'},
		ping,
		append([]byte{0xFF, 0xFF, 0xFF, 0xFF, opPing}, ping...),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for _, reply := range script {
			if _, _, _, err := readFrame(conn); err != nil {
				return
			}
			conn.Write(reply)
		}
		io.Copy(io.Discard, conn) // hold the connection open until the router drops it
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countedConn{rw: conn}
	sc := &shardConn{conn: conn, cc: cc, br: bufio.NewReader(cc)}

	if _, err := sc.rpc(opPing, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("opError reply: err = %v, want the shard's message", err)
	}
	if _, err := sc.rpc(opPing, nil); err != nil {
		t.Fatalf("call after an opError reply: %v", err)
	}
	_, first := sc.rpc(opPing, nil)
	if first == nil {
		t.Fatal("bad length prefix accepted")
	}
	sent := cc.sent.Load()
	if _, err := sc.rpc(opPing, nil); !errors.Is(err, first) {
		t.Fatalf("call after a transport error: err = %v, want it to wrap %v", err, first)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second)) // an open socket times out instead
	if _, err := conn.Read(make([]byte, 1)); cc.sent.Load() != sent || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("poisoned connection: %d bytes written after the error, read err %v; want 0, closed",
			cc.sent.Load()-sent, err)
	}
}

// TestClusterIncrementalWrites streams a path graph edge by edge
// through AddEdges — every prefix must answer Connected consistently
// with how much of the path has arrived.
func TestClusterIncrementalWrites(t *testing.T) {
	const n = 40
	l, err := StartLocal(n, 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	for v := 0; v+1 < n; v++ {
		merged, err := l.Router.AddEdges([]graph.Edge{{U: graph.V(v), V: graph.V(v + 1)}})
		if err != nil {
			t.Fatalf("AddEdges(%d,%d): %v", v, v+1, err)
		}
		if merged != 1 {
			t.Fatalf("AddEdges(%d,%d) merged %d components, want 1", v, v+1, merged)
		}
		if conn, _ := l.Router.Connected(0, graph.V(v+1)); !conn {
			t.Fatalf("after edge (%d,%d): 0 and %d not connected", v, v+1, v+1)
		}
		if v+2 < n {
			if conn, _ := l.Router.Connected(0, graph.V(n-1)); conn {
				t.Fatalf("after edge (%d,%d): 0 and %d connected too early", v, v+1, n-1)
			}
		}
	}
	if got := l.Router.EdgesAccepted(); got != n-1 {
		t.Fatalf("EdgesAccepted = %d, want %d", got, n-1)
	}
}

// TestClusterLeaveJoin drives the membership transition: snapshot
// handoff on leave, read-only degraded service during the vacancy, and
// a restored replacement that keeps answering identically.
func TestClusterLeaveJoin(t *testing.T) {
	g := gen.URandDegree(300, 4, 11)
	want := canonical(g)
	l, err := StartLocal(g.NumVertices(), 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}

	if err := l.Router.Leave(1); err != nil {
		t.Fatalf("Leave(1): %v", err)
	}

	// Reads during the vacancy: labels and point queries still exact.
	got, err := l.Router.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels while degraded: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("degraded label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	lo, hi := l.Router.part.Range(1)
	mid := graph.V((lo + hi) / 2)
	if conn, err := l.Router.Connected(0, mid); err != nil {
		t.Fatalf("Connected while degraded: %v", err)
	} else if conn != (want[0] == want[mid]) {
		t.Fatalf("Connected(0,%d) while degraded = %v, want %v", mid, conn, !conn)
	}

	// Writes during the vacancy are refused, not wrong.
	if _, err := l.Router.AddEdges([]graph.Edge{{U: 0, V: 299}}); err != ErrDegraded {
		t.Fatalf("AddEdges while degraded: err = %v, want ErrDegraded", err)
	}
	if err := l.Router.Leave(1); err == nil {
		t.Fatal("second Leave(1) succeeded on a vacant slot")
	}

	// A replacement joins with the retained snapshot.
	addr, err := l.SpawnShard(0)
	if err != nil {
		t.Fatalf("SpawnShard: %v", err)
	}
	if err := l.Router.Join(1, addr); err != nil {
		t.Fatalf("Join(1): %v", err)
	}
	got, err = l.Router.GlobalLabels()
	if err != nil {
		t.Fatalf("GlobalLabels after join: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("post-join label[%d] = %d, want %d", v, got[v], want[v])
		}
	}

	// Writes flow again and produce correct merges.
	var u, v graph.V
	found := false
	for x := 0; x < 300 && !found; x++ {
		for y := x + 1; y < 300; y++ {
			if want[x] != want[y] {
				u, v, found = graph.V(x), graph.V(y), true
				break
			}
		}
	}
	if !found {
		t.Skip("graph fully connected; no merge candidate")
	}
	merged, err := l.Router.AddEdges([]graph.Edge{{U: u, V: v}})
	if err != nil {
		t.Fatalf("AddEdges after join: %v", err)
	}
	if merged != 1 {
		t.Fatalf("AddEdges(%d,%d) merged %d, want 1", u, v, merged)
	}
	if conn, _ := l.Router.Connected(u, v); !conn {
		t.Fatalf("Connected(%d,%d) false after merging edge", u, v)
	}
}

// TestClusterClampsShardCount verifies a partition narrower than the
// requested shard list still serves (surplus addresses ignored).
func TestClusterClampsShardCount(t *testing.T) {
	l, err := StartLocal(2, 4, Config{})
	if err != nil {
		t.Fatalf("StartLocal(2 vertices, 4 shards): %v", err)
	}
	defer l.Close()
	if got := l.Router.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want clamp to 2", got)
	}
	if _, err := l.Router.AddEdges([]graph.Edge{{U: 0, V: 1}}); err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	if conn, _ := l.Router.Connected(0, 1); !conn {
		t.Fatal("Connected(0,1) false after adding the edge")
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp
}

// TestClusterHTTPSurface exercises the router's full HTTP API against a
// live local topology, including the wire metrics on /metrics.
func TestClusterHTTPSurface(t *testing.T) {
	g := gen.URandDegree(200, 4, 3)
	l, err := StartLocal(g.NumVertices(), 3, Config{})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	srv := httptest.NewServer(l.Router)
	defer srv.Close()
	want := canonical(g)

	var connResp struct {
		Connected bool `json:"connected"`
	}
	resp := getJSON(t, srv, "/connected?u=0&v=199", &connResp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/connected status %d", resp.StatusCode)
	}
	if connResp.Connected != (want[0] == want[199]) {
		t.Fatalf("/connected = %v, want %v", connResp.Connected, !connResp.Connected)
	}
	if resp := getJSON(t, srv, "/connected?u=0&v=999", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/connected out-of-range status %d, want 400", resp.StatusCode)
	}

	var census struct {
		Vertices   int         `json:"vertices"`
		Components int         `json:"components"`
		Top        []Component `json:"top"`
	}
	getJSON(t, srv, "/census?top=5", &census)
	comps := map[graph.V]int{}
	for _, lab := range want {
		comps[lab]++
	}
	if census.Vertices != 200 || census.Components != len(comps) {
		t.Fatalf("/census = %d vertices / %d components, want 200 / %d",
			census.Vertices, census.Components, len(comps))
	}
	if len(census.Top) > 0 {
		best := 0
		for _, c := range comps {
			best = max(best, c)
		}
		if census.Top[0].Size != best {
			t.Fatalf("/census top size %d, want %d", census.Top[0].Size, best)
		}
	}

	// Writes: single edge then bulk.
	post := func(body string) *http.Response {
		resp, err := srv.Client().Post(srv.URL+"/edges", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /edges: %v", err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{"u":0,"v":1}`); resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /edges single: status %d: %s", resp.StatusCode, b)
	}
	if resp := post(`{"edges":[[2,3],[4,5]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /edges bulk: status %d", resp.StatusCode)
	}
	if resp := post(`{"u":0,"v":100000}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /edges out-of-range: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"nope":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /edges unknown field: status %d, want 400", resp.StatusCode)
	}
	// A body one pair past the cap is refused whole. The recorder keeps
	// the client from racing the early 413 with the rest of its upload.
	accepted := l.Router.EdgesAccepted()
	rec := httptest.NewRecorder()
	oversize := `{"edges":[` + strings.Repeat("[0,1],", maxEdgesBody/6) + `[0,1]]}`
	l.Router.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(oversize)))
	if rec.Code != http.StatusRequestEntityTooLarge || l.Router.EdgesAccepted() != accepted {
		t.Fatalf("POST /edges oversize: status %d, %d edges applied; want 413, none",
			rec.Code, l.Router.EdgesAccepted()-accepted)
	}

	var stats struct {
		Cluster RouterStats `json:"cluster"`
	}
	getJSON(t, srv, "/stats", &stats)
	if stats.Cluster.Active != 3 || stats.Cluster.Exchanges == 0 ||
		stats.Cluster.BytesSent == 0 || stats.Cluster.BytesRecv == 0 {
		t.Fatalf("/stats cluster tallies implausible: %+v", stats.Cluster)
	}

	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, srv, "/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("/healthz status %q, want ok", health.Status)
	}

	var topo struct {
		Shards   []struct{ Active bool } `json:"shards"`
		Degraded bool                    `json:"degraded"`
	}
	getJSON(t, srv, "/cluster", &topo)
	if len(topo.Shards) != 3 || topo.Degraded {
		t.Fatalf("/cluster = %+v", topo)
	}

	// Wire metrics are real and nonzero.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, metric := range []string{
		"afforest_cluster_bytes_total",
		"afforest_cluster_messages_total",
		"afforest_cluster_exchange_rounds_total",
		"afforest_cluster_exchanges_total",
		"afforest_cluster_shard_lag_ns",
		"afforest_cluster_shards_active 3",
	} {
		if !bytes.Contains(body, []byte(metric)) {
			t.Fatalf("/metrics missing %q", metric)
		}
	}
	for _, zero := range []string{
		`afforest_cluster_bytes_total{dir="sent",shard="0"} 0`,
		`afforest_cluster_exchange_rounds_total 0`,
	} {
		if bytes.Contains(body, []byte(zero)) {
			t.Fatalf("/metrics reports zero where traffic happened: %q", zero)
		}
	}

	// Membership over HTTP: leave → degraded + 503 writes → join.
	if resp := post(`{"u":6,"v":7}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-leave write status %d", resp.StatusCode)
	}
	lresp, err := srv.Client().Post(srv.URL+"/cluster/leave?shard=2", "application/json", nil)
	if err != nil || lresp.StatusCode != http.StatusOK {
		t.Fatalf("POST /cluster/leave: %v status %d", err, lresp.StatusCode)
	}
	lresp.Body.Close()
	if resp := post(`{"u":8,"v":9}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded write status %d, want 503", resp.StatusCode)
	}
	getJSON(t, srv, "/healthz", &health)
	if health.Status != "degraded" {
		t.Fatalf("/healthz status %q during vacancy, want degraded", health.Status)
	}
	addr, err := l.SpawnShard(0)
	if err != nil {
		t.Fatalf("SpawnShard: %v", err)
	}
	jresp, err := srv.Client().Post(srv.URL+"/cluster/join?shard=2&addr="+addr, "application/json", nil)
	if err != nil || jresp.StatusCode != http.StatusOK {
		t.Fatalf("POST /cluster/join: %v status %d", err, jresp.StatusCode)
	}
	jresp.Body.Close()
	if resp := post(`{"u":8,"v":9}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-join write status %d, want 200", resp.StatusCode)
	}
}
