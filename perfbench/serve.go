package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/serve"
	"afforest/internal/wal"
)

const (
	serveRate      = 1000              // offered requests per second
	serveWriteBulk = 16                // edges per POST /edges
	serveReadShare = 0.8               // the rest are writes
	serveDrain     = time.Second       // grace after the last due time
	seqHeader      = "X-Perfbench-Seq" // request ordinal, traced requests only
	routeEdges     = "edges"           // the write route
)

// request is one scheduled call of the open-loop client.
type request struct {
	route string // connected, component, census or edges
	path  string
	edges []graph.Edge
	body  []byte // POST /edges JSON, encoded ahead of the run
}

// schedule draws the request mix from the seed: 80% reads (/connected
// 70%, /component 20%, /census?top=5 10%) and 20% POST /edges of 16
// random pairs, one request every 1/serveRate seconds.
func schedule(seed uint64, n int, d time.Duration) []request {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 1))
	reqs := make([]request, int(d.Seconds()*serveRate))
	vtx := func() graph.V { return graph.V(rng.Intn(n)) }
	for i := range reqs {
		x := rng.Float64()
		switch {
		case x < serveReadShare*0.7:
			reqs[i] = request{route: "connected", path: fmt.Sprintf("/connected?u=%d&v=%d", vtx(), vtx())}
		case x < serveReadShare*0.9:
			reqs[i] = request{route: "component", path: fmt.Sprintf("/component?v=%d", vtx())}
		case x < serveReadShare:
			reqs[i] = request{route: "census", path: "/census?top=5"}
		default:
			es := make([]graph.Edge, serveWriteBulk)
			pairs := make([][2]graph.V, serveWriteBulk)
			for k := range es {
				es[k] = graph.Edge{U: vtx(), V: vtx()}
				pairs[k] = [2]graph.V{es[k].U, es[k].V}
			}
			body, err := json.Marshal(map[string][][2]graph.V{"edges": pairs})
			if err != nil {
				panic(err) // a slice of uint32 pairs always encodes
			}
			reqs[i] = request{route: routeEdges, path: "/edges", edges: es, body: body}
		}
	}
	return reqs
}

// serve is the open-loop phase. It returns its set-up time: loading the
// graph plus serve.Bootstrap with a write-ahead log.
func (r *run) serve(in *inputs) (float64, error) {
	root := filepath.Join(r.dir, "serve")
	if err := os.RemoveAll(root); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(root)

	// Traced runs inject the log with a timing filesystem (wal.Options.FS);
	// untraced runs let the server open its own log, as a deployment does.
	var fs *timedFS
	var g *graph.CSR
	var srv *serve.Server
	var walDir string
	var setup []float64
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.Close()
		}
		walDir = filepath.Join(root, "wal-"+strconv.Itoa(i))
		t := time.Now()
		lg, err := graph.LoadFile(in.servePath)
		if err != nil {
			return 0, fmt.Errorf("serve: loading input: %w", err)
		}
		cfg := serve.Config{WALDir: walDir}
		if r.traced {
			fs = &timedFS{FS: wal.OSFS}
			l, _, err := wal.Open(walDir, 0, func(wal.LSN, []graph.Edge) error { return nil }, wal.Options{FS: fs})
			if err != nil {
				return 0, fmt.Errorf("serve: opening wal: %w", err)
			}
			cfg = serve.Config{WAL: l}
		}
		s, err := serve.Bootstrap(lg, cfg)
		if err != nil {
			return 0, fmt.Errorf("serve: bootstrap: %w", err)
		}
		d := time.Since(t)
		r.spans.add(0, "internal/serve", "graph.LoadFile+serve.Bootstrap", t, d)
		setup = append(setup, d.Seconds())
		g, srv = lg, s
	}

	reqs := schedule(r.seed, g.NumVertices(), r.budget("serve"))
	// Traced runs time the handler of every odd request; the even ones
	// are the untraced reference for the overhead. Both halves run with
	// the timing WAL filesystem, so the overhead leaves its cost out.
	h := newTimedHandler(srv, len(reqs), r.traced)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return 0, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()

	lat, late, acked, lost := openLoop(r.spans, "http://"+ln.Addr().String(), reqs, h)

	// Stop accepting before the checks; shutting the listener down
	// waits for in-flight handlers.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(ctx)
	cancel()
	<-served

	var reads, writes [2][]float64 // [untraced, traced]
	failedWrites := 0
	for i, q := range reqs {
		r.op(lost[i])
		if lost[i] != nil {
			if q.route == routeEdges {
				failedWrites++
			}
			continue
		}
		part := 0
		if h.traced(i) {
			part = 1
		}
		if q.route == routeEdges {
			writes[part] = append(writes[part], lat[i])
		} else {
			reads[part] = append(reads[part], lat[i])
		}
	}
	if !r.traced {
		r.addE2E("read_p50_ms", quantile(reads[0], 0.5), "ms")
		r.addE2E("read_p75_ms", quantile(reads[0], 0.75), "ms")
		r.addE2E("write_p50_ms", quantile(writes[0], 0.5), "ms")
		r.samples["read_ms"], r.samples["write_ms"] = reads[0], writes[0]
	} else {
		r.serveLayers(srv, fs, reqs, h, lat, late, acked, reads, writes)
	}
	fmt.Fprintf(os.Stderr, "serve: %d reads, %d writes answered of %d; generator lateness p99 %.3f ms, max %.3f ms\n",
		len(reads[0])+len(reads[1]), len(writes[0])+len(writes[1]), len(reqs), quantile(late, 0.99), maxOf(late))

	srv.Close()
	if err := r.serveRestart(g, walDir, in.serveOracle, acked, failedWrites); err != nil {
		return 0, err
	}
	return median(setup), nil
}

// openLoop sends reqs on schedule from one generator goroutine to two
// connection workers, one for reads and one for writes, each with one
// keep-alive connection. Latency runs from the due time, so a stall
// charges every request queued behind it. It returns per-request
// latency (ms), generator lateness (ms), the acknowledged edges, and a
// per-request error (nil when answered 200).
func openLoop(tr *tracer, base string, reqs []request, h *timedHandler) (lat, late []float64, acked []graph.Edge, lost []error) {
	lat = make([]float64, len(reqs))
	late = make([]float64, len(reqs))
	lost = make([]error, len(reqs))
	interval := time.Second / serveRate
	// Buffered to the number of sends, so the generator never blocks.
	readQ := make(chan int, len(reqs))
	writeQ := make(chan int, len(reqs))
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	ctx, cancel := context.WithDeadline(context.Background(), due(len(reqs)).Add(serveDrain))
	defer cancel()

	var wg sync.WaitGroup
	worker := func(q <-chan int, onAck func(int)) {
		defer wg.Done()
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		defer client.CloseIdleConnections()
		for i := range q {
			t := time.Now()
			err := send(ctx, client, base, reqs[i], i, h.traced(i))
			if err != nil {
				lost[i] = err
				continue
			}
			done := time.Now()
			lat[i] = ms(done.Sub(due(i)))
			if id := tr.add(0, "client+loopback", "http "+reqs[i].route, t, done.Sub(t)); id != 0 && h.traced(i) {
				h.link(tr, i, reqs[i].route, id)
			}
			if onAck != nil {
				onAck(i)
			}
		}
	}
	wg.Add(2)
	go worker(readQ, nil)
	go worker(writeQ, func(i int) { acked = append(acked, reqs[i].edges...) })

	for i := range reqs {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due(i)))
		if reqs[i].route == routeEdges {
			writeQ <- i
		} else {
			readQ <- i
		}
	}
	close(readQ)
	close(writeQ)
	wg.Wait()
	return lat, late, acked, lost
}

func send(ctx context.Context, c *http.Client, base string, q request, seq int, traced bool) error {
	if ctx.Err() != nil {
		return fmt.Errorf("unanswered when the run ended: %w", ctx.Err())
	}
	method, body := http.MethodGet, io.Reader(nil)
	if q.body != nil {
		method, body = http.MethodPost, bytes.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+q.path, body)
	if err != nil {
		return err
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traced {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", q.path, resp.StatusCode)
	}
	return nil
}

// timedHandler wraps Server.ServeHTTP and, when on, records the
// handler's wall time of every odd request (those carry seqHeader).
type timedHandler struct {
	next      http.Handler
	on        bool
	startNS   []atomic.Int64 // unix ns
	handlerNS []atomic.Int64
}

func newTimedHandler(next http.Handler, n int, on bool) *timedHandler {
	return &timedHandler{next: next, on: on, startNS: make([]atomic.Int64, n), handlerNS: make([]atomic.Int64, n)}
}

func (h *timedHandler) traced(i int) bool { return h.on && i%2 == 1 }

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	raw := req.Header.Get(seqHeader)
	if raw == "" {
		h.next.ServeHTTP(w, req)
		return
	}
	t := time.Now()
	h.next.ServeHTTP(w, req)
	d := time.Since(t)
	if i, err := strconv.Atoi(raw); err == nil && i >= 0 && i < len(h.handlerNS) {
		h.startNS[i].Store(t.UnixNano())
		h.handlerNS[i].Store(d.Nanoseconds())
	}
}

// link records request i's handler span as a child of its client span.
func (h *timedHandler) link(tr *tracer, i int, route string, parent int64) {
	if d := h.handlerNS[i].Load(); d != 0 {
		tr.add(parent, "internal/serve", "serve "+route, time.Unix(0, h.startNS[i].Load()), time.Duration(d))
	}
}

// serveLayers derives the serve layer metrics of a traced run.
func (r *run) serveLayers(srv *serve.Server, fs *timedFS, reqs []request, h *timedHandler,
	lat, late []float64, acked []graph.Edge, reads, writes [2][]float64) {
	handler := map[string][]float64{}
	var wait []float64
	for i := range reqs {
		d := h.handlerNS[i].Load()
		if d == 0 || lat[i] == 0 {
			continue
		}
		handler[reqs[i].route] = append(handler[reqs[i].route], float64(d)/1e3)
		if reqs[i].route != routeEdges {
			wait = append(wait, lat[i]-float64(d)/1e6)
		}
	}
	for _, route := range []string{"connected", "component", "census", routeEdges} {
		r.addLayer("serve.handler_us."+route+".p50", quantile(handler[route], 0.5), "us")
		r.addLayer("serve.handler_us."+route+".p99", quantile(handler[route], 0.99), "us")
	}
	r.addLayer("serve.client_wait_ms.p50", median(wait), "ms")
	r.addLayer("serve.gen_late_ms.p99", quantile(late, 0.99), "ms")
	r.addLayer("serve.gen_late_ms.max", maxOf(late), "ms")

	var stats struct {
		Batching struct {
			Batches      int64 `json:"batches"`
			BatchedEdges int64 `json:"batched_edges"`
		} `json:"batching"`
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		r.fail("serve: GET /stats: %v", err)
	}
	r.addLayer("serve.batches", float64(stats.Batching.Batches), "count")
	perBatch := 0.0
	if stats.Batching.Batches > 0 {
		perBatch = float64(stats.Batching.BatchedEdges) / float64(stats.Batching.Batches)
	}
	r.addLayer("serve.edges_per_batch", perBatch, "edges")

	apply := srv.Registry().Histogram("afforest_edge_apply_ns", "", obs.DefaultLatencyBuckets).Snapshot()
	r.addLayer("core.apply_us.p50", apply.Quantile(0.5)/1e3, "us")
	r.addLayer("core.apply_us.p99", apply.Quantile(0.99)/1e3, "us")

	writesUS, fsyncUS, nbytes, nsync := fs.snapshot()
	r.addLayer("wal.write_us.p50", median(writesUS), "us")
	r.addLayer("wal.fsync_us.p50", quantile(fsyncUS, 0.5), "us")
	r.addLayer("wal.fsync_us.p99", quantile(fsyncUS, 0.99), "us")
	r.addLayer("wal.fsyncs", float64(nsync), "count")
	perEdge := 0.0
	if len(acked) > 0 {
		perEdge = float64(nbytes) / float64(len(acked))
	}
	r.addLayer("wal.bytes_per_edge", perEdge, "B")
	// One write is in flight at a time, so each WAL call belongs to the
	// write request whose handler (or, untimed, client) span contains it.
	for _, sp := range fs.spans() {
		at := sp.StartNS - r.spans.epoch.UnixNano()
		parent := r.spans.containing(named("serve "+routeEdges), at)
		if parent == 0 {
			parent = r.spans.containing(named("http "+routeEdges), at)
		}
		r.spans.addRaw(parent, "internal/wal", sp.Name, "bench", at, sp.DurNS)
	}

	r.addLayer("serve.refreshes", float64(srv.Registry().Counter("afforest_snapshots_total", "").Value()), "count")
	var refresh []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		srv.Refresh()
		d := time.Since(t)
		r.spans.add(0, "internal/serve", "serve.Server.Refresh", t, d)
		refresh = append(refresh, ms(d))
	}
	r.addLayer("serve.refresh_ms.p50", median(refresh), "ms")

	// The p99s swing with the host's CPU noise far more than the bounds
	// allow, so they are reported here, from the untraced (even)
	// requests, and not gated as end-to-end metrics.
	r.addLayer("serve.read_p99_ms", quantile(reads[0], 0.99), "ms")
	r.addLayer("serve.write_p99_ms", quantile(writes[0], 0.99), "ms")
	r.overhead("read_p50_ms", quantile(reads[1], 0.5), quantile(reads[0], 0.5), "ms")
	r.overhead("read_p75_ms", quantile(reads[1], 0.75), quantile(reads[0], 0.75), "ms")
	r.overhead("write_p50_ms", quantile(writes[1], 0.5), quantile(writes[0], 0.5), "ms")
}

// serveRestart is the durability check: reopen from the bootstrap graph
// plus the WAL directory alone, then every acknowledged edge must be
// connected and the component count must equal the oracle's over the
// bootstrap graph plus the acknowledged edges.
func (r *run) serveRestart(g *graph.CSR, walDir string, oracle []graph.V, acked []graph.Edge, failedWrites int) error {
	inc, err := core.RestoreIncremental(core.Run(g, core.DefaultOptions()).Labels())
	if err != nil {
		return fmt.Errorf("serve: restart: %w", err)
	}
	t := time.Now()
	srv, err := serve.Open(inc, g.NumEdges(), serve.Config{WALDir: walDir})
	if err != nil {
		return fmt.Errorf("serve: restart: %w", err)
	}
	d := time.Since(t)
	defer srv.Close()
	r.spans.add(0, "internal/wal", "serve.Open(replay)", t, d)
	rep := srv.WALReplay()
	r.addLayer("wal.replay_ms", ms(d), "ms")
	r.addLayer("wal.replayed_edges", float64(rep.Edges), "edges")

	d2 := newDSU(oracle)
	for _, e := range acked {
		d2.union(e.U, e.V)
		if !inc.Connected(e.U, e.V) {
			r.fail("serve: acknowledged edge {%d,%d} not connected after WAL replay", e.U, e.V)
		}
	}
	// A write that failed may still have been applied; the count then
	// can only be lower than the acknowledged-only oracle.
	if want, got := d2.components(), inc.NumComponents(); got != want && (failedWrites == 0 || got > want) {
		r.fail("serve: %d components after WAL replay, oracle says %d", got, want)
	}
	return nil
}

// timedFS wraps the real filesystem of a traced run's WAL and times
// every segment write and fsync.
type timedFS struct {
	wal.FS
	mu     sync.Mutex
	writes []float64 // us
	fsyncs []float64 // us
	bytes  int64
	log    []span // StartNS in unix ns
}

func (f *timedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) OpenAppend(name string, size int64) (wal.File, error) {
	file, err := f.FS.OpenAppend(name, size)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) observe(name string, t time.Time, d time.Duration, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if name == "wal.File.Sync" {
		f.fsyncs = append(f.fsyncs, us(d))
	} else {
		f.writes = append(f.writes, us(d))
		f.bytes += int64(n)
	}
	f.log = append(f.log, span{Name: name, StartNS: t.UnixNano(), DurNS: d.Nanoseconds()})
}

func (f *timedFS) snapshot() (writes, fsyncs []float64, bytes int64, nsync int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.writes...), append([]float64(nil), f.fsyncs...), f.bytes, len(f.fsyncs)
}

func (f *timedFS) spans() []span {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]span(nil), f.log...)
}

type timedFile struct {
	wal.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.observe("wal.File.Write", t, time.Since(t), n)
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.observe("wal.File.Sync", t, time.Since(t), 0)
	return err
}
