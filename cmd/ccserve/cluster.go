package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"afforest/internal/cluster"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// clusterMain runs ccserve as the router of a sharded cluster: it
// resolves the graph source, dials the ccshard processes, streams each
// its edge partition, reconciles labels across shards, and serves the
// router's HTTP surface on addr. Label snapshots live at the shards in
// cluster mode, so -restore and -save are rejected rather than
// silently half-working.
//
// Distributed tracing is always on in cluster mode: every request's
// shard RPCs carry the trace-context frame extension and the merged
// cluster timeline is served on /debug/cluster (the recorder is a
// bounded ring; the per-RPC cost is 13 header bytes and two span
// records). debugAddr, when non-empty, additionally serves
// net/http/pprof on a separate listener.
func clusterMain(shardList, addr, debugAddr, in, genName, restore, save string, n, scale, deg int, seed uint64, par int) error {
	if restore != "" || save != "" {
		return errors.New("-restore/-save are single-node flags; cluster state is handed off via shard snapshots")
	}
	var g *graph.CSR
	var err error
	switch {
	case in != "" && genName != "":
		return errors.New("-in and -gen are mutually exclusive")
	case in != "":
		g, err = graph.LoadFile(in)
	case genName != "":
		g, err = generate(genName, n, scale, deg, seed)
	default:
		return errors.New("cluster mode needs a graph: provide -in FILE or -gen NAME")
	}
	if err != nil {
		return err
	}

	addrs := strings.Split(shardList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	router, err := cluster.NewRouter(addrs, g.NumVertices(), cluster.Config{
		Parallelism: par,
		Trace:       obs.NewWireTrace(0),
	})
	if err != nil {
		return err
	}
	if debugAddr != "" {
		go func() {
			fmt.Printf("pprof on http://%s/debug/pprof/ (cluster timeline on the service address at /debug/cluster)\n", debugAddr)
			if err := http.ListenAndServe(debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ccserve: debug listener:", err)
			}
		}()
	}
	start := time.Now()
	if err := router.LoadGraph(g); err != nil {
		router.Close(false)
		return fmt.Errorf("loading graph into cluster: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		router.Close(false)
		return err
	}
	st := router.Stats()
	// The resolved address is printed (not the flag value) so scripts
	// using -addr 127.0.0.1:0 can discover the kernel-assigned port,
	// same contract as ccshard.
	fmt.Printf("cluster of %d shards loaded %d vertices in %v (%d exchange rounds, %d KiB on the wire); serving on %s\n",
		router.NumShards(), router.NumVertices(), time.Since(start).Round(time.Millisecond),
		st.Rounds, (st.BytesSent+st.BytesRecv)/1024, ln.Addr())

	httpSrv := newHTTPServer("", router)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(shutCtx)
	// Tearing the router down shuts the shard processes down with it: a
	// ^C on the router is the whole-topology off switch.
	router.Close(true)
	return err
}
