// Daemon client example: serve simulations from a long-lived sweepd
// (DESIGN.md §10) instead of simulating in-process. With -addr it talks
// to a daemon you started yourself (`go run ./cmd/sweepd -cache dir`);
// without, it spins up an in-process server on a loopback port so the
// example is self-contained. Either way the client-side code is the
// same: a one-replica DaemonFleet runs one point, a sweep and an
// equivalent-window ratio search, then reads the replica's cache
// statistics and runs a store GC pass — all over HTTP/JSON, all memoized
// server-side, so re-running this example against a live daemon does
// zero simulations the second time.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"daesim"
	"daesim/internal/daemon"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running sweepd (empty: start one in-process)")
	flag.Parse()

	base := *addr
	if base == "" {
		var stop func()
		var err error
		base, stop, err = startInProcess()
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("started in-process daemon at %s\n\n", base)
	}

	fleet, err := daesim.NewDaemonFleet([]string{base})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if err := fleet.Health(ctx); err != nil {
		log.Fatal(err)
	}

	// One point: the paper's headline configuration for FLO52Q.
	res, err := fleet.Run(ctx, "FLO52Q", 1, "", daesim.Point{Kind: daesim.DM, P: daesim.Params{Window: 64, MD: 60}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FLO52Q DM w=64 md=60: %d cycles, IPC %.2f\n\n", res.Cycles, res.IPC())

	// A sweep: both machines across a window grid, one request. The
	// daemon runs the batch on its worker pool and memoizes every point,
	// so an overlapping sweep (another client, a repro -remote run)
	// reuses these results.
	var pts []daesim.Point
	windows := []int{16, 32, 64, 96}
	for _, kind := range []daesim.Kind{daesim.DM, daesim.SWSM} {
		for _, w := range windows {
			pts = append(pts, daesim.Point{Kind: kind, P: daesim.Params{Window: w, MD: 60}})
		}
	}
	results, err := fleet.RunBatch(ctx, "FLO52Q", 1, "", pts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("window    DM cycles    SWSM cycles")
	for i, w := range windows {
		fmt.Printf("%-9d %-12d %d\n", w, results[i].Cycles, results[len(windows)+i].Cycles)
	}

	// An equivalent-window ratio search (the Figures 7-9 metric), run
	// server-side and probed entirely through the daemon's cache.
	ratios, err := fleet.RatioBatch(ctx, "FLO52Q", 1, "", []daesim.Params{{Window: 60, MD: 60}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nequivalent-window ratio at w=60 md=60: %.3f (ok=%v)\n", ratios[0].Ratio, ratios[0].OK)

	// Cache statistics and a GC pass, on the fleet's only replica.
	replica := fleet.Clients()[0]
	stats, err := replica.CacheStats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndaemon cache: %d sims, %d L1 hits, hit rate %.1f%%, %d store entries\n",
		stats.Runner.Sims, stats.Runner.L1Hits, 100*stats.HitRate, stats.StoreEntries)
	gc, err := replica.GC(ctx, daesim.GCPolicy{MaxEntries: 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store GC (max-entries=1000): %s\n", gc)
}

// startInProcess runs a daemon inside this process on a loopback port,
// with a persistent store in a temp directory — the same wiring as
// cmd/sweepd, minus the process boundary.
func startInProcess() (base string, stop func(), err error) {
	dir, err := os.MkdirTemp("", "daesim-daemon-example-")
	if err != nil {
		return "", nil, err
	}
	store, err := daesim.OpenStore(filepath.Join(dir, "cache"))
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	srv := daemon.NewServer(daemon.Config{Store: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		os.RemoveAll(dir)
	}, nil
}
