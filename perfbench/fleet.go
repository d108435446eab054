package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"daesim/internal/daemon"
	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/sweep"
)

// spanHeader carries the client-side daemon.call span ID to the server
// middleware in traced passes. The daemon ignores unknown headers.
const spanHeader = "X-Perfbench-Span"

// fleet is a 3-replica sweepd fleet served from this process: memory-only
// daemon.Servers behind listeners bound before serving, one long-lived
// FleetClient, and a meter around each replica's handler.
type fleet struct {
	client    *daemon.FleetClient
	servers   []*daemon.Server
	meters    []*meter
	https     []*http.Server
	transport *http.Transport
	serving   sync.WaitGroup
}

// startFleet binds n listeners, serves a daemon.Server on each and
// checks the fleet with a single FleetClient.Health call: the listeners
// accept before Serve starts, so no polling is needed.
func startFleet(n int, tr *tracer) (*fleet, error) {
	f := &fleet{transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}}
	var lns []net.Listener
	var urls []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("binding replica %d: %w", i, err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		srv := daemon.NewServer(daemon.Config{ReplicaID: fmt.Sprintf("r%d", i), Fleet: urls})
		m := &meter{tr: tr, next: srv.Handler()}
		hs := &http.Server{Handler: m}
		f.servers = append(f.servers, srv)
		f.meters = append(f.meters, m)
		f.https = append(f.https, hs)
		f.serving.Add(1)
		go func(ln net.Listener) {
			defer f.serving.Done()
			hs.Serve(ln) // returns http.ErrServerClosed once close runs
		}(ln)
	}
	client, err := daemon.NewFleetClient(urls)
	if err != nil {
		f.close()
		return nil, err
	}
	hc := &http.Client{Timeout: 15 * time.Minute, Transport: spanTransport{f.transport}}
	for _, c := range client.Clients() {
		c.HTTP = hc
	}
	f.client = client
	if err := client.Health(context.Background()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops every replica and waits for its Serve loop to return.
func (f *fleet) close() {
	for _, hs := range f.https {
		hs.Close()
	}
	f.serving.Wait()
	f.transport.CloseIdleConnections()
}

// attach binds ctx's remote hooks to the fleet client, timing every call
// as one request of p.
func (f *fleet) attach(ctx *experiments.Context, p *passRun) {
	ctx.Remote = func(workload string, scale int, fp string, pt sweep.Point) (res *engine.Result, err error) {
		err = p.remote(func(c context.Context) (e error) {
			res, e = f.client.Run(c, workload, scale, fp, pt)
			return e
		})
		return res, err
	}
	ctx.RemoteBatch = func(workload string, scale int, fp string, pts []sweep.Point) (res []*engine.Result, err error) {
		err = p.remote(func(c context.Context) (e error) {
			res, e = f.client.RunBatch(c, workload, scale, fp, pts)
			return e
		})
		return res, err
	}
	ctx.RemoteSearch = func(workload string, scale int, fp string, params []machine.Params) (res []experiments.RatioAnswer, err error) {
		err = p.remote(func(c context.Context) (e error) {
			res, e = f.client.RatioBatch(c, workload, scale, fp, params)
			return e
		})
		return res, err
	}
}

// fleetTotals is a snapshot of the fleet's cumulative counters.
type fleetTotals struct {
	requests  int64 // simulation requests seen by the meters
	perRep    []int64
	wireBytes int64
	runner    sweep.CacheStats // summed over the replicas' runners
	ladder    daemon.FleetMetrics
}

func (f *fleet) totals() fleetTotals {
	var t fleetTotals
	for _, m := range f.meters {
		r := m.requests.Load()
		t.requests += r
		t.perRep = append(t.perRep, r)
		t.wireBytes += m.wireBytes.Load()
	}
	for _, s := range f.servers {
		t.runner.Add(s.Stats().Runner)
	}
	t.ladder = f.client.Metrics()
	return t
}

// searchProbes is the servers' running count of simulations plus L1
// hits: on the fleet the equivalent-window searches run server-side.
func (f *fleet) searchProbes() int64 {
	var n int64
	for _, s := range f.servers {
		st := s.Stats().Runner
		n += st.Sims + st.L1Hits
	}
	return n
}

// meter wraps a replica's handler: it counts simulation requests and
// wire bytes, and in traced passes records a daemon.server span whose
// parent is the client call named by spanHeader.
type meter struct {
	tr                  *tracer
	next                http.Handler
	requests, wireBytes atomic.Int64
}

func (m *meter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	m.next.ServeHTTP(cw, r)
	if r.Method != http.MethodPost {
		return // health and stats probes are not simulation traffic
	}
	m.requests.Add(1)
	m.wireBytes.Add(body.n + cw.n)
	if parent, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
		m.tr.record("daemon.server", parent, start, time.Now())
	}
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// spanTransport names the calling daemon.call span in a request header
// when the request's context carries one (traced passes only).
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(req)
}
