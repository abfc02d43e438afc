package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"compactsg"
	"compactsg/internal/serve"
	"compactsg/internal/serve/middleware"
	"compactsg/internal/shard"
	"compactsg/internal/store"
)

// Shipped configuration: the sgserve and sgproxy flag defaults. Only
// MaxResident and the store cache cap vary by workload.
const (
	serveWorkers    = 0 // -workers 0: GOMAXPROCS
	serveBlock      = 64
	serveTimeout    = 10 * time.Second
	serveTraceRing  = 256
	serveTraceEvery = 1
	proxyReplicas   = 2
	upstreamTimeout = 10 * time.Second
)

// deployment is one set-up: the grids, the store (directory remote plus
// local cache), one sgserve shard and one sgproxy, each on a loopback
// listener of its own.
type deployment struct {
	spec spec
	dir  string

	names []string
	keys  []string      // content address of each grid's version 0
	nodal [][][]float64 // [grid][version] nodal values, made before set-up
	snap  int64         // snapshot bytes of one grid

	st        *store.Store
	srv       *serve.Server
	prox      *shard.Proxy
	srvHTTP   *http.Server
	proxHTTP  *http.Server
	serving   sync.WaitGroup // the two Serve goroutines
	proxyAddr string

	scfg serve.Config
	pcfg shard.Config

	dials   atomic.Int64 // upstream dials made by the proxy
	pubErrs atomic.Int64 // store publishes that failed after a Swap
	tracing atomic.Bool  // record proxy and server handler spans
	spans   *spanLog
}

// deploy builds the grids, populates the remote, and starts the store,
// server and proxy; the caller times it as set-up. nodal holds every
// installable version's nodal values; deploy builds version 0 again
// from the function, as a deployment would, and the writer and the
// references take theirs from nodal.
func deploy(sp spec, dir string, nodal [][][]float64, spans *spanLog) (d *deployment, err error) {
	d = &deployment{spec: sp, dir: dir, nodal: nodal, spans: spans}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	remote := filepath.Join(dir, "remote")
	build := filepath.Join(dir, "build")
	for _, p := range []string{remote, build, filepath.Join(dir, "snap")} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, err
		}
	}
	var paths []string
	for gi := 0; gi < sp.grids; gi++ {
		path, err := d.buildGrid(gi, build)
		if err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}

	capBytes := int64(0)
	if sp.cacheGrids > 0 {
		capBytes = int64(sp.cacheGrids)*d.snap + d.snap/2
	}
	rem := &store.FSRemote{Dir: remote}
	if d.st, err = store.Open(store.Config{Dir: filepath.Join(dir, "cache"), CapBytes: capBytes, Remote: rem}); err != nil {
		return nil, err
	}
	// The node that built a grid publishes it: into its cache and up to
	// the remote, as Swap does for every later version.
	for _, path := range paths {
		key, err := d.st.Publish(context.Background(), path)
		if err != nil {
			return nil, err
		}
		d.keys = append(d.keys, key)
	}
	discard := slog.New(slog.NewJSONHandler(io.Discard, nil))
	d.scfg = serve.Config{
		Workers:        serveWorkers,
		BlockSize:      serveBlock,
		MaxResident:    sp.maxResident,
		Coalesce:       true,
		MaxBatch:       256,
		BatchWait:      2 * time.Millisecond,
		MaxBodyBytes:   1 << 20,
		MaxBatchPoints: 65536,
		RequestTimeout: serveTimeout,
		TraceRing:      serveTraceRing,
		TraceSample:    serveTraceEvery,
		ErrorLog:       discard,
		Store:          d.st,
	}
	d.srv = serve.New(d.scfg)
	// Swap publishes into the store best-effort and reports the outcome
	// only through this hook; count failures before any traffic.
	logPublish := d.srv.Grids().OnPublish
	d.srv.Grids().OnPublish = func(name, key string, err error) {
		if err != nil {
			d.pubErrs.Add(1)
		}
		logPublish(name, key, err)
	}
	for gi, name := range d.names {
		if err := d.srv.AddStoredGrid(name, d.keys[gi]); err != nil {
			return nil, err
		}
	}
	// Both binaries install RequestID + RealIP with -trusted-proxies
	// empty. The wrappers sit outside that chain so they see the
	// request ID the proxy forwards before the shard replaces it.
	noProxies, _ := middleware.ParseProxies("")
	chain := func(h http.Handler) http.Handler {
		return middleware.Chain(h, middleware.RequestID(noProxies), middleware.RealIP(noProxies))
	}
	srvAddr, err := d.listen(&d.srvHTTP, &http.Server{
		Handler:           d.wrapServer(chain(d.srv.Handler())),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      serveTimeout + 5*time.Second,
		IdleTimeout:       120 * time.Second,
		ConnState:         d.srv.ConnState,
		ErrorLog:          log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}

	d.pcfg = shard.Config{
		Replicas:        proxyReplicas,
		VirtualNodes:    shard.DefaultVirtualNodes,
		UpstreamTimeout: upstreamTimeout,
		HealthInterval:  250 * time.Millisecond,
		HealthTimeout:   time.Second,
		BreakerFails:    3,
		BreakerCooloff:  500 * time.Millisecond,
		MaxBodyBytes:    1 << 20,
		TraceRing:       serveTraceRing,
		ErrorLog:        discard,
		Dial: func(addr string) (net.Conn, error) {
			d.dials.Add(1)
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
	}
	if d.prox, err = shard.New(d.pcfg, shard.Topology{Epoch: 1, Shards: []shard.Shard{{ID: "s0", Addr: srvAddr}}}); err != nil {
		return nil, err
	}
	d.prox.Start()
	// -retries 0 resolves to replicas-1 retries; WriteTimeout outlasts
	// that failover chain, as in sgproxy.
	if d.proxyAddr, err = d.listen(&d.proxHTTP, &http.Server{
		Handler:           d.wrapProxy(chain(d.prox.Handler())),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      upstreamTimeout*time.Duration(proxyReplicas+1) + 5*time.Second,
		IdleTimeout:       120 * time.Second,
		ErrorLog:          log.New(io.Discard, "", 0),
	}); err != nil {
		return nil, err
	}
	if err := d.srv.Preload(); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	return d, nil
}

// buildGrid samples version 0 of grid gi, hierarchizes it and writes
// its snapshot into dir.
func (d *deployment) buildGrid(gi int, dir string) (string, error) {
	sp := d.spec
	name := fmt.Sprintf("g%02d", gi)
	g, err := compactsg.New(sp.dim, sp.level, compactsg.WithWorkers(0))
	if err != nil {
		return "", err
	}
	g.Raw().Fill(field(gi, 0))
	if err := g.CompressValues(); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".sg")
	if err := saveSnapshot(g, path); err != nil {
		return "", err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	d.names = append(d.names, name)
	d.snap = fi.Size()
	return path, nil
}

// nodalValues samples every installable version of every grid:
// [grid][version] nodal values, the input of the writer's installs and
// of the references.
func nodalValues(sp spec) ([][][]float64, error) {
	out := make([][][]float64, sp.grids)
	for gi := range out {
		out[gi] = make([][]float64, sp.versions())
		for v := range out[gi] {
			g, err := compactsg.New(sp.dim, sp.level, compactsg.WithWorkers(0))
			if err != nil {
				return nil, err
			}
			g.Raw().Fill(field(gi, v))
			out[gi][v] = g.Raw().Data
		}
	}
	return out, nil
}

// saveSnapshot writes g's SGC2 snapshot to a new file at path.
func saveSnapshot(g *compactsg.Grid, path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = g.Save(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// listen starts hs on a fresh loopback port and returns its address.
func (d *deployment) listen(slot **http.Server, hs *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	*slot = hs
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "sgperf: serve:", err)
		}
	}()
	return ln.Addr().String(), nil
}

// close stops the proxy, the server and the store, in that order, and
// waits for the listeners' goroutines. Safe on a partial deployment.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if d.proxHTTP != nil {
		d.proxHTTP.Shutdown(ctx)
	}
	if d.prox != nil {
		d.prox.Close()
	}
	if d.srvHTTP != nil {
		d.srvHTTP.Shutdown(ctx)
	}
	if d.srv != nil {
		d.srv.Close()
	}
	d.serving.Wait()
	if d.st != nil {
		d.st.Close()
	}
}
