package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"compactsg/internal/store"
)

// The benchmark's own spans. A request has three, nested: the client's
// round trip, the proxy handler, the server handler; they share the
// request ID the proxy mints and forwards upstream. An install has four:
// publish, with children compress, save and swap.
type spanKind uint8

const (
	spanClient spanKind = iota
	spanProxy
	spanServer
	spanPublish
	spanCompress
	spanSave
	spanSwap
)

var spanNames = [...]string{"client", "proxy_handler", "server_handler", "publish", "compress", "save", "swap"}

type span struct {
	kind       spanKind
	req        string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps the handler and publish spans in memory; client spans
// stay with their client until the phase ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) addPublish(req string, in install) {
	compressEnd := in.start.Add(in.compress)
	saveEnd := compressEnd.Add(in.save)
	l.mu.Lock()
	l.spans = append(l.spans,
		span{spanPublish, req, in.start, in.end},
		span{spanCompress, req, in.start, compressEnd},
		span{spanSave, req, compressEnd, saveEnd},
		span{spanSwap, req, saveEnd, in.end})
	l.mu.Unlock()
}

// reserve makes room for n more spans.
func (l *spanLog) reserve(n int) {
	l.mu.Lock()
	l.spans = slices.Grow(l.spans, n)
	l.mu.Unlock()
}

// take returns and clears the recorded spans.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// wrapProxy times the proxy handler, middleware included. The request
// ID is the one the proxy's RequestID middleware minted and echoed.
func (d *deployment) wrapProxy(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !d.tracing.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d.spans.add(span{spanProxy, w.Header().Get("X-Request-Id"), t0, time.Now()})
	})
}

// wrapServer times the shard's handler, middleware included, under the
// request ID the proxy forwarded (read before the shard's own
// middleware replaces it).
func (d *deployment) wrapServer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !d.tracing.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get("X-Request-Id")
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d.spans.add(span{spanServer, id, t0, time.Now()})
	})
}

// counters is a snapshot of what the program exports: the shard's and
// the proxy's metrics registries, the store's counters, the proxy's
// dials, and the Go runtime's allocation and GC totals.
type counters struct {
	srv, prox   map[string]float64
	st          store.Stats
	dials       int64
	allocBytes  uint64
	gcCycles    uint64
	gcPauseNs   uint64
	publishErrs int64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func (d *deployment) counters() counters {
	c := counters{
		srv:         scrape(func(b *bytes.Buffer) { d.srv.Metrics().WritePrometheus(b) }),
		prox:        scrape(func(b *bytes.Buffer) { d.prox.Metrics().WritePrometheus(b) }),
		st:          d.st.Stats(),
		dials:       d.dials.Load(),
		publishErrs: d.pubErrs.Load(),
	}
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	c.allocBytes = samples[0].Value.Uint64()
	c.gcCycles = samples[1].Value.Uint64()
	// runtime/metrics exposes GC pauses only as a bucketed histogram;
	// MemStats has the exact total.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNs = ms.PauseTotalNs
	return c
}

// scrape parses Prometheus text exposition into series → value.
func scrape(write func(*bytes.Buffer)) map[string]float64 {
	var b bytes.Buffer
	write(&b)
	m := make(map[string]float64)
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// deltas reads after − before of the series the per-layer metrics
// need and records each one the program does not export, so that a
// renamed series fails the run instead of reading 0.
type deltas struct {
	before, after map[string]float64
	missing       []string
}

func (d *deltas) of(series string) float64 {
	a, ok := d.after[series]
	if !ok {
		d.missing = append(d.missing, series)
	}
	return a - d.before[series]
}

// sum adds the deltas of every series of a labelled family; the
// family must have at least one.
func (d *deltas) sum(family string) float64 {
	var s float64
	n := 0
	for k, v := range d.after {
		if strings.HasPrefix(k, family+"{") {
			s += v - d.before[k]
			n++
		}
	}
	if n == 0 {
		d.missing = append(d.missing, family+"{...}")
	}
	return s
}

// stage is the sgserve_stage_seconds sum delta of one stage.
func (d *deltas) stage(name string) float64 {
	return d.of(`sgserve_stage_seconds_sum{stage="` + name + `"}`)
}

var stageNames = []string{"decode", "validate", "load", "load_wait", "queue_wait", "dispatch", "eval", "encode"}

// joined pairs each client span with the proxy and server spans of the
// same request ID.
type joined struct {
	client, proxy, server span
}

func join(client, handlers []span) (js []joined, serverTotal time.Duration, servers int) {
	proxy := make(map[string]span)
	server := make(map[string]span)
	for _, s := range handlers {
		switch s.kind {
		case spanProxy:
			proxy[s.req] = s
		case spanServer:
			server[s.req] = s
			serverTotal += s.dur()
			servers++
		}
	}
	for _, c := range client {
		p, okp := proxy[c.req]
		s, oks := server[c.req]
		if okp && oks {
			js = append(js, joined{c, p, s})
		}
	}
	return js, serverTotal, servers
}

// writeSpans dumps every span of the traced phase as gzipped JSON
// lines: name, id, parent (-1 for a root), request ID, start and end in
// ns since the first span.
func writeSpans(path string, client, other []span) error {
	all := append(append([]span(nil), client...), other...)
	if len(all) == 0 {
		return nil
	}
	epoch := all[0].start
	for _, s := range all {
		if s.start.Before(epoch) {
			epoch = s.start
		}
	}
	// Parents: proxy → client, server → proxy, publish children →
	// publish, all by request ID.
	parentKind := map[spanKind]spanKind{spanProxy: spanClient, spanServer: spanProxy,
		spanCompress: spanPublish, spanSave: spanPublish, spanSwap: spanPublish}
	index := make(map[spanKind]map[string]int)
	for i, s := range all {
		if index[s.kind] == nil {
			index[s.kind] = make(map[string]int)
		}
		index[s.kind][s.req] = i
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for i, s := range all {
		parent := -1
		if pk, ok := parentKind[s.kind]; ok {
			if j, ok := index[pk][s.req]; ok {
				parent = j
			}
		}
		if err = enc.Encode(struct {
			Name   string `json:"name"`
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Req    string `json:"req"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{spanNames[s.kind], i, parent, s.req, int64(s.start.Sub(epoch)), int64(s.end.Sub(epoch))}); err != nil {
			break
		}
	}
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
