package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"compactsg/internal/core"
)

type options struct {
	seed       int64
	measure    time.Duration
	traced     bool
	work       string
	traceDir   string // span dumps; "" writes none
	plantWrong bool   // self-test: corrupt one reference value
}

type metric struct {
	name, unit string
	value      float64
	samples    int // values behind a percentile or mean; 0 = a count or a computed value
}

type result struct {
	spec        spec
	opts        options
	env         []string
	setup       []time.Duration
	ops         tally
	fingerprint uint64
	e2e, layers []metric
	notes       []string
}

// Set-up repeats at least setupMin times and on until setupBudget has
// passed or setupMax were made; setup_s is the median.
const (
	setupMin    = 5
	setupMax    = 50
	setupBudget = time.Second
)

// runWorkload sets up several times (keeping the last), makes the
// inputs and references, warms up, measures, and derives metrics.
func runWorkload(sp spec, o options) (*result, error) {
	res := &result{spec: sp, opts: o}
	nodal, err := nodalValues(sp)
	if err != nil {
		return nil, err
	}
	spans := &spanLog{}
	var d *deployment
	var spent time.Duration
	for i := 0; i == 0 || !sp.oneSetup && (i < setupMin || spent < setupBudget && i < setupMax); i++ {
		if d != nil {
			d.close()
			os.RemoveAll(d.dir)
			d = nil
			runtime.GC()
		}
		t0 := time.Now()
		if d, err = deploy(sp, filepath.Join(o.work, fmt.Sprintf("setup%d", i)), nodal, spans); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0))
		spent += res.setup[i]
	}
	defer d.close()
	res.env = environment(d)

	in, err := prepare(d, o.seed)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	if o.plantWrong {
		in.plantWrong()
	}
	res.fingerprint = in.fingerprint
	w := &writer{installed: make([]int, sp.grids), paths: make([]string, sp.grids)}
	runtime.GC()

	warm := d.runPhase(in, w, sp.warmup, 1<<12, false)
	res.account(&warm)
	// Room for each client's requests, from the warm-up rate with a
	// quarter to spare.
	expect := func(dur time.Duration) int {
		return int(float64(len(warm.reads.lat))/sp.warmup.Seconds()*dur.Seconds()*1.25/float64(sp.clients)) + 1<<10
	}
	var measured, traced *phase
	if o.traced {
		m := d.runPhase(in, w, o.measure/2, expect(o.measure/2), false)
		runtime.GC()
		t := d.runPhase(in, w, o.measure/2, expect(o.measure/2), true)
		measured, traced = &m, &t
		res.account(traced)
	} else {
		m := d.runPhase(in, w, o.measure, expect(o.measure), false)
		measured = &m
	}
	res.account(measured)

	installs := measured.installs
	res.ops.add(d.finalCheck(in, w))
	res.ops.pubFails += d.pubErrs.Load()

	res.e2e = endToEnd(res.setup, measured)
	res.notes = append(res.notes, fmt.Sprintf(
		"points_per_s: median of %d slices of %v; latency_p50/p99: median over %d windows of ~%d requests of each window's quantile; publish_p50/p90: the same over windows of %d installs",
		len(measured.reads.slices), sliceDur, measured.windows(), len(measured.reads.lat)/measured.windows(), perInstallWindow),
		fmt.Sprintf("per-layer, not gated: latency_p99_ms %.6g (n=%d), publish_p50_ms %.6g, publish_p90_ms %.6g (n=%d)",
			measured.latency(0.99)/1e6, len(measured.reads.lat),
			medianOf(publishWindows(installs), 0.50)/1e6, medianOf(publishWindows(installs), 0.90)/1e6, len(installs)))
	if traced != nil {
		handlers := spans.take()
		if res.layers, err = res.perLayer(d, measured, traced, handlers); err != nil {
			return nil, err
		}
		if o.traceDir != "" {
			path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl.gz", sp.name, o.seed))
			if err := writeSpans(path, traced.reads.spans, handlers); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			res.notes = append(res.notes, "spans written to "+path)
		}
	}
	return res, nil
}

func (r *result) account(ph *phase) {
	r.ops.add(ph.reads.tally)
	for _, in := range ph.installs {
		r.ops.attempted++
		if !in.ok {
			r.ops.pubFails++
		}
	}
}

func endToEnd(setup []time.Duration, m *phase) []metric {
	set := make([]int64, len(setup))
	for i, s := range setup {
		set[i] = int64(s)
	}
	slices.Sort(set)
	return []metric{
		{"points_per_s", "points/s", m.rate(), len(m.reads.slices)},
		{"latency_p50_ms", "ms", m.latency(0.50) / 1e6, len(m.reads.lat)},
		{"setup_s", "s", float64(quantile(set, 0.5)) / 1e9, len(set)},
		{"rss_peak_mb", "MB", peakRSS() / 1e6, 0},
	}
}

// publishWindows splits install latencies (due → Swap returned), in
// order, into windows of perInstallWindow; a short tail joins the last.
func publishWindows(installs []install) [][]int64 {
	var wins [][]int64
	for i, in := range installs {
		if i%perInstallWindow == 0 && (len(installs)-i >= perInstallWindow || i == 0) {
			wins = append(wins, nil)
		}
		wins[len(wins)-1] = append(wins[len(wins)-1], int64(in.end.Sub(in.due)))
	}
	return wins
}

// perLayer derives the per-layer metrics of the traced phase t from
// the benchmark's spans and the counter deltas around t; m is the
// untraced phase of the same run, which gives the tail latency and the
// tracing overhead's base. A series the program no longer exports is
// an error.
func (r *result) perLayer(d *deployment, m, t *phase, handlers []span) ([]metric, error) {
	sp := d.spec
	installs := t.installs
	js, serverTotal, servers := join(t.reads.spans, handlers)
	var clientAll, clientJoined, net, hop time.Duration
	for _, s := range t.reads.spans {
		clientAll += s.dur()
	}
	for _, j := range js {
		clientJoined += j.client.dur()
		net += j.client.dur() - j.proxy.dur()
		hop += j.proxy.dur() - j.server.dur()
	}
	nj := float64(len(js))
	dv := &deltas{before: t.before.srv, after: t.after.srv}
	dp := &deltas{before: t.before.prox, after: t.after.prox}
	srv := dv.of
	pts := srv("sgserve_points_evaluated_total")
	reqs := dv.sum("sgserve_requests_total")
	var stages float64
	for _, s := range stageNames {
		stages += dv.stage(s)
	}
	loads, waits := srv("sgserve_grid_loads_total"), srv("sgserve_grid_load_waits_total")
	hits := float64(t.after.st.Hits - t.before.st.Hits)
	misses := float64(t.after.st.Misses - t.before.st.Misses)

	var compress, save, swap time.Duration
	var late time.Duration
	for _, in := range installs {
		compress += in.compress
		save += in.save
		swap += in.swap
		late = max(late, in.start.Sub(in.due))
	}
	ni := float64(len(installs))
	desc, _ := core.NewDescriptor(sp.dim, sp.level)
	subspaces, lines := roofline(desc)
	nreq := float64(len(t.reads.lat))
	ppsM, ppsT := m.rate(), t.rate()
	coverage := ratio(float64(clientJoined), float64(clientAll))

	r.notes = append(r.notes,
		fmt.Sprintf("trace: %d of %d client requests joined to proxy and server spans by request ID", len(js), len(t.reads.spans)),
		"trace: net = client − proxy handler (client stack, loopback, proxy accept/parse); shard.self = proxy handler − server handler (proxy work, upstream frame I/O); serve.self = server handler − sgserve_stage_seconds stages (middleware, routing, Acquire, eval goroutine hand-off)",
		fmt.Sprintf("eval roofline (computed from the descriptor, not measured): %d subspaces × 8 B = %d B and ≤%d cache lines of scattered coefficient reads, %d flops per point; %.3f flop/B. No in-run bandwidth measurement, so no attainable-rate ratio.",
			subspaces, 8*subspaces, lines, subspaces*int64(sp.dim+2), float64(sp.dim+2)/8),
		"runtime: allocation and GC totals cover the whole process, load generator included")
	if coverage < 0.9 {
		r.notes = append(r.notes, fmt.Sprintf("trace: coverage %.3f is below 0.9; %.1f%% of client time is in requests whose client, proxy and server spans did not all join by request ID",
			coverage, 100*(1-coverage)))
	}
	ms := []metric{
		{"latency_p99_ms", "ms", m.latency(0.99) / 1e6, len(m.reads.lat)},
		{"net.us_per_req", "us", ratio(us(net), nj), len(js)},
		{"shard.self_us_per_req", "us", ratio(us(hop), nj), len(js)},
		{"shard.upstream_dials", "count", float64(t.after.dials - t.before.dials), 0},
		{"shard.retries", "count", dp.of("sgproxy_retries_total"), 0},
		{"serve.decode_ns_per_pt", "ns", ratio(dv.stage("decode")*1e9, pts), int(pts)},
		{"serve.validate_ns_per_pt", "ns", ratio(dv.stage("validate")*1e9, pts), int(pts)},
		{"serve.encode_ns_per_pt", "ns", ratio(dv.stage("encode")*1e9, pts), int(pts)},
		{"serve.dispatch_us_per_req", "us", ratio(dv.stage("dispatch")*1e6, reqs), int(reqs)},
		{"serve.self_us_per_req", "us", ratio((serverTotal.Seconds()-stages)*1e6, float64(servers)), servers},
		{"registry.loads", "count", loads, 0},
		{"registry.load_waits", "count", waits, 0},
		{"registry.evictions", "count", srv("sgserve_grid_evictions_total"), 0},
		{"registry.swaps", "count", srv("sgserve_grid_swaps_total"), 0},
		{"registry.hit_ratio", "ratio", ratio(max(reqs-loads-waits, 0), reqs), int(reqs)},
		{"registry.load_ms_per_load", "ms", ratio(srv("sgserve_grid_load_seconds_sum")*1e3, srv("sgserve_grid_load_seconds_count")), int(loads)},
		{"store.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits + misses)},
		{"store.misses", "count", misses, 0},
		{"store.fills", "count", float64(t.after.st.Fills - t.before.st.Fills), 0},
		{"store.evictions", "count", float64(t.after.st.Evictions - t.before.st.Evictions), 0},
		{"store.fetch_mb", "MB", float64(t.after.st.FetchBytes-t.before.st.FetchBytes) / 1e6, 0},
		{"store.fetch_ms_per_miss", "ms", ratio((t.after.st.FetchSeconds-t.before.st.FetchSeconds)*1e3, misses), int(misses)},
		{"eval.ns_per_pt", "ns", ratio(dv.stage("eval")*1e9, pts), int(pts)},
		{"eval.points", "count", pts, 0},
		{"eval.subspaces", "count", float64(subspaces), 0},
		{"eval.bytes_per_pt", "B", float64(8 * subspaces), 0},
		{"eval.lines_per_pt", "count", float64(lines), 0},
		{"eval.flops_per_pt", "count", float64(subspaces * int64(sp.dim+2)), 0},
		{"hier.ns_per_pt", "ns", ratio(float64(compress), ni*float64(desc.Size())), len(installs)},
		{"snapshot.save_ms", "ms", ratio(ms(int64(save)), ni), len(installs)},
		{"snapshot.swap_ms", "ms", ratio(ms(int64(swap)), ni), len(installs)},
		{"publish_p50_ms", "ms", medianOf(publishWindows(installs), 0.50) / 1e6, len(installs)},
		{"publish_p90_ms", "ms", medianOf(publishWindows(installs), 0.90) / 1e6, len(installs)},
		{"runtime.alloc_kb_per_req", "KB", ratio(float64(t.after.allocBytes-t.before.allocBytes)/1024, nreq), int(nreq)},
		{"runtime.gc_cycles", "count", float64(t.after.gcCycles - t.before.gcCycles), 0},
		{"runtime.gc_pause_ms", "ms", float64(t.after.gcPauseNs-t.before.gcPauseNs) / 1e6, 0},
		{"gen.writer_late_ms_max", "ms", ms(int64(late)), len(installs)},
		{"trace.coverage", "ratio", coverage, len(t.reads.spans)},
		{"trace.overhead_pct", "%", ratio((ppsM-ppsT)*100, ppsM), 0},
		{"fail_ratio", "ratio", ratio(float64(r.ops.failed()), float64(r.ops.attempted)), int(r.ops.attempted)},
	}
	if missing := append(dv.missing, dp.missing...); len(missing) > 0 {
		return nil, fmt.Errorf("series not exported by the program: %s", strings.Join(missing, ", "))
	}
	return ms, nil
}

// roofline counts, per evaluated point, the subspaces the kernel visits
// (one coefficient read each) and an upper bound on the distinct 64-byte
// lines those reads touch: subspaces of fewer than 8 points pack several
// to a line.
func roofline(desc *core.Descriptor) (subspaces, lines int64) {
	for g := 0; g < desc.Groups(); g++ {
		n := desc.Subspaces(g)
		subspaces += n
		lines += min(n, (n<<uint(g)*8+63)/64)
	}
	return subspaces, lines
}

// quantile is the nearest-rank quantile of sorted values (0 if empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func ms(ns int64) float64        { return float64(ns) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSS is the process's resident-set high-water mark in bytes.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024
		}
	}
	return 0
}

func environment(d *deployment) []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	c, p := d.scfg, d.pcfg
	return []string{
		fmt.Sprintf("host: %s, GOMAXPROCS=%d, nproc=%d, cpu=%q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu),
		fmt.Sprintf("sgserve: workers=%d(auto) block=%d max-grids=%d coalesce=%v max-batch=%d batch-wait=%v max-body=%d max-points=%d timeout=%v trace-ring=%d trace-sample=%d store-cap=%d",
			c.Workers, c.BlockSize, c.MaxResident, c.Coalesce, c.MaxBatch, c.BatchWait, c.MaxBodyBytes, c.MaxBatchPoints, c.RequestTimeout, c.TraceRing, c.TraceSample, d.st.Stats().CapBytes),
		fmt.Sprintf("sgproxy: shards=1 replicas=%d retries=0(replicas-1) vnodes=%d upstream-timeout=%v health=%v/%v breaker=%d/%v max-body=%d trace-ring=%d",
			p.Replicas, p.VirtualNodes, p.UpstreamTimeout, p.HealthInterval, p.HealthTimeout, p.BreakerFails, p.BreakerCooloff, p.MaxBodyBytes, p.TraceRing),
		"both: RequestID + RealIP middleware, -trusted-proxies empty; loopback TCP, in one process with the load generator",
	}
}

// report prints the human-readable result.
func (r *result) report(w io.Writer) {
	sp := r.spec
	fmt.Fprintf(w, "workload %s (seed %d, %v measured, trace=%v): %s\n", sp.name, r.opts.seed, r.opts.measure, r.opts.traced, sp.why)
	fmt.Fprintf(w, "  shape: %d grid(s) d=%d level=%d, %d version(s) each; %d closed-loop client(s), %s, %d pt/request\n",
		sp.grids, sp.dim, sp.level, sp.versions(), sp.clients, sp.proto, sp.batch)
	if sp.writeEvery > 0 {
		fmt.Fprintf(w, "  writer: one install every %v beside the reads\n", sp.writeEvery)
	} else {
		fmt.Fprintln(w, "  writer: none (hier.*, snapshot.*, publish_* read 0 with n=0)")
	}
	for _, e := range r.env {
		fmt.Fprintln(w, "  "+e)
	}
	set := make([]string, len(r.setup))
	for i, s := range r.setup {
		set[i] = fmt.Sprintf("%.3fs", s.Seconds())
	}
	fmt.Fprintf(w, "  set-ups: %s (grid build + snapshot write + remote population + server/proxy start + preload)\n", strings.Join(set, " "))
	fmt.Fprintf(w, "  ops: attempted=%d failed=%d (transport=%d non200=%d wrong=%d publish=%d) inputs=%016x\n",
		r.ops.attempted, r.ops.failed(), r.ops.transport, r.ops.non200, r.ops.wrong, r.ops.pubFails, r.fingerprint)
	for _, group := range [][]metric{r.e2e, r.layers} {
		for _, m := range group {
			n := ""
			if m.samples > 0 {
				n = fmt.Sprintf("  (n=%d)", m.samples)
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-9s%s\n", m.name, m.value, m.unit, n)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	verdict := "correct: every value bit-exact, every request and install succeeded"
	if r.ops.failed() > 0 {
		verdict = "INCORRECT: see ops above"
	}
	fmt.Fprintln(w, "  "+verdict)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary is the result line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func (r *result) summary() summary {
	ms := r.e2e
	if r.opts.traced {
		ms = r.layers
	}
	out := summary{Correct: r.ops.failed() == 0, Attempted: r.ops.attempted, Failed: r.ops.failed(), Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return out
}
