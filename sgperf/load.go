package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"compactsg"
)

// tally counts operations and their outcomes. A failed operation is a
// transport error, a non-200 status, a wrong value or a failed install.
type tally struct {
	attempted, transport, non200, wrong, pubFails int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.transport += o.transport
	t.non200 += o.non200
	t.wrong += o.wrong
	t.pubFails += o.pubFails
}

func (t tally) failed() int64 { return t.transport + t.non200 + t.wrong + t.pubFails }

// readStats is what one phase's readers saw.
type readStats struct {
	tally
	lat    []int64 // ns per completed request
	done   []int64 // completion of each request, ns after the phase start
	points int64   // points returned and verified
	slices []int64 // points verified in each whole sliceDur of the phase
	spans  []span  // client spans (traced phases only)
}

func (r *readStats) merge(o readStats) {
	r.tally.add(o.tally)
	r.lat = append(r.lat, o.lat...)
	r.done = append(r.done, o.done...)
	r.points += o.points
	if r.slices == nil {
		r.slices = make([]int64, len(o.slices))
	}
	for i, n := range o.slices {
		r.slices[i] += n
	}
	r.spans = append(r.spans, o.spans...)
}

// install is one writer install: copy nodal values, CompressValues,
// Save, Swap.
type install struct {
	due, start, end time.Time
	compress, save  time.Duration // CompressValues; Save to disk
	swap            time.Duration // GridSet.Swap: open, CRC verify, install, store publish
	ok              bool
}

// writer installs new versions of the grids; its state carries over
// from one phase to the next.
type writer struct {
	installed []int    // version currently installed per grid
	paths     []string // snapshot file of the installed version per grid
	next      int      // position in inputs.swaps
	seq       int      // installs made; names snapshot files and spans
}

// sliceDur splits a phase for the per-slice throughput whose median
// is reported, so a short stall of the host moves one slice, not the
// result.
const sliceDur = 500 * time.Millisecond

// perWindow is the number of requests a latency window should hold on
// average: enough that its p99 has ten samples beyond it. Installs are
// windowed the same way, perInstallWindow at a time, for their p90.
const (
	perWindow        = 1000
	perInstallWindow = 100
)

// phase is one closed-loop stretch of reads (and writes).
type phase struct {
	start, end time.Time
	until      time.Time // when the clients stopped sending
	reads      readStats
	installs   []install
	before     counters
	after      counters
}

// latency is the median, over consecutive windows of the phase holding
// about perWindow requests each, of each window's q-quantile request
// latency in ns; a burst of host noise then moves one window, not the
// result. A phase with fewer requests is one window.
func (p *phase) latency(q float64) float64 {
	w := p.windows()
	span := p.until.Sub(p.start)
	wins := make([][]int64, w)
	for i, l := range p.reads.lat {
		k := min(int(int64(w)*p.reads.done[i]/int64(span)), w-1)
		wins[k] = append(wins[k], l)
	}
	return medianOf(wins, q)
}

// medianOf is the median over windows of each window's q-quantile (the
// mean of the middle two for an even count).
func medianOf(wins [][]int64, q float64) float64 {
	var qs []float64
	for _, win := range wins {
		if len(win) > 0 {
			slices.Sort(win)
			qs = append(qs, float64(quantile(win, q)))
		}
	}
	if len(qs) == 0 {
		return 0
	}
	slices.Sort(qs)
	n := len(qs)
	return (qs[(n-1)/2] + qs[n/2]) / 2
}

// windows is how many latency windows the phase splits into: one per
// perWindow requests, at most one per slice, at least one.
func (p *phase) windows() int {
	return max(1, min(len(p.reads.lat)/perWindow, len(p.reads.slices)))
}

// rate is the median over the phase's whole slices of points verified
// per second; a phase shorter than one slice uses its mean.
func (p *phase) rate() float64 {
	if len(p.reads.slices) == 0 {
		return float64(p.reads.points) / p.end.Sub(p.start).Seconds()
	}
	s := slices.Clone(p.reads.slices)
	slices.Sort(s)
	return float64(quantile(s, 0.5)) / sliceDur.Seconds()
}

// runPhase drives every client, and the writer if the workload has one,
// for dur, and snapshots the program's counters around it. Each client
// reserves room for expect requests up front: per-request records that
// grew during the phase would grow the live heap, and with it stretch
// the GC cycle and move the tail latencies as the phase goes on.
func (d *deployment) runPhase(in *inputs, w *writer, dur time.Duration, expect int, traced bool) phase {
	if traced {
		d.spans.reserve(2 * expect * d.spec.clients)
	}
	d.tracing.Store(traced)
	defer d.tracing.Store(false)
	ph := phase{before: d.counters()}
	ph.start = time.Now()
	until := ph.start.Add(dur)
	ph.until = until
	stats := make([]readStats, d.spec.clients)
	var wg sync.WaitGroup
	for c := range stats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = d.read(in, c, ph.start, until, expect, traced)
		}(c)
	}
	if d.spec.writeEvery > 0 {
		for k := 0; ; k++ {
			due := ph.start.Add(time.Duration(k) * d.spec.writeEvery)
			if !due.Before(until) {
				break
			}
			time.Sleep(time.Until(due))
			gi := in.swaps[w.next%len(in.swaps)]
			w.next++
			ph.installs = append(ph.installs, d.install(w, gi, due, traced))
		}
	}
	wg.Wait()
	ph.end = time.Now()
	for _, s := range stats {
		ph.reads.merge(s)
	}
	ph.after = d.counters()
	return ph
}

// read is one closed-loop client: send the next request as soon as the
// previous answer is in and verified, until the deadline.
func (d *deployment) read(in *inputs, client int, start, until time.Time, expect int, traced bool) readStats {
	h := &conn{addr: d.proxyAddr}
	defer h.close()
	seq := in.picks[client]
	st := readStats{
		lat:    make([]int64, 0, expect),
		done:   make([]int64, 0, expect),
		slices: make([]int64, int(until.Sub(start)/sliceDur)),
	}
	if traced {
		st.spans = make([]span, 0, expect)
	}
	for k := client * 977; ; k++ {
		t0 := time.Now()
		if !t0.Before(until) {
			return st
		}
		p := seq[k%len(seq)]
		status, body, err := h.roundTrip(in.reqs[p.grid][p.frame])
		t1 := time.Now()
		st.attempted++
		st.lat = append(st.lat, int64(t1.Sub(t0)))
		st.done = append(st.done, int64(t1.Sub(start)))
		switch {
		case err != nil:
			st.transport++
		case status != 200:
			st.non200++
		case in.version(int(p.grid), int(p.frame), body) < 0:
			st.wrong++
		default:
			st.points += int64(in.batch)
			if i := int(t1.Sub(start) / sliceDur); i < len(st.slices) {
				st.slices[i] += int64(in.batch)
			}
		}
		if traced {
			st.spans = append(st.spans, span{kind: spanClient, req: string(h.id), start: t0, end: t1})
		}
	}
}

// install publishes the next version of grid gi through the shipped
// path: copy precomputed nodal values, CompressValues, Save, Swap (which
// also publishes the snapshot into the store). due is when the schedule
// wanted it to start.
func (d *deployment) install(w *writer, gi int, due time.Time, traced bool) install {
	sp := d.spec
	v := (w.installed[gi] + 1) % sp.versions()
	rec := install{due: due, start: time.Now()}
	g, err := compactsg.New(sp.dim, sp.level)
	if err == nil {
		copy(g.Raw().Data, d.nodal[gi][v])
		t := time.Now()
		err = g.CompressValues()
		rec.compress = time.Since(t)
	}
	// A fresh file per install: renaming over the previous one would
	// make ext4 flush it (auto_da_alloc), a cost the program never asks for.
	w.seq++
	path := filepath.Join(d.dir, "snap", fmt.Sprintf("%s-%d.sg", d.names[gi], w.seq))
	if err == nil {
		t := time.Now()
		err = saveSnapshot(g, path)
		rec.save = time.Since(t)
	}
	if err == nil {
		t := time.Now()
		_, err = d.srv.Grids().Swap(d.names[gi], path, 0)
		rec.swap = time.Since(t)
	}
	rec.end = time.Now()
	rec.ok = err == nil
	if rec.ok {
		w.installed[gi] = v
		// The registry maps or re-keys what it needs; the previous file
		// only held the displaced version.
		if w.paths[gi] != "" {
			os.Remove(w.paths[gi])
		}
		w.paths[gi] = path
	} else {
		os.Remove(path)
	}
	if traced {
		d.spans.addPublish(fmt.Sprintf("publish-%s-%d", d.names[gi], w.seq), rec)
	}
	return rec
}

// finalCheck reads every request of every grid once and requires the
// values of the version the writer installed last: the installs took
// effect, and the shard serves them exactly.
func (d *deployment) finalCheck(in *inputs, w *writer) tally {
	h := &conn{addr: d.proxyAddr}
	defer h.close()
	var t tally
	for gi, row := range in.reqs {
		for fi, req := range row {
			t.attempted++
			status, body, err := h.roundTrip(req)
			switch {
			case err != nil:
				t.transport++
			case status != 200:
				t.non200++
			default:
				if vals, ok := in.values(body); !ok || !bitEqual(vals, in.refs[gi][w.installed[gi]][fi]) {
					t.wrong++
				}
			}
		}
	}
	return t
}
