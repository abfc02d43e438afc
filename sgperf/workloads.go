package main

import (
	"math"
	"time"
)

// spec describes one workload: the grids the shard serves, the read
// traffic sent through the proxy, and the installs a writer makes.
type spec struct {
	name string
	why  string

	dim, level int
	grids      int     // catalog size
	zipf       float64 // exponent s of the reads' Zipf draw over grids, P(k) ∝ (1+k)^-s
	frames     int     // distinct request bodies per grid

	clients int    // closed-loop reader connections
	proto   string // "bin": 64-point frames to /v1/eval/bin; "json": one point to /v1/eval
	batch   int    // points per request

	maxResident int // serve.Config.MaxResident
	cacheGrids  int // store cache capacity in snapshots (0 = unlimited)

	// writeEvery > 0 runs a writer beside the readers, installing a new
	// version of a grid on that fixed schedule; 0 runs no writer.
	writeEvery time.Duration

	warmup   time.Duration
	oneSetup bool // self-test: one set-up instead of repeated ones
}

// versions is how many versions of each grid can be installed: the
// writer cycles through two, a workload without one serves only the
// first. A response must match one of its grid's versions bit for bit.
func (s spec) versions() int {
	if s.writeEvery > 0 {
		return 2
	}
	return 1
}

var workloads = []spec{
	{
		name: "batch64-bin-d5l10",
		why:  "64-point binary frames on a 4.4 MB d=5 level-10 grid: the eval kernel is nearly all of each request",
		dim:  5, level: 10, grids: 1, frames: 32,
		// One client: with two, p50 swung between ~2.2 and ~3.4 ms from
		// one stretch of seconds to the next, a spread of 0.21 of the
		// median over ten runs on a 2-vCPU Xeon; one client, in runs
		// interleaved with those, held 3.3–3.6 ms.
		clients: 1, proto: "bin", batch: 64,
		maxResident: 8, warmup: time.Second,
	},
	{
		name: "point-json-d3l5",
		why:  "single-point JSON on a 351-point grid: HTTP, JSON codec, proxy hop and allocation dominate; the kernel is a few percent",
		dim:  3, level: 5, grids: 1, frames: 1024,
		clients: 2, proto: "json", batch: 1,
		maxResident: 8, warmup: time.Second,
	},
	{
		name: "catalog-swap-d5l9",
		why:  "Zipf reads over 12 grids (24 versions) with 4 resident and a 12-snapshot store cache, beside a writer installing a new version every 100 ms",
		dim:  5, level: 9, grids: 12, zipf: 3, frames: 16,
		clients: 1, proto: "bin", batch: 64,
		maxResident: 4, cacheGrids: 12, writeEvery: 100 * time.Millisecond,
		warmup: time.Second,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// tiny shrinks a workload for the self-test: small grids, few bodies,
// one set-up. The traffic shape (protocol, clients, catalog, writer)
// stays the same.
func (s spec) tiny() spec {
	s.level = min(s.level, 4)
	s.frames = min(s.frames, 4)
	s.oneSetup = true
	s.warmup = 50 * time.Millisecond
	if s.writeEvery > 0 {
		s.writeEvery = 20 * time.Millisecond
	}
	return s
}

// field is the function sampled into grid g at version v: the
// zero-boundary gaussian bump exp(-Σ(4x-2-c)²/4)·Π4x(1-x), with its
// centre shifted per grid and per version so every installable version
// has its own coefficients. Grid 0, version 0 is the plain gaussian of
// internal/workload.
func field(g, v int) func(x []float64) float64 {
	c := 0.1*float64(g) - 0.05*float64(v)
	return func(x []float64) float64 {
		s, w := 0.0, 1.0
		for _, t := range x {
			d := 4*t - 2 - c
			s += d * d
			w *= 4 * t * (1 - t)
		}
		return w * math.Exp(-s/4)
	}
}
