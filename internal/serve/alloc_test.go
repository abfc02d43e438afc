package serve

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"compactsg"
	"compactsg/internal/obs"
	"compactsg/internal/workload"
)

func compressedGrid(t *testing.T, dim, level int, opts ...compactsg.Option) *compactsg.Grid {
	t.Helper()
	g, err := compactsg.New(dim, level, opts...)
	if err != nil {
		t.Fatal(err)
	}
	g.Compress(func(x []float64) float64 {
		p := 1.0
		for _, v := range x {
			p *= 4 * v * (1 - v)
		}
		return p
	})
	return g
}

// TestEvaluateBatchSteadyStateZeroAlloc: with a caller-provided output
// slice, batch evaluation must not allocate at steady state — the level
// vector and the basis tables come from the package pool. This is the
// invariant that keeps the serve flush loop allocation-free.
//
// Under the shipped config (WithWorkers(0)), a batch that fills one
// chunk runs on the caller's goroutine and allocates nothing. A batch
// split over several workers pays only for the spawned goroutines (a
// closure each plus the shared WaitGroup): at most the worker count per
// call, whatever the batch size — there is no per-block bookkeeping.
func TestEvaluateBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := compressedGrid(t, 4, 6)
	xs := [][]float64{
		{0.1, 0.2, 0.3, 0.4},
		{0.5, 0.5, 0.5, 0.5},
		{0.9, 0.1, 0.8, 0.2},
	}
	out := make([]float64, len(xs))
	// Warm the pools.
	if _, err := g.EvaluateBatch(xs, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.EvaluateBatch(xs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvaluateBatch allocates %v objects per call at steady state, want 0", allocs)
	}

	for _, workers := range []int{0, 4} {
		gw := compressedGrid(t, 4, 6, compactsg.WithWorkers(workers))
		for _, n := range []int{1, 8, 9, 64, 1000} {
			xs := workload.Points(int64(n), n, 4)
			out := make([]float64, n)
			eval := func() {
				if _, err := gw.EvaluateBatch(xs, out); err != nil {
					t.Fatal(err)
				}
			}
			eval()
			// AllocsPerRun pins GOMAXPROCS to 1, so auto workers resolve
			// to one chunk there; allocsAtProcs keeps the host's count,
			// with other goroutines running beside the measured calls:
			// it allows their stray allocations a fraction below one
			// object per call.
			for _, c := range []struct {
				procs         int
				allocs, slack float64
			}{
				{1, testing.AllocsPerRun(20, eval), 0},
				{runtime.GOMAXPROCS(0), allocsAtProcs(20, eval), 0.5},
			} {
				resolved := workers
				if resolved == 0 {
					resolved = c.procs
				}
				want := float64(resolved)
				if min(resolved, (n+7)/8) == 1 {
					want = 0
				}
				if c.allocs > want+c.slack {
					t.Errorf("workers=%d procs=%d n=%d: %v objects per call, want at most %v",
						workers, c.procs, n, c.allocs, want)
				}
			}
		}
	}
}

// allocsAtProcs is testing.AllocsPerRun without its GOMAXPROCS(1) pin:
// the mean heap allocation count of f per call at the current
// GOMAXPROCS, the least mean of five rounds.
func allocsAtProcs(runs int, f func()) float64 {
	best := math.Inf(1)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return best
}

// TestBatcherSteadyStateZeroAlloc: a full coalesced round trip —
// submit, flush, deliver — must not allocate at steady state. The
// result channel is pooled, the flush timer is reused, and the batch
// buffers (calls, live, xs, out) are retained across flushes.
func TestBatcherSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := compressedGrid(t, 3, 5)
	b := newBatcher(g, 1, time.Millisecond, nil)
	defer b.close()
	ctx := context.Background()
	x := []float64{0.25, 0.5, 0.75}
	// Warm the pools and the batcher's retained buffers.
	for k := 0; k < 8; k++ {
		if _, err := b.submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := b.submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	// submit itself must be allocation-free; the flush loop runs on
	// another goroutine, so its (also pooled) work only shows up here
	// via timing jitter — allow a fraction below one object per call.
	if allocs > 0.5 {
		t.Fatalf("coalesced submit allocates %v objects per call at steady state, want 0", allocs)
	}
}

// TestBatcherTracedSubmitZeroAlloc: attaching an obs.Span must not add
// steady-state allocations to the coalesced path — the flush loop's
// timings travel by value in the pooled result channel and land in the
// span via plain field writes. This is the "tracing is free on the hot
// path" guarantee the observability layer is built on.
func TestBatcherTracedSubmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := compressedGrid(t, 3, 5)
	b := newBatcher(g, 1, time.Millisecond, nil)
	defer b.close()
	tracer := obs.New(64)
	sp := tracer.Start("eval")
	defer sp.Finish()
	// The context is built once per request by instrument; only the
	// per-submit work below must stay allocation-free.
	ctx := obs.NewContext(context.Background(), sp)
	x := []float64{0.25, 0.5, 0.75}
	for k := 0; k < 8; k++ {
		if _, err := b.submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := b.submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("traced coalesced submit allocates %v objects per call at steady state, want 0", allocs)
	}
	if !sp.Touched(obs.StageQueueWait) || !sp.Touched(obs.StageEval) || sp.BatchSize() < 1 {
		t.Fatal("span did not receive the flush loop's timings")
	}
}
