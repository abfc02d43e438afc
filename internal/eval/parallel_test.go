package eval

import (
	"math"
	"math/rand"
	"testing"
)

// Parallel batch evaluation deals contiguous cache-line-aligned chunks
// of query points to workers (DESIGN.md §10), and every chunk runs the
// same block kernel, so results must be bit-identical to the sequential
// pass at any worker count and batch size — including counts exceeding
// the number of chunks, where trailing workers get nothing.
func TestBatchParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range []struct{ d, n int }{
		{1, 1},  // degenerate: one grid point
		{1, 7},  // d = 1: the one-dimensional fused pass
		{2, 2},  // d = 2: the two-dimensional fused pass
		{3, 5},  // d = 3: one prefix slot, no prefix pass
		{5, 5},  // prefixes refreshed from dimension 4 down
		{10, 4}, // high d: deep prefix chains
	} {
		g := hierGrid(c.d, c.n, parabola)
		sizes := kernelBatchSizes(blockFor(c.d, c.n))
		xs := randPoints(rng, sizes[len(sizes)-1], c.d)
		want := Batch(g, xs, nil, Options{Workers: 1})
		for _, size := range sizes {
			for _, workers := range kernelWorkers {
				got := Batch(g, xs[:size], nil, Options{Workers: workers})
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("d=%d n=%d size=%d workers=%d: out[%d] = %v, sequential %v",
							c.d, c.n, size, workers, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// Chunks longer than the kernel's block limit are cut into several
// blocks; each point must still agree bit for bit with its one-point
// evaluation, whatever block and chunk it lands in.
func TestBatchBlockedParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := hierGrid(4, 5, parabola)
	xs := randPoints(rng, 8*blockFor(4, 5)+13, 4)
	want := make([]float64, len(xs))
	for k, x := range xs {
		want[k] = Iterative(g, x)
	}
	for _, workers := range []int{0, 1, 2, 3, 8} {
		got := Batch(g, xs, nil, Options{Workers: workers})
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("workers=%d: out[%d] = %v, one-point %v", workers, k, got[k], want[k])
			}
		}
	}
}
