package eval

import (
	"math"
	"math/rand"
	"testing"

	"compactsg/internal/basis"
	"compactsg/internal/core"
	"compactsg/internal/hier"
)

// iterativeReference is the pre-table evaluation kernel: the subspace
// walk recomputing cell index and hat value with basis.EvalInterval per
// (subspace, dimension), exactly as iterativeInto did before the 1d
// basis tables. The property tests pin the table-driven kernel to this
// recomputation bit for bit.
func iterativeReference(g *core.Grid, x []float64) float64 {
	desc := g.Desc()
	d := desc.Dim()
	l := make([]int32, d)
	res := 0.0
	var index2 int64
	for grp := 0; grp < desc.Groups(); grp++ {
		core.First(l, grp)
		nsub := desc.Subspaces(grp)
		sz := int64(1) << uint(grp)
		for k := int64(0); k < nsub; k++ {
			prod := 1.0
			var index1 int64
			for t := d - 1; t >= 0; t-- {
				cells := int64(1) << uint32(l[t])
				c := core.CellIndex(l[t], x[t])
				index1 = index1<<uint32(l[t]) + c
				div := 1.0 / float64(cells)
				left := float64(c) * div
				prod *= basis.EvalInterval(left, left+div, x[t])
			}
			res += prod * g.Data[index1+index2]
			core.Next(l)
			index2 += sz
		}
	}
	return res
}

// refQueries draws query points spanning the interesting cases: interior
// points, out-of-domain points on both sides (exercising the clamp), and
// the exact edges 0 and 1.
func refQueries(rng *rand.Rand, n, d int) [][]float64 {
	xs := make([][]float64, 0, n+2)
	for k := 0; k < n; k++ {
		x := make([]float64, d)
		for t := range x {
			x[t] = rng.Float64()*2 - 0.5 // [-0.5, 1.5)
		}
		xs = append(xs, x)
	}
	zero := make([]float64, d)
	one := make([]float64, d)
	for t := 0; t < d; t++ {
		one[t] = 1.0
	}
	return append(xs, zero, one)
}

// kernelBatchSizes are the batch sizes the identity tests sweep for a
// kernel block limit bmax: tiny batches (the one-point walk and short
// streams), the cache-line chunk boundaries of the worker split, and
// batches around one, and more than three, kernel blocks.
func kernelBatchSizes(bmax int) []int {
	return []int{1, 2, 7, 8, 9, 63, 64, 65, bmax - 1, bmax, bmax + 1, 3*bmax + 5}
}

// kernelWorkers are the worker counts the identity tests sweep: auto,
// sequential, and splits that leave trailing workers without a chunk.
var kernelWorkers = []int{0, 1, 2, 3, 8}

// TestTableKernelBitIdentical: Iterative and Batch at every batch size
// and worker count must reproduce the recomputing reference kernel bit
// for bit on random grids and queries (including clamped out-of-domain
// coordinates), on shapes from d=1 up to d5l10 and d10l4.
func TestTableKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ d, n int }{{1, 1}, {1, 7}, {2, 5}, {3, 6}, {5, 5}, {5, 10}, {10, 4}} {
		g := core.NewGrid(core.MustDescriptor(c.d, c.n))
		for k := range g.Data {
			g.Data[k] = rng.NormFloat64()
		}
		sizes := kernelBatchSizes(blockFor(c.d, c.n))
		xs := refQueries(rng, sizes[len(sizes)-1]-2, c.d)
		want := make([]float64, len(xs))
		for k, x := range xs {
			want[k] = iterativeReference(g, x)
		}
		for k, x := range xs {
			if got := Iterative(g, x); math.Float64bits(got) != math.Float64bits(want[k]) {
				t.Fatalf("d=%d n=%d Iterative(%v) = %v, reference %v", c.d, c.n, x, got, want[k])
			}
		}
		// Each size takes the tail of xs, so every batch also holds the
		// two domain corners.
		for _, size := range sizes {
			for _, workers := range kernelWorkers {
				lo := len(xs) - size
				got := Batch(g, xs[lo:], nil, Options{Workers: workers})
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[lo+k]) {
						t.Fatalf("d=%d n=%d size=%d workers=%d: out[%d] = %v, reference %v (x=%v)",
							c.d, c.n, size, workers, k, got[k], want[lo+k], xs[lo+k])
					}
				}
			}
		}
	}
}

// FuzzEvalTableIdentity fuzzes single-query evaluation against the
// recomputing reference over grid shape, surplus seed and coordinates.
func FuzzEvalTableIdentity(f *testing.F) {
	f.Add(int64(1), 2, 5, 0.5, 0.25, 0.75)
	f.Add(int64(2), 3, 4, 0.0, 1.0, 0.999999999)
	f.Add(int64(3), 1, 7, -0.5, 1.5, 0.1)
	f.Fuzz(func(t *testing.T, seed int64, d, n int, x0, x1, x2 float64) {
		if d < 1 || d > 4 || n < 1 || n > 7 {
			t.Skip()
		}
		for _, v := range []float64{x0, x1, x2} {
			if !(v >= -4 && v <= 4) { // also rejects NaN/Inf
				t.Skip()
			}
		}
		g := core.NewGrid(core.MustDescriptor(d, n))
		rng := rand.New(rand.NewSource(seed))
		for k := range g.Data {
			g.Data[k] = rng.NormFloat64()
		}
		coords := []float64{x0, x1, x2, x0 * x1}
		x := coords[:d]
		got := Iterative(g, x)
		want := iterativeReference(g, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%d n=%d x=%v: table %v != reference %v", d, n, x, got, want)
		}
	})
}

// TestGradientMatchesIterativeValue: the gradient walk shares the clamp
// helper with the table builder, so it must select the same basis
// function per subspace as Iterative — including for clamped
// out-of-domain coordinates. (Its tensor product multiplies in the
// opposite dimension order, so equality is up to rounding, not bits.)
func TestGradientMatchesIterativeValue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := core.NewGrid(core.MustDescriptor(3, 5))
	g.Fill(parabola)
	hier.Iterative(g)
	grad := make([]float64, 3)
	for _, x := range refQueries(rng, 60, 3) {
		got := Gradient(g, x, grad)
		want := Iterative(g, x)
		tol := 1e-12 * math.Max(1, math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("Gradient value at %v = %v, Iterative %v", x, got, want)
		}
	}
}

// FuzzBatchKernelIdentity fuzzes the batch kernel against the
// recomputing reference over grid shape, batch size, worker count and
// seed: every block length, chunk split and d-parity the kernel can
// meet must leave each point's result bit-identical.
func FuzzBatchKernelIdentity(f *testing.F) {
	f.Add(int64(1), 3, 4, 9, 2)
	f.Add(int64(2), 1, 6, 2, 0)
	f.Add(int64(3), 6, 3, 65, 3)
	f.Add(int64(4), 4, 5, 300, 8)
	f.Fuzz(func(t *testing.T, seed int64, d, n, size, workers int) {
		if d < 1 || d > 6 || n < 1 || n > 6 || size < 0 || size > 600 || workers < 0 || workers > 16 {
			t.Skip()
		}
		g := core.NewGrid(core.MustDescriptor(d, n))
		rng := rand.New(rand.NewSource(seed))
		for k := range g.Data {
			g.Data[k] = rng.NormFloat64()
		}
		xs := refQueries(rng, size, d)[2:] // size points, ending on the two domain corners
		got := Batch(g, xs, nil, Options{Workers: workers})
		for k, x := range xs {
			if want := iterativeReference(g, x); math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("d=%d n=%d size=%d workers=%d: out[%d] = %v, reference %v (x=%v)",
					d, n, size, workers, k, got[k], want, x)
			}
		}
	})
}
