// Package eval implements sparse grid evaluation (interpolation) — the
// decompression step of the technique (paper Sec. 3.2, Alg. 2 and
// Sec. 4.3, Alg. 7): fs(x) = Σ α_{l,i} · φ_{l,i}(x), where at most one
// basis function per subspace is nonzero at x.
//
// Two families mirror the hierarchization package:
//
//   - Recursive (Alg. 2 generalized): descends the 1d hierarchy of each
//     dimension along the path of supports containing x, recursing across
//     dimensions to build the tensor-product basis values. Runs on any
//     grids.Store; this is the paper's baseline.
//   - Iterative and Batch (Alg. 7 with the Sec. 4.3 cache blocking): walk
//     every subspace with the next iterator, locate the one contributing
//     point per subspace and query by direct index arithmetic, and
//     accumulate — no recursion, no idx2gp/gp2idx calls. Batch splits the
//     queries over workers and runs the block kernel (sweep) on blocks of
//     query points at once; Iterative, and runs shorter than minStream,
//     take the one-point walk (iterativeInto) over the same basis tables.
package eval

import (
	"sync"

	"compactsg/internal/basis"
	"compactsg/internal/core"
	"compactsg/internal/grids"
	"compactsg/internal/par"
)

// Iterative evaluates the hierarchized compact grid at x (paper Alg. 7).
// x must lie in [0,1]^d; coordinates are clamped into the domain.
func Iterative(g *core.Grid, x []float64) float64 {
	var out [1]float64
	evalRange(g, [][]float64{x}, out[:])
	return out[0]
}

// Recursive evaluates a hierarchized store at x (paper Alg. 2 generalized
// to d dimensions): within dimension t it follows the 1d chain of basis
// functions whose supports contain x_t, and at every chain node it recurses
// into dimension t+1 carrying the partial tensor product.
func Recursive(s grids.Store, x []float64) float64 {
	desc := s.Desc()
	d := desc.Dim()
	l := make([]int32, d)
	i := make([]int32, d)
	return evalRec(s, l, i, x, 0, int32(desc.Level()-1), 1.0)
}

func evalRec(s grids.Store, l, i []int32, x []float64, t int, budget int32, partial float64) float64 {
	res := 0.0
	l[t], i[t] = 0, 1
	for {
		phi := basis.Eval1D(l[t], i[t], x[t])
		p := partial * phi
		if t == len(l)-1 {
			if p != 0 {
				res += p * s.Get(l, i)
			}
		} else {
			res += evalRec(s, l, i, x, t+1, budget-l[t], p)
		}
		if l[t] >= budget {
			break
		}
		// Descend towards x: pick the child whose support contains x_t
		// (paper Alg. 2 line 4: "if x left of gp").
		if x[t] < core.Coord(l[t], i[t]) {
			l[t], i[t] = core.Child1D(l[t], i[t], core.LeftParent)
		} else {
			l[t], i[t] = core.Child1D(l[t], i[t], core.RightParent)
		}
	}
	return res
}

// RecursiveBatch evaluates a hierarchized store at every query point
// with the classic recursive algorithm, distributing points over
// workers (the store-based counterpart of Batch, used by the
// scalability experiments). Store access counting must be disabled
// when workers > 1.
func RecursiveBatch(s grids.Store, xs [][]float64, out []float64, workers int) []float64 {
	if out == nil {
		out = make([]float64, len(xs))
	}
	workers = par.Resolve(workers)
	if workers <= 1 {
		for k, x := range xs {
			out[k] = Recursive(s, x)
		}
		return out
	}
	var wg sync.WaitGroup
	chunk := (len(xs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(xs))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for k := lo; k < hi; k++ {
				out[k] = Recursive(s, xs[k])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Options configures batch evaluation.
type Options struct {
	// Workers is the number of goroutines evaluating query points
	// (static decomposition, paper Sec. 5.3). 0 means auto: the count
	// resolves to GOMAXPROCS at call time, so a 1-CPU host always runs
	// on the caller's goroutine. 1 forces sequential.
	Workers int
}

// Batch evaluates the grid at every point of xs (each of length d),
// writing results into out and returning it. If out is nil a new slice
// is allocated. Results are bit-identical to Iterative at every point,
// for any Options.
func Batch(g *core.Grid, xs [][]float64, out []float64, opt Options) []float64 {
	if out == nil {
		out = make([]float64, len(xs))
	}
	batchInto(g, xs, out, opt.Workers)
	return out
}

// batchInto is Batch with a mandatory output slice. out is never
// reassigned here, so the worker closures capture it by value —
// reassigning a captured parameter (as Batch must for out == nil) would
// heap-box the slice header on every call.
//
// Static decomposition over query points: one contiguous chunk of out
// per worker, boundaries rounded to cache-line multiples so two workers
// never write the same 64-byte line of results (DESIGN.md §10). Chunk 0
// runs on the caller's goroutine, so a batch that fills only one chunk
// (one worker, or at most LineFloat64s points) spawns nothing and
// allocates nothing.
func batchInto(g *core.Grid, xs [][]float64, out []float64, workers int) {
	n := int64(len(xs))
	lines := (n + par.LineFloat64s - 1) / par.LineFloat64s
	workers = int(min(int64(par.Resolve(workers)), lines))
	if workers <= 1 {
		evalRange(g, xs, out)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		lo, hi := par.AlignedSplit(n, workers, w, par.LineFloat64s)
		go func() {
			defer wg.Done()
			evalRange(g, xs[lo:hi], out[lo:hi])
		}()
	}
	_, hi := par.AlignedSplit(n, workers, 0, par.LineFloat64s)
	evalRange(g, xs[:hi], out[:hi])
	wg.Wait()
}

// minStream is the shortest block the streaming passes take. Shorter
// runs of points are walked one at a time (iterativeInto): with only a
// point or two per row, the per-subspace pass setup costs more than the
// walk (EXPERIMENTS.md).
const minStream = 3

// evalRange evaluates one worker's chunk: it cuts xs into equal blocks
// of at most blockFor(d, n) points and sweeps each with one set of
// pooled tables.
func evalRange(g *core.Grid, xs [][]float64, out []float64) {
	if len(xs) == 0 {
		return
	}
	desc := g.Desc()
	d, n := desc.Dim(), desc.Level()
	bmax := blockFor(d, n)
	s := getTables(d, n, min(len(xs), bmax))
	switch {
	case len(xs) < minStream:
		for k := range xs {
			s.build(xs[k:k+1], d, n)
			out[k] = iterativeInto(g, s)
		}
	case len(xs) <= bmax:
		sweep(g, xs, out, s)
	default:
		blocks := (len(xs) + bmax - 1) / bmax
		for b := 0; b < blocks; b++ {
			lo, hi := par.Split(int64(len(xs)), blocks, b)
			sweep(g, xs[lo:hi], out[lo:hi], s)
		}
	}
	putTables(s)
}

// sweep is the evaluation kernel (paper Alg. 7 with the Sec. 4.3 cache
// blocking): it evaluates the grid at the block xs subspace-major, so
// each subspace's coefficients stay cache-resident while every point of
// the block reads its one contribution. The basis tables are transposed
// (blockTables), so the row a subspace selects for dimension t at level
// l_t is one contiguous vector across the block, and every inner loop
// streams over the block's points k.
//
// Dimensions d−1 … 2 fold into per-t prefixes of the coefficient index
// and the basis product,
//
//	idx_t[k] = idx_{t+1}[k]·2^l_t + cell[k];  prod_t[k] = prod_{t+1}[k]·phi[k]
//
// starting from idx_{d−1} = cell, prod_{d−1} = 1·φ = φ. core.Next
// rewrites only a low range of the level vector, so these prefixes are
// kept per t and refreshed only from the highest rewritten dimension
// down. Dimensions 1 and 0 change with every subspace; they are folded
// into one fused pass that forms each point's index and product and
// reads its coefficient:
//
//	out[k] += prod_2[k]·φ_1[k]·φ_0[k] · α[(idx_2[k]·2^l_1 + c_1[k])·2^l_0 + c_0[k]]
//
// Each pass is a small leaf function (prefixPass, accum1/2/3) kept out
// of line, so its loop state stays in registers: inlined into sweep,
// the loops reload slice pointers from sweep's stack frame on every
// point and give back most of the gain (EXPERIMENTS.md). The level
// widths 2^l_t are loop invariants the passes multiply by, so no loop
// carries a variable shift.
//
// Per point the multiply and summation order is the one-point walk's
// (prod = 1·φ_{d−1}·…·φ_0 left to right, res += prod·α subspace by
// subspace), so results do not depend on the block or worker split.
func sweep(g *core.Grid, xs [][]float64, out []float64, s *blockTables) {
	desc := g.Desc()
	d, n, m := desc.Dim(), desc.Level(), len(xs)
	s.build(xs, d, n)
	out = out[:m]
	data := g.Data
	cell, phi := s.cell, s.phi
	l, idx, prod := s.l, s.idx, s.prod
	// row returns the (cell, phi) row of dimension t at level lt.
	row := func(t int, lt int32) ([]int64, []float64) {
		r := (t*n + int(lt)) * m
		return cell[r : r+m], phi[r : r+m]
	}
	// slot returns the (idx, prod) prefixes of dimension t ≥ 2.
	slot := func(t int) ([]int64, []float64) {
		r := (t - 2) * m
		return idx[r : r+m], prod[r : r+m]
	}
	clear(out)
	var index2 int64 // running offset of the current subspace (index2+index3)
	for grp := 0; grp < desc.Groups(); grp++ {
		core.First(l, grp)
		nsub := desc.Subspaces(grp)
		sz := int64(1) << uint(grp)
		hi := d - 1 // highest dimension whose prefix is stale
		for sub := int64(0); sub < nsub; sub++ {
			for t := hi; t >= 2; t-- {
				ct, pt := row(t, l[t])
				ix, pr := slot(t)
				if t == d-1 {
					copy(ix, ct)
					copy(pr, pt)
					continue
				}
				ixUp, prUp := slot(t + 1)
				prefixPass(ix, pr, ixUp, prUp, ct, pt, int64(1)<<uint32(l[t]))
			}
			coef := data[index2 : index2+sz]
			c0, p0 := row(0, l[0])
			w0 := int64(1) << uint32(l[0])
			switch d {
			case 1:
				accum1(out, coef, c0, p0)
			case 2:
				c1, p1 := row(1, l[1])
				accum2(out, coef, c1, p1, c0, p0, w0)
			default:
				c1, p1 := row(1, l[1])
				ix, pr := slot(2)
				accum3(out, coef, ix, pr, c1, p1, c0, p0, int64(1)<<uint32(l[1]), w0)
			}
			// core.Next rewrites l[0 … j+1] for the first nonzero l[j].
			j := 0
			for j < d-1 && l[j] == 0 {
				j++
			}
			hi = min(j+1, d-1)
			core.Next(l)
			index2 += sz
		}
	}
}

// prefixPass extends the dimension-(t+1) prefixes (ixUp, prUp) by the
// dimension-t row (ct, pt) of width w = 2^l_t.
//
//go:noinline
func prefixPass(ix []int64, pr []float64, ixUp []int64, prUp []float64, ct []int64, pt []float64, w int64) {
	pr, ixUp, prUp = pr[:len(ix)], ixUp[:len(ix)], prUp[:len(ix)]
	ct, pt = ct[:len(ix)], pt[:len(ix)]
	for k := range ix {
		ix[k] = ixUp[k]*w + ct[k]
		pr[k] = prUp[k] * pt[k]
	}
}

// accum1 is the fused pass of a one-dimensional grid.
//
//go:noinline
func accum1(o, coef []float64, c0 []int64, p0 []float64) {
	c0, p0 = c0[:len(o)], p0[:len(o)]
	for k := range o {
		o[k] += p0[k] * coef[c0[k]]
	}
}

// accum2 is the fused pass of a two-dimensional grid; w0 = 2^l_0.
//
//go:noinline
func accum2(o, coef []float64, c1 []int64, p1 []float64, c0 []int64, p0 []float64, w0 int64) {
	c1, p1 = c1[:len(o)], p1[:len(o)]
	c0, p0 = c0[:len(o)], p0[:len(o)]
	for k := range o {
		o[k] += p1[k] * p0[k] * coef[c1[k]*w0+c0[k]]
	}
}

// accum3 is the fused pass of a grid of three or more dimensions over
// the dimension-2 prefixes (ix, pr); w1 = 2^l_1 and w0 = 2^l_0.
//
//go:noinline
func accum3(o, coef []float64, ix []int64, pr []float64, c1 []int64, p1 []float64, c0 []int64, p0 []float64, w1, w0 int64) {
	ix, pr = ix[:len(o)], pr[:len(o)]
	c1, p1 = c1[:len(o)], p1[:len(o)]
	c0, p0 = c0[:len(o)], p0[:len(o)]
	for k := range o {
		o[k] += pr[k] * p1[k] * p0[k] * coef[(ix[k]*w1+c1[k])*w0+c0[k]]
	}
}

// iterativeInto is the kernel's one-point walk: the subspace loop over
// the tables of a one-point block (stride 1, so row (t, lvl) is entry
// t*n+lvl), keeping the index and product in registers. On one point
// the streaming passes cost about twice this walk (EXPERIMENTS.md), so
// single queries and runs shorter than minStream take it.
func iterativeInto(g *core.Grid, s *blockTables) float64 {
	desc := g.Desc()
	data := g.Data
	d, n := desc.Dim(), desc.Level()
	cell, phi := s.cell, s.phi
	phi = phi[:len(cell)] // BCE: phi[j] rides on cell[j]'s bounds check
	l := s.l[:d]          // BCE: l[t] for t < d
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
				lt := l[t]
				j := t*n + int(lt)
				index1 = index1<<uint32(lt) + cell[j]
				prod *= phi[j]
			}
			res += prod * data[index1+index2]
			core.Next(l)
			index2 += sz
		}
	}
	return res
}
