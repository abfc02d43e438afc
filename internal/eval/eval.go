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
// streams over the block's points k:
//
//	idx_t[k] = idx_{t+1}[k]<<l_t + cell[k];  prod_t[k] = prod_{t+1}[k]·phi[k]
//
// for t = d−1 … 2, starting from idx_{d−1} = cell, prod_{d−1} = 1·φ = φ.
// core.Next rewrites only a low range of the level vector, so these
// prefixes are kept per t and refreshed only from the highest rewritten
// dimension down. Dimensions 1 and 0 change with every subspace; they
// are folded into a gather pass that forms each point's coefficient
// index and full product, and a short accumulation pass then reads the
// coefficients — loops that small keep many cache misses in flight.
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
	// Slot t ≥ 2 of idx/prod holds the prefixes of dimension t, slot 0
	// the gathered coefficient index and product; slot 1 is unused.
	gi, gp := idx[:m], prod[:m]
	for k := range out {
		out[k] = 0
	}
	var index2 int64 // running offset of the current subspace (index2+index3)
	for grp := 0; grp < desc.Groups(); grp++ {
		core.First(l, grp)
		nsub := desc.Subspaces(grp)
		sz := int64(1) << uint(grp)
		hi := d - 1 // highest dimension whose prefix is stale
		for sub := int64(0); sub < nsub; sub++ {
			for t := hi; t >= 2; t-- {
				ct, pt := row(t, l[t])
				ix, pr := idx[t*m:][:len(ct)], prod[t*m:][:len(ct)]
				pt = pt[:len(ct)]
				if t == d-1 {
					copy(ix, ct)
					copy(pr, pt)
					continue
				}
				lt := uint32(l[t])
				ixUp, prUp := idx[(t+1)*m:][:len(ct)], prod[(t+1)*m:][:len(ct)]
				for k, c := range ct {
					ix[k] = ixUp[k]<<lt + c
					pr[k] = prUp[k] * pt[k]
				}
			}
			l0 := uint32(l[0])
			c0, p0 := row(0, l[0])
			fi, fp := gi[:len(c0)], gp[:len(c0)]
			p0 = p0[:len(c0)]
			switch d {
			case 1:
				for k, c := range c0 {
					fi[k], fp[k] = c, p0[k]
				}
			case 2:
				c1, p1 := row(1, l[1])
				c1, p1 = c1[:len(c0)], p1[:len(c0)]
				for k, c := range c0 {
					fi[k] = c1[k]<<l0 + c
					fp[k] = p1[k] * p0[k]
				}
			default:
				l1 := uint32(l[1])
				c1, p1 := row(1, l[1])
				c1, p1 = c1[:len(c0)], p1[:len(c0)]
				ix, pr := idx[2*m:][:len(c0)], prod[2*m:][:len(c0)]
				for k, c := range c0 {
					fi[k] = (ix[k]<<l1+c1[k])<<l0 + c
					fp[k] = pr[k] * p1[k] * p0[k]
				}
			}
			coef := data[index2 : index2+sz]
			o := out[:len(fi)]
			fp = fp[:len(fi)]
			for k, i := range fi {
				o[k] += fp[k] * coef[i]
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
