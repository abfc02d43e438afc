package eval

import (
	"math"
	"sync"

	"compactsg/internal/basis"
	"compactsg/internal/core"
)

// Per-query 1d basis tables — the table factorization of Alg. 7
// (DESIGN.md §8). For a fixed query point x and dimension t, the inner
// loop of the subspace walk only ever needs two quantities per 1d level
// lvl: the index of the level-lvl cell containing x_t and the value of
// the single level-lvl hat that is nonzero at x_t. Both depend on
// (t, lvl) alone — not on the subspace — so a grid walk that visits S
// subspaces recomputes each of the d·n distinct values S·d/(d·n) ≈ S/n
// times, paying a float→int conversion, two divisions and a hat
// evaluation each time. Building the d·n tables once per query turns
// the per-subspace work into pure table lookups and integer index
// arithmetic.
//
// The tables are bit-identical to the recomputation by construction:
// build evaluates the recomputing walk's expressions once per (t, lvl)
// instead of once per (subspace, t), with each division replaced by an
// exact multiplication (see build).

// tableBudget is the cache budget for one block's basis tables. A
// block of B points holds 16·d·n·B bytes of tables (an int64 cell index
// and a float64 hat value per point, dimension and level). Every
// subspace reads a few rows of them while its coefficients stream
// through, so the set is sized to stay cache-resident beside those
// coefficients: half of a 256 KiB L2.
const tableBudget = 128 << 10

// Block sizes are clamped to [minBlock, maxBlock]: below minBlock the
// per-row loops are too short to amortize their setup, and above
// maxBlock a chunk of small-grid points gains nothing from more reuse.
const (
	minBlock = 8
	maxBlock = 256
)

// blockFor returns B_max, the largest block of query points the kernel
// walks at once on a d-dimensional level-n grid: the table footprint
// 16·d·n bytes per point against tableBudget.
func blockFor(d, n int) int {
	return max(minBlock, min(maxBlock, tableBudget/(16*d*n)))
}

// blockTables is one worker's scratch for a block of m query points:
// the level vector of the subspace walk; the basis tables transposed to
// subspace-major rows — cell[(t*n+lvl)*m + k] and phi[(t*n+lvl)*m + k]
// for block point k — so that the row a subspace selects for (t, l_t)
// is one contiguous vector across the block; and d−2 slots of m running
// index and basis-product prefixes (idx, prod), one per dimension
// t = 2 … d−1, that sweep streams those rows into.
type blockTables struct {
	l    []int32
	cell []int64
	phi  []float64
	idx  []int64
	prod []float64
}

var tablePool = sync.Pool{New: func() any { return new(blockTables) }}

// getTables returns pooled tables with room for a block of m points of
// a d-dimensional level-n grid. A pooled set only ever grows, so once
// it has served the largest block of a workload it is reused without
// reallocating; a single query takes d·n·16 bytes, not a full block's
// worth. The slices written in the sweep's inner loops get whole cache
// lines: workers' tables never share one.
func getTables(d, n, m int) *blockTables {
	s := tablePool.Get().(*blockTables)
	if cap(s.l) < d {
		s.l = make([]int32, (d+15)&^15)
	}
	if cap(s.cell) < d*n*m {
		s.cell = make([]int64, d*n*m)
		s.phi = make([]float64, d*n*m)
	}
	if np := max(d-2, 0) * m; cap(s.idx) < np {
		s.idx = make([]int64, (np+7)&^7)
		s.prod = make([]float64, (np+7)&^7)
	}
	return s
}

func putTables(s *blockTables) { tablePool.Put(s) }

// build fills the tables for the block xs (each of length d) on a
// level-n grid, with row stride len(xs) — O(d·n) work per point that
// the subspace walk then reuses for every subspace.
//
// The hat value is basis.EvalInterval's over the cell [left, right],
// without its division: the cell width div = 2^−lvl halves and the
// inverse half-width scale = 2^(lvl+1) doubles per level, both exact,
// and dividing by an exact power of two rounds the same real number as
// multiplying by its exact reciprocal. The midpoint is formed as
// EvalInterval forms it, so phi is bit-identical to it. Only past 2^53
// cells can left+div round, leaving a half-width of 0 or another power
// of two; invPow2 then supplies its exact reciprocal.
func (s *blockTables) build(xs [][]float64, d, n int) {
	m := len(xs)
	s.l = s.l[:d]
	s.cell = s.cell[:d*n*m]
	s.phi = s.phi[:d*n*m]
	s.idx = s.idx[:max(d-2, 0)*m]
	s.prod = s.prod[:len(s.idx)]
	cell, phi := s.cell, s.phi[:len(s.cell)]
	for k, x := range xs {
		for t, xt := range x[:d] {
			j := t*n*m + k // entry (t, 0) of point k; level steps by m
			div, scale := 1.0, 2.0
			for lvl := 0; lvl < n; lvl++ {
				c := core.CellIndex(int32(lvl), xt)
				left := float64(c) * div
				right := left + div
				inv := scale
				if right-left != div {
					inv = invPow2(0.5 * (right - left))
				}
				cell[j] = c
				phi[j] = basis.Hat((xt - 0.5*(left+right)) * inv)
				div *= 0.5
				scale *= 2
				j += m
			}
		}
	}
}

// invPow2 returns 1/h for h zero or an exact power of two without
// dividing: negating the exponent is exact, and 1/0 = +Inf.
func invPow2(h float64) float64 {
	if h == 0 {
		return math.Inf(1)
	}
	return math.Ldexp(1, -math.Ilogb(h))
}
