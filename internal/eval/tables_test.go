package eval

import (
	"math"
	"math/rand"
	"testing"

	"compactsg/internal/basis"
	"compactsg/internal/core"
)

// buildProbes returns the coordinates TestBuildMatchesEvalInterval
// feeds the table build: the domain ends and their inner neighbours,
// the smallest positive float, cell edges k/2^l (every edge up to level
// 6, then the edges next to 0, ½ and 1 and a few random ones, through
// level 62 so the midpoints of every level-61 cell are among them) with
// their neighbours one ulp away on both sides, and clamped out-of-domain
// values.
func buildProbes() []float64 {
	xs := []float64{
		0, 1, math.Nextafter(1, 0), math.SmallestNonzeroFloat64,
		-0.5, 1.5, -4, 4, math.Nextafter(0, -1), math.Nextafter(1, 2),
		-1e300, 1e300, math.Inf(-1), math.Inf(1),
	}
	rng := rand.New(rand.NewSource(17))
	for lvl := 0; lvl <= 62; lvl++ {
		cells := uint64(1) << uint(lvl)
		var ks []uint64
		if lvl <= 6 {
			for k := uint64(0); k <= cells; k++ {
				ks = append(ks, k)
			}
		} else {
			half := cells / 2
			ks = []uint64{1, 2, 3, half - 1, half, half + 1, cells - 3, cells - 2, cells - 1}
			for r := 0; r < 4; r++ {
				ks = append(ks, rng.Uint64()%cells)
			}
		}
		for _, k := range ks {
			e := math.Ldexp(float64(k), -lvl)
			xs = append(xs, e, math.Nextafter(e, -1), math.Nextafter(e, 2))
		}
	}
	return xs
}

// TestBuildMatchesEvalInterval pins the division-free table build bit
// for bit against the recomputing walk's expressions — core.CellIndex
// and basis.EvalInterval over the cell [c·2^−l, (c+1)·2^−l] — at every
// level 0 … 61. The kernel identity tests stop at level 10; past 2^53
// cells left+div rounds and EvalInterval's half-width degenerates, which
// only this test reaches.
func TestBuildMatchesEvalInterval(t *testing.T) {
	const n = 62
	xs := buildProbes()
	pts := make([][]float64, len(xs))
	for k := range xs {
		pts[k] = xs[k : k+1]
	}
	m := len(pts)
	s := getTables(1, n, m)
	defer putTables(s)
	s.build(pts, 1, n)
	for lvl := 0; lvl < n; lvl++ {
		for k, x := range xs {
			cells := int64(1) << uint32(lvl)
			c := core.CellIndex(int32(lvl), x)
			div := 1.0 / float64(cells)
			left := float64(c) * div
			want := basis.EvalInterval(left, left+div, x)
			j := lvl*m + k
			if s.cell[j] != c {
				t.Fatalf("level %d x=%v: cell %d, CellIndex %d", lvl, x, s.cell[j], c)
			}
			if math.Float64bits(s.phi[j]) != math.Float64bits(want) {
				t.Fatalf("level %d x=%v: phi %v (%#x), EvalInterval %v (%#x)",
					lvl, x, s.phi[j], math.Float64bits(s.phi[j]), want, math.Float64bits(want))
			}
		}
	}
}
