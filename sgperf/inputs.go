package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"compactsg"
	"compactsg/internal/serve"
)

// inputs are everything a run sends and expects, made from the seed
// before timing starts: rendered requests, the reference values of
// every request under every installable version, and each client's
// sequence of (grid, request) picks.
type inputs struct {
	path        string
	batch       int
	reqs        [][][]byte      // [grid][frame] rendered HTTP request
	refs        [][][][]float64 // [grid][version][frame] expected values
	picks       [][]pick        // [client] cyclic request sequence
	swaps       []int           // writer's cyclic sequence of grids to install
	fingerprint uint64          // hash of all of the above that the seed decides
}

type pick struct{ grid, frame int32 }

const pickLen = 1 << 13

// zipfBlock is the block of picks whose grid mix is fixed: large
// enough that the least popular of 12 grids under s=3 still appears.
const zipfBlock = 1 << 12

// prepare renders the requests and computes the references. Every
// version's reference comes from Grid.EvaluateBatch on a grid
// hierarchized in this process from the same nodal values the server's
// snapshot was built from, with one worker and no blocking — a
// different kernel configuration than the shard's, so the check also
// holds the kernels to bit-identical results.
func prepare(d *deployment, seed int64) (*inputs, error) {
	sp := d.spec
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{path: "/v1/eval/bin", batch: sp.batch}
	if sp.proto == "json" {
		in.path = "/v1/eval"
	}
	h := fnv.New64a()
	pts := make([][][][]float64, sp.grids) // [grid][frame][point]
	for gi := range pts {
		pts[gi] = make([][][]float64, sp.frames)
		row := make([][]byte, sp.frames)
		for fi := range row {
			ps := make([][]float64, sp.batch)
			for k := range ps {
				ps[k] = make([]float64, sp.dim)
				for t := range ps[k] {
					ps[k][t] = rng.Float64()
				}
			}
			pts[gi][fi] = ps
			var body []byte
			ctype := serve.BinContentType
			if sp.proto == "json" {
				body, _ = json.Marshal(struct {
					Grid  string    `json:"grid"`
					Point []float64 `json:"point"`
				}{d.names[gi], ps[0]})
				ctype = "application/json"
			} else {
				body = serve.AppendEvalFrame(nil, d.names[gi], ps)
			}
			row[fi] = renderRequest(in.path, ctype, body)
			h.Write(row[fi])
		}
		in.reqs = append(in.reqs, row)
	}

	in.picks = make([][]pick, sp.clients)
	for c := range in.picks {
		grids := stratified(rng, zipfCounts(sp.grids, sp.zipf, 1, zipfBlock), pickLen)
		seq := make([]pick, pickLen)
		for k := range seq {
			seq[k] = pick{grid: int32(grids[k]), frame: int32(rng.Intn(sp.frames))}
			h.Write([]byte{byte(seq[k].grid), byte(seq[k].frame), byte(seq[k].frame >> 8)})
		}
		in.picks[c] = seq
	}
	in.swaps = stratified(rng, zipfCounts(sp.grids, sp.zipf, 1, zipfBlock), pickLen)
	for _, gi := range in.swaps {
		h.Write([]byte{byte(gi)})
	}
	in.fingerprint = h.Sum64()

	in.refs = make([][][][]float64, sp.grids)
	var wg sync.WaitGroup
	errs := make([]error, sp.grids)
	sem := make(chan struct{}, 2) // one reference grid per core
	for gi := range in.refs {
		wg.Add(1)
		sem <- struct{}{}
		go func(gi int) {
			defer func() { <-sem; wg.Done() }()
			in.refs[gi], errs[gi] = references(d, gi, pts[gi])
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// references evaluates every frame of grid gi under every version.
func references(d *deployment, gi int, frames [][][]float64) ([][][]float64, error) {
	sp := d.spec
	out := make([][][]float64, sp.versions())
	for v := range out {
		g, err := compactsg.New(sp.dim, sp.level)
		if err != nil {
			return nil, err
		}
		copy(g.Raw().Data, d.nodal[gi][v])
		if err := g.CompressValues(); err != nil {
			return nil, err
		}
		out[v] = make([][]float64, len(frames))
		for fi, ps := range frames {
			if out[v][fi], err = g.EvaluateBatch(ps, nil); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// zipfCounts splits a block of n draws over grids in proportion to the
// Zipf law P(k) ∝ (v+k)^-s of math/rand.Zipf (s = 0: uniform), rounding
// so the counts sum to n.
func zipfCounts(grids int, s, v float64, n int) []int {
	w := make([]float64, grids)
	var sum float64
	for k := range w {
		w[k] = math.Pow(v+float64(k), -s)
		sum += w[k]
	}
	counts := make([]int, grids)
	var acc float64
	given := 0
	for k := range w {
		acc += w[k] / sum * float64(n)
		counts[k] = int(math.Round(acc)) - given
		given += counts[k]
	}
	return counts
}

// stratified returns length grid picks made of blocks that each hold
// exactly counts[k] picks of grid k, shuffled by rng: the seed decides
// the order, never the mix, so every seed loads the registry alike.
func stratified(rng *rand.Rand, counts []int, length int) []int {
	var block []int
	for k, n := range counts {
		for ; n > 0; n-- {
			block = append(block, k)
		}
	}
	out := make([]int, 0, length+len(block))
	for len(out) < length {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:length]
}

// plantWrong corrupts one reference value of grid 0, frame 0 in every
// version, so any response to that request must count as wrong. The
// self-test uses it to prove the check bites.
func (in *inputs) plantWrong() {
	for _, ref := range in.refs[0] {
		ref[0][0] = math.Nextafter(ref[0][0], math.Inf(1))
	}
}

// version returns which version of grid gi produced body for frame
// fi, or -1 when the values match none of them bit for bit.
func (in *inputs) version(gi, fi int, body []byte) int {
	vals, ok := in.values(body)
	if !ok {
		return -1
	}
	for v, ref := range in.refs[gi] {
		if bitEqual(vals, ref[fi]) {
			return v
		}
	}
	return -1
}

// values decodes a 200 response body: a values frame, or {"value":X}
// for single-point JSON.
func (in *inputs) values(body []byte) ([]float64, bool) {
	if in.path == "/v1/eval" {
		v, ok := parseValue(body)
		return []float64{v}, ok
	}
	vals, err := serve.ParseValuesFrame(body)
	return vals, err == nil
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// parseValue reads {"value":X} as the proxy renders it; strconv parses
// the shortest round-trip decimal back to the identical float64.
func parseValue(body []byte) (float64, bool) {
	const pre = `{"value":`
	if len(body) < len(pre)+2 || string(body[:len(pre)]) != pre {
		return 0, false
	}
	end := len(body)
	for end > 0 && (body[end-1] == '\n' || body[end-1] == '}') {
		end--
	}
	v, err := strconv.ParseFloat(string(body[len(pre):end]), 64)
	return v, err == nil
}
