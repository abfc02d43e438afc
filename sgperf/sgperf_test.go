package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The self-test runs every workload at a tiny size (level ≤ 4 grids,
// a few requests, one set-up) through the same code path as a real
// run.

func tinyRun(t *testing.T, w spec, seed int64, traced, plantWrong bool) *result {
	t.Helper()
	res, err := runWorkload(w.tiny(), options{
		seed:       seed,
		measure:    200 * time.Millisecond,
		traced:     traced,
		work:       t.TempDir(),
		plantWrong: plantWrong,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEmitsDeclaredMetrics checks that each workload, untraced and
// traced, emits exactly the metrics BENCHMARK.json declares, with the
// declared units, and verifies every value it gets back.
func TestEmitsDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, dw := range decl.Workloads {
		if _, ok := workloadByName(dw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", dw.Name)
		}
	}
	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := make(map[string]string)
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w, 1, traced, false)
			sum := res.summary()
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, sum.Correct, sum.Attempted, sum.Failed)
			}
			want := units(decl.EndToEnd)
			if traced {
				want = units(decl.PerLayer)
			}
			for name, unit := range want {
				got, ok := sum.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, name, got.Unit, unit)
				}
			}
			for name := range sum.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not declared", w.name, traced, name)
				}
			}
			if !traced && sum.Metrics["points_per_s"].Value <= 0 {
				t.Errorf("%s: no verified points", w.name)
			}
			if traced {
				checkLayers(t, w, sum.Metrics)
			}
		}
	}
}

// checkLayers requires the traced figures to come from a working trace:
// the request-ID join covers the client time, the stage histograms and
// the writer's installs were seen.
func checkLayers(t *testing.T, w spec, m map[string]jsonMetric) {
	t.Helper()
	atLeast := func(name string, min float64) {
		if v := m[name].Value; !(v >= min) {
			t.Errorf("%s: %s = %v, want ≥ %v", w.name, name, v, min)
		}
	}
	positive := func(name string) {
		if v := m[name].Value; !(v > 0) {
			t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
		}
	}
	atLeast("trace.coverage", 0.9)
	for _, name := range []string{"eval.points", "eval.ns_per_pt", "serve.decode_ns_per_pt", "serve.encode_ns_per_pt", "net.us_per_req", "shard.self_us_per_req"} {
		positive(name)
	}
	if w.writeEvery > 0 {
		for _, name := range []string{"registry.swaps", "hier.ns_per_pt", "snapshot.save_ms", "snapshot.swap_ms", "publish_p50_ms"} {
			positive(name)
		}
	}
}

// TestMissingSeriesIsAnError checks that a counter the program stops
// exporting fails the traced run instead of reading 0.
func TestMissingSeriesIsAnError(t *testing.T) {
	d := &deltas{before: map[string]float64{}, after: map[string]float64{
		"sgserve_points_evaluated_total": 5,
		`sgserve_requests_total{a="b"}`:  2,
	}}
	if d.of("sgserve_points_evaluated_total") != 5 || d.sum("sgserve_requests_total") != 2 || len(d.missing) != 0 {
		t.Fatalf("present series: missing=%v", d.missing)
	}
	d.of("sgproxy_retries_total")
	d.stage("eval")
	d.sum("sgproxy_requests_total")
	if len(d.missing) != 3 {
		t.Errorf("missing = %v, want the three absent series", d.missing)
	}
}

// TestSeedDecidesInputs checks that the same seed renders the same
// requests, picks and swaps, and another seed different ones.
func TestSeedDecidesInputs(t *testing.T) {
	for _, w := range workloads {
		a := tinyRun(t, w, 1, false, false).fingerprint
		b := tinyRun(t, w, 1, false, false).fingerprint
		c := tinyRun(t, w, 2, false, false).fingerprint
		if a != b {
			t.Errorf("%s: seed 1 gave inputs %x then %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs %x", w.name, a)
		}
	}
}

// TestPlantedWrongReferenceFails corrupts one reference value and
// requires the run to count the answers to that request as wrong.
func TestPlantedWrongReferenceFails(t *testing.T) {
	for _, w := range workloads {
		res := tinyRun(t, w, 1, false, true)
		if res.ops.wrong == 0 || res.summary().Correct {
			t.Errorf("%s: planted wrong reference not caught: wrong=%d correct=%v", w.name, res.ops.wrong, res.summary().Correct)
		}
	}
}
