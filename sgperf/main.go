// Command sgperf is the repository's serving benchmark. It runs one
// sgserve shard behind one sgproxy inside its own process, on loopback
// TCP, with the shipped flag defaults; drives a closed-loop workload
// through the proxy; checks every returned value bit for bit against
// an in-process reference evaluation; and prints one JSON result line.
//
//	sgperf --workload batch64-bin-d5l10 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with the benchmark's own spans off. With --trace 1 the run measures
// half the time untraced and half traced, and the result carries the
// per-layer metrics: the benchmark's spans around the proxy handler,
// the server handler and the writer's publish chain, joined by the
// request ID the proxy forwards, plus before/after deltas of the
// counters the program exports (sgserve_stage_seconds, sgserve_*,
// sgproxy_*, store.Stats, runtime/metrics). Spans are kept in memory
// and written to <out>/traces when the run ends.
//
// Build and run through run.sh, which keeps every build product inside
// the checkout. The self-test (go test in this directory) runs each
// workload at a tiny size.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sgperf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sgperf", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name (see -list)")
	seed := fs.Int64("seed", 1, "workload seed: query points, grid choices and writer schedule")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: half untraced, half traced, report per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch grids and span dumps")
	list := fs.Bool("list", false, "list the workloads and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-20s %s\n", w.name, w.why)
		}
		return nil
	}
	spec, ok := workloadByName(*wl)
	if !ok {
		return fmt.Errorf("unknown workload %q (try -list)", *wl)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	work, err := os.MkdirTemp(mkdirAll(*out, "work"), spec.name+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	res, err := runWorkload(spec, options{
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		work:     work,
		traceDir: filepath.Join(*out, "traces"),
	})
	if err != nil {
		return err
	}
	res.report(os.Stdout)
	line, err := json.Marshal(res.summary())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// mkdirAll creates dir/sub and returns it; a failure surfaces at the
// MkdirTemp that follows.
func mkdirAll(dir, sub string) string {
	p := filepath.Join(dir, sub)
	_ = os.MkdirAll(p, 0o755)
	return p
}
