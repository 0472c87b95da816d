// Command bcload is the repository's benchmark: an open-loop online-update
// load generator that builds the real bcserved and bcrouter binaries, drives
// them with a seeded update stream and concurrent reads, verifies the served
// scores and prints every metric by name. See README.md in this directory.
//
// The driver contract (BENCHMARK.json) runs
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without -workload every
// workload runs in turn; -repeat N runs that set N times and compares the
// sets against the bounds; -smoke shortens the steady phase.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		root     = flag.String("root", "..", "checkout root (the directory holding go.mod, cmd/ and bench/)")
		workload = flag.String("workload", "", "run only this workload (default: all, in turn)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same graph, stream and schedule")
		seconds  = flag.Int("seconds", runSeconds, "length of the steady phase in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times and compare the sets against the bounds")
		smoke    = flag.Bool("smoke", false, "short run for CI: 5 s steady phase, bounds not applied")
		describe = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the tables in spec.go define it, and exit")
	)
	flag.Parse()
	if *describe {
		printBenchmarkJSON()
		return
	}
	if flag.NArg() > 0 {
		fatal(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, errors.New("-trace must be 0 or 1"))
	}
	if *smoke {
		*seconds = smokeSeconds
	}
	if *seconds < 1 || *repeat < 1 {
		fatal(2, errors.New("-seconds and -repeat must be at least 1"))
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(1, err)
	}
	// The generator needs two threads (writer and reader) and never more
	// than the box has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(2, fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []workloadSpec{w}
	}

	binDir := filepath.Join(absRoot, ".bench_build", "bin")
	buildCtx, cancel := context.WithTimeout(context.Background(), 14*time.Minute)
	err = buildDaemons(buildCtx, absRoot, binDir)
	cancel()
	if err != nil {
		fatal(1, err)
	}

	base := runConfig{Root: absRoot, BinDir: binDir, Seed: *seed,
		Steady: time.Duration(*seconds) * time.Second, Trace: *trace == 1}
	if *repeat > 1 {
		os.Exit(runRepeat(base, selected, *repeat, *smoke))
	}
	ok := true
	for _, w := range selected {
		cfg := base
		cfg.Workload = w
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(1, fmt.Errorf("%s: %w", w.Name, err))
		}
		printHuman(w.Name, cfg, res)
		printResultLine(res, cfg.Trace)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "bcload:", err)
	os.Exit(code)
}

// metricTable returns the metric set a run of the given kind reports.
func metricTable(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResultLine prints the driver contract's result object on one line of
// standard output. Values carry every digit that was measured.
func printResultLine(res *runResult, trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]value{}}
	for _, spec := range metricTable(trace) {
		out.Metrics[spec.Name] = value{Value: res.Metrics[spec.Name], Unit: spec.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(line))
}

// printHuman prints every metric by name with its unit, then the notes.
func printHuman(name string, cfg runConfig, res *runResult) {
	f := os.Stdout
	fmt.Fprintf(f, "== %s  seed=%d steady=%s trace=%v  correct=%v attempted=%d failed=%d\n",
		name, cfg.Seed, cfg.Steady, cfg.Trace, res.Correct, res.Attempted, res.Failed)
	for _, spec := range metricTable(cfg.Trace) {
		fmt.Fprintf(f, "  %-42s %14.6g %s\n", spec.Name, res.Metrics[spec.Name], spec.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(f, "  note: %s\n", n)
	}
}

// printBenchmarkJSON renders the driver's contract file from the tables in
// spec.go; spec_test.go fails when the committed file and the tables differ.
func printBenchmarkJSON() {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(out))
}
