package main

import (
	"fmt"
	"math"
	"os"
)

// runRepeat runs the selected workloads n times (n sets of the same code on
// the same inputs, so every difference between sets is noise) and prints,
// per end-to-end metric and workload, the spread between the sets against
// the metric's bound. A metric whose spread exceeds its bound, or whose
// workload saw the canary drift by more than a tenth, is reported as
// unresolved rather than unchanged: on this box, at this moment, the
// benchmark cannot tell a regression of the bound's size from noise. It
// returns the process exit code: non-zero if any end-to-end metric is out of
// bounds (unless smoke, where bounds are not applied) or a run was incorrect.
func runRepeat(base runConfig, selected []workloadSpec, n int, smoke bool) int {
	base.Trace = false
	type cell struct {
		values []float64
		canary []float64
	}
	table := make(map[string]*cell) // workload + "\x00" + metric
	key := func(w, m string) string { return w + "\x00" + m }
	code := 0
	for set := 1; set <= n; set++ {
		for _, w := range selected {
			cfg := base
			cfg.Workload = w
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bcload: set %d, %s: %v\n", set, w.Name, err)
				return 1
			}
			fmt.Printf("-- set %d of %d\n", set, n)
			printHuman(w.Name, cfg, res)
			if !res.Correct {
				code = 1
			}
			for _, spec := range endToEnd {
				c := table[key(w.Name, spec.Name)]
				if c == nil {
					c = &cell{}
					table[key(w.Name, spec.Name)] = c
				}
				c.values = append(c.values, res.Metrics[spec.Name])
				c.canary = append(c.canary, res.CanaryMs)
			}
		}
	}

	fmt.Printf("\n== agreement of %d sets (spread = (max − min) / median)\n", n)
	fmt.Printf("%-14s %-16s %12s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for _, w := range selected {
		for _, spec := range endToEnd {
			c := table[key(w.Name, spec.Name)]
			spread, drift := relSpread(c.values), relSpread(c.canary)
			verdict := "unchanged"
			switch {
			case smoke:
				verdict = "not gated (smoke)"
			case drift > 0.10:
				verdict = fmt.Sprintf("UNRESOLVED: canary drifted %.0f %%", 100*drift)
				code = 1
			case spread > spec.Bound:
				verdict = "UNRESOLVED: spread exceeds the bound"
				code = 1
			}
			fmt.Printf("%-14s %-16s %12.5g %8.1f%% %6.0f%%  %s\n",
				w.Name, spec.Name, median(c.values), 100*spread, 100*spec.Bound, verdict)
		}
	}
	return code
}

// relSpread is (max − min) / median, the run-to-run spread of one metric.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return ratio(hi-lo, median(xs))
}
