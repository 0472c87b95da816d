package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"streambc/internal/bc"
)

// runConfig is one run of one workload.
type runConfig struct {
	Root     string // checkout root
	BinDir   string // where bcserved and bcrouter were built
	Workload workloadSpec
	Seed     int64
	Steady   time.Duration
	// Trace selects the traced run: per-layer metrics instead of end-to-end
	// ones (see layers.go).
	Trace bool
}

// runResult is what one run reports.
type runResult struct {
	Metrics map[string]float64
	// CanaryMs is the fixed spin loop's time before the daemons started.
	CanaryMs  float64
	Attempted int64
	Failed    int64
	// Correct is false when the served scores or counters were wrong, or
	// when the run itself was invalid (the generator ran late).
	Correct bool
	Notes   []string
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// measured is what the daemon phases (setup → warm → steady → drain →
// verify) leave behind for the metric tables.
type measured struct {
	canary   time.Duration
	setups   []float64 // seconds, one per round
	writes   writeStats
	readsMs  []float64
	drainUps []float64
	rssMB    float64
	relErr   float64
	before   scrape // /metrics at the start of steady
	after    scrape // /metrics at the end of steady
	restart  restartResult
}

// runWorkload executes one run: it generates the inputs from the seed,
// drives the daemons through every phase, and turns what was measured into
// the run's metric set.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := cfg.Workload
	workDir := filepath.Join(cfg.Root, ".bench_build", "run", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.RemoveAll(workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	// The traced run spends half of its time on the daemons (for the [S]
	// metrics) and half on the in-process passes.
	steady := cfg.Steady
	if cfg.Trace {
		steady /= 2
	}
	inDir := filepath.Join(workDir, "inputs")
	if err := generateInputs(inDir, w.inputKey(), cfg.Seed, w.Warm+steady); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	in, err := loadInputs(inDir)
	if err != nil {
		return nil, fmt.Errorf("loading inputs: %w", err)
	}

	canaryTook := canary()
	res := &runResult{Metrics: make(map[string]float64), Correct: true, CanaryMs: ms(canaryTook)}
	ops := &opCounts{}
	m, err := driveDaemons(cfg, in, steady, workDir, ops, res)
	if err != nil {
		return nil, err
	}
	m.canary = canaryTook

	if lag := percentile(sortedCopy(m.writes.SchedLag), 0.95); lag > schedLagLimitMs {
		res.Correct = false
		res.note("invalid run: the generator ran %.3f ms late at the 95th percentile (limit %.1f ms)", lag, schedLagLimitMs)
	}
	if n := len(m.writes.VisibleMs); !supported(n, 0.95) {
		res.note("visible_p95_ms has only %d of %d samples beyond it (ten are needed)", samplesBeyond(n, 0.95), n)
	}
	if cfg.Trace {
		layerMetrics(cfg, in, m, ops, workDir, res)
	} else {
		endToEndMetrics(m, res)
	}
	res.Attempted, res.Failed = ops.attempted.Load(), ops.failed.Load()
	if res.Failed > 0 {
		res.Correct = false
		res.note("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// driveDaemons runs the phases that need the daemons — setup, warm, steady,
// drain, verify and, on a traced Durable run, the restart check — and stops
// every daemon before it returns. The generator keeps to its own CPU for
// the duration (affinity.go).
func driveDaemons(cfg runConfig, in *inputs, steady time.Duration, workDir string, ops *opCounts, res *runResult) (*measured, error) {
	w := cfg.Workload
	m := &measured{}
	ctl := &http.Client{Timeout: 2 * time.Minute}
	defer ctl.CloseIdleConnections()

	place, err := newPlacement()
	if err == nil {
		err = place.pinGenerator()
	}
	if err != nil {
		return nil, fmt.Errorf("CPU placement: %w", err)
	}
	defer place.unpinGenerator() //nolint:errcheck // restoring the start-up mask; the run's result stands

	// setup: exec → every /readyz 200, several times; the last cluster stays.
	rounds := setupRounds
	if cfg.Trace {
		rounds = 1
	}
	var cl *cluster
	for round := 0; round < rounds; round++ {
		if cl != nil {
			cl.kill()
			if err := cl.wipeState(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if cl, took, err = startCluster(ctl, w, place, cfg.BinDir, workDir, in.GraphPath); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setups = append(m.setups, took.Seconds())
	}
	defer cl.kill()

	// warm → steady → drain, reader alongside.
	start := time.Now().Add(20 * time.Millisecond)
	rd := &reader{conn: newConn(), base: cl.front, ops: ops, start: start, done: make(chan struct{})}
	wr := &writer{conn: newConn(), base: cl.front, ops: ops, start: start}
	defer rd.conn.CloseIdleConnections()
	defer wr.conn.CloseIdleConnections()
	go rd.run(in.Reads)
	defer func() { rd.stop.Store(true); <-rd.done }()

	firstSteady := in.firstDueAt(w.Warm)
	results := wr.runSchedule(in, 0, firstSteady, 0)
	if m.before, err = scrapeFront(ctl, cl.front); err != nil {
		return nil, err
	}
	prevDone := time.Duration(0)
	if len(results) > 0 {
		prevDone = results[len(results)-1].Visible
	}
	results = append(results, wr.runSchedule(in, firstSteady, in.arrivals(), prevDone)...)
	steadyEnd := time.Since(start)
	if m.after, err = scrapeFront(ctl, cl.front); err != nil {
		return nil, err
	}
	drain := in.drainUpdates()
	for b := 0; b+w.DrainBlock <= len(drain); b += w.DrainBlock {
		m.drainUps = append(m.drainUps, wr.drainBlock(drain[b:b+w.DrainBlock]))
	}
	rd.stop.Store(true)
	<-rd.done

	horizon := w.Warm + steady
	m.writes = accountWrites(results, in.Due[1:], w.Warm, horizon)
	m.readsMs = readLatenciesMs(rd.results, w.Warm, min(horizon, steadyEnd))
	if m.rssMB, err = cl.rssPeakMB(); err != nil {
		return nil, err
	}

	// verify: the served scores against Brandes on the harness's own copy of
	// the final graph, and the daemons' counters against what was sent.
	dump, err := fetchDump(ctl, cl.front)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	final := in.Graph.Clone()
	for i, u := range in.Updates {
		if err := final.Apply(u); err != nil {
			return nil, fmt.Errorf("generated update %d (%v) does not apply: %w", i, u, err)
		}
	}
	verified := true
	fail := func(format string, args ...any) {
		verified = false
		res.note(format, args...)
	}
	if m.relErr, err = dump.maxRelErr(bc.Compute(final)); err != nil {
		fail("verify: %v", err)
	} else if m.relErr > verifyTolerance {
		fail("verify: max relative error %.3g exceeds %.0e", m.relErr, verifyTolerance)
	}
	if dump.stats.Applied != len(in.Updates) || dump.stats.Rejected != 0 {
		fail("verify: daemon applied %d and rejected %d of %d updates sent",
			dump.stats.Applied, dump.stats.Rejected, len(in.Updates))
	}
	if dump.stats.Coalesced != 0 || wr.coalesced != 0 {
		fail("verify: %d updates were coalesced; the stream must keep inverses %d apart",
			dump.stats.Coalesced, inverseLag)
	}
	if cfg.Trace && w.Durable {
		if m.restart, err = restartCheck(ctl, cl, dump); err != nil {
			return nil, fmt.Errorf("restart check: %w", err)
		}
		if !m.restart.bitIdentical {
			fail("restart: scores after SIGKILL and recovery differ from the scores before")
		}
	}
	if !verified {
		// A verification failure is itself a failed operation.
		res.Correct = false
		ops.attempted.Add(1)
		ops.failed.Add(1)
	}
	return m, nil
}

// endToEndMetrics fills the metrics of a run with tracing off.
func endToEndMetrics(m *measured, res *runResult) {
	vis := sortedCopy(m.writes.VisibleMs)
	reads := sortedCopy(m.readsMs)
	res.Metrics["setup_s"] = median(m.setups)
	res.Metrics["visible_p50_ms"] = percentile(vis, 0.50)
	res.Metrics["visible_p95_ms"] = percentile(vis, 0.95)
	res.Metrics["missed_frac"] = m.writes.missedFrac()
	res.Metrics["drain_ups"] = median(m.drainUps)
	res.Metrics["read_p50_ms"] = percentile(reads, 0.50)
	res.Metrics["read_p95_ms"] = percentile(reads, 0.95)
	res.Metrics["rss_peak_mb"] = m.rssMB
}

// scrapeFront fetches and parses the front end's /metrics.
func scrapeFront(ctl *http.Client, base string) (scrape, error) {
	body, err := getBody(ctl, base+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	s, err := parseScrape(body)
	if err != nil {
		return nil, fmt.Errorf("parsing %s/metrics: %w", base, err)
	}
	return s, nil
}

// restartResult is the durability check of a Durable workload.
type restartResult struct {
	recovery     time.Duration
	replayed     float64
	bitIdentical bool
}

// restartCheck kills the daemon with SIGKILL after the final fence, restarts
// it on the same store, WAL and snapshot directories, times exec → /readyz
// and requires the score dump to equal the pre-kill dump byte for byte.
// (SIGKILL leaves the page cache intact; what this checks is that recovery
// from the logged bytes reproduces the served state exactly.)
func restartCheck(ctl *http.Client, cl *cluster, before *scoreDump) (restartResult, error) {
	var r restartResult
	d := cl.daemons[0]
	d.signalAndWait(syscall.SIGKILL)
	ctl.CloseIdleConnections()
	var err error
	if r.recovery, err = cl.restart(ctl, d); err != nil {
		return r, err
	}
	after, err := fetchDump(ctl, cl.front)
	if err != nil {
		return r, err
	}
	r.bitIdentical = before.sameScores(after)
	r.replayed = float64(after.stats.WALSeq)
	return r, nil
}
