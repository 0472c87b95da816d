package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"streambc/internal/bc"
	"streambc/internal/bdstore"
	"streambc/internal/engine"
	"streambc/internal/graph"
	"streambc/internal/incremental"
	"streambc/internal/obs"
	"streambc/internal/router"
	"streambc/internal/server"
)

// layerMetrics fills the per-layer metrics of a traced run: the health of
// the measurement, the [S] metrics from the daemons' own /metrics over the
// steady phase, and the [T] metrics from replaying the steady arrivals
// in-process with a span around every call into a layer.
func layerMetrics(cfg runConfig, in *inputs, m *measured, ops *opCounts, workDir string, res *runResult) {
	set := func(name string, v float64) { res.Metrics[name] = v }
	w := cfg.Workload

	set("bcload.sched_lag_p95_ms", percentile(sortedCopy(m.writes.SchedLag), 0.95))
	set("bcload.visible_p99_ms", percentile(sortedCopy(m.writes.VisibleMs), 0.99))
	if n := len(m.writes.VisibleMs); !supported(n, 0.99) {
		res.note("bcload.visible_p99_ms has only %d of %d samples beyond it (ten are needed)", samplesBeyond(n, 0.99), n)
	}
	set("bcload.canary_ms", ms(m.canary))
	set("bcload.error_frac", ratio(float64(ops.failed.Load()), float64(ops.attempted.Load())))
	set("verify.max_rel_err", m.relErr)
	set("restart.recovery_s", m.restart.recovery.Seconds())
	set("restart.replayed_records", m.restart.replayed)
	if m.restart.bitIdentical {
		set("restart.bit_identical", 1)
	}

	steadyLayerMetrics(w, scrapeDelta{before: m.before, after: m.after}, set)
	if w.Burst == 1 {
		// Cross-check of the two clocks: what the front end timed for one
		// update — enqueue to visible on a single node, the drain on the
		// router — must equal what the client timed from send to response,
		// less one HTTP round trip (approximated by the median read).
		clock := "server.pipeline.stage_total_ms"
		if w.Topology == topoShard2 {
			clock = "router.drain_mean_ms"
		}
		client, daemon := mean(m.writes.ServiceMs), res.Metrics[clock]
		res.note("cross-check: client send→response mean %.3f ms, %s %.3f ms, difference %.3f ms (HTTP round trip ≈ %.3f ms)",
			client, clock, daemon, client-daemon, median(m.readsMs))
	}

	t := &traced{cfg: cfg, in: in, rec: newRecorder(), dir: filepath.Join(workDir, "traced"), set: set, res: res}
	if err := t.run(); err != nil {
		res.Correct = false
		res.note("traced run: %v", err)
	}
	if path, err := t.rec.writeTrace(cfg.Root, w.Name, cfg.Seed); err != nil {
		res.note("writing the trace file: %v", err)
	} else {
		res.note("trace written to %s (%d spans, %d dropped)", path, len(t.rec.spans), t.rec.dropped)
	}
}

// steadyLayerMetrics derives the [S] metrics from the two scrapes around the
// steady phase. On the sharded topology the page is the router's federated
// one; sums run over the shard label, so counts are cluster totals and means
// are per call.
func steadyLayerMetrics(w workloadSpec, d scrapeDelta, set func(string, float64)) {
	sharded := w.Topology == topoShard2
	updates := d.sum("streambc_updates_applied_total")
	if sharded {
		updates = d.sum("streambc_router_updates_applied_total")
	}
	meanOf := func(family string, scale float64, kv ...string) float64 {
		return scale * ratio(d.sum(family+"_sum", kv...), d.sum(family+"_count", kv...))
	}

	// The writer's route: /v1/update for single updates, /v1/updates for bursts.
	route := "/v1/update"
	if w.Burst > 1 {
		route = "/v1/updates"
	}
	set("server.http.ingest_mean_ms", meanOf("streambc_http_request_seconds", 1e3, "route", route))
	set("server.pipeline.drain_size_mean", ratio(d.sum("streambc_updates_applied_total"), d.sum("streambc_apply_batches_total")))
	set("server.pipeline.coalesced_frac", ratio(d.sum("streambc_updates_coalesced_total"), d.sum("streambc_updates_enqueued_total")))
	for _, stage := range []string{"wal_durable", "applied", "visible", "total"} {
		set("server.pipeline.stage_"+stage+"_ms", meanOf("streambc_ingest_stage_seconds", 1e3, "stage", stage))
	}

	set("server.wal.append_mean_us", meanOf("streambc_wal_append_seconds", 1e6))
	set("server.wal.fsync_mean_ms", meanOf("streambc_wal_fsync_seconds", 1e3))
	set("server.wal.fsyncs_per_update", ratio(d.sum("streambc_wal_fsync_seconds_count"), updates))
	set("server.wal.bytes_per_update", ratio(d.sum("streambc_wal_bytes"), updates))

	set("engine.apply_batch_mean_ms", meanOf("streambc_engine_apply_batch_seconds", 1e3))

	skipped, updated := d.sum("streambc_engine_worker_sources_skipped_total"), d.sum("streambc_engine_worker_sources_updated_total")
	set("incremental.sources_skipped_frac", ratio(skipped, skipped+updated))
	set("incremental.sources_updated_per_update", ratio(updated, updates))

	// The bdstore layer is the out-of-core store: with the in-memory store
	// (no segment files) the layer is idle and its metrics read 0, even
	// though the kernel still counts its probes, loads and saves.
	if d.after.sum("streambc_store_segments") > 0 {
		set("bdstore.probes_per_update", ratio(d.sum("streambc_store_probes_total"), updates))
		set("bdstore.loads_per_update", ratio(d.sum("streambc_store_loads_total"), updates))
		set("bdstore.saves_per_update", ratio(d.sum("streambc_store_saves_total"), updates))
		mmap := d.sum("streambc_store_medium_reads_total", "path", "mmap")
		set("bdstore.mmap_read_frac", ratio(mmap, mmap+d.sum("streambc_store_medium_reads_total", "path", "pread")))
		set("bdstore.flush_mean_ms", meanOf("streambc_store_flush_seconds", 1e3))
		set("bdstore.bytes_per_record", ratio(d.after.sum("streambc_store_bytes"), d.after.sum("streambc_store_records")))
	}

	if sharded {
		drainMs := meanOf("streambc_router_drain_seconds", 1e3)
		set("router.drain_mean_ms", drainMs)
		set("router.fanout_mean_ms", meanOf("streambc_router_fanout_seconds", 1e3))
		set("router.drain_size_mean", ratio(updates, d.sum("streambc_router_drains_total")))
		set("router.fanout_retries", d.sum("streambc_router_fanout_retries_total"))
		// The drain waits for the slowest shard: its fanout mean is what the
		// merge adds to, and its share of the engines' apply time is the skew
		// a faster kernel cannot remove.
		slowest := 0.0
		sums, counts := d.by("shard", "streambc_router_fanout_seconds_sum"), d.by("shard", "streambc_router_fanout_seconds_count")
		for shard, sum := range sums {
			slowest = max(slowest, 1e3*ratio(sum, counts[shard]))
		}
		set("router.merge_self_ms", drainMs-slowest)
		apply := d.by("shard", "streambc_engine_apply_batch_seconds_sum")
		worst, total := 0.0, 0.0
		for _, sum := range apply {
			worst, total = max(worst, sum), total+sum
		}
		set("router.shard_skew", ratio(worst*float64(len(apply)), total))
	}
}

// traced is the in-process replay behind the [T] metrics.
type traced struct {
	cfg runConfig
	in  *inputs
	rec *recorder
	dir string
	set func(string, float64)
	res *runResult

	g0   *graph.Graph   // the graph at the start of steady
	flat []graph.Update // the updates from the start of steady on
	// refUs[b] holds, per arrival of pass A at batch size b, the reference
	// engine's ApplyBatch time in microseconds. Pass B replays the same
	// arrivals, so its overhead is a median of paired differences.
	refUs map[int][]float64
}

// walPolicy returns the fsync policy of the workload's write-ahead log, or
// false when the workload runs without one.
func walPolicy(w workloadSpec) (server.FsyncMode, bool) {
	switch {
	case w.Durable:
		return server.FsyncPerBatch, true
	case w.Topology == topoShard2:
		return server.FsyncOff, true
	}
	return 0, false
}

// slice returns a share of the traced run's time budget (half of the steady
// length).
func (t *traced) slice(share float64) time.Time {
	return time.Now().Add(time.Duration(share * float64(t.cfg.Steady) / 2))
}

// replay hands fn successive groups of b updates, starting at *cursor, until
// its share of the time budget is used, traceArrivals groups have gone by or
// the stream ends.
func (t *traced) replay(cursor *int, b int, share float64, fn func(i int, ups []graph.Update) error) error {
	until := t.slice(share)
	for i := 0; i < traceArrivals && time.Now().Before(until); i++ {
		ups := t.group(cursor, b)
		if ups == nil {
			break
		}
		if err := fn(i, ups); err != nil {
			return err
		}
	}
	return nil
}

// group cuts the next b updates out of the stream at *cursor, or returns nil
// when fewer are left.
func (t *traced) group(cursor *int, b int) []graph.Update {
	if *cursor+b > len(t.flat) {
		return nil
	}
	g := t.flat[*cursor : *cursor+b]
	*cursor += b
	return g
}

func needVertices(ups []graph.Update) int {
	need := 0
	for _, u := range ups {
		if !u.Remove {
			need = max(need, u.U+1, u.V+1)
		}
	}
	return need
}

// otherBatch is the batch size a workload does not use natively: both 1 and
// 16 are measured for every workload.
func otherBatch(b int) int {
	if b == 1 {
		return 16
	}
	return 1
}

func (t *traced) run() error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	first := t.in.firstDueAt(t.cfg.Workload.Warm)
	t.g0 = t.in.Graph.Clone()
	for _, u := range t.in.Updates[:first*t.in.Burst] {
		if err := t.g0.Apply(u); err != nil {
			return err
		}
	}
	t.flat = t.in.Updates[first*t.in.Burst:]
	t.refUs = make(map[int][]float64)

	steps := []struct {
		name string
		fn   func() error
	}{
		{"pass A", t.passA},
		{"pass B", t.passB},
		{"pass C", t.passC},
		{"incremental", t.incrementalLayer},
		{"bdstore", t.bdstoreLayer},
		{"bc and graph", t.bcAndGraphLayers},
		{"replication", t.replicationLayer},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		runtime.GC()
	}
	t.set("bc.speedup_vs_brandes", ratio(1e3*t.res.Metrics["bc.brandes_full_ms"], t.res.Metrics["engine.apply_b1_us"]))
	return nil
}

// tracedStore emits a span around every store call the engine makes.
type tracedStore struct {
	bdstore.Store
	rec *recorder
}

func (s *tracedStore) LoadDistances(src int, dist *[]int32) error {
	id := s.rec.begin("bdstore.probe", s.rec.current)
	defer s.rec.end(id)
	return s.Store.LoadDistances(src, dist)
}

func (s *tracedStore) Load(src int, rec *bc.SourceState) error {
	id := s.rec.begin("bdstore.load", s.rec.current)
	defer s.rec.end(id)
	return s.Store.Load(src, rec)
}

func (s *tracedStore) Save(src int, rec *bc.SourceState) error {
	id := s.rec.begin("bdstore.save", s.rec.current)
	defer s.rec.end(id)
	return s.Store.Save(src, rec)
}

func (s *tracedStore) Flush() error {
	id := s.rec.begin("bdstore.flush", s.rec.current)
	defer s.rec.end(id)
	return s.Store.Flush()
}

// storeFactory returns the workload's store configuration: out of core under
// dir for a Durable workload, in memory otherwise; wrap decorates each store.
func (t *traced) storeFactory(dir string, wrap func(bdstore.Store) bdstore.Store) engine.StoreFactory {
	base := engine.MemFactory()
	if t.cfg.Workload.Durable {
		base = engine.DiskFactory(dir)
	}
	return func(id, n int, sources []int) (incremental.Store, error) {
		s, err := base(id, n, sources)
		if err != nil || wrap == nil {
			return s, err
		}
		return wrap(s), nil
	}
}

// openWAL opens a fresh log under the workload's policy, or returns nil when
// the workload has none.
func (t *traced) openWAL(name string) (*server.WAL, error) {
	mode, ok := walPolicy(t.cfg.Workload)
	if !ok {
		return nil, nil
	}
	return server.OpenWAL(server.WALConfig{Dir: filepath.Join(t.dir, name), Mode: mode}, 0)
}

// passA replays arrivals straight into the layers an update crosses on one
// node — WAL.Append, Engine.ApplyBatch (store calls as children, through the
// decorated store), Engine.ResultSnapshot — with a span around each. Two more
// engines apply the same arrivals untraced: a reference (Config.Obs nil,
// plain store), whose per-arrival times are the baseline that the tracing,
// instrumentation and pipeline overheads are paired against, and one with
// Config.Obs set.
func (t *traced) passA() error {
	w := t.cfg.Workload
	eng, err := engine.New(t.g0.Clone(), engine.Config{Workers: 1,
		Store: t.storeFactory(filepath.Join(t.dir, "storeA"), func(s bdstore.Store) bdstore.Store {
			return &tracedStore{Store: s, rec: t.rec}
		})})
	if err != nil {
		return err
	}
	defer eng.Close()
	engRef, err := engine.New(t.g0.Clone(), engine.Config{Workers: 1,
		Store: t.storeFactory(filepath.Join(t.dir, "storeRef"), nil)})
	if err != nil {
		return err
	}
	defer engRef.Close()
	engObs, err := engine.New(t.g0.Clone(), engine.Config{Workers: 1, Obs: obs.NewRegistry(),
		Store: t.storeFactory(filepath.Join(t.dir, "storeObs"), nil)})
	if err != nil {
		return err
	}
	defer engObs.Close()
	wal, err := t.openWAL("walA")
	if err != nil {
		return err
	}
	if wal != nil {
		defer wal.Close()
	}
	// Each engine replays the arrivals on its own, one engine after the
	// other: interleaving them would evict each engine's working set from
	// the CPU caches between its updates, which the serving daemon (one
	// engine per process) never suffers. The reference engine goes first
	// and its time slices fix how many arrivals every later replay covers.
	segments := []struct {
		pass  string
		b     int
		share float64
	}{{"A", w.Burst, 0.12}, {"A.other", otherBatch(w.Burst), 0.06}}
	plain := func(e *engine.Engine) (map[int][]float64, error) {
		out := make(map[int][]float64)
		cursor := 0
		for _, seg := range segments {
			until, count := t.slice(seg.share), traceArrivals
			if ref, ok := t.refUs[seg.b]; ok {
				until, count = time.Now().Add(time.Hour), len(ref)
			}
			for i := 0; i < count && time.Now().Before(until); i++ {
				ups := t.group(&cursor, seg.b)
				if ups == nil {
					break
				}
				begin := time.Now()
				if _, err := e.ApplyBatch(ups); err != nil {
					return nil, err
				}
				out[seg.b] = append(out[seg.b], us(time.Since(begin)))
			}
		}
		return out, nil
	}
	refUs, err := plain(engRef)
	if err != nil {
		return err
	}
	t.refUs = refUs
	obsUs, err := plain(engObs)
	if err != nil {
		return err
	}

	cursor := 0
	for _, seg := range segments {
		t.rec.setPass(seg.pass)
		for range t.refUs[seg.b] {
			ups := t.group(&cursor, seg.b)
			root := t.rec.arrival("arrival")
			if wal != nil {
				id := t.rec.begin("server.wal.append", root)
				_, err := wal.Append(needVertices(ups), ups)
				t.rec.end(id)
				if err != nil {
					return err
				}
			}
			id := t.rec.begin("engine.apply_batch", root)
			t.rec.current = id
			_, err := eng.ApplyBatch(ups)
			t.rec.end(id)
			if err != nil {
				return err
			}
			id = t.rec.begin("engine.result_snapshot", root)
			snapshotSink = eng.ResultSnapshot()
			t.rec.end(id)
			t.rec.end(root)
		}
		t.rec.setPass("")
		b := strconv.Itoa(seg.b)
		spanUs := t.rec.durationsUs(seg.pass, "engine.apply_batch")
		t.set("engine.apply_b"+b+"_us", median(spanUs)/float64(seg.b))
		t.set("server.wal.append_b"+b+"_us", median(t.rec.durationsUs(seg.pass, "server.wal.append")))
		if seg.pass == "A" {
			ref := t.refUs[seg.b]
			t.set("engine.result_snapshot_us", median(t.rec.durationsUs("A", "engine.result_snapshot")))
			t.set("bcload.trace_overhead_frac", ratio(medianDiff(spanUs, ref), median(ref)))
			t.set("engine.obs_overhead_frac", ratio(medianDiff(obsUs[seg.b], ref), median(ref)))
			t.budgetNote("A")
		}
	}

	// Snapshot write and restore of the engine as it stands.
	var snap bytes.Buffer
	begin := time.Now()
	if err := engine.WriteSnapshot(&snap, eng); err != nil {
		return err
	}
	t.set("engine.snapshot_write_ms", ms(time.Since(begin)))
	t.set("engine.snapshot_bytes", float64(snap.Len()))
	begin = time.Now()
	st, err := engine.ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return err
	}
	restored, err := engine.RestoreEngine(st, engine.Config{Workers: 1})
	if err != nil {
		return err
	}
	t.set("engine.restore_ms", ms(time.Since(begin)))
	restored.Close()

	// Replay of a short log onto a fresh engine: ReplayWAL per update.
	if wal == nil {
		return nil
	}
	mode, _ := walPolicy(w)
	cfg := server.WALConfig{Dir: filepath.Join(t.dir, "walReplay"), Mode: mode}
	short, err := server.OpenWAL(cfg, 0)
	if err != nil {
		return err
	}
	logged, cur := 0, 0
	for i := 0; i < 64; i++ {
		ups := t.group(&cur, w.Burst)
		if ups == nil {
			break
		}
		if _, err := short.Append(needVertices(ups), ups); err != nil {
			short.Close()
			return err
		}
		logged += len(ups)
	}
	if err := short.Close(); err != nil {
		return err
	}
	if short, err = server.OpenWAL(cfg, 0); err != nil {
		return err
	}
	defer short.Close()
	fresh, err := engine.New(t.g0.Clone(), engine.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer fresh.Close()
	begin = time.Now()
	if _, err := server.ReplayWAL(short, fresh, 0); err != nil {
		return err
	}
	t.set("server.wal.replay_us_per_update", ratio(us(time.Since(begin)), float64(logged)))
	return nil
}

// medianDiff returns the median of the paired differences a[i] − b[i].
func medianDiff(a, b []float64) float64 {
	diff := make([]float64, min(len(a), len(b)))
	for i := range diff {
		diff[i] = a[i] - b[i]
	}
	return median(diff)
}

// budgetNote reports where the arrivals of one pass spent their time: each
// span name's self time as a share of the arrival spans. The root's own self
// time is what no layer span covers.
func (t *traced) budgetNote(pass string) {
	byName, roots := selfByName(t.rec.spans, pass)
	arrivals := len(t.rec.durationsUs(pass, "arrival"))
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	line := fmt.Sprintf("pass %s, %d arrivals, mean %.1f us each; self time:", pass, arrivals,
		ratio(us(roots), float64(arrivals)))
	for _, name := range names {
		line += fmt.Sprintf(" %s %.1f %%,", name, 100*ratio(float64(byName[name]), float64(roots)))
	}
	t.res.note("%s", strings.TrimSuffix(line, ","))
}

// snapshotSink keeps the per-drain publish copy alive until the next one.
var snapshotSink *bc.Result

// serve runs one request through h and reports the status.
func serve(h http.Handler, method, url string, body []byte) int {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code
}

// passB sends pass A's arrivals through the serving pipeline of one
// in-process server.Server built the way bcserved builds it: Enqueue + Wait
// at both batch sizes, paired arrival by arrival with the reference engine's
// ApplyBatch time, so that the difference is the pipeline's own time (queue
// hand-offs, coalescing, WAL append, publish). Further arrivals then go
// through Handler().ServeHTTP, and the read handlers and the metrics page
// are timed against the published view.
func (t *traced) passB() error {
	w := t.cfg.Workload
	reg := obs.NewRegistry()
	eng, err := engine.New(t.g0.Clone(), engine.Config{Workers: 1, Obs: reg,
		Store: t.storeFactory(filepath.Join(t.dir, "storeB"), nil)})
	if err != nil {
		return err
	}
	defer eng.Close()
	wal, err := t.openWAL("walB")
	if err != nil {
		return err
	}
	srv := server.New(eng, server.Config{WAL: wal, Obs: reg})
	srv.Start()
	defer srv.Close()
	h := srv.Handler()
	ctx := context.Background()
	cursor := 0

	for _, b := range []int{w.Burst, otherBatch(w.Burst)} {
		name := "B.enqueue" + strconv.Itoa(b)
		t.rec.setPass(name)
		var tookUs []float64
		for range t.refUs[b] {
			ups := t.group(&cursor, b)
			root := t.rec.arrival("arrival")
			id := t.rec.begin("server.enqueue_wait", root)
			begin := time.Now()
			batch, err := srv.Enqueue(ups)
			if err == nil {
				err = batch.Wait(ctx)
			}
			tookUs = append(tookUs, us(time.Since(begin)))
			t.rec.end(id)
			t.rec.end(root)
			if err != nil {
				return err
			}
		}
		t.set("server.pipeline.overhead_b"+strconv.Itoa(b)+"_us", medianDiff(tookUs, t.refUs[b])/float64(b))
	}

	// B.http: the native arrival shape through the HTTP handler.
	t.rec.setPass("B.http")
	if err := t.replay(&cursor, w.Burst, 0.10, func(_ int, ups []graph.Update) error {
		url, body := "/v1/update", updateBody(ups[0], true)
		if len(ups) > 1 {
			url, body = "/v1/updates", batchBody(ups, true)
		}
		root := t.rec.arrival("arrival")
		id := t.rec.begin("server.http.update", root)
		code := serve(h, http.MethodPost, url, body)
		t.rec.end(id)
		t.rec.end(root)
		if code != http.StatusOK {
			return fmt.Errorf("POST %s answered %d", url, code)
		}
		return nil
	}); err != nil {
		return err
	}

	// Decode + enqueue alone: wait:false posts, fenced by one barrier.
	t.rec.setPass("B.ingest")
	for i := 0; i < 64; i++ {
		ups := t.group(&cursor, 1)
		if ups == nil {
			break
		}
		id := t.rec.begin("server.http.ingest", 0)
		code := serve(h, http.MethodPost, "/v1/update", updateBody(ups[0], false))
		t.rec.end(id)
		if code != http.StatusAccepted {
			return fmt.Errorf("POST /v1/update wait:false answered %d", code)
		}
	}
	if barrier, err := srv.Enqueue(nil); err != nil {
		return err
	} else if err := barrier.Wait(ctx); err != nil {
		return err
	}
	t.set("server.http.ingest_us", median(t.rec.durationsUs("B.ingest", "server.http.ingest")))

	// The read handlers and the metrics page against the published view.
	t.rec.setPass("B.read")
	n := t.g0.N()
	for i := 0; i < 400; i++ {
		id := t.rec.begin("server.http.read_vertex", 0)
		serve(h, http.MethodGet, "/v1/vertices/"+strconv.Itoa(i%n), nil)
		t.rec.end(id)
	}
	for i := 0; i < 100; i++ {
		id := t.rec.begin("server.http.read_top", 0)
		serve(h, http.MethodGet, "/v1/top/vertices?k=10", nil)
		t.rec.end(id)
	}
	for i := 0; i < 50; i++ {
		id := t.rec.begin("obs.metrics_render", 0)
		_, err := srv.MetricsText()
		t.rec.end(id)
		if err != nil {
			return err
		}
	}
	t.rec.setPass("")
	t.set("server.http.read_vertex_us", median(t.rec.durationsUs("B.read", "server.http.read_vertex")))
	t.set("server.http.read_top_us", median(t.rec.durationsUs("B.read", "server.http.read_top")))
	t.set("obs.metrics_render_us", median(t.rec.durationsUs("B.read", "obs.metrics_render")))
	return nil
}

// tracedShard emits a span around every fanout apply of one shard
// connection and keeps the last response for the codec measurements.
type tracedShard struct {
	router.ShardConn
	rec  *recorder
	last *server.ShardResponse
}

func (s *tracedShard) Apply(ctx context.Context, rec server.WALRecord) (*server.ShardResponse, error) {
	id := s.rec.begin("router.shard_apply", s.rec.current)
	resp, err := s.ShardConn.Apply(ctx, rec)
	s.rec.end(id)
	if err == nil {
		s.last = resp
	}
	return resp, err
}

// passC sends arrivals through an in-process router over two shard servers,
// first over LocalShard connections, then over loopback HTTPShard ones. The
// router's excess over the slower shard's apply is its own overhead per
// transport. It runs only on the sharded workload.
func (t *traced) passC() error {
	w := t.cfg.Workload
	if w.Topology != topoShard2 {
		return nil
	}
	ctx := context.Background()
	for _, transport := range []string{"local", "http"} {
		pass := "C." + transport
		var conns []router.ShardConn
		var shards []*tracedShard
		var closers []func()
		closeAll := func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		}
		for i := 0; i < 2; i++ {
			dir := filepath.Join(t.dir, pass, "shard"+strconv.Itoa(i))
			eng, err := engine.New(t.g0.Clone(), engine.Config{Workers: 1, ShardIndex: i, ShardCount: 2})
			if err != nil {
				closeAll()
				return err
			}
			closers = append(closers, func() { eng.Close() })
			wal, err := server.OpenWAL(server.WALConfig{Dir: filepath.Join(dir, "wal"), Mode: server.FsyncOff}, 0)
			if err != nil {
				closeAll()
				return err
			}
			srv := server.New(eng, server.Config{WAL: wal})
			srv.Start()
			closers = append(closers, func() { srv.Close() })
			var conn router.ShardConn = router.NewLocalShard("shard"+strconv.Itoa(i), srv)
			if transport == "http" {
				hs := httptest.NewServer(srv.Handler())
				closers = append(closers, hs.Close)
				conn = router.NewHTTPShard(hs.URL)
			}
			ts := &tracedShard{ShardConn: conn, rec: t.rec}
			shards = append(shards, ts)
			conns = append(conns, ts)
		}
		rt, err := router.New(ctx, router.Config{Shards: conns})
		if err != nil {
			closeAll()
			return err
		}
		rt.Start()
		closers = append(closers, func() { rt.Close() })

		t.rec.setPass(pass)
		cursor := 0
		var overheadUs []float64
		err = t.replay(&cursor, w.Burst, 0.10, func(_ int, ups []graph.Update) error {
			root := t.rec.arrival("arrival")
			id := t.rec.begin("router.enqueue_wait", root)
			t.rec.current = id
			firstChild := len(t.rec.spans)
			batch, err := rt.Enqueue(ups)
			if err == nil {
				err = batch.Wait(ctx)
			}
			t.rec.end(id)
			t.rec.end(root)
			if err != nil {
				return err
			}
			slowest := time.Duration(0)
			for _, s := range t.rec.spans[firstChild:] {
				if s.Parent == id {
					slowest = max(slowest, s.duration())
				}
			}
			overheadUs = append(overheadUs, us(t.rec.spans[id-1].duration()-slowest))
			return nil
		})
		t.rec.setPass("")
		if err != nil {
			closeAll()
			return err
		}
		t.set("router."+transport+"_overhead_us", median(overheadUs))
		if transport == "local" {
			t.set("server.shard.apply_record_us", median(t.rec.durationsUs(pass, "router.shard_apply")))
			if resp := shards[0].last; resp != nil {
				var enc []byte
				var encUs, decUs []float64
				for i := 0; i < 200; i++ {
					begin := time.Now()
					enc = server.EncodeShardResponse(enc[:0], *resp)
					encUs = append(encUs, us(time.Since(begin)))
					begin = time.Now()
					if _, err := server.DecodeShardResponse(enc); err != nil {
						closeAll()
						return err
					}
					decUs = append(decUs, us(time.Since(begin)))
				}
				t.set("server.shard.encode_resp_us", median(encUs))
				t.set("server.shard.decode_resp_us", median(decUs))
				t.set("server.shard.resp_bytes_per_update", ratio(float64(len(enc)), float64(len(resp.Updates))))
			}
		}
		closeAll()
	}
	return nil
}

// incrementalLayer times the kernel below the engine: Updater.Apply per
// update kind, Updater.ApplyBatch at 16, Classify, and allocations.
func (t *traced) incrementalLayer() error {
	n := t.g0.N()
	store, err := bdstore.Open("", bdstore.Options{NumVertices: n})
	if err != nil {
		return err
	}
	up, err := incremental.NewUpdater(t.g0.Clone(), store)
	if err != nil {
		return err
	}
	defer up.Close()
	cursor := 0
	var addUs, removeUs []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := t.replay(&cursor, 1, 0.10, func(_ int, ups []graph.Update) error {
		begin := time.Now()
		if err := up.Apply(ups[0]); err != nil {
			return err
		}
		took := us(time.Since(begin))
		if ups[0].Remove {
			removeUs = append(removeUs, took)
		} else {
			addUs = append(addUs, took)
		}
		return nil
	}); err != nil {
		return err
	}
	applied := len(addUs) + len(removeUs)
	runtime.ReadMemStats(&ms1)
	t.set("incremental.update_add_us", median(addUs))
	t.set("incremental.update_remove_us", median(removeUs))
	t.set("incremental.allocs_per_update", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(applied)))

	var batchUs []float64
	if err := t.replay(&cursor, 16, 0.06, func(_ int, ups []graph.Update) error {
		begin := time.Now()
		_, err := up.ApplyBatch(ups)
		batchUs = append(batchUs, us(time.Since(begin))/16)
		return err
	}); err != nil {
		return err
	}
	t.set("incremental.batch16_us_per_update", median(batchUs))

	// Classify against real distance columns of the updater's store.
	var dist []int32
	var perCall []float64
	g := up.Graph()
	for s := 0; s < min(n, 32); s++ {
		if err := store.LoadDistances(s, &dist); err != nil {
			return err
		}
		begin := time.Now()
		for _, u := range t.flat[:min(len(t.flat), 1024)] {
			_, _, kind := incremental.Classify(dist, u, g.Directed())
			classifySink += int(kind)
		}
		perCall = append(perCall, float64(time.Since(begin).Nanoseconds())/float64(min(len(t.flat), 1024)))
	}
	t.set("incremental.classify_ns", median(perCall))
	return nil
}

var classifySink int

// bdstoreLayer times the v2 out-of-core store at the workload's vertex count
// on a small source set: save, flush, reopen, the first (cold) and later
// (warm) distance probes, and full loads.
func (t *traced) bdstoreLayer() error {
	n := t.g0.N()
	const sources = 64
	dir := filepath.Join(t.dir, "bdstore")
	set := make([]int, sources)
	for i := range set {
		set[i] = i
	}
	store, err := bdstore.Open(dir, bdstore.Options{NumVertices: n, Sources: set, Mode: bdstore.ModeCreate})
	if err != nil {
		return err
	}
	rec := bc.NewSourceState(n)
	var queue []int
	var saveUs []float64
	for _, s := range set {
		bc.SingleSource(t.g0, s, rec, &queue)
		begin := time.Now()
		if err := store.Save(s, rec); err != nil {
			store.Close()
			return err
		}
		saveUs = append(saveUs, us(time.Since(begin)))
	}
	begin := time.Now()
	if err := store.Flush(); err != nil {
		store.Close()
		return err
	}
	t.set("bdstore.flush_ms", ms(time.Since(begin)))
	t.set("bdstore.save_us", median(saveUs))
	if err := store.Close(); err != nil {
		return err
	}

	begin = time.Now()
	store, err = bdstore.Open(dir, bdstore.Options{Mode: bdstore.ModeReopen})
	if err != nil {
		return err
	}
	defer store.Close()
	t.set("bdstore.reopen_ms", ms(time.Since(begin)))
	var dist []int32
	var coldNs, warmNs, loadUs []float64
	for _, s := range set {
		begin := time.Now()
		if err := store.LoadDistances(s, &dist); err != nil {
			return err
		}
		coldNs = append(coldNs, float64(time.Since(begin).Nanoseconds()))
	}
	for round := 0; round < 20; round++ {
		for _, s := range set {
			begin := time.Now()
			if err := store.LoadDistances(s, &dist); err != nil {
				return err
			}
			warmNs = append(warmNs, float64(time.Since(begin).Nanoseconds()))
		}
	}
	for round := 0; round < 5; round++ {
		for _, s := range set {
			begin := time.Now()
			if err := store.Load(s, rec); err != nil {
				return err
			}
			loadUs = append(loadUs, us(time.Since(begin)))
		}
	}
	t.set("bdstore.probe_cold_ns", median(coldNs))
	t.set("bdstore.probe_warm_ns", median(warmNs))
	t.set("bdstore.load_us", median(loadUs))
	return nil
}

// bcAndGraphLayers times one Brandes source, the full from-scratch
// computation (the paper's baseline for the speed-up) and graph mutation.
func (t *traced) bcAndGraphLayers() error {
	n := t.g0.N()
	rec := bc.NewSourceState(n)
	var queue []int
	var perSource []float64
	for s := 0; s < min(n, 200); s++ {
		begin := time.Now()
		bc.SingleSource(t.g0, s, rec, &queue)
		perSource = append(perSource, us(time.Since(begin)))
	}
	t.set("bc.single_source_us", median(perSource))
	begin := time.Now()
	snapshotSink = bc.Compute(t.g0)
	t.set("bc.brandes_full_ms", ms(time.Since(begin)))

	// Mutation: the stream forwards, then its inverses backwards, so every
	// round starts from the same graph; compaction is amortised in.
	g := t.g0.Clone()
	ups := t.flat[:min(len(t.flat), 2048)]
	var perOp []float64
	for round := 0; round < 10; round++ {
		begin := time.Now()
		for _, u := range ups {
			if err := g.Apply(u); err != nil {
				return err
			}
		}
		for i := len(ups) - 1; i >= 0; i-- {
			inv := ups[i]
			inv.Remove = !inv.Remove
			if err := g.Apply(inv); err != nil {
				return err
			}
		}
		perOp = append(perOp, float64(time.Since(begin).Nanoseconds())/float64(2*len(ups)))
	}
	t.set("graph.mutate_ns", median(perOp))
	return nil
}

// replicationLayer times Server.ApplyReplicated on an in-process replica. No
// workload runs a follower; the number is recorded so that a later merge of
// the record-apply paths has a before.
func (t *traced) replicationLayer() error {
	eng, err := engine.New(t.g0.Clone(), engine.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{Replica: true})
	defer srv.Close()
	t.rec.setPass("replica")
	cursor := 0
	err = t.replay(&cursor, t.cfg.Workload.Burst, 0.08, func(seq int, ups []graph.Update) error {
		id := t.rec.begin("replication.apply_record", 0)
		err := srv.ApplyReplicated(server.WALRecord{Seq: uint64(seq), NeedVertices: needVertices(ups), Updates: ups})
		t.rec.end(id)
		return err
	})
	t.rec.setPass("")
	if err != nil {
		return err
	}
	t.set("replication.apply_record_us", median(t.rec.durationsUs("replica", "replication.apply_record")))
	return nil
}
