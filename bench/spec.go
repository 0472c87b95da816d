package main

import "time"

// The benchmark's fixed parameters. Rates, burst and block sizes were chosen
// once on the seed commit (see README.md, "Calibration") so that the writer
// keeps the daemon busy about a third of the time: high enough that an
// update regularly finds the previous one still in service (the paper's
// missed updates), low enough that the latency percentiles repeat from run to
// run. They are constants, never derived at run time, so that two commits
// always receive the same offered load.

// graphKind selects the generator of a workload's initial graph.
type graphKind int

const (
	// graphSocial is a Holme–Kim graph (preferential attachment with triad
	// closure): the paper's synthetic social graphs. Its BD fits every cache.
	graphSocial graphKind = iota
	// graphHub has vertex 0 adjacent to every other vertex plus 4n random
	// edges: diameter 2, so the dd=0 probe skips ~99 % of the sources and the
	// per-update kernel time is small next to the serving layers'.
	graphHub
)

// topology selects the daemons a workload runs against.
type topology int

const (
	topoSingle topology = iota // one bcserved
	topoShard2                 // bcrouter in front of two bcserved -shard i/2
)

type workloadSpec struct {
	Name string
	// Why is copied into BENCHMARK.json (at most 200 characters).
	Why      string
	Topology topology
	Graph    graphKind
	N        int // vertices of the initial graph
	// Durable runs bcserved out of core with a per-batch-fsync WAL (the
	// paper's DO setting plus durability); otherwise the store is in memory
	// and, on a single node, there is no WAL.
	Durable bool
	// Burst is the number of updates sharing one arrival's due time. A single
	// update goes out as POST /v1/update, a burst as one POST /v1/updates;
	// either way wait:true, so the response marks the updates visible.
	Burst int
	// ArrivalRate and ReadRate are the open-loop rates, per second, of the
	// writer's arrivals and of the reader's requests.
	ArrivalRate float64
	ReadRate    float64
	// Warm is how much of the schedule is sent and discarded before steady.
	Warm time.Duration
	// DrainBlock is the number of updates of one drain block, and DrainBlocks
	// how many blocks the drain phase posts (drain_ups is their median). A
	// block never exceeds inverseLag.
	DrainBlock  int
	DrainBlocks int
}

// inputKey identifies the generated input files: workloads with equal keys
// load byte-identical graph, stream and schedule files for one seed.
func (w workloadSpec) inputKey() inputParams {
	return inputParams{Graph: w.Graph, N: w.N, Burst: w.Burst, ArrivalRate: w.ArrivalRate,
		ReadRate: w.ReadRate, DrainUpdates: w.DrainBlock * w.DrainBlocks}
}

var workloads = []workloadSpec{
	{
		Name:     "mo_single",
		Why:      "Paper's MO setting, one worker: 100 updates/s one at a time (wait:true), 100 reads/s, social graph n=400. Time is in the kernel and the pipeline; WAL, disk store and router idle.",
		Topology: topoSingle, Graph: graphSocial, N: 400,
		Burst: 1, ArrivalRate: 100, ReadRate: 100, Warm: 3 * time.Second, DrainBlock: 256, DrainBlocks: 3,
	},
	{
		Name:     "do_wal_burst",
		Why:      "Paper's DO setting plus durability: out-of-core store, fsync-per-batch WAL, hub graph n=2000 (BD 80 MB), 25 bursts/s of 16 updates. Probe skips ~99 % of sources, so serving layers dominate.",
		Topology: topoSingle, Graph: graphHub, N: 2000, Durable: true,
		Burst: 16, ArrivalRate: 25, ReadRate: 100, Warm: 3 * time.Second, DrainBlock: 1024, DrainBlocks: 3,
	},
	{
		Name:     "shard2_single",
		Why:      "mo_single's byte-identical inputs through bcrouter and two shards: the difference to mo_single is fanout, SBCD codec, shard WAL append, merge and router publish. Two shards for two cores.",
		Topology: topoShard2, Graph: graphSocial, N: 400,
		Burst: 1, ArrivalRate: 100, ReadRate: 100, Warm: 3 * time.Second, DrainBlock: 256, DrainBlocks: 3,
	},
	{
		Name:     "mo_readheavy",
		Why:      "Publish/view layer from the reader's side: 1500 reads/s (80 % vertex, 15 % top-10, 5 % edge) against 50 updates/s. A write-path change that moves cost onto readers loses here.",
		Topology: topoSingle, Graph: graphSocial, N: 400,
		Burst: 1, ArrivalRate: 50, ReadRate: 1500, Warm: 3 * time.Second, DrainBlock: 256, DrainBlocks: 3,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	// runSeconds is the steady phase's length in BENCHMARK.json; -seconds
	// overrides it (the driver always passes it).
	runSeconds = 20
	// smokeSeconds is the steady length of -smoke.
	smokeSeconds = 5
	// setupRounds is how many times a run starts the daemons; setup_s is the
	// median.
	setupRounds = 5
	// inverseLag is the minimum distance, in updates, between two updates of
	// the same edge. The server's coalescer folds within one drained queue,
	// and the queue never holds more than one drain block (the largest is
	// 1024), so at this distance it never cancels work.
	inverseLag = 1024
	// schedLagLimitMs invalidates a run whose generator ran later than this
	// at the 95th percentile.
	schedLagLimitMs = 1.0
	// verifyTolerance bounds verify.max_rel_err.
	verifyTolerance = 1e-9
	// traceArrivals caps the arrivals one in-process traced pass replays.
	traceArrivals = 2000
)

// metricSpec is one metric as BENCHMARK.json lists it; only end-to-end
// metrics carry a bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the serving system sees; every workload
// reports all of them from a run with tracing off. Bounds come from the
// calibration in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"visible_p95_ms", "ms", "lower", 0.25},
	{"missed_frac", "ratio", "lower", 0.25},
	{"drain_ups", "1/s", "higher", 0.15},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// perLayer are the traced run's metrics, one group per module. [S] metrics
// are deltas of the daemons' own /metrics over the steady phase; [T] metrics
// are medians over spans recorded in-process around each layer's public
// calls (see trace.go and layers.go).
var perLayer = []metricSpec{
	// Health of the measurement itself.
	{Name: "bcload.sched_lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bcload.visible_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bcload.canary_ms", Unit: "ms", Better: "lower"},
	{Name: "bcload.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bcload.error_frac", Unit: "ratio", Better: "lower"},

	{Name: "server.http.ingest_us", Unit: "us", Better: "lower"},
	{Name: "server.http.ingest_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http.read_vertex_us", Unit: "us", Better: "lower"},
	{Name: "server.http.read_top_us", Unit: "us", Better: "lower"},

	{Name: "server.pipeline.drain_size_mean", Unit: "count", Better: "higher"},
	{Name: "server.pipeline.coalesced_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.pipeline.stage_wal_durable_ms", Unit: "ms", Better: "lower"},
	{Name: "server.pipeline.stage_applied_ms", Unit: "ms", Better: "lower"},
	{Name: "server.pipeline.stage_visible_ms", Unit: "ms", Better: "lower"},
	{Name: "server.pipeline.stage_total_ms", Unit: "ms", Better: "lower"},
	{Name: "server.pipeline.overhead_b1_us", Unit: "us", Better: "lower"},
	{Name: "server.pipeline.overhead_b16_us", Unit: "us", Better: "lower"},

	{Name: "server.wal.append_b1_us", Unit: "us", Better: "lower"},
	{Name: "server.wal.append_b16_us", Unit: "us", Better: "lower"},
	{Name: "server.wal.append_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.wal.fsync_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.wal.fsyncs_per_update", Unit: "ratio", Better: "lower"},
	{Name: "server.wal.bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "server.wal.replay_us_per_update", Unit: "us", Better: "lower"},

	{Name: "engine.apply_b1_us", Unit: "us", Better: "lower"},
	{Name: "engine.apply_b16_us", Unit: "us", Better: "lower"},
	{Name: "engine.apply_batch_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.result_snapshot_us", Unit: "us", Better: "lower"},
	{Name: "engine.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.obs_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "incremental.update_add_us", Unit: "us", Better: "lower"},
	{Name: "incremental.update_remove_us", Unit: "us", Better: "lower"},
	{Name: "incremental.batch16_us_per_update", Unit: "us", Better: "lower"},
	{Name: "incremental.classify_ns", Unit: "ns", Better: "lower"},
	{Name: "incremental.allocs_per_update", Unit: "count", Better: "lower"},
	{Name: "incremental.sources_skipped_frac", Unit: "ratio", Better: "higher"},
	{Name: "incremental.sources_updated_per_update", Unit: "count", Better: "lower"},

	{Name: "bdstore.probe_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "bdstore.probe_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "bdstore.load_us", Unit: "us", Better: "lower"},
	{Name: "bdstore.save_us", Unit: "us", Better: "lower"},
	{Name: "bdstore.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "bdstore.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "bdstore.probes_per_update", Unit: "count", Better: "lower"},
	{Name: "bdstore.loads_per_update", Unit: "count", Better: "lower"},
	{Name: "bdstore.saves_per_update", Unit: "count", Better: "lower"},
	{Name: "bdstore.mmap_read_frac", Unit: "ratio", Better: "higher"},
	{Name: "bdstore.flush_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "bdstore.bytes_per_record", Unit: "B", Better: "lower"},

	{Name: "bc.single_source_us", Unit: "us", Better: "lower"},
	{Name: "bc.brandes_full_ms", Unit: "ms", Better: "lower"},
	{Name: "bc.speedup_vs_brandes", Unit: "ratio", Better: "higher"},

	{Name: "graph.mutate_ns", Unit: "ns", Better: "lower"},

	{Name: "server.shard.apply_record_us", Unit: "us", Better: "lower"},
	{Name: "server.shard.encode_resp_us", Unit: "us", Better: "lower"},
	{Name: "server.shard.decode_resp_us", Unit: "us", Better: "lower"},
	{Name: "server.shard.resp_bytes_per_update", Unit: "B", Better: "lower"},

	{Name: "router.drain_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "router.fanout_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "router.drain_size_mean", Unit: "count", Better: "higher"},
	{Name: "router.fanout_retries", Unit: "count", Better: "lower"},
	{Name: "router.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "router.merge_self_ms", Unit: "ms", Better: "lower"},
	{Name: "router.local_overhead_us", Unit: "us", Better: "lower"},
	{Name: "router.http_overhead_us", Unit: "us", Better: "lower"},

	{Name: "replication.apply_record_us", Unit: "us", Better: "lower"},

	{Name: "obs.metrics_render_us", Unit: "us", Better: "lower"},

	{Name: "restart.recovery_s", Unit: "s", Better: "lower"},
	{Name: "restart.replayed_records", Unit: "count", Better: "lower"},
	{Name: "restart.bit_identical", Unit: "count", Better: "higher"},

	{Name: "verify.max_rel_err", Unit: "ratio", Better: "lower"},
}
