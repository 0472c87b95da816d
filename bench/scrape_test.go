package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP streambc_updates_applied_total Updates applied to the engine.
# TYPE streambc_updates_applied_total counter
streambc_updates_applied_total{shard="0"} 100
streambc_updates_applied_total{shard="1"} 100
# HELP streambc_router_updates_applied_total Updates applied by every shard and merged.
# TYPE streambc_router_updates_applied_total counter
streambc_router_updates_applied_total 100
# HELP streambc_ingest_stage_seconds Per-stage latency.
# TYPE streambc_ingest_stage_seconds histogram
streambc_ingest_stage_seconds_bucket{stage="total",le="0.001"} 10
streambc_ingest_stage_seconds_bucket{stage="total",le="+Inf"} 100
streambc_ingest_stage_seconds_sum{stage="total"} 0.5
streambc_ingest_stage_seconds_count{stage="total"} 100
streambc_ingest_stage_seconds_bucket{stage="applied",le="+Inf"} 100
streambc_ingest_stage_seconds_sum{stage="applied"} 0.4
streambc_ingest_stage_seconds_count{stage="applied"} 100
# HELP streambc_router_fanout_seconds Round-trip latency of one fanout attempt, per shard.
# TYPE streambc_router_fanout_seconds histogram
streambc_router_fanout_seconds_sum{shard="0"} 1
streambc_router_fanout_seconds_count{shard="0"} 100
streambc_router_fanout_seconds_sum{shard="1"} 2
streambc_router_fanout_seconds_count{shard="1"} 100
`

const scrapeAfter = `# HELP streambc_updates_applied_total Updates applied to the engine.
# TYPE streambc_updates_applied_total counter
streambc_updates_applied_total{shard="0"} 350
streambc_updates_applied_total{shard="1"} 350
# HELP streambc_router_updates_applied_total Updates applied by every shard and merged.
# TYPE streambc_router_updates_applied_total counter
streambc_router_updates_applied_total 350
# HELP streambc_ingest_stage_seconds Per-stage latency.
# TYPE streambc_ingest_stage_seconds histogram
streambc_ingest_stage_seconds_bucket{stage="total",le="0.001"} 20
streambc_ingest_stage_seconds_bucket{stage="total",le="+Inf"} 350
streambc_ingest_stage_seconds_sum{stage="total"} 2.5
streambc_ingest_stage_seconds_count{stage="total"} 350
streambc_ingest_stage_seconds_bucket{stage="applied",le="+Inf"} 350
streambc_ingest_stage_seconds_sum{stage="applied"} 1.4
streambc_ingest_stage_seconds_count{stage="applied"} 350
# HELP streambc_router_fanout_seconds Round-trip latency of one fanout attempt, per shard.
# TYPE streambc_router_fanout_seconds histogram
streambc_router_fanout_seconds_sum{shard="0"} 2
streambc_router_fanout_seconds_count{shard="0"} 350
streambc_router_fanout_seconds_sum{shard="1"} 4.5
streambc_router_fanout_seconds_count{shard="1"} 350
`

func TestScrapeDeltaThroughParseExposition(t *testing.T) {
	before, err := parseScrape([]byte(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape([]byte(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := scrapeDelta{before: before, after: after}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Unnamed labels — the federation's shard label — are summed over.
	near("shard-summed counter delta", d.sum("streambc_updates_applied_total"), 500)
	near("router counter delta", d.sum("streambc_router_updates_applied_total"), 250)
	// A named label selects one series of a vector.
	near("stage sum delta", d.sum("streambc_ingest_stage_seconds_sum", "stage", "total"), 2.0)
	near("stage count delta", d.sum("streambc_ingest_stage_seconds_count", "stage", "total"), 250)
	near("other stage", d.sum("streambc_ingest_stage_seconds_sum", "stage", "applied"), 1.0)
	near("absent family reads as an idle layer", d.sum("streambc_wal_append_seconds_sum"), 0)
	near("absent label value", d.sum("streambc_ingest_stage_seconds_sum", "stage", "wal_durable"), 0)
	perShard := d.by("shard", "streambc_router_fanout_seconds_sum")
	near("fanout shard 0", perShard["0"], 1)
	near("fanout shard 1", perShard["1"], 2.5)
	near("ratio with an idle denominator", ratio(3, 0), 0)
}

func TestParseScrapeRejectsMalformedExposition(t *testing.T) {
	// A sample before its family's HELP/TYPE block is what a garbage answer
	// looks like; the strict parser must refuse it rather than guess.
	if _, err := parseScrape([]byte("streambc_updates_applied_total 5\n")); err == nil {
		t.Fatal("a sample without HELP/TYPE parsed")
	}
	if _, err := parseScrape([]byte("# HELP x y\n# TYPE x counter\nx notanumber\n")); err == nil {
		t.Fatal("a non-numeric value parsed")
	}
}

func TestSteadyLayerMetricsSeparateTheLayers(t *testing.T) {
	before, err := parseScrape([]byte(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape([]byte(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	shard2, _ := findWorkload("shard2_single")
	steadyLayerMetrics(shard2, scrapeDelta{before: before, after: after}, func(name string, v float64) { got[name] = v })
	if v := got["server.pipeline.stage_total_ms"]; math.Abs(v-8) > 1e-9 {
		t.Errorf("stage_total_ms = %v, want 8 (2 s over 250 drains)", v)
	}
	// Mean over both shards' attempts: (1 + 2.5) s / 500.
	if v := got["router.fanout_mean_ms"]; math.Abs(v-7) > 1e-9 {
		t.Errorf("router.fanout_mean_ms = %v, want 7", v)
	}
	// No WAL, store or fsync families on the page: the layers read idle.
	for _, name := range []string{"server.wal.append_mean_us", "server.wal.fsyncs_per_update", "bdstore.probes_per_update"} {
		if got[name] != 0 {
			t.Errorf("%s = %v on a page without that layer, want 0", name, got[name])
		}
	}
}
