package main

import "strings"

// metricDef names one metric with its unit and direction. The catalogue
// below is the benchmark's side of BENCHMARK.json: TestCatalogueMatches
// asserts the two list exactly the same names, units and directions. The
// regression bounds live only in BENCHMARK.json, which -compare reads.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the nine metrics a user of the system sees, measured per
// workload from untraced repetitions only.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"client_rounds_per_s", "1/s", higher},
	{"round_wall_p50_ms", "ms", lower},
	{"cpu_ms_per_client_round", "ms", lower},
	{"uplink_bytes_per_client_round", "B", lower},
	{"final_accuracy", "fraction", higher},
	{"peak_rss_mb", "MB", lower},
	{"allocs_per_client_round", "count", lower},
	// 1 − the failed-client-round ratio: a benchmark metric may never read
	// 0, which the failure ratio does on every healthy fl and emu run.
	{"completed_client_round_ratio", "fraction", higher},
}

// perLayer are the single-layer metrics of the traced repetition. The
// prefix before the first dot is the layer (module) name. A workload that
// bypasses a layer omits that layer's metrics from its `layers` block.
var perLayer = []metricDef{
	{"tensor.gemm_gflops", "GFLOP/s", higher},
	{"tensor.axpy_ns_per_coord", "ns", lower},
	{"tensor.scale_ns_per_coord", "ns", lower},

	{"nn.local_train_ms", "ms", lower},
	{"nn.local_train_allocs", "count", lower},
	{"nn.eval_ms", "ms", lower},

	{"core.gate_calls", "count", lower},
	{"core.gate_busy_s", "s", lower},
	{"core.gate_ns_per_coord", "ns", lower},
	{"core.gate_upload_ratio", "fraction", lower},
	{"core.signs_ns_per_coord", "ns", lower},

	{"compress.encode_calls", "count", lower},
	{"compress.decode_calls", "count", lower},
	{"compress.encode_ns_per_coord", "ns", lower},
	{"compress.decode_ns_per_coord", "ns", lower},
	{"compress.busy_s", "s", lower},
	{"compress.ratio", "ratio", higher},

	{"shard.add_ns_per_coord", "ns", lower},
	{"shard.merge_ns_per_coord", "ns", lower},
	{"shard.round_ns_per_coord", "ns", lower},
	{"shard.add_allocs_per_update", "count", lower},
	{"shard.max_terms", "count", lower},

	{"emu.uplink_wire_bytes_per_round", "B", lower},
	{"emu.downlink_wire_bytes_per_round", "B", lower},
	{"emu.frame_overhead_ratio", "ratio", lower},
	{"emu.first_round_ms", "ms", lower},
	{"emu.transport_residual_ms", "ms", lower},
	{"emu.late_frames", "count", lower},
	{"emu.dup_frames", "count", lower},
	{"emu.rejoins", "count", lower},

	{"sim.timing_draws", "count", lower},
	{"sim.stragglers", "count", lower},
	{"sim.late_replies", "count", lower},
	{"sim.round_ms_per_kclient", "ms", lower},
	{"sim.resident_bytes_per_client", "B", lower},
	{"sim.virtual_round_p50_s", "s", lower},

	{"fl.fold_ms", "ms", lower},
	{"fl.round_overhead_ms", "ms", lower},

	{"telemetry.events", "count", lower},
	{"telemetry.collector_ns_per_event", "ns", lower},

	{"xrand.derive_compact_ns", "ns", lower},
	{"xrand.client_stream_ns", "ns", lower},

	{"dataset.build_s", "s", lower},

	{"runtime.gc_cycles", "count", lower},
	{"runtime.gc_pause_total_ms", "ms", lower},
	{"runtime.heap_mb_per_round", "MB", lower},

	{"engine.round_wall_p90_ms", "ms", lower},
	{"engine.round_wall_max_ms", "ms", lower},
	{"engine.round_self_p50_ms", "ms", lower},
	{"attribution.modelled_round_ms", "ms", lower},
	{"attribution.coverage", "ratio", higher},
	{"trace.overhead_ratio", "ratio", lower},
}

// layerOf returns the layer a per-layer metric belongs to.
func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

// unitOf looks a metric's unit up in either catalogue.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
