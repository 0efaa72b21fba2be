//! The metric names and units `BENCHMARK.json` lists. Every workload
//! prints all of them: the end-to-end metrics in an untraced run, the
//! per-layer metrics in a traced run. The names are the same for every
//! workload; what each one measures on which workload is in `NOTES.md`.

/// End-to-end metrics: what a user of the workload would see.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("kernel.edges", "count"),
    ("kernel.ticks", "count"),
    ("kernel.skipped", "count"),
    ("kernel.skip_ratio", "ratio"),
    ("kernel.ns_per_tick", "ns"),
    ("kernel.ns_per_edge", "ns"),
    ("kernel.ff_windows", "count"),
    ("kernel.ff_elided", "count"),
    ("snapshot.checkpoint_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("builder.build_us", "us"),
    ("service.probe_ms", "ms"),
    ("service.warm_ms", "ms"),
    ("service.warm_useful_ratio", "ratio"),
    ("service.tail_ms", "ms"),
    ("service.tail_ticks", "count"),
    ("suite.many-to-many_s", "s"),
    ("suite.many-to-one_s", "s"),
    ("suite.fig3_s", "s"),
    ("suite.fig4_s", "s"),
    ("suite.fig5_s", "s"),
    ("suite.fig6_s", "s"),
    ("suite.buffering_s", "s"),
    ("suite.bridges_s", "s"),
    ("suite.lmi_s", "s"),
    ("suite.arbitration_s", "s"),
    ("suite.noc_s", "s"),
    ("suite.tlm_s", "s"),
    ("suite.fidelity_s", "s"),
    ("suite.dual-channel_s", "s"),
    ("suite.robustness_s", "s"),
    ("suite.dse_s", "s"),
    ("server.hits", "count"),
    ("server.misses", "count"),
    ("server.warm_ups", "count"),
    ("server.batches", "count"),
    ("server.coalesced", "count"),
    ("server.disk_hits", "count"),
    ("server.spill_stores", "count"),
    ("server.spill_loads", "count"),
    ("server.spill_rejected", "count"),
    ("server.evictions", "count"),
    ("server.errors", "count"),
    ("server.warm_ups_per_key", "ratio"),
    ("server.queue_ms", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("persist.store_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.bytes", "bytes"),
    ("persist.restart_p50_ms", "ms"),
    ("dse.ticks", "count"),
    ("dse.ticks_per_candidate", "count"),
    ("dse.front_ratio", "ratio"),
    ("dse.ff_elided_ratio", "ratio"),
    ("dse.front_floor_misses", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.hit_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(Json::as_array)
            .expect("manifest section")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    }

    #[test]
    fn lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let manifest = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed(&manifest, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&manifest, "per_layer"), own(&PER_LAYER));
    }
}
