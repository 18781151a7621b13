//! Every metric the benchmark reports, by name and unit. `BENCHMARK.json`
//! lists the same names (a test holds the two together) and adds the
//! direction and regression bound of each end-to-end metric.

/// `(name, unit, exact)`: an exact metric is a counter of the program that
/// repeats bit for bit on the same inputs; `compare` asks for equality.
pub const END_TO_END: [(&str, &str, bool); 5] = [
    ("setup_s", "s", false),
    ("run_wall_s", "s", false),
    ("peak_rss_mib", "MiB", false),
    ("replicated_objects", "count", true),
    ("shuffle_remote_mib", "MiB", true),
];

/// `(name, unit)`, grouped by layer (= module). Where a metric does not
/// apply to a workload (say `engine.jobs_quanta` on a join) it reads 0.
pub const PER_LAYER: [(&str, &str); 70] = [
    // cli: the process around the join (rusage and the report's own clock)
    ("cli.cpu_s", "s"),
    ("cli.sys_s", "s"),
    ("cli.join_reported_wall_s", "s"),
    ("cli.non_join_s", "s"),
    // data
    ("data.csv_parse_s", "s"),
    ("data.csv_parse_mb_s", "MB/s"),
    ("data.records", "count"),
    ("data.generate_s", "s"),
    // grid / core
    ("grid.cells", "count"),
    ("core.sample_s", "s"),
    ("core.graph_build_s", "s"),
    ("core.marked_edges", "count"),
    ("core.locked_edges", "count"),
    ("core.broadcast_bytes", "bytes"),
    ("core.assign_s", "s"),
    ("core.assign_ns_per_rec", "ns"),
    ("core.replicas", "count"),
    // engine: shuffle
    ("engine.shuffle_s", "s"),
    ("engine.shuffle_mrec_s", "Mrec/s"),
    ("engine.shuffle_total_mib", "MiB"),
    ("engine.peak_partition_kib", "KiB"),
    ("engine.partition_skew", "ratio"),
    ("engine.bufpool_hit_ratio", "ratio"),
    ("engine.wire_encode_mb_s", "MB/s"),
    ("engine.wire_decode_mb_s", "MB/s"),
    // engine: memory
    ("engine.spill_shuffle_s", "s"),
    ("engine.spill_mib", "MiB"),
    ("engine.spill_overhead_ratio", "ratio"),
    ("engine.peak_sim_memory_kib", "KiB"),
    // engine: durability
    ("engine.checkpoint_shuffle_s", "s"),
    ("engine.checkpoint_mib", "MiB"),
    ("engine.checkpoint_overhead_ratio", "ratio"),
    ("engine.checkpoint_replay_s", "s"),
    ("engine.checkpoint_bytes_per_input_byte", "ratio"),
    ("engine.journal_append_us", "us"),
    ("engine.durability_overhead_s", "s"),
    // engine: scheduling
    ("engine.sim_time_s", "s"),
    ("engine.sim_imbalance", "ratio"),
    ("engine.attempts", "count"),
    ("engine.retries", "count"),
    ("engine.jobs_quanta", "count"),
    ("engine.jobs_server_clock_s", "s"),
    // index
    ("index.batch_build_s", "s"),
    ("index.batch_points", "count"),
    ("index.kernel_s", "s"),
    ("index.kernel_candidates", "count"),
    ("index.kernel_results", "count"),
    ("index.kernel_ns_per_candidate", "ns"),
    ("index.kernel_useful_ratio", "ratio"),
    ("index.kernel_picks_nl", "count"),
    ("index.kernel_picks_ps", "count"),
    ("index.kernel_picks_bucket", "count"),
    // join: the library's entry point on the same inputs
    ("join.inproc_wall_s", "s"),
    ("join.construction_wall_s", "s"),
    ("join.join_wall_s", "s"),
    ("join.driver_s", "s"),
    ("join.unattributed_s", "s"),
    // obs: the program's own recorder, from the traced child
    ("phase.sampling_s", "s"),
    ("phase.agreement_graph_s", "s"),
    ("phase.marking_s", "s"),
    ("phase.shuffle_s", "s"),
    ("phase.local_join_s", "s"),
    ("phase.sampling_sim_s", "s"),
    ("phase.agreement_graph_sim_s", "s"),
    ("phase.marking_sim_s", "s"),
    ("phase.shuffle_sim_s", "s"),
    ("phase.local_join_sim_s", "s"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans", "count"),
    ("obs.events", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics_and_workloads() {
        let spec = Json::parse(&std::fs::read_to_string(crate::benchmark_json()).unwrap()).unwrap();
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(spec.get("end_to_end").unwrap()), want);
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(spec.get("per_layer").unwrap()), want);
        let workloads: Vec<(&str, &str)> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| (w.name, w.why))
                .collect::<Vec<_>>()
        );
        for m in spec.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
