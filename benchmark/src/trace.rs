//! Reads the program's own `--trace FILE --trace-format jsonl` output: exact
//! counters and per-phase time in both clocks.

use crate::json::Json;
use std::collections::BTreeMap;

/// The phases the recorder opens on the driver lane, in pipeline order, with
/// the per-layer metrics that report each one's wall and simulated time.
pub const PHASES: [(&str, &str, &str); 5] = [
    ("sampling", "phase.sampling_s", "phase.sampling_sim_s"),
    (
        "agreement_graph",
        "phase.agreement_graph_s",
        "phase.agreement_graph_sim_s",
    ),
    ("marking", "phase.marking_s", "phase.marking_sim_s"),
    ("shuffle", "phase.shuffle_s", "phase.shuffle_sim_s"),
    ("local_join", "phase.local_join_s", "phase.local_join_sim_s"),
];

/// The phase a node-lane task span belongs to.
fn phase_of_task(stage: &str) -> Option<&'static str> {
    match stage {
        "sample" => Some("sampling"),
        "marking" => Some("marking"),
        "shuffle.R" | "shuffle.S" => Some("shuffle"),
        "cogroup_join" => Some("local_join"),
        _ => None,
    }
}

/// `job:3:shuffle.R` → `shuffle.R`: `asj serve` prefixes every tenant's stages.
fn base_stage(stage: &str) -> &str {
    stage
        .strip_prefix("job:")
        .and_then(|rest| rest.split_once(':'))
        .map_or(stage, |(_id, base)| base)
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceSummary {
    /// Counter name → sum over every stage and tenant.
    pub counters: BTreeMap<String, u64>,
    /// Phase → summed driver-lane span wall time (seconds).
    pub phase_wall_s: BTreeMap<&'static str, f64>,
    /// Phase → simulated time: per task stage the busiest node's summed
    /// `sim_dur` (the engine's makespan), summed over the phase's stages and
    /// tenants; driver-only phases bill their driver span.
    pub phase_sim_s: BTreeMap<&'static str, f64>,
    pub spans: u64,
    pub events: u64,
}

impl TraceSummary {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn parse(jsonl: &str) -> Result<TraceSummary, String> {
        let mut out = TraceSummary::default();
        // (scoped stage, node) → summed simulated nanoseconds
        let mut busy: BTreeMap<(String, u64), u64> = BTreeMap::new();
        for (i, line) in jsonl.lines().enumerate() {
            let v = Json::parse(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
            let text = |key: &str| v.get(key).and_then(Json::as_str).unwrap_or("");
            let int = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
            match text("kind") {
                "counter" => {
                    *out.counters.entry(text("name").to_string()).or_default() += int("value")
                }
                "event" => out.events += 1,
                "span" => {
                    out.spans += 1;
                    let base = base_stage(text("stage"));
                    if text("lane") == "driver" {
                        if let Some((phase, _, _)) = PHASES.iter().find(|p| p.0 == base) {
                            *out.phase_wall_s.entry(phase).or_default() +=
                                int("wall_dur_ns") as f64 / 1e9;
                            if *phase == "agreement_graph" {
                                *out.phase_sim_s.entry(phase).or_default() +=
                                    int("sim_dur_ns") as f64 / 1e9;
                            }
                        }
                    } else if phase_of_task(base).is_some() {
                        *busy
                            .entry((text("stage").to_string(), int("node")))
                            .or_default() += int("sim_dur_ns");
                    }
                }
                _ => {}
            }
        }
        let mut makespan: BTreeMap<&str, u64> = BTreeMap::new();
        for ((stage, _node), ns) in &busy {
            let slot = makespan.entry(stage.as_str()).or_default();
            *slot = (*slot).max(*ns);
        }
        for (stage, ns) in makespan {
            let phase = phase_of_task(base_stage(stage)).expect("only phase tasks were kept");
            *out.phase_sim_s.entry(phase).or_default() += ns as f64 / 1e9;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_counters_and_phases_across_tenants() {
        let trace = r#"{"kind":"meta","nodes":12}
{"kind":"counter","stage":"job:0:marking","name":"replicas","value":100}
{"kind":"counter","stage":"job:1:marking","name":"replicas","value":23}
{"kind":"counter","stage":"shuffle.R","name":"remote_bytes","value":4096}
{"kind":"span","stage":"job:0:marking","lane":"driver","records":10,"wall_start_ns":0,"wall_dur_ns":2000000000,"sim_start_ns":0,"sim_dur_ns":2000000000}
{"kind":"span","stage":"job:1:marking","lane":"driver","wall_start_ns":0,"wall_dur_ns":500000000,"sim_start_ns":0,"sim_dur_ns":500000000}
{"kind":"span","stage":"job:0:marking","lane":"node","node":0,"partition":0,"wall_start_ns":0,"wall_dur_ns":9,"sim_start_ns":0,"sim_dur_ns":300000000}
{"kind":"span","stage":"job:0:marking","lane":"node","node":0,"partition":12,"wall_start_ns":0,"wall_dur_ns":9,"sim_start_ns":0,"sim_dur_ns":200000000}
{"kind":"span","stage":"job:0:marking","lane":"node","node":1,"partition":1,"wall_start_ns":0,"wall_dur_ns":9,"sim_start_ns":0,"sim_dur_ns":400000000}
{"kind":"span","stage":"job:1:marking","lane":"node","node":5,"partition":5,"wall_start_ns":0,"wall_dur_ns":9,"sim_start_ns":0,"sim_dur_ns":100000000}
{"kind":"span","stage":"job:6:task","lane":"node","node":5,"partition":5,"wall_start_ns":0,"wall_dur_ns":9,"sim_start_ns":0,"sim_dur_ns":100000000}
{"kind":"event","name":"shuffle.partition","lane":"node","node":0,"partition":0,"records":1,"bytes":36,"wall_ns":1,"sim_ns":1}
"#;
        let t = TraceSummary::parse(trace).unwrap();
        assert_eq!(t.counter("replicas"), 123);
        assert_eq!(t.counter("remote_bytes"), 4096);
        assert_eq!(t.counter("absent"), 0);
        assert_eq!(t.phase_wall_s["marking"], 2.5);
        // job 0: node 0 is busiest (0.3 + 0.2); job 1 adds its own 0.1.
        assert!((t.phase_sim_s["marking"] - 0.6).abs() < 1e-12);
        assert_eq!((t.spans, t.events), (7, 1));
    }

    #[test]
    fn tenant_prefix_is_stripped() {
        assert_eq!(base_stage("job:12:shuffle.S"), "shuffle.S");
        assert_eq!(base_stage("local_join"), "local_join");
        assert_eq!(base_stage("job:broken"), "job:broken");
    }

    #[test]
    fn a_torn_line_is_an_error() {
        assert!(TraceSummary::parse("{\"kind\":\"span\",").is_err());
    }
}
