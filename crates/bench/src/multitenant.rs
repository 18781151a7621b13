//! `repro multitenant` — the multi-tenant job-server sweep behind the
//! admission-control and fair-share scheduling work.
//!
//! One mixed-size tenant set (a large head-of-line join followed by smaller
//! ones, cycling algorithms and distributions, one tenant chaos-injected) is
//! run at 1/2/4/8 tenants under both scheduling policies on one simulated
//! cluster with a per-node memory budget sized from the working-set
//! estimates. After every leg the harness asserts:
//!
//! * **isolation** — every tenant's result checksum is byte-identical to its
//!   solo run on a fresh cluster of the same shape,
//! * **budget** — `peak_memory_bytes <= budget` (enforced by construction:
//!   the accountant spills before any node crosses it),
//! * **leak audit** — every tenant completes with zero residual bytes,
//! * **fairness** — for every mixed-size set (N ≥ 2), fair-share beats FIFO
//!   on p99 queue wait (FIFO pays head-of-line blocking behind the large
//!   tenant; fair-share serves every tenant within the first round),
//! * **determinism** — re-running a leg reproduces the grant log and every
//!   checksum (clock values are simulated from measured stage makespans and
//!   are reported, not gated).
//!
//! Results land in `BENCH_multitenant.json` for the CI `perf-smoke` job;
//! override the path with `ASJ_BENCH_MULTITENANT_OUT`.

use crate::{ExpConfig, Table};
use asj_data::GenKind;
use asj_engine::{Cluster, ClusterConfig, DurationSummary, JobId, JobReport, SchedPolicy};
use asj_join::Algorithm;
use asj_serve::{
    calibrated_model_for, run_queue, solo_outcome, RecoveryOptions, TenantOutcome, TenantSpec,
};
use std::collections::HashMap;
use std::time::Duration;

/// Tenant counts swept (the paper-style 1/2/4/8 scaling axis).
const TENANT_COUNTS: &[usize] = &[1, 2, 4, 8];

/// One leg of the sweep: a tenant count under one policy.
#[derive(Debug)]
pub struct MtLeg {
    pub tenants: usize,
    pub policy: SchedPolicy,
    /// Per-node budget the leg ran under (sum of working-set estimates, so
    /// every tenant admits immediately and waits measure scheduling alone).
    pub budget_bytes: u64,
    /// Final server clock (serialized simulated time of the whole queue).
    pub clock_seconds: f64,
    /// Quanta granted over the leg.
    pub grants: usize,
    pub queue_wait: DurationSummary,
    pub turnaround: DurationSummary,
    /// Largest per-tenant peak; `<= budget_bytes` by construction.
    pub peak_memory_bytes: u64,
    pub spilled_bytes: u64,
    /// Retries across all tenants (only the chaos tenant should contribute).
    pub retries: u64,
    /// Every tenant's checksum matched its solo run.
    pub isolated: bool,
    /// The server's per-tenant reports, every one of them `Ok`.
    pub reports: Vec<JobReport<TenantOutcome>>,
}

/// The sweep's full result set (also serialized to JSON).
#[derive(Debug)]
pub struct MtReport {
    pub nodes: usize,
    pub legs: Vec<MtLeg>,
    /// p99 queue wait, fair-share vs FIFO, for every N >= 2 leg pair.
    pub fairness_wins: Vec<(usize, Duration, Duration)>,
}

/// The mixed-size tenant set at count `n`: sets are prefixes of each other
/// (tenant `i` is identical at every N), so solo oracles are computed once.
/// Tenant 0 is the deliberately large head-of-line job FIFO stalls behind;
/// tenant 2 carries a deterministic fault plan to exercise per-tenant retry
/// isolation inside the sweep itself.
pub fn tenant_set(cfg: &ExpConfig, n: usize) -> Vec<TenantSpec> {
    const ALGOS: &[Algorithm] = &[
        Algorithm::Lpib,
        Algorithm::UniR,
        Algorithm::Diff,
        Algorithm::EpsGrid,
    ];
    (0..n)
        .map(|i| {
            let large = i == 0;
            let cardinality = if large {
                (cfg.base / 2).max(600)
            } else {
                (cfg.base / 8).max(300)
            };
            let mut t = TenantSpec::new(format!("tenant-{i:02}"), cfg.default_eps, cardinality);
            t.algorithm = ALGOS[i % ALGOS.len()];
            t.kind = if i % 2 == 0 {
                GenKind::GaussianClusters
            } else {
                GenKind::Uniform
            };
            t.seed = 100 + 17 * i as u64;
            t.partitions = cfg.partitions.min(24);
            t.weight = if large { 1 } else { 2 };
            if i == 2 {
                t.faults = Some("p=0.25".to_string());
                t.fault_seed = 11;
                t.max_attempts = Some(6);
            }
            t
        })
        .collect()
}

/// Per-node budget for a tenant set: the sum of the calibrated working-set
/// estimates, so the whole set admits at clock 0 (reservations fit) and
/// queue waits measure scheduling, not deferred admission.
fn leg_budget(tenants: &[TenantSpec], nodes: usize) -> u64 {
    tenants
        .iter()
        .map(|t| {
            t.estimate_override
                .unwrap_or_else(|| calibrated_model_for(t).estimate(t, nodes))
        })
        .sum::<u64>()
        .max(1)
}

/// Runs one leg; also returns its grant log for the determinism gate.
fn run_leg(cfg: &ExpConfig, tenants: &[TenantSpec], policy: SchedPolicy) -> (MtLeg, Vec<JobId>) {
    let budget = leg_budget(tenants, cfg.nodes);
    let cluster = Cluster::new(ClusterConfig::new(cfg.nodes).with_memory_budget(budget));
    let run = run_queue(&cluster, tenants, policy, &RecoveryOptions::default())
        .unwrap_or_else(|e| panic!("{} x{} tenants: {e}", policy.name(), tenants.len()));
    for t in &run.reports {
        if let Err(e) = &t.result {
            panic!("tenant '{}' failed: {e}", t.name);
        }
    }

    let waits: Vec<Duration> = run.reports.iter().map(JobReport::queue_wait).collect();
    let turnarounds: Vec<Duration> = run.reports.iter().map(JobReport::turnaround).collect();
    let leg = MtLeg {
        tenants: tenants.len(),
        policy,
        budget_bytes: budget,
        clock_seconds: run.clock.as_secs_f64(),
        grants: run.grants.len(),
        queue_wait: DurationSummary::from_samples(&waits),
        turnaround: DurationSummary::from_samples(&turnarounds),
        peak_memory_bytes: cluster.memory_accountant().peak_bytes(),
        spilled_bytes: run.reports.iter().map(|t| t.stats.spilled_bytes).sum(),
        retries: run.reports.iter().map(|t| t.stats.retries).sum(),
        isolated: false, // filled by the caller against the solo oracle
        reports: run.reports,
    };
    (leg, run.grants)
}

fn outcome(report: &JobReport<TenantOutcome>) -> &TenantOutcome {
    report
        .result
        .as_ref()
        .expect("run_leg checked every tenant")
}

fn json_job(j: &JobReport<TenantOutcome>) -> String {
    format!(
        concat!(
            "{{\"name\":\"{}\",\"checksum\":\"{:016x}\",\"results\":{},",
            "\"queue_wait_seconds\":{:.6},\"turnaround_seconds\":{:.6},",
            "\"stages\":{},\"retries\":{},\"spilled_bytes\":{},",
            "\"residual_bytes\":{}}}"
        ),
        j.name,
        outcome(j).checksum,
        outcome(j).result_count,
        j.queue_wait().as_secs_f64(),
        j.turnaround().as_secs_f64(),
        j.stages,
        j.stats.retries,
        j.stats.spilled_bytes,
        j.residual_bytes,
    )
}

fn json_leg(leg: &MtLeg) -> String {
    let jobs: Vec<String> = leg.reports.iter().map(json_job).collect();
    format!(
        concat!(
            "{{\"tenants\":{},\"policy\":\"{}\",\"budget_bytes\":{},",
            "\"clock_seconds\":{:.6},\"grants\":{},",
            "\"queue_wait_p50_seconds\":{:.6},\"queue_wait_p99_seconds\":{:.6},",
            "\"turnaround_p99_seconds\":{:.6},",
            "\"peak_memory_bytes\":{},\"within_budget\":{},",
            "\"spilled_bytes\":{},\"retries\":{},",
            "\"isolated\":{},\"jobs\":[{}]}}"
        ),
        leg.tenants,
        leg.policy.name(),
        leg.budget_bytes,
        leg.clock_seconds,
        leg.grants,
        leg.queue_wait.p50.as_secs_f64(),
        leg.queue_wait.p99.as_secs_f64(),
        leg.turnaround.p99.as_secs_f64(),
        leg.peak_memory_bytes,
        leg.peak_memory_bytes <= leg.budget_bytes,
        leg.spilled_bytes,
        leg.retries,
        leg.isolated,
        jobs.join(","),
    )
}

/// Hand-rolled JSON, same conventions as `BENCH_memory.json`.
fn render_json(rep: &MtReport) -> String {
    let legs: Vec<String> = rep.legs.iter().map(json_leg).collect();
    let fairness: Vec<String> = rep
        .fairness_wins
        .iter()
        .map(|(n, fair, fifo)| {
            format!(
                concat!(
                    "{{\"tenants\":{},\"fair_share_p99_wait_seconds\":{:.6},",
                    "\"fifo_p99_wait_seconds\":{:.6},\"fair_share_wins\":{}}}"
                ),
                n,
                fair.as_secs_f64(),
                fifo.as_secs_f64(),
                fair < fifo,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"multitenant\",\n",
            "  \"nodes\": {},\n",
            "  \"isolation_matches\": true,\n",
            "  \"fairness\": [{}],\n",
            "  \"legs\": [{}]\n",
            "}}\n"
        ),
        rep.nodes,
        fairness.join(","),
        legs.join(","),
    )
}

/// The `repro multitenant` entry point. Runs the tenant-count × policy
/// sweep, asserts the isolation / budget / leak / fairness / determinism
/// gates, prints the comparison table and writes `BENCH_multitenant.json`.
pub fn multitenant_sweep(cfg: &ExpConfig) -> MtReport {
    let max_tenants = *TENANT_COUNTS.last().expect("non-empty sweep");
    let all_tenants = tenant_set(cfg, max_tenants);

    // Solo oracle, once per tenant: sets at smaller N are prefixes. The solo
    // cluster carries the same budget as the largest leg so spill pressure
    // differs (isolation must hold regardless).
    let oracle_budget = leg_budget(&all_tenants, cfg.nodes);
    let oracle_cluster =
        Cluster::new(ClusterConfig::new(cfg.nodes).with_memory_budget(oracle_budget));
    let solo: HashMap<String, TenantOutcome> = all_tenants
        .iter()
        .map(|t| {
            let out = solo_outcome(&oracle_cluster, t)
                .unwrap_or_else(|e| panic!("solo run of '{}': {e}", t.name));
            (t.name.clone(), out)
        })
        .collect();

    let mut legs: Vec<MtLeg> = Vec::new();
    let mut fairness_wins: Vec<(usize, Duration, Duration)> = Vec::new();
    for &n in TENANT_COUNTS {
        let tenants = &all_tenants[..n];
        let mut by_policy: Vec<MtLeg> = Vec::new();
        for policy in [SchedPolicy::FairShare, SchedPolicy::Fifo] {
            let (mut leg, _) = run_leg(cfg, tenants, policy);
            // Isolation gate: byte-identical to the solo oracle.
            for (tenant, report) in tenants.iter().zip(&leg.reports) {
                let expected = &solo[&tenant.name];
                assert_eq!(
                    outcome(report),
                    expected,
                    "{} x{n}: tenant '{}' diverged from its solo run",
                    policy.name(),
                    tenant.name
                );
                assert_eq!(
                    report.residual_bytes,
                    0,
                    "{} x{n}: tenant '{}' leaked",
                    policy.name(),
                    tenant.name
                );
            }
            leg.isolated = true;
            assert!(
                leg.peak_memory_bytes <= leg.budget_bytes,
                "{} x{n}: peak {} exceeds budget {}",
                policy.name(),
                leg.peak_memory_bytes,
                leg.budget_bytes
            );
            by_policy.push(leg);
        }
        let fair = &by_policy[0];
        let fifo = &by_policy[1];
        if n >= 2 {
            // Fairness gate: FIFO pays head-of-line blocking behind the
            // large tenant 0; fair-share serves everyone in round one.
            assert!(
                fair.queue_wait.p99 < fifo.queue_wait.p99,
                "x{n}: fair-share p99 wait {:?} must beat FIFO {:?}",
                fair.queue_wait.p99,
                fifo.queue_wait.p99
            );
            fairness_wins.push((n, fair.queue_wait.p99, fifo.queue_wait.p99));
        }
        legs.extend(by_policy);
    }

    // Determinism gate: the 2-tenant fair-share leg reruns to the same grant
    // log and checksums (clock values are measured-makespan sums and may
    // drift; they are reported, not gated).
    let (a, a_grants) = run_leg(cfg, &all_tenants[..2], SchedPolicy::FairShare);
    let (b, b_grants) = run_leg(cfg, &all_tenants[..2], SchedPolicy::FairShare);
    assert_eq!(a_grants, b_grants, "grant log must be deterministic");
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(
            outcome(x),
            outcome(y),
            "tenant '{}' must be deterministic",
            x.name
        );
    }

    let report = MtReport {
        nodes: cfg.nodes,
        legs,
        fairness_wins,
    };

    let mut table = Table::new(vec![
        "tenants",
        "policy",
        "grants",
        "wait p50 (ms)",
        "wait p99 (ms)",
        "turn p99 (ms)",
        "clock (ms)",
        "retries",
        "spilled KiB",
    ]);
    for leg in &report.legs {
        table.row(vec![
            leg.tenants.to_string(),
            leg.policy.name().to_string(),
            leg.grants.to_string(),
            format!("{:.2}", leg.queue_wait.p50.as_secs_f64() * 1e3),
            format!("{:.2}", leg.queue_wait.p99.as_secs_f64() * 1e3),
            format!("{:.2}", leg.turnaround.p99.as_secs_f64() * 1e3),
            format!("{:.2}", leg.clock_seconds * 1e3),
            leg.retries.to_string(),
            (leg.spilled_bytes / 1024).to_string(),
        ]);
    }
    table.print(&format!(
        "multi-tenant sweep — mixed-size tenants on {} nodes, budget = sum of working-set estimates",
        report.nodes
    ));
    for (n, fair, fifo) in &report.fairness_wins {
        println!(
            "x{n}: fair-share p99 wait {:.2} ms beats FIFO {:.2} ms",
            fair.as_secs_f64() * 1e3,
            fifo.as_secs_f64() * 1e3
        );
    }
    println!("isolation held on every leg (checksums match solo runs)");

    let out = std::env::var("ASJ_BENCH_MULTITENANT_OUT")
        .unwrap_or_else(|_| "BENCH_multitenant.json".to_string());
    match std::fs::write(&out, render_json(&report)) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multitenant_sweep_runs_at_tiny_scale() {
        let cfg = ExpConfig::quick().with_base(4_000);
        let dir = std::env::temp_dir().join("asj-mt-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::env::set_var(
            "ASJ_BENCH_MULTITENANT_OUT",
            dir.join("BENCH_multitenant.json"),
        );
        let report = multitenant_sweep(&cfg);
        std::env::remove_var("ASJ_BENCH_MULTITENANT_OUT");

        assert_eq!(report.legs.len(), TENANT_COUNTS.len() * 2);
        for leg in &report.legs {
            assert!(leg.isolated);
            assert!(leg.peak_memory_bytes <= leg.budget_bytes);
            assert_eq!(leg.reports.len(), leg.tenants);
            for job in &leg.reports {
                assert_eq!(job.residual_bytes, 0, "leak audit");
                assert!(
                    outcome(job).result_count > 0,
                    "every tenant joins something"
                );
            }
        }
        // Only the chaos tenant retries, and only in legs that include it.
        for leg in &report.legs {
            let chaos_retries: u64 = leg
                .reports
                .iter()
                .filter(|j| j.name == "tenant-02")
                .map(|j| j.stats.retries)
                .sum();
            assert_eq!(leg.retries, chaos_retries, "retries isolate to tenant 2");
        }
        assert_eq!(report.fairness_wins.len(), 3, "N in {{2,4,8}} compared");

        let json =
            std::fs::read_to_string(dir.join("BENCH_multitenant.json")).expect("json written");
        assert!(json.contains("\"experiment\": \"multitenant\""));
        assert!(json.contains("\"isolation_matches\": true"));
        assert!(json.contains("\"fair_share_wins\":true"));
        assert!(!json.contains("\"fair_share_wins\":false"));
        assert!(json.contains("\"within_budget\":true"));
        assert!(!json.contains("\"within_budget\":false"));
    }

    #[test]
    fn tenant_sets_are_prefixes() {
        let cfg = ExpConfig::quick();
        let two = tenant_set(&cfg, 2);
        let eight = tenant_set(&cfg, 8);
        assert_eq!(&eight[..2], &two[..], "smaller sets are prefixes");
        assert!(
            eight[0].cardinality > eight[1].cardinality,
            "tenant 0 is large"
        );
        assert!(eight[2].faults.is_some(), "tenant 2 is the chaos tenant");
    }
}
