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
//!   each shuffle's map tasks admit against fixed shares of the budget and
//!   spill the rest),
//! * **fairness** — for every mixed-size set (N ≥ 2), fair-share beats FIFO
//!   on p99 queue wait (FIFO pays head-of-line blocking behind the large
//!   tenant; fair-share serves every tenant within the first round),
//! * **determinism** — re-running a leg reproduces the grant log, every
//!   checksum and the spilled bytes (clock values are simulated
//!   from measured stage makespans and are reported, not gated).

use crate::{Cell, ExpConfig, Table};
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
    /// Most bytes any node held in one of the leg's shuffles, whoever's;
    /// `<= budget_bytes` by construction.
    pub peak_memory_bytes: u64,
    /// Bytes the leg's shuffles spilled, over all tenants.
    pub spilled_bytes: u64,
    /// Retries across all tenants (only the chaos tenant should contribute).
    pub retries: u64,
    /// Every tenant's checksum matched its solo run.
    pub isolated: bool,
    /// The server's per-tenant reports, every one of them `Ok`.
    pub reports: Vec<JobReport<TenantOutcome>>,
}

/// The sweep's full result set.
#[derive(Debug)]
pub struct MtReport {
    pub nodes: usize,
    pub legs: Vec<MtLeg>,
    /// p99 queue wait, fair-share vs FIFO, for every N >= 2 leg pair.
    pub fairness_wins: Vec<(usize, Duration, Duration)>,
}

impl MtReport {
    /// The sweep's tables: one row per leg, the fairness comparison, and
    /// every tenant's outcome in the largest leg.
    pub fn tables(&self) -> Vec<Table> {
        let mut legs = Table::new(
            "multitenant",
            format!(
                "multi-tenant sweep — mixed-size tenants on {} nodes, budget = sum of working-set estimates",
                self.nodes
            ),
            vec![
                "tenants",
                "policy",
                "grants",
                "wait p50 (ms)",
                "wait p99 (ms)",
                "turn p99 (ms)",
                "clock (ms)",
                "retries",
                "spilled B",
            ],
        );
        for leg in &self.legs {
            legs.row(vec![
                Cell::label(leg.tenants.to_string()),
                Cell::label(leg.policy.name()),
                Cell::Count(leg.grants as u64),
                Cell::ms(leg.queue_wait.p50.as_secs_f64()),
                Cell::ms(leg.queue_wait.p99.as_secs_f64()),
                Cell::ms(leg.turnaround.p99.as_secs_f64()),
                Cell::ms(leg.clock_seconds),
                Cell::Count(leg.retries),
                Cell::Count(leg.spilled_bytes),
            ]);
        }
        let mut fairness = Table::new(
            "multitenant fairness",
            "multi-tenant sweep — p99 queue wait, fair-share vs FIFO",
            vec!["tenants", "fair-share (ms)", "FIFO (ms)"],
        );
        for (n, fair, fifo) in &self.fairness_wins {
            fairness.row(vec![
                Cell::label(n.to_string()),
                Cell::ms(fair.as_secs_f64()),
                Cell::ms(fifo.as_secs_f64()),
            ]);
        }
        let last = self.legs.last().expect("the sweep runs legs");
        let mut tenants = Table::new(
            "multitenant tenants",
            format!(
                "multi-tenant sweep — each of {} tenants, identical to its solo run",
                last.tenants
            ),
            vec!["tenant", "results", "checksum", "stages", "retries"],
        );
        for job in &last.reports {
            tenants.row(vec![
                Cell::label(job.name.as_str()),
                Cell::Count(outcome(job).result_count),
                Cell::Checksum(outcome(job).checksum),
                Cell::Count(job.stages),
                Cell::Count(job.stats.retries),
            ]);
        }
        vec![legs, fairness, tenants]
    }
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
        spilled_bytes: cluster.memory_accountant().spilled_bytes(),
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

/// The `repro multitenant` entry point. Runs the tenant-count × policy
/// sweep and asserts the isolation / budget / leak / fairness / determinism
/// gates.
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
    // log, checksums and spilled bytes (clock values are measured-makespan
    // sums and may drift; they are reported, not gated).
    let (a, a_grants) = run_leg(cfg, &all_tenants[..2], SchedPolicy::FairShare);
    let (b, b_grants) = run_leg(cfg, &all_tenants[..2], SchedPolicy::FairShare);
    assert_eq!(a_grants, b_grants, "grant log must be deterministic");
    assert_eq!(
        a.spilled_bytes, b.spilled_bytes,
        "spilling must be deterministic"
    );
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(
            outcome(x),
            outcome(y),
            "tenant '{}' must be deterministic",
            x.name
        );
    }

    MtReport {
        nodes: cfg.nodes,
        legs,
        fairness_wins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multitenant_sweep_runs_at_tiny_scale() {
        let cfg = ExpConfig::quick().with_base(4_000);
        let report = multitenant_sweep(&cfg);

        assert_eq!(report.legs.len(), TENANT_COUNTS.len() * 2);
        for leg in &report.legs {
            assert!(leg.isolated);
            assert!(leg.peak_memory_bytes <= leg.budget_bytes);
            assert_eq!(leg.reports.len(), leg.tenants);
            for job in &leg.reports {
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
        assert!(report
            .fairness_wins
            .iter()
            .all(|(_, fair, fifo)| fair < fifo));

        // The tables: one row per leg, per fairness comparison, per tenant.
        let tables = report.tables();
        let rows: Vec<usize> = tables.iter().map(|t| t.rows().len()).collect();
        assert_eq!(rows, [report.legs.len(), 3, 8]);
        assert_eq!(tables[2].rows()[2][0], Cell::label("tenant-02"));
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
