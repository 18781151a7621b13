//! `repro recovery` — the crash/recovery sweep behind the checkpointed
//! stage-recovery and job-server journal work.
//!
//! One mixed-size tenant set (reusing the multi-tenant sweep's set, chaos
//! tenant included) runs to completion once as the **oracle**. The sweep then
//! crashes a journaled server at three grant boundaries (~1/3, ~2/3 and two
//! grants shy of done) and restarts it with `--recover` semantics, under
//! three arms: **plain** (journal only), **ckpt** (journal + stage
//! checkpoints) and **compact** (checkpoints + `--compact-every 1` journal
//! compaction). After every leg the harness asserts:
//!
//! * **write-ahead** — the crashed leg's grant log is exactly the oracle's
//!   prefix up to the crash point, and the recovery leg replays that same
//!   journaled prefix (compaction included: a compacted journal must expose
//!   the identical grant log),
//! * **equivalence** — every tenant's recovered outcome (result count,
//!   candidates, replication, checksum) is byte-identical to the oracle's,
//! * **savings** — summed across crash points, the checkpointed recovery legs
//!   re-run strictly fewer task attempts than the journal-only legs: resuming
//!   from persisted shuffle *and join* stages must beat recomputing them.
//!
//! Every count the sweep reports — attempts re-run, stages resumed,
//! checkpoint bytes, and the checkpoint-dir + journal bytes retention GC and
//! compaction leave on disk — is exact, so the committed quick-tier record
//! (`results/repro-quick.json`) pins each one.

use crate::multitenant::tenant_set;
use crate::{Cell, ExpConfig, Table};
use asj_engine::{Cluster, ClusterConfig, FaultPlan, RetryPolicy, SchedPolicy, ServerRun};
use asj_join::Algorithm;
use asj_serve::{run_queue, RecoveryOptions, TenantOutcome, TenantSpec};
use std::path::Path;

/// Tenants in the sweep's queue (a prefix of the multi-tenant sweep's set,
/// so the chaos tenant at index 2 is included: recovery must compose with
/// ordinary per-tenant retry faults).
const TENANTS: usize = 4;

/// One crash/recover leg: a crash point under one durability arm.
#[derive(Debug, Clone)]
pub struct RecLeg {
    /// Grant boundary the server was killed at.
    pub crash_at: u64,
    /// The arm's name (`ckpt`, `plain` or `compact`).
    pub arm: &'static str,
    /// Whether this arm persisted stage checkpoints.
    pub checkpointed: bool,
    /// Whether this arm compacted the journal after every completion.
    pub compacted: bool,
    /// Crashed grant log == oracle prefix AND recovery replayed it.
    pub prefix_ok: bool,
    /// Every recovered outcome byte-identical to the oracle's.
    pub checksums_ok: bool,
    /// Tenants served straight from the journal (no re-execution).
    pub replayed_tenants: usize,
    /// Shuffle/join stages resumed from checkpoints instead of recomputed.
    pub stages_recovered: u64,
    /// Bytes the crashed leg persisted to the checkpoint store.
    pub checkpoint_bytes: u64,
    /// Task attempts the recovery leg re-ran — the recomputed-work metric.
    pub recovered_attempts: u64,
    /// Checkpoint-dir bytes + journal bytes left on disk once the recovery
    /// leg finished — what retention GC (and compaction) bound.
    pub post_gc_disk_bytes: u64,
    /// Recovery leg's final server clock (serialized simulated time).
    pub clock_seconds: f64,
}

/// The sweep's full result set.
#[derive(Debug, Clone)]
pub struct RecReport {
    pub nodes: usize,
    pub tenants: usize,
    /// Grants the uncrashed oracle needed for the whole queue.
    pub oracle_grants: usize,
    /// Task attempts the oracle spent — the 100% recomputation baseline.
    pub oracle_attempts: u64,
    pub legs: Vec<RecLeg>,
    /// Σ recovered_attempts over the checkpointed (non-compact) arms.
    pub attempts_with_checkpoint: u64,
    /// Σ recovered_attempts over the journal-only arms.
    pub attempts_without_checkpoint: u64,
    /// Max post-recovery disk bytes over the compact-arm legs.
    pub post_gc_disk_bytes: u64,
}

impl RecReport {
    /// The headline gate: checkpoints must strictly reduce recomputed work.
    pub fn checkpoint_savings(&self) -> bool {
        self.attempts_with_checkpoint < self.attempts_without_checkpoint
    }

    /// The sweep's tables: one row per leg, and the totals the savings gate
    /// compares.
    pub fn tables(&self) -> Vec<Table> {
        let mut legs = Table::new(
            "recovery",
            format!(
                "crash/recovery sweep — {} tenants on {} nodes",
                self.tenants, self.nodes
            ),
            vec![
                "crash at",
                "arm",
                "replayed",
                "stages resumed",
                "ckpt B",
                "attempts re-run",
                "post-GC disk B",
                "clock (ms)",
            ],
        );
        for leg in &self.legs {
            legs.row(vec![
                Cell::label(leg.crash_at.to_string()),
                Cell::label(leg.arm),
                Cell::Count(leg.replayed_tenants as u64),
                Cell::Count(leg.stages_recovered),
                Cell::Count(leg.checkpoint_bytes),
                Cell::Count(leg.recovered_attempts),
                Cell::Count(leg.post_gc_disk_bytes),
                Cell::ms(leg.clock_seconds),
            ]);
        }
        let mut totals = Table::new(
            "recovery totals",
            "crash/recovery totals — attempts re-run with checkpoints vs journal-only",
            vec![
                "oracle grants",
                "oracle attempts",
                "re-run (ckpt)",
                "re-run (plain)",
                "max post-GC disk B (compact)",
            ],
        );
        totals.row(vec![
            Cell::Count(self.oracle_grants as u64),
            Cell::Count(self.oracle_attempts),
            Cell::Count(self.attempts_with_checkpoint),
            Cell::Count(self.attempts_without_checkpoint),
            Cell::Count(self.post_gc_disk_bytes),
        ]);
        vec![legs, totals]
    }
}

/// The durability arms, crossed with every crash point. `plain` and `ckpt`
/// are the A/B axis (their attempt sums feed the savings gate); `compact`
/// layers `--compact-every 1` on the checkpointed arm.
const ARMS: &[(&str, bool, bool)] = &[
    ("ckpt", true, false),
    ("plain", false, false),
    ("compact", true, true),
];

/// The cluster-level fault plan and retry policy this config injects
/// (`repro --faults` / the CI fault matrix), or the fault-free defaults.
fn base_policy(cfg: &ExpConfig) -> (FaultPlan, RetryPolicy) {
    match &cfg.faults {
        Some((plan, policy)) => (plan.clone(), *policy),
        None => (FaultPlan::none(), RetryPolicy::default()),
    }
}

fn total_attempts(run: &ServerRun<TenantOutcome>) -> u64 {
    run.reports.iter().map(|t| t.stats.attempts).sum()
}

/// Total size of the regular files directly under `dir` (0 if absent).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Crash a journaled server at `crash_at`, restart it, and gate the leg
/// against the oracle. `(arm, checkpointed, compacted)` is one of [`ARMS`].
fn crash_and_recover(
    cfg: &ExpConfig,
    tenants: &[TenantSpec],
    oracle: &ServerRun<TenantOutcome>,
    crash_at: u64,
    (arm, checkpointed, compacted): (&'static str, bool, bool),
    scratch: &Path,
) -> RecLeg {
    let journal = scratch.join(format!("crash{crash_at}-{arm}.journal"));
    let ckpt_dir = checkpointed.then(|| scratch.join(format!("crash{crash_at}-{arm}-stages")));
    let compact_every = compacted.then_some(1);

    // Leg 1: the crash. Same base fault plan as the oracle plus the crash
    // clause, so per-task behavior up to the crash point is identical.
    let (plan, retry) = base_policy(cfg);
    let crash_cluster = Cluster::new(ClusterConfig::new(cfg.nodes))
        .with_fault_policy(plan.with_crash_after_grants(crash_at), retry);
    let opts = RecoveryOptions {
        journal: Some(journal.clone()),
        checkpoint_dir: ckpt_dir.clone(),
        recover: false,
        compact_every,
    };
    let crashed = run_queue(&crash_cluster, tenants, SchedPolicy::FairShare, &opts)
        .unwrap_or_else(|e| panic!("crash@{crash_at} {arm}: {e}"));
    assert!(crashed.crashed, "crash@{crash_at} {arm}: clause must fire");

    // Leg 2: the restart, on a fresh cluster without the crash clause.
    let opts = RecoveryOptions {
        journal: Some(journal.clone()),
        checkpoint_dir: ckpt_dir.clone(),
        recover: true,
        compact_every,
    };
    let recovered = run_queue(&cfg.cluster(), tenants, SchedPolicy::FairShare, &opts)
        .unwrap_or_else(|e| panic!("recover@{crash_at} {arm}: {e}"));
    assert!(!recovered.crashed, "recovery leg must run to completion");

    let prefix = &oracle.grants[..crash_at as usize];
    let prefix_ok = crashed.grants[..] == prefix[..] && recovered.journal_grants[..] == prefix[..];
    assert!(
        prefix_ok,
        "crash@{crash_at} {arm}: journaled grants must be the oracle prefix"
    );
    let checksums_ok =
        oracle
            .reports
            .iter()
            .zip(&recovered.reports)
            .all(|(a, b)| match (&a.result, &b.result) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            });
    assert!(
        checksums_ok,
        "crash@{crash_at} {arm}: recovered outcomes must match the oracle"
    );
    // Measured *before* the scratch dir is torn down: everything the run
    // left durable, i.e. what a long-lived server would actually keep.
    let post_gc_disk_bytes = file_bytes(&journal) + ckpt_dir.as_deref().map(dir_bytes).unwrap_or(0);

    RecLeg {
        crash_at,
        arm,
        checkpointed,
        compacted,
        prefix_ok,
        checksums_ok,
        replayed_tenants: recovered.reports.iter().filter(|t| t.recovered).count(),
        stages_recovered: recovered.stages_recovered,
        checkpoint_bytes: crashed.checkpoint_bytes,
        recovered_attempts: total_attempts(&recovered),
        post_gc_disk_bytes,
        clock_seconds: recovered.clock.as_secs_f64(),
    }
}

/// The `repro recovery` entry point. Runs the crash-point × durability-arm
/// sweep and asserts the write-ahead / equivalence / savings gates.
pub fn recovery_sweep(cfg: &ExpConfig) -> RecReport {
    let mut tenants = tenant_set(cfg, TENANTS);
    // The large head-of-line tenant runs the distributed-dedup variant: its
    // dedup shuffle is a *post-join* stage, so the late crash point can land
    // between a completed join and job completion — the only window where a
    // join-phase checkpoint is ever consulted (for every other algorithm the
    // join is the job's final quantum, and a finished join means a journaled
    // `done`).
    tenants[0].algorithm = Algorithm::LpibDedup;
    let oracle = run_queue(
        &cfg.cluster(),
        &tenants,
        SchedPolicy::FairShare,
        &RecoveryOptions::default(),
    )
    .unwrap_or_else(|e| panic!("oracle run: {e}"));
    let grants = oracle.grants.len() as u64;
    assert!(grants >= 3, "queue too small to place three crash points");

    // Three crash points: early (~1/3), mid (~2/3) and late (two grants shy
    // of done, where the most checkpointed work is at stake). Deduped in
    // case the quick-scale queue is tiny.
    let mut crash_points = vec![
        (grants / 3).max(1),
        (2 * grants / 3).max(1),
        grants.saturating_sub(2).max(1),
    ];
    crash_points.dedup();

    let scratch = std::env::temp_dir().join(format!("asj-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap_or_else(|e| panic!("scratch dir: {e}"));

    let mut legs: Vec<RecLeg> = Vec::new();
    for &crash_at in &crash_points {
        for &arm in ARMS {
            legs.push(crash_and_recover(
                cfg, &tenants, &oracle, crash_at, arm, &scratch,
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let attempts_with_checkpoint = legs
        .iter()
        .filter(|l| l.checkpointed && !l.compacted)
        .map(|l| l.recovered_attempts)
        .sum();
    let attempts_without_checkpoint = legs
        .iter()
        .filter(|l| !l.checkpointed)
        .map(|l| l.recovered_attempts)
        .sum();
    let post_gc_disk_bytes = legs
        .iter()
        .filter(|l| l.compacted)
        .map(|l| l.post_gc_disk_bytes)
        .max()
        .unwrap_or(0);

    let report = RecReport {
        nodes: cfg.nodes,
        tenants: tenants.len(),
        oracle_grants: oracle.grants.len(),
        oracle_attempts: total_attempts(&oracle),
        attempts_with_checkpoint,
        attempts_without_checkpoint,
        post_gc_disk_bytes,
        legs,
    };
    assert!(
        report.checkpoint_savings(),
        "checkpointed recovery re-ran {} attempts vs {} without — checkpoints must save work",
        report.attempts_with_checkpoint,
        report.attempts_without_checkpoint
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_sweep_runs_at_tiny_scale() {
        let cfg = ExpConfig::quick().with_base(4_000);
        let report = recovery_sweep(&cfg);

        // Three crash points, three arms each (dedup may shrink tiny queues).
        assert!(report.legs.len() >= 6 && report.legs.len().is_multiple_of(3));
        assert!(report.checkpoint_savings());
        for leg in &report.legs {
            assert!(leg.prefix_ok && leg.checksums_ok);
            assert!(
                leg.recovered_attempts <= report.oracle_attempts,
                "recovery must never exceed the full-recomputation baseline"
            );
            if !leg.checkpointed {
                assert_eq!(leg.stages_recovered, 0, "no checkpoints to resume");
            }
            // Retention GC ran on every journaled arm: a fully-recovered
            // queue keeps no stage checkpoints, so post-run disk is just
            // the journal (plus nothing).
            assert!(leg.post_gc_disk_bytes > 0, "the journal itself survives");
        }
        // The compact arm must not keep more disk than its uncompacted
        // sibling at the same crash point — compaction only ever drops
        // records.
        for group in report.legs.chunks(3) {
            let (ckpt, compact) = (&group[0], &group[2]);
            assert!(ckpt.checkpointed && !ckpt.compacted);
            assert!(compact.compacted);
            assert!(
                compact.post_gc_disk_bytes <= ckpt.post_gc_disk_bytes,
                "compaction must not grow durable state: {} vs {}",
                compact.post_gc_disk_bytes,
                ckpt.post_gc_disk_bytes
            );
        }
        // Early crash points may precede the first completed shuffle stage,
        // but by the late one the checkpoint arm must have persisted data.
        assert!(
            report
                .legs
                .iter()
                .any(|l| l.checkpointed && l.checkpoint_bytes > 0),
            "some checkpointed leg must persist stage data"
        );
        // The late crash point leaves completed tenants in the journal.
        assert!(
            report.legs.iter().any(|l| l.replayed_tenants > 0),
            "some leg must replay a journaled result"
        );
        // ...and the checkpointed late leg resumes persisted stages.
        assert!(
            report
                .legs
                .iter()
                .any(|l| l.checkpointed && l.stages_recovered > 0),
            "some checkpointed leg must resume stages"
        );

        // The tables: one row per leg, and one row of totals.
        let tables = report.tables();
        assert_eq!(tables[0].rows().len(), report.legs.len());
        assert_eq!(
            tables[1].rows()[0][2..4],
            [
                Cell::Count(report.attempts_with_checkpoint),
                Cell::Count(report.attempts_without_checkpoint)
            ]
        );
    }
}
