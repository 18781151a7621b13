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
//!   from persisted shuffle *and join* stages must beat recomputing them,
//! * **bounded disk** — after the recovery leg finishes, retention GC has
//!   collected every finished job's checkpoints and (on the compact arm)
//!   journal compaction has dropped the dead records, so checkpoint-dir
//!   bytes + journal bytes stay under the bound committed in
//!   `results/BENCH_recovery.baseline.json` (gated only when the run matches
//!   the baseline's scale).
//!
//! Results land in `BENCH_recovery.json` for the CI `recovery-matrix` job;
//! override the path with `ASJ_BENCH_RECOVERY_OUT` and the committed
//! baseline with `ASJ_BENCH_RECOVERY_BASELINE`.

use crate::multitenant::tenant_set;
use crate::{ExpConfig, Table};
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

/// The sweep's full result set (also serialized to JSON).
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
    /// The committed disk bound this run was gated against, when the
    /// baseline matches this run's scale.
    pub disk_bound_bytes: Option<u64>,
    /// Post-GC disk stayed under the committed bound (vacuously true when
    /// no matching baseline bound exists).
    pub disk_bounded: bool,
    /// `attempts_with_checkpoint` did not regress past the committed
    /// baseline's (vacuously true without a matching baseline).
    pub attempts_within_baseline: bool,
}

impl RecReport {
    /// The headline gate: checkpoints must strictly reduce recomputed work.
    pub fn checkpoint_savings(&self) -> bool {
        self.attempts_with_checkpoint < self.attempts_without_checkpoint
    }
}

/// The durability arms, crossed with every crash point. `plain` and `ckpt`
/// are the pre-compaction A/B axis (their attempt sums feed the savings
/// gate, keeping the metric comparable across baselines); `compact` layers
/// `--compact-every 1` on the checkpointed arm and feeds the disk gate.
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
/// against the oracle. `(checkpointed, compacted)` selects the arm.
#[allow(clippy::too_many_arguments)]
fn crash_and_recover(
    cfg: &ExpConfig,
    tenants: &[TenantSpec],
    oracle: &ServerRun<TenantOutcome>,
    crash_at: u64,
    arm: &str,
    checkpointed: bool,
    compacted: bool,
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

/// Extracts the integer value of `"key"` from hand-rolled flat JSON. Enough
/// for the committed baseline file — no nesting, no string escapes near the
/// scanned keys.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let idx = text.find(&format!("\"{key}\""))?;
    let rest = &text[idx..];
    let colon = rest.find(':')?;
    let digits: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The committed baseline's gating fields, when the file exists.
struct Baseline {
    nodes: u64,
    tenants: u64,
    attempts_with_checkpoint: Option<u64>,
    disk_bound_bytes: Option<u64>,
}

fn read_baseline() -> Option<Baseline> {
    let path = std::env::var("ASJ_BENCH_RECOVERY_BASELINE")
        .unwrap_or_else(|_| "results/BENCH_recovery.baseline.json".to_string());
    let text = std::fs::read_to_string(path).ok()?;
    Some(Baseline {
        nodes: json_u64(&text, "nodes")?,
        tenants: json_u64(&text, "tenants")?,
        attempts_with_checkpoint: json_u64(&text, "attempts_with_checkpoint"),
        disk_bound_bytes: json_u64(&text, "disk_bound_bytes"),
    })
}

fn json_leg(leg: &RecLeg) -> String {
    format!(
        concat!(
            "{{\"crash_at\":{},\"checkpointed\":{},\"compacted\":{},",
            "\"prefix_ok\":{},",
            "\"checksums_ok\":{},\"replayed_tenants\":{},",
            "\"stages_recovered\":{},\"checkpoint_bytes\":{},",
            "\"recovered_attempts\":{},\"post_gc_disk_bytes\":{},",
            "\"clock_seconds\":{:.6}}}"
        ),
        leg.crash_at,
        leg.checkpointed,
        leg.compacted,
        leg.prefix_ok,
        leg.checksums_ok,
        leg.replayed_tenants,
        leg.stages_recovered,
        leg.checkpoint_bytes,
        leg.recovered_attempts,
        leg.post_gc_disk_bytes,
        leg.clock_seconds,
    )
}

/// Hand-rolled JSON, same conventions as the other `BENCH_*.json` files.
fn render_json(rep: &RecReport) -> String {
    let legs: Vec<String> = rep.legs.iter().map(json_leg).collect();
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"recovery\",\n",
            "  \"nodes\": {},\n",
            "  \"tenants\": {},\n",
            "  \"oracle_grants\": {},\n",
            "  \"oracle_attempts\": {},\n",
            "  \"attempts_with_checkpoint\": {},\n",
            "  \"attempts_without_checkpoint\": {},\n",
            "  \"checkpoint_savings\": {},\n",
            "  \"post_gc_disk_bytes\": {},\n",
            "  \"disk_bound_bytes\": {},\n",
            "  \"disk_bounded\": {},\n",
            "  \"attempts_within_baseline\": {},\n",
            "  \"legs\": [{}]\n",
            "}}\n"
        ),
        rep.nodes,
        rep.tenants,
        rep.oracle_grants,
        rep.oracle_attempts,
        rep.attempts_with_checkpoint,
        rep.attempts_without_checkpoint,
        rep.checkpoint_savings(),
        rep.post_gc_disk_bytes,
        rep.disk_bound_bytes
            .map_or_else(|| "null".to_string(), |b| b.to_string()),
        rep.disk_bounded,
        rep.attempts_within_baseline,
        legs.join(","),
    )
}

/// The `repro recovery` entry point. Runs the crash-point × durability-arm
/// sweep, asserts the write-ahead / equivalence / savings / bounded-disk
/// gates, prints the comparison table and writes `BENCH_recovery.json`.
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
        for &(arm, checkpointed, compacted) in ARMS {
            legs.push(crash_and_recover(
                cfg,
                &tenants,
                &oracle,
                crash_at,
                arm,
                checkpointed,
                compacted,
                &scratch,
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

    // Baseline gates apply only at the committed scale: a --quick run (or a
    // --nodes override) measures a different queue and would gate noise.
    let baseline = read_baseline()
        .filter(|b| b.nodes == cfg.nodes as u64 && b.tenants == tenants.len() as u64);
    let disk_bound_bytes = baseline.as_ref().and_then(|b| b.disk_bound_bytes);
    let disk_bounded = disk_bound_bytes.is_none_or(|bound| post_gc_disk_bytes <= bound);
    let attempts_within_baseline = baseline
        .as_ref()
        .and_then(|b| b.attempts_with_checkpoint)
        .is_none_or(|base| attempts_with_checkpoint <= base);

    let report = RecReport {
        nodes: cfg.nodes,
        tenants: tenants.len(),
        oracle_grants: oracle.grants.len(),
        oracle_attempts: total_attempts(&oracle),
        attempts_with_checkpoint,
        attempts_without_checkpoint,
        post_gc_disk_bytes,
        disk_bound_bytes,
        disk_bounded,
        attempts_within_baseline,
        legs,
    };
    assert!(
        report.checkpoint_savings(),
        "checkpointed recovery re-ran {} attempts vs {} without — checkpoints must save work",
        report.attempts_with_checkpoint,
        report.attempts_without_checkpoint
    );
    assert!(
        report.disk_bounded,
        "post-GC disk {} bytes exceeds the committed bound {:?}",
        report.post_gc_disk_bytes, report.disk_bound_bytes
    );
    assert!(
        report.attempts_within_baseline,
        "checkpointed recovery attempts {} regressed past the committed baseline",
        report.attempts_with_checkpoint
    );

    let mut table = Table::new(vec![
        "crash at",
        "arm",
        "replayed",
        "stages resumed",
        "ckpt KiB",
        "attempts re-run",
        "post-GC disk B",
        "clock (ms)",
    ]);
    for leg in &report.legs {
        let arm = match (leg.checkpointed, leg.compacted) {
            (true, true) => "compact",
            (true, false) => "ckpt",
            (false, _) => "plain",
        };
        table.row(vec![
            leg.crash_at.to_string(),
            arm.to_string(),
            leg.replayed_tenants.to_string(),
            leg.stages_recovered.to_string(),
            (leg.checkpoint_bytes / 1024).to_string(),
            leg.recovered_attempts.to_string(),
            leg.post_gc_disk_bytes.to_string(),
            format!("{:.2}", leg.clock_seconds * 1e3),
        ]);
    }
    table.print(&format!(
        "crash/recovery sweep — {} tenants on {} nodes, oracle = {} grants / {} attempts",
        report.tenants, report.nodes, report.oracle_grants, report.oracle_attempts
    ));
    println!(
        "checkpointed recovery re-ran {} attempts vs {} journal-only \
         ({} in the full oracle); post-GC disk {} bytes (bound: {})",
        report.attempts_with_checkpoint,
        report.attempts_without_checkpoint,
        report.oracle_attempts,
        report.post_gc_disk_bytes,
        report
            .disk_bound_bytes
            .map_or_else(|| "unset".to_string(), |b| b.to_string()),
    );

    let out = std::env::var("ASJ_BENCH_RECOVERY_OUT")
        .unwrap_or_else(|_| "BENCH_recovery.json".to_string());
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
    fn recovery_sweep_runs_at_tiny_scale() {
        let cfg = ExpConfig::quick().with_base(4_000);
        let dir = std::env::temp_dir().join("asj-recovery-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = dir.join("BENCH_recovery.json");
        std::env::set_var("ASJ_BENCH_RECOVERY_OUT", &out);
        let report = recovery_sweep(&cfg);
        std::env::remove_var("ASJ_BENCH_RECOVERY_OUT");

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

        let json = std::fs::read_to_string(&out).expect("json written");
        assert!(json.contains("\"experiment\": \"recovery\""));
        assert!(json.contains("\"checkpoint_savings\": true"));
        assert!(json.contains("\"disk_bounded\": true"));
        assert!(json.contains("\"prefix_ok\":true"));
        assert!(!json.contains("\"prefix_ok\":false"));
        assert!(!json.contains("\"checksums_ok\":false"));
    }

    #[test]
    fn baseline_json_scan_reads_flat_keys() {
        let text = "{\n  \"nodes\": 12,\n  \"disk_bound_bytes\": 4096,\n  \"x\": true\n}";
        assert_eq!(json_u64(text, "nodes"), Some(12));
        assert_eq!(json_u64(text, "disk_bound_bytes"), Some(4096));
        assert_eq!(json_u64(text, "missing"), None);
        assert_eq!(json_u64(text, "x"), None, "non-numeric value is None");
    }
}
