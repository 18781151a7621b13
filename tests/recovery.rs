//! Crash-recovery properties for the journaled job server: for ANY tenant
//! queue and ANY crash point, a server killed mid-queue by a `crash@N` fault
//! clause and restarted with `--recover` semantics must (a) have journaled
//! exactly the grant-log prefix the uncrashed oracle would have produced,
//! (b) serve every tenant a byte-identical outcome to the oracle, and
//! (c) never re-run a job whose result was already journaled.
//!
//! The crash mechanism is deterministic (the fault plan counts scheduler
//! grants, not wall time), so every case in the sweep is reproducible.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::engine::{
    encode_records_into, CheckpointStore, Cluster, ClusterConfig, FaultPlan, Journal, Recorder,
    RetryPolicy, SchedPolicy, ServerRun, ShuffleStats,
};
use adaptive_spatial_join::geom::{Point, Rect, Shape};
use adaptive_spatial_join::join::{
    adaptive_join_post_fetch, extent_join, to_records, Algorithm, ExtentRecord, JoinOutput,
    JoinSpec, Record,
};
use adaptive_spatial_join::serve::{run_queue, RecoveryOptions, TenantOutcome, TenantSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Fault plans tenants may carry *in addition to* the server-level crash:
/// recovery has to compose with ordinary retry/slowdown faults.
const FAULT_MENU: &[&str] = &["p=0.15", "p=0.1,slow:1=2.0"];

#[derive(Debug, Clone)]
struct GenTenant {
    algo_idx: usize,
    cardinality: usize,
    eps: f64,
    seed: u64,
    weight: u32,
    fault_idx: usize,
    fault_seed: u64,
}

/// The generated algorithm pool: the six figure algorithms plus the
/// distributed-dedup variant, whose *post-join* dedup stage is the only
/// workload shape where a crash can strand a completed join in an
/// in-flight job (the window join-phase checkpoints close).
const ALGO_POOL: [Algorithm; 7] = [
    Algorithm::Lpib,
    Algorithm::Diff,
    Algorithm::UniR,
    Algorithm::UniS,
    Algorithm::EpsGrid,
    Algorithm::Sedona,
    Algorithm::LpibDedup,
];

fn tenant_strategy() -> impl Strategy<Value = GenTenant> {
    (
        0usize..ALGO_POOL.len(),
        80usize..200,
        0.2f64..0.8,
        any::<u64>(),
        1u32..4,
        0usize..FAULT_MENU.len() + 1,
        any::<u64>(),
    )
        .prop_map(
            |(algo_idx, cardinality, eps, seed, weight, fault_idx, fault_seed)| GenTenant {
                algo_idx,
                cardinality,
                eps,
                seed,
                weight,
                fault_idx,
                fault_seed,
            },
        )
}

fn materialize(tenants: &[GenTenant]) -> Vec<TenantSpec> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut t = TenantSpec::new(format!("t{i}"), g.eps, g.cardinality);
            t.algorithm = ALGO_POOL[g.algo_idx];
            t.seed = g.seed;
            t.weight = g.weight;
            t.partitions = 6;
            // Index 0 is the fault-free arm; the rest draw from the menu.
            t.faults = g
                .fault_idx
                .checked_sub(1)
                .map(|i| FAULT_MENU[i].to_string());
            t.fault_seed = g.fault_seed;
            if t.faults.is_some() {
                t.max_attempts = Some(8);
            }
            t
        })
        .collect()
}

fn cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig::with_threads(nodes, 2))
}

/// The never-crashed, in-memory run every recovery is compared against.
fn oracle_run(nodes: usize, specs: &[TenantSpec]) -> ServerRun<TenantOutcome> {
    let in_memory = RecoveryOptions::default();
    run_queue(&cluster(nodes), specs, SchedPolicy::FairShare, &in_memory).expect("oracle run")
}

/// A per-case scratch directory for the journal and checkpoints. Proptest
/// cases within one test run sequentially, so a case counter keeps legs
/// from different cases apart while staying deterministic.
fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("asj-recovery-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline recovery property, swept across queues AND crash
    /// points: crash + recover == never crashed, byte for byte.
    #[test]
    fn any_crash_point_recovers_byte_identically(
        tenants in prop::collection::vec(tenant_strategy(), 2..4),
        nodes in 2usize..4,
        crash_pick in any::<u64>(),
        torn_tail in any::<bool>(),
        case in any::<u64>(),
    ) {
        let specs = materialize(&tenants);
        let oracle = oracle_run(nodes, &specs);
        prop_assert!(oracle.grants.len() >= 2, "queue too small to crash");

        // Any grant boundary strictly before the end is a valid crash point.
        let crash_at = 1 + crash_pick % (oracle.grants.len() as u64 - 1);
        let dir = scratch("sweep", case);
        let journal = dir.join("server.journal");

        let crash_cluster = cluster(nodes).with_fault_policy(
            FaultPlan::none().with_crash_after_grants(crash_at),
            RetryPolicy::default(),
        );
        let opts = RecoveryOptions {
            journal: Some(journal.clone()),
            checkpoint_dir: Some(dir.clone()),
            recover: false,
            compact_every: None,
        };
        let crashed =
            run_queue(&crash_cluster, &specs, SchedPolicy::FairShare, &opts)
                .expect("crashing run");
        prop_assert!(crashed.crashed, "crash clause must fire");
        // Write-ahead invariant: what reached the journal is exactly the
        // prefix of the oracle's grant log up to the crash point.
        prop_assert_eq!(
            &crashed.grants[..],
            &oracle.grants[..crash_at as usize],
            "crashed grant log must be an oracle prefix"
        );

        if torn_tail {
            // The server died mid-append: half a record trails the journal.
            let mut bytes = std::fs::read(&journal).expect("read journal");
            bytes.extend_from_slice(b"{\"type\":\"done\",\"job\":0,\"res");
            std::fs::write(&journal, &bytes).expect("tear journal");
        }

        let opts = RecoveryOptions {
            journal: Some(journal),
            checkpoint_dir: Some(dir.clone()),
            recover: true,
            compact_every: None,
        };
        let recovered =
            run_queue(&cluster(nodes), &specs, SchedPolicy::FairShare, &opts)
                .expect("recovered run");
        prop_assert!(!recovered.crashed);
        prop_assert_eq!(
            &recovered.journal_grants[..],
            &oracle.grants[..crash_at as usize],
            "recovery must preserve the journaled grant prefix"
        );
        for (a, b) in oracle.reports.iter().zip(&recovered.reports) {
            prop_assert_eq!(
                a.result.as_ref().expect("oracle ok"),
                b.result.as_ref().expect("recovered ok"),
                "tenant '{}' must recover byte-identically", a.name
            );
        }
        // A journaled result is replayed, never recomputed: every replayed
        // tenant reports zero stages run in the recovery leg.
        for report in &recovered.reports {
            if report.recovered {
                prop_assert_eq!(report.stages, 0, "replayed tenant re-ran stages");
                prop_assert_eq!(report.stats.attempts, 0, "replayed tenant re-ran tasks");
            }
        }

        // Recovering again reads the journal the first recovery appended to
        // (torn tail cut, `recover` marker on a line of its own): its era's
        // grant log is what that run granted, and every result replays.
        let again = run_queue(&cluster(nodes), &specs, SchedPolicy::FairShare, &opts)
            .expect("second recovery");
        prop_assert_eq!(&again.journal_grants, &recovered.grants);
        for (a, b) in oracle.reports.iter().zip(&again.reports) {
            prop_assert!(b.recovered, "tenant '{}' must replay from the journal", a.name);
            prop_assert_eq!(a.result.as_ref().expect("oracle ok"), b.result.as_ref().expect("ok"));
        }

        let _ = std::fs::remove_dir_all(dir);
    }

    /// Compaction transparency, swept across queues, crash points and
    /// crash-during-maintenance debris: recovering from a *compacted*
    /// journal must be indistinguishable from recovering from the
    /// uncompacted original — identical journaled grant prefix, identical
    /// byte-for-byte outcomes — even when the compaction finds the wreckage
    /// of a crash that hit mid-GC (a checkpoint's segment unlinked but its
    /// manifest still present) or mid-compaction (a stale rewrite temp
    /// file).
    #[test]
    fn compaction_is_transparent_to_recovery(
        tenants in prop::collection::vec(tenant_strategy(), 2..4),
        nodes in 2usize..4,
        crash_pick in any::<u64>(),
        crash_mid_gc in any::<bool>(),
        crash_mid_compaction in any::<bool>(),
        case in any::<u64>(),
    ) {
        let specs = materialize(&tenants);
        let oracle = oracle_run(nodes, &specs);
        prop_assert!(oracle.grants.len() >= 2, "queue too small to crash");
        let crash_at = 1 + crash_pick % (oracle.grants.len() as u64 - 1);

        // One crash leg produces the durable state both recoveries start
        // from; the copy is taken before either recovery mutates anything.
        let dir_a = scratch("compact-a", case);
        let journal_a = dir_a.join("server.journal");
        let crash_cluster = cluster(nodes).with_fault_policy(
            FaultPlan::none().with_crash_after_grants(crash_at),
            RetryPolicy::default(),
        );
        let crashed = run_queue(
            &crash_cluster,
            &specs,
            SchedPolicy::FairShare,
            &RecoveryOptions {
                journal: Some(journal_a.clone()),
                checkpoint_dir: Some(dir_a.clone()),
                recover: false,
                compact_every: None,
            },
        )
        .expect("crashing run");
        prop_assert!(crashed.crashed, "crash clause must fire");

        let dir_b = scratch("compact-b", case);
        copy_dir_files(&dir_a, &dir_b);
        let journal_b = dir_b.join("server.journal");

        // Simulate a crash *during* retention GC: the delete order is
        // segment first, so the worst interleaving leaves a manifest whose
        // segment is gone. Recovery must self-heal it into a miss.
        if crash_mid_gc {
            let seg = std::fs::read_dir(&dir_b)
                .expect("read dir_b")
                .flatten()
                .map(|e| e.path())
                .find(|p| p.extension().is_some_and(|e| e == "seg"));
            if let Some(seg) = seg {
                std::fs::remove_file(seg).expect("unlink seg");
            }
        }
        // Simulate a crash *during* a previous compaction attempt: the
        // atomic rewrite never renamed, leaving only its temp file, which
        // the next compaction (and recovery) must ignore and replace.
        if crash_mid_compaction {
            std::fs::write(
                journal_b.with_extension("compact.tmp"),
                b"{\"type\":\"torn",
            )
            .expect("write tmp debris");
        }
        let stats = Journal::compact_file(&journal_b).expect("compact crashed journal");
        // A crashed journal may have nothing droppable (no done records
        // yet), in which case the only growth allowed is the compact
        // marker line itself.
        prop_assert!(
            stats.dropped > 0 || stats.bytes_after <= stats.bytes_before + 128,
            "compaction dropped nothing yet grew {} -> {} bytes",
            stats.bytes_before, stats.bytes_after
        );
        prop_assert!(
            !journal_b.with_extension("compact.tmp").exists(),
            "compaction leaves no temp debris"
        );

        // Recover both: A from the untouched original, B from the
        // compacted (and possibly debris-ridden) copy.
        let recover = |journal: PathBuf, dir: PathBuf| {
            run_queue(
                &cluster(nodes),
                &specs,
                SchedPolicy::FairShare,
                &RecoveryOptions {
                    journal: Some(journal),
                    checkpoint_dir: Some(dir),
                    recover: true,
                    compact_every: None,
                },
            )
            .expect("recovered run")
        };
        let rec_a = recover(journal_a, dir_a.clone());
        let rec_b = recover(journal_b, dir_b.clone());
        prop_assert!(!rec_a.crashed && !rec_b.crashed);

        // Identical grant-log prefix — the compacted journal must read as
        // the same era the uncompacted one ends in.
        prop_assert_eq!(
            &rec_a.journal_grants[..],
            &oracle.grants[..crash_at as usize],
            "uncompacted recovery must see the oracle prefix"
        );
        prop_assert_eq!(
            &rec_b.journal_grants[..],
            &rec_a.journal_grants[..],
            "compaction must preserve the journaled grant prefix"
        );
        // Byte-identical outcomes, both ways.
        for (a, b) in rec_a.reports.iter().zip(&rec_b.reports) {
            prop_assert_eq!(
                a.result.as_ref().expect("uncompacted ok"),
                b.result.as_ref().expect("compacted ok"),
                "tenant '{}' must recover identically through compaction", a.name
            );
        }
        for (o, b) in oracle.reports.iter().zip(&rec_b.reports) {
            prop_assert_eq!(
                o.result.as_ref().expect("oracle ok"),
                b.result.as_ref().expect("compacted ok"),
                "tenant '{}' must match the oracle", o.name
            );
        }
        // Tenants replayed from the journal must match too — compaction
        // hoists done records, it never drops them.
        let replayed_a: Vec<bool> = rec_a.reports.iter().map(|t| t.recovered).collect();
        let replayed_b: Vec<bool> = rec_b.reports.iter().map(|t| t.recovered).collect();
        prop_assert_eq!(replayed_a, replayed_b);

        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }
}

/// Copies every regular file directly under `src` into `dst` (the journal
/// plus the checkpoint manifests/segments — exactly what a crashed server
/// leaves durable).
fn copy_dir_files(src: &Path, dst: &Path) {
    for entry in std::fs::read_dir(src).expect("read src").flatten() {
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, dst.join(entry.file_name())).expect("copy file");
        }
    }
}

/// The anchor queue, its uncrashed oracle, and the scratch dir (journal +
/// checkpoints) a server killed two grants shy of completion left behind:
/// at least one tenant has checkpointed stages, at least one is unfinished.
fn late_crash(tag: &str) -> (Vec<TenantSpec>, ServerRun<TenantOutcome>, PathBuf) {
    let mut specs = materialize(&[
        GenTenant {
            algo_idx: 0,
            cardinality: 400,
            eps: 0.5,
            seed: 11,
            weight: 1,
            fault_idx: 0,
            fault_seed: 0,
        },
        GenTenant {
            algo_idx: 2,
            cardinality: 300,
            eps: 0.4,
            seed: 23,
            weight: 2,
            fault_idx: 0,
            fault_seed: 0,
        },
    ]);
    specs[0].partitions = 8;
    let oracle = oracle_run(3, &specs);

    let crash_at = (oracle.grants.len() as u64).saturating_sub(2).max(1);
    let dir = scratch(tag, 0);
    let crash_cluster = cluster(3).with_fault_policy(
        FaultPlan::none().with_crash_after_grants(crash_at),
        RetryPolicy::default(),
    );
    let crashed = run_queue(
        &crash_cluster,
        &specs,
        SchedPolicy::FairShare,
        &RecoveryOptions {
            journal: Some(dir.join("server.journal")),
            checkpoint_dir: Some(dir.clone()),
            recover: false,
            compact_every: None,
        },
    )
    .expect("crashing run");
    assert!(crashed.crashed);
    assert!(
        crashed.checkpoint_bytes > 0,
        "late crash must have checkpointed"
    );
    (specs, oracle, dir)
}

/// Restarts the server on what [`late_crash`] left in `dir` and checks the
/// recovery leg reuses checkpoints and serves the oracle's outcomes.
fn recover_late_crash(
    specs: &[TenantSpec],
    oracle: &ServerRun<TenantOutcome>,
    dir: &Path,
) -> ServerRun<TenantOutcome> {
    let recovered = run_queue(
        &cluster(3),
        specs,
        SchedPolicy::FairShare,
        &RecoveryOptions {
            journal: Some(dir.join("server.journal")),
            checkpoint_dir: Some(dir.to_path_buf()),
            recover: true,
            compact_every: None,
        },
    )
    .expect("recovered run");
    assert!(
        recovered.stages_recovered > 0,
        "recovery must reuse checkpoints"
    );
    for (a, b) in oracle.reports.iter().zip(&recovered.reports) {
        assert_eq!(
            a.result.as_ref().expect("oracle ok"),
            b.result.as_ref().expect("recovered ok"),
            "tenant '{}' must recover byte-identically",
            a.name
        );
    }
    recovered
}

/// Deterministic anchor alongside the sweep: crash late enough that the
/// recovery leg demonstrably reuses checkpoints (`stages_recovered > 0`)
/// rather than merely replaying journaled results.
#[test]
fn late_crash_resumes_from_checkpoints() {
    let (specs, oracle, dir) = late_crash("anchor");
    let recovered = recover_late_crash(&specs, &oracle, &dir);
    // Checkpoint reuse is the whole point: the recovery leg re-runs strictly
    // fewer tasks than the oracle needed for the full queue.
    let oracle_attempts: u64 = oracle.reports.iter().map(|t| t.stats.attempts).sum();
    let recovered_attempts: u64 = recovered.reports.iter().map(|t| t.stats.attempts).sum();
    assert!(
        recovered_attempts < oracle_attempts,
        "recovery re-ran {recovered_attempts} of {oracle_attempts} oracle attempts"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// An older binary also wrote partition-granular `KEY-pN` join records and
/// `KEY-shuffle` stats records. No stage key of this binary ever names one,
/// so a checkpoint dir still holding them recovers exactly like one without
/// — and once a job's `done` is durable, retention GC (a prefix sweep over
/// the job's scope) reclaims them with the rest.
#[test]
fn stale_partition_records_are_ignored_then_collected() {
    let (specs, oracle, dir) = late_crash("stale");
    let stale = |job: usize| {
        [
            format!("job{job}-cogroup_join-0-p3.manifest"),
            format!("job{job}-cogroup_join-0-p3.seg"),
            format!("job{job}-cogroup_join-0-shuffle.manifest"),
        ]
    };
    let store = CheckpointStore::open(&dir).expect("open crashed checkpoint dir");
    for job in 0..specs.len() {
        let keyed = |p: &Vec<(u64, u64)>, buf: &mut Vec<u8>| encode_records_into(p, buf);
        let stats = |partition_bytes| ShuffleStats {
            records: 5,
            partition_bytes,
            ..ShuffleStats::default()
        };
        store
            .save(
                &format!("job{job}-cogroup_join-0-p3"),
                &[vec![(1u64, 2u64)]],
                &stats(vec![16]),
                1,
                keyed,
            )
            .expect("plant partition record");
        store
            .save(
                &format!("job{job}-cogroup_join-0-shuffle"),
                &[],
                &stats(Vec::new()),
                1,
                keyed,
            )
            .expect("plant stats record");
        assert!(stale(job).iter().all(|f| dir.join(f).exists()));
    }
    drop(store);

    let recovered = recover_late_crash(&specs, &oracle, &dir);
    // Every job that finished in the recovery leg had its scope collected.
    let finished_now: Vec<usize> = (0..specs.len())
        .filter(|&job| !recovered.reports[job].recovered)
        .collect();
    assert!(!finished_now.is_empty(), "the crash left a job unfinished");
    for job in finished_now {
        for file in stale(job) {
            assert!(!dir.join(&file).exists(), "{file} must be reclaimed");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A server that does not recover never reads a checkpoint it did not
/// write. Checkpoint keys are `job<id>-<stage>-<n>`, so a different queue
/// run fresh over a crashed run's directory would otherwise replay the
/// crashed run's stages as its own and report their results.
#[test]
fn a_fresh_run_ignores_another_queues_checkpoints() {
    let (mut specs, _, dir) = late_crash("fresh");
    // Queue B: queue A with every tenant's inputs changed.
    for spec in &mut specs {
        spec.seed += 1_000;
    }
    let oracle = oracle_run(3, &specs);
    let fresh = run_queue(
        &cluster(3),
        &specs,
        SchedPolicy::FairShare,
        &RecoveryOptions {
            journal: Some(dir.join("fresh.journal")),
            checkpoint_dir: Some(dir.clone()),
            recover: false,
            compact_every: None,
        },
    )
    .expect("fresh run");
    assert_eq!(fresh.stages_recovered, 0, "nothing of queue A is replayed");
    for (a, b) in oracle.reports.iter().zip(&fresh.reports) {
        assert_eq!(
            a.result.as_ref().expect("oracle ok"),
            b.result.as_ref().expect("fresh ok"),
            "tenant '{}' must get queue B's answer",
            a.name
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The extent join and post-fetch run their join phase through the shared,
/// checkpointable `cogroup_join` stage: a second run over the same checkpoint
/// directory replays every one of those stages — the extent join's one; the
/// spatial join's and both id-joins' for post-fetch — and returns the same
/// pairs and counts.
#[test]
fn extent_and_post_fetch_resume_their_join_phase() {
    let cloud = |seed: u64| -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..300)
            .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
            .collect()
    };
    let (r, s) = (to_records(&cloud(1), 16), to_records(&cloud(2), 16));
    let shapes = |recs: &[Record]| -> Vec<ExtentRecord> {
        let shape = |rec: &Record| ExtentRecord::new(rec.id, Shape::Point(rec.point));
        recs.iter().map(shape).collect()
    };
    let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.8)
        .with_partitions(8)
        .with_sample_fraction(0.4);
    let lpib = AgreementPolicy::Lpib;
    type Run<'a> = Box<dyn Fn(&Cluster) -> JoinOutput + 'a>;
    let joins: [(&str, u64, Run); 2] = [
        (
            "extent",
            1,
            Box::new(|c| extent_join(c, &spec, shapes(&r), shapes(&s)).expect("join runs")),
        ),
        (
            "post-fetch",
            3,
            Box::new(|c| {
                adaptive_join_post_fetch(c, &spec, lpib, r.clone(), s.clone()).expect("join runs")
            }),
        ),
    ];
    for (tag, join_stages, run) in &joins {
        let dir = scratch(&format!("join-phase-{tag}"), 0);
        // A fresh handle per run, as a restarted process would open the dir.
        let run_once = || {
            let recorder = Recorder::for_nodes(3);
            let cluster = cluster(3)
                .with_recorder(recorder.clone())
                .with_checkpoint_dir(&dir)
                .expect("open checkpoint dir");
            let out = run(&cluster);
            (
                out,
                recorder.counter_value("cogroup_join", "stages_recovered"),
            )
        };
        let (first, recovered) = run_once();
        assert_eq!(recovered, None, "{tag}: a fresh directory replays nothing");
        let (second, recovered) = run_once();
        assert_eq!(recovered, Some(*join_stages), "{tag}: join phase replayed");
        assert_eq!(second.pairs, first.pairs, "{tag}");
        assert_eq!(second.result_count, first.result_count, "{tag}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
