//! End-to-end fault-tolerance: a seeded, deterministic [`FaultPlan`] —
//! random task failures, slowed nodes (stragglers), whole lost nodes —
//! must be *recovery-transparent*: the ε-join under chaos produces exactly
//! the result set, counters and shuffle accounting of the fault-free run,
//! while `ExecStats` records the extra attempts, and the trace shows every
//! failed attempt as a span on its node's lane.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::engine::{FaultContext, Lane};
use adaptive_spatial_join::geom::{Point, Rect, Shape};
use adaptive_spatial_join::join::{
    adaptive_join, adaptive_join_post_fetch, brute_force_extent_pairs, oracle, to_records,
    JoinSpec, LocalKernel, Record,
};
use adaptive_spatial_join::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn clouds(seed: u64, n: usize) -> (Vec<Record>, Vec<Record>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cloud = |rng: &mut StdRng| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
            .collect()
    };
    let r = cloud(&mut rng);
    let s = cloud(&mut rng);
    (to_records(&r, 0), to_records(&s, 0))
}

/// Point-shaped extent records with the points' ids.
fn point_extents(recs: &[Record]) -> Vec<ExtentRecord> {
    let shape = |rec: &Record| ExtentRecord::new(rec.id, Shape::Point(rec.point));
    recs.iter().map(shape).collect()
}

fn spec() -> JoinSpec {
    JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.7)
        .with_partitions(12)
        .with_sample_fraction(0.4)
}

/// Joins under `faults` and asserts output equality against a fault-free
/// run; returns the faulted run's combined exec stats.
fn assert_recovery_transparent(
    faults: FaultPlan,
    policy: RetryPolicy,
    nodes: usize,
    seed: u64,
) -> ExecStats {
    let (r, s) = clouds(seed, 400);
    let spec = spec();
    let clean = Cluster::new(ClusterConfig::with_threads(nodes, 3));
    let chaotic = clean.clone().with_fault_policy(faults, policy);
    let base = adaptive_join(&clean, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
        .expect("join runs");
    let recovered = adaptive_join(&chaotic, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");

    // Byte-identical results: same pairs in the same order, same counters.
    assert_eq!(recovered.pairs, base.pairs);
    assert_eq!(recovered.result_count, base.result_count);
    assert_eq!(recovered.candidates, base.candidates);
    assert_eq!(recovered.replicated, base.replicated);
    // Identical shuffle accounting, and the remote/local split covers it.
    assert_eq!(
        recovered.metrics.shuffle.remote_bytes,
        base.metrics.shuffle.remote_bytes
    );
    assert_eq!(
        recovered.metrics.shuffle.local_bytes,
        base.metrics.shuffle.local_bytes
    );
    assert_eq!(
        recovered.metrics.shuffle.remote_bytes + recovered.metrics.shuffle.local_bytes,
        recovered.metrics.shuffle.total_bytes()
    );
    assert_eq!(
        recovered.metrics.shuffle.records,
        base.metrics.shuffle.records
    );

    let mut exec = ExecStats::default();
    exec.accumulate(&recovered.metrics.construction);
    exec.accumulate(&recovered.metrics.join);
    exec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seeded fault plan — random failure rate, a straggler node, a
    /// stage-targeted failure spike — recovers to the exact fault-free
    /// output.
    #[test]
    fn seeded_fault_plans_are_recovery_transparent(
        fault_seed in 0u64..1_000,
        data_seed in 0u64..1_000,
        fail_prob in 0.0f64..0.25,
        slow_node in 0usize..4,
        slow_mult in 1.0f64..3.0,
    ) {
        let plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_fail_prob(fail_prob)
            .with_slow_node(slow_node, slow_mult)
            .with_stage_fail_prob("cogroup_join", (fail_prob * 1.5).min(0.3));
        let exec = assert_recovery_transparent(
            plan,
            RetryPolicy::default().with_max_attempts(12),
            4,
            data_seed,
        );
        prop_assert!(exec.attempts >= exec.retries);
        prop_assert_eq!(exec.retries, exec.failed_attempts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Nothing observable depends on the schedule: for any input, fault plan
    /// and memory budget, running the same join on 1, 2 or 8 host threads
    /// gives the same pairs in the same order, the same shuffle accounting
    /// and the same attempt, retry and blacklist counts — and the pairs are
    /// the brute-force ε-join. (Injection is keyed by (stage, task, attempt),
    /// retries are placed by (task, attempt), and node loss and blacklisting
    /// change only between stages, so recovery is the same however tasks
    /// interleave; which buckets spill under a budget does vary with the
    /// interleaving and must not show.)
    #[test]
    fn results_are_independent_of_the_thread_count(
        data_seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        fail_prob in 0.0f64..0.2,
        fail_task in 0usize..12,
        oom_task in 0usize..12,
        lost_node in 0usize..4,
        lost_after in 0u64..40,
        // 0 means unbudgeted.
        budget_kib in 0u64..48,
        kernel_idx in 0usize..3,
    ) {
        // A drawn kernel, not `Auto`: pair order within a cell follows the
        // kernel, and `Auto` picks per cell group from committed constants,
        // so it would not vary with the thread count either, but it would
        // put only the kernels it picks for these small cells to the test.
        let kernel = [
            LocalKernel::NestedLoop,
            LocalKernel::PlaneSweep,
            LocalKernel::GridBucket,
        ][kernel_idx];
        let (r, s) = clouds(data_seed, 300);
        let spec = spec().with_kernel(kernel);
        let plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_fail_prob(fail_prob)
            .with_fail_point("cogroup_join", fail_task, 1)
            .with_oom_point("shuffle.R", oom_task, 1)
            .with_lost_node(lost_node, lost_after);
        let run = |threads: usize| {
            let mut cluster = Cluster::new(ClusterConfig::with_threads(4, threads))
                .with_fault_policy(plan.clone(), RetryPolicy::default().with_max_attempts(12));
            if budget_kib > 0 {
                cluster = cluster.with_memory_budget(budget_kib * 1024);
            }
            adaptive_join(&cluster, &spec, AgreementPolicy::Lpib, r.clone(), s.clone()).expect("join runs")
        };
        let base = run(1);
        let mut sorted = base.pairs.to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, oracle::brute_force_pairs(&r, &s, spec.eps));
        for threads in [2, 8] {
            let out = run(threads);
            prop_assert_eq!(&out.pairs, &base.pairs, "{} threads", threads);
            prop_assert_eq!(&out.metrics.shuffle, &base.metrics.shuffle);
            for (a, b) in [
                (&out.metrics.construction, &base.metrics.construction),
                (&out.metrics.join, &base.metrics.join),
            ] {
                prop_assert_eq!(a.attempts, b.attempts, "{} threads", threads);
                prop_assert_eq!(a.retries, b.retries, "{} threads", threads);
                prop_assert_eq!(a.blacklisted_nodes, b.blacklisted_nodes, "{} threads", threads);
            }
        }
    }
}

#[test]
fn chaos_with_node_loss_and_stragglers_recovers_exactly() {
    // The standard chaos plan: p=0.03 everywhere, node 1 runs 3x slower,
    // node 2 is lost outright after its fifth attempt starts.
    let exec = assert_recovery_transparent(
        FaultPlan::chaos(7),
        RetryPolicy::default().with_max_attempts(10),
        5,
        99,
    );
    // The recovery actually happened: more attempts than a clean run, and
    // the attempts the plan killed are on the books.
    assert!(exec.attempts > 0);
    assert!(
        exec.failed_attempts > 0,
        "chaos(7) must inject at least one failure across the pipeline"
    );
    assert_eq!(exec.retries, exec.failed_attempts);
}

#[test]
fn speculation_under_chaos_stays_transparent() {
    let policy = RetryPolicy::default()
        .with_max_attempts(10)
        .with_speculation(true);
    let exec = assert_recovery_transparent(FaultPlan::chaos(13), policy, 5, 100);
    assert!(exec.attempts > 0);
    assert!(exec.speculative_wins > 0, "slow node 1's tasks race copies");
    // The plan decides every race: one host thread starts the same attempts
    // and the same copies win as on three.
    let (r, s) = clouds(100, 400);
    let one = Cluster::new(ClusterConfig::with_threads(5, 1))
        .with_fault_policy(FaultPlan::chaos(13), policy);
    let out = adaptive_join(&one, &spec(), AgreementPolicy::Lpib, r, s).expect("join runs");
    let mut single = ExecStats::default();
    single.accumulate(&out.metrics.construction);
    single.accumulate(&out.metrics.join);
    let counts = |e: &ExecStats| (e.attempts, e.speculative_wins, e.retries);
    assert_eq!(counts(&single), counts(&exec));
}

#[test]
fn failed_attempts_appear_as_spans_on_node_lanes() {
    let (r, s) = clouds(5, 300);
    let spec = spec();
    // Deterministically kill the first attempt of two local-join tasks
    // (the stage label of the cogroup executor under the "local_join"
    // trace phase).
    let plan = FaultPlan::none()
        .with_seed(3)
        .with_fail_point("cogroup_join", 0, 1)
        .with_fail_point("cogroup_join", 3, 1);
    let recorder = Recorder::for_nodes(4);
    let cluster = Cluster::new(ClusterConfig::with_threads(4, 2))
        .with_recorder(recorder.clone())
        .with_faults(plan);
    let out = adaptive_join(&cluster, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
    let trace = recorder.snapshot();

    let failed: Vec<_> = trace
        .spans
        .iter()
        .filter(|sp| sp.stage.ends_with("!failed"))
        .collect();
    assert_eq!(failed.len(), 2, "one span per killed attempt");
    for sp in &failed {
        assert!(
            matches!(sp.lane, Lane::Node(_)),
            "failed attempts live on node lanes"
        );
        assert_eq!(sp.stage, "cogroup_join!failed");
    }
    // The retries were billed to the simulated clock: per-node lane totals
    // still reconcile exactly with the job's busy time (including the
    // failed spans), which `tests/trace_consistency.rs` checks lane by
    // lane for clean runs.
    let mut exec = ExecStats::default();
    exec.accumulate(&out.metrics.construction);
    exec.accumulate(&out.metrics.join);
    assert_eq!(exec.retries, 2);
    assert_eq!(exec.failed_attempts, 2);
    for n in 0..4 {
        let lane_total: u64 = trace
            .spans
            .iter()
            .filter(|sp| sp.lane == Lane::Node(n))
            .map(|sp| sp.sim_dur_ns)
            .sum();
        let busy = out.metrics.construction.per_node_busy[n].as_nanos() as u64
            + out.metrics.join.per_node_busy[n].as_nanos() as u64;
        assert_eq!(lane_total, busy, "node {n} lane must bill every attempt");
    }
    // Recovery telemetry flows through the recorder too.
    assert!(trace.events.iter().any(|e| e.name == "task_retry"));
}

/// One fault plan covers every two-input join — the grid algorithms, the
/// extent join (here on point-shaped records) and post-fetch: the stage
/// names it targets (`cogroup_join`, `shuffle.R`) are the shared pipeline's,
/// so no join can silently run a plan as a no-op.
#[test]
fn targeted_fault_plans_fire_in_every_point_join() {
    let (r, s) = clouds(17, 300);
    let (r, s, spec) = (&r, &s, &spec());
    let (a, b) = (&point_extents(r), &point_extents(s));
    let lpib = AgreementPolicy::Lpib;
    type Entry<'a> = Box<dyn Fn(&Cluster) -> Result<JoinOutput, JoinError> + 'a>;
    let mut entries: Vec<(&str, Entry)> = vec![
        (
            "pbsm_refpoint_join",
            Box::new(|c| pbsm_refpoint_join(c, spec, r.clone(), s.clone())),
        ),
        (
            "extent_join",
            Box::new(|c| extent_join(c, spec, a.clone(), b.clone())),
        ),
        (
            "adaptive_join_post_fetch",
            Box::new(|c| adaptive_join_post_fetch(c, spec, lpib, r.clone(), s.clone())),
        ),
    ];
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]) {
        let run = move |c: &Cluster| algo.try_run(c, spec, r.clone(), s.clone());
        entries.push((algo.token(), Box::new(run)));
    }
    let points = oracle::brute_force_pairs(r, s, spec.eps);
    let extents = brute_force_extent_pairs(a, b, spec.eps);
    for (name, run) in &entries {
        let expected = if *name == "extent_join" {
            &extents
        } else {
            &points
        };
        for fault in ["fail:cogroup_join:0@1", "oom:shuffle.R:0@1"] {
            let plan = FaultPlan::parse(fault, 0).expect("plan parses");
            let cluster = Cluster::new(ClusterConfig::with_threads(4, 2)).with_faults(plan);
            let out = run(&cluster).expect("one failed attempt is survivable");
            let retries = out.metrics.construction.retries + out.metrics.join.retries;
            assert!(retries >= 1, "{name} under {fault}: the plan never fired");
            assert_eq!(
                out.pairs.len() as u64,
                out.result_count,
                "{name} under {fault}"
            );
            let mut got = out.pairs.into_vec();
            got.sort_unstable();
            assert_eq!(&got, expected, "{name} under {fault}");
        }
    }
}

#[test]
fn unsurvivable_plans_surface_as_job_errors() {
    let (r, s) = clouds(9, 200);
    let (r, s, spec) = (&r, &s, &spec());
    let lpib = AgreementPolicy::Lpib;
    // Every product entry point, with the first stage it runs.
    type Entry<'a> = Box<dyn Fn(&Cluster) -> Result<(), JoinError> + 'a>;
    let mut entries: Vec<(&str, &str, Entry)> = vec![
        (
            "self_join",
            "shuffle",
            Box::new(|c| self_join(c, spec, r.clone()).map(drop)),
        ),
        (
            "extent_join",
            "shuffle.R",
            Box::new(|c| extent_join(c, spec, point_extents(r), point_extents(s)).map(drop)),
        ),
        (
            "pbsm_refpoint_join",
            "shuffle.R",
            Box::new(|c| pbsm_refpoint_join(c, spec, r.clone(), s.clone()).map(drop)),
        ),
        (
            "adaptive_join_post_fetch",
            "sample",
            Box::new(|c| adaptive_join_post_fetch(c, spec, lpib, r.clone(), s.clone()).map(drop)),
        ),
        (
            "knn_join",
            "shuffle",
            Box::new(|c| knn_join(c, spec, 3, r.clone(), s.clone()).map(drop)),
        ),
        (
            "PartitionedPoints::build",
            "shuffle",
            Box::new(|c| PartitionedPoints::build(c, spec, r.clone()).map(drop)),
        ),
    ];
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]) {
        let first_stage = match algo {
            Algorithm::UniR | Algorithm::UniS | Algorithm::EpsGrid => "shuffle.R",
            _ => "sample",
        };
        let run = move |c: &Cluster| algo.try_run(c, spec, r.clone(), s.clone()).map(drop);
        entries.push((algo.name(), first_stage, Box::new(run)));
    }

    // Every attempt of every stage fails, or no usable node remains: the
    // retry budget exhausts in the entry point's first stage and the error
    // says so. Nothing unwinds — this test catches no panic.
    let policy = RetryPolicy::default().with_max_attempts(2);
    let doomed = Cluster::new(ClusterConfig::with_threads(3, 2))
        .with_fault_policy(FaultPlan::none().with_seed(1).with_fail_prob(1.0), policy);
    let all_lost = FaultPlan::none()
        .with_seed(2)
        .with_lost_node(0, 0)
        .with_lost_node(1, 0);
    let deserted =
        Cluster::new(ClusterConfig::with_threads(2, 2)).with_fault_policy(all_lost, policy);
    for (name, first_stage, run) in &entries {
        for (plan, cluster) in [("p=1.0", &doomed), ("all nodes lost", &deserted)] {
            match run(cluster) {
                Err(JoinError::Job(e)) => {
                    assert_eq!(e.stage, *first_stage, "{name} under {plan}: {e}");
                    assert_eq!(e.attempts, 2, "{name} under {plan}: {e}");
                }
                other => panic!("{name} under {plan}: expected a JobError, got {other:?}"),
            }
        }
    }
}

#[test]
fn zero_fault_runs_and_inert_fault_contexts_match_exactly() {
    // A cluster without a fault context runs every task single-attempt.
    let (r, s) = clouds(11, 350);
    let spec = spec();
    let plain = Cluster::new(ClusterConfig::with_threads(4, 2));
    assert!(plain.fault_context().is_none());
    let base = adaptive_join(&plain, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
        .expect("join runs");
    let expected = oracle::brute_force_pairs(&r, &s, spec.eps);
    assert_eq!(base.result_count as usize, expected.len());

    // An *inert* fault context (no plan, default policy) clones inputs and
    // may retry, yet still computes the same join.
    let routed =
        Cluster::new(ClusterConfig::with_threads(4, 2)).with_retry_policy(RetryPolicy::default());
    assert!(routed.fault_context().is_some());
    let via_ft = adaptive_join(&routed, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
    assert_eq!(via_ft.pairs, base.pairs);
    assert_eq!(via_ft.result_count, base.result_count);
}

#[test]
fn fault_state_is_shared_across_stages_of_a_job() {
    // Node blacklisting accumulates over the life of the cluster: a node
    // that failed an earlier stage is avoided by later ones, because every
    // stage runs against the same `FaultState`, folded in between stages.
    let plan = FaultPlan::none()
        .with_fail_point("one", 1, 1)
        .with_fail_point("one", 4, 1)
        .with_fail_point("two", 0, 1)
        .with_fail_point("two", 3, 1);
    let recorder = Recorder::for_nodes(3);
    let cluster = Cluster::new(ClusterConfig::with_threads(3, 2))
        .with_recorder(recorder.clone())
        .with_fault_policy(plan, RetryPolicy::default().with_blacklist_after(2));
    let ctx: &FaultContext = cluster.fault_context().expect("context attached");
    // (task, from, to) of every retry so far, in the order they happened.
    let retries = || -> Vec<(Option<u64>, Option<u64>, Lane)> {
        let trace = recorder.snapshot();
        let retries = trace.events.iter().filter(|e| e.name == "task_retry");
        retries
            .map(|e| (e.partition, e.attrs.records, e.lane))
            .collect()
    };
    let run = |stage: &str| {
        let tasks: Vec<u32> = (0..6).collect();
        let (out, stats) = cluster
            .try_run_stage(stage, tasks, |_, t| Ok(t))
            .expect("the stage recovers");
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        stats
    };
    // Stage one: tasks 1 and 4 fail on node 1 (task i runs on node i mod
    // 3). Node 1 stays usable until the stage is over, then is blacklisted.
    let one = run("one");
    assert_eq!((one.failed_attempts, one.retries), (2, 2));
    assert_eq!(one.blacklisted_nodes, 1);
    assert!(ctx.state.is_blacklisted(1));
    let mut stage_one = retries();
    stage_one.sort_unstable();
    assert_eq!(
        stage_one,
        [
            (Some(1), Some(1), Lane::Node(2)),
            (Some(4), Some(1), Lane::Node(0))
        ]
    );
    // Stage two: tasks 0 and 3 fail on node 0, and both retries avoid node
    // 1 for node 2, the one usable node left. Node 0 is blacklisted after.
    let two = run("two");
    assert_eq!((two.retries, two.blacklisted_nodes), (2, 2));
    assert!(ctx.state.is_blacklisted(0) && !ctx.state.is_blacklisted(2));
    let mut both = retries();
    both.sort_unstable();
    assert_eq!(
        both,
        [
            (Some(0), Some(0), Lane::Node(2)),
            (Some(1), Some(1), Lane::Node(2)),
            (Some(3), Some(0), Lane::Node(2)),
            (Some(4), Some(1), Lane::Node(0)),
        ]
    );
}
