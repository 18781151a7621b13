//! End-to-end dual-clock consistency: for a traced adaptive join, the
//! simulated time attributed to each node's trace lane must equal —
//! exactly, not approximately — the node's busy time in the job's
//! `ExecStats`, because both are fed by the same measured task durations.
//! And attaching a recorder must not change what the join computes.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::engine::obs::Span;
use adaptive_spatial_join::engine::Lane;
use adaptive_spatial_join::geom::{Point, Rect};
use adaptive_spatial_join::join::adaptive_join;
use adaptive_spatial_join::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn clouds(seed: u64, n: usize) -> (Vec<Point>, Vec<Point>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cloud = |rng: &mut StdRng| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..25.0), rng.gen_range(0.0..25.0)))
            .collect()
    };
    (cloud(&mut rng), cloud(&mut rng))
}

/// The trace's `replicas` counters summed over every stage — what the
/// benchmark reads as `replicated_objects`.
fn summed_replicas(recorder: &Recorder) -> u64 {
    let metrics = recorder.snapshot().metrics;
    let replicas = metrics
        .counters
        .iter()
        .filter(|((_, name), _)| name == "replicas");
    replicas.map(|(_, &v)| v).sum()
}

/// A join whose every stage is recovered from checkpoints expands nothing,
/// yet still counts each side's replicas exactly once, from the restored
/// shuffle stats.
#[test]
fn recovered_join_counts_replicas_once() {
    let (r_pts, s_pts) = clouds(43, 500);
    let (r, s) = (to_records(&r_pts, 0), to_records(&s_pts, 0));
    let spec = JoinSpec::new(Rect::new(0.0, 0.0, 25.0, 25.0), 0.8).with_partitions(16);
    let dir = std::env::temp_dir().join(format!("asj-trace-recovered-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let recorder = Recorder::for_nodes(4);
        let cluster = Cluster::new(ClusterConfig::with_threads(4, 2))
            .with_recorder(recorder.clone())
            .with_checkpoint_dir(&dir)
            .expect("open checkpoint dir");
        let out = Algorithm::Lpib
            .try_run(&cluster, &spec, r.clone(), s.clone())
            .expect("join runs");
        let recovered = cluster
            .checkpoint_store()
            .expect("store")
            .stages_recovered();
        (out, recorder, recovered)
    };
    let (first, first_recorder, _) = run();
    let (again, recorder, recovered) = run();
    assert_eq!(recovered, 3, "shuffle.R, shuffle.S and cogroup_join replay");
    assert_eq!(again.replicated, first.replicated);
    assert_eq!(summed_replicas(&first_recorder), first.replicated_total());
    assert_eq!(summed_replicas(&recorder), again.replicated_total());
    let trace = recorder.snapshot();
    let map_tasks = trace.spans.iter().filter(|sp| sp.stage == "shuffle.R");
    assert_eq!(map_tasks.count(), 0, "a recovered shuffle maps nothing");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn traced_join_sim_lanes_match_per_node_busy() {
    let nodes = 5;
    let (r_pts, s_pts) = clouds(42, 600);
    let r = to_records(&r_pts, 0);
    let s = to_records(&s_pts, 0);
    let spec = JoinSpec::new(Rect::new(0.0, 0.0, 25.0, 25.0), 0.8)
        .with_partitions(20)
        .with_sample_fraction(0.3);

    let recorder = Recorder::for_nodes(nodes);
    let cluster =
        Cluster::new(ClusterConfig::with_threads(nodes, 3)).with_recorder(recorder.clone());
    let out = adaptive_join(&cluster, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
        .expect("join runs");
    let trace = recorder.snapshot();

    // Every simulated lane's spans are disjoint, monotone and account for
    // exactly the node's busy time across all stages of the job.
    for n in 0..nodes {
        let mut lane: Vec<_> = trace
            .spans
            .iter()
            .filter(|sp| sp.lane == Lane::Node(n))
            .collect();
        lane.sort_by_key(|sp| sp.sim_start_ns);
        let mut cursor = 0u64;
        let mut lane_total = 0u64;
        for sp in &lane {
            assert!(
                sp.sim_start_ns >= cursor,
                "overlapping sim spans on node {n}"
            );
            cursor = sp.sim_start_ns + sp.sim_dur_ns;
            lane_total += sp.sim_dur_ns;
        }
        let busy = out.metrics.construction.per_node_busy[n].as_nanos() as u64
            + out.metrics.join.per_node_busy[n].as_nanos() as u64;
        assert_eq!(
            lane_total, busy,
            "node {n}: trace lane total must equal ExecStats::per_node_busy"
        );
        assert_eq!(lane_total, recorder.node_sim_total(n).as_nanos() as u64);
    }

    // Exactly these phases and task stages: the spatial mapping runs inside
    // the shuffle's map tasks, with no stage or phase of its own, and
    // `shuffle.R` runs one task per input partition.
    let stages = |driver: bool| {
        let on_lane = |sp: &&Span| (sp.lane == Lane::Driver) == driver;
        let names = trace
            .spans
            .iter()
            .filter(on_lane)
            .map(|sp| sp.stage.as_str());
        names.collect::<BTreeSet<_>>()
    };
    let phases = ["sampling", "agreement_graph", "shuffle", "local_join"];
    assert_eq!(stages(true), BTreeSet::from(phases));
    let tasks = ["sample", "shuffle.R", "shuffle.S", "cogroup_join"];
    assert_eq!(stages(false), BTreeSet::from(tasks));
    let map_tasks = trace.spans.iter().filter(|sp| sp.stage == "shuffle.R");
    assert_eq!(map_tasks.count(), spec.input_partitions);
    assert_eq!(summed_replicas(&recorder), out.replicated_total());

    // Every two-input point join is a plan on the same pipeline: the same
    // phases, and a `results` counter that is the reported count — for the
    // reference-point join, the count *after* its duplicate filter.
    let algos = Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]);
    for (name, algo) in algos
        .map(|a| (a.token(), Some(a)))
        .chain([("refpoint", None)])
    {
        let recorder = Recorder::for_nodes(nodes);
        let cluster =
            Cluster::new(ClusterConfig::with_threads(nodes, 3)).with_recorder(recorder.clone());
        let algo_out = match algo {
            Some(algo) => algo.try_run(&cluster, &spec, r.clone(), s.clone()),
            None => pbsm_refpoint_join(&cluster, &spec, r.clone(), s.clone()),
        }
        .expect("join runs");
        let trace = recorder.snapshot();
        for phase in ["shuffle", "local_join"] {
            assert!(
                trace.spans.iter().any(|sp| sp.stage == phase),
                "{name}: missing phase {phase}"
            );
        }
        assert_eq!(
            summed_replicas(&recorder),
            algo_out.replicated_total(),
            "{name}"
        );
        // A driver phase is billed exactly what its driver-lane span says:
        // the agreement graph (LPiB, DIFF and the dedup arm) and the quadtree
        // (Sedona) are the driver-billed phases; no other plan bills any.
        let billed: u64 = trace
            .spans
            .iter()
            .filter(|sp| sp.lane == Lane::Driver)
            .filter(|sp| ["agreement_graph", "quadtree"].contains(&sp.stage.as_str()))
            .map(|sp| sp.sim_dur_ns)
            .sum();
        assert_eq!(billed, algo_out.metrics.driver.as_nanos() as u64, "{name}");
        // The dedup arm reports the distinct count; its join phase counted
        // the duplicates too.
        if algo != Some(Algorithm::LpibDedup) {
            assert_eq!(
                recorder.counter_value("local_join", "results"),
                Some(algo_out.result_count),
                "{name}"
            );
        }
        assert_eq!(algo_out.result_count, out.result_count, "{name}");
    }

    // The recorder observes; it must not perturb the join itself.
    let plain = Cluster::new(ClusterConfig::with_threads(nodes, 3));
    let untraced = adaptive_join(&plain, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
    let (mut a, mut b) = (out.pairs.into_vec(), untraced.pairs.into_vec());
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    assert_eq!(out.result_count, untraced.result_count);
    assert_eq!(out.candidates, untraced.candidates);
    assert_eq!(out.replicated, untraced.replicated);
    assert_eq!(
        out.metrics.shuffle.total_bytes(),
        untraced.metrics.shuffle.total_bytes()
    );
}
