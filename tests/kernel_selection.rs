//! Regression tests for `spec.kernel` plumbing: every distributed algorithm
//! must actually route its partition-local work through the requested kernel.
//!
//! Before every point join ran its partition-local work through the shared
//! kernel layer (`kernels::local_join_view` / `local_self_join` on
//! `PointBatch` lanes), the reference-point and Sedona-like joins ran a
//! hard-wired kernel and silently ignored `spec.kernel`. The detector here is the candidate counter: the
//! nested loop evaluates every `|R_i| × |S_i|` pair of a cell group while the
//! plane sweep only counts pairs surviving its window, so on any workload
//! with non-trivial groups the two requests must report *different* candidate
//! counts — while the result pairs stay byte-identical, because every kernel
//! applies the same exact distance refinement.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::geom::{Point, Polygon, Rect, Shape};
use adaptive_spatial_join::join::{
    adaptive_join_dedup, extent_join, pbsm_refpoint_join, self_join, to_records, Algorithm,
    ExtentRecord, JoinOutput, JoinSpec, LocalKernel, Record,
};
use adaptive_spatial_join::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::new(4))
}

fn spec() -> JoinSpec {
    JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.9)
        .with_partitions(12)
        .with_sample_fraction(0.4)
}

fn random_records(n: usize, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
        .collect();
    to_records(&pts, 0)
}

/// Same pairs, different candidate counts — the signature of a join that
/// honors the requested kernel instead of running a hard-wired one.
fn assert_kernel_is_honored(name: &str, nl: &JoinOutput, ps: &JoinOutput) {
    let mut a = nl.pairs.to_vec();
    let mut b = ps.pairs.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "{name}: result pairs must not depend on the kernel");
    assert_eq!(nl.result_count, ps.result_count, "{name}");
    assert_ne!(
        nl.candidates, ps.candidates,
        "{name}: nested-loop and plane-sweep must report different candidate \
         counts (is the kernel flag ignored?)"
    );
    assert!(
        ps.candidates < nl.candidates,
        "{name}: the sweep window must prune below the nested loop's r*s \
         ({} vs {})",
        ps.candidates,
        nl.candidates
    );
}

#[test]
fn every_two_set_algorithm_honors_the_kernel_flag() {
    let c = cluster();
    let r = random_records(400, 91);
    let s = random_records(400, 92);
    for algo in Algorithm::ALL {
        let nl = algo
            .try_run(
                &c,
                &spec().with_kernel(LocalKernel::NestedLoop),
                r.clone(),
                s.clone(),
            )
            .expect("join runs");
        let ps = algo
            .try_run(
                &c,
                &spec().with_kernel(LocalKernel::PlaneSweep),
                r.clone(),
                s.clone(),
            )
            .expect("join runs");
        assert_kernel_is_honored(algo.name(), &nl, &ps);
    }
}

#[test]
fn refpoint_join_honors_the_kernel_flag() {
    let c = cluster();
    let r = random_records(400, 93);
    let s = random_records(400, 94);
    let nl = pbsm_refpoint_join(
        &c,
        &spec().with_kernel(LocalKernel::NestedLoop),
        r.clone(),
        s.clone(),
    )
    .expect("join runs");
    let ps = pbsm_refpoint_join(&c, &spec().with_kernel(LocalKernel::PlaneSweep), r, s)
        .expect("join runs");
    assert_kernel_is_honored("refpoint", &nl, &ps);
}

#[test]
fn dedup_join_honors_the_kernel_flag() {
    let c = cluster();
    let r = random_records(350, 95);
    let s = random_records(350, 96);
    let nl = adaptive_join_dedup(
        &c,
        &spec().with_kernel(LocalKernel::NestedLoop),
        AgreementPolicy::Lpib,
        r.clone(),
        s.clone(),
    )
    .expect("join runs");
    let ps = adaptive_join_dedup(
        &c,
        &spec().with_kernel(LocalKernel::PlaneSweep),
        AgreementPolicy::Lpib,
        r,
        s,
    )
    .expect("join runs");
    assert_kernel_is_honored("dedup", &nl, &ps);
}

#[test]
fn self_join_honors_the_kernel_flag() {
    let c = cluster();
    let input = random_records(500, 97);
    let nl = self_join(
        &c,
        &spec().with_kernel(LocalKernel::NestedLoop),
        input.clone(),
    )
    .expect("join runs");
    let ps = self_join(&c, &spec().with_kernel(LocalKernel::PlaneSweep), input).expect("join runs");
    assert_kernel_is_honored("self-join", &nl, &ps);
}

#[test]
fn extent_join_honors_the_kernel_flag() {
    let c = cluster();
    let mut rng = StdRng::seed_from_u64(98);
    let mut boxes = |n: usize| -> Vec<ExtentRecord> {
        (0..n)
            .map(|i| {
                let x = rng.gen_range(0.0..18.0);
                let y = rng.gen_range(0.0..18.0);
                let w = rng.gen_range(0.1..1.5);
                let h = rng.gen_range(0.1..1.5);
                ExtentRecord::new(
                    i as u64,
                    Shape::Polygon(Polygon::from_rect(Rect::new(x, y, x + w, y + h))),
                )
            })
            .collect()
    };
    let a = boxes(250);
    let b = boxes(250);
    let nl = extent_join(
        &c,
        &spec().with_kernel(LocalKernel::NestedLoop),
        a.clone(),
        b.clone(),
    )
    .expect("join runs");
    let ps =
        extent_join(&c, &spec().with_kernel(LocalKernel::PlaneSweep), a, b).expect("join runs");
    assert_kernel_is_honored("extent", &nl, &ps);
}

/// Two thirds of the points in a 1.5 × 1.5 hotspot, the rest spread over the
/// whole 20 × 20 box: cell groups from a handful of points to hundreds.
fn skewed_records(n: usize, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            if i % 3 == 0 {
                Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0))
            } else {
                Point::new(rng.gen_range(6.0..7.5), rng.gen_range(11.0..12.5))
            }
        })
        .collect();
    to_records(&pts, 0)
}

/// `Auto`'s picks are a pure function of the committed `KernelCostModel`
/// constants and the cell groups `(r, s, ε, extent)`, so on a fixed input its
/// candidate count and its per-kernel picks are exact — on every run, host
/// and thread count. A change to these literals is a change to the constants
/// or to the cost formulas, and must say which.
#[test]
fn auto_picks_on_a_fixed_skewed_input_are_pinned() {
    let recorder = Recorder::for_nodes(4);
    let c = Cluster::new(ClusterConfig::with_threads(4, 2)).with_recorder(recorder.clone());
    let out = Algorithm::Lpib
        .try_run(
            &c,
            &JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.3)
                .with_partitions(12)
                .with_sample_fraction(0.4),
            skewed_records(1500, 71),
            skewed_records(1500, 72),
        )
        .expect("join runs");
    let picks = |name| recorder.counter_value("local_join", name).unwrap_or(0);
    let got = (
        out.candidates,
        out.result_count,
        picks("kernel_auto_nl"),
        picks("kernel_auto_ps"),
        picks("kernel_auto_bucket"),
    );
    assert_eq!(got, (132_472, 107_021, 326, 44, 0));
}
