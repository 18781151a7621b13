//! Cross-crate integration tests: every distributed algorithm, on catalog
//! workloads, validated against the centralized oracle.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::data::{Catalog, TupleSizeFactor};
use adaptive_spatial_join::join::{
    adaptive_join, adaptive_join_dedup, adaptive_join_post_fetch, oracle, to_records, Algorithm,
    JoinSpec,
};
use adaptive_spatial_join::prelude::*;

fn small_catalog() -> Catalog {
    Catalog::new(3_000)
}

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::new(6))
}

fn spec(catalog: &Catalog, eps: f64) -> JoinSpec {
    JoinSpec::new(catalog.s1.bbox, eps)
        .with_partitions(24)
        .with_sample_fraction(0.2)
}

#[test]
fn all_algorithms_agree_with_oracle_on_synthetic_data() {
    let catalog = small_catalog();
    let c = cluster();
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    let spec = spec(&catalog, 1.4);
    let expected = oracle::rtree_pairs(&r, &s, spec.eps);
    assert!(!expected.is_empty(), "test workload must produce matches");
    for algo in Algorithm::ALL {
        let out = algo
            .try_run(&c, &spec, r.clone(), s.clone())
            .expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected, "{} disagrees with the oracle", algo.name());
        assert_eq!(out.result_count as usize, expected.len());
    }
}

#[test]
fn all_algorithms_agree_with_oracle_on_skewed_real_like_data() {
    let catalog = small_catalog();
    let c = cluster();
    let r = to_records(&catalog.r2.points(), 0);
    let s = to_records(&catalog.r1.points(), 0);
    let spec = spec(&catalog, 1.1);
    let expected = oracle::rtree_pairs(&r, &s, spec.eps);
    assert!(!expected.is_empty());
    for algo in Algorithm::ALL {
        let out = algo
            .try_run(&c, &spec, r.clone(), s.clone())
            .expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected, "{} disagrees with the oracle", algo.name());
    }
}

#[test]
fn variants_preserve_the_result_set() {
    let catalog = small_catalog();
    let c = cluster();
    let r = to_records(&catalog.s1.points(), 16);
    let s = to_records(&catalog.s2.points(), 16);
    let spec = spec(&catalog, 1.4);
    let expected = oracle::rtree_pairs(&r, &s, spec.eps);

    let dedup = adaptive_join_dedup(&c, &spec, AgreementPolicy::Diff, r.clone(), s.clone())
        .expect("join runs");
    let mut got = dedup.pairs.to_vec();
    got.sort_unstable();
    assert_eq!(got, expected, "dedup variant");

    let fetched =
        adaptive_join_post_fetch(&c, &spec, AgreementPolicy::Diff, r, s).expect("join runs");
    let mut got = fetched.pairs.to_vec();
    got.sort_unstable();
    assert_eq!(got, expected, "post-fetch variant");
}

#[test]
fn eps_sweep_results_are_monotone() {
    let catalog = small_catalog();
    let c = cluster();
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    let mut last = 0u64;
    for eps in [0.6, 0.9, 1.2, 1.5] {
        let spec = spec(&catalog, eps).counting_only();
        let out = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
            .expect("join runs");
        assert!(out.result_count >= last, "results must grow with eps");
        last = out.result_count;
    }
    assert!(last > 0);
}

#[test]
fn grid_resolution_does_not_change_results() {
    let catalog = small_catalog();
    let c = cluster();
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    let mut counts = Vec::new();
    for factor in [2.0, 3.0, 4.0, 5.0] {
        let spec = spec(&catalog, 1.2).with_grid_factor(factor).counting_only();
        let out = adaptive_join(&c, &spec, AgreementPolicy::Diff, r.clone(), s.clone())
            .expect("join runs");
        counts.push(out.result_count);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn tuple_payloads_travel_through_the_join() {
    let catalog = small_catalog();
    let c = cluster();
    let r = to_records(&catalog.s1.points(), TupleSizeFactor::F2.payload_bytes());
    let s = to_records(&catalog.s2.points(), TupleSizeFactor::F2.payload_bytes());
    let bare_r = to_records(&catalog.s1.points(), 0);
    let bare_s = to_records(&catalog.s2.points(), 0);
    let spec = spec(&catalog, 1.2).counting_only();
    let fat = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
    let bare = adaptive_join(&c, &spec, AgreementPolicy::Lpib, bare_r, bare_s).expect("join runs");
    assert_eq!(fat.result_count, bare.result_count);
    assert!(
        fat.metrics.shuffle.total_bytes() > 2 * bare.metrics.shuffle.total_bytes(),
        "payload must inflate shuffle volume: {} vs {}",
        fat.metrics.shuffle.total_bytes(),
        bare.metrics.shuffle.total_bytes()
    );
}

#[test]
fn adaptive_replicates_least_on_every_combo() {
    let catalog = small_catalog();
    let c = cluster();
    let spec = spec(&catalog, 1.4).counting_only();
    for (r, s) in [
        (&catalog.s1, &catalog.s2),
        (&catalog.r1, &catalog.s1),
        (&catalog.r2, &catalog.r1),
    ] {
        let r = to_records(&r.points(), 0);
        let s = to_records(&s.points(), 0);
        let lpib = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
            .expect("join runs");
        let uni_r = Algorithm::UniR
            .try_run(&c, &spec, r.clone(), s.clone())
            .expect("join runs");
        let uni_s = Algorithm::UniS.try_run(&c, &spec, r, s).expect("join runs");
        let best_uni = uni_r.replicated_total().min(uni_s.replicated_total());
        assert!(
            lpib.replicated_total() <= best_uni,
            "adaptive {} must not exceed best universal {}",
            lpib.replicated_total(),
            best_uni
        );
    }
}

/// The sample-driven cost model (`estimate_candidates`, the paper's §8
/// future-work item) must predict the measured candidate count within a
/// small factor when fed a 10% sample. The estimator extrapolates the
/// nested loop's `r·s` per cell, so the run pins that kernel (the default
/// `Auto` prunes candidates below the `r·s` worst case).
#[test]
fn cost_model_predicts_candidates() {
    use adaptive_spatial_join::core::{estimate_candidates, AgreementGraph, GridSample};
    use adaptive_spatial_join::grid::{Grid, GridSpec};
    use adaptive_spatial_join::join::LocalKernel;

    let catalog = Catalog::new(8_000);
    let c = cluster();
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    let spec = JoinSpec::new(catalog.s1.bbox, 1.2)
        .counting_only()
        .with_kernel(LocalKernel::NestedLoop);

    let grid = Grid::new(GridSpec::new(spec.bbox, spec.eps));
    let fraction = 0.1;
    let sample_r: Vec<_> = r.iter().step_by(10).map(|rec| rec.point).collect();
    let sample_s: Vec<_> = s.iter().step_by(10).map(|rec| rec.point).collect();
    let sample = GridSample::from_points(&grid, sample_r.iter().copied(), sample_s.iter().copied());
    let graph = AgreementGraph::build(&grid, &sample, AgreementPolicy::Lpib);
    let predicted =
        estimate_candidates(&graph, sample_r.iter(), sample_s.iter(), fraction, fraction);

    let out = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
    let measured = out.candidates as f64;
    let ratio = predicted / measured;
    assert!(
        (0.4..2.5).contains(&ratio),
        "cost model off by too much: predicted {predicted:.0} vs measured {measured:.0} (ratio {ratio:.2})"
    );
}
