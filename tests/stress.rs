//! Moderate-scale stress: all algorithms on a 8 K × 8 K clustered workload
//! with a realistic ε, verified against the R-tree oracle; exercises grids
//! with thousands of cells and shuffles with hundreds of thousands of
//! records — one order of magnitude above the unit tests.

use adaptive_spatial_join::data::Catalog;
use adaptive_spatial_join::join::{knn_join, oracle, self_join, to_records, Algorithm, JoinSpec};
use adaptive_spatial_join::prelude::*;

#[test]
fn all_algorithms_at_scale() {
    let catalog = Catalog::new(8_000);
    let cluster = Cluster::new(ClusterConfig::new(12));
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    // ε calibrated like the harness: 0.012 * sqrt(100M/8K) * 0.65 ≈ 0.87.
    let spec = JoinSpec::new(catalog.s1.bbox, 0.87)
        .with_partitions(96)
        .counting_only();
    let expected = oracle::rtree_pairs(&r, &s, spec.eps).len() as u64;
    assert!(
        expected > 10_000,
        "workload must be non-trivial: {expected}"
    );
    for algo in Algorithm::ALL {
        let out = algo
            .try_run(&cluster, &spec, r.clone(), s.clone())
            .expect("join runs");
        assert_eq!(out.result_count, expected, "{} at scale", algo.name());
        assert!(out.metrics.shuffle.records as usize >= r.len() + s.len());
    }
}

#[test]
fn self_join_and_knn_at_scale() {
    let catalog = Catalog::new(6_000);
    let cluster = Cluster::new(ClusterConfig::new(8));
    let pts = to_records(&catalog.s1.points(), 0);
    let spec = JoinSpec::new(catalog.s1.bbox, 1.0).with_partitions(48);

    let out = self_join(&cluster, &spec, pts.clone()).expect("join runs");
    let expected = adaptive_spatial_join::join::brute_force_self_pairs(&pts, spec.eps);
    assert_eq!(out.result_count as usize, expected.len());

    let queries = to_records(&catalog.s2.points()[..200], 0);
    let knn = knn_join(&cluster, &spec, 8, queries.clone(), pts.clone()).expect("join runs");
    let want = adaptive_spatial_join::join::brute_force_knn(&queries, &pts, 8);
    let got: Vec<(u64, Vec<u64>)> = knn
        .neighbors
        .iter()
        .map(|(q, ns)| (*q, ns.iter().map(|(id, _)| *id).collect()))
        .collect();
    assert_eq!(got, want);
}
