//! Reproducibility: every run is a pure function of (data, spec, seed) —
//! the property that makes the experiment tables trustworthy.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::data::Catalog;
use adaptive_spatial_join::join::{adaptive_join, to_records, Algorithm, JoinSpec};
use adaptive_spatial_join::prelude::*;

#[test]
fn identical_runs_produce_identical_everything() {
    let catalog = Catalog::new(2_000);
    let c = Cluster::new(ClusterConfig::new(5));
    let spec = JoinSpec::new(catalog.s1.bbox, 1.3);
    let r = to_records(&catalog.s1.points(), 4);
    let s = to_records(&catalog.s2.points(), 4);
    for algo in Algorithm::ALL {
        let a = algo
            .try_run(&c, &spec, r.clone(), s.clone())
            .expect("join runs");
        let b = algo
            .try_run(&c, &spec, r.clone(), s.clone())
            .expect("join runs");
        assert_eq!(a.pairs, b.pairs, "{}", algo.name());
        assert_eq!(a.replicated, b.replicated);
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.metrics.shuffle, b.metrics.shuffle);
    }
}

#[test]
fn different_seed_changes_sample_but_not_results() {
    let catalog = Catalog::new(2_000);
    let c = Cluster::new(ClusterConfig::new(5));
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    let a = adaptive_join(
        &c,
        &JoinSpec::new(catalog.s1.bbox, 1.3).with_seed(1),
        AgreementPolicy::Lpib,
        r.clone(),
        s.clone(),
    )
    .expect("join runs");
    let b = adaptive_join(
        &c,
        &JoinSpec::new(catalog.s1.bbox, 1.3).with_seed(2),
        AgreementPolicy::Lpib,
        r,
        s,
    )
    .expect("join runs");
    // The sampled agreement graph may differ, the result set must not.
    let mut pa = a.pairs.to_vec();
    let mut pb = b.pairs.to_vec();
    pa.sort_unstable();
    pb.sort_unstable();
    assert_eq!(pa, pb);
}

#[test]
fn cluster_width_and_partition_count_never_change_results() {
    let catalog = Catalog::new(2_000);
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for nodes in [1usize, 3, 12] {
        for partitions in [7usize, 24, 96] {
            let c = Cluster::new(ClusterConfig::new(nodes));
            let spec = JoinSpec::new(catalog.s1.bbox, 1.3).with_partitions(partitions);
            let out = adaptive_join(&c, &spec, AgreementPolicy::Diff, r.clone(), s.clone())
                .expect("join runs");
            let mut pairs = out.pairs.into_vec();
            pairs.sort_unstable();
            match &reference {
                None => reference = Some(pairs),
                Some(want) => {
                    assert_eq!(&pairs, want, "nodes={nodes} partitions={partitions}")
                }
            }
        }
    }
}
