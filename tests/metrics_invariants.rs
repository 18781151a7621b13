//! Invariants of the metrics the evaluation reports: if these break, the
//! figures lie.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::data::Catalog;
use adaptive_spatial_join::engine::Wire;
use adaptive_spatial_join::join::{adaptive_join, to_records, Algorithm, JoinSpec, Record};
use adaptive_spatial_join::prelude::*;

fn workload() -> (Catalog, Vec<Record>, Vec<Record>) {
    let catalog = Catalog::new(2_500);
    let r = to_records(&catalog.s1.points(), 8);
    let s = to_records(&catalog.s2.points(), 8);
    (catalog, r, s)
}

#[test]
fn single_node_cluster_has_zero_remote_reads() {
    let (catalog, r, s) = workload();
    let c = Cluster::new(ClusterConfig::new(1));
    let spec = JoinSpec::new(catalog.s1.bbox, 1.2).counting_only();
    let out = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
    assert_eq!(out.metrics.shuffle.remote_bytes, 0);
    assert!(out.metrics.shuffle.local_bytes > 0);
}

#[test]
fn shuffled_bytes_equal_records_times_wire_size() {
    let (catalog, r, s) = workload();
    let c = Cluster::new(ClusterConfig::new(4));
    let spec = JoinSpec::new(catalog.s1.bbox, 1.2).counting_only();
    let out =
        adaptive_join(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone()).expect("join runs");
    // Every shuffled record is (u64 cell key, Record); replication adds
    // copies, so total records = inputs + replicas.
    let rec_bytes = (8 + r[0].encoded_size()) as u64;
    let expected_records = (r.len() + s.len()) as u64 + out.replicated_total();
    assert_eq!(out.metrics.shuffle.records, expected_records);
    assert_eq!(
        out.metrics.shuffle.total_bytes(),
        expected_records * rec_bytes
    );
}

#[test]
fn remote_fraction_grows_with_cluster_width() {
    let (catalog, r, s) = workload();
    let spec = JoinSpec::new(catalog.s1.bbox, 1.2).counting_only();
    let mut last_remote = 0u64;
    for nodes in [1usize, 2, 4, 8] {
        let c = Cluster::new(ClusterConfig::new(nodes));
        let out = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
            .expect("join runs");
        assert!(
            out.metrics.shuffle.remote_bytes >= last_remote,
            "remote reads must not shrink when nodes grow"
        );
        last_remote = out.metrics.shuffle.remote_bytes;
    }
    assert!(last_remote > 0);
}

#[test]
fn replication_drops_with_larger_eps_on_skewed_data() {
    // §7.2.1: "when the distance threshold is increased … our algorithms
    // require less replication", because larger ε means larger cells and the
    // skewed clusters increasingly fit inside single cells. Compare the two
    // extremes of the sweep (intermediate values may jitter at small scale).
    let (catalog, r, s) = workload();
    let c = Cluster::new(ClusterConfig::new(4));
    let run = |eps: f64| {
        let spec = JoinSpec::new(catalog.s1.bbox, eps).counting_only();
        adaptive_join(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
            .expect("join runs")
            .replicated_total()
    };
    let fine = run(0.5);
    let coarse = run(1.8);
    assert!(
        coarse < fine,
        "larger eps must replicate less on clustered data: eps=1.8 -> {coarse}, eps=0.5 -> {fine}"
    );
}

#[test]
fn candidates_bound_results_and_cost_model_holds() {
    let (catalog, r, s) = workload();
    let c = Cluster::new(ClusterConfig::new(4));
    let spec = JoinSpec::new(catalog.s1.bbox, 1.2).counting_only();
    for algo in [Algorithm::Lpib, Algorithm::UniR, Algorithm::EpsGrid] {
        let out = algo
            .try_run(&c, &spec, r.clone(), s.clone())
            .expect("join runs");
        assert!(out.candidates >= out.result_count, "{}", algo.name());
    }
}

#[test]
fn times_are_consistent() {
    let (catalog, r, s) = workload();
    let c = Cluster::new(ClusterConfig::new(4));
    let spec = JoinSpec::new(catalog.s1.bbox, 1.2).counting_only();
    let out = adaptive_join(&c, &spec, AgreementPolicy::Diff, r, s).expect("join runs");
    let m = &out.metrics;
    assert!(m.simulated_time() >= m.construction.makespan());
    assert!(m.simulated_time() >= m.join.makespan());
    // Makespan can never exceed total busy time.
    assert!(m.join.makespan() <= m.join.total_busy() + std::time::Duration::from_micros(1));
    assert!(m.join.imbalance() >= 0.99);
}
