//! File-to-result pipeline: datasets written as the paper's raw text format
//! (`id,x,y` lines, the HDFS `textFile` input of Algorithm 5), read back and
//! joined.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::data::{read_points_csv_with, write_points_csv, Catalog};
use adaptive_spatial_join::join::{adaptive_join, oracle, to_records, JoinSpec, Record};
use adaptive_spatial_join::prelude::*;

#[test]
fn csv_loaded_inputs_join_identically() {
    let catalog = Catalog::new(1_500);
    let dir = std::env::temp_dir();
    let r_path = dir.join(format!("asj-e2e-r-{}.csv", std::process::id()));
    let s_path = dir.join(format!("asj-e2e-s-{}.csv", std::process::id()));
    let r_pts = catalog.s1.points();
    let s_pts = catalog.s2.points();
    write_points_csv(&r_path, &r_pts).unwrap();
    write_points_csv(&s_path, &s_pts).unwrap();

    // The CLI's `load_records`: rows built as `Record`s by the reader itself.
    let load = |path: &std::path::Path| read_points_csv_with(path, Record::new).unwrap();
    let r = load(&r_path);
    let s = load(&s_path);
    std::fs::remove_file(&r_path).unwrap();
    std::fs::remove_file(&s_path).unwrap();
    assert_eq!(r.len(), r_pts.len());

    let c = Cluster::new(ClusterConfig::new(4));
    let spec = JoinSpec::new(catalog.s1.bbox, 1.5).with_partitions(16);
    let from_csv =
        adaptive_join(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone()).expect("join runs");
    let in_memory = adaptive_join(
        &c,
        &spec,
        AgreementPolicy::Lpib,
        to_records(&r_pts, 0),
        to_records(&s_pts, 0),
    )
    .expect("join runs");
    let mut a = from_csv.pairs.clone();
    let mut b = in_memory.pairs.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    // And both match the oracle.
    assert_eq!(a, oracle::rtree_pairs(&r, &s, spec.eps));
}

/// A file large enough (≥ 2 MiB) that the reader cuts it into more than one
/// split on any multi-core host: rows come back complete and in file order.
#[test]
fn multi_split_file_loads_in_file_order() {
    let pts = Catalog::new(60_000).s1.points();
    let path = std::env::temp_dir().join(format!("asj-e2e-big-{}.csv", std::process::id()));
    write_points_csv(&path, &pts).unwrap();
    assert!(std::fs::metadata(&path).unwrap().len() >= 2 << 20);
    let loaded = read_points_csv_with(&path, Record::new).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded.len(), pts.len());
    assert!(
        loaded == to_records(&pts, 0),
        "rows differ or are out of order"
    );
}
