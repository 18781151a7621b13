//! A join's result pairs are held once: each partition's pairs stay where
//! its task produced them, so the heap high-water mark of a join whose pairs
//! dominate stays below one and a half times the pairs' own size — a gather
//! into one `Vec` next to the partitions' would need twice. Its own binary,
//! so the counting allocator observes this one test.

mod heap;

use asj_core::AgreementPolicy;
use asj_engine::{Cluster, ClusterConfig, Dataset};
use asj_geom::{Point, Rect};
use asj_join::{adaptive_join, to_records, JoinSpec, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn collected_pairs_are_not_gathered_next_to_the_partitions() {
    let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 0.5).with_partitions(32);
    let mut rng = StdRng::seed_from_u64(29);
    let mut input = |n: usize| {
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        Dataset::from_vec(to_records(&points, 0), spec.input_partitions)
    };
    let (r, s) = (input(10_000), input(10_000));
    // One thread, and a budget that spills every shuffled row: what the join
    // holds beyond its inputs is its pairs.
    let cluster = Cluster::new(ClusterConfig::with_threads(4, 1)).with_memory_budget(1);
    let (out, peak) = heap::peak_during(|| {
        adaptive_join(&cluster, &spec, AgreementPolicy::Lpib, r, s).expect("join runs")
    });
    assert_eq!(out.pairs.len() as u64, out.result_count);
    let pair_bytes = out.result_count as usize * std::mem::size_of::<(u64, u64)>();
    let rows_bytes = out.metrics.shuffle.records as usize * std::mem::size_of::<(u64, Record)>();
    assert!(
        pair_bytes > 4 * rows_bytes,
        "{pair_bytes} B of pairs, {rows_bytes} B of rows"
    );
    assert!(
        2 * peak < 3 * pair_bytes,
        "heap peak {peak} B for {} pairs of {pair_bytes} B",
        out.result_count
    );
}
