//! Spilled shuffle blocks stay on disk until the task that joins them reads
//! them: with a budget that spills every target, a join's heap high-water
//! mark is below the unbudgeted run's by at least half the shuffled rows'
//! in-memory size, and itself below that half; a self-join's is below half
//! the bytes it shuffled. This lives in its own integration-test binary so the
//! counting global allocator only ever observes this one test.

mod heap;

use asj_core::AgreementPolicy;
use asj_engine::{Cluster, ClusterConfig, Dataset};
use asj_geom::{Point, Rect};
use asj_join::{adaptive_join, self_join, to_records, JoinSpec, Record};

/// `n` pseudo-random points of the 10 × 10 square.
fn points(n: usize, salt: u64) -> Vec<Point> {
    let mut state = salt;
    let mut unit = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Point::new(10.0 * unit(), 10.0 * unit()))
        .collect()
}

/// The heap high-water mark of one join of `r` and `s`, as input partitions
/// the way the CLI reads them, above what was live before it; and the rows
/// it shuffled.
fn heap_peak(cluster: &Cluster, spec: &JoinSpec, r: &[Record], s: &[Record]) -> (usize, u64) {
    let partitions =
        |records: &[Record]| Dataset::from_vec(records.to_vec(), spec.input_partitions);
    let (r, s) = (partitions(r), partitions(s));
    let (out, peak) = heap::peak_during(|| {
        adaptive_join(cluster, spec, AgreementPolicy::Lpib, r, s).expect("join runs")
    });
    (peak, out.metrics.shuffle.records)
}

#[test]
fn spilling_every_target_keeps_the_shuffled_rows_off_the_heap() {
    let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 0.2)
        .with_partitions(32)
        .counting_only();
    let (r, s) = (
        to_records(&points(50_000, 1), 0),
        to_records(&points(50_000, 2), 0),
    );
    let one_thread = || Cluster::new(ClusterConfig::with_threads(4, 1));

    let (free, rows) = heap_peak(&one_thread(), &spec, &r, &s);
    let (spilled, spilled_rows) = heap_peak(&one_thread().with_memory_budget(1), &spec, &r, &s);
    assert_eq!(rows, spilled_rows);
    let row_bytes = rows as usize * std::mem::size_of::<(u64, Record)>();
    let peaks = format!(
        "heap peak {spilled} B spilled vs {free} B in memory: {rows} shuffled rows are {row_bytes} B"
    );
    assert!(spilled + row_bytes / 2 <= free, "{peaks}");
    // A driver that materialised every partition, re-reading each spilled
    // chunk, would hold all the rows at once however little stayed in memory.
    assert!(spilled <= row_bytes / 2, "{peaks}");

    // The self-join's tasks read their partitions in place too: a driver
    // that decoded every spilled chunk first would hold more than the
    // shuffle's encoded bytes, where one partition at a time holds a few.
    let input = Dataset::from_vec(r, spec.input_partitions);
    let budgeted = one_thread().with_memory_budget(1);
    let (out, peak) = heap::peak_during(|| self_join(&budgeted, &spec, input).expect("join runs"));
    let shuffled = out.metrics.shuffle.total_bytes();
    assert!(
        2 * (peak as u64) < shuffled,
        "self-join heap peak {peak} B spilled vs {shuffled} B shuffled"
    );
}
