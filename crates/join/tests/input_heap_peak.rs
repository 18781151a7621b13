//! Input partitions that ingest sent to disk stay there until the tasks that
//! need them read them: reading a CSV under a memory budget that its input
//! exceeds keeps the input off the heap, so the high-water mark over ingest
//! and join is below that of the same run with the input kept in memory by
//! at least half the input's in-memory bytes. This lives in its own
//! integration-test binary so the counting global allocator only ever
//! observes this one test.

mod heap;

use asj_core::AgreementPolicy;
use asj_data::{read_points_csv_each, write_points_csv};
use asj_engine::{Cluster, ClusterConfig, Dataset, Ingest};
use asj_geom::{Point, Rect};
use asj_join::{adaptive_join, JoinSpec, NoPayload, Record};
use std::path::{Path, PathBuf};

/// Writes `n` pseudo-random points of the 10 × 10 square as a CSV file.
fn csv(n: usize, salt: u64) -> PathBuf {
    let mut state = salt;
    let mut unit = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let points: Vec<Point> = (0..n)
        .map(|_| Point::new(10.0 * unit(), 10.0 * unit()))
        .collect();
    let path =
        std::env::temp_dir().join(format!("asj-input-heap-{}-{salt}.csv", std::process::id()));
    let mut text = Vec::new();
    write_points_csv(&mut text, 0, points).expect("format");
    std::fs::write(&path, text).expect("write input");
    path
}

/// `path` read into input partitions through `ingest`, as `asj join` reads it.
fn read(path: &Path, ingest: Ingest<Record<NoPayload>>) -> Dataset<Record<NoPayload>> {
    let put = |p, rows| ingest.put(p, rows);
    read_points_csv_each(path, JoinSpec::INPUT_PARTITIONS, Record::bare, put).expect("read");
    ingest.finish().expect("seal")
}

#[test]
fn inputs_on_disk_stay_off_the_heap() {
    const ROWS: usize = 50_000;
    let (r_path, s_path) = (csv(ROWS, 1), csv(ROWS, 2));
    let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 0.2)
        .with_partitions(32)
        .counting_only();
    // A one-byte budget: every input partition exceeds its share, and every
    // shuffle target spills in both runs.
    let cluster = Cluster::new(ClusterConfig::with_threads(4, 1)).with_memory_budget(1);
    let run = |on_disk: bool| {
        let ingest = || match on_disk {
            true => Ingest::new(&cluster, 2, JoinSpec::INPUT_PARTITIONS),
            false => Ingest::in_memory(JoinSpec::INPUT_PARTITIONS),
        };
        let (out, peak) = heap::peak_during(|| {
            let (r, s) = (read(&r_path, ingest()), read(&s_path, ingest()));
            let on_disk = [&r, &s]
                .iter()
                .filter(|input| input.on_disk().is_some())
                .count();
            let out = adaptive_join(&cluster, &spec, AgreementPolicy::Lpib, r, s);
            (out.expect("join runs").result_count, on_disk)
        });
        (out, peak)
    };
    let ((in_memory_pairs, none), in_memory) = run(false);
    let ((on_disk_pairs, both), on_disk) = run(true);
    std::fs::remove_file(&r_path).unwrap();
    std::fs::remove_file(&s_path).unwrap();
    assert_eq!((none, both), (0, 2), "which inputs went to disk");
    assert_eq!(in_memory_pairs, on_disk_pairs);
    let input_bytes = 2 * ROWS * std::mem::size_of::<Record<NoPayload>>();
    assert!(
        on_disk + input_bytes / 2 <= in_memory,
        "heap peak {on_disk} B with the input on disk vs {in_memory} B in memory: \
         the input is {input_bytes} B"
    );
}
