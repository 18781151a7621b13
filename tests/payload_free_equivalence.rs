//! The CLI reads every CSV row as a payload-free `Record<NoPayload>`; the
//! server and the experiments carry a `Payload`. An empty payload and no
//! payload are the same bytes on the wire, so every operator must run the
//! same on both: the same pairs in the same order, the same counts and
//! replication, the same shuffle meters, the same checkpoint bytes, and —
//! on one host thread, where spill admission is deterministic — the same
//! spilled bytes under any budget.

use adaptive_spatial_join::engine::{Cluster, ClusterConfig, ShuffleStats};
use adaptive_spatial_join::join::{
    knn_join, self_join, to_records, Algorithm, JoinOutput, JoinSpec, NoPayload, PartitionedPoints,
    Record, RecordPayload,
};
use adaptive_spatial_join::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// `n` points of the 20 × 20 square, most of them in one dense cluster.
fn cloud(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.6) {
                Point::new(
                    6.0 + rng.gen_range(-2.0..2.0),
                    6.0 + rng.gen_range(-2.0..2.0),
                )
            } else {
                Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0))
            }
        })
        .collect()
}

fn spec() -> JoinSpec {
    JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.8)
        .with_partitions(8)
        .with_sample_fraction(0.4)
}

/// What one run reported that must not depend on the record type.
#[derive(Debug, PartialEq)]
struct Outcome {
    run: &'static str,
    /// Result rows in output order: join pairs, `(query, neighbor)` of the
    /// k-NN join, `(query, id)` of the range queries.
    rows: Vec<(u64, u64)>,
    /// Result count, candidates and replicas of a join; rounds and neighbor
    /// distance bits of the k-NN join.
    counts: Vec<u64>,
    shuffle: ShuffleStats,
    spilled: u64,
}

fn joined(run: &'static str, out: JoinOutput) -> Outcome {
    Outcome {
        run,
        rows: out.pairs.to_vec(),
        counts: vec![
            out.result_count,
            out.candidates,
            out.replicated[0],
            out.replicated[1],
        ],
        shuffle: out.metrics.shuffle.clone(),
        spilled: out.metrics.spilled_bytes(),
    }
}

/// Every `--algo` join of `r` and `s`, the self-join of `r`, the k-NN join
/// of `r` against `s`, and a range and a circle query over `r`.
fn outcomes<P: RecordPayload>(c: &Cluster, r: &[Record<P>], s: &[Record<P>]) -> Vec<Outcome> {
    let spec = spec();
    let all = Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]);
    let mut out: Vec<Outcome> = all
        .map(|algo| {
            let run = algo.try_run(c, &spec, r.to_vec(), s.to_vec());
            joined(algo.token(), run.expect("join runs"))
        })
        .collect();
    out.push(joined(
        "self-join",
        self_join(c, &spec, r.to_vec()).expect("join runs"),
    ));

    let knn = knn_join(c, &spec, 3, r.to_vec(), s.to_vec()).expect("join runs");
    let neighbors = knn
        .neighbors
        .iter()
        .flat_map(|(q, ns)| ns.iter().map(|n| (*q, *n)));
    let (rows, distances): (Vec<_>, Vec<_>) =
        neighbors.map(|(q, (id, d))| ((q, id), d.to_bits())).unzip();
    out.push(Outcome {
        run: "knn",
        rows,
        counts: [knn.rounds as u64].into_iter().chain(distances).collect(),
        shuffle: knn.shuffle,
        spilled: knn.exec.spilled_bytes,
    });

    let table = PartitionedPoints::build(c, &spec, r.to_vec()).expect("table builds");
    let (in_rect, _) = table
        .range_query(c, Rect::new(3.0, 3.0, 9.5, 8.0))
        .expect("query runs");
    let (in_circle, _) = table
        .circle_query(c, Point::new(6.0, 6.0), 1.5)
        .expect("query runs");
    let hits = in_rect.into_iter().map(|id| (0, id));
    out.push(Outcome {
        run: "range",
        rows: hits
            .chain(in_circle.into_iter().map(|id| (1, id)))
            .collect(),
        counts: Vec::new(),
        shuffle: table.build_shuffle.clone(),
        spilled: table.build_exec.spilled_bytes,
    });
    out
}

fn inputs() -> (Vec<Record>, Vec<Record>) {
    (to_records(&cloud(500, 1), 0), to_records(&cloud(700, 2), 0))
}

fn bare(records: &[Record]) -> Vec<Record<NoPayload>> {
    records.iter().map(Record::stripped).collect()
}

#[test]
fn both_record_types_give_the_same_results_meters_and_spills() {
    let (r, s) = inputs();
    let (r_bare, s_bare) = (bare(&r), bare(&s));
    for budget in [None, Some(1), Some(64), Some(512), Some(2048)] {
        let cluster = || {
            let c = Cluster::new(ClusterConfig::with_threads(3, 1));
            match budget {
                Some(bytes) => c.with_memory_budget(bytes),
                None => c,
            }
        };
        let payload = outcomes(&cluster(), &r, &s);
        let free = outcomes(&cluster(), &r_bare, &s_bare);
        assert_eq!(payload.len(), free.len());
        for (a, b) in payload.iter().zip(&free) {
            assert_eq!(a, b, "{} at budget {budget:?}", a.run);
        }
        if budget.is_some() {
            assert!(payload.iter().any(|o| o.spilled > 0), "{budget:?} spills");
        }
    }
}

/// A fresh directory under the OS temp dir, unique to this process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asj-payload-free-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every file `dir` holds, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list checkpoint dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into();
            (name, std::fs::read(&path).expect("read checkpoint file"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn both_record_types_write_the_same_checkpoint_bytes() {
    let (r, s) = inputs();
    let checkpointed = |tag: &str| {
        let dir = scratch(tag);
        let c = Cluster::new(ClusterConfig::with_threads(3, 2))
            .with_checkpoint_dir(&dir)
            .expect("open checkpoint dir");
        (c, dir)
    };
    let (c, payload_dir) = checkpointed("payload");
    let payload = outcomes(&c, &r, &s);
    let (c, free_dir) = checkpointed("none");
    let free = outcomes(&c, &bare(&r), &bare(&s));
    assert_eq!(payload, free);
    let written = files(&payload_dir);
    assert!(!written.is_empty(), "the runs checkpointed");
    assert!(written == files(&free_dir), "checkpoint bytes differ");
    for dir in [payload_dir, free_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
