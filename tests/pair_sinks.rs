//! The four pair sinks agree: whatever a join hands `Collect`, `Digest`
//! folds to the same digest under any partitioning, `Count` counts, and
//! `File` writes as `r,s` lines in the same order.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::engine::digest::PairDigest;
use adaptive_spatial_join::geom::{Point, Rect};
use adaptive_spatial_join::join::{
    adaptive_join_post_fetch, to_records, Algorithm, JoinSpec, PairFile, PairSink,
};
use adaptive_spatial_join::prelude::*;
use proptest::prelude::*;

fn digest_of(pairs: impl IntoIterator<Item = (u64, u64)>) -> PairDigest {
    let mut digest = PairDigest::default();
    pairs.into_iter().for_each(|(r, s)| digest.add(r, s));
    digest
}

fn points(n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..20.0f64, 0.0..20.0f64).prop_map(|(x, y)| Point::new(x, y)),
        n..n + 1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_sink_sees_the_collected_pairs(
        r_pts in points(150),
        s_pts in points(150),
        eps in 0.5f64..1.5,
        parts in (1usize..24, 1usize..24),
        seed in 0u64..1_000,
        planted in any::<usize>(),
    ) {
        let (r, s) = (to_records(&r_pts, 0), to_records(&s_pts, 0));
        let cluster = Cluster::new(ClusterConfig::with_threads(3, 2));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), eps)
            .with_sample_fraction(0.3)
            .with_seed(seed);
        let dir = std::env::temp_dir().join(format!("asj-sinks-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        // Every algorithm, and (as `None`) the post-fetch variant.
        let variants = Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]).map(Some);
        for variant in variants.chain([None]) {
            let name = variant.map_or("post-fetch", Algorithm::name);
            let with = |sink: PairSink, partitions| {
                let spec = spec.clone().with_partitions(partitions).with_sink(sink);
                let (r, s) = (r.clone(), s.clone());
                match variant {
                    Some(algo) => algo.try_run(&cluster, &spec, r, s),
                    None => adaptive_join_post_fetch(&cluster, &spec, AgreementPolicy::Lpib, r, s),
                }
                .expect("join runs")
            };
            let collected = with(PairSink::Collect, parts.0);
            let pairs = collected.pairs.to_vec();
            prop_assert_eq!(pairs.len() as u64, collected.result_count, "{}", name);
            let want = digest_of(pairs.iter().copied());

            // Any partitioning folds to the digest of the collected pairs.
            let digested = with(PairSink::Digest, parts.1);
            prop_assert_eq!(digested.digest, want, "{}", name);
            prop_assert!(digested.pairs.is_empty());
            prop_assert_eq!(digested.result_count, collected.result_count);

            let counted = with(PairSink::Count, parts.1);
            prop_assert_eq!(counted.result_count, collected.result_count, "{}", name);
            prop_assert!(counted.pairs.is_empty() && counted.digest == PairDigest::default());

            let path = dir.join("pairs.csv");
            let file = PairFile::create(&path).expect("create");
            with(PairSink::File(file.clone()), parts.0);
            file.publish().expect("publish");
            let lines: String = pairs.iter().map(|(a, b)| format!("{a},{b}\n")).collect();
            prop_assert_eq!(std::fs::read_to_string(&path).expect("read"), lines, "{}", name);

            // A dropped pair and, separately, a duplicated one move it.
            if !pairs.is_empty() {
                let at = planted % pairs.len();
                let mut dropped = pairs.clone();
                dropped.remove(at);
                prop_assert!(digest_of(dropped).value() != want.value(), "{}", name);
                let duplicated = pairs.iter().copied().chain([pairs[at]]);
                prop_assert!(digest_of(duplicated).value() != want.value(), "{}", name);
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// The self-join's sinks agree the same way.
#[test]
fn self_join_sinks_agree() {
    let pts: Vec<Point> = (0..400)
        .map(|i| Point::new((i % 20) as f64 * 0.7, (i / 20) as f64 * 0.7))
        .collect();
    let input = to_records(&pts, 0);
    let cluster = Cluster::new(ClusterConfig::with_threads(3, 2));
    let spec = JoinSpec::new(Rect::new(0.0, 0.0, 14.0, 14.0), 1.0).with_partitions(7);
    let run = |sink| self_join(&cluster, &spec.clone().with_sink(sink), input.clone());
    let collected = run(PairSink::Collect).expect("join runs");
    assert!(collected.result_count > 0);
    let digested = run(PairSink::Digest).expect("join runs");
    assert_eq!(digested.digest, digest_of(collected.pairs.iter().copied()));
    assert_eq!(digested.digest.count, collected.result_count);
}

/// On a checkpointed cluster the sink takes the partitions on the driver,
/// after the join phase is saved or replayed: a replayed join writes the
/// same file and folds the same digest as the run that computed it.
#[test]
fn a_replayed_join_phase_feeds_the_sink_alike() {
    let dir = std::env::temp_dir().join(format!("asj-sinks-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let pts = |k: u64| -> Vec<Point> {
        (0..600u64)
            .map(|i| {
                Point::new(
                    ((i * 37 + k) % 200) as f64 * 0.1,
                    ((i * 91 + k) % 200) as f64 * 0.1,
                )
            })
            .collect()
    };
    let (r, s) = (to_records(&pts(3), 0), to_records(&pts(11), 0));
    let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.6).with_partitions(9);
    let plain = Cluster::new(ClusterConfig::with_threads(3, 2));
    let collected = Algorithm::Lpib
        .try_run(&plain, &spec, r.clone(), s.clone())
        .expect("join runs");
    let lines: String = collected
        .pairs
        .iter()
        .map(|(a, b)| format!("{a},{b}\n"))
        .collect();
    for sink in ["file", "digest"] {
        let ckpt = dir.join(sink);
        for run in ["computed", "replayed"] {
            let recorder = Recorder::for_nodes(3);
            let cluster = Cluster::new(ClusterConfig::with_threads(3, 2))
                .with_recorder(recorder.clone())
                .with_checkpoint_dir(&ckpt)
                .expect("open checkpoint dir");
            let path = dir.join(format!("{sink}-{run}.csv"));
            let file = PairFile::create(&path).expect("create");
            let chosen = match sink {
                "file" => PairSink::File(file.clone()),
                _ => PairSink::Digest,
            };
            let spec = spec.clone().with_sink(chosen);
            let out = Algorithm::Lpib
                .try_run(&cluster, &spec, r.clone(), s.clone())
                .expect("join runs");
            let replayed = recorder.counter_value("cogroup_join", "stages_recovered");
            assert_eq!(replayed.is_some(), run == "replayed", "{sink} {run}");
            file.publish().expect("publish");
            match sink {
                "file" => assert!(std::fs::read_to_string(&path).expect("read") == lines),
                _ => assert_eq!(out.digest, digest_of(collected.pairs.iter().copied())),
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
