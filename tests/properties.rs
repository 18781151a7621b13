//! Property-based end-to-end tests: random worlds, random points, every
//! algorithm must equal the brute-force oracle.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::geom::{Point, Rect};
use adaptive_spatial_join::join::{adaptive_join_dedup, oracle, to_records, Algorithm, JoinSpec};
use adaptive_spatial_join::prelude::*;
use proptest::prelude::*;

fn points_in(w: f64, h: f64, n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..w, 0.0..h).prop_map(|(x, y)| Point::new(x, y)),
        n..n + 1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random world geometry (bbox, ε) and random clouds: every algorithm
    /// matches brute force exactly.
    #[test]
    fn every_algorithm_matches_brute_force(
        w in 6.0f64..30.0,
        h in 6.0f64..30.0,
        eps in 0.3f64..1.5,
        seed in 0u64..10_000,
        r_pts in points_in(30.0, 30.0, 120),
        s_pts in points_in(30.0, 30.0, 120),
    ) {
        // Clamp the clouds into the sampled bbox.
        let clamp = |pts: &[Point]| -> Vec<Point> {
            pts.iter()
                .map(|p| Point::new(p.x.min(w - 1e-9), p.y.min(h - 1e-9)))
                .collect()
        };
        let r = to_records(&clamp(&r_pts), 0);
        let s = to_records(&clamp(&s_pts), 0);
        let expected = oracle::brute_force_pairs(&r, &s, eps);
        let cluster = Cluster::new(ClusterConfig::new(1 + (seed % 6) as usize));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, w, h), eps)
            .with_partitions(1 + (seed % 31) as usize)
            .with_sample_fraction(0.3)
            .with_seed(seed);
        for algo in Algorithm::ALL {
            let out = algo.try_run(&cluster, &spec, r.clone(), s.clone()).expect("join runs");
            let mut got = out.pairs.to_vec();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "{} seed={}", algo.name(), seed);
        }
        // The dedup variant too.
        let out = adaptive_join_dedup(&cluster, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        prop_assert_eq!(&got, &expected, "dedup seed={}", seed);
    }

    /// Degenerate shapes: extremely thin worlds exercise single-row /
    /// single-column grids where quartets are scarce or absent.
    #[test]
    fn thin_worlds_are_still_correct(
        h in 2.1f64..4.0,
        eps in 0.4f64..0.9,
        r_pts in points_in(40.0, 4.0, 80),
        s_pts in points_in(40.0, 4.0, 80),
    ) {
        let clamp = |pts: &[Point]| -> Vec<Point> {
            pts.iter().map(|p| Point::new(p.x, p.y.min(h - 1e-9))).collect()
        };
        let r = to_records(&clamp(&r_pts), 0);
        let s = to_records(&clamp(&s_pts), 0);
        let expected = oracle::brute_force_pairs(&r, &s, eps);
        let cluster = Cluster::new(ClusterConfig::new(3));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 40.0, h), eps)
            .with_partitions(8)
            .with_sample_fraction(0.5);
        for algo in [Algorithm::Lpib, Algorithm::Diff, Algorithm::UniR, Algorithm::EpsGrid] {
            let out = algo.try_run(&cluster, &spec, r.clone(), s.clone()).expect("join runs");
            let mut got = out.pairs.to_vec();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "{}", algo.name());
        }
    }

    /// Identical inputs (self-join shape): every point pairs with itself and
    /// duplicates must still not appear.
    #[test]
    fn self_join_shape(pts in points_in(20.0, 20.0, 100), eps in 0.3f64..1.0) {
        let r = to_records(&pts, 0);
        let s = to_records(&pts, 0);
        let expected = oracle::brute_force_pairs(&r, &s, eps);
        let cluster = Cluster::new(ClusterConfig::new(4));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), eps)
            .with_partitions(16)
            .with_sample_fraction(0.4);
        for algo in [Algorithm::Lpib, Algorithm::Diff] {
            let out = algo.try_run(&cluster, &spec, r.clone(), s.clone()).expect("join runs");
            prop_assert_eq!(out.result_count as usize, expected.len());
            // Every point matches itself at distance 0.
            prop_assert!(out.result_count >= r.len() as u64);
        }
    }
}

mod kernel_properties {
    use super::points_in;
    use adaptive_spatial_join::core::AgreementPolicy;
    use adaptive_spatial_join::geom::Rect;
    use adaptive_spatial_join::grid::{Grid, GridSpec};
    use adaptive_spatial_join::join::{
        adaptive_join_dedup, brute_force_self_pairs, oracle, pbsm_refpoint_join, self_join,
        to_records, Algorithm, JoinOutput, JoinSpec, LocalKernel,
    };
    use adaptive_spatial_join::prelude::*;
    use proptest::prelude::*;

    /// Fixed kernels first, `Auto` last — the bound check below indexes on
    /// that order.
    const KERNELS: [LocalKernel; 4] = [
        LocalKernel::NestedLoop,
        LocalKernel::PlaneSweep,
        LocalKernel::GridBucket,
        LocalKernel::Auto,
    ];

    /// `Auto` may fall back to the nested loop only for groups hitting the
    /// tiny-pairs rule (`r*s <= 4`) or whose extent fits in an ε-box, so its
    /// candidate count is bounded by the better fixed kernel's plus 10%
    /// plus 4 candidates per cell group.
    fn auto_bound(min_fixed: u64, groups: u64) -> u64 {
        (min_fixed as f64 * 1.1).ceil() as u64 + 4 * groups
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every algorithm × every kernel variant returns exactly the oracle
        /// pairs, and `Auto` never does meaningfully more candidate work
        /// than the best fixed kernel.
        #[test]
        fn every_kernel_matches_brute_force_everywhere(
            eps in 0.4f64..1.2,
            seed in 0u64..10_000,
            r_pts in points_in(20.0, 20.0, 100),
            s_pts in points_in(20.0, 20.0, 100),
        ) {
            let r = to_records(&r_pts, 0);
            let s = to_records(&s_pts, 0);
            let expected = oracle::brute_force_pairs(&r, &s, eps);
            let cluster = Cluster::new(ClusterConfig::new(1 + (seed % 5) as usize));
            let base = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), eps)
                .with_partitions(1 + (seed % 17) as usize)
                .with_sample_fraction(0.4)
                .with_seed(seed);
            // Upper bounds on the number of cell groups, for the Auto slack:
            // the agreement-grid cell count for the adaptive family, the
            // finer ε-grid's for the ε-grid baseline.
            let grid_groups =
                Grid::new(GridSpec::with_factor(base.bbox, eps, base.grid_factor)).num_cells()
                    as u64;
            let eps_groups = Grid::new(GridSpec::new(base.bbox, eps)).num_cells() as u64;

            type Runner<'a> = Box<dyn Fn(&JoinSpec) -> JoinOutput + 'a>;
            let (c, rr, ss) = (&cluster, &r, &s);
            let mut runners: Vec<(String, Runner, Option<u64>)> = Vec::new();
            for algo in Algorithm::ALL {
                // Sedona's groups are quadtree leaves, not grid cells; its
                // exactness is still checked, only the slack bound is
                // skipped for lack of a leaf count here.
                let groups = match algo {
                    Algorithm::EpsGrid => Some(eps_groups),
                    Algorithm::Sedona => None,
                    _ => Some(grid_groups),
                };
                runners.push((
                    algo.name().to_string(),
                    Box::new(move |spec: &JoinSpec| algo.try_run(c, spec, rr.clone(), ss.clone()).expect("join runs")),
                    groups,
                ));
            }
            runners.push((
                "refpoint".to_string(),
                Box::new(move |spec| pbsm_refpoint_join(c, spec, rr.clone(), ss.clone()).expect("join runs")),
                Some(eps_groups),
            ));
            runners.push((
                "dedup".to_string(),
                Box::new(move |spec| {
                    adaptive_join_dedup(c, spec, AgreementPolicy::Lpib, rr.clone(), ss.clone()).expect("join runs")
                }),
                // Dedup's candidate counter is clamped below by the
                // duplicated result count, so the kernel bound does not
                // transfer; exactness only.
                None,
            ));
            for (name, run, groups) in &runners {
                let outs: Vec<JoinOutput> =
                    KERNELS.map(|k| run(&base.clone().with_kernel(k))).into();
                for out in &outs {
                    let mut got = out.pairs.to_vec();
                    got.sort_unstable();
                    prop_assert_eq!(&got, &expected, "{} seed={}", name, seed);
                }
                if let Some(groups) = groups {
                    let min_fixed = outs[..3].iter().map(|o| o.candidates).min().unwrap();
                    prop_assert!(
                        outs[3].candidates <= auto_bound(min_fixed, *groups),
                        "{}: auto did {} candidates vs best fixed {} over {} groups",
                        name, outs[3].candidates, min_fixed, groups
                    );
                }
            }
        }

        /// The self-join, same contract: exact pairs under every kernel and
        /// a bounded Auto.
        #[test]
        fn every_kernel_matches_brute_force_on_self_join(
            pts in points_in(20.0, 20.0, 140),
            eps in 0.3f64..1.0,
        ) {
            let input = to_records(&pts, 0);
            let expected = brute_force_self_pairs(&input, eps);
            let cluster = Cluster::new(ClusterConfig::new(4));
            let base = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), eps).with_partitions(8);
            let groups =
                Grid::new(GridSpec::with_factor(base.bbox, eps, base.grid_factor)).num_cells()
                    as u64;
            let outs: Vec<JoinOutput> = KERNELS
                .map(|k| self_join(&cluster, &base.clone().with_kernel(k), input.clone()).expect("join runs"))
                .into();
            for out in &outs {
                let mut got = out.pairs.to_vec();
                got.sort_unstable();
                prop_assert_eq!(&got, &expected);
            }
            let min_fixed = outs[..3].iter().map(|o| o.candidates).min().unwrap();
            prop_assert!(
                outs[3].candidates <= auto_bound(min_fixed, groups),
                "self-join: auto did {} candidates vs best fixed {} over {} groups",
                outs[3].candidates, min_fixed, groups
            );
        }
    }
}

mod extent_properties {
    use adaptive_spatial_join::geom::{Point, Polygon, Polyline, Rect, Shape};
    use adaptive_spatial_join::join::{
        brute_force_extent_pairs, extent_join, ExtentRecord, JoinSpec,
    };
    use adaptive_spatial_join::prelude::*;
    use proptest::prelude::*;

    fn arb_shape(extent: f64) -> impl Strategy<Value = Shape> {
        let point = (0.0..extent, 0.0..extent).prop_map(|(x, y)| Shape::Point(Point::new(x, y)));
        let line = (
            0.0..extent,
            0.0..extent,
            -2.0f64..2.0,
            -2.0f64..2.0,
            -2.0f64..2.0,
            -2.0f64..2.0,
        )
            .prop_map(move |(x, y, dx1, dy1, dx2, dy2)| {
                let clamp = |v: f64| v.clamp(0.0, extent);
                Shape::Polyline(Polyline::new(vec![
                    Point::new(x, y),
                    Point::new(clamp(x + dx1), clamp(y + dy1)),
                    Point::new(clamp(x + dx1 + dx2), clamp(y + dy1 + dy2)),
                ]))
            });
        let poly = (
            0.0..extent - 2.0,
            0.0..extent - 2.0,
            0.1f64..2.0,
            0.1f64..2.0,
        )
            .prop_map(|(x, y, w, h)| {
                Shape::Polygon(Polygon::from_rect(Rect::new(x, y, x + w, y + h)))
            });
        prop_oneof![point, line, poly]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The distributed extent join equals brute force on random mixed
        /// shapes, for random ε and cluster widths.
        #[test]
        fn extent_join_matches_brute_force(
            shapes_a in prop::collection::vec(arb_shape(25.0), 40),
            shapes_b in prop::collection::vec(arb_shape(25.0), 40),
            eps in 0.2f64..1.2,
            nodes in 1usize..6,
        ) {
            let a: Vec<ExtentRecord> = shapes_a
                .into_iter()
                .enumerate()
                .map(|(i, s)| ExtentRecord::new(i as u64, s))
                .collect();
            let b: Vec<ExtentRecord> = shapes_b
                .into_iter()
                .enumerate()
                .map(|(i, s)| ExtentRecord::new(i as u64, s))
                .collect();
            let expected = brute_force_extent_pairs(&a, &b, eps);
            let cluster = Cluster::new(ClusterConfig::new(nodes));
            let spec =
                JoinSpec::new(Rect::new(0.0, 0.0, 25.0, 25.0), eps).with_partitions(12);
            let out = extent_join(&cluster, &spec, a, b).expect("join runs");
            let mut got = out.pairs.to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }
}

mod knn_properties {
    use adaptive_spatial_join::geom::{Point, Rect};
    use adaptive_spatial_join::join::{brute_force_knn, knn_join, to_records, JoinSpec};
    use adaptive_spatial_join::prelude::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The distributed kNN join equals brute force for random clouds,
        /// k values and cluster widths.
        #[test]
        fn knn_join_matches_brute_force(
            r_pts in prop::collection::vec((0.0f64..22.0, 0.0f64..22.0), 30),
            s_pts in prop::collection::vec((0.0f64..22.0, 0.0f64..22.0), 1..80),
            k in 1usize..8,
            nodes in 1usize..5,
        ) {
            let r = to_records(
                &r_pts.iter().map(|&(x, y)| Point::new(x, y)).collect::<Vec<_>>(), 0);
            let s = to_records(
                &s_pts.iter().map(|&(x, y)| Point::new(x, y)).collect::<Vec<_>>(), 0);
            let expected = brute_force_knn(&r, &s, k);
            let cluster = Cluster::new(ClusterConfig::new(nodes));
            let spec = JoinSpec::new(Rect::new(0.0, 0.0, 22.0, 22.0), 1.0).with_partitions(8);
            let out = knn_join(&cluster, &spec, k, r, s).expect("join runs");
            let got: Vec<(u64, Vec<u64>)> = out
                .neighbors
                .iter()
                .map(|(q, ns)| (*q, ns.iter().map(|(id, _)| *id).collect()))
                .collect();
            prop_assert_eq!(got, expected);
        }
    }
}

mod shuffle_accounting {
    use adaptive_spatial_join::engine::{
        ExplicitPartitioner, HashPartitioner, KeyedDataset, Recorder,
    };
    use adaptive_spatial_join::prelude::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The shuffle's byte meter must balance exactly: every record is
        /// charged once, split into remote/local by placement, and lands in
        /// exactly one target partition. The identities hold for any cluster
        /// width, partition count and key → partition map.
        #[test]
        fn shuffle_byte_accounting_is_exact(
            nodes in 1usize..6,
            partitions in 1usize..24,
            kvs in prop::collection::vec((0u64..64, 0u64..1_000_000), 0..400),
            assigns in prop::collection::vec(0usize..1000, 64),
        ) {
            let cluster = Cluster::new(ClusterConfig::new(nodes));
            let src_parts = 4;
            let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); src_parts];
            for (i, kv) in kvs.iter().enumerate() {
                parts[i % src_parts].push(*kv);
            }
            let data = KeyedDataset::from_partitions(parts);

            let hash = HashPartitioner::new(partitions);
            let (out_h, stats_h, _) = data.clone().shuffle_stage(&cluster, &hash, "shuffle").expect("shuffle runs");
            prop_assert_eq!(stats_h.remote_bytes + stats_h.local_bytes, stats_h.total_bytes());
            prop_assert_eq!(stats_h.partition_bytes.iter().sum::<u64>(), stats_h.total_bytes());
            prop_assert_eq!(stats_h.records as usize, kvs.len());
            prop_assert_eq!(out_h.len(), kvs.len());

            // An explicit (LPT-style) partitioner with arbitrary placements
            // moves exactly the same records and bytes — only the
            // remote/local split and the per-partition footprints may differ.
            let map: HashMap<u64, usize> = (0u64..64)
                .map(|k| (k, assigns[k as usize] % partitions))
                .collect();
            let explicit = ExplicitPartitioner::new(map, partitions);
            let (out_e, stats_e, _) = data.clone().shuffle_stage(&cluster, &explicit, "shuffle").expect("shuffle runs");
            prop_assert_eq!(stats_e.records, stats_h.records);
            prop_assert_eq!(stats_e.total_bytes(), stats_h.total_bytes());
            prop_assert_eq!(stats_e.remote_bytes + stats_e.local_bytes, stats_e.total_bytes());
            prop_assert_eq!(stats_e.partition_bytes.iter().sum::<u64>(), stats_e.total_bytes());
            prop_assert_eq!(out_e.len(), kvs.len());

            // With a recorder attached, the metrics registry mirrors the
            // ShuffleStats fields under the stage name.
            let traced = cluster.with_recorder(Recorder::for_nodes(nodes));
            let (_, stats_t, _) = data.shuffle_stage(&traced, &hash, "shuffle.test").expect("shuffle runs");
            let m = traced.recorder().metrics();
            prop_assert_eq!(m.counter("shuffle.test", "remote_bytes"), Some(stats_t.remote_bytes));
            prop_assert_eq!(m.counter("shuffle.test", "local_bytes"), Some(stats_t.local_bytes));
            prop_assert_eq!(m.counter("shuffle.test", "records"), Some(stats_t.records));
            let h = m.histogram("shuffle.test", "partition_bytes").unwrap();
            prop_assert_eq!(h.count as usize, partitions);
            prop_assert_eq!(h.sum as u64, stats_t.total_bytes());
        }
    }
}
