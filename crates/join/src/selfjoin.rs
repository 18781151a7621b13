use crate::pipeline::{cells_within_eps, expansion, midpoint_in_cell, point_at, shuffle_keyed};
use crate::sink::Emitter;
use crate::{JoinError, JoinInput, JoinOutput, JoinSpec, Pairs, Record, RecordPayload};
use asj_core::KernelCostModel;
use asj_engine::{Cluster, HashPartitioner, JobMetrics, ShuffledPartition};
use asj_grid::{Grid, GridSpec};
use asj_index::{kernels, PointBatch};

/// Distributed ε-distance **self-join**: all unordered pairs `{a, b}`,
/// `a.id < b.id`, of one dataset within distance ε — the MR-DSJ setting of
/// the paper's related work (Seidl et al.), implemented in the MASJ style
/// with reference-point duplicate avoidance.
///
/// Every point is shuffled once, keyed by *all* cells within ε of it; each
/// cell joins its points against themselves and a pair is reported only by
/// the cell containing the pair's midpoint (which both endpoints are always
/// replicated into, since `d/2 ≤ ε/2 < ε`).
pub fn self_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    input: impl Into<JoinInput<Record<P>>>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
    let broadcast_bytes = grid.broadcast_bytes();
    let input = input.into().partitioned(spec);

    let grid_b = cluster.broadcast(grid);
    let assign = cells_within_eps(grid_b.clone());
    let partitioner = HashPartitioner::new(spec.num_partitions);
    let expand = expansion(&assign);
    let (keyed, replicas, shuffle, construction) = cluster.recorder().phase("shuffle", || {
        shuffle_keyed(
            cluster,
            (input.rows, input.remake.as_ref()),
            expand,
            &partitioner,
            "shuffle",
        )
    })?;

    let (eps, kernel, sink) = (spec.eps, spec.kernel, &spec.sink);
    let model = KernelCostModel::default();
    // Each task fetches its shuffled partition in place — in-memory blocks
    // borrowed, spilled ones read and decoded by the task, an unreadable one
    // failing the attempt — turns it into one columnar batch — cell groups
    // in ascending-x lanes — and joins every group against itself. Counts
    // ride with the task result, so retried/speculative attempts cannot
    // double-count them; the sink takes each partition when it commits.
    let tasks: Vec<_> = keyed.partitions().iter().collect();
    let window = sink.window();
    let join = |_, part: &ShuffledPartition<u64, Record<P>>| {
        let batch = PointBatch::from_blocks(&part.fetch()?, |rec| rec.point, |rec| rec.id);
        let mut out = Emitter::new(sink);
        let (mut candidates, mut results) = (0u64, 0u64);
        for g in 0..batch.num_groups() {
            let (cell, pts, ids) = (batch.keys()[g], batch.group(g), batch.group_ids(g));
            let outcome = kernels::local_self_join(kernel, &model, eps, pts, |i, j| {
                let (a, b) = (ids[i], ids[j]);
                if a != b && midpoint_in_cell(&grid_b, cell, point_at(pts, i), point_at(pts, j)) {
                    results += 1;
                    out.emit(a.min(b), a.max(b));
                }
            });
            candidates += outcome.stats.candidates;
        }
        let (pairs, part) = out.finish();
        Ok((pairs, ((candidates, results), part)))
    };
    let commit = |idx, part: &mut _| window.commit(idx, part);
    let (folded, join_exec) =
        cluster.try_run_stage_committing("self_join", tasks, join, &commit)?;
    drop(keyed);

    let mut out = JoinOutput {
        algorithm: "self-join".to_string(),
        pairs: Pairs::default(),
        digest: Default::default(),
        result_count: 0,
        candidates: 0,
        replicated: [replicas, 0],
        metrics: JobMetrics {
            shuffle,
            construction,
            join: join_exec,
            driver: std::time::Duration::ZERO,
            broadcast_bytes,
        },
    };
    for (candidates, results) in sink.gather(folded, &mut out) {
        out.candidates += candidates;
        out.result_count += results;
    }
    Ok(out)
}

/// Brute-force self-join oracle: unordered pairs `(a.id < b.id)` within ε.
pub fn brute_force_self_pairs<P>(pts: &[Record<P>], eps: f64) -> Vec<(u64, u64)> {
    let e2 = eps * eps;
    let mut out = Vec::new();
    for (i, a) in pts.iter().enumerate() {
        for b in &pts[i + 1..] {
            if a.point.dist2(b.point) <= e2 {
                let (lo, hi) = if a.id < b.id {
                    (a.id, b.id)
                } else {
                    (b.id, a.id)
                };
                out.push((lo, hi));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_records;
    use asj_engine::ClusterConfig;
    use asj_geom::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_threads(3, 2))
    }

    #[test]
    fn matches_brute_force() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 16.0, 16.0), 0.9).with_partitions(8);
        let mut rng = StdRng::seed_from_u64(71);
        let pts: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0)))
            .collect();
        let recs = to_records(&pts, 0);
        let expected = brute_force_self_pairs(&recs, spec.eps);
        assert!(!expected.is_empty());
        let out = self_join(&c, &spec, recs).expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert!(out.candidates >= out.result_count);
        assert!(
            out.metrics.broadcast_bytes > 0,
            "grid broadcast must be metered"
        );
    }

    #[test]
    fn no_self_pairs_and_no_ordered_duplicates() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0).with_partitions(4);
        // Duplicate coordinates: ids differ, so they pair once.
        let recs = to_records(&[Point::new(1.0, 1.0), Point::new(1.0, 1.0)], 0);
        let out = self_join(&c, &spec, recs).expect("join runs");
        assert_eq!(out.pairs.to_vec(), vec![(0, 1)]);
    }

    #[test]
    fn dense_corner_cluster_still_exact() {
        // Points packed around an interior grid corner: maximum replication
        // overlap, worst case for the reference-point dedup.
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0).with_partitions(8);
        let mut rng = StdRng::seed_from_u64(73);
        let pts: Vec<Point> = (0..200)
            .map(|_| {
                Point::new(
                    2.5 + rng.gen_range(-1.2..1.2),
                    2.5 + rng.gen_range(-1.2..1.2),
                )
            })
            .collect();
        let recs = to_records(&pts, 0);
        let expected = brute_force_self_pairs(&recs, spec.eps);
        let out = self_join(&c, &spec, recs).expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
    }
}
