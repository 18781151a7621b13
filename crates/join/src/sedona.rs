use crate::pipeline::map_stage;
use crate::{JoinError, JoinOutput, JoinSpec, Record};
use asj_engine::{Cluster, Dataset, ExecStats, JobMetrics, Partitioner};
use asj_index::{kernels, QuadTreePartitioner};
use std::time::Instant;

/// The Sedona-like baseline of §7.1: the join runs in three phases —
/// **QuadTree space partitioning** built on the driver from a sample of the
/// input with the fewest objects, **per-leaf local indexing** of each
/// partition, and **join computation** through the shared
/// [`kernels::local_join`] entry point (so `spec.kernel` is honored here
/// exactly like everywhere else; `Auto` typically resolves quadtree leaves —
/// whose extent dwarfs ε — to the ε-bucket grid, the moral equivalent of
/// Sedona's per-partition R-tree probe).
///
/// The sampled (smaller) set is the replicated one: each of its points is
/// assigned to every quadtree leaf intersecting its ε-disk; the larger set
/// is single-assigned, which keeps results duplicate-free. Each leaf is one
/// join partition — the paper attributes Sedona's slowness to exactly these
/// "quite large partitions", which reduce replication but blow up the
/// per-partition candidate work.
pub fn sedona_like_join(
    cluster: &Cluster,
    spec: &JoinSpec,
    r: Vec<Record>,
    s: Vec<Record>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    let r_is_small = r.len() <= s.len();
    let rdd_r = Dataset::from_vec(r, spec.input_partitions);
    let rdd_s = Dataset::from_vec(s, spec.input_partitions);
    let mut construction = ExecStats::default();

    // Phase 1: sample the smaller set and build the QuadTree partitioner on
    // the driver.
    let (sample, ex) = if r_is_small {
        rdd_r.try_sample(cluster, spec.sample_fraction, spec.seed)
    } else {
        rdd_s.try_sample(cluster, spec.sample_fraction, spec.seed)
    }?;
    construction.accumulate(&ex);
    let driver_start = Instant::now();
    let sample_points: Vec<asj_geom::Point> = sample.iter().map(|rec| rec.point).collect();
    // Leaf capacity chosen so the leaf count lands near the configured
    // partition count (Sedona sizes its quadtree from the partition target).
    let capacity = (sample_points.len() / spec.num_partitions.max(1)).max(1);
    let qt = QuadTreePartitioner::build(spec.bbox, &sample_points, capacity, 12);
    let broadcast_bytes = qt.broadcast_bytes();
    let driver = driver_start.elapsed();
    let qt_b = cluster.broadcast(qt);

    // Phase 1b: route both sets to leaves (the smaller one replicated).
    let eps = spec.eps;
    let replicated_assign = {
        let qt_b = qt_b.clone();
        move |p: asj_geom::Point, cells: &mut Vec<u64>, _: &mut Vec<asj_grid::CellCoord>| {
            let mut leaves = Vec::with_capacity(4);
            qt_b.leaves_within(p, eps, &mut leaves);
            let native = qt_b.leaf_of(p);
            cells.push(native as u64);
            cells.extend(
                leaves
                    .into_iter()
                    .filter(|&l| l != native)
                    .map(|l| l as u64),
            );
        }
    };
    let single_assign = {
        let qt_b = qt_b.clone();
        move |p: asj_geom::Point, cells: &mut Vec<u64>, _: &mut Vec<asj_grid::CellCoord>| {
            cells.push(qt_b.leaf_of(p) as u64);
        }
    };

    let (keyed_r, rep_r, ex) = if r_is_small {
        map_stage(cluster, rdd_r, &replicated_assign)
    } else {
        map_stage(cluster, rdd_r, &single_assign)
    }?;
    construction.accumulate(&ex);
    let (keyed_s, rep_s, ex) = if r_is_small {
        map_stage(cluster, rdd_s, &single_assign)
    } else {
        map_stage(cluster, rdd_s, &replicated_assign)
    }?;
    construction.accumulate(&ex);

    // Shuffle both sides by leaf id: one partition per leaf.
    let leaf_partitioner = LeafPartitioner {
        leaves: qt_b.num_leaves(),
    };
    let (keyed_r, sh_r, ex_r) = keyed_r.shuffle_stage(cluster, &leaf_partitioner, "shuffle")?;
    let (keyed_s, sh_s, ex_s) = keyed_s.shuffle_stage(cluster, &leaf_partitioner, "shuffle")?;
    let mut shuffle = sh_r;
    shuffle.merge(&sh_s);
    construction.accumulate(&ex_r);
    construction.accumulate(&ex_s);

    // Phase 2+3: per leaf, run the shared local-join entry point (honoring
    // `spec.kernel`; `Auto` consults the calibrated cost model with the
    // leaf group's measured extent).
    let collect = spec.collect_pairs;
    let kernel = spec.kernel;
    let model = cluster.kernel_cost_model(kernels::calibrate_cost_model);
    type LeafTasks = Vec<(Vec<(u64, Record)>, Vec<(u64, Record)>)>;
    let tasks: LeafTasks = keyed_r
        .into_partitions()
        .into_iter()
        .zip(keyed_s.into_partitions())
        .collect();
    let (pair_parts, join_exec) = cluster.run_stage("task", tasks, |_, (rs, ss)| {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let outcome = kernels::local_join(
            kernel,
            &model,
            eps,
            false,
            &rs,
            &ss,
            |(_, rec)| rec.point,
            |(_, rec)| rec.point,
            |i, j| {
                if collect {
                    out.push((rs[i].1.id, ss[j].1.id));
                }
            },
        );
        // Counts travel with the task result (per-attempt, committed once) —
        // shared atomics would double-count retried attempts.
        (out, outcome.stats.candidates, outcome.stats.results)
    })?;

    Ok(JoinOutput {
        algorithm: "Sedona".to_string(),
        pairs: pair_parts
            .iter()
            .flat_map(|(out, _, _)| out)
            .copied()
            .collect(),
        result_count: pair_parts.iter().map(|(_, _, r)| r).sum(),
        candidates: pair_parts.iter().map(|(_, c, _)| c).sum(),
        replicated: [rep_r, rep_s],
        metrics: JobMetrics {
            shuffle,
            construction,
            join: join_exec,
            driver,
            broadcast_bytes,
        },
    })
}

/// Identity partitioner: leaf id = partition id.
struct LeafPartitioner {
    leaves: usize,
}

impl Partitioner<u64> for LeafPartitioner {
    fn num_partitions(&self) -> usize {
        self.leaves
    }

    fn partition_of(&self, key: &u64) -> usize {
        debug_assert!((*key as usize) < self.leaves);
        *key as usize
    }
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
        Cluster::new(ClusterConfig::with_threads(4, 2))
    }

    fn clustered_records(n: usize, seed: u64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    Point::new(
                        5.0 + rng.gen_range(-2.0..2.0),
                        5.0 + rng.gen_range(-2.0..2.0),
                    )
                } else {
                    Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0))
                }
            })
            .collect();
        to_records(&pts, 0)
    }

    #[test]
    fn matches_brute_force() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.8)
            .with_partitions(16)
            .with_sample_fraction(0.5);
        let r = clustered_records(350, 21);
        let s = clustered_records(500, 22);
        let expected = crate::oracle::brute_force_pairs(&r, &s, spec.eps);
        let out = sedona_like_join(&c, &spec, r, s).expect("join runs");
        let mut got = out.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(out.algorithm, "Sedona");
        assert!(
            out.metrics.broadcast_bytes > 0,
            "quadtree broadcast must be metered"
        );
    }

    #[test]
    fn replicates_only_smaller_side() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.8).with_sample_fraction(0.5);
        let r = clustered_records(200, 23); // smaller
        let s = clustered_records(600, 24);
        let out = sedona_like_join(&c, &spec, r, s).expect("join runs");
        assert_eq!(out.replicated[1], 0, "larger side must be single-assigned");
        // The swap case.
        let r = clustered_records(600, 25);
        let s = clustered_records(200, 26); // smaller
        let out = sedona_like_join(&c, &spec, r, s).expect("join runs");
        assert_eq!(out.replicated[0], 0);
    }
}
