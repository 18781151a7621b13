use crate::pipeline::{join_points, run_plan, Assign, JoinPlan};
use crate::{JoinError, JoinInput, JoinOutput, JoinSpec, Record, RecordPayload};
use asj_engine::{Cluster, Partitioner};
use asj_grid::CellCoord;
use asj_index::QuadTreePartitioner;

/// The Sedona-like baseline of §7.1 as a plan on the shared pipeline:
/// **QuadTree space partitioning** built on the driver from a sample of the
/// input with the fewest objects, one join partition per quadtree **leaf**,
/// and the **join computation** of every other grid algorithm — each leaf's
/// two sides become x-sorted lanes and go through the shared kernel layer, so
/// `spec.kernel` is honored here exactly like everywhere else (`Auto`
/// typically resolves quadtree leaves — whose extent dwarfs ε — to the
/// ε-bucket grid, the moral equivalent of Sedona's per-partition index
/// probe).
///
/// The sampled (smaller) set is the replicated one: each of its points is
/// assigned to every quadtree leaf intersecting its ε-disk; the larger set
/// is single-assigned, which keeps results duplicate-free. The paper
/// attributes Sedona's slowness to exactly these "quite large partitions",
/// which reduce replication but blow up the per-partition candidate work.
pub fn sedona_like_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    r: impl Into<JoinInput<Record<P>>>,
    s: impl Into<JoinInput<Record<P>>>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    let (r, s) = (r.into().partitioned(spec), s.into().partitioned(spec));
    let r_is_small = r.rows.len() <= s.rows.len();

    // Sample the smaller set and build the QuadTree partitioner on the
    // driver.
    let (sample, sampling) = cluster
        .recorder()
        .clone()
        .phase_attrs("sampling", |attrs| {
            let small = if r_is_small { &r } else { &s };
            let (sample, ex) = small.sample_points(cluster, spec.sample_fraction, spec.seed)?;
            *attrs = attrs.records(sample.len() as u64);
            Ok::<_, JoinError>((sample, ex))
        })?;
    let (qt, driver) = cluster.driver_phase("quadtree", |attrs| {
        let sample_points = sample;
        // Leaf capacity chosen so the leaf count lands near the configured
        // partition count (Sedona sizes its quadtree from the partition
        // target). The quadtree holds all the shuffle needs of the sample.
        let capacity = (sample_points.len() / spec.num_partitions.max(1)).max(1);
        let qt = QuadTreePartitioner::build(spec.bbox, &sample_points, capacity, 12);
        *attrs = attrs.cells(qt.num_leaves() as u64);
        qt
    });
    let broadcast_bytes = qt.broadcast_bytes();
    let qt_b = cluster.broadcast(qt);

    // Route both sets to leaves (the smaller one replicated).
    let eps = spec.eps;
    let replicated = |rec: &Record<P>, cells: &mut Vec<u64>, _: &mut Vec<CellCoord>| {
        let p = rec.point;
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
    };
    let single = |rec: &Record<P>, cells: &mut Vec<u64>, _: &mut Vec<CellCoord>| {
        cells.push(qt_b.leaf_of(rec.point) as u64);
    };
    let (assign_r, assign_s): (&Assign<Record<P>>, &Assign<Record<P>>) = if r_is_small {
        (&replicated, &single)
    } else {
        (&single, &replicated)
    };
    let plan = JoinPlan {
        name: "Sedona".to_string(),
        sink: &spec.sink,
        assign_r,
        assign_s,
        partitioner: &LeafPartitioner {
            leaves: qt_b.num_leaves(),
        },
        local_join: &join_points(spec, None),
        broadcast_bytes,
        driver,
        sampling,
    };
    run_plan(cluster, r, s, plan)
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
        let mut got = out.pairs.to_vec();
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
