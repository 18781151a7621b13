use crate::pipeline::{cells_within_eps, join_points, native_cell, run_plan, Assign, JoinPlan};
use crate::spec::Partitioned;
use crate::{JoinError, JoinInput, JoinOutput, JoinSpec, Record, RecordPayload};
use asj_engine::{Cluster, ExecStats, HashPartitioner};
use asj_grid::{Grid, GridSpec};
use std::time::Duration;

/// Which input PBSM replicates universally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicateSide {
    R,
    S,
}

impl ReplicateSide {
    pub fn name(self) -> &'static str {
        match self {
            ReplicateSide::R => "UNI(R)",
            ReplicateSide::S => "UNI(S)",
        }
    }
}

/// The PBSM adaptation of the paper's evaluation: a `2ε` grid (same
/// resolution as the adaptive algorithms) with **universal replication** of
/// one input — every point of the chosen set is copied to each cell within
/// distance ε; the other set is single-assigned. Partitions are distributed
/// with the hash partitioner, as in the paper.
pub fn pbsm_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    side: ReplicateSide,
    r: impl Into<JoinInput<Record<P>>>,
    s: impl Into<JoinInput<Record<P>>>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
    let (r, s) = (r.into().partitioned(spec), s.into().partitioned(spec));
    grid_baseline_join(cluster, spec, grid, side.name(), side, r, s)
}

/// The ε-grid baseline: `ε×ε` cells, replicating the input with the fewest
/// objects. The finer grid multiplies the number of cells a point is within
/// ε of, which is exactly the excessive-replication behaviour the paper
/// reports (up to 7.1× more replication, out-of-memory at large scales).
pub fn eps_grid_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    r: impl Into<JoinInput<Record<P>>>,
    s: impl Into<JoinInput<Record<P>>>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, 1.0));
    let (r, s) = (r.into().partitioned(spec), s.into().partitioned(spec));
    let side = if r.rows.len() <= s.rows.len() {
        ReplicateSide::R
    } else {
        ReplicateSide::S
    };
    grid_baseline_join(cluster, spec, grid, "eps-grid", side, r, s)
}

fn grid_baseline_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    grid: Grid,
    name: &str,
    side: ReplicateSide,
    r: Partitioned<Record<P>>,
    s: Partitioned<Record<P>>,
) -> Result<JoinOutput, JoinError> {
    let broadcast_bytes = grid.broadcast_bytes();
    let grid_b = cluster.broadcast(grid);
    let (replicated, single) = (cells_within_eps(grid_b.clone()), native_cell(grid_b));
    let (assign_r, assign_s): (&Assign<Record<P>>, &Assign<Record<P>>) = match side {
        ReplicateSide::R => (&replicated, &single),
        ReplicateSide::S => (&single, &replicated),
    };
    let plan = JoinPlan {
        name: name.to_string(),
        sink: &spec.sink,
        assign_r,
        assign_s,
        partitioner: &HashPartitioner::new(spec.num_partitions),
        local_join: &join_points(spec, None),
        broadcast_bytes,
        driver: Duration::ZERO,
        sampling: ExecStats::default(),
    };
    run_plan(cluster, r, s, plan)
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

    fn random_records(n: usize, seed: u64, extent: f64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
            .collect();
        to_records(&pts, 0)
    }

    #[test]
    fn pbsm_both_sides_match_brute_force() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0).with_partitions(8);
        let r = random_records(400, 11, 20.0);
        let s = random_records(400, 12, 20.0);
        let expected = crate::oracle::brute_force_pairs(&r, &s, spec.eps);
        for side in [ReplicateSide::R, ReplicateSide::S] {
            let out = pbsm_join(&c, &spec, side, r.clone(), s.clone()).expect("join runs");
            let mut got = out.pairs.to_vec();
            got.sort_unstable();
            assert_eq!(got, expected, "{}", side.name());
            assert!(
                out.metrics.broadcast_bytes > 0,
                "grid broadcast must be metered"
            );
        }
    }

    #[test]
    fn pbsm_replicates_only_chosen_side() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0).with_partitions(4);
        let r = random_records(300, 13, 20.0);
        let s = random_records(300, 14, 20.0);
        let out_r =
            pbsm_join(&c, &spec, ReplicateSide::R, r.clone(), s.clone()).expect("join runs");
        assert!(out_r.replicated[0] > 0, "R must be replicated");
        assert_eq!(out_r.replicated[1], 0, "S must not be replicated");
        let out_s = pbsm_join(&c, &spec, ReplicateSide::S, r, s).expect("join runs");
        assert_eq!(out_s.replicated[0], 0);
        assert!(out_s.replicated[1] > 0);
    }

    #[test]
    fn eps_grid_matches_brute_force_and_replicates_more() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0).with_partitions(8);
        let r = random_records(300, 15, 20.0);
        let s = random_records(350, 16, 20.0);
        let expected = crate::oracle::brute_force_pairs(&r, &s, spec.eps);
        let out = eps_grid_join(&c, &spec, r.clone(), s.clone()).expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert!(
            out.metrics.broadcast_bytes > 0,
            "grid broadcast must be metered"
        );
        // R is smaller, so R is the replicated side.
        assert!(out.replicated[0] > 0);
        assert_eq!(out.replicated[1], 0);
        // The finer grid replicates more than PBSM on the same data.
        let pbsm = pbsm_join(&c, &spec, ReplicateSide::R, r, s).expect("join runs");
        assert!(
            out.replicated[0] > pbsm.replicated[0],
            "eps-grid {} vs PBSM {}",
            out.replicated[0],
            pbsm.replicated[0]
        );
    }
}
