use crate::pipeline::{cells_within_eps, join_points, midpoint_in_cell, run_plan, JoinPlan};
use crate::{JoinError, JoinInput, JoinOutput, JoinSpec, Record, RecordPayload};
use asj_engine::{Cluster, ExecStats, HashPartitioner};
use asj_grid::{Grid, GridSpec};
use std::time::Duration;

/// PBSM with **both** inputs replicated and the *reference-point duplicate
/// avoidance* technique of Dittrich & Seeger \[5\] — the classic MASJ
/// alternative the paper's related-work section contrasts against
/// agreement-based replication.
///
/// Every point of both sets is assigned to each cell within ε, so a result
/// pair may be co-located in up to 4 cells. Instead of deduplicating after
/// the join, each pair is reported only by the cell that contains the pair's
/// *reference point* — the midpoint of the two points. The midpoint is
/// within `d(r,s)/2 ≤ ε/2` of both endpoints, so both are guaranteed to be
/// replicated into that cell, and exactly one cell contains it: correct and
/// duplicate-free, at the price of replicating *both* inputs.
pub fn pbsm_refpoint_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    r: impl Into<JoinInput<Record<P>>>,
    s: impl Into<JoinInput<Record<P>>>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
    let broadcast_bytes = grid.broadcast_bytes();
    let grid_b = cluster.broadcast(grid);
    let assign = cells_within_eps(grid_b.clone());
    let keep = |cell, a, b| midpoint_in_cell(&grid_b, cell, a, b);
    let plan = JoinPlan {
        name: "PBSM+refpoint".to_string(),
        sink: &spec.sink,
        assign_r: &assign,
        assign_s: &assign,
        partitioner: &HashPartitioner::new(spec.num_partitions),
        local_join: &join_points(spec, Some(&keep)),
        broadcast_bytes,
        driver: Duration::ZERO,
        sampling: ExecStats::default(),
    };
    run_plan(
        cluster,
        r.into().partitioned(spec),
        s.into().partitioned(spec),
        plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pbsm_join, to_records, ReplicateSide};
    use asj_engine::ClusterConfig;
    use asj_geom::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn records(n: usize, seed: u64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..18.0), rng.gen_range(0.0..18.0)))
            .collect();
        to_records(&pts, 0)
    }

    #[test]
    fn matches_brute_force() {
        let c = Cluster::new(ClusterConfig::with_threads(4, 2));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 18.0, 18.0), 1.0).with_partitions(8);
        let r = records(400, 61);
        let s = records(400, 62);
        let expected = crate::oracle::brute_force_pairs(&r, &s, spec.eps);
        let out = pbsm_refpoint_join(&c, &spec, r, s).expect("join runs");
        let mut got = out.pairs.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(out.algorithm, "PBSM+refpoint");
        assert!(
            out.metrics.broadcast_bytes > 0,
            "grid broadcast must be metered"
        );
    }

    #[test]
    fn replicates_both_sides_and_more_than_single_side_pbsm() {
        let c = Cluster::new(ClusterConfig::with_threads(4, 2));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 18.0, 18.0), 1.0)
            .with_partitions(8)
            .counting_only();
        let r = records(500, 63);
        let s = records(500, 64);
        let refp = pbsm_refpoint_join(&c, &spec, r.clone(), s.clone()).expect("join runs");
        assert!(
            refp.replicated[0] > 0 && refp.replicated[1] > 0,
            "both sides replicate"
        );
        let single = pbsm_join(&c, &spec, ReplicateSide::R, r, s).expect("join runs");
        assert!(
            refp.replicated_total() > single.replicated_total(),
            "MASJ with both sides replicated must move more copies"
        );
        assert_eq!(refp.result_count, single.result_count);
    }

    #[test]
    fn pair_on_cell_border_is_reported_once() {
        // Pair whose midpoint lies exactly on a cell border: the half-open
        // cell convention must attribute it to exactly one cell.
        let c = Cluster::new(ClusterConfig::with_threads(2, 1));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0).with_partitions(4);
        // Cells of side 2.5: border at x = 2.5; midpoint = (2.5, 1.0).
        let r = to_records(&[Point::new(2.2, 1.0)], 0);
        let s = to_records(&[Point::new(2.8, 1.0)], 0);
        let out = pbsm_refpoint_join(&c, &spec, r, s).expect("join runs");
        assert_eq!(out.pairs.to_vec(), vec![(0, 0)]);
    }
}
