use crate::pipeline::map_stage;
use crate::{JoinError, JoinOutput, JoinSpec, Record};
use asj_engine::{Cluster, Dataset, ExecStats, HashPartitioner, JobMetrics};
use asj_grid::{Grid, GridSpec};
use asj_index::kernels;

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
pub fn pbsm_refpoint_join(
    cluster: &Cluster,
    spec: &JoinSpec,
    r: Vec<Record>,
    s: Vec<Record>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
    let broadcast_bytes = grid.broadcast_bytes();
    let rdd_r = Dataset::from_vec(r, spec.input_partitions);
    let rdd_s = Dataset::from_vec(s, spec.input_partitions);
    let mut construction = ExecStats::default();

    let grid_b = cluster.broadcast(grid);
    let assign = {
        let grid_b = grid_b.clone();
        move |p: asj_geom::Point, cells: &mut Vec<u64>, scratch: &mut Vec<asj_grid::CellCoord>| {
            scratch.clear();
            scratch.push(grid_b.cell_of(p));
            grid_b.push_cells_within_eps(p, scratch);
            cells.extend(scratch.iter().map(|&c| grid_b.cell_index(c) as u64));
        }
    };
    let (keyed_r, rep_r, ex) = map_stage(cluster, rdd_r, &assign)?;
    construction.accumulate(&ex);
    let (keyed_s, rep_s, ex) = map_stage(cluster, rdd_s, &assign)?;
    construction.accumulate(&ex);

    let partitioner = HashPartitioner::new(spec.num_partitions);
    let (keyed_r, sh_r, ex_r) = keyed_r.shuffle_stage(cluster, &partitioner, "shuffle")?;
    let (keyed_s, sh_s, ex_s) = keyed_s.shuffle_stage(cluster, &partitioner, "shuffle")?;
    let mut shuffle = sh_r;
    shuffle.merge(&sh_s);
    construction.accumulate(&ex_r);
    construction.accumulate(&ex_s);

    let eps = spec.eps;
    let collect = spec.collect_pairs;
    let kernel = spec.kernel;
    let model = cluster.kernel_cost_model(kernels::calibrate_cost_model);
    // Per-partition count accumulators, committed with the task result (a
    // retried attempt would double-count shared atomics). The secondary sort
    // feeds each cell group to the kernel already in ascending-x order.
    let (joined, counts, join_exec) = keyed_r.cogroup_join_sorted_fold(
        cluster,
        keyed_s,
        |r: &Record| r.point.x,
        |s: &Record| s.point.x,
        |cell, rs: &[Record], ss: &[Record], out: &mut Vec<(u64, u64)>, acc: &mut (u64, u64)| {
            let mut local_results = 0u64;
            let outcome = kernels::local_join(
                kernel,
                &model,
                eps,
                true,
                rs,
                ss,
                |r| r.point,
                |s| s.point,
                |i, j| {
                    // Reference-point test: report only in the cell holding
                    // the midpoint of the pair.
                    let mid = asj_geom::Point::new(
                        (rs[i].point.x + ss[j].point.x) * 0.5,
                        (rs[i].point.y + ss[j].point.y) * 0.5,
                    );
                    if grid_b.cell_index(grid_b.cell_of(mid)) as u64 == cell {
                        local_results += 1;
                        if collect {
                            out.push((rs[i].id, ss[j].id));
                        }
                    }
                },
            );
            acc.0 += outcome.stats.candidates;
            acc.1 += local_results;
        },
    )?;

    Ok(JoinOutput {
        algorithm: "PBSM+refpoint".to_string(),
        pairs: joined.collect(),
        result_count: counts.iter().map(|c| c.1).sum(),
        candidates: counts.iter().map(|c| c.0).sum(),
        replicated: [rep_r, rep_s],
        metrics: JobMetrics {
            shuffle,
            construction,
            join: join_exec,
            driver: std::time::Duration::ZERO,
            broadcast_bytes,
        },
    })
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
        let mut got = out.pairs.clone();
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
        assert_eq!(out.pairs, vec![(0, 0)]);
    }
}
