use crate::pipeline::{join_points, run_plan, JoinPlan};
use crate::{JoinError, JoinInput, JoinOutput, JoinSpec, Record, RecordPayload};
use asj_core::{
    cell_costs, AgreementGraph, AgreementPolicy, GridSample, KernelCostModel, SetLabel,
};
use asj_engine::{
    Cluster, ExecStats, ExplicitPartitioner, HashPartitioner, Partitioner, Placement,
};
use asj_geom::Point;
use asj_grid::{CellCoord, Grid, GridSpec};

/// Smallest grid factor the agreement construction supports: cell sides must
/// exceed `2ε` so a record's neighborhood spans at most the 3×3 block that
/// Algorithms 2–4 reason about.
const MIN_AGREEMENT_FACTOR: f64 = 2.0;

/// The validated spec's grid, or [`JoinError::GridTooFine`] when its cells
/// cannot carry an agreement graph.
fn agreement_grid(spec: &JoinSpec) -> Result<Grid, JoinError> {
    spec.validate()?;
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
    if !grid.supports_agreements() {
        return Err(JoinError::GridTooFine {
            grid_factor: spec.grid_factor,
            min_factor: MIN_AGREEMENT_FACTOR,
        });
    }
    Ok(grid)
}

/// The paper's Algorithm 5: parallel ε-distance join with **adaptive
/// replication** (LPiB or DIFF instantiation of the graph of agreements).
///
/// Stages, with their metric attribution:
///
/// 1. **Grid determination** and input partitioning (driver, cheap).
/// 2. **Sampling** of both inputs (parallel; part of construction) and
///    **agreement-based grid construction** on the driver: the sampled
///    statistics instantiate the graph of agreements and Algorithm 1 makes
///    it duplicate-free (driver time).
/// 3. **Spatial mapping**: the broadcast graph assigns every record to cell
///    keys via Algorithms 2–4 (parallel; construction).
/// 4. **Shuffle** with hash or LPT cell placement (metered; construction).
/// 5. **Partition-local join** with immediate distance refinement (parallel;
///    join phase).
pub fn adaptive_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    policy: AgreementPolicy,
    r: impl Into<JoinInput<Record<P>>>,
    s: impl Into<JoinInput<Record<P>>>,
) -> Result<JoinOutput, JoinError> {
    let (build, assign) = (AgreementGraph::build, AgreementGraph::assign);
    agreement_join(cluster, spec, policy, build, assign, r.into(), s.into())
}

/// Stages 1–5 of [`adaptive_join`] over the graph `build` makes and `assign`
/// consults: with Algorithm 1's marking (duplicate-free, [`adaptive_join`])
/// or without it ([`adaptive_join_dedup`](crate::adaptive_join_dedup)).
pub(crate) fn agreement_join<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    policy: AgreementPolicy,
    build: fn(&Grid, &GridSample, AgreementPolicy) -> AgreementGraph,
    assign: fn(&AgreementGraph, Point, SetLabel, &mut Vec<CellCoord>),
    r: JoinInput<Record<P>>,
    s: JoinInput<Record<P>>,
) -> Result<JoinOutput, JoinError> {
    let grid = agreement_grid(spec)?;
    let (rdd_r, rdd_s) = (r.partitioned(spec), s.partitioned(spec));

    // --- Sampling (parallel) + graph construction (driver). ---
    let recorder = cluster.recorder().clone();
    let mut sampling = ExecStats::default();
    let (sample_r, sample_s) = recorder.phase_attrs("sampling", |attrs| {
        let (sample_r, ex) = rdd_r.try_sample(cluster, spec.sample_fraction, spec.seed)?;
        sampling.accumulate(&ex);
        let (sample_s, ex) = rdd_s.try_sample(cluster, spec.sample_fraction, spec.seed ^ 0x5151)?;
        sampling.accumulate(&ex);
        *attrs = attrs.records((sample_r.len() + sample_s.len()) as u64);
        Ok::<_, JoinError>((sample_r, sample_s))
    })?;

    let ((graph, partitioner, broadcast_bytes), driver) =
        cluster.driver_phase("agreement_graph", |attrs| {
            let sample = GridSample::from_points(
                &grid,
                sample_r.iter().map(|rec| rec.point),
                sample_s.iter().map(|rec| rec.point),
            );
            let graph = build(&grid, &sample, policy);
            *attrs = attrs.cells(grid.num_cells() as u64);

            // Cell placement: Spark-default hash, or LPT over sampled cell costs.
            let partitioner: Box<dyn Partitioner<u64>> = match spec.placement {
                Placement::Hash => Box::new(HashPartitioner::new(spec.num_partitions)),
                Placement::RoundRobin => {
                    Box::new(asj_engine::RoundRobinPartitioner::new(spec.num_partitions))
                }
                Placement::Lpt => {
                    let costs = cell_costs(
                        &graph,
                        sample_r.iter().map(|rec| &rec.point),
                        sample_s.iter().map(|rec| &rec.point),
                    );
                    // Cell weight = the cost model's prediction for the kernel
                    // that will actually run the cell (replicas can reach up
                    // to eps beyond the cell rectangle on each side), instead
                    // of the raw worst-case r*s product.
                    let model = KernelCostModel::default();
                    let (cell_w, cell_h) = grid.cell_side();
                    let (ext_w, ext_h) = (cell_w + 2.0 * spec.eps, cell_h + 2.0 * spec.eps);
                    let weighted: Vec<(u64, u64)> = costs
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            let w = model.lpt_weight(spec.kernel, c.r, c.s, spec.eps, ext_w, ext_h);
                            (i as u64, w)
                        })
                        .filter(|&(_, w)| w > 0)
                        .collect();
                    let map = asj_engine::lpt_assign(&weighted, spec.num_partitions);
                    Box::new(ExplicitPartitioner::new(map, spec.num_partitions))
                }
            };
            // The graph and the partitioner hold all the shuffle needs of the sample.
            drop((sample_r, sample_s));
            let broadcast_bytes = graph.broadcast_bytes();
            recorder.counter_add("agreement_graph", "broadcast_bytes", broadcast_bytes);
            // What Algorithm 1 could skip (one type on all six pairs) and could not.
            let uniform = graph.uniform_quartet_count() as u64;
            recorder.counter_add("agreement_graph", "uniform_quartets", uniform);
            let mixed = grid.num_quartets() as u64 - uniform;
            recorder.counter_add("agreement_graph", "mixed_quartets", mixed);
            (graph, partitioner, broadcast_bytes)
        });

    // --- Spatial mapping (Algorithms 2-4) on the broadcast graph, shuffle,
    // local join with refinement. ---
    let graph_b = cluster.broadcast(graph);
    let assign_as = |label: SetLabel| {
        let graph_b = graph_b.clone();
        move |rec: &Record<P>, cells: &mut Vec<u64>, scratch: &mut Vec<CellCoord>| {
            assign(&graph_b, rec.point, label, scratch);
            cells.extend(scratch.iter().map(|&c| graph_b.grid().cell_index(c) as u64));
        }
    };
    let (assign_r, assign_s) = (assign_as(SetLabel::R), assign_as(SetLabel::S));
    let plan = JoinPlan {
        name: policy.name().to_string(),
        sink: &spec.sink,
        assign_r: &assign_r,
        assign_s: &assign_s,
        partitioner: &*partitioner,
        local_join: &join_points(spec, None),
        broadcast_bytes,
        driver,
        sampling,
    };
    run_plan(cluster, rdd_r, rdd_s, plan)
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
    fn matches_brute_force_on_random_data() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0)
            .with_partitions(8)
            .with_sample_fraction(0.3);
        let r = random_records(400, 1, 20.0);
        let s = random_records(400, 2, 20.0);
        let expected = crate::oracle::brute_force_pairs(&r, &s, spec.eps);
        for policy in [AgreementPolicy::Lpib, AgreementPolicy::Diff] {
            let out = adaptive_join(&c, &spec, policy, r.clone(), s.clone()).expect("join runs");
            let mut got = out.pairs.to_vec();
            got.sort_unstable();
            assert_eq!(got, expected, "{}", policy.name());
            assert_eq!(out.result_count as usize, expected.len());
            assert!(out.candidates >= out.result_count);
        }
    }

    #[test]
    fn lpt_placement_keeps_results_identical() {
        let c = cluster();
        let base = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0)
            .with_partitions(8)
            .with_sample_fraction(0.5);
        let r = random_records(300, 3, 20.0);
        let s = random_records(300, 4, 20.0);
        let hash = adaptive_join(&c, &base, AgreementPolicy::Lpib, r.clone(), s.clone())
            .expect("join runs");
        let lpt = adaptive_join(
            &c,
            &base.clone().with_placement(Placement::Lpt),
            AgreementPolicy::Lpib,
            r,
            s,
        )
        .expect("join runs");
        let mut a = hash.pairs.to_vec();
        let mut b = lpt.pairs.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(hash.replicated, lpt.replicated);
    }

    #[test]
    fn counting_mode_skips_materialization() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0)
            .with_partitions(4)
            .counting_only();
        let r = random_records(200, 5, 20.0);
        let s = random_records(200, 6, 20.0);
        let expected = crate::oracle::brute_force_pairs(&r, &s, spec.eps);
        let out = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
        assert!(out.pairs.is_empty());
        assert_eq!(out.result_count as usize, expected.len());
    }

    #[test]
    fn too_fine_grid_is_a_typed_error() {
        let c = cluster();
        // grid_factor 1.0 puts cell sides below 2*eps: the agreement graph
        // cannot be built, and the caller — not this crate — picks the fix.
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0)
            .with_partitions(8)
            .with_grid_factor(1.0);
        let r = random_records(250, 9, 20.0);
        let s = random_records(250, 10, 20.0);
        let expected = crate::oracle::brute_force_pairs(&r, &s, spec.eps);
        let too_fine = JoinError::GridTooFine {
            grid_factor: 1.0,
            min_factor: 2.0,
        };
        for policy in [AgreementPolicy::Lpib, AgreementPolicy::Diff] {
            let err = adaptive_join(&c, &spec, policy, r.clone(), s.clone())
                .expect_err("grid_factor 1.0 must be rejected");
            assert_eq!(err, too_fine, "{}", policy.name());
            assert!(err.to_string().contains("grid_factor 1"));
        }
        // The dedup variant builds the same graph and rejects the same grid.
        let err =
            crate::adaptive_join_dedup(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
                .expect_err("the unmarked graph needs l > 2*eps too");
        assert_eq!(err, too_fine);
        // The smallest supported factor runs and is correct.
        let ok = adaptive_join(
            &c,
            &spec.clone().with_grid_factor(2.0),
            AgreementPolicy::Lpib,
            r,
            s,
        )
        .expect("grid_factor 2.0 is supported");
        let mut got = ok.pairs.into_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn metrics_are_populated() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0).with_partitions(4);
        let r = random_records(500, 7, 20.0);
        let s = random_records(500, 8, 20.0);
        let out = adaptive_join(&c, &spec, AgreementPolicy::Diff, r, s).expect("join runs");
        assert!(out.metrics.shuffle.records >= 1000, "all records shuffle");
        assert!(out.metrics.shuffle.total_bytes() > 0);
        assert!(out.metrics.simulated_time() > std::time::Duration::ZERO);
        assert!(out.metrics.wall_time() >= out.metrics.driver);
        assert!(
            out.metrics.broadcast_bytes > 0,
            "grid broadcast must be metered"
        );
        assert_eq!(out.algorithm, "DIFF");
    }
}
