use crate::pipeline::{join_stage, map_stage};
use crate::{JoinError, JoinOutput, JoinSpec, Record};
use asj_core::{AgreementGraph, AgreementPolicy, GridSample, SetLabel};
use asj_engine::{Cluster, Dataset, HashPartitioner, JobMetrics, KeyedDataset};
use std::time::Instant;

/// The Table-6 variant: the *simplified, non-duplicate-free* assignment
/// (agreement types without edge marking/locking/supplementary areas) joined
/// as usual, followed by an explicit **distributed deduplication operator**
/// (Spark's `distinct`, run in parallel because collecting the result on the
/// driver "is infeasible for really large outputs").
///
/// The returned `result_count` is the deduplicated count; `candidates`
/// includes the duplicated work, and the dedup shuffle is folded into the
/// job's shuffle/join metrics — exactly the cost the paper measures to be
/// > 7× the duplicate-free approach.
pub fn adaptive_join_dedup(
    cluster: &Cluster,
    spec: &JoinSpec,
    policy: AgreementPolicy,
    r: Vec<Record>,
    s: Vec<Record>,
) -> Result<JoinOutput, JoinError> {
    let grid = crate::adaptive::agreement_grid(spec)?;
    let rdd_r = Dataset::from_vec(r, spec.input_partitions);
    let rdd_s = Dataset::from_vec(s, spec.input_partitions);
    let mut construction = asj_engine::ExecStats::default();

    let (sample_r, ex) = rdd_r.try_sample(cluster, spec.sample_fraction, spec.seed)?;
    construction.accumulate(&ex);
    let (sample_s, ex) = rdd_s.try_sample(cluster, spec.sample_fraction, spec.seed ^ 0x5151)?;
    construction.accumulate(&ex);

    let driver_start = Instant::now();
    let sample = GridSample::from_points(
        &grid,
        sample_r.iter().map(|rec| rec.point),
        sample_s.iter().map(|rec| rec.point),
    );
    // No Algorithm 1: the graph keeps its duplicate-producing triangles.
    let graph = AgreementGraph::build_unmarked(&grid, &sample, policy);
    let broadcast_bytes = graph.broadcast_bytes();
    let driver = driver_start.elapsed();

    let graph_b = cluster.broadcast(graph);
    let assign = |label: SetLabel| {
        let graph_b = graph_b.clone();
        move |p: asj_geom::Point, cells: &mut Vec<u64>, scratch: &mut Vec<asj_grid::CellCoord>| {
            graph_b.assign_naive(p, label, scratch);
            cells.extend(scratch.iter().map(|&c| graph_b.grid().cell_index(c) as u64));
        }
    };
    let (keyed_r, rep_r, ex) = map_stage(cluster, rdd_r, assign(SetLabel::R))?;
    construction.accumulate(&ex);
    let (keyed_s, rep_s, ex) = map_stage(cluster, rdd_s, assign(SetLabel::S))?;
    construction.accumulate(&ex);

    // Join with duplicates: pairs must be materialized for the distinct
    // operator regardless of `collect_pairs`.
    let mut collect_spec = spec.clone();
    collect_spec.collect_pairs = true;
    let partitioner = HashPartitioner::new(spec.num_partitions);
    let out = join_stage(cluster, &collect_spec, keyed_r, keyed_s, &partitioner)?;
    construction.accumulate(&out.shuffle_exec);

    // Distributed distinct: shuffle pairs by their R id, then sort + dedup
    // each partition.
    let duplicated_count = out.result_count;
    let mut shuffle = out.shuffle;
    let mut join_exec = out.join_exec;
    let deduped_parts = cluster.recorder().clone().phase_attrs("dedup", |attrs| {
        let pair_data =
            KeyedDataset::from_partitions(vec![out.pairs.into_iter().collect::<Vec<(u64, u64)>>()]);
        let (pair_data, dedup_shuffle, ex) =
            pair_data.shuffle_stage(cluster, &partitioner, "dedup")?;
        shuffle.merge(&dedup_shuffle);
        join_exec.accumulate(&ex);
        let (deduped_parts, ex) =
            cluster.run_stage("dedup", pair_data.into_partitions(), |_, mut part| {
                part.sort_unstable();
                part.dedup();
                part
            })?;
        join_exec.accumulate(&ex);
        *attrs = attrs.records(duplicated_count);
        Ok::<_, JoinError>(deduped_parts)
    })?;

    let result_count: u64 = deduped_parts.iter().map(|p| p.len() as u64).sum();
    let pairs: Vec<(u64, u64)> = if spec.collect_pairs {
        deduped_parts.into_iter().flatten().collect()
    } else {
        Vec::new()
    };

    Ok(JoinOutput {
        algorithm: format!("{}+dedup", policy.name()),
        pairs,
        result_count,
        candidates: out.candidates.max(duplicated_count),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{adaptive_join, to_records};
    use asj_engine::ClusterConfig;
    use asj_geom::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_threads(4, 2))
    }

    #[test]
    fn dedup_variant_matches_duplicate_free_results() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0)
            .with_partitions(8)
            .with_sample_fraction(0.4);
        let mut rng = StdRng::seed_from_u64(31);
        let pts = |rng: &mut StdRng, n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
                .collect()
        };
        let r = to_records(&pts(&mut rng, 400), 0);
        let s = to_records(&pts(&mut rng, 400), 0);
        let clean = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
            .expect("join runs");
        let dedup = adaptive_join_dedup(&c, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
        let mut a = clean.pairs.clone();
        let mut b = dedup.pairs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "dedup variant must produce the same result set");
        assert_eq!(dedup.algorithm, "LPiB+dedup");
        // The naive assignment should have produced at least as much work.
        assert!(dedup.candidates >= clean.result_count);
        assert!(
            dedup.metrics.broadcast_bytes > 0,
            "graph broadcast must be metered"
        );
    }
}
