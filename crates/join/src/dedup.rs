use crate::adaptive::agreement_join;
use crate::sink::Emitter;
use crate::{JoinError, JoinInput, JoinOutput, JoinSpec, PairSink, Record, RecordPayload};
use asj_core::{AgreementGraph, AgreementPolicy};
use asj_engine::{Cluster, HashPartitioner, KeyedDataset, Placement};

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
pub fn adaptive_join_dedup<P: RecordPayload>(
    cluster: &Cluster,
    spec: &JoinSpec,
    policy: AgreementPolicy,
    r: impl Into<JoinInput<Record<P>>>,
    s: impl Into<JoinInput<Record<P>>>,
) -> Result<JoinOutput, JoinError> {
    // Join with duplicates — no Algorithm 1, the graph keeps its
    // duplicate-producing triangles. The distinct operator needs the pairs
    // whatever the caller's sink, and this arm is only ever measured under
    // Spark-default cell placement.
    let mut join_spec = spec.clone().with_sink(PairSink::Collect);
    join_spec.placement = Placement::Hash;
    let (build, assign) = (AgreementGraph::build_unmarked, AgreementGraph::assign_naive);
    let mut out = agreement_join(
        cluster,
        &join_spec,
        policy,
        build,
        assign,
        r.into(),
        s.into(),
    )?;
    out.algorithm = format!("{}+dedup", policy.name());

    // Distributed distinct: shuffle pairs by their R id, then sort + dedup
    // each partition, which hands its distinct pairs to the caller's sink.
    let duplicated_count = out.result_count;
    let partitioner = HashPartitioner::new(spec.num_partitions);
    let window = spec.sink.window();
    let deduped_parts = cluster.recorder().clone().phase_attrs("dedup", |attrs| {
        let pairs = std::mem::take(&mut out.pairs).into_vec();
        let pair_data = KeyedDataset::from_partitions(vec![pairs]);
        let (pair_data, dedup_shuffle, ex) =
            pair_data.shuffle_stage(cluster, &partitioner, "dedup")?;
        out.metrics.shuffle.merge(&dedup_shuffle);
        out.metrics.join.accumulate(&ex);
        let distinct = |_, mut part: Vec<(u64, u64)>| {
            part.sort_unstable();
            part.dedup();
            let mut out = Emitter::new(&spec.sink);
            part.iter().for_each(|&(r, s)| out.emit(r, s));
            let (pairs, sink_part) = out.finish();
            Ok((pairs, (part.len() as u64, sink_part)))
        };
        let commit = |idx, part: &mut _| window.commit(idx, part);
        let parts = pair_data.into_rows()?.into_partitions();
        let (deduped_parts, ex) =
            cluster.try_run_stage_committing("dedup", parts, distinct, &commit)?;
        out.metrics.join.accumulate(&ex);
        *attrs = attrs.records(duplicated_count);
        Ok::<_, JoinError>(deduped_parts)
    })?;

    out.result_count = spec.sink.gather(deduped_parts, &mut out).iter().sum();
    out.candidates = out.candidates.max(duplicated_count);
    Ok(out)
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
        let mut a = clean.pairs.to_vec();
        let mut b = dedup.pairs.to_vec();
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
