use crate::pipeline::{for_each_cogroup, join_stage, Blocks, JoinStageOutput};
use crate::{
    adaptive_join, JoinError, JoinInput, JoinOutput, JoinSpec, NoPayload, PairSink, Payload, Record,
};
use asj_core::AgreementPolicy;
use asj_engine::{Cluster, Dataset, HashPartitioner, JobMetrics};
use std::convert::identity;

/// The Table-5 alternative for carrying non-spatial attributes: the spatial
/// join runs on **stripped tuples** (id + coordinates only), and the extra
/// attributes are fetched afterwards by two distributed id-joins — result
/// pairs ⋈ R on `r.id`, then ⋈ S on `s.id`.
///
/// The paper measures this post-processing to be ~3× slower than shipping
/// the attributes through the spatial join, because the result set is much
/// larger than the inputs and must be shuffled twice more.
pub fn adaptive_join_post_fetch(
    cluster: &Cluster,
    spec: &JoinSpec,
    policy: AgreementPolicy,
    r: impl Into<JoinInput<Record>>,
    s: impl Into<JoinInput<Record>>,
) -> Result<JoinOutput, JoinError> {
    spec.validate()?;
    // Attribute tables stay behind (id → payload handle, the bytes are not
    // copied), the join sees bare tuples; both keep the input's partitions.
    type Split = (Dataset<Record<NoPayload>>, Dataset<(u64, Payload)>);
    let split = |input: JoinInput<Record>| -> Result<Split, JoinError> {
        let parts = input.partitioned(spec).rows.try_into_partitions("input")?;
        let strip = |rec: Record| (rec.stripped(), (rec.id, rec.payload));
        let (bare, attrs): (Vec<Vec<_>>, Vec<Vec<_>>) = parts
            .into_iter()
            .map(|part| part.into_iter().map(strip).unzip())
            .unzip();
        Ok((
            Dataset::from_partitions(bare),
            Dataset::from_partitions(attrs),
        ))
    };
    let (r_bare, r_table) = split(r.into())?;
    let (s_bare, s_table) = split(s.into())?;

    let collect_spec = spec.clone().with_sink(PairSink::Collect);
    let mut out = adaptive_join(cluster, &collect_spec, policy, r_bare, s_bare)?;

    // --- Post-processing: fetch attributes with two id-joins. ---
    // Every id-join input is split across the spec's input partitions — a
    // single-partition dataset would put every map task of the extra
    // shuffles on node 0 and serialize exactly the post-processing the paper
    // measures. The rows are already keyed: the expansion is the identity.
    let partitioner = HashPartitioner::new(spec.num_partitions);
    let inputs = spec.input_partitions;

    // Join 1: pairs (keyed by r.id) ⋈ R attributes → rows keyed by s.id.
    let pairs_by_rid = (
        Dataset::from_vec(out.pairs.to_vec(), inputs),
        None,
        identity,
    );
    let r_table = (r_table, None, identity);
    let fetch_r = |pairs: &Blocks<'_, u64>, r: &Blocks<'_, Payload>| {
        let mut half: Vec<(u64, (u64, Payload))> = Vec::new();
        for_each_cogroup(pairs, r, |rid, sids, payloads| {
            for &&sid in sids {
                half.extend(payloads.iter().map(|&p| (sid, (rid, p.clone()))));
            }
        });
        (half, ())
    };
    let fetch_r = join_stage(
        cluster,
        pairs_by_rid,
        r_table,
        &partitioner,
        fetch_r,
        &|_, _| {},
    )?;
    account(&mut out.metrics, &fetch_r);

    // Join 2: half-enriched rows (keyed by s.id) ⋈ S attributes. The rows
    // stay in join 1's partitions; enrichment counts fold into
    // per-partition accumulators (retry-safe).
    let half = Dataset::from_partitions(fetch_r.parts.into_iter().map(|p| p.0).collect());
    let (half, s_table) = ((half, None, identity), (s_table, None, identity));
    let fetch_s = |rows: &Blocks<'_, (u64, Payload)>, s: &Blocks<'_, Payload>| {
        let mut enriched = 0u64;
        for_each_cogroup(rows, s, |_, rows, payloads| {
            enriched += (rows.len() * payloads.len()) as u64;
        });
        (Vec::<()>::new(), enriched)
    };
    let fetch_s = join_stage(cluster, half, s_table, &partitioner, fetch_s, &|_, _| {})?;
    account(&mut out.metrics, &fetch_s);

    let enriched: u64 = fetch_s.parts.iter().map(|p| p.1).sum();
    assert_eq!(
        enriched, out.result_count,
        "every result pair must be enriched exactly once"
    );
    out.algorithm = format!("{}+post-fetch", policy.name());
    spec.sink.take(std::mem::take(&mut out.pairs), &mut out);
    Ok(out)
}

/// Adds one id-join's shuffle volume and stage stats to the job's.
fn account<O, Acc>(metrics: &mut JobMetrics, stage: &JoinStageOutput<O, Acc>) {
    metrics.shuffle.merge(&stage.shuffle);
    metrics.join.accumulate(&stage.shuffle_exec);
    metrics.join.accumulate(&stage.join_exec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_records;
    use asj_engine::ClusterConfig;
    use asj_geom::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn post_fetch_enriches_every_pair() {
        let c = Cluster::new(ClusterConfig::with_threads(4, 2));
        // Only the post-fetch run is traced.
        let recorder = asj_obs::Recorder::for_nodes(4);
        let traced = c.clone().with_recorder(recorder.clone());
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0)
            .with_partitions(8)
            .with_sample_fraction(0.4);
        let mut rng = StdRng::seed_from_u64(91);
        let pts = |rng: &mut StdRng, n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
                .collect()
        };
        let r = to_records(&pts(&mut rng, 300), 64);
        let s = to_records(&pts(&mut rng, 300), 64);
        let expected = crate::oracle::brute_force_pairs(&r, &s, spec.eps);
        let inline = adaptive_join(&c, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())
            .expect("join runs");
        let fetched = adaptive_join_post_fetch(&traced, &spec, AgreementPolicy::Lpib, r, s)
            .expect("join runs");
        assert_eq!(fetched.result_count as usize, expected.len());
        assert_eq!(fetched.result_count, inline.result_count);
        assert_eq!(fetched.algorithm, "LPiB+post-fetch");
        // The post-processing joins shuffle extra data on top of the spatial
        // join's own shuffle.
        assert!(fetched.metrics.shuffle.total_bytes() > inline.metrics.shuffle.total_bytes());
        // The id-joins begin after the spatial join's local join has: their
        // map tasks are the `shuffle.R` / `shuffle.S` task spans that start
        // after its first `cogroup_join` task — one per input partition of
        // the pairs and of both attribute tables, one per join partition of
        // the half-enriched rows. Their inputs are split across partitions,
        // so those tasks must land on more than one simulated node — the old
        // single-partition inputs pinned all of them to node 0.
        let trace = recorder.snapshot();
        let tasks = || {
            let on_node = |sp: &&asj_obs::Span| matches!(sp.lane, asj_obs::Lane::Node(_));
            trace.spans.iter().filter(on_node)
        };
        let spatial_join = tasks()
            .filter(|sp| sp.stage == "cogroup_join")
            .map(|sp| sp.wall_start_ns)
            .min()
            .expect("the spatial join ran");
        let id_join_maps: Vec<_> = tasks()
            .filter(|sp| sp.stage.starts_with("shuffle.") && sp.wall_start_ns > spatial_join)
            .collect();
        assert_eq!(
            id_join_maps.len(),
            3 * spec.input_partitions + spec.num_partitions
        );
        let id_join_nodes: std::collections::BTreeSet<_> =
            id_join_maps.iter().map(|sp| sp.lane).collect();
        assert!(
            id_join_nodes.len() >= 2,
            "id-join map tasks must run on multiple nodes, saw {id_join_nodes:?}"
        );
        let busy_nodes = fetched
            .metrics
            .join
            .per_node_busy
            .iter()
            .filter(|d| !d.is_zero())
            .count();
        assert!(busy_nodes >= 2, "join phase busy on {busy_nodes} node(s)");
    }
}
