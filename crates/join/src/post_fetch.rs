use crate::{adaptive_join, JoinError, JoinOutput, JoinSpec, Payload, Record};
use asj_core::AgreementPolicy;
use asj_engine::{Cluster, Dataset, HashPartitioner, KeyedDataset};

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
    r: Vec<Record>,
    s: Vec<Record>,
) -> Result<JoinOutput, JoinError> {
    // Attribute tables stay behind (id → payload handle, the bytes are not
    // copied), the join sees bare tuples.
    let split = |recs: Vec<Record>| -> (Vec<Record>, Vec<(u64, Payload)>) {
        let rows = recs.into_iter();
        rows.map(|rec| (rec.stripped(), (rec.id, rec.payload)))
            .unzip()
    };
    let (r_bare, r_attrs) = split(r);
    let (s_bare, s_attrs) = split(s);

    let mut collect_spec = spec.clone();
    collect_spec.collect_pairs = true;
    let mut out = adaptive_join(cluster, &collect_spec, policy, r_bare, s_bare)?;

    // --- Post-processing: fetch attributes with two id-joins. ---
    let partitioner = HashPartitioner::new(spec.num_partitions);

    // Join 1: pairs (keyed by r.id) ⋈ R attributes. Both id-join inputs are
    // split across the spec's input partitions — a single-partition dataset
    // would put every map task of the extra shuffles on node 0 and serialize
    // exactly the post-processing the paper measures.
    let pairs_by_rid = KeyedDataset::from_partitions(
        Dataset::from_vec(out.pairs.clone(), spec.input_partitions).into_partitions(),
    );
    let r_table = KeyedDataset::from_partitions(
        Dataset::from_vec(r_attrs, spec.input_partitions).into_partitions(),
    );
    let (pairs_by_rid, sh, ex) = pairs_by_rid.shuffle_stage(cluster, &partitioner, "shuffle")?;
    out.metrics.shuffle.merge(&sh);
    out.metrics.join.accumulate(&ex);
    let (r_table, sh, ex) = r_table.shuffle_stage(cluster, &partitioner, "shuffle")?;
    out.metrics.shuffle.merge(&sh);
    out.metrics.join.accumulate(&ex);
    let (half, _, ex) = pairs_by_rid.cogroup_join_fold(
        cluster,
        r_table,
        |rid,
         sids: &[u64],
         payloads: &[Payload],
         out: &mut Vec<(u64, (u64, Payload))>,
         _acc: &mut ()| {
            for &sid in sids {
                for payload in payloads {
                    out.push((sid, (rid, payload.clone())));
                }
            }
        },
    )?;
    out.metrics.join.accumulate(&ex);

    // Join 2: half-enriched rows (keyed by s.id) ⋈ S attributes.
    let half = KeyedDataset::from_partitions(half.into_partitions());
    let s_table = KeyedDataset::from_partitions(
        Dataset::from_vec(s_attrs, spec.input_partitions).into_partitions(),
    );
    let (half, sh, ex) = half.shuffle_stage(cluster, &partitioner, "shuffle")?;
    out.metrics.shuffle.merge(&sh);
    out.metrics.join.accumulate(&ex);
    let (s_table, sh, ex) = s_table.shuffle_stage(cluster, &partitioner, "shuffle")?;
    out.metrics.shuffle.merge(&sh);
    out.metrics.join.accumulate(&ex);
    // Enrichment counts fold into per-partition accumulators (retry-safe).
    let (_, fold_counts, ex) = half.cogroup_join_fold(
        cluster,
        s_table,
        |_sid,
         halves: &[(u64, Payload)],
         payloads: &[Payload],
         _out: &mut Vec<()>,
         acc: &mut (u64, u64)| {
            for (_, rpay) in halves {
                for spay in payloads {
                    acc.0 += 1;
                    acc.1 += (rpay.len() + spay.len()) as u64;
                }
            }
        },
    )?;
    out.metrics.join.accumulate(&ex);

    let enriched: u64 = fold_counts.iter().map(|c| c.0).sum();
    assert_eq!(
        enriched, out.result_count,
        "every result pair must be enriched exactly once"
    );
    out.algorithm = format!("{}+post-fetch", policy.name());
    if !spec.collect_pairs {
        out.pairs = Vec::new();
    }
    Ok(out)
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
        let recorder = asj_obs::Recorder::for_nodes(4);
        let c = Cluster::new(ClusterConfig::with_threads(4, 2)).with_recorder(recorder.clone());
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
        let fetched =
            adaptive_join_post_fetch(&c, &spec, AgreementPolicy::Lpib, r, s).expect("join runs");
        assert_eq!(fetched.result_count as usize, expected.len());
        assert_eq!(fetched.result_count, inline.result_count);
        assert_eq!(fetched.algorithm, "LPiB+post-fetch");
        // The post-processing joins shuffle extra data on top of the spatial
        // join's own shuffle.
        assert!(fetched.metrics.shuffle.total_bytes() > inline.metrics.shuffle.total_bytes());
        // The id-join inputs are split across input partitions, so their map
        // tasks (the only stages named plain "shuffle") must land on more
        // than one simulated node — the old single-partition inputs pinned
        // all of them to node 0.
        let trace = recorder.snapshot();
        let id_join_nodes: std::collections::BTreeSet<_> = trace
            .spans
            .iter()
            .filter(|sp| sp.stage == "shuffle")
            .map(|sp| sp.lane)
            .collect();
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
