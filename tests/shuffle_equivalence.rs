//! Property tests: the shuffle (radix buckets, single-pass metering) is
//! observably identical to a sequential reference partitioner — same
//! partition contents in the same order, whether a reduce task reads its
//! blocks in place or the partition is materialised, same per-node and
//! per-partition byte accounting — for arbitrary keyed datasets, every
//! partitioner family, and under seeded fault injection (a retried
//! attempt's buckets must not leak into the output). The fused shuffle,
//! which keys its input inside the map tasks, is held to the same contract
//! against expand-then-shuffle.

use adaptive_spatial_join::engine::{
    Cluster, ClusterConfig, Dataset, ExplicitPartitioner, FaultPlan, HashPartitioner, KeyedDataset,
    Partitioner, RetryPolicy, RoundRobinPartitioner, ShuffleStats, ShuffledDataset, Wire,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Records are `(key, (tag, payload))`: a variable-length payload exercises
/// the byte metering beyond fixed-size records.
type Rec = (u64, (u64, Vec<u8>));

fn records(max_key: u64) -> impl Strategy<Value = Vec<Rec>> {
    prop::collection::vec(
        (
            0..max_key,
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..24),
        )
            .prop_map(|(k, tag, payload)| (k, (tag, payload))),
        0..400,
    )
}

/// Source elements of the fused shuffle: `(tag, payload)`.
type Src = (u64, Vec<u8>);

fn sources() -> impl Strategy<Value = Vec<Src>> {
    prop::collection::vec(
        (any::<u64>(), prop::collection::vec(any::<u8>(), 0..24)),
        0..300,
    )
}

/// A fused shuffle's expansion: each element becomes `tag % 4` keyed rows
/// (none at all for a quarter of them), keys in `0..64`.
fn expand(part: Vec<Src>) -> Vec<Rec> {
    let mut rows = Vec::new();
    for (tag, payload) in part {
        for i in 0..tag % 4 {
            let key = (tag / 4 + 11 * i) % 64;
            rows.push((key, (tag ^ i, payload.clone())));
        }
    }
    rows
}

/// Splits records into `parts` chunks round-robin (deterministic, uneven).
fn into_partitions<T>(recs: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
    for (i, r) in recs.into_iter().enumerate() {
        out[i % parts].push(r);
    }
    out
}

enum AnyPartitioner {
    Hash(HashPartitioner),
    RoundRobin(RoundRobinPartitioner),
    Explicit(ExplicitPartitioner),
}

impl AnyPartitioner {
    fn build(kind: u8, targets: usize, max_key: u64) -> AnyPartitioner {
        match kind % 4 {
            0 => AnyPartitioner::Hash(HashPartitioner::new(targets)),
            1 => AnyPartitioner::RoundRobin(RoundRobinPartitioner::new(targets)),
            k => {
                // Explicit LPT-style map over (most of) the key range: k == 2
                // builds the dense-table variant, k == 3 pins the hash-map
                // lookup, so the test covers both probe paths.
                let map: HashMap<u64, usize> = (0..max_key)
                    .filter(|key| key % 5 != 0)
                    .map(|key| (key, (key as usize * 7) % targets))
                    .collect();
                if k == 2 {
                    AnyPartitioner::Explicit(ExplicitPartitioner::new(map, targets))
                } else {
                    AnyPartitioner::Explicit(ExplicitPartitioner::new_sparse(map, targets))
                }
            }
        }
    }

    fn as_dyn(&self) -> &dyn Partitioner<u64> {
        match self {
            AnyPartitioner::Hash(p) => p,
            AnyPartitioner::RoundRobin(p) => p,
            AnyPartitioner::Explicit(p) => p,
        }
    }
}

fn run_shuffle(
    cluster: &Cluster,
    parts: Vec<Vec<Rec>>,
    p: &dyn Partitioner<u64>,
) -> (Vec<Vec<Rec>>, ShuffleStats) {
    let (ds, stats, _) = KeyedDataset::from_partitions(parts)
        .shuffle_stage(cluster, p, "shuffle")
        .expect("shuffle runs");
    (rows(ds), stats)
}

/// A shuffle's partitions, read in place the way a reduce task reads them —
/// which must give exactly the materialised rows, in the same order.
fn rows(shuffled: ShuffledDataset<u64, (u64, Vec<u8>)>) -> Vec<Vec<Rec>> {
    let in_place: Vec<Vec<Rec>> = shuffled
        .partitions()
        .iter()
        .map(|part| part.fetch().expect("blocks read back").concat())
        .collect();
    let rows = shuffled
        .into_rows()
        .expect("blocks read back")
        .into_partitions();
    assert_eq!(
        in_place, rows,
        "blocks read in place differ from the materialised rows"
    );
    rows
}

/// What a shuffle on `nodes` simulated nodes must produce, computed with none
/// of the engine's machinery: every record goes to `partition_of(key)`,
/// target partitions fill in source-partition order, and a record's encoded
/// size counts as local when source and target partition share a node
/// (partitions are bound to nodes round-robin), remote otherwise.
fn reference_shuffle(
    parts: Vec<Vec<Rec>>,
    p: &dyn Partitioner<u64>,
    nodes: usize,
) -> (Vec<Vec<Rec>>, ShuffleStats) {
    let targets = p.num_partitions();
    let mut out: Vec<Vec<Rec>> = (0..targets).map(|_| Vec::new()).collect();
    let mut stats = ShuffleStats {
        partition_bytes: vec![0; targets],
        ..ShuffleStats::default()
    };
    for (src, part) in parts.into_iter().enumerate() {
        for (k, v) in part {
            let t = p.partition_of(&k);
            let bytes = (k.encoded_size() + v.encoded_size()) as u64;
            if t % nodes == src % nodes {
                stats.local_bytes += bytes;
            } else {
                stats.remote_bytes += bytes;
            }
            stats.records += 1;
            stats.partition_bytes[t] += bytes;
            out[t].push((k, v));
        }
    }
    (out, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's shuffle and the reference agree exactly: same partitions
    /// (element order included), same remote/local/record tallies, same
    /// per-partition byte histogram.
    #[test]
    fn shuffle_equals_reference(
        recs in records(64),
        sources in 1usize..7,
        targets in 1usize..25,
        nodes in 1usize..6,
        kind in 0u8..4,
    ) {
        let parts = into_partitions(recs, sources);
        let p = AnyPartitioner::build(kind, targets, 64);
        let cluster = Cluster::new(ClusterConfig::with_threads(nodes, 2));
        let (parts_e, stats_e) = run_shuffle(&cluster, parts.clone(), p.as_dyn());
        let (parts_r, stats_r) = reference_shuffle(parts, p.as_dyn(), nodes);
        prop_assert_eq!(stats_e, stats_r);
        prop_assert_eq!(parts_e, parts_r);
    }

    /// A warm cluster changes nothing: shuffling twice on the same cluster
    /// matches a cold cluster.
    #[test]
    fn a_warm_cluster_is_invisible(
        recs in records(32),
        sources in 1usize..5,
        targets in 1usize..17,
        nodes in 1usize..5,
    ) {
        let parts = into_partitions(recs, sources);
        let p = HashPartitioner::new(targets);
        let warm = Cluster::new(ClusterConfig::with_threads(nodes, 2));
        let (first, _) = run_shuffle(&warm, parts.clone(), &p);
        let (second, stats_warm) = run_shuffle(&warm, parts.clone(), &p);
        prop_assert_eq!(&first, &second, "same input must reshuffle identically");
        let cold = Cluster::new(ClusterConfig::with_threads(nodes, 2));
        let (fresh, stats_cold) = run_shuffle(&cold, parts, &p);
        prop_assert_eq!(second, fresh);
        prop_assert_eq!(stats_warm, stats_cold);
    }

    /// Fault injection on the shuffle stage (seeded, with retries) leaves
    /// the output identical to the reference: a failed attempt's buckets are
    /// dropped, never re-filled.
    #[test]
    fn shuffle_survives_injected_faults(
        recs in records(48),
        sources in 2usize..6,
        targets in 1usize..13,
        nodes in 2usize..5,
        seed in any::<u64>(),
        fail_task in 0usize..6,
    ) {
        let parts = into_partitions(recs, sources);
        let p = HashPartitioner::new(targets);
        let plan = FaultPlan::none()
            .with_seed(seed)
            .with_stage_fail_prob("shuffle", 0.2)
            .with_fail_point("shuffle", fail_task % sources, 1);
        let faulty = Cluster::new(ClusterConfig::with_threads(nodes, 2))
            .with_fault_policy(plan, RetryPolicy::default().with_max_attempts(8));
        let (parts_f, stats_f) = run_shuffle(&faulty, parts.clone(), &p);
        let (parts_r, stats_r) = reference_shuffle(parts, &p, nodes);
        prop_assert_eq!(stats_f, stats_r);
        prop_assert_eq!(parts_f, parts_r);
    }

    /// Keying inside the shuffle's map tasks is invisible: the fused shuffle
    /// equals expanding every partition first and then shuffling the keyed
    /// rows — same partitions, same element order, same stats — for every
    /// partitioner family, under sub-peak budgets that force spilling, and
    /// under seeded failures and `oom:` points on the fused stage.
    #[test]
    fn fused_shuffle_equals_expand_then_shuffle(
        srcs in sources(),
        sources in 1usize..7,
        targets in 1usize..25,
        nodes in 1usize..6,
        kind in 0u8..4,
        // 0 means unbudgeted.
        budget in 0u64..4096,
        seed in any::<u64>(),
        oom_task in 0usize..6,
    ) {
        let parts = into_partitions(srcs, sources);
        let p = AnyPartitioner::build(kind, targets, 64);
        let plan = FaultPlan::none()
            .with_seed(seed)
            .with_stage_fail_prob("shuffle", 0.1)
            .with_oom_point("shuffle", oom_task % sources, 1);
        let mut fused_on = Cluster::new(ClusterConfig::with_threads(nodes, 2))
            .with_fault_policy(plan, RetryPolicy::default().with_max_attempts(8));
        if budget > 0 {
            fused_on = fused_on.with_memory_budget(budget);
        }
        let (fused, stats_f, _) = Dataset::from_partitions(parts.clone())
            .shuffle_stage_by(&fused_on, p.as_dyn(), "shuffle", expand)
            .expect("fused shuffle runs");
        let keyed: Vec<Vec<Rec>> = parts.into_iter().map(expand).collect();
        let plain = Cluster::new(ClusterConfig::with_threads(nodes, 2));
        let (parts_r, stats_r) = run_shuffle(&plain, keyed, p.as_dyn());
        prop_assert_eq!(stats_f, stats_r);
        prop_assert_eq!(rows(fused), parts_r);
    }
}
