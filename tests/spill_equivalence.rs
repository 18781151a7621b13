//! Property tests for memory-governed execution: a per-node budget may force
//! shuffle buckets through disk spill segments, but it must never change a
//! single byte of any result — partitions, their order, and every
//! `ShuffleStats` field stay identical to an unbudgeted run — while the
//! enforced invariant `peak_memory_bytes <= budget` holds on every node.
//! Alongside, the `partition_bytes` histogram is pinned to ground truth: each
//! entry equals the summed encoded size of the records that actually landed
//! in that partition, for every algorithm and under seeded fault retries.
//! Spilled blocks stay on disk until read: a reduce task that reads its
//! partition's blocks in place sees exactly the rows materialising the
//! partition gives, in the same order.

use adaptive_spatial_join::engine::{
    Block, Cluster, ClusterConfig, FaultPlan, HashPartitioner, KeyedDataset, RetryPolicy,
    ShuffleStats, ShuffledDataset, Wire,
};
use adaptive_spatial_join::join::{to_records, Algorithm, JoinSpec, Record};
use adaptive_spatial_join::prelude::*;
use proptest::prelude::*;

/// Records are `(key, (tag, payload))`: a variable-length payload exercises
/// the byte metering and the spill codec beyond fixed-size records.
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

/// Splits records into `parts` chunks round-robin (deterministic, uneven).
fn into_partitions(recs: Vec<Rec>, parts: usize) -> Vec<Vec<Rec>> {
    let mut out: Vec<Vec<Rec>> = (0..parts).map(|_| Vec::new()).collect();
    for (i, r) in recs.into_iter().enumerate() {
        out[i % parts].push(r);
    }
    out
}

/// The shuffle's partitions, checked two ways: each read in place as its
/// reduce task reads it (`fetch`, spilled blocks decoded from disk) equals
/// the materialised partition (`into_rows`), element order included.
fn rows(shuffled: ShuffledDataset<u64, (u64, Vec<u8>)>) -> Result<Vec<Vec<Rec>>, TestCaseError> {
    let in_place: Vec<Vec<Rec>> = shuffled
        .partitions()
        .iter()
        .map(|part| part.fetch().expect("blocks read back").concat())
        .collect();
    let rows = shuffled
        .into_rows()
        .expect("blocks read back")
        .into_partitions();
    prop_assert_eq!(&in_place, &rows);
    Ok(rows)
}

/// Ground truth for one shuffled partition: the summed wire size of the
/// records that actually landed there.
fn landed_bytes(part: &[Rec]) -> u64 {
    part.iter()
        .map(|(k, v)| k.encoded_size() as u64 + v.encoded_size() as u64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Budgeted execution is invisible in the results: whatever fraction of
    /// the natural peak the budget allows, the shuffle produces the same
    /// partitions in the same order with the same stats — spilling more and
    /// more of the data through disk as the budget shrinks — and no node's
    /// peak ever exceeds the budget.
    #[test]
    fn budgeted_shuffle_is_byte_identical(
        recs in records(64),
        sources in 1usize..7,
        targets in 1usize..25,
        nodes in 1usize..6,
        budget_pct in 1u64..120,
    ) {
        let parts = into_partitions(recs, sources);
        let p = HashPartitioner::new(targets);
        let free = Cluster::new(ClusterConfig::with_threads(nodes, 2));
        let (df, sf, ef) = KeyedDataset::from_partitions(parts.clone())
            .shuffle_stage(&free, &p, "shuffle").expect("shuffle runs");
        prop_assert_eq!(ef.spilled_bytes, 0, "no budget, nothing spills");

        let budget = (ef.peak_memory_bytes * budget_pct / 100).max(1);
        let tight = Cluster::new(ClusterConfig::with_threads(nodes, 2))
            .with_memory_budget(budget);
        let (dt, st, et) = KeyedDataset::from_partitions(parts).shuffle_stage(&tight, &p, "shuffle").expect("shuffle runs");
        prop_assert_eq!(&st, &sf, "ShuffleStats are spill-agnostic");
        prop_assert_eq!(rows(dt)?, rows(df)?, "spilling must not change results");
        prop_assert!(
            et.peak_memory_bytes <= budget,
            "peak {} exceeds budget {}", et.peak_memory_bytes, budget
        );
        for peak in tight.memory_accountant().snapshot().per_node_peak {
            prop_assert!(peak <= budget, "node peak {} exceeds budget {}", peak, budget);
        }
        // A budget meaningfully below the natural peak must actually deny
        // something (and therefore spill) whenever any bytes moved at all.
        if budget_pct <= 50 && ef.peak_memory_bytes > 1 && sf.total_bytes() > 0 {
            prop_assert!(
                et.spilled_bytes > 0,
                "budget {} under natural peak {} must spill",
                budget, ef.peak_memory_bytes
            );
        }
    }

    /// Spilling composes with fault recovery: failed attempts abandon their
    /// ledgers and spill files, retried attempts redo both, and the output
    /// still matches an undisturbed unbudgeted run byte for byte — while the
    /// spilled bytes, denials and per-node peaks match the clean budgeted
    /// run's.
    #[test]
    fn budgeted_shuffle_survives_injected_faults(
        recs in records(48),
        sources in 2usize..6,
        targets in 1usize..13,
        nodes in 2usize..5,
        seed in any::<u64>(),
        fail_task in 0usize..6,
        budget_pct in 5u64..60,
    ) {
        let parts = into_partitions(recs, sources);
        let p = HashPartitioner::new(targets);
        let free = Cluster::new(ClusterConfig::with_threads(nodes, 2));
        let (dc, sc, ef) = KeyedDataset::from_partitions(parts.clone()).shuffle_stage(&free, &p, "shuffle").expect("shuffle runs");
        let budget = (ef.peak_memory_bytes * budget_pct / 100).max(1);

        let plan = FaultPlan::none()
            .with_seed(seed)
            .with_stage_fail_prob("shuffle", 0.2)
            .with_fail_point("shuffle", fail_task % sources, 1);
        let clean = Cluster::new(ClusterConfig::with_threads(nodes, 2))
            .with_memory_budget(budget);
        KeyedDataset::from_partitions(parts.clone()).shuffle_stage(&clean, &p, "shuffle").expect("shuffle runs");
        let faulty = Cluster::new(ClusterConfig::with_threads(nodes, 2))
            .with_memory_budget(budget)
            .with_fault_policy(plan, RetryPolicy::default().with_max_attempts(8));
        let (df, sf, ex) = KeyedDataset::from_partitions(parts).shuffle_stage(&faulty, &p, "shuffle").expect("shuffle runs");
        prop_assert_eq!(sf, sc);
        prop_assert_eq!(rows(df)?, rows(dc)?);
        prop_assert!(ex.peak_memory_bytes <= budget);
        prop_assert_eq!(
            faulty.memory_accountant().snapshot(),
            clean.memory_accountant().snapshot(),
            "loser attempts' ledgers must not count"
        );
    }

    /// `partition_bytes` is ground truth, not an estimate: every entry equals
    /// the summed encoded size of the records that landed in that partition —
    /// with and without a budget, and under seeded fault retries.
    #[test]
    fn partition_bytes_match_landed_records(
        recs in records(32),
        sources in 1usize..6,
        targets in 1usize..17,
        nodes in 1usize..5,
        seed in any::<u64>(),
        budgeted in any::<bool>(),
    ) {
        let parts = into_partitions(recs, sources);
        let p = HashPartitioner::new(targets);
        let mut cluster = Cluster::new(ClusterConfig::with_threads(nodes, 2))
            .with_fault_policy(
                FaultPlan::none().with_seed(seed).with_stage_fail_prob("shuffle", 0.15),
                RetryPolicy::default().with_max_attempts(8),
            );
        if budgeted {
            cluster = cluster.with_memory_budget(64);
        }
        let (ds, stats, _) = KeyedDataset::from_partitions(parts).shuffle_stage(&cluster, &p, "shuffle").expect("shuffle runs");
        let shuffled = rows(ds)?;
        prop_assert_eq!(shuffled.len(), targets);
        prop_assert_eq!(stats.partition_bytes.len(), targets);
        for (t, part) in shuffled.iter().enumerate() {
            prop_assert_eq!(
                stats.partition_bytes[t],
                landed_bytes(part),
                "partition {} bytes must equal its landed records", t
            );
        }
        prop_assert_eq!(
            stats.partition_bytes.iter().sum::<u64>(),
            stats.total_bytes(),
            "histogram sums to the total shuffle volume"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocks stay where the map tasks wrote them, in memory or spilled, and
    /// reading them in place is invisible: under budgets down to one byte
    /// (everything spills) and seeded `p=` / `oom:` plans, every partition
    /// read in place equals the unbudgeted, undisturbed run's rows.
    #[test]
    fn blocks_read_in_place_equal_materialised_rows(
        recs in records(64),
        sources in 1usize..7,
        targets in 1usize..25,
        nodes in 1usize..6,
        // 0 means unbudgeted.
        budget in prop_oneof![Just(0u64), Just(1u64), 2u64..2048],
        seed in any::<u64>(),
        oom_task in 0usize..6,
    ) {
        let parts = into_partitions(recs, sources);
        let p = HashPartitioner::new(targets);
        let free = Cluster::new(ClusterConfig::with_threads(nodes, 2));
        let (df, sf, _) = KeyedDataset::from_partitions(parts.clone()).shuffle_stage(&free, &p, "shuffle").expect("shuffle runs");
        let plan = FaultPlan::parse(&format!("p=0.1,oom:shuffle:{}@1", oom_task % sources), seed).expect("plan parses");
        let mut tight = Cluster::new(ClusterConfig::with_threads(nodes, 2))
            .with_fault_policy(plan, RetryPolicy::default().with_max_attempts(8));
        if budget > 0 {
            tight = tight.with_memory_budget(budget);
        }
        let (dt, st, et) = KeyedDataset::from_partitions(parts).shuffle_stage(&tight, &p, "shuffle").expect("shuffle runs");
        prop_assert_eq!(&st, &sf);
        let spilled = dt.partitions().iter().flat_map(|part| part.blocks()).filter(|b| matches!(b, Block::Spilled { .. })).count();
        prop_assert_eq!(spilled > 0, et.spilled_bytes > 0, "spilled blocks are what went to disk");
        if budget == 1 {
            prop_assert!(
                dt.partitions().iter().flat_map(|part| part.blocks()).all(|b| matches!(b, Block::Spilled { .. })),
                "a one-byte budget admits nothing"
            );
        }
        prop_assert_eq!(rows(dt)?, rows(df)?);
    }
}

/// Join-algorithm level: the full pipelines report the same results and the
/// same `partition_bytes` histogram whether shuffles run under seeded fault
/// retries and a sub-peak memory budget or undisturbed and unbudgeted (the
/// histogram itself is pinned to the landed records by
/// `partition_bytes_match_landed_records` above).
fn uniform_records(n: usize, seed: u64, extent: f64, payload: usize) -> Vec<Record> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
        .collect();
    to_records(&pts, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn algorithms_report_ground_truth_partition_bytes(
        seed in 0u64..1000,
        algo_idx in 0usize..7,
    ) {
        // `Algorithm::ALL` plus `LpibDedup`: the dedup variant is excluded
        // from perf sweeps but its post-join dedup stage must still honour
        // the shuffle/spill equivalence contract.
        let algo = if algo_idx < Algorithm::ALL.len() {
            Algorithm::ALL[algo_idx]
        } else {
            Algorithm::LpibDedup
        };
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 12.0, 12.0), 0.8)
            .with_partitions(8)
            .with_sample_fraction(0.3)
            .with_seed(seed);
        let r = uniform_records(120, seed.wrapping_mul(3), 12.0, 8);
        let s = uniform_records(120, seed.wrapping_mul(5).wrapping_add(1), 12.0, 8);

        let plan = FaultPlan::none()
            .with_seed(seed)
            .with_stage_fail_prob("shuffle.R", 0.2)
            .with_fail_point("shuffle.S", 0, 1);
        let tight = Cluster::new(ClusterConfig::with_threads(3, 2))
            .with_memory_budget(4 * 1024)
            .with_fault_policy(plan, RetryPolicy::default().with_max_attempts(8));
        let free = Cluster::new(ClusterConfig::with_threads(3, 2));

        let out_r = algo.try_run(&tight, &spec, r.clone(), s.clone()).expect("join runs");
        let out_l = algo.try_run(&free, &spec, r, s).expect("join runs");
        prop_assert_eq!(out_r.result_count, out_l.result_count, "{}", algo.name());
        let mut pr = out_r.pairs.to_vec();
        let mut pl = out_l.pairs.to_vec();
        pr.sort_unstable();
        pl.sort_unstable();
        prop_assert_eq!(pr, pl);
        prop_assert_eq!(
            &out_r.metrics.shuffle.partition_bytes,
            &out_l.metrics.shuffle.partition_bytes,
            "{}", algo.name()
        );
        let sh: &ShuffleStats = &out_r.metrics.shuffle;
        prop_assert_eq!(sh.partition_bytes.iter().sum::<u64>(), sh.total_bytes());
        prop_assert!(out_r.metrics.peak_memory_bytes() <= 4 * 1024);
    }
}
