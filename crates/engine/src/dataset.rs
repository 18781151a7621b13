use crate::clock::timed;
use crate::cluster::Cluster;
use crate::fault::{JobError, TaskError};
use crate::memory::{
    decode_records, encode_records_into, encode_rows_into, Ledger, SpillSegment, SpillWriter,
};
use crate::metrics::{ExecStats, ShuffleStats};
use crate::partitioner::Partitioner;
use crate::wire::Wire;
use asj_obs::{Attrs, Lane};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// A partitioned collection — the engine's RDD analog.
///
/// Partition `i` lives on simulated node [`Cluster::node_of_partition`]`(i)`,
/// in memory, or — where [`Ingest`] sent it there under a memory budget —
/// on disk as a checksummed chunk, which the tasks that need its rows read
/// back.
/// Stage-running operators execute one task per partition on the cluster
/// pool, report per-node [`ExecStats`] and return a [`JobError`] when a task
/// exhausts its attempts.
///
/// # Example
///
/// ```
/// use asj_engine::{Cluster, ClusterConfig, Dataset, HashPartitioner, JobError};
///
/// # fn main() -> Result<(), JobError> {
/// let cluster = Cluster::new(ClusterConfig::new(4));
/// let data = Dataset::from_vec((0..1000u64).collect(), 8);
/// let (sampled, _) = data.try_sample(&cluster, 1.0, 7)?;
/// assert_eq!(sampled.len(), 1000);
/// let (shuffled, stats, _) =
///     data.shuffle_stage_by(&cluster, &HashPartitioner::new(16), "shuffle", |part| {
///         part.into_iter().map(|x| (x % 10, x)).collect()
///     })?;
/// assert_eq!(shuffled.len(), 1000);
/// assert!(stats.remote_bytes + stats.local_bytes > 0);
/// // A reduce task reads its partition's blocks where they are.
/// let blocks = shuffled.partitions()[3].fetch().expect("in-memory blocks");
/// assert!(blocks.concat().iter().all(|&(k, x)| k == x % 10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dataset<T> {
    parts: Vec<Vec<T>>,
    /// The partitions [`Ingest`] sent to disk, one chunk each: chunk `c`
    /// holds partition `chunks()[c].target`, whose `parts` slot is empty.
    on_disk: Option<Arc<SpillSegment>>,
}

/// The input split rule: `n` items cut into `parts` near-equal ranges, the
/// first `n % parts` one item longer. Partition `p` holds
/// `split(n, parts, p)`.
pub fn split(n: usize, parts: usize, p: usize) -> Range<usize> {
    let (base, extra) = (n / parts, n % parts);
    let start = |p: usize| p * base + p.min(extra);
    start(p)..start(p + 1)
}

// Elements are `Sync + Clone` (not just `Send`) because the fault-tolerant
// executor may re-run a partition task on another node — the engine's analog
// of Spark recomputing a partition from lineage.
impl<T: Send + Sync + Clone> Dataset<T> {
    /// Splits `data` into `partitions` near-equal chunks (like reading a file
    /// into fixed-size input splits), partition `p` holding
    /// [`split`]`(len, partitions, p)`.
    pub fn from_vec(data: Vec<T>, partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let n = data.len();
        let mut data = data.into_iter();
        let parts = (0..partitions)
            .map(|p| data.by_ref().take(split(n, partitions, p).len()).collect())
            .collect();
        Dataset::from_partitions(parts)
    }

    /// Wraps pre-built partitions.
    pub fn from_partitions(parts: Vec<Vec<T>>) -> Self {
        assert!(!parts.is_empty(), "need at least one partition");
        Dataset {
            parts,
            on_disk: None,
        }
    }

    /// Total records across partitions, in memory and on disk.
    pub fn len(&self) -> usize {
        let on_disk = self.on_disk.as_deref().map_or(0, |segment| {
            segment.chunks().iter().map(|c| c.records as usize).sum()
        });
        self.parts.iter().map(Vec::len).sum::<usize>() + on_disk
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partitions' rows in memory. A partition on disk is empty here:
    /// the tasks of [`try_sample`](Self::try_sample) and
    /// [`shuffle_stage_by`](Self::shuffle_stage_by) read it back.
    pub fn partitions(&self) -> &[Vec<T>] {
        &self.parts
    }

    /// Consumes the dataset into its partitions' rows in memory; a partition
    /// on disk comes back empty (see [`try_into_partitions`](Self::try_into_partitions)).
    pub fn into_partitions(self) -> Vec<Vec<T>> {
        self.parts
    }

    /// The segment that holds the partitions [`Ingest`] sent to disk, if it
    /// sent any.
    pub fn on_disk(&self) -> Option<&SpillSegment> {
        self.on_disk.as_deref()
    }

    /// Partition `p`'s chunk, if [`Ingest`] sent it to disk.
    fn spilled(&self, p: usize) -> Option<Block<T>> {
        let segment = self.on_disk.as_ref()?;
        let chunk = segment.chunks().iter().position(|c| c.target == p)?;
        let segment = Arc::clone(segment);
        Some(Block::Spilled { segment, chunk })
    }

    /// Every partition as a [`Block`]: its rows, or its chunk on disk.
    fn into_blocks(self) -> Vec<Block<T>> {
        let on_disk: Vec<_> = (0..self.parts.len()).map(|p| self.spilled(p)).collect();
        let blocks = self.parts.into_iter().zip(on_disk);
        blocks
            .map(|(rows, spilled)| spilled.unwrap_or(Block::Rows(rows)))
            .collect()
    }
}

impl<T: Wire + Send + Sync + Clone> Dataset<T> {
    /// Consumes the dataset into its partitions, the ones on disk read back
    /// on the driver. A chunk that cannot be read fails with a [`JobError`]
    /// naming `stage` and the partition.
    pub fn try_into_partitions(self, stage: &str) -> Result<Vec<Vec<T>>, JobError> {
        let blocks = self.into_blocks().into_iter().enumerate();
        let read = |(task, block): (usize, Block<T>)| {
            block.into_rows().map_err(|error| JobError {
                stage: stage.to_string(),
                task,
                attempts: 1,
                error,
            })
        };
        blocks.map(read).collect()
    }

    /// Bernoulli sample of every partition, gathered on the driver — the
    /// `sample(φ).forEach(...)` step of Algorithm 5. Deterministic for a
    /// given `seed`. A partition on disk is read back inside its task, so a
    /// retry reads it again; a chunk that cannot be read fails the attempt
    /// with a [`TaskError::Spill`].
    pub fn try_sample(
        &self,
        cluster: &Cluster,
        fraction: f64,
        seed: u64,
    ) -> Result<(Vec<T>, ExecStats), JobError> {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let refs: Vec<&Vec<T>> = self.parts.iter().collect();
        let (sampled, stats) = cluster.try_run_stage("sample", refs, |idx, part| {
            let spilled = self.spilled(idx).map(Block::into_rows).transpose()?;
            let part = spilled.as_ref().unwrap_or(part);
            let mut rng = SmallRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0xA24B_AED4));
            Ok(part
                .iter()
                .filter(|_| rng.gen_bool(fraction))
                .cloned()
                .collect::<Vec<T>>())
        })?;
        Ok((sampled.into_iter().flatten().collect(), stats))
    }

    /// Infallible [`Dataset::try_sample`].
    ///
    /// # Panics
    /// Panics if the stage fails.
    #[deprecated(note = "frozen for benchmark/src/probe.rs; use try_sample")]
    #[allow(clippy::panic)]
    pub fn sample(&self, cluster: &Cluster, fraction: f64, seed: u64) -> (Vec<T>, ExecStats) {
        self.try_sample(cluster, fraction, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Repartitions by key, keying inside the shuffle's map tasks (Spark's
    /// `flatMapToPair` in the shuffle-map task): each task consumes its
    /// partition — a partition on disk is read back inside the task, so
    /// retries and speculative copies read it again —, `expand` turns it
    /// into keyed rows, and the task scatters
    /// them as `shuffle_stage` does and frees them. The rows never exist as a
    /// dataset. A checkpoint hit skips the expansion too; committed attempts'
    /// expansion time is recorded as `assign_ns`.
    ///
    /// The output is not stitched: each target partition is the list of its
    /// map tasks' blocks, which its reduce task reads in place
    /// ([`ShuffledPartition::fetch`]).
    pub fn shuffle_stage_by<K, V, P>(
        self,
        cluster: &Cluster,
        partitioner: &P,
        stage: &str,
        expand: impl Fn(Vec<T>) -> Vec<(K, V)> + Sync,
    ) -> Result<(ShuffledDataset<K, V>, ShuffleStats, ExecStats), JobError>
    where
        K: Wire + Send + Sync + Copy,
        V: Wire + Send + Sync + Clone,
        P: Partitioner<K> + ?Sized,
    {
        // Resumable when the cluster carries a checkpoint store: see
        // `Cluster::checkpointed` for the hit/miss/save protocol. A partition
        // saves as its rows' encoding, so a spilled block's chunk is copied
        // as it is; a restored partition is one in-memory block.
        let codec = (
            |part: &ShuffledPartition<K, V>, buf: &mut Vec<u8>| part.encode_into(buf),
            |bytes: &[u8], records| {
                decode_records(bytes, records)
                    .ok()
                    .map(ShuffledPartition::of_rows)
            },
        );
        let targets = partitioner.num_partitions();
        let (parts, shuffle, stats) = cluster.checkpointed(stage, targets, codec, || {
            self.radix_shuffle_stage(cluster, partitioner, stage, expand)
        })?;
        let stage = stage.to_string();
        Ok((ShuffledDataset { stage, parts }, shuffle, stats))
    }

    /// The map half of [`radix_shuffle_stage`](Self::radix_shuffle_stage):
    /// one task per source partition, expanding it into keyed rows and
    /// routing and metering them into per-target buckets (or spill segments
    /// where admission is denied).
    fn radix_map_stage<K, V, P>(
        self,
        cluster: &Cluster,
        partitioner: &P,
        stage: &str,
        expand: impl Fn(Vec<T>) -> Vec<(K, V)> + Sync,
    ) -> Result<(Vec<RadixMapOut<K, V>>, ExecStats), JobError>
    where
        K: Wire + Send + Sync + Copy,
        V: Wire + Send + Sync + Clone,
        P: Partitioner<K> + ?Sized,
    {
        let targets = partitioner.num_partitions();
        let task_nodes: Vec<usize> = (0..self.parts.len())
            .map(|src_idx| cluster.node_of_partition(src_idx))
            .collect();
        let ledgers = cluster.memory_accountant().ledgers(&task_nodes);
        let map = |src_idx: usize, part: Block<T>| {
            let part = part.into_rows()?;
            let src_node = task_nodes[src_idx];
            let mut ledger = ledgers[src_idx].clone();
            let mut shuffle = ShuffleStats {
                partition_bytes: vec![0u64; targets],
                ..ShuffleStats::default()
            };
            let (rows, expand_time) = timed(|| expand(part));
            let expand_ns = expand_time.as_nanos() as u64;
            // Pass 1: route + meter. One partitioner probe and one
            // encoded_size per record, reused for node and partition
            // byte accounting. The routing scratch is charged too;
            // scratch cannot spill, so a denial here only counts against
            // the budget-denial telemetry while the buckets below remain
            // the real lever.
            ledger.admit(
                (rows.len() * std::mem::size_of::<u32>()) as u64,
                &[src_node],
            );
            let mut route: Vec<u32> = Vec::with_capacity(rows.len());
            let mut counts: Vec<usize> = vec![0; targets];
            for (k, v) in &rows {
                let t = partitioner.partition_of(k);
                debug_assert!(t < targets);
                let bytes = k.encoded_size() as u64 + v.encoded_size() as u64;
                if cluster.node_of_partition(t) == src_node {
                    shuffle.local_bytes += bytes;
                } else {
                    shuffle.remote_bytes += bytes;
                }
                shuffle.records += 1;
                shuffle.partition_bytes[t] += bytes;
                counts[t] += 1;
                route.push(t as u32);
            }
            // Admission: charge each non-empty target twice — bucket on
            // the source node, post-shuffle partition on the target's
            // node — against this task's own ledger. A target that does
            // not fit spills whole, so no node is ever driven past its
            // budget; spilling is the escape hatch, never an abort.
            let mut spill_targets: Vec<(usize, usize)> = Vec::new();
            for (t, count) in counts.iter_mut().enumerate() {
                if *count == 0 {
                    continue;
                }
                let dst_node = cluster.node_of_partition(t);
                if !ledger.admit(shuffle.partition_bytes[t], &[src_node, dst_node]) {
                    spill_targets.push((t, *count));
                    // Zero the histogram slot: a spilled target's bucket
                    // is a capacity-less `Vec` and costs nothing.
                    *count = 0;
                }
            }
            // Pass 2: scatter into exactly-sized buckets; spilled
            // targets encode straight into their wire buffer instead, so
            // the records never materialise in memory twice.
            let mut spill_bufs: Vec<Vec<u8>> = Vec::new();
            let mut spill_of: Vec<usize> = Vec::new();
            if !spill_targets.is_empty() {
                spill_bufs = spill_targets.iter().map(|_| Vec::new()).collect();
                spill_of = vec![usize::MAX; targets];
                for (slot, &(t, _)) in spill_targets.iter().enumerate() {
                    spill_of[t] = slot;
                }
            }
            let mut buckets: Vec<Vec<(K, V)>> = counts
                .iter()
                .map(|&count| Vec::with_capacity(count))
                .collect();
            for ((k, v), &t) in rows.into_iter().zip(&route) {
                let t = t as usize;
                match spill_of.get(t) {
                    Some(&slot) if slot != usize::MAX => {
                        k.encode(&mut spill_bufs[slot]);
                        v.encode(&mut spill_bufs[slot]);
                    }
                    _ => buckets[t].push((k, v)),
                }
            }
            // Seal this attempt's spill file. An I/O failure on it fails
            // the attempt with a typed, retriable task error.
            let spill = if spill_targets.is_empty() {
                None
            } else {
                let write = || {
                    let mut writer = SpillWriter::create()?;
                    for (slot, &(t, count)) in spill_targets.iter().enumerate() {
                        writer.write_chunk(t, &spill_bufs[slot], count as u64)?;
                    }
                    writer.finish()
                };
                write().map_err(|e| TaskError::Spill(format!("writing a segment: {e}")))?
            };
            let spilled_bytes = spill.as_ref().map_or(0, SpillSegment::total_bytes);
            Ok(RadixMapOut {
                buckets,
                shuffle,
                spill,
                spilled_bytes,
                expand_ns,
                ledger,
            })
        };
        // Unbilled: the shuffle is billed once its commit has set the
        // stage's spilled bytes and memory peak.
        cluster.dispatch(stage, self.into_blocks(), map, &|_, _| {})
    }

    /// Radix shuffle: each map task expands its partition into keyed rows
    /// and routes them in two passes — pass 1 computes every record's target
    /// once, sizing it once (`encoded_size`) for *both* the node-level
    /// remote/local split and the per-target partition accounting, and builds
    /// a per-target histogram; pass 2 scatters records into exactly-sized
    /// buckets, consuming the rows. Nothing is stitched: a map task's bucket
    /// *is* its block of the target partition, as in Spark's sort-based
    /// shuffle, where map output stays where it was written until the reduce
    /// task fetches it.
    ///
    /// Memory governance: between the passes every non-empty target is
    /// admitted against the task's own [`Ledger`], its fixed share of every
    /// node's budget ([`MemoryAccountant::ledgers`](crate::MemoryAccountant::ledgers))
    /// — the map-side bucket charged to the source node and the post-shuffle
    /// partition charged to the target's node, both at wire size. A denied
    /// target *spills*: pass 2 encodes its records straight to a disk
    /// segment instead of a bucket, and the chunk stays on disk, in the slot
    /// the bucket would have occupied, until the reduce task reads it — so
    /// spilled and in-memory runs produce the same rows in the same order.
    /// Which targets spill depends on the task's rows and the plan, not on
    /// the schedule. Without a budget the shares are unbounded and the
    /// ledgers only meter the natural peak.
    ///
    /// Fault safety: buffers, ledgers and spill files are all owned per task
    /// *attempt* and travel inside the attempt's result; a loser's ledger is
    /// never folded and its [`SpillSegment`] deletes its file on drop, so
    /// retries and speculation leak nothing. A committed segment is deleted
    /// once the last block reading from it is dropped.
    #[allow(clippy::type_complexity)] // the `checkpointed` compute shape
    fn radix_shuffle_stage<K, V, P>(
        self,
        cluster: &Cluster,
        partitioner: &P,
        stage: &str,
        expand: impl Fn(Vec<T>) -> Vec<(K, V)> + Sync,
    ) -> Result<(Vec<ShuffledPartition<K, V>>, ShuffleStats, ExecStats), JobError>
    where
        K: Wire + Send + Sync + Copy,
        V: Wire + Send + Sync + Clone,
        P: Partitioner<K> + ?Sized,
    {
        let targets = partitioner.num_partitions();
        let memory = cluster.memory_accountant();
        let (mapped, mut stats) = self.radix_map_stage(cluster, partitioner, stage, expand)?;
        // Commit point: the stage's results are final. Per-task
        // partition_bytes merge element-wise (one entry per target even over
        // zero source partitions); each task's buckets and spill chunks join
        // their targets' block lists in source order, one `spill` event per
        // chunk; the tasks' ledgers fold into the accountant.
        let mut shuffle = ShuffleStats {
            partition_bytes: vec![0; targets],
            ..ShuffleStats::default()
        };
        let mut parts: Vec<ShuffledPartition<K, V>> = (0..targets)
            .map(|_| ShuffledPartition { blocks: Vec::new() })
            .collect();
        let recorder = cluster.recorder();
        let (mut spilled_bytes, mut expand_ns) = (0u64, 0u64);
        let mut ledgers = Vec::with_capacity(mapped.len());
        for out in mapped {
            ledgers.push(out.ledger);
            shuffle.merge(&out.shuffle);
            spilled_bytes += out.spilled_bytes;
            expand_ns += out.expand_ns;
            for (part, bucket) in parts.iter_mut().zip(out.buckets) {
                if !bucket.is_empty() {
                    part.blocks.push(Block::Rows(bucket));
                }
            }
            // A spilled target's bucket is empty, so each task adds at most
            // one block per target.
            if let Some(segment) = out.spill.map(Arc::new) {
                for (chunk, c) in segment.chunks().iter().enumerate() {
                    if recorder.is_enabled() {
                        recorder.event(
                            "spill",
                            Lane::Node(cluster.node_of_partition(c.target)),
                            Some(c.target as u64),
                            Attrs::new().bytes(c.len).records(c.records),
                        );
                    }
                    let segment = Arc::clone(&segment);
                    parts[c.target]
                        .blocks
                        .push(Block::Spilled { segment, chunk });
                }
            }
        }
        let (denials, peak) = memory.fold(&ledgers);
        if spilled_bytes > 0 {
            memory.note_spill(spilled_bytes);
        }
        stats.spilled_bytes = spilled_bytes;
        stats.peak_memory_bytes = peak;
        if recorder.is_enabled() {
            // Mirror the ShuffleStats fields into the metrics registry and
            // attribute every target partition's bytes to its node's lane.
            recorder.counter_add(stage, "remote_bytes", shuffle.remote_bytes);
            recorder.counter_add(stage, "local_bytes", shuffle.local_bytes);
            recorder.counter_add(stage, "records", shuffle.records);
            recorder.counter_add(stage, "spill_bytes", spilled_bytes);
            recorder.counter_add(stage, "assign_ns", expand_ns);
            recorder.counter_add(stage, "budget_denials", denials);
            for (t, &bytes) in shuffle.partition_bytes.iter().enumerate() {
                recorder.histogram_record(stage, "partition_bytes", bytes as f64);
                recorder.event(
                    "shuffle.partition",
                    Lane::Node(cluster.node_of_partition(t)),
                    Some(t as u64),
                    Attrs::new().bytes(bytes).records(parts[t].len() as u64),
                );
            }
        }
        Ok((parts, shuffle, stats))
    }
}

/// A dataset being read partition by partition — by a split-parallel file
/// reader, on its threads — under the memory budget of the cluster that will
/// run the job: a partition that does not fit its share of its node's budget
/// is encoded with the shuffle's [`Wire`] framing and written to disk as a
/// checksummed chunk as soon as it is complete, and the dataset keeps only
/// its chunk's index entry. [`Dataset::try_sample`] and
/// [`Dataset::shuffle_stage_by`] read it back inside their tasks; the
/// segment file is deleted when the last dataset holding it is dropped.
///
/// The rule, a function of the plan alone: of a job that reads `inputs`
/// datasets of `partitions` partitions each, node s holds
/// I_s = `inputs` · |{p : [`Cluster::node_of_partition`]`(p)` = s}| input
/// partitions, and each of them may keep ⌊B / (2·I_s)⌋ bytes in memory, its
/// rows' in-memory size (`rows · size_of::<T>()`). So the inputs resident on
/// a node fill at most half its budget. Without a budget every partition
/// stays in memory.
pub struct Ingest<T> {
    /// What each partition may keep in memory.
    shares: Vec<u64>,
    parts: Vec<Mutex<Vec<T>>>,
    disk: Mutex<Option<SpillWriter>>,
}

impl<T: Wire + Send> Ingest<T> {
    /// The ingest of one of the `inputs` datasets, of `partitions`
    /// partitions each, that a job on `cluster` reads.
    ///
    /// # Panics
    /// Panics if `partitions == 0`.
    pub fn new(cluster: &Cluster, inputs: usize, partitions: usize) -> Self {
        let node = |p| cluster.node_of_partition(p);
        let mut held = vec![0u64; cluster.nodes()];
        for p in 0..partitions {
            held[node(p)] += inputs as u64;
        }
        let budget = cluster.memory_budget();
        let share = |p| budget.map_or(u64::MAX, |b| b / (2 * held[node(p)]).max(1));
        Ingest::with_shares((0..partitions).map(share).collect())
    }

    /// An ingest that keeps every partition in memory.
    pub fn in_memory(partitions: usize) -> Self {
        Ingest::with_shares(vec![u64::MAX; partitions])
    }

    fn with_shares(shares: Vec<u64>) -> Self {
        assert!(!shares.is_empty(), "need at least one partition");
        Ingest {
            parts: shares.iter().map(|_| Mutex::default()).collect(),
            shares,
            disk: Mutex::new(None),
        }
    }

    /// Takes partition `p`'s rows: keeps them, or writes them to disk if
    /// they exceed the partition's share. An I/O error writing the chunk is
    /// returned.
    pub fn put(&self, p: usize, rows: Vec<T>) -> std::io::Result<()> {
        if (rows.len() * std::mem::size_of::<T>()) as u64 <= self.shares[p] {
            *self.parts[p].lock().expect("ingest lock poisoned") = rows;
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(rows.iter().map(Wire::encoded_size).sum());
        let records = encode_rows_into(&rows, &mut bytes);
        drop(rows);
        let mut disk = self.disk.lock().expect("ingest lock poisoned");
        let writer = match &mut *disk {
            Some(writer) => writer,
            none => none.insert(SpillWriter::create()?),
        };
        writer.write_chunk(p, &bytes, records)
    }

    /// The dataset of the partitions put so far; a partition never put is
    /// empty.
    pub fn finish(self) -> std::io::Result<Dataset<T>> {
        let rows = |part: Mutex<Vec<T>>| part.into_inner().expect("ingest lock poisoned");
        let disk = self.disk.into_inner().expect("ingest lock poisoned");
        Ok(Dataset {
            parts: self.parts.into_iter().map(rows).collect(),
            on_disk: disk
                .map(SpillWriter::finish)
                .transpose()?
                .flatten()
                .map(Arc::new),
        })
    }
}

/// One radix map task's attempt-local output: in-memory buckets, byte
/// metering, the attempt's spill segment (if any target was denied memory)
/// and the ledger the driver folds at commit. Everything here is owned per
/// *attempt* — dropping a loser deletes its spill file, and its ledger is
/// never counted.
struct RadixMapOut<K, V> {
    buckets: Vec<Vec<(K, V)>>,
    shuffle: ShuffleStats,
    spill: Option<SpillSegment>,
    spilled_bytes: u64,
    /// Time this attempt spent expanding its partition into keyed rows.
    expand_ns: u64,
    /// What the attempt held on each node, and the charges it was refused.
    ledger: Ledger,
}

/// A partitioned collection of key–value pairs (Spark `PairRDD`).
pub type KeyedDataset<K, V> = Dataset<(K, V)>;

/// Rows in memory, or — where a memory budget sent them to disk — a chunk of
/// a spill segment, left there until the task that needs them reads it: an
/// input partition ([`Ingest`]), or one map task's share of one target
/// partition of a shuffle (where admission spilled that target).
#[derive(Debug, Clone)]
pub enum Block<T> {
    Rows(Vec<T>),
    Spilled {
        segment: Arc<SpillSegment>,
        /// Index into the segment's [`chunks`](SpillSegment::chunks).
        chunk: usize,
    },
}

impl<T: Wire + Clone> Block<T> {
    /// Records in the block (a shuffle makes no empty block).
    pub fn records(&self) -> usize {
        match self {
            Block::Rows(rows) => rows.len(),
            Block::Spilled { segment, chunk } => segment.chunks()[*chunk].records as usize,
        }
    }

    /// The block's rows: in memory, borrowed where they are; spilled, read
    /// back and decoded. A failed or short read, or a chunk that does not
    /// decode, is a retriable [`TaskError::Spill`].
    pub fn read(&self) -> Result<Cow<'_, [T]>, TaskError> {
        match self {
            Block::Rows(rows) => Ok(Cow::Borrowed(rows)),
            Block::Spilled { segment, chunk } => segment
                .read_chunk(*chunk)
                .map(Cow::Owned)
                .map_err(|e| TaskError::Spill(format!("{}: {e}", segment.path().display()))),
        }
    }

    /// The block's rows, owned: in memory, moved; spilled, read back.
    fn into_rows(self) -> Result<Vec<T>, TaskError> {
        match self {
            Block::Rows(rows) => Ok(rows),
            spilled => Ok(spilled.read()?.into_owned()),
        }
    }
}

/// One target partition of a shuffle: its map tasks' [`Block`]s in source
/// order. Read in place by the reduce task ([`fetch`](Self::fetch)), or
/// materialised by [`ShuffledDataset::into_rows`].
#[derive(Debug)]
pub struct ShuffledPartition<K, V> {
    blocks: Vec<Block<(K, V)>>,
}

impl<K: Wire + Clone, V: Wire + Clone> ShuffledPartition<K, V> {
    /// A partition of one in-memory block (none when `rows` is empty).
    fn of_rows(rows: Vec<(K, V)>) -> Self {
        let blocks = if rows.is_empty() {
            Vec::new()
        } else {
            vec![Block::Rows(rows)]
        };
        ShuffledPartition { blocks }
    }

    pub fn blocks(&self) -> &[Block<(K, V)>] {
        &self.blocks
    }

    /// Records across the blocks.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Block::records).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The reduce side's fetch: every block's rows, one slice per block in
    /// source order, the in-memory ones borrowed in place and only the
    /// spilled ones read into this task's memory. Concatenated, they are
    /// exactly [`ShuffledDataset::into_rows`]'s partition.
    pub fn fetch(&self) -> Result<Fetched<'_, K, V>, TaskError> {
        self.blocks.iter().map(Block::read).collect()
    }

    fn into_rows(mut self) -> Result<Vec<(K, V)>, TaskError> {
        if let [Block::Rows(rows)] = &mut self.blocks[..] {
            return Ok(std::mem::take(rows));
        }
        let mut rows = Vec::with_capacity(self.len());
        for block in self.blocks {
            rows.append(&mut block.into_rows()?);
        }
        Ok(rows)
    }

    /// Appends the partition's wire encoding (a checkpoint chunk) to `buf`:
    /// in-memory blocks encoded, spilled chunks copied as they are — they
    /// hold the same bytes. Returns the record count. A chunk that cannot be
    /// read leaves `buf` short, which fails the checkpoint save.
    fn encode_into(&self, buf: &mut Vec<u8>) -> u64 {
        for block in &self.blocks {
            match block {
                Block::Rows(rows) => {
                    encode_records_into(rows, buf);
                }
                Block::Spilled { segment, chunk } => {
                    let _ = segment.read_chunk_into(*chunk, buf);
                }
            }
        }
        self.len() as u64
    }
}

/// A shuffled partition's rows as its reduce task fetched them: one slice per
/// block, in source order (see [`ShuffledPartition::fetch`]).
pub type Fetched<'a, K, V> = Vec<Cow<'a, [(K, V)]>>;

/// The output of a shuffle stage: per target partition, the blocks its map
/// tasks wrote (see [`Dataset::shuffle_stage_by`]).
#[derive(Debug)]
pub struct ShuffledDataset<K, V> {
    /// The shuffle's stage name, which a failed [`into_rows`](Self::into_rows)
    /// reports.
    stage: String,
    parts: Vec<ShuffledPartition<K, V>>,
}

impl<K: Wire + Clone, V: Wire + Clone> ShuffledDataset<K, V> {
    pub fn partitions(&self) -> &[ShuffledPartition<K, V>] {
        &self.parts
    }

    /// Records across all partitions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(ShuffledPartition::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(ShuffledPartition::is_empty)
    }

    /// Materialises every partition as one `Vec` on the driver, for the
    /// consumers that need contiguous rows: in-memory blocks move, spilled
    /// chunks are read and decoded. A partition that is one in-memory block
    /// is not copied. An unreadable chunk fails with a [`JobError`] naming
    /// the shuffle's stage and the partition.
    pub fn into_rows(self) -> Result<KeyedDataset<K, V>, JobError> {
        let stage = self.stage;
        let parts = self.parts.into_iter().enumerate().map(|(task, part)| {
            part.into_rows().map_err(|error| JobError {
                stage: stage.clone(),
                task,
                attempts: 1,
                error,
            })
        });
        Ok(Dataset {
            parts: parts.collect::<Result<_, _>>()?,
            on_disk: None,
        })
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Wire + Send + Sync + Copy,
    V: Wire + Send + Sync + Clone,
{
    /// Infallible [`KeyedDataset::shuffle_stage`] under the stage name
    /// `"shuffle"`.
    ///
    /// # Panics
    /// Panics if the stage fails.
    #[deprecated(note = "frozen for benchmark/src/probe.rs; use shuffle_stage")]
    #[allow(clippy::panic)]
    pub fn shuffle<P>(
        self,
        cluster: &Cluster,
        partitioner: &P,
    ) -> (KeyedDataset<K, V>, ShuffleStats, ExecStats)
    where
        P: Partitioner<K> + ?Sized,
    {
        self.shuffle_stage(cluster, partitioner, "shuffle")
            .and_then(|(shuffled, stats, exec)| Ok((shuffled.into_rows()?, stats, exec)))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Repartitions by key. Every record is charged its [`Wire`]-encoded size
    /// against the simulated network: bytes are *remote* when the source and
    /// target partitions live on different nodes, *local* otherwise — Spark's
    /// shuffle remote reads versus local reads. Task spans, the per-partition
    /// byte events and the mirrored `remote_bytes` / `local_bytes` /
    /// `records` counters are all recorded under `stage`. This is
    /// [`Dataset::shuffle_stage_by`] with the identity expansion: a partition
    /// is its own keyed rows, and is not copied.
    pub fn shuffle_stage<P>(
        self,
        cluster: &Cluster,
        partitioner: &P,
        stage: &str,
    ) -> Result<(ShuffledDataset<K, V>, ShuffleStats, ExecStats), JobError>
    where
        P: Partitioner<K> + ?Sized,
    {
        self.shuffle_stage_by(cluster, partitioner, stage, |part| part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::partitioner::HashPartitioner;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_threads(3, 2))
    }

    /// `shuffle_stage` under the default stage name, unwrapped.
    fn shuffle<P: Partitioner<u64>>(
        kd: KeyedDataset<u64, u64>,
        c: &Cluster,
        p: &P,
    ) -> (KeyedDataset<u64, u64>, ShuffleStats, ExecStats) {
        let (out, stats, exec) = kd.shuffle_stage(c, p, "shuffle").expect("shuffle runs");
        (out.into_rows().expect("blocks read back"), stats, exec)
    }

    #[test]
    fn from_vec_balances_partitions() {
        let d = Dataset::from_vec((0..10u32).collect(), 3);
        let sizes: Vec<usize> = d.partitions().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(d.len(), 10);
        assert!(!d.is_empty());
        assert_eq!(d.into_partitions().concat(), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn split_tiles_the_items_longer_ranges_first() {
        for n in 0..40 {
            for parts in 1..9 {
                let ranges: Vec<Range<usize>> = (0..parts).map(|p| split(n, parts, p)).collect();
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[parts - 1].end, n);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                    assert!(pair[0].len() == pair[1].len() || pair[0].len() == pair[1].len() + 1);
                }
            }
        }
    }

    #[test]
    fn sample_is_deterministic_and_proportional() {
        let c = cluster();
        let d = Dataset::from_vec((0..20_000u64).collect(), 4);
        let (s1, _) = d.try_sample(&c, 0.1, 7).expect("sample runs");
        let (s2, _) = d.try_sample(&c, 0.1, 7).expect("sample runs");
        assert_eq!(s1, s2);
        assert!(
            (s1.len() as f64 - 2000.0).abs() < 300.0,
            "sample size {}",
            s1.len()
        );
        let (s3, _) = d.try_sample(&c, 0.1, 8).expect("sample runs");
        assert_ne!(s1, s3);
    }

    #[test]
    fn sample_extremes() {
        let c = cluster();
        let d = Dataset::from_vec((0..100u64).collect(), 4);
        assert!(d.try_sample(&c, 0.0, 1).expect("sample runs").0.is_empty());
        assert_eq!(d.try_sample(&c, 1.0, 1).expect("sample runs").0.len(), 100);
    }

    /// A shuffle over zero source partitions (what a zero-target shuffle
    /// hands on) still meters one entry per target, so its checkpoint commits
    /// and a later handle resumes from it.
    #[test]
    fn a_shuffle_of_no_source_partitions_is_resumable() {
        let dir = std::env::temp_dir().join(format!("asj-no-sources-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = asj_obs::Recorder::for_nodes(3);
        let run = || {
            let c = cluster()
                .with_recorder(recorder.clone())
                .with_checkpoint_dir(&dir)
                .expect("open checkpoint dir");
            let none = Dataset {
                parts: vec![],
                on_disk: None,
            };
            let (out, stats, _) = shuffle(none, &c, &HashPartitioner::new(4));
            let recovered = c.checkpoint_store().expect("store").stages_recovered();
            (out.into_partitions(), stats, recovered)
        };
        let (first, first_stats, recovered) = run();
        assert_eq!(first, vec![Vec::new(); 4]);
        assert_eq!(first_stats.partition_bytes, vec![0; 4]);
        assert_eq!(recovered, 0);
        let failures = recorder.counter_value("shuffle", "checkpoint_save_failed");
        assert_eq!(failures, None);
        let timed = recorder.counter_value("shuffle", "checkpoint_manifest_ns");
        assert!(timed > Some(0), "the save names its time: {timed:?}");
        assert_eq!(run(), (first, first_stats, 1));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn shuffle_routes_by_key_and_meters_bytes() {
        let c = cluster();
        let kd = KeyedDataset::from_partitions(vec![
            vec![(0u64, 10u64), (1, 11), (2, 12)],
            vec![(0, 20), (1, 21)],
        ]);
        let p = HashPartitioner::new(4);
        let (shuffled, stats, _) = shuffle(kd, &c, &p);
        assert_eq!(shuffled.partitions().len(), 4);
        assert_eq!(stats.records, 5);
        // Every record is 16 bytes (u64 key + u64 value).
        assert_eq!(stats.total_bytes(), 5 * 16);
        // All copies of a key land in one partition.
        for part in shuffled.partitions() {
            for (k, _) in part {
                assert_eq!(
                    p.partition_of(k),
                    shuffled
                        .partitions()
                        .iter()
                        .position(|pp| pp.iter().any(|(kk, _)| kk == k))
                        .unwrap()
                );
            }
        }
    }

    /// Fixture for the memory-governor tests: a skewed keyed workload large
    /// enough that a sub-peak budget must force spilling.
    fn skewed_parts() -> Vec<Vec<(u64, u64)>> {
        (0..6)
            .map(|p| (0..200u64).map(|i| (i * 11 % 31, p * 1000 + i)).collect())
            .collect()
    }

    #[test]
    fn budgeted_shuffle_spills_and_stays_byte_identical() {
        let parts = skewed_parts();
        let p = HashPartitioner::new(8);
        let free = cluster();
        let (df, sf, ef) = shuffle(KeyedDataset::from_partitions(parts.clone()), &free, &p);
        assert_eq!(ef.spilled_bytes, 0, "no budget, nothing spills");
        assert!(
            ef.peak_memory_bytes > 0,
            "meter-only runs still record the natural peak"
        );

        // A budget well below the natural peak: the shuffle must finish by
        // spilling, never by aborting, and the results must not change.
        let budget = (ef.peak_memory_bytes / 8).max(64);
        let tight = cluster().with_memory_budget(budget);
        let (dt, st, et) = shuffle(KeyedDataset::from_partitions(parts), &tight, &p);
        assert_eq!(st, sf, "ShuffleStats are spill-agnostic");
        assert_eq!(
            dt.partitions(),
            df.partitions(),
            "spilled run is byte-identical"
        );
        assert!(
            et.spilled_bytes > 0,
            "a sub-peak budget must force spilling"
        );
        assert!(
            et.peak_memory_bytes <= budget,
            "peak {} exceeds budget {budget}",
            et.peak_memory_bytes
        );
        let snap = tight.memory_accountant().snapshot();
        assert!(snap.budget_denials > 0);
        assert_eq!(snap.spilled_bytes, et.spilled_bytes);
        assert!(snap.per_node_peak.iter().all(|&pk| pk <= budget));
    }

    #[test]
    fn budgeted_shuffle_survives_injected_failures() {
        use crate::fault::{FaultPlan, RetryPolicy};
        let parts = skewed_parts();
        let p = HashPartitioner::new(8);
        let free = cluster();
        let (df, _, ef) = shuffle(KeyedDataset::from_partitions(parts.clone()), &free, &p);

        // First attempts of two tasks die after their ledgers and spill file
        // exist; the retried attempts must start from a clean ledger, so the
        // run spills, is refused and peaks exactly as the clean one does.
        let budget = (ef.peak_memory_bytes / 8).max(64);
        let clean = cluster().with_memory_budget(budget);
        shuffle(KeyedDataset::from_partitions(parts.clone()), &clean, &p);
        let tight = cluster().with_memory_budget(budget).with_fault_policy(
            FaultPlan::none()
                .with_fail_point("shuffle", 0, 1)
                .with_fail_point("shuffle", 3, 1),
            RetryPolicy::default().with_max_attempts(4),
        );
        let (dt, _, et) = shuffle(KeyedDataset::from_partitions(parts), &tight, &p);
        assert_eq!(dt.partitions(), df.partitions());
        assert!(et.retries >= 2, "both fail points must have retried");
        assert!(et.spilled_bytes > 0);
        assert!(et.peak_memory_bytes <= budget);
        let (faulty, clean) = (
            tight.memory_accountant().snapshot(),
            clean.memory_accountant().snapshot(),
        );
        assert_eq!(faulty, clean, "failed attempts' ledgers are never folded");
    }

    /// Expansions that yield or sleep a seeded number of rounds per source
    /// partition perturb which map task reaches admission first, and
    /// admission must not notice: at 1, 2 and 8 threads a budgeted shuffle
    /// spills the same bytes, is refused the same charges, peaks the same on
    /// every node and keeps the same (source, target) blocks in memory.
    /// A failure names its seeds.
    #[test]
    fn admission_does_not_depend_on_the_schedule() {
        use std::time::Duration;
        let parts = skewed_parts();
        let p = HashPartitioner::new(8);
        let (_, _, free) = shuffle(KeyedDataset::from_partitions(parts.clone()), &cluster(), &p);
        let budget = free.peak_memory_bytes / 4;
        let run = |seed: u64, threads: usize| {
            let c =
                Cluster::new(ClusterConfig::with_threads(3, threads)).with_memory_budget(budget);
            // `skewed_parts` gives partition p the values p * 1000 + i.
            let expand = |part: Vec<(u64, u64)>| {
                let h = crate::digest::splitmix64(seed ^ (part[0].1 / 1000));
                for round in 0..h % 8 {
                    if (h >> round) & 1 == 0 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros(40));
                    }
                }
                part
            };
            let (out, _, _) = Dataset::from_partitions(parts.clone())
                .shuffle_stage_by(&c, &p, "shuffle", expand)
                .expect("shuffle runs");
            // A target's blocks are in source order, one per source with
            // rows for it.
            let spilled = |b: &Block<(u64, u64)>| matches!(b, Block::Spilled { .. });
            let kinds: Vec<Vec<bool>> = out
                .partitions()
                .iter()
                .map(|part| part.blocks().iter().map(spilled).collect())
                .collect();
            let s = c.memory_accountant().snapshot();
            (s.spilled_bytes, s.budget_denials, s.per_node_peak, kinds)
        };
        let flaky: Vec<u64> = (0..8u64)
            .filter(|&seed| {
                let base = run(seed, 1);
                assert!(base.0 > 0, "seed {seed}: the budget must spill");
                [2, 8].into_iter().any(|threads| run(seed, threads) != base)
            })
            .collect();
        assert!(
            flaky.is_empty(),
            "schedule-dependent admission under seeds {flaky:?}"
        );
    }

    #[test]
    fn budgeted_shuffle_records_spill_telemetry() {
        use asj_obs::Recorder;
        let parts = skewed_parts();
        let p = HashPartitioner::new(8);
        let free = cluster();
        let (_, _, ef) = shuffle(KeyedDataset::from_partitions(parts.clone()), &free, &p);

        let r = Recorder::for_nodes(3);
        let tight = cluster()
            .with_memory_budget((ef.peak_memory_bytes / 8).max(64))
            .with_recorder(r.clone());
        let (_, _, et) = shuffle(KeyedDataset::from_partitions(parts), &tight, &p);
        assert_eq!(
            r.counter_value("shuffle", "spill_bytes"),
            Some(et.spilled_bytes),
            "spill volume mirrors into the metrics registry"
        );
        assert!(
            r.counter_value("shuffle", "budget_denials")
                .expect("counter")
                > 0
        );
        let trace = r.snapshot();
        let spills: Vec<_> = trace.events.iter().filter(|e| e.name == "spill").collect();
        assert!(!spills.is_empty(), "each spilled chunk emits a spill event");
        assert_eq!(
            spills
                .iter()
                .map(|e| e.attrs.bytes.expect("bytes"))
                .sum::<u64>(),
            et.spilled_bytes,
            "spill events account for every spilled byte"
        );
        for e in spills {
            let t = e.partition.expect("spill events carry the target") as usize;
            assert_eq!(e.lane, Lane::Node(tight.node_of_partition(t)));
        }
    }

    /// One flipped bit in a spilled chunk — x = 1.25 read back as 1.3125 —
    /// is a `TaskError::Spill` naming the shuffle, not a different record,
    /// and a checkpoint save that copies the chunk fails instead of sealing
    /// the damage under a fresh checksum.
    #[test]
    fn a_flipped_spilled_bit_is_an_error_not_a_different_record() {
        use crate::checkpoint::CheckpointStore;
        use crate::fault::TaskError;
        use std::os::unix::fs::FileExt;
        let parts: Vec<Vec<(u64, (f64, f64))>> = (0..4)
            .map(|p| (0..50u64).map(|i| (i % 7, (1.25, p as f64))).collect())
            .collect();
        let tight = cluster().with_memory_budget(1);
        let (shuffled, stats, exec) = KeyedDataset::from_partitions(parts)
            .shuffle_stage(&tight, &HashPartitioner::new(4), "shuffle")
            .expect("shuffle runs");
        assert!(exec.spilled_bytes > 0);
        let mut blocks = shuffled.partitions().iter().flat_map(|p| p.blocks());
        let Some(Block::Spilled { segment, chunk }) = blocks.next() else {
            panic!("a one-byte budget spills every block");
        };
        // The chunk's first record is an 8-byte key, then x; bit 0 of x's
        // seventh little-endian byte turns 1.25 into 1.3125.
        let at = segment.chunks()[*chunk].offset + 8 + 6;
        let file = std::fs::File::options()
            .read(true)
            .write(true)
            .open(segment.path())
            .expect("reopen segment");
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, at).expect("read byte");
        file.write_all_at(&[byte[0] ^ 1], at).expect("flip bit");

        let dir = std::env::temp_dir().join(format!("asj-flipped-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).expect("open checkpoint dir");
        let saved = store.save("k", shuffled.partitions(), &stats, 2, |p, buf| {
            p.encode_into(buf)
        });
        assert!(saved.is_err(), "a save of a damaged chunk fails");
        assert_eq!(std::fs::read_dir(&dir).expect("list").count(), 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");

        let err = shuffled
            .into_rows()
            .expect_err("a flipped bit fails the read");
        assert_eq!(err.stage, "shuffle");
        assert!(matches!(err.error, TaskError::Spill(_)), "{err}");
    }

    /// Ingest keeps a partition in memory only if its rows fit the share
    /// ⌊B / (2·I_s)⌋ of its node s. The tasks read the others back; a byte
    /// changed in their chunk fails the sample and the shuffle with a
    /// `TaskError::Spill` naming the stage, and the file goes with the last
    /// dataset that holds it.
    #[test]
    fn ingest_sends_partitions_past_their_share_to_disk() {
        use crate::fault::TaskError;
        use std::os::unix::fs::FileExt;
        // Two inputs of five partitions on three nodes: nodes 0 and 1 hold
        // four partitions (I = 4, a share of 100 B of 800), node 2 holds two
        // (200 B). Every partition is 20 rows of 8 B.
        let tight = cluster().with_memory_budget(800);
        let rows = |p: u64| (0..20).map(|i| 100 * p + i).collect::<Vec<u64>>();
        let ingest = |ingest: Ingest<u64>| {
            for p in [4, 2, 0, 3, 1] {
                ingest.put(p as usize, rows(p)).expect("put");
            }
            ingest.finish().expect("finish")
        };
        for kept in [
            ingest(Ingest::in_memory(5)),
            ingest(Ingest::new(&cluster(), 2, 5)),
        ] {
            assert!(kept.on_disk().is_none());
            assert_eq!(kept.into_partitions(), (0..5).map(rows).collect::<Vec<_>>());
        }
        let data = ingest(Ingest::new(&tight, 2, 5));
        assert_eq!(data.len(), 100);
        let in_memory: Vec<usize> = data.partitions().iter().map(Vec::len).collect();
        assert_eq!(in_memory, [0, 0, 20, 0, 0]);
        let segment = data.on_disk().expect("a segment");
        let mut on_disk: Vec<usize> = segment.chunks().iter().map(|c| c.target).collect();
        on_disk.sort_unstable();
        assert_eq!(on_disk, [0, 1, 3, 4]);
        let (all, _) = data.try_sample(&tight, 1.0, 7).expect("sample");
        assert_eq!(all, (0..5).flat_map(rows).collect::<Vec<_>>());
        let back = data.clone().try_into_partitions("load").expect("read back");
        assert_eq!(back, (0..5).map(rows).collect::<Vec<_>>());

        let (path, at) = (segment.path().to_path_buf(), segment.chunks()[0].offset);
        let file = std::fs::File::options()
            .read(true)
            .write(true)
            .open(&path)
            .expect("reopen segment");
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, at).expect("read byte");
        file.write_all_at(&[byte[0] ^ 1], at).expect("flip bit");
        let err = data
            .try_sample(&tight, 0.5, 7)
            .expect_err("a flipped bit fails");
        assert_eq!(err.stage, "sample");
        assert!(matches!(err.error, TaskError::Spill(_)), "{err}");
        let keyed = |part: Vec<u64>| part.into_iter().map(|x| (x, x)).collect();
        let p = HashPartitioner::new(4);
        let err = data
            .clone()
            .shuffle_stage_by(&tight, &p, "shuffle.R", keyed)
            .expect_err("a flipped bit fails");
        assert_eq!(err.stage, "shuffle.R");
        assert!(matches!(err.error, TaskError::Spill(_)), "{err}");
        assert!(path.exists());
        drop(data);
        assert!(
            !path.exists(),
            "the input chunk's file outlived its dataset"
        );
    }

    #[test]
    fn tiny_budget_spills_everything_and_completes() {
        // A budget smaller than any single bucket: every target spills and
        // the job still completes with the right answer.
        let parts = skewed_parts();
        let p = HashPartitioner::new(8);
        let free = cluster();
        let (df, _, _) = shuffle(KeyedDataset::from_partitions(parts.clone()), &free, &p);
        let tight = cluster().with_memory_budget(1);
        let (dt, _, et) = shuffle(KeyedDataset::from_partitions(parts), &tight, &p);
        assert_eq!(dt.partitions(), df.partitions());
        assert_eq!(et.peak_memory_bytes, 0, "nothing was ever admitted");
        assert_eq!(
            et.spilled_bytes,
            dt.partitions()
                .iter()
                .flatten()
                .map(|(k, v)| k.encoded_size() as u64 + v.encoded_size() as u64)
                .sum::<u64>(),
            "every byte of the shuffle went through disk"
        );
    }

    #[test]
    fn shuffle_local_vs_remote_split() {
        // 1 node: everything is local. Many nodes: most records go remote.
        let one = Cluster::new(ClusterConfig::with_threads(1, 1));
        let kd = KeyedDataset::from_partitions(vec![(0..100u64).map(|k| (k, k)).collect()]);
        let (_, stats, _) = shuffle(kd, &one, &HashPartitioner::new(8));
        assert_eq!(stats.remote_bytes, 0);
        assert_eq!(stats.local_bytes, 100 * 16);

        let many = Cluster::new(ClusterConfig::with_threads(8, 2));
        let kd = KeyedDataset::from_partitions(vec![(0..100u64).map(|k| (k, k)).collect()]);
        let (_, stats, _) = shuffle(kd, &many, &HashPartitioner::new(8));
        assert!(stats.remote_bytes > stats.local_bytes);
        assert_eq!(stats.total_bytes(), 100 * 16);
    }
}
