//! An in-process data-parallel engine standing in for Apache Spark.
//!
//! The paper evaluates its join on a 12-node Spark/YARN/HDFS cluster and
//! reports three metrics: replicated objects, *shuffle remote reads* and
//! execution time. This crate reproduces the execution semantics those
//! metrics depend on without requiring a cluster:
//!
//! * [`Cluster::try_run_stage`] — the one executor entry point: one task per
//!   partition, bound round-robin to simulated nodes, returning a
//!   [`JobError`] when a task exhausts its attempts.
//! * [`Dataset`] / [`KeyedDataset`] — partitioned collections with the
//!   operators Algorithm 5 runs (`sample`, the keyed shuffle, grouped and
//!   co-grouped folds); [`Cluster::broadcast`] shares the grid with every
//!   task, and `flatMapToPair` runs inside the shuffle's map tasks
//!   ([`Dataset::shuffle_stage_by`]). A shuffle's output is a
//!   [`ShuffledDataset`]: per target partition, the blocks its map tasks
//!   wrote, in memory or spilled, which the reduce task reads in place.
//! * **Metered shuffle** — when a keyed dataset is repartitioned, every
//!   record is attributed to the simulated node of its source and target
//!   partitions; records that cross nodes account their [`Wire`]-encoded size
//!   as *remote* bytes (Spark's shuffle remote reads), others as local.
//! * **Placement** — cells are mapped to partitions by a hash partitioner
//!   (Spark's default) or by the LPT greedy of §6.2; partitions are bound to
//!   simulated nodes round-robin.
//! * **Simulated time** — every partition task is timed and attributed to its
//!   node; a job's *simulated makespan* is the maximum per-node busy time,
//!   which reproduces the paper's node-scaling and load-balancing behaviour
//!   even on a single-core host (real wall time is reported alongside).
//!
//! The engine is deliberately synchronous and in-memory: the paper's inputs
//! are text files read once into RDDs, and all relevant effects (replication,
//! shuffle volume, per-partition join cost, balance) are preserved by this
//! model. See `DESIGN.md` at the workspace root for the substitution
//! argument.

mod checkpoint;
mod clock;
mod cluster;
mod dataset;
pub mod digest;
mod fault;
mod jobs;
mod journal;
mod lpt;
mod memory;
mod metrics;
mod partitioner;
mod pool;
mod wire;

pub use checkpoint::{CheckpointStore, CheckpointTimes, Codec};
pub use cluster::{on_host_threads, Broadcast, Cluster, ClusterConfig, CommitHook, StageResult};
pub use dataset::{
    split, Block, Dataset, Fetched, Ingest, KeyedDataset, Recipe, ShuffledDataset,
    ShuffledPartition,
};
pub use fault::{FailPoint, FaultContext, FaultPlan, FaultState, JobError, RetryPolicy, TaskError};
pub use jobs::{JobId, JobReport, JobServer, JobSpec, SchedPolicy, ServerRun, SubmitError};
pub use journal::{compact_records, CompactStats, Journal, JournalError, JournalRecord};
pub use lpt::{assignment_makespan, lpt_assign};
pub use memory::{
    clean_orphaned_spills, decode_records, encode_records, encode_records_into, set_spill_dir,
    spill_dir, Chunk, MemoryAccountant, MemorySnapshot, SpillSegment, SpillWriter,
};
pub use metrics::{DurationSummary, ExecStats, JobMetrics, ShuffleStats};
pub use partitioner::{
    ExplicitPartitioner, HashPartitioner, Partitioner, Placement, RoundRobinPartitioner,
};
pub use wire::{ensure_remaining, Wire, WireError};

// Re-exported so engine users can construct recorders and read traces
// without naming the obs crate separately.
pub use asj_obs as obs;
pub use asj_obs::{Attrs, Lane, Recorder, Trace, TraceFormat};
