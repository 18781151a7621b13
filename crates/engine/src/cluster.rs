use crate::checkpoint::{
    decode_join_part, encode_join_part, join_part_size, CheckpointCtx, CheckpointStore,
};
use crate::fault::{FaultContext, FaultPlan, JobError, RetryPolicy};
use crate::jobs::JobGate;
use crate::journal::Journal;
use crate::memory::MemoryAccountant;
use crate::metrics::{ExecStats, ShuffleStats};
use crate::pool::try_run_stage;
use crate::wire::Wire;
use asj_core::KernelCostModel;
use asj_obs::{Attrs, Lane, Recorder};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shape of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Simulated worker nodes (the paper's executors; Fig. 14 varies 4–12).
    pub nodes: usize,
    /// Real host threads used to execute tasks. Defaults to the host's
    /// available parallelism; decoupled from `nodes` so that a 12-node
    /// cluster can be simulated faithfully on any machine.
    pub threads: usize,
    /// Per-node memory budget in bytes. `None` (the default) meters peak
    /// usage without enforcing; `Some(b)` makes shuffles spill buckets to
    /// disk instead of letting any node's resident bytes cross `b`.
    pub memory_budget: Option<u64>,
}

impl ClusterConfig {
    /// `nodes` simulated workers, host-default real parallelism.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ClusterConfig::with_threads(nodes, threads)
    }

    /// Explicit node and thread counts. Both are validated here — at
    /// construction — so a zero slips through neither to the scheduler (which
    /// asserted `nodes > 0` deep in the pool) nor silently into a bumped
    /// thread count.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or `threads == 0`.
    pub fn with_threads(nodes: usize, threads: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(threads > 0, "cluster needs at least one worker thread");
        ClusterConfig {
            nodes,
            threads,
            memory_budget: None,
        }
    }

    /// Enforces a per-node memory budget: once a node's charged bytes would
    /// cross `per_node_bytes`, shuffles spill overflow buckets to disk
    /// instead of materialising them.
    ///
    /// # Panics
    /// Panics if `per_node_bytes == 0` (a zero budget could admit nothing).
    pub fn with_memory_budget(mut self, per_node_bytes: u64) -> Self {
        assert!(per_node_bytes > 0, "memory budget must be positive");
        self.memory_budget = Some(per_node_bytes);
        self
    }
}

/// The engine's one driver-side parallel loop: runs `work(t, scratch)` for
/// every `t < n` on up to `threads` host threads (the caller's is one of
/// them; with one thread, or one item, everything runs inline), which claim
/// indices from a shared counter. `scratch` is the thread's one reusable
/// buffer. Returns the results in item order, or the first error — after
/// which no further index is claimed. A panic in `work` resumes on the
/// caller's thread.
///
/// Checkpoint saves and loads, and the job server's tenant generation and
/// checksum sort, all run their driver work through this loop on
/// [`ClusterConfig::threads`] threads.
pub fn on_host_threads<T: Send, E: Send>(
    threads: usize,
    n: usize,
    work: impl Fn(usize, &mut Vec<u8>) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let (mut scratch, mut done) = (Vec::new(), Vec::new());
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= n {
                return Ok(done);
            }
            match work(t, &mut scratch) {
                Ok(value) => done.push((t, value)),
                Err(e) => {
                    next.store(n, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
    };
    let mut done = if threads.min(n) <= 1 {
        worker()?
    } else {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..threads.min(n)).map(|_| scope.spawn(worker)).collect();
            let mut done = worker();
            for handle in spawned {
                let theirs = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                done = done.and_then(|mut mine| {
                    mine.extend(theirs?);
                    Ok(mine)
                });
            }
            done
        })?
    };
    done.sort_unstable_by_key(|&(t, _)| t);
    Ok(done.into_iter().map(|(_, value)| value).collect())
}

/// What a stage returns: one result per task, in task order, and the stage's
/// execution stats — or the [`JobError`] of the task that ran out of attempts.
pub type StageResult<R> = Result<(Vec<R>, ExecStats), JobError>;

/// A handle to the simulated cluster: executes partitioned stages and owns
/// the node topology (partition → node binding).
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    recorder: Recorder,
    /// Fault-injection plan, recovery policy and cluster-lifetime fault
    /// state (blacklist, fired losses). `None` — the default — runs every
    /// stage single-attempt and fail-stop.
    faults: Option<Arc<FaultContext>>,
    /// Per-node memory accountant (always present; meter-only when the
    /// config carries no budget), shared by every clone of this handle.
    memory: Arc<MemoryAccountant>,
    /// Lockstep stage gate, set only on per-job handles created by the
    /// [`JobServer`](crate::JobServer): every stage entry parks until the
    /// scheduler grants this job a quantum, and completed stages are billed
    /// back to the job. `None` — the default — runs stages ungated.
    gate: Option<Arc<JobGate>>,
    /// Stage-checkpoint context: when set, shuffle stages persist their
    /// outputs through the [`CheckpointStore`] and consult it before
    /// recomputing. `None` — the default — keeps shuffles ephemeral.
    checkpoint: Option<Arc<CheckpointCtx>>,
}

impl Cluster {
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one node");
        assert!(
            config.threads > 0,
            "cluster needs at least one worker thread"
        );
        Cluster {
            recorder: Recorder::noop(),
            faults: None,
            memory: Arc::new(MemoryAccountant::new(config.nodes, config.memory_budget)),
            gate: None,
            checkpoint: None,
            config,
        }
    }

    /// Attaches the job server's stage gate to this handle (see the `gate`
    /// field). Only [`JobServer::run`](crate::JobServer::run) calls this, on
    /// the per-job clone it hands to the job body.
    pub(crate) fn with_stage_gate(mut self, gate: Arc<JobGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Attaches a [`CheckpointStore`] rooted at `dir`: every shuffle stage
    /// run on this handle persists its partition outputs (manifest-tracked,
    /// checksummed) and consults the store before recomputing, so a retry
    /// after node loss or a recovered server process replays only the stage
    /// that actually failed. Opening sweeps debris a prior crashed run left.
    pub fn with_checkpoint_dir(self, dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let store = Arc::new(CheckpointStore::open(dir.as_ref())?);
        Ok(self.with_checkpoint_store(store))
    }

    /// [`Cluster::with_checkpoint_dir`] with an already-open store (shared
    /// across clusters that must see each other's checkpoints).
    pub fn with_checkpoint_store(mut self, store: Arc<CheckpointStore>) -> Self {
        self.checkpoint = Some(Arc::new(CheckpointCtx::new(store, "main", None)));
        self
    }

    /// Re-scopes the checkpoint context for one job's handle: checkpoint
    /// keys become `job{id}-...` with fresh per-stage occurrence counters,
    /// and committed stages append `stage` records to `journal` (if any).
    /// No-op without an attached store.
    pub(crate) fn with_checkpoint_scope(
        mut self,
        scope: String,
        journal: Option<(Arc<Journal>, u64)>,
    ) -> Self {
        if let Some(ctx) = &self.checkpoint {
            let store = Arc::clone(ctx.store());
            self.checkpoint = Some(Arc::new(CheckpointCtx::new(store, scope, journal)));
        }
        self
    }

    /// The attached checkpoint store, if any.
    #[inline]
    pub fn checkpoint_store(&self) -> Option<&Arc<CheckpointStore>> {
        self.checkpoint.as_ref().map(|c| c.store())
    }

    /// The one checkpoint protocol every resumable stage goes through. With
    /// a store attached, the Nth occurrence of `stage` in this handle's scope
    /// has a fixed key: if that key holds a verified checkpoint of `expected`
    /// partitions (a same-process stage retry, or a recovered server
    /// replaying a deterministic job body) the stage is a **hit** — its
    /// partitions are decoded instead of computed and it is booked as one
    /// zero-cost stage: the job still parks for (and is billed) its
    /// scheduling quantum, so grant logs replay identically on recovery, but
    /// no simulated busy time accrues. Otherwise — miss, corrupt or stale
    /// checkpoint, checkpoint I/O trouble — `compute` runs and its output is
    /// saved (on this handle's host threads), counted, timed and journaled; a
    /// failed save never fails the stage, it is counted and the stage stays
    /// non-resumable. Without a store this is `compute()`.
    ///
    /// `codec` is the stage's partition ⇄ chunk pair: append a partition's
    /// encoding to a buffer and return its record count; rebuild a partition
    /// from a chunk's bytes and record count.
    pub(crate) fn checkpointed<P: Send + Sync>(
        &self,
        stage: &str,
        expected: usize,
        codec: (
            impl Fn(&P, &mut Vec<u8>) -> u64 + Sync,
            impl Fn(&[u8], u64) -> Option<P> + Sync,
        ),
        compute: impl FnOnce() -> Result<(Vec<P>, ShuffleStats, ExecStats), JobError>,
    ) -> Result<(Vec<P>, ShuffleStats, ExecStats), JobError> {
        let Some(ck) = self.checkpoint.as_deref() else {
            return compute();
        };
        let (encode, decode) = codec;
        let key = ck.next_key(stage);
        let threads = self.config.threads;
        // A stage without partitions has nothing to replay.
        if expected > 0 {
            if let Ok(Some((parts, shuffle))) = ck.store().load(&key, expected, threads, decode) {
                let stats = ExecStats::idle(self.config.nodes);
                if let Some(gate) = &self.gate {
                    gate.pause();
                    gate.note_stage(&stats);
                }
                ck.store().note_recovered();
                self.recorder.counter_add(stage, "stages_recovered", 1);
                return Ok((parts, shuffle, stats));
            }
        }
        let (parts, shuffle, stats) = compute()?;
        let count = |name, value| self.recorder.counter_add(stage, name, value);
        // Saves of one store are serial (one job, or a server's lockstep
        // grants), so the totals' movement is this save's time.
        let before = ck.store().times();
        match ck.store().save(&key, &parts, &shuffle, threads, encode) {
            Ok(bytes) => {
                let spent = ck.store().times();
                count("checkpoint_bytes", bytes);
                let ns = |d: std::time::Duration| d.as_nanos() as u64;
                count("checkpoint_write_ns", ns(spent.write - before.write));
                count("checkpoint_fsync_ns", ns(spent.fsync - before.fsync));
                count(
                    "checkpoint_manifest_ns",
                    ns(spent.manifest - before.manifest),
                );
                ck.journal_stage_complete(stage, &key, bytes);
            }
            Err(_) => {
                count("checkpoint_save_failed", 1);
                let attrs = Attrs::new().bytes(shuffle.partition_bytes.iter().sum());
                self.recorder
                    .event("checkpoint-save-failed", Lane::Driver, None, attrs);
            }
        }
        Ok((parts, shuffle, stats))
    }

    /// Enforces a per-node memory budget on this handle (resets the
    /// accountant, and — like [`Cluster::with_fault_policy`] — any attached
    /// fault context's cluster-lifetime state, so the two compose in either
    /// order). Equivalent to constructing from
    /// [`ClusterConfig::with_memory_budget`].
    ///
    /// # Panics
    /// Panics if `per_node_bytes == 0`.
    pub fn with_memory_budget(mut self, per_node_bytes: u64) -> Self {
        self.config = self.config.with_memory_budget(per_node_bytes);
        self.memory = Arc::new(MemoryAccountant::new(
            self.config.nodes,
            self.config.memory_budget,
        ));
        if let Some(ctx) = self.faults.take() {
            return self.with_fault_policy(ctx.plan.clone(), ctx.policy);
        }
        self
    }

    /// The cluster-lifetime [`MemoryAccountant`] shuffles charge buffers to.
    #[inline]
    pub fn memory_accountant(&self) -> &MemoryAccountant {
        &self.memory
    }

    /// Shared handle to the accountant, for task closures whose charges must
    /// outlive the borrow of `self` (released when the task result commits).
    pub(crate) fn memory_arc(&self) -> Arc<MemoryAccountant> {
        Arc::clone(&self.memory)
    }

    /// The enforced per-node memory budget, if any.
    #[inline]
    pub fn memory_budget(&self) -> Option<u64> {
        self.config.memory_budget
    }

    /// The committed [`KernelCostModel`]; `calibrate` is never called.
    #[deprecated(note = "frozen for benchmark/src/probe.rs")]
    pub fn kernel_cost_model(
        &self,
        _calibrate: impl FnOnce() -> KernelCostModel,
    ) -> KernelCostModel {
        KernelCostModel::default()
    }

    /// Attaches a [`Recorder`]: every stage the cluster runs emits task spans
    /// and the shuffle/phase instrumentation built on top of it becomes
    /// active. The default is the no-op recorder, which costs one pointer
    /// compare per stage.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a [`FaultPlan`] with the default [`RetryPolicy`]: stages
    /// inject the plan's failures and recover via retries, blacklisting and
    /// (if enabled) speculation.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        let policy = self.faults.as_ref().map(|c| c.policy).unwrap_or_default();
        self.with_fault_policy(plan, policy)
    }

    /// Changes the recovery policy, keeping (or installing an empty) fault
    /// plan. Attaching a policy alone is enough for panicking tasks to be
    /// retried instead of failing the job outright.
    pub fn with_retry_policy(self, policy: RetryPolicy) -> Self {
        let plan = self
            .faults
            .as_ref()
            .map(|c| c.plan.clone())
            .unwrap_or_else(FaultPlan::none);
        self.with_fault_policy(plan, policy)
    }

    /// Attaches a fault plan and recovery policy together. Resets the
    /// cluster-lifetime fault state (attempt counters, blacklist, fired
    /// losses).
    pub fn with_fault_policy(mut self, plan: FaultPlan, policy: RetryPolicy) -> Self {
        self.faults = Some(Arc::new(
            FaultContext::new(plan, policy, self.config.nodes)
                .with_memory(Arc::clone(&self.memory)),
        ));
        self
    }

    /// Detaches any fault plan and recovery policy: stages run
    /// single-attempt again. The fault-free twin used as the control side
    /// of A/B recovery experiments.
    pub fn without_faults(mut self) -> Self {
        self.faults = None;
        self
    }

    /// The attached fault context, if any.
    #[inline]
    pub fn fault_context(&self) -> Option<&FaultContext> {
        self.faults.as_deref()
    }

    #[inline]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The cluster's shape (nodes, threads, budget) — lets callers build a
    /// fresh cluster of the same configuration (e.g. a solo-run isolation
    /// oracle with its own accountant).
    #[inline]
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    #[inline]
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    #[inline]
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The node hosting a partition: partitions are bound round-robin, like
    /// Spark binds partitions to executors.
    #[inline]
    pub fn node_of_partition(&self, partition: usize) -> usize {
        partition % self.config.nodes
    }

    /// Runs one task per element of `tasks` as the stage `stage` (the name of
    /// its recorded task spans, fail points and checkpoint keys), task `i` on
    /// node [`node_of_partition`](Cluster::node_of_partition)`(i)` — the only
    /// binding consistent with the shuffle's remote/local byte metering.
    ///
    /// With a fault context attached the stage's attempts are subject to
    /// injection, retries, blacklisting and speculation; without one it runs
    /// single-attempt. Either way a task that exhausts its attempts (or
    /// panics without a retry budget) surfaces as a [`JobError`]; the driver
    /// never unwinds.
    ///
    /// Tasks are `Clone` because the fault-tolerant executor may re-run one
    /// on another node — the analog of Spark recomputing a partition from
    /// lineage. An attempt that returns a [`TaskError`](crate::TaskError) is
    /// billed, retried and reported like one that panicked; a task that
    /// cannot fail returns `Ok(..)`.
    pub fn try_run_stage<T, R, F>(&self, stage: &str, tasks: Vec<T>, f: F) -> StageResult<R>
    where
        T: Send + Sync + Clone,
        R: Send,
        F: Fn(usize, T) -> Result<R, crate::TaskError> + Sync,
    {
        self.try_run_stage_committing(stage, tasks, f, &|_, _| {})
    }

    /// [`Cluster::try_run_stage`] with a `commit` hook: it sees each task's
    /// result once, on the worker, when the attempt that produced it
    /// commits — never a failed, killed or losing speculative attempt's —
    /// and may take from it what should leave the task before the stage
    /// ends. The stage returns what the hook left.
    pub fn try_run_stage_committing<T, R, F>(
        &self,
        stage: &str,
        tasks: Vec<T>,
        f: F,
        commit: &CommitHook<R>,
    ) -> StageResult<R>
    where
        T: Send + Sync + Clone,
        R: Send,
        F: Fn(usize, T) -> Result<R, crate::TaskError> + Sync,
    {
        let placement: Vec<usize> = (0..tasks.len())
            .map(|i| self.node_of_partition(i))
            .collect();
        // Stage boundary: under a job server, park here until this job is
        // granted its quantum; the grant covers this one stage plus the
        // driver work that follows it.
        if let Some(gate) = &self.gate {
            gate.pause();
        }
        if let (Some(ctx), false) = (&self.faults, tasks.is_empty()) {
            let mut ran = ctx.state.stages_run.lock().expect("fault state poisoned");
            ran.insert(stage.to_string());
        }
        let result = try_run_stage(
            self.config.threads,
            self.config.nodes,
            tasks,
            &placement,
            &self.recorder,
            stage,
            self.faults.as_deref(),
            f,
            commit,
        );
        if let (Some(gate), Ok((_, stats))) = (&self.gate, &result) {
            gate.note_stage(stats);
        }
        result
    }

    /// [`Cluster::try_run_stage`] for stages whose per-task result is a
    /// `(records, accumulator)` pair of [`Wire`] types — the shape of the
    /// partition-local join phase — and whose tasks may fail without
    /// panicking: a task that returns a [`TaskError`](crate::TaskError) is
    /// billed, retried and reported like one that panicked. With a checkpoint store attached the
    /// stage is resumable exactly like a shuffle (same protocol, see
    /// `Cluster::checkpointed`): the join phase is the ε-grid's
    /// memory-pressure peak, so skipping it on recovery is the largest
    /// saving available.
    ///
    /// `commit` is [`Cluster::try_run_stage_committing`]'s hook. With a
    /// store attached it runs on the driver instead, in partition order,
    /// once the stage's output is saved or replayed: a checkpoint holds
    /// what the tasks returned, not what the hook left.
    pub fn run_stage_checkpointed<T, Rec, Acc, F>(
        &self,
        stage: &str,
        tasks: Vec<T>,
        f: F,
        commit: &CommitHook<(Vec<Rec>, Acc)>,
    ) -> StageResult<(Vec<Rec>, Acc)>
    where
        T: Send + Sync + Clone,
        Rec: Wire + Send + Sync,
        Acc: Wire + Send + Sync,
        F: Fn(usize, T) -> Result<(Vec<Rec>, Acc), crate::TaskError> + Sync,
    {
        let codec = (encode_join_part::<Rec, Acc>, decode_join_part::<Rec, Acc>);
        let in_pool = self.checkpoint.is_none();
        let (mut parts, _, stats) = self.checkpointed(stage, tasks.len(), codec, || {
            let (parts, stats) = if in_pool {
                self.try_run_stage_committing(stage, tasks, f, commit)?
            } else {
                self.try_run_stage(stage, tasks, f)?
            };
            // The join phase has no shuffle meters; its manifest records the
            // result count and encoded size per partition.
            let meters = ShuffleStats {
                records: parts.iter().map(|(out, _)| out.len() as u64).sum(),
                partition_bytes: parts.iter().map(|p| join_part_size(p) as u64).collect(),
                ..ShuffleStats::default()
            };
            Ok((parts, meters, stats))
        })?;
        if !in_pool {
            for (idx, part) in parts.iter_mut().enumerate() {
                commit(idx, part);
            }
        }
        Ok((parts, stats))
    }

    /// Makes a value available to every task, like Spark's broadcast
    /// variables (Algorithm 5 broadcasts the agreement-loaded grid).
    pub fn broadcast<T>(&self, value: T) -> Broadcast<T> {
        Broadcast {
            inner: Arc::new(value),
        }
    }
}

/// A stage's commit hook: called with a task's index and result when the
/// attempt that produced it commits (see
/// [`Cluster::try_run_stage_committing`]).
pub type CommitHook<'a, R> = dyn Fn(usize, &mut R) + Sync + 'a;

/// A read-only value shared with all tasks.
#[derive(Debug)]
pub struct Broadcast<T> {
    inner: Arc<T>,
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Deref for Broadcast<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_partition_binding() {
        let c = Cluster::new(ClusterConfig::with_threads(4, 1));
        assert_eq!(c.node_of_partition(0), 0);
        assert_eq!(c.node_of_partition(5), 1);
        assert_eq!(c.node_of_partition(96), 0);
        assert_eq!(c.nodes(), 4);
    }

    #[test]
    fn run_partitioned_attributes_round_robin() {
        let c = Cluster::new(ClusterConfig::with_threads(3, 2));
        let (out, stats) = c
            .try_run_stage("task", vec![1u64, 2, 3, 4, 5, 6], |i, t| Ok(t + i as u64))
            .expect("stage runs");
        assert_eq!(out, vec![1, 3, 5, 7, 9, 11]);
        assert_eq!(stats.per_node_busy.len(), 3);
    }

    #[test]
    fn broadcast_shares_one_value() {
        let c = Cluster::new(ClusterConfig::with_threads(2, 2));
        let b = c.broadcast(vec![1, 2, 3]);
        let b2 = b.clone();
        assert_eq!(*b2, vec![1, 2, 3]);
        assert!(std::ptr::eq(&*b, &*b2));
    }

    #[test]
    fn default_config_uses_host_parallelism() {
        let cfg = ClusterConfig::new(12);
        assert_eq!(cfg.nodes, 12);
        assert!(cfg.threads >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected_at_config_construction() {
        let _ = ClusterConfig::with_threads(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected_at_config_construction() {
        let _ = ClusterConfig::with_threads(4, 0);
    }

    #[test]
    fn try_stage_reports_panics_as_job_errors() {
        let c = Cluster::new(ClusterConfig::with_threads(2, 2));
        let err = c
            .try_run_stage("boom", vec![1u32, 2, 3], |_, t| {
                assert!(t != 2, "poison value");
                Ok(t)
            })
            .expect_err("panicking stage must error");
        assert_eq!(err.stage, "boom");
        assert_eq!(err.task, 1);
    }

    #[test]
    fn fault_context_routes_stages_through_recovery() {
        let plan = FaultPlan::none().with_fail_point("task", 0, 1);
        let c = Cluster::new(ClusterConfig::with_threads(2, 2)).with_faults(plan);
        let (out, stats) = c
            .try_run_stage("task", vec![10u64, 20], |_, t| Ok(t + 1))
            .expect("recovers");
        assert_eq!(out, vec![11, 21]);
        assert_eq!(stats.attempts, 3, "one injected failure plus two wins");
        assert_eq!(stats.retries, 1);
        // Fail points match by stage name: a differently-named stage is
        // untouched by the plan.
        let (_, stats2) = c
            .try_run_stage("clean", vec![1u64], |_, t| Ok(t))
            .expect("stage runs");
        assert_eq!(stats2.retries, 0);
    }

    #[test]
    fn fault_plans_report_the_stages_they_never_reached() {
        use std::collections::BTreeSet;
        let plan = FaultPlan::parse(
            "fail:task:0@1,oom:ghost:0@1,stage:empty=0.5,fail:ghost:1@1",
            0,
        )
        .expect("plan parses");
        let c = Cluster::new(ClusterConfig::with_threads(2, 2)).with_faults(plan);
        let ctx = c.fault_context().expect("context attached");
        let never = ctx.stages_never_run();
        assert_eq!(never, BTreeSet::from(["empty", "ghost", "task"]));
        c.try_run_stage("task", vec![1u64], |_, t| Ok(t))
            .expect("recovers");
        // A stage with no tasks ran nothing either.
        c.try_run_stage("empty", Vec::<u64>::new(), |_, t| Ok(t))
            .expect("empty stage");
        let never = ctx.stages_never_run();
        assert_eq!(never, BTreeSet::from(["empty", "ghost"]));
    }

    #[test]
    fn retry_policy_alone_recovers_flaky_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c = Cluster::new(ClusterConfig::with_threads(1, 1))
            .with_retry_policy(RetryPolicy::default());
        let flaky = AtomicUsize::new(0);
        let (out, stats) = c
            .try_run_stage("task", vec![5u32], |_, t| {
                if flaky.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                Ok(t)
            })
            .expect("retried");
        assert_eq!(out, vec![5]);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed_attempts, 1);
    }

    /// A checkpoint that cannot be saved never fails or changes the stage:
    /// the failure is counted and announced, and nothing stays on disk.
    #[test]
    fn a_failed_save_is_counted_and_leaves_no_files() {
        use crate::memory::{decode_records, encode_records_into};
        use crate::{HashPartitioner, KeyedDataset};
        let dir = std::env::temp_dir().join(format!("asj-save-failed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = Recorder::for_nodes(2);
        let plain = Cluster::new(ClusterConfig::with_threads(2, 2));
        let cluster = plain
            .clone()
            .with_recorder(recorder.clone())
            .with_checkpoint_dir(&dir)
            .expect("open checkpoint dir");
        let data = || {
            KeyedDataset::from_partitions(vec![
                (0..50u64).map(|i| (i, i * 3)).collect(),
                (50..90u64).map(|i| (i, i * 5)).collect(),
            ])
        };
        let by_hash = HashPartitioner::new(4);
        let (expect, expect_stats, _) = data()
            .shuffle_stage(&plain, &by_hash, "shuffle")
            .expect("plain shuffle");
        let expect = expect.into_rows().expect("in-memory blocks");
        let failures = |stage| recorder.counter_value(stage, "checkpoint_save_failed");

        // An encoder that writes one byte more than the stage metered.
        let parts = expect.partitions().to_vec();
        let overlong = (
            |part: &Vec<(u64, u64)>, buf: &mut Vec<u8>| {
                buf.push(0);
                encode_records_into(part, buf)
            },
            |bytes: &[u8], records| decode_records(bytes, records).ok(),
        );
        let (got, _, _) = cluster
            .checkpointed("overlong", parts.len(), overlong, || {
                Ok((parts.clone(), expect_stats.clone(), ExecStats::default()))
            })
            .expect("the stage still succeeds");
        assert_eq!(got, parts);
        assert_eq!(failures("overlong"), Some(1));
        assert_eq!(std::fs::read_dir(&dir).expect("list").count(), 0);

        // The checkpoint directory is replaced by a file mid-run.
        std::fs::remove_dir_all(&dir).expect("remove dir");
        std::fs::write(&dir, b"not a directory").expect("plant file");
        let (got, got_stats, _) = data()
            .shuffle_stage(&cluster, &by_hash, "shuffle")
            .expect("the stage still succeeds");
        let got = got.into_rows().expect("in-memory blocks");
        assert_eq!(got.partitions(), expect.partitions());
        assert_eq!(got_stats, expect_stats);
        assert_eq!(failures("shuffle"), Some(1));
        assert_eq!(recorder.counter_value("shuffle", "checkpoint_bytes"), None);
        let announced = recorder.snapshot().events;
        let announced = announced
            .iter()
            .filter(|e| e.name == "checkpoint-save-failed");
        assert_eq!(announced.count(), 2);
        assert_eq!(
            std::fs::read(&dir).expect("still a file"),
            b"not a directory"
        );
        std::fs::remove_file(&dir).expect("cleanup");
    }

    #[test]
    fn recorder_attaches_and_records_stage_spans() {
        let r = Recorder::for_nodes(2);
        let c = Cluster::new(ClusterConfig::with_threads(2, 2)).with_recorder(r.clone());
        assert!(c.recorder().is_enabled());
        let (out, stats) = c
            .try_run_stage("double", vec![1u64, 2, 3, 4], |_, t| Ok(t * 2))
            .expect("stage runs");
        assert_eq!(out, vec![2, 4, 6, 8]);
        let trace = r.snapshot();
        assert_eq!(trace.spans.len(), 4);
        assert!(trace.spans.iter().all(|s| s.stage == "double"));
        let sim: std::time::Duration = (0..2).map(|n| r.node_sim_total(n)).sum();
        assert_eq!(sim, stats.total_busy());
    }
}
