//! Multi-tenant job server: admission control, deterministic fair-share
//! scheduling and per-job isolation on one simulated cluster.
//!
//! The engine governs a *single* ε-join end-to-end; this module runs **many**
//! of them on the same nodes, the way a production deployment would. Three
//! mechanisms, layered on what the engine already has:
//!
//! * **Admission control** — every [`JobSpec`] carries an estimated per-node
//!   working set. A job is admitted only when that estimate fits the
//!   remaining per-node budget (`budget − Σ reserved`); an estimate that can
//!   *never* fit is rejected at submit time with a typed
//!   [`SubmitError::RejectedMemory`] instead of a panic. Admission is
//!   capacity *planning*; the [`MemoryAccountant`](crate::MemoryAccountant)
//!   stays the hard enforcement (a mis-estimate degrades to spill, never to
//!   an OOM), which is exactly the replication-vs-reducer-memory trade-off of
//!   Afrati & Ullman applied at the cluster door.
//!
//! * **Deterministic fair-share scheduling** — admitted jobs run their bodies
//!   on their own threads, but in *lockstep*: a shared stage gate parks every
//!   job at each stage boundary, and the scheduler grants exactly one job one
//!   quantum (driver work plus at most one parallel stage) at a time. Because
//!   at most one job is ever mid-quantum, results, per-job accounting and the
//!   grant order are all reproducible. Fair share is weighted round-robin on
//!   *quantum counts* (`vruntime = quanta × 10⁶ / weight`, ties broken by job
//!   id) — deliberately not on measured durations, which would be noisy.
//!   [`SchedPolicy::Fifo`] (always the lowest admitted id) is kept as the A/B
//!   baseline.
//!
//! * **Per-job isolation** — each job gets its own clone of the cluster
//!   handle carrying (a) a [`Recorder`](crate::Recorder) view prefixed
//!   `job:<id>:` so spans, events and counters land in per-tenant lanes,
//!   (b) its **own** fault context (plan, retry policy, attempt counters,
//!   blacklist) so one tenant's chaos plan cannot blacklist nodes for
//!   another, and (c) exclusive quanta: one stage is in flight at a time, so
//!   a shuffle's plan may split the whole per-node memory budget over its
//!   own map tasks ([`MemoryAccountant::ledgers`](crate::MemoryAccountant::ledgers))
//!   and no tenant's spilling depends on another's. A body that returns
//!   `Err` (a failed stage, typically) or panics is reported per job; the
//!   other tenants keep running.

use crate::checkpoint::CheckpointTimes;
use crate::cluster::Cluster;
use crate::digest::fnv1a;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::journal::{replay, Journal, JournalRecord};
use crate::metrics::ExecStats;
use crate::pool::panic_msg;
use crate::wire::Wire;
use asj_obs::{Attrs, Lane};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Identifies a submitted job; assigned densely in submit order.
pub type JobId = usize;

/// How the server picks the next parked job to grant a quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Weighted round-robin by quantum count, tie-broken by job id. Every
    /// admitted job is served within each round, so queue waits stay bounded
    /// by the round length instead of the whole backlog.
    #[default]
    FairShare,
    /// Strictly lowest admitted job id until it finishes — run-to-completion
    /// in submit order. The baseline fair share is measured against.
    Fifo,
}

impl SchedPolicy {
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::FairShare => "fair-share",
            SchedPolicy::Fifo => "fifo",
        }
    }

    /// Parses `"fair-share"` / `"fifo"` (as the CLI and bench spell them).
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "fair-share" | "fairshare" | "fair" => Some(SchedPolicy::FairShare),
            "fifo" => Some(SchedPolicy::Fifo),
            _ => None,
        }
    }
}

/// Why a submission was refused. Typed, so drivers can queue elsewhere or
/// shed load instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The job's estimated per-node working set exceeds the per-node budget
    /// outright — it could never be admitted, even on an idle cluster.
    RejectedMemory {
        /// The job's estimated per-node working set.
        estimate_bytes: u64,
        /// The cluster's per-node budget.
        budget_bytes: u64,
    },
    /// The submission queue is at capacity.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::RejectedMemory {
                estimate_bytes,
                budget_bytes,
            } => write!(
                f,
                "estimated working set of {estimate_bytes} B/node exceeds the \
                 per-node budget of {budget_bytes} B"
            ),
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue is full ({capacity} jobs)")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

type JobBody<R> = Box<dyn FnOnce(&Cluster) -> Result<R, String> + Send + 'static>;

/// One tenant's job: a name, scheduling weight, admission estimate, optional
/// private fault plan, and the body that runs it on a (gated, prefixed,
/// per-job) cluster handle.
pub struct JobSpec<R> {
    name: String,
    weight: u32,
    estimate_bytes: u64,
    faults: Option<(FaultPlan, RetryPolicy)>,
    body: JobBody<R>,
}

impl<R> std::fmt::Debug for JobSpec<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("weight", &self.weight)
            .field("estimate_bytes", &self.estimate_bytes)
            .field("faults", &self.faults.is_some())
            .finish_non_exhaustive()
    }
}

impl<R> JobSpec<R> {
    /// A job with weight 1 and a zero (always-admissible) memory estimate.
    /// The body's error (a failed stage, a rejected spec) is reported as this
    /// job's [`JobReport::result`]; it fails only this job.
    pub fn new<E: std::fmt::Display>(
        name: impl Into<String>,
        body: impl FnOnce(&Cluster) -> Result<R, E> + Send + 'static,
    ) -> Self {
        JobSpec {
            name: name.into(),
            weight: 1,
            estimate_bytes: 0,
            faults: None,
            body: Box::new(move |cluster| body(cluster).map_err(|e| e.to_string())),
        }
    }

    /// Fair-share weight: a weight-2 job receives twice the quanta of a
    /// weight-1 job while both are runnable.
    ///
    /// # Panics
    /// Panics if `weight == 0` (it would never be scheduled).
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight > 0, "job weight must be positive");
        self.weight = weight;
        self
    }

    /// Estimated per-node working set, checked against the cluster budget at
    /// submit and admission time. Zero means "admit whenever a slot is free".
    pub fn with_estimate(mut self, bytes: u64) -> Self {
        self.estimate_bytes = bytes;
        self
    }

    /// A private fault plan and retry policy for this job. Fault state
    /// (attempt counters, blacklist) is created fresh per job, so injected
    /// chaos here never leaks into another tenant's retries.
    pub fn with_faults(mut self, plan: FaultPlan, policy: RetryPolicy) -> Self {
        self.faults = Some((plan, policy));
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn estimate_bytes(&self) -> u64 {
        self.estimate_bytes
    }
}

/// Everything the server measured about one finished job.
#[derive(Debug)]
pub struct JobReport<R> {
    pub id: JobId,
    pub name: String,
    pub weight: u32,
    pub estimate_bytes: u64,
    /// The body's return value, or its error rendered (the panic message if
    /// the body crashed). A failure fails only this job; other tenants keep
    /// running.
    pub result: Result<R, String>,
    /// This job's stages accumulated (attempts, retries, spill, per-node
    /// busy). Isolated: no other tenant's stages are mixed in.
    pub stats: ExecStats,
    /// Parallel stages the job ran.
    pub stages: u64,
    /// Scheduling quanta the job consumed (stages + driver-only windows).
    pub quanta: u64,
    /// Server clock when the job was admitted (reservation taken).
    pub admitted_at: Duration,
    /// Server clock at the job's first granted quantum.
    pub first_service_at: Duration,
    /// Server clock when the job finished.
    pub finished_at: Duration,
    /// The result was replayed from a journaled `done` record instead of
    /// re-running the body — set only by [`JobServer::recover`].
    pub recovered: bool,
}

impl<R> JobReport<R> {
    /// Time from submit (server clock 0) to first granted quantum — how long
    /// the tenant waited before any of its work ran.
    pub fn queue_wait(&self) -> Duration {
        self.first_service_at
    }

    /// Time from submit (server clock 0) to completion.
    pub fn turnaround(&self) -> Duration {
        self.finished_at
    }

    /// Simulated makespan of this job's own stages (max per-node busy).
    pub fn makespan(&self) -> Duration {
        self.stats.makespan()
    }
}

/// Outcome of [`JobServer::run`]: per-job reports (in submit order) plus the
/// server-level schedule.
#[derive(Debug)]
pub struct ServerRun<R> {
    pub policy: SchedPolicy,
    pub reports: Vec<JobReport<R>>,
    /// The quantum grant log, in order. Depends only on weights, stage
    /// counts, estimates and ids — never on measured durations — so it is
    /// byte-identical across runs of the same queue.
    pub grants: Vec<JobId>,
    /// Final server clock: submit-to-last-completion in serialized simulated
    /// time (each quantum advances the clock by its stage's makespan).
    pub clock: Duration,
    /// The server crashed (a [`FaultPlan::with_crash_after_grants`] clause
    /// fired) before draining the queue. Reports for unfinished jobs carry
    /// `Err` results; the journal on disk holds everything needed to
    /// [`JobServer::recover`].
    pub crashed: bool,
    /// Shuffle stages whose outputs were replayed from checkpoints instead
    /// of recomputed (from the cluster's [`CheckpointStore`](crate::CheckpointStore) counters).
    pub stages_recovered: u64,
    /// Bytes written to stage checkpoints during this run.
    pub checkpoint_bytes: u64,
    /// Wall time of this run's checkpoint saves and retention GC, by step.
    pub checkpoint_times: CheckpointTimes,
    /// For a recovered server: the grant log of the crashed run, as read
    /// back from the journal. Recovery proptests pin that this equals a
    /// prefix of the uncrashed run's `grants`.
    pub journal_grants: Vec<JobId>,
}

/// Per-job slot in the shared gate.
#[derive(Debug, Default)]
struct JobState {
    /// The scheduler granted a quantum that the job has not consumed yet.
    granted: bool,
    /// The job thread is parked at a stage boundary, waiting for a grant.
    parked: bool,
    /// The job body returned (or panicked); the thread is done.
    finished: bool,
    /// Stage stats accumulated by `note_stage`, isolated to this job.
    stats: ExecStats,
    stages: u64,
    quanta: u64,
    /// Simulated cost of the quantum in flight (its stage's makespan);
    /// drained into the server clock when the quantum ends.
    window_cost: Duration,
}

#[derive(Debug, Default)]
struct GateCore {
    state: Mutex<Vec<JobState>>,
    cv: Condvar,
}

/// Handle a job's cluster clone uses to participate in lockstep scheduling.
/// [`JobGate::pause`] parks at a stage boundary until granted;
/// [`JobGate::note_stage`] bills a completed stage to the job.
#[derive(Debug)]
pub(crate) struct JobGate {
    core: Arc<GateCore>,
    job: JobId,
}

impl JobGate {
    /// Parks the calling job thread until the scheduler grants it a quantum.
    /// Called by [`Cluster::try_run_stage`] before dispatching, and by
    /// the server once before the body starts (so pre-stage driver work is
    /// gated too).
    pub(crate) fn pause(&self) {
        let mut st = self.core.state.lock().expect("job gate poisoned");
        st[self.job].parked = true;
        self.core.cv.notify_all();
        while !st[self.job].granted {
            st = self.core.cv.wait(st).expect("job gate poisoned");
        }
        st[self.job].granted = false;
        st[self.job].parked = false;
    }

    /// Bills a completed stage to the job: accumulates its stats and charges
    /// the quantum in flight with the stage's simulated makespan.
    pub(crate) fn note_stage(&self, stats: &ExecStats) {
        let mut st = self.core.state.lock().expect("job gate poisoned");
        let s = &mut st[self.job];
        s.stats.accumulate(stats);
        s.stages += 1;
        s.window_cost += stats.makespan();
    }

    /// Marks the job finished and wakes the scheduler. Called exactly once
    /// per job, after the body returned or panicked.
    fn finish(&self) {
        let mut st = self.core.state.lock().expect("job gate poisoned");
        st[self.job].finished = true;
        self.core.cv.notify_all();
    }
}

/// A submitted-but-not-yet-admitted job.
struct Queued<R> {
    id: JobId,
    spec: JobSpec<R>,
}

/// One admitted job's runtime bookkeeping.
struct Admitted<R> {
    id: JobId,
    name: String,
    weight: u32,
    estimate_bytes: u64,
    /// The job's thread: set at admission, taken (and joined) exactly once,
    /// at reap time or when the server dies.
    handle: Option<std::thread::JoinHandle<Result<R, String>>>,
    admitted_at: Duration,
    first_service_at: Option<Duration>,
}

impl<R> Admitted<R> {
    /// Bookkeeping for job `id` entering service at server clock `now`, its
    /// thread not started yet.
    fn new(id: JobId, spec: &JobSpec<R>, now: Duration) -> Self {
        Admitted {
            id,
            name: spec.name.clone(),
            weight: spec.weight,
            estimate_bytes: spec.estimate_bytes,
            handle: None,
            admitted_at: now,
            first_service_at: None,
        }
    }
}

/// Serializer turning a job result into the journal's `done`-record bytes.
type ResultCodec<R> = Arc<dyn Fn(&R) -> Vec<u8> + Send + Sync>;

/// The multi-tenant job server. Submit jobs, then [`JobServer::run`] the
/// queue to completion; see the module docs for the scheduling and isolation
/// model.
pub struct JobServer<R> {
    cluster: Cluster,
    policy: SchedPolicy,
    capacity: usize,
    queue: Vec<JobSpec<R>>,
    /// Write-ahead journal: admissions, grants, stage checkpoints and
    /// results are appended (and fsynced) *before* the corresponding state
    /// transition becomes visible to job threads.
    journal: Option<Arc<Journal>>,
    /// Encodes a job result for the journal's `done` record; installed by
    /// [`JobServer::with_journal`] / [`JobServer::recover`] (requires
    /// `R: Wire`).
    encode_result: Option<ResultCodec<R>>,
    /// Jobs whose bodies were replaced with journaled results by
    /// [`JobServer::recover`].
    recovered_jobs: HashSet<JobId>,
    /// Grant records of the crashed run, read back by [`JobServer::recover`].
    journal_grants: Vec<JobId>,
    /// Compact the journal after every N durable job completions
    /// ([`JobServer::with_compact_every`]); `None` disables automatic
    /// compaction.
    compact_every: Option<u64>,
}

impl<R> std::fmt::Debug for JobServer<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobServer")
            .field("policy", &self.policy)
            .field("capacity", &self.capacity)
            .field("queued", &self.queue.len())
            .field("journaled", &self.journal.is_some())
            .field("recovered_jobs", &self.recovered_jobs.len())
            .finish_non_exhaustive()
    }
}

/// Scale factor for quantum-count vruntime, so integer division by small
/// weights keeps full resolution.
const VRUNTIME_SCALE: u64 = 1_000_000;

impl<R: Send + 'static> JobServer<R> {
    /// A server over `cluster` with the default policy ([`SchedPolicy::FairShare`])
    /// and a queue capacity of 64. The cluster's memory budget (if any) is
    /// the admission budget.
    pub fn new(cluster: Cluster) -> Self {
        JobServer {
            cluster,
            policy: SchedPolicy::default(),
            capacity: 64,
            queue: Vec::new(),
            journal: None,
            encode_result: None,
            recovered_jobs: HashSet::new(),
            journal_grants: Vec::new(),
            compact_every: None,
        }
    }

    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Compacts the journal after every `n` durable job completions (a
    /// quiescent quantum boundary, so no appender races the rewrite). A
    /// long-lived server's journal stays proportional to its *live* records
    /// instead of its age. No-op without an attached journal.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn with_compact_every(mut self, n: u64) -> Self {
        assert!(n > 0, "compact-every interval must be positive");
        self.compact_every = Some(n);
        self
    }

    /// Bounds the submission queue; a submit past it returns
    /// [`SubmitError::QueueFull`].
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.capacity = capacity;
        self
    }

    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Submits a job. Admission control runs here for the *never-fits* case:
    /// an estimate above the per-node budget is rejected before any task —
    /// or even the job's thread — exists. Jobs that fit eventually are queued
    /// and admitted in submit order as reservations free up.
    pub fn submit(&mut self, spec: JobSpec<R>) -> Result<JobId, SubmitError> {
        if let Some(budget) = self.cluster.memory_budget() {
            if spec.estimate_bytes > budget {
                return Err(SubmitError::RejectedMemory {
                    estimate_bytes: spec.estimate_bytes,
                    budget_bytes: budget,
                });
            }
        }
        if self.queue.len() >= self.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = self.queue.len();
        self.queue.push(spec);
        Ok(id)
    }

    /// Runs the queue to completion and reports per job. See the module docs
    /// for the quantum protocol; the short version: admit in submit order
    /// under the memory budget, then repeatedly pick one parked job by
    /// policy, grant it one quantum, and wait for it to park again or finish.
    pub fn run(self) -> ServerRun<R> {
        // The crash clause is consulted only here: stage execution ignores
        // it, so a `crash@N` plan can ride the same FaultPlan that also
        // injects task faults.
        let crash_after = self
            .cluster
            .fault_context()
            .and_then(|ctx| ctx.plan.crash_after_grants);
        let mut sched = Scheduler::new(self);
        sched.admit();
        let crashed = loop {
            let finished = sched.settle_quantum();
            sched.reap(&finished);
            // A `crash@N` clause fires at this quantum boundary — after N
            // grants have been issued *and* completed (we are quiescent), and
            // before the N+1st is picked. Deterministic: the boundary depends
            // only on the grant log, never on wall time.
            if crash_after.is_some_and(|limit| sched.grants.len() as u64 >= limit) {
                sched.crash();
                break true;
            }
            if sched.running.is_empty() && sched.pending.is_empty() {
                break false;
            }
            sched.grant();
        };
        sched.finish(crashed)
    }
}

/// One [`JobServer::run`] in progress: the queue, the admitted jobs and the
/// server-level schedule, advanced one step at a time — admit, settle the
/// quantum in flight, reap, (crash,) grant.
struct Scheduler<R> {
    cluster: Cluster,
    policy: SchedPolicy,
    journal: Option<Arc<Journal>>,
    encode_result: Option<ResultCodec<R>>,
    recovered_jobs: HashSet<JobId>,
    journal_grants: Vec<JobId>,
    compact_every: Option<u64>,
    core: Arc<GateCore>,
    /// Submitted and not yet admitted, in submit order.
    pending: VecDeque<Queued<R>>,
    admitted: Vec<Admitted<R>>,
    /// Slots of `admitted` whose job has not been reaped.
    running: Vec<usize>,
    /// Sum of the running jobs' estimates: the budget already promised.
    reserved: u64,
    clock: Duration,
    grants: Vec<JobId>,
    reports: Vec<Option<JobReport<R>>>,
    /// The admitted slot of the quantum in flight.
    in_flight: Option<usize>,
    /// Durable completions since the last journal compaction.
    completions_since_compact: u64,
}

impl<R: Send + 'static> Scheduler<R> {
    fn new(server: JobServer<R>) -> Self {
        let n = server.queue.len();
        Scheduler {
            cluster: server.cluster,
            policy: server.policy,
            journal: server.journal,
            encode_result: server.encode_result,
            recovered_jobs: server.recovered_jobs,
            journal_grants: server.journal_grants,
            compact_every: server.compact_every,
            core: Arc::new(GateCore {
                state: Mutex::new((0..n).map(|_| JobState::default()).collect()),
                cv: Condvar::new(),
            }),
            pending: server
                .queue
                .into_iter()
                .enumerate()
                .map(|(id, spec)| Queued { id, spec })
                .collect(),
            admitted: Vec::with_capacity(n),
            running: Vec::new(),
            reserved: 0,
            clock: Duration::ZERO,
            grants: Vec::new(),
            reports: (0..n).map(|_| None).collect(),
            in_flight: None,
            completions_since_compact: 0,
        }
    }

    /// Admits queued jobs, in submit order, while the front fits the
    /// remaining budget. Strictly in order — no head-of-line bypass — so a
    /// large tenant cannot be starved by a stream of small ones. At
    /// admission decisions every running job is parked at a stage boundary
    /// with its charges settled, so `budget − reserved` is the true
    /// remaining capacity.
    fn admit(&mut self) {
        let recorder = self.cluster.recorder().clone();
        while let Some(front) = self.pending.front() {
            let est = front.spec.estimate_bytes;
            let budget = self.cluster.memory_budget();
            if budget.is_some_and(|b| est > b.saturating_sub(self.reserved)) {
                break;
            }
            let Queued { id, spec } = self.pending.pop_front().expect("front exists");
            let mut job = Admitted::new(id, &spec, self.clock);
            self.reserved += est;
            let gate = Arc::new(JobGate {
                core: Arc::clone(&self.core),
                job: id,
            });
            // The job's isolated cluster view: per-job obs lanes and
            // per-job fault state over the shared nodes, accountant and
            // cost model. A job without its own plan inherits the base
            // plan but still gets fresh state, so tenants never share a
            // blacklist.
            let mut jc = self
                .cluster
                .clone()
                .with_recorder(recorder.with_stage_prefix(format!("job:{id}:")));
            jc = match (&spec.faults, self.cluster.fault_context()) {
                (Some((plan, pol)), _) => jc.with_fault_policy(plan.clone(), *pol),
                (None, Some(ctx)) => jc.with_fault_policy(ctx.plan.clone(), ctx.policy),
                (None, None) => jc,
            };
            // Re-scope checkpoints per job: the scope is a pure function of
            // the job id, so a recovered server's re-submitted job resolves
            // the same checkpoint keys and replays its own completed stages.
            jc = jc.with_checkpoint_scope(
                format!("job{id}"),
                self.journal.as_ref().map(|j| (Arc::clone(j), id as u64)),
            );
            let jc = jc.with_stage_gate(Arc::clone(&gate));
            if let Some(journal) = &self.journal {
                // Write-ahead: the admission is durable before the job
                // thread exists.
                let _ = journal.append(&JournalRecord::Admit {
                    job: id as u64,
                    name: spec.name.clone(),
                });
            }
            let body = spec.body;
            let handle = std::thread::Builder::new()
                .name(format!("asj-job-{id}"))
                .spawn(move || {
                    // Initial park: nothing — not even pre-stage driver
                    // work — runs before the first grant.
                    gate.pause();
                    let out = catch_unwind(AssertUnwindSafe(|| body(&jc)))
                        .unwrap_or_else(|payload| Err(panic_msg(payload.as_ref())));
                    gate.finish();
                    out
                })
                .expect("spawn job thread");
            recorder.event(
                "job-admit",
                Lane::Driver,
                Some(id as u64),
                Attrs::new().bytes(est),
            );
            recorder.counter_add("jobs", "admitted", 1);
            job.handle = Some(handle);
            self.running.push(self.admitted.len());
            self.admitted.push(job);
        }
    }

    /// Waits for quiescence — every running job parked or finished (at most
    /// one can be mid-quantum: the one granted last) — then closes the
    /// quantum in flight: the server clock advances by its stage's simulated
    /// makespan (serialized time-sharing: quanta never overlap). Returns the
    /// slots of the jobs that finished.
    fn settle_quantum(&mut self) -> Vec<usize> {
        let mut st = self.core.state.lock().expect("job gate poisoned");
        loop {
            let busy = self.running.iter().any(|&slot| {
                let s = &st[self.admitted[slot].id];
                (s.granted || !s.parked) && !s.finished
            });
            if !busy {
                break;
            }
            st = self.core.cv.wait(st).expect("job gate poisoned");
        }
        let finished: Vec<usize> = self
            .running
            .iter()
            .copied()
            .filter(|&slot| st[self.admitted[slot].id].finished)
            .collect();
        if let Some(slot) = self.in_flight.take() {
            self.clock += std::mem::take(&mut st[self.admitted[slot].id].window_cost);
        }
        finished
    }

    /// Reaps completions: harvests results, releases reservations, makes
    /// the result durable. Freed reservations may then let queued jobs in,
    /// and the journal is compacted if due.
    fn reap(&mut self, finished: &[usize]) {
        if finished.is_empty() {
            return;
        }
        let recorder = self.cluster.recorder().clone();
        for &slot in finished {
            self.running.retain(|&r| r != slot);
            let job = &mut self.admitted[slot];
            let outcome = job
                .handle
                .take()
                .expect("job joined once")
                .join()
                .unwrap_or_else(|payload| Err(panic_msg(payload.as_ref())));
            recorder.counter_add("jobs", "completed", 1);
            recorder.event(
                "job-finish",
                Lane::Driver,
                Some(job.id as u64),
                Attrs::new(),
            );
            self.reserved = self.reserved.saturating_sub(job.estimate_bytes);
            if let (Some(journal), Some(encode), Ok(result)) =
                (&self.journal, &self.encode_result, &outcome)
            {
                // Durable completion: the result itself rides the journal
                // (with a checksum), so recovery replays it without
                // re-running the body at all.
                let bytes = encode(result);
                let checksum = fnv1a(&bytes);
                let done_durable = journal
                    .append(&JournalRecord::Done {
                        job: job.id as u64,
                        result: bytes,
                        checksum,
                    })
                    .is_ok();
                // Retention GC: this job's stage checkpoints are only needed
                // to shortcut a re-run, and the fsynced `done` record just
                // made any re-run unnecessary. The ordering is the safety
                // argument — GC strictly after the append succeeded, so a
                // crash mid-GC degrades to recomputation (or to a journal
                // replay), never to loss.
                if done_durable {
                    if let Some(store) = self.cluster.checkpoint_store() {
                        let before = store.times().gc;
                        if let Ok(reclaimed) = store.gc_scope(&format!("job{}", job.id)) {
                            recorder.counter_add("jobs", "checkpoint_gc_bytes", reclaimed);
                        }
                        let gc_ns = (store.times().gc - before).as_nanos() as u64;
                        recorder.counter_add("jobs", "checkpoint_gc_ns", gc_ns);
                    }
                    self.completions_since_compact += 1;
                }
            }
            self.report(slot, outcome);
        }
        self.admit();
        // Automatic era compaction: the server is quiescent (no quantum in
        // flight), so the rewrite cannot race an append. Failures are soft —
        // the uncompacted journal is still a valid (just larger) recovery
        // source.
        if let (Some(journal), Some(every)) = (&self.journal, self.compact_every) {
            if self.completions_since_compact >= every {
                self.completions_since_compact = 0;
                if let Ok(stats) = journal.compact() {
                    recorder.counter_add("jobs", "journal_compactions", 1);
                    recorder.counter_add(
                        "jobs",
                        "journal_bytes_reclaimed",
                        stats.bytes_before.saturating_sub(stats.bytes_after),
                    );
                }
            }
        }
    }

    /// Simulates process death at a quantum boundary and reports every job
    /// that had not finished as failed.
    fn crash(&mut self) {
        // Poison the gate mutex so every parked job thread panics out of its
        // wait instead of running another quantum. A throwaway thread panics
        // while holding the lock — the only way to poison a std Mutex.
        let poisoner = Arc::clone(&self.core);
        #[allow(clippy::panic)]
        let die_holding_the_lock = move || {
            let _guard = poisoner.state.lock().expect("pre-crash lock");
            panic!("simulated job-server crash");
        };
        let _ = std::thread::Builder::new()
            .name("asj-crash".into())
            .spawn(die_holding_the_lock)
            .expect("spawn crash thread")
            .join();
        self.core.cv.notify_all();
        for job in &mut self.admitted {
            if let Some(handle) = job.handle.take() {
                // Threads die by panicking on the poisoned gate; their
                // panics are the crash, not errors to surface.
                let _ = handle.join();
            }
        }
        self.cluster
            .recorder()
            .event("server-crash", Lane::Driver, None, Attrs::new());
        // Partial reports: reaped jobs keep their results, everything else
        // died with the server — admitted jobs mid-flight, queued jobs
        // before they ever ran.
        for slot in 0..self.admitted.len() {
            if self.reports[self.admitted[slot].id].is_none() {
                let died = "server crashed before completion".to_owned();
                self.report(slot, Err(died));
            }
        }
        while let Some(Queued { id, spec }) = self.pending.pop_front() {
            self.admitted.push(Admitted::new(id, &spec, self.clock));
            let died = "server crashed before admission".to_owned();
            self.report(self.admitted.len() - 1, Err(died));
        }
    }

    /// Picks the next parked job by policy and grants it a quantum. A no-op
    /// while freshly admitted threads have not reached their initial park —
    /// the next [`Scheduler::settle_quantum`] waits for them.
    fn grant(&mut self) {
        let pick = {
            let st = self.core.state.lock().expect("job gate poisoned");
            self.running
                .iter()
                .copied()
                .filter(|&slot| {
                    let s = &st[self.admitted[slot].id];
                    s.parked && !s.finished
                })
                .min_by_key(|&slot| {
                    let job = &self.admitted[slot];
                    match self.policy {
                        SchedPolicy::Fifo => (0u64, job.id),
                        SchedPolicy::FairShare => (
                            st[job.id].quanta * VRUNTIME_SCALE / u64::from(job.weight),
                            job.id,
                        ),
                    }
                })
        };
        let Some(slot) = pick else {
            return;
        };
        let job = &mut self.admitted[slot];
        job.first_service_at.get_or_insert(self.clock);
        self.grants.push(job.id);
        if let Some(journal) = &self.journal {
            // Write-ahead: the grant is on disk before the job thread can
            // observe it, so the journaled grant log is always a prefix of
            // (or equal to) the in-memory one.
            let _ = journal.append(&JournalRecord::Grant { job: job.id as u64 });
        }
        self.in_flight = Some(slot);
        let mut st = self.core.state.lock().expect("job gate poisoned");
        let s = &mut st[job.id];
        s.granted = true;
        s.quanta += 1;
        self.core.cv.notify_all();
    }

    /// Files the report of the job in `slot`, however it ended: reaped with
    /// its result, or dead with the server.
    fn report(&mut self, slot: usize, result: Result<R, String>) {
        let job = &self.admitted[slot];
        // After a simulated crash the gate is poisoned; its data is still
        // consistent (the crash fired at quiescence), so read through it.
        let mut st = self
            .core
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let s = &mut st[job.id];
        self.reports[job.id] = Some(JobReport {
            id: job.id,
            name: job.name.clone(),
            weight: job.weight,
            estimate_bytes: job.estimate_bytes,
            recovered: result.is_ok() && self.recovered_jobs.contains(&job.id),
            result,
            stats: std::mem::take(&mut s.stats),
            stages: s.stages,
            quanta: s.quanta,
            admitted_at: job.admitted_at,
            first_service_at: job.first_service_at.unwrap_or(self.clock),
            finished_at: self.clock,
        });
    }

    /// The run's single exit: every submitted job has a report by now.
    fn finish(self, crashed: bool) -> ServerRun<R> {
        if let Some(journal) = &self.journal {
            self.cluster.recorder().counter_add(
                "jobs",
                "journal_records",
                journal.records_appended(),
            );
        }
        let (stages_recovered, checkpoint_bytes, checkpoint_times) =
            match self.cluster.checkpoint_store() {
                Some(store) => (
                    store.stages_recovered(),
                    store.checkpoint_bytes(),
                    store.times(),
                ),
                None => Default::default(),
            };
        ServerRun {
            policy: self.policy,
            reports: self
                .reports
                .into_iter()
                .map(|r| r.expect("every submitted job reports, even on crash"))
                .collect(),
            grants: self.grants,
            clock: self.clock,
            crashed,
            stages_recovered,
            checkpoint_bytes,
            checkpoint_times,
            journal_grants: self.journal_grants,
        }
    }
}

impl<R: Wire + Send + 'static> JobServer<R> {
    /// Attaches a fresh write-ahead journal at `path` (truncating any
    /// previous file). Every admission, grant, checkpointed stage and job
    /// completion is appended and fsynced before the corresponding state
    /// transition, so a crash at any quantum boundary leaves a journal from
    /// which [`JobServer::recover`] can resume.
    pub fn with_journal(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.journal = Some(Arc::new(Journal::create(path)?));
        self.install_result_codec();
        Ok(self)
    }

    /// Rebuilds server state from a crashed run's journal.
    ///
    /// Job bodies are closures and cannot be serialized, so the recovery
    /// contract is: the caller re-submits the *same* specs in the *same*
    /// order (ids line up with the journal's), then calls `recover`. Jobs
    /// with a journaled `done` record have their bodies replaced by the
    /// decoded result (one quantum, zero stages, zero recompute); in-flight
    /// jobs keep their bodies and re-run against the same per-job checkpoint
    /// scope, so completed shuffle stages replay from disk instead of
    /// recomputing. The crashed run's grant log is exposed via
    /// [`ServerRun::journal_grants`] for prefix verification.
    ///
    /// The journal is reopened for append — a torn tail cut back to the last
    /// complete record first — and a `recover` marker is written, delimiting
    /// the new era's records from the crashed run's.
    pub fn recover(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let (journal, records) = Journal::open_append(path)?;
        let replay = replay(&records);
        for (&job, &result) in &replay.done {
            let job = job as JobId;
            if job >= self.queue.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "journal records job {job} but only {} were re-submitted",
                        self.queue.len()
                    ),
                ));
            }
            // An undecodable result is treated as "not done": the body
            // re-runs (checkpoints still shortcut its stages).
            let mut cursor: &[u8] = result;
            let Ok(decoded) = R::try_decode(&mut cursor) else {
                continue;
            };
            if !cursor.is_empty() {
                continue;
            }
            self.queue[job].body = Box::new(move |_c: &Cluster| Ok(decoded));
            self.recovered_jobs.insert(job);
        }
        journal.append(&JournalRecord::Recover)?;
        self.journal_grants = replay.grants.iter().map(|&job| job as JobId).collect();
        self.journal = Some(Arc::new(journal));
        self.install_result_codec();
        Ok(self)
    }

    fn install_result_codec(&mut self) {
        self.encode_result = Some(Arc::new(|r: &R| {
            let mut buf = Vec::with_capacity(r.encoded_size());
            r.encode(&mut buf);
            buf
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::dataset::KeyedDataset;
    use crate::partitioner::HashPartitioner;
    use asj_obs::Recorder;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_threads(2, 2))
    }

    /// What the test job bodies return: their value, or the stage's error.
    type Body<T> = Result<T, crate::fault::JobError>;

    /// A body that runs `stages` parallel stages and folds their outputs
    /// into a deterministic u64.
    fn staged(stages: usize, tag: u64) -> impl FnOnce(&Cluster) -> Body<u64> + Send + 'static {
        move |c: &Cluster| {
            let mut acc = tag;
            for s in 0..stages {
                let (out, _) = c.try_run_stage("work", vec![1u64, 2, 3, 4], |i, t| {
                    Ok(t * (i as u64 + 1) + acc)
                })?;
                acc = out.iter().sum::<u64>() + s as u64;
            }
            Ok(acc)
        }
    }

    /// A body that runs two shuffle stages and folds the shuffled records
    /// into a deterministic u64 — the workload for crash/recovery tests
    /// (shuffle stages are the checkpointable unit).
    fn shuffled_sum(keys: u64, tag: u64) -> impl FnOnce(&Cluster) -> Body<u64> + Send + 'static {
        move |c: &Cluster| {
            let mut acc = tag;
            for round in 0..2u64 {
                let recs: Vec<(u64, u64)> = (0..keys).map(|k| (k * 7 % keys, k + acc)).collect();
                let ds = KeyedDataset::from_partitions(vec![recs.clone(), recs]);
                let (shuffled, _, _) = ds.shuffle_stage(c, &HashPartitioner::new(4), "shuffle")?;
                for (i, part) in shuffled
                    .into_rows()?
                    .into_partitions()
                    .into_iter()
                    .enumerate()
                {
                    for (k, v) in part {
                        acc = acc
                            .wrapping_mul(31)
                            .wrapping_add(k ^ v ^ (i as u64) ^ round);
                    }
                }
            }
            Ok(acc)
        }
    }

    /// A fresh scratch directory for journal/checkpoint tests.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("asj-jobs-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// A body that shuffles keyed records (exercising the memory accountant)
    /// and returns the shuffled partitions.
    fn shuffling(
        keys: u64,
    ) -> impl FnOnce(&Cluster) -> Body<Vec<Vec<(u64, u64)>>> + Send + 'static {
        move |c: &Cluster| {
            let recs: Vec<(u64, u64)> = (0..keys).map(|k| (k * 7 % keys, k)).collect();
            let parts = vec![recs.clone(), recs];
            let ds = KeyedDataset::from_partitions(parts);
            let (shuffled, _, _) = ds.shuffle_stage(c, &HashPartitioner::new(4), "shuffle")?;
            Ok(shuffled.into_rows()?.into_partitions())
        }
    }

    #[test]
    fn fair_share_alternates_equal_weight_jobs() {
        let mut srv = JobServer::new(cluster());
        srv.submit(JobSpec::new("a", staged(2, 1))).expect("submit");
        srv.submit(JobSpec::new("b", staged(2, 2))).expect("submit");
        let run = srv.run();
        // 2 stages each → 3 quanta each (initial park + one per stage);
        // equal weights round-robin with id tiebreak.
        assert_eq!(run.grants, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(run.reports.len(), 2);
        assert!(run.reports.iter().all(|r| r.result.is_ok()));
        assert_eq!(run.reports[0].stages, 2);
        assert_eq!(run.reports[0].quanta, 3);
    }

    #[test]
    fn fifo_runs_jobs_to_completion_in_submit_order() {
        let mut srv = JobServer::new(cluster()).with_policy(SchedPolicy::Fifo);
        srv.submit(JobSpec::new("a", staged(2, 1))).expect("submit");
        srv.submit(JobSpec::new("b", staged(2, 2))).expect("submit");
        let run = srv.run();
        assert_eq!(run.grants, vec![0, 0, 0, 1, 1, 1]);
        // FIFO makes the second tenant wait out the whole first job.
        assert!(run.reports[1].queue_wait() >= run.reports[0].finished_at);
    }

    #[test]
    fn weighted_fair_share_grants_proportionally() {
        let mut srv = JobServer::new(cluster());
        srv.submit(JobSpec::new("heavy", staged(3, 1)).with_weight(2))
            .expect("submit");
        srv.submit(JobSpec::new("light", staged(3, 2)).with_weight(1))
            .expect("submit");
        let run = srv.run();
        // vruntime = quanta × 10⁶ / weight, ties to the lower id: the
        // weight-2 job draws twice the quanta while both are runnable.
        assert_eq!(run.grants, vec![0, 1, 0, 0, 1, 0, 1, 1]);
    }

    #[test]
    fn results_match_solo_runs_and_are_isolated() {
        let solo_a = staged(3, 10)(&cluster()).expect("solo a");
        let solo_b = staged(2, 20)(&cluster()).expect("solo b");
        let mut srv = JobServer::new(cluster());
        srv.submit(JobSpec::new("a", staged(3, 10)))
            .expect("submit");
        srv.submit(JobSpec::new("b", staged(2, 20)))
            .expect("submit");
        let run = srv.run();
        assert_eq!(run.reports[0].result, Ok(solo_a));
        assert_eq!(run.reports[1].result, Ok(solo_b));
    }

    #[test]
    fn oversized_estimate_rejected_before_any_task_runs() {
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let c = cluster().with_memory_budget(1000);
        let mut srv = JobServer::new(c);
        let err = srv
            .submit(
                JobSpec::new("giant", move |c: &Cluster| {
                    flag.store(true, Ordering::Relaxed);
                    staged(1, 0)(c)
                })
                .with_estimate(2000),
            )
            .expect_err("estimate above the budget must be rejected");
        assert_eq!(
            err,
            SubmitError::RejectedMemory {
                estimate_bytes: 2000,
                budget_bytes: 1000
            }
        );
        assert!(err.to_string().contains("2000"));
        // The queue still runs fine without the rejected job — and the
        // rejected body never executed.
        srv.submit(JobSpec::new("ok", staged(1, 3)).with_estimate(500))
            .expect("fits");
        let run = srv.run();
        assert_eq!(run.reports.len(), 1);
        assert!(run.reports[0].result.is_ok());
        assert!(!ran.load(Ordering::Relaxed), "rejected body must never run");
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut srv = JobServer::new(cluster()).with_queue_capacity(1);
        srv.submit(JobSpec::new("a", staged(1, 1))).expect("fits");
        let err = srv
            .submit(JobSpec::new("b", staged(1, 2)))
            .expect_err("queue is full");
        assert_eq!(err, SubmitError::QueueFull { capacity: 1 });
    }

    #[test]
    fn admission_defers_jobs_past_the_reservation_budget() {
        let c = cluster().with_memory_budget(1000);
        let mut srv = JobServer::new(c);
        srv.submit(JobSpec::new("a", staged(2, 1)).with_estimate(600))
            .expect("submit");
        srv.submit(JobSpec::new("b", staged(2, 2)).with_estimate(600))
            .expect("submit");
        let run = srv.run();
        // Both fit the budget alone but not together: the second job waits
        // for the first's reservation even under fair share.
        assert_eq!(run.grants, vec![0, 0, 0, 1, 1, 1]);
        assert!(run.reports[1].admitted_at >= run.reports[0].finished_at);
        assert!(run.reports.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn a_crashing_job_fails_alone() {
        let mut srv = JobServer::new(cluster());
        srv.submit(JobSpec::new("doomed", |_c: &Cluster| -> Body<u64> {
            panic!("tenant bug");
        }))
        .expect("submit");
        srv.submit(JobSpec::new("fine", staged(2, 5)))
            .expect("submit");
        let run = srv.run();
        let err = run.reports[0].result.as_ref().expect_err("job panicked");
        assert!(err.contains("tenant bug"), "got: {err}");
        assert!(run.reports[1].result.is_ok());
    }

    #[test]
    fn fault_state_is_isolated_per_job() {
        let plan = FaultPlan::none().with_fail_point("work", 0, 1);
        let mut srv = JobServer::new(cluster());
        srv.submit(JobSpec::new("chaos", staged(1, 1)).with_faults(plan, RetryPolicy::default()))
            .expect("submit");
        srv.submit(JobSpec::new("calm", staged(1, 1)))
            .expect("submit");
        let run = srv.run();
        assert!(
            run.reports[0].stats.retries >= 1,
            "injected failure retried"
        );
        assert_eq!(run.reports[1].stats.retries, 0, "no cross-tenant faults");
        // Both recover to the same answer a fault-free solo run produces.
        let solo = staged(1, 1)(&cluster()).expect("solo");
        assert_eq!(run.reports[0].result, Ok(solo));
        assert_eq!(run.reports[1].result, Ok(solo));
    }

    /// Exclusive quanta keep one stage in flight, so each shuffle's plan
    /// splits the whole budget over its own map tasks: a tenant spills and
    /// is refused exactly what it is alone, and the shared per-node peak is
    /// the larger solo peak, within the budget.
    #[test]
    fn a_tenant_spills_as_it_does_alone() {
        let budget = 1024;
        let solo = |keys| {
            let c = cluster().with_memory_budget(budget);
            shuffling(keys)(&c).expect("solo run");
            c.memory_accountant().snapshot()
        };
        let (a, b) = (solo(64), solo(48));
        assert!(a.spilled_bytes > 0 && b.spilled_bytes > 0, "{a:?} {b:?}");
        let r = Recorder::for_nodes(2);
        let c = cluster()
            .with_recorder(r.clone())
            .with_memory_budget(budget);
        let mut srv = JobServer::new(c.clone());
        srv.submit(JobSpec::new("a", shuffling(64)).with_estimate(256))
            .expect("submit");
        srv.submit(JobSpec::new("b", shuffling(48)).with_estimate(256))
            .expect("submit");
        let run = srv.run();
        assert!(run.reports.iter().all(|rep| rep.result.is_ok()));
        let shared = c.memory_accountant().snapshot();
        assert_eq!(shared.spilled_bytes, a.spilled_bytes + b.spilled_bytes);
        assert_eq!(shared.budget_denials, a.budget_denials + b.budget_denials);
        let peaks: Vec<u64> = a
            .per_node_peak
            .iter()
            .zip(&b.per_node_peak)
            .map(|(x, y)| *x.max(y))
            .collect();
        assert_eq!(shared.per_node_peak, peaks);
        assert!(shared.peak_bytes <= budget);
        assert_eq!(r.counter_value("jobs", "admitted"), Some(2));
        assert_eq!(r.counter_value("jobs", "completed"), Some(2));
    }

    #[test]
    fn per_job_obs_lanes_are_prefixed() {
        let r = Recorder::for_nodes(2);
        let c = cluster().with_recorder(r.clone());
        let mut srv = JobServer::new(c);
        srv.submit(JobSpec::new("a", staged(1, 1))).expect("submit");
        srv.submit(JobSpec::new("b", staged(1, 2))).expect("submit");
        let run = srv.run();
        assert!(run.reports.iter().all(|rep| rep.result.is_ok()));
        let trace = r.snapshot();
        assert!(trace.spans.iter().any(|s| s.stage == "job:0:work"));
        assert!(trace.spans.iter().any(|s| s.stage == "job:1:work"));
        assert!(trace.events.iter().any(|e| e.name == "job-admit"));
        assert!(trace.events.iter().any(|e| e.name == "job-finish"));
    }

    #[test]
    fn shuffle_results_match_solo_under_interleaving() {
        let solo_a = shuffling(96)(&cluster()).expect("solo a");
        let solo_b = shuffling(32)(&cluster()).expect("solo b");
        let mut srv = JobServer::new(cluster());
        srv.submit(JobSpec::new("a", shuffling(96)))
            .expect("submit");
        srv.submit(JobSpec::new("b", shuffling(32)))
            .expect("submit");
        let run = srv.run();
        assert_eq!(run.reports[0].result.as_ref().expect("ok"), &solo_a);
        assert_eq!(run.reports[1].result.as_ref().expect("ok"), &solo_b);
    }

    #[test]
    fn policy_parse_round_trips() {
        assert_eq!(
            SchedPolicy::parse("fair-share"),
            Some(SchedPolicy::FairShare)
        );
        assert_eq!(SchedPolicy::parse("fifo"), Some(SchedPolicy::Fifo));
        assert_eq!(SchedPolicy::parse("nope"), None);
        assert_eq!(SchedPolicy::FairShare.name(), "fair-share");
    }

    #[test]
    fn empty_queue_runs_to_an_empty_report() {
        let srv: JobServer<u64> = JobServer::new(cluster());
        let run = srv.run();
        assert!(run.reports.is_empty());
        assert!(run.grants.is_empty());
        assert_eq!(run.clock, Duration::ZERO);
    }

    /// Submits the three-tenant recovery workload in a fixed order (the
    /// recovery contract: same specs, same order, same ids).
    fn submit_recovery_queue(srv: &mut JobServer<u64>) {
        srv.submit(JobSpec::new("a", shuffled_sum(64, 1)))
            .expect("submit");
        srv.submit(JobSpec::new("b", shuffled_sum(48, 2)))
            .expect("submit");
        srv.submit(JobSpec::new("c", shuffled_sum(32, 3)))
            .expect("submit");
    }

    #[test]
    fn crash_clause_stops_the_server_at_the_grant_boundary() {
        let c = cluster().with_fault_policy(
            FaultPlan::none().with_crash_after_grants(2),
            RetryPolicy::default(),
        );
        let mut srv = JobServer::new(c);
        submit_recovery_queue(&mut srv);
        let run = srv.run();
        assert!(run.crashed);
        assert_eq!(run.grants, vec![0, 1]);
        // Every submitted job still reports — unfinished ones as errors.
        assert_eq!(run.reports.len(), 3);
        assert!(run.reports.iter().all(|r| r.result.is_err()));
    }

    #[test]
    fn crash_then_recover_replays_results_and_checkpoints() {
        let dir = scratch_dir("recover");
        let journal_path = dir.join("server.journal");

        // Uncrashed oracle: plain cluster, no journal, no checkpoints.
        let mut oracle = JobServer::new(cluster());
        submit_recovery_queue(&mut oracle);
        let oracle = oracle.run();
        assert!(!oracle.crashed);
        let oracle_results: Vec<u64> = oracle
            .reports
            .iter()
            .map(|r| *r.result.as_ref().expect("oracle ok"))
            .collect();
        // 3 jobs × (initial park + 2 shuffle stages) = 9 grants.
        assert_eq!(oracle.grants.len(), 9);

        // Leg 1: journaled + checkpointed run that crashes after 7 grants —
        // job 0 has finished (done record), jobs 1 and 2 are mid-flight with
        // their first shuffle stage checkpointed.
        let crash_cluster = Cluster::new(ClusterConfig::with_threads(2, 2))
            .with_checkpoint_dir(&dir)
            .expect("open checkpoint dir")
            .with_fault_policy(
                FaultPlan::none().with_crash_after_grants(7),
                RetryPolicy::default(),
            );
        let mut srv = JobServer::new(crash_cluster)
            .with_journal(&journal_path)
            .expect("create journal");
        submit_recovery_queue(&mut srv);
        let crashed = srv.run();
        assert!(crashed.crashed);
        assert_eq!(crashed.grants[..], oracle.grants[..7]);
        assert!(crashed.reports[0].result.is_ok());
        assert!(crashed.reports[1].result.is_err());
        assert!(crashed.checkpoint_bytes > 0);

        // Leg 2: recover on a fresh cluster over the same checkpoint dir.
        let rec_cluster = Cluster::new(ClusterConfig::with_threads(2, 2))
            .with_checkpoint_dir(&dir)
            .expect("reopen checkpoint dir");
        let mut srv = JobServer::new(rec_cluster);
        submit_recovery_queue(&mut srv);
        let srv = srv.recover(&journal_path).expect("recover");
        let recovered = srv.run();
        assert!(!recovered.crashed);
        // The journaled grant log is exactly the prefix the uncrashed run
        // would have produced.
        assert_eq!(recovered.journal_grants[..], oracle.grants[..7]);
        // Results are byte-identical to the uncrashed oracle.
        let rec_results: Vec<u64> = recovered
            .reports
            .iter()
            .map(|r| *r.result.as_ref().expect("recovered ok"))
            .collect();
        assert_eq!(rec_results, oracle_results);
        // Job 0 replayed from its journaled done record...
        assert!(recovered.reports[0].recovered);
        assert_eq!(recovered.reports[0].stages, 0);
        // ...and jobs 1/2 replayed their checkpointed first stages instead
        // of recomputing them.
        assert!(recovered.stages_recovered >= 2);
        // Replayed stages bill zero task attempts, so recovery does strictly
        // less simulated work than the oracle re-running from scratch.
        let oracle_attempts: u64 = oracle.reports.iter().map(|r| r.stats.attempts).sum();
        let rec_attempts: u64 = recovered.reports.iter().map(|r| r.stats.attempts).sum();
        assert!(
            rec_attempts < oracle_attempts,
            "recovery should recompute less: {rec_attempts} vs {oracle_attempts}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_gc_and_compaction_keep_disk_bounded_and_recoverable() {
        let dir = scratch_dir("gc-compact");
        let journal_path = dir.join("server.journal");
        let ckpt_dir = dir.join("ckpt");

        // Oracle for the result bytes.
        let mut oracle = JobServer::new(cluster());
        submit_recovery_queue(&mut oracle);
        let oracle = oracle.run();
        let oracle_results: Vec<u64> = oracle
            .reports
            .iter()
            .map(|r| *r.result.as_ref().expect("oracle ok"))
            .collect();

        // Full run with journal + checkpoints + GC + per-completion
        // compaction.
        let c = Cluster::new(ClusterConfig::with_threads(2, 2))
            .with_checkpoint_dir(&ckpt_dir)
            .expect("open checkpoint dir");
        let store = Arc::clone(c.checkpoint_store().expect("store attached"));
        let mut srv = JobServer::new(c)
            .with_journal(&journal_path)
            .expect("create journal")
            .with_compact_every(1);
        submit_recovery_queue(&mut srv);
        let run = srv.run();
        assert!(!run.crashed);
        assert!(run.checkpoint_bytes > 0, "stages were checkpointed");
        assert_eq!(run.checkpoint_times, store.times());
        let spent = run.checkpoint_times;
        assert!(spent.fsync > Duration::ZERO && spent.gc > Duration::ZERO);
        // Retention: every job finished durably, so every job's checkpoints
        // were collected — post-run disk is bounded by in-flight jobs (none).
        assert_eq!(
            store.disk_usage_bytes().expect("usage"),
            0,
            "all finished jobs' checkpoints were GC'd"
        );
        // Compaction: the journal holds only live records — a compact
        // marker, the done records, and the last era's admissions/grants;
        // the per-stage records of done jobs are gone.
        let records = Journal::read(&journal_path).expect("compacted journal reads");
        assert!(
            matches!(records.first(), Some(JournalRecord::Compact { .. })),
            "compacted journal leads with its marker"
        );
        assert!(
            !records
                .iter()
                .any(|r| matches!(r, JournalRecord::Stage { .. })),
            "stage records of done jobs are dropped"
        );

        // The compacted journal still recovers the whole queue: bodies
        // would panic if re-run.
        let mut srv = JobServer::<u64>::new(cluster());
        for name in ["a", "b", "c"] {
            srv.submit(JobSpec::new(name, |_c: &Cluster| -> Body<u64> {
                panic!("body must not re-run")
            }))
            .expect("submit");
        }
        let srv = srv.recover(&journal_path).expect("recover");
        let replayed = srv.run();
        let replayed_results: Vec<u64> = replayed
            .reports
            .iter()
            .map(|r| *r.result.as_ref().expect("replayed ok"))
            .collect();
        assert_eq!(replayed_results, oracle_results);
        assert!(replayed.reports.iter().all(|r| r.recovered));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_jobs_skip_their_bodies_entirely() {
        let dir = scratch_dir("skip-body");
        let journal_path = dir.join("server.journal");
        // Run the whole queue to completion under a journal (no crash).
        let mut srv = JobServer::<u64>::new(cluster())
            .with_journal(&journal_path)
            .expect("create journal");
        srv.submit(JobSpec::new("a", staged(2, 1))).expect("submit");
        srv.submit(JobSpec::new("b", staged(2, 2))).expect("submit");
        let first = srv.run();
        let first_results: Vec<u64> = first
            .reports
            .iter()
            .map(|r| *r.result.as_ref().expect("ok"))
            .collect();

        // Recover: bodies would panic if run — replayed results must not
        // touch them.
        let mut srv = JobServer::<u64>::new(cluster());
        srv.submit(JobSpec::new("a", |_c: &Cluster| -> Body<u64> {
            panic!("body must not re-run")
        }))
        .expect("submit");
        srv.submit(JobSpec::new("b", |_c: &Cluster| -> Body<u64> {
            panic!("body must not re-run")
        }))
        .expect("submit");
        let srv = srv.recover(&journal_path).expect("recover");
        let second = srv.run();
        let second_results: Vec<u64> = second
            .reports
            .iter()
            .map(|r| *r.result.as_ref().expect("replayed ok"))
            .collect();
        assert_eq!(second_results, first_results);
        assert!(second.reports.iter().all(|r| r.recovered));
        // A fully-replayed queue consumes exactly one quantum per job.
        assert_eq!(second.grants.len(), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
