use crate::clock::{attempt_charge, timed, Ledger, Outcome};
use crate::cluster::CommitHook;
use crate::fault::{FaultContext, JobError, TaskError};
use crate::lpt::least_loaded;
use crate::metrics::ExecStats;
use asj_obs::{Attrs, Lane, Recorder};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A slot vector accessed concurrently, one owner per index.
///
/// # Safety
/// Callers must guarantee that at most one thread accesses any given index
/// (here: each index is claimed exactly once via `fetch_add` on a shared
/// counter, or via a compare-exchange on a per-index flag), and that reads of
/// the final values happen only after all writer threads have been joined
/// (the `thread::scope` exit provides the necessary happens-before edge).
struct Slots<V>(Vec<UnsafeCell<Option<V>>>);

// SAFETY: the one field is only reached through `take`/`put`, whose callers
// own their index exclusively (see the type docs), so no two threads ever
// touch the same cell; values move between threads, hence `V: Send`.
unsafe impl<V: Send> Sync for Slots<V> {}

impl<V> Slots<V> {
    fn filled(values: Vec<V>) -> Self {
        Slots(
            values
                .into_iter()
                .map(|x| UnsafeCell::new(Some(x)))
                .collect(),
        )
    }

    fn empty(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// Takes the value at `idx`.
    ///
    /// # Safety
    /// `idx` must be exclusively owned by the calling thread (see type docs).
    unsafe fn take(&self, idx: usize) -> Option<V> {
        (*self.0[idx].get()).take()
    }

    /// Stores a value at `idx`.
    ///
    /// # Safety
    /// `idx` must be exclusively owned by the calling thread (see type docs).
    unsafe fn put(&self, idx: usize, v: V) {
        *self.0[idx].get() = Some(v);
    }
}

/// Task inputs. Without a fault context every task runs exactly once, so its
/// input is moved out of its slot; with one, a retry or a speculative copy
/// may need the same input again — the analog of Spark recomputing a
/// partition from lineage — so every attempt clones from the shared vector.
enum Inputs<T> {
    Once(Slots<T>),
    Shared(Vec<T>),
}

impl<T: Clone> Inputs<T> {
    /// The input of task `idx`.
    ///
    /// # Safety
    /// For `Once`, task `idx` must be attempted exactly once over the life of
    /// the value (its claiming thread is then the slot's only owner).
    unsafe fn get(&self, idx: usize) -> T {
        match self {
            Inputs::Once(slots) => slots.take(idx).expect("task input taken once"),
            Inputs::Shared(tasks) => tasks[idx].clone(),
        }
    }
}

/// Renders a caught panic payload: a task's [`TaskError::Panic`], a job
/// body's failure message.
pub(crate) fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Executes `tasks` on a pool of `threads` OS threads and bills each attempt
/// to a simulated node, starting from `placement`, through the stage's
/// [`Ledger`](crate::clock::Ledger). Results are returned in task order.
///
/// This is the engine's only execution primitive. Real parallelism (the
/// thread count) is decoupled from the *simulated* cluster width (`nodes`):
/// on a small host the tasks may run on one or two threads, while the
/// returned [`ExecStats`] still reports the per-node busy times — and hence
/// the makespan — of the simulated cluster.
///
/// Every attempt runs under `catch_unwind`. **Without a fault context**
/// (`ctx == None`) each task's input is moved into its single attempt, there
/// is no retry and no straggler scan, and a panicking task fails the stage
/// with a [`JobError`] (`attempts == 1`).
///
/// Which task a failed stage reports does not depend on thread timing: a
/// task out of attempts cancels only the tasks *after* it, the ones before
/// it finish their attempts, and the lowest failing index wins.
///
/// **With a fault context** attempts are subject to its injection plan and
/// recovered according to its retry policy:
///
/// * a failed attempt (panic, injected fault, or lost node) is retried up to
///   `max_attempts` times, re-placed on the least-loaded node that is neither
///   blacklisted nor lost;
/// * a node accumulating `blacklist_after` failures is blacklisted for the
///   rest of the cluster's life (but never the last usable node);
/// * with speculation enabled, workers that drained the task queue clone the
///   slowest still-running tasks onto the least-loaded node; the first
///   finisher commits its result and the loser is killed;
/// * *every* attempt — failed, killed and winning alike — is billed, so the
///   makespan and the trace honestly reflect the price of recovery.
///
/// A task may also fail without panicking by returning a [`TaskError`] (an
/// unreadable spill segment, say): it is billed and retried like a panic.
///
/// `commit` sees each task's result once, on the worker, when that attempt
/// commits — never a failed, killed or losing speculative attempt's — and
/// may take from it what should leave the task before the stage ends (a
/// join partition's formatted pairs, say); what it leaves is returned.
///
/// # Panics
/// Panics if `placement.len() != tasks.len()`, `nodes == 0`, or the fault
/// context was sized for a different cluster. Task panics never propagate.
#[allow(clippy::too_many_arguments)] // executor entry point: each knob is load-bearing
pub(crate) fn try_run_stage<T, R, F>(
    threads: usize,
    nodes: usize,
    tasks: Vec<T>,
    placement: &[usize],
    recorder: &Recorder,
    stage: &str,
    ctx: Option<&FaultContext>,
    f: F,
    commit: &CommitHook<R>,
) -> Result<(Vec<R>, ExecStats), JobError>
where
    T: Send + Sync + Clone,
    R: Send,
    F: Fn(usize, T) -> Result<R, TaskError> + Sync,
{
    assert_eq!(placement.len(), tasks.len(), "one placement entry per task");
    assert!(nodes > 0, "cluster must have at least one node");
    debug_assert!(
        placement.iter().all(|&n| n < nodes),
        "placement out of range"
    );
    if let Some(ctx) = ctx {
        assert_eq!(
            ctx.state.nodes(),
            nodes,
            "fault state sized for a different cluster"
        );
    }
    let wall_start = Instant::now();
    let n_tasks = tasks.len();
    // An empty stage spawns no workers at all.
    let threads = threads.max(1).min(n_tasks);
    let max_attempts = ctx.map_or(1, |c| c.policy.max_attempts);
    let inputs = match ctx {
        None => Inputs::Once(Slots::filled(tasks)),
        Some(_) => Inputs::Shared(tasks),
    };
    let ledger = Ledger::new(recorder, stage, nodes);

    // Lock-free work distribution: workers claim task indices from a shared
    // counter and results live in per-index slots, so no lock is held while
    // running `f` and threads never contend on a results mutex.
    let next = AtomicUsize::new(0);
    // The lowest task index known to be out of attempts; every task after it
    // is cancelled, every task before it still runs (it may fail too, and
    // would then be the one reported).
    let abort_from = AtomicUsize::new(usize::MAX);
    let cancelled = |idx: usize| idx > abort_from.load(Ordering::Relaxed);
    let fatal: Mutex<Option<JobError>> = Mutex::new(None);
    // Per-task completion/speculation flags and the running-attempt registry
    // the straggler scan reads. `running_since` stores nanoseconds since
    // `wall_start` plus one (0 means "not currently running").
    let done: Vec<AtomicBool> = (0..n_tasks).map(|_| AtomicBool::new(false)).collect();
    let speculated: Vec<AtomicBool> = (0..n_tasks).map(|_| AtomicBool::new(false)).collect();
    let running_since: Vec<AtomicU64> = (0..n_tasks).map(|_| AtomicU64::new(0)).collect();
    let running_node: Vec<AtomicUsize> = (0..n_tasks).map(|_| AtomicUsize::new(0)).collect();
    let n_retries = AtomicU64::new(0);
    let n_spec_wins = AtomicU64::new(0);
    let result_slots: Slots<R> = Slots::empty(n_tasks);

    let now_ns = || wall_start.elapsed().as_nanos() as u64;
    // Least-loaded usable node, preferring to avoid `exclude`; the final
    // fallback ignores the blacklist entirely so the job fails with a real
    // error instead of starving when everything is lost.
    let pick_node = |ctx: &FaultContext, exclude: Option<usize>| -> usize {
        let loads = ledger.loads();
        let state = &ctx.state;
        least_loaded(&loads, |n| state.is_avoided(n) || Some(n) == exclude)
            .or_else(|| least_loaded(&loads, |n| state.is_avoided(n)))
            .or_else(|| least_loaded(&loads, |_| false))
            .expect("cluster has at least one node")
    };

    // Runs one attempt of task `idx` on `node`. `attempt` is 1-based for
    // regular attempts; speculative copies pass 0. `Ok(())` means the task
    // is complete (this attempt committed, or a competitor already had).
    let attempt_once = |idx: usize, attempt: usize, node: usize| -> Result<(), TaskError> {
        let (will_fail, will_oom, mult) = match ctx {
            None => (false, false, 1.0),
            Some(ctx) => {
                recorder.counter_add(stage, "attempts", 1);
                ctx.state.note_attempt_started(&ctx.plan, node);
                if ctx.state.is_lost(node) {
                    // A dead executor fails fast and burns no simulated time.
                    ledger.bill(Outcome::Failed, idx, node, Duration::ZERO, Duration::ZERO);
                    recorder.event(
                        "node_lost",
                        Lane::Node(node),
                        Some(idx as u64),
                        Attrs::new(),
                    );
                    return Err(TaskError::NodeLost { node });
                }
                (
                    ctx.plan.injects(stage, idx, attempt),
                    ctx.plan.injects_oom(stage, idx, attempt),
                    ctx.plan.slowdown(node),
                )
            }
        };
        running_node[idx].store(node, Ordering::Relaxed);
        running_since[idx].store(now_ns() + 1, Ordering::Relaxed);
        // SAFETY: without a fault context there is neither a retry
        // (`max_attempts` is 1) nor a speculative copy, so `idx` — claimed
        // once via `fetch_add` below — is attempted exactly once; with one
        // the inputs are shared and cloned.
        let (outcome, d0) =
            timed(|| catch_unwind(AssertUnwindSafe(|| f(idx, unsafe { inputs.get(idx) }))));
        let charged = attempt_charge(d0, mult);
        // Wall time this attempt held its node: the measured run, plus the
        // stretch below on a straggler node.
        let mut held = d0;
        if charged > d0 && matches!(outcome, Ok(Ok(_))) && !will_fail && !will_oom {
            // A straggler node really is slower: stretch the attempt in wall
            // time (in interruptible slices) to its charge, so a speculative
            // copy elsewhere can genuinely overtake it.
            let stretch = Instant::now();
            while d0 + stretch.elapsed() < charged {
                if done[idx].load(Ordering::Relaxed) || cancelled(idx) {
                    break;
                }
                let left = charged.saturating_sub(d0 + stretch.elapsed());
                std::thread::sleep(left.min(Duration::from_micros(500)));
            }
            held = d0 + stretch.elapsed();
        }
        running_since[idx].store(0, Ordering::Relaxed);
        // A failed attempt's result is discarded and its burned time billed
        // in full.
        let error = match outcome {
            Err(payload) => TaskError::Panic(panic_msg(payload.as_ref())),
            Ok(Err(e)) => e,
            // The attempt did its work and died at commit time.
            Ok(_) if will_fail => TaskError::Injected { attempt },
            Ok(_) if will_oom => {
                // Injected budget exhaustion, as a real OOM-killed executor.
                recorder.counter_add(stage, "oom_events", 1);
                recorder.event("oom", Lane::Node(node), Some(idx as u64), Attrs::new());
                if let Some(memory) = ctx.and_then(|c| c.memory.as_ref()) {
                    memory.note_oom();
                }
                TaskError::OutOfMemory { attempt }
            }
            Ok(Ok(mut r)) => {
                if done[idx]
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    commit(idx, &mut r);
                    // SAFETY: the `done` compare-exchange makes this thread
                    // the unique writer of slot `idx`; results are read only
                    // after the scope joins all workers.
                    unsafe { result_slots.put(idx, r) };
                    ledger.bill(Outcome::Committed, idx, node, held, charged);
                    if attempt == 0 {
                        n_spec_wins.fetch_add(1, Ordering::Relaxed);
                        recorder.counter_add(stage, "speculative_wins", 1);
                        recorder.event(
                            "speculation_win",
                            Lane::Node(node),
                            Some(idx as u64),
                            Attrs::new(),
                        );
                    }
                } else {
                    // Lost the race against a competitor attempt: this copy
                    // is killed, billed only for the time it held the node.
                    ledger.bill(Outcome::Killed, idx, node, held, held);
                }
                return Ok(());
            }
        };
        ledger.bill(Outcome::Failed, idx, node, d0, charged);
        Err(error)
    };

    // Books a failed attempt: failure counter, blacklisting.
    let note_failed = |node: usize| {
        let Some(ctx) = ctx else { return };
        recorder.counter_add(stage, "failed_attempts", 1);
        if ctx.state.note_failure(&ctx.policy, node) {
            recorder.counter_add(stage, "blacklisted_nodes", 1);
            recorder.event("node_blacklisted", Lane::Node(node), None, Attrs::new());
        }
    };

    // Straggler scan: once enough of the stage has finished, find a
    // still-running task whose elapsed time projects past the speculation
    // threshold and claim it for a speculative copy.
    let find_straggler = |ctx: &FaultContext| -> Option<(usize, usize)> {
        let policy = &ctx.policy;
        let (comp, mean_ns) = ledger.committed();
        if comp == 0 || (comp as f64) < policy.speculation_quantile * n_tasks as f64 {
            return None;
        }
        let threshold_ns = (mean_ns as f64 * policy.speculation_multiplier) as u64;
        let now = now_ns();
        for idx in 0..n_tasks {
            if done[idx].load(Ordering::Relaxed) || speculated[idx].load(Ordering::Relaxed) {
                continue;
            }
            let since = running_since[idx].load(Ordering::Relaxed);
            if since == 0 || now.saturating_sub(since - 1) <= threshold_ns {
                continue;
            }
            if speculated[idx]
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                let origin = running_node[idx].load(Ordering::Relaxed);
                let spec_node = pick_node(ctx, Some(origin));
                recorder.event(
                    "speculative_launch",
                    Lane::Node(spec_node),
                    Some(idx as u64),
                    Attrs::new(),
                );
                return Some((idx, spec_node));
            }
        }
        None
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Indices are claimed in order, so once one is cancelled
                // every later claim (and the speculation duty) is too.
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if cancelled(idx) {
                    return;
                }
                if idx < n_tasks {
                    // Fresh task: run it to completion, retrying failures.
                    let mut attempt = 1usize;
                    let mut node = placement[idx];
                    loop {
                        if cancelled(idx) || done[idx].load(Ordering::Relaxed) {
                            break;
                        }
                        let Err(e) = attempt_once(idx, attempt, node) else {
                            break;
                        };
                        note_failed(node);
                        let ctx = match ctx {
                            Some(ctx) if attempt < max_attempts => ctx,
                            _ => {
                                // Out of attempts — unless a competitor
                                // committed meanwhile, the stage is lost.
                                if !done[idx].load(Ordering::Relaxed) {
                                    let mut g = fatal.lock().expect("pool error slot poisoned");
                                    if g.as_ref().is_none_or(|lowest| idx < lowest.task) {
                                        *g = Some(JobError {
                                            stage: stage.to_string(),
                                            task: idx,
                                            attempts: attempt,
                                            error: e,
                                        });
                                    }
                                    abort_from.fetch_min(idx, Ordering::Relaxed);
                                }
                                break;
                            }
                        };
                        attempt += 1;
                        n_retries.fetch_add(1, Ordering::Relaxed);
                        recorder.counter_add(stage, "retries", 1);
                        let from = node;
                        node = pick_node(ctx, Some(node));
                        recorder.event(
                            "task_retry",
                            Lane::Node(node),
                            Some(idx as u64),
                            Attrs::new().records(from as u64),
                        );
                    }
                    continue;
                }
                // Queue drained: either help stragglers or leave.
                let Some(ctx) = ctx else { return };
                if !ctx.policy.speculation || ledger.committed().0 >= n_tasks as u64 {
                    return;
                }
                if let Some((tidx, spec_node)) = find_straggler(ctx) {
                    if attempt_once(tidx, 0, spec_node).is_err() {
                        // A failed speculative copy is just a failed attempt;
                        // the original is still running, so nothing retries.
                        note_failed(spec_node);
                    }
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
    });

    if let Some(e) = fatal.into_inner().expect("pool error slot poisoned") {
        return Err(e);
    }
    // The scope join above synchronizes all worker writes with these reads.
    let out: Vec<R> = result_slots
        .0
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every task committed a result or the job errored")
        })
        .collect();
    Ok((
        out,
        ExecStats {
            retries: n_retries.into_inner(),
            speculative_wins: n_spec_wins.into_inner(),
            blacklisted_nodes: ctx.map_or(0, |c| c.state.blacklisted_count()),
            ..ledger.into_stats(wall_start.elapsed())
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RetryPolicy};

    /// [`try_run_stage`] for tasks that can only fail by panicking.
    #[allow(clippy::too_many_arguments)] // see `try_run_stage`
    fn run_stage<T, R, F>(
        threads: usize,
        nodes: usize,
        tasks: Vec<T>,
        placement: &[usize],
        recorder: &Recorder,
        stage: &str,
        ctx: Option<&FaultContext>,
        f: F,
    ) -> Result<(Vec<R>, ExecStats), JobError>
    where
        T: Send + Sync + Clone,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let f = |idx, task| Ok(f(idx, task));
        let commit = |_: usize, _: &mut R| {};
        try_run_stage(
            threads, nodes, tasks, placement, recorder, stage, ctx, f, &commit,
        )
    }

    /// Single-attempt run: no fault context, no recorder.
    fn run_plain<T, R, F>(
        threads: usize,
        nodes: usize,
        tasks: Vec<T>,
        placement: &[usize],
        f: F,
    ) -> (Vec<R>, ExecStats)
    where
        T: Send + Sync + Clone,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        run_stage(
            threads,
            nodes,
            tasks,
            placement,
            &Recorder::noop(),
            "task",
            None,
            f,
        )
        .expect("stage succeeds")
    }

    #[test]
    fn results_preserve_task_order() {
        let tasks: Vec<u64> = (0..100).collect();
        let placement: Vec<usize> = (0..100).map(|i| i % 4).collect();
        let (out, stats) = run_plain(4, 4, tasks, &placement, |_, t| t * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(stats.per_node_busy.len(), 4);
        assert!(stats.wall > Duration::ZERO);
        assert_eq!(stats.attempts, 100);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failed_attempts, 0);
    }

    #[test]
    fn busy_time_attributed_to_placed_node() {
        // All tasks on node 2 of 3: only node 2 accumulates busy time.
        let tasks = vec![(); 8];
        let placement = vec![2usize; 8];
        let (_, stats) = run_plain(2, 3, tasks, &placement, |_, ()| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(stats.per_node_busy[0], Duration::ZERO);
        assert_eq!(stats.per_node_busy[1], Duration::ZERO);
        assert!(stats.per_node_busy[2] >= Duration::from_millis(16));
        assert_eq!(stats.makespan(), stats.per_node_busy[2]);
    }

    #[test]
    fn empty_task_list() {
        let (out, stats) = run_plain(4, 2, Vec::<u8>::new(), &[], |_, t| t);
        assert!(out.is_empty());
        assert_eq!(stats.per_node_busy, vec![Duration::ZERO; 2]);
        assert_eq!(stats.attempts, 0);
    }

    #[test]
    fn single_thread_executes_everything() {
        let tasks: Vec<usize> = (0..50).collect();
        let placement = vec![0usize; 50];
        let (out, _) = run_plain(1, 1, tasks, &placement, |idx, t| {
            assert_eq!(idx, t);
            t + 1
        });
        assert_eq!(out.len(), 50);
    }

    #[test]
    #[should_panic(expected = "one placement entry per task")]
    fn mismatched_placement_panics() {
        let _ = run_plain(1, 1, vec![1, 2, 3], &[0], |_, t| t);
    }

    #[test]
    fn task_panic_fails_the_job_with_a_typed_error() {
        // A failing task must fail the job (like a failed Spark stage), not
        // silently produce partial results — and not unwind into the caller.
        let res = run_stage(
            2,
            2,
            vec![1u32, 2, 3, 4],
            &[0, 1, 0, 1],
            &Recorder::noop(),
            "unit",
            None,
            |_, t| {
                assert!(t != 3, "task failure");
                t
            },
        );
        let err = res.expect_err("panicking task must fail the job");
        assert_eq!(err.stage, "unit");
        assert_eq!(err.task, 2);
        assert_eq!(err.attempts, 1);
        assert!(matches!(err.error, TaskError::Panic(ref m) if m.contains("task failure")));
    }

    /// A task that returns an error is retried like one that panics, and the
    /// error it returned is the one the job reports.
    #[test]
    fn a_returned_task_error_is_retried_then_reported() {
        let ctx = FaultContext::new(
            FaultPlan::none(),
            RetryPolicy::default().with_max_attempts(3),
            2,
        );
        let attempts = AtomicUsize::new(0);
        let res = try_run_stage(
            2,
            2,
            vec![1u32, 2],
            &[0, 1],
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t| {
                if t == 2 {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    return Err(TaskError::Spill("short read".into()));
                }
                Ok(t)
            },
            &|_, _| {},
        );
        let err = res.expect_err("a task that always errs fails the job");
        assert_eq!((err.task, err.attempts), (1, 3));
        assert_eq!(err.error, TaskError::Spill("short read".into()));
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn inputs_are_moved_without_a_fault_context_and_cloned_with_one() {
        static CLONES: AtomicUsize = AtomicUsize::new(0);
        struct Input(u32);
        impl Clone for Input {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Input(self.0)
            }
        }
        let tasks = || (0..16).map(Input).collect::<Vec<_>>();
        let placement: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let (out, _) = run_plain(2, 2, tasks(), &placement, |_, t: Input| t.0);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "single attempt: moved");
        let ctx = ft_ctx(FaultPlan::none(), RetryPolicy::default(), 2);
        let (out, _) = run_stage(
            2,
            2,
            tasks(),
            &placement,
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t: Input| t.0,
        )
        .expect("fault-free run succeeds");
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert_eq!(CLONES.load(Ordering::Relaxed), 16, "one clone per attempt");
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let (out, _) = run_plain(16, 4, vec![1u8, 2], &[0, 3], |_, t| t * 10);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn heavy_contention_returns_every_result_once() {
        // Stress the lock-free slot path: many tiny tasks over many threads.
        let n = 10_000;
        let tasks: Vec<usize> = (0..n).collect();
        let placement: Vec<usize> = (0..n).map(|i| i % 7).collect();
        let (out, stats) = run_plain(8, 7, tasks, &placement, |idx, t| {
            assert_eq!(idx, t);
            t
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert_eq!(
            stats.total_busy(),
            stats.per_node_busy.iter().sum::<Duration>()
        );
    }

    #[test]
    fn traced_run_spans_sum_to_per_node_busy() {
        let recorder = Recorder::for_nodes(3);
        let tasks: Vec<u32> = (0..30).collect();
        let placement: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let (_, stats) = run_stage(4, 3, tasks, &placement, &recorder, "unit", None, |_, t| {
            t + 1
        })
        .expect("stage succeeds");
        let trace = recorder.snapshot();
        assert_eq!(trace.spans.len(), 30);
        for node in 0..3 {
            let span_sum: u64 = trace
                .spans
                .iter()
                .filter(|s| s.lane == asj_obs::Lane::Node(node))
                .map(|s| s.sim_dur_ns)
                .sum();
            assert_eq!(span_sum, stats.per_node_busy[node].as_nanos() as u64);
            assert_eq!(recorder.node_sim_total(node), stats.per_node_busy[node]);
        }
    }

    fn ft_ctx(plan: FaultPlan, policy: RetryPolicy, nodes: usize) -> FaultContext {
        FaultContext::new(plan, policy, nodes)
    }

    #[test]
    fn ft_without_faults_matches_plain_run() {
        let tasks: Vec<u64> = (0..64).collect();
        let placement: Vec<usize> = (0..64).map(|i| i % 3).collect();
        let ctx = ft_ctx(FaultPlan::none(), RetryPolicy::default(), 3);
        let (out, stats) = run_stage(
            4,
            3,
            tasks,
            &placement,
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t| t * 3,
        )
        .expect("fault-free run succeeds");
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(stats.attempts, 64);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failed_attempts, 0);
        assert_eq!(stats.speculative_wins, 0);
        assert_eq!(stats.blacklisted_nodes, 0);
    }

    #[test]
    fn ft_retries_injected_failures_and_recovers() {
        // Attempt 1 of every task fails; attempt 2 succeeds.
        let plan = FaultPlan::none().with_fail_prob(0.0).with_seed(3);
        let plan = (0..8).fold(plan, |p, t| p.with_fail_point("unit", t, 1));
        let ctx = ft_ctx(plan, RetryPolicy::default(), 2);
        let tasks: Vec<u32> = (0..8).collect();
        let placement: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let (out, stats) = run_stage(
            2,
            2,
            tasks,
            &placement,
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t| t + 100,
        )
        .expect("retries must recover");
        assert_eq!(out, (0..8).map(|t| t + 100).collect::<Vec<_>>());
        assert_eq!(stats.attempts, 16, "each task needs exactly two attempts");
        assert_eq!(stats.retries, 8);
        assert_eq!(stats.failed_attempts, 8);
        assert!(stats.attempts > 8, "recovery must show up in the stats");
    }

    #[test]
    fn ft_retries_injected_oom_and_recovers() {
        // Attempt 1 of task 2 dies of injected budget exhaustion; the retry
        // lands elsewhere and succeeds, exactly like any other failure.
        let plan = FaultPlan::none().with_oom_point("unit", 2, 1);
        let memory = std::sync::Arc::new(crate::memory::MemoryAccountant::new(2, Some(1 << 20)));
        let ctx = FaultContext::new(plan, RetryPolicy::default(), 2)
            .with_memory(std::sync::Arc::clone(&memory));
        let tasks: Vec<u32> = (0..4).collect();
        let placement: Vec<usize> = (0..4).map(|i| i % 2).collect();
        let recorder = Recorder::for_nodes(2);
        let (out, stats) = run_stage(
            2,
            2,
            tasks,
            &placement,
            &recorder,
            "unit",
            Some(&ctx),
            |_, t| t + 10,
        )
        .expect("oom retry must recover");
        assert_eq!(out, (0..4).map(|t| t + 10).collect::<Vec<_>>());
        assert_eq!(stats.attempts, 5, "one oom retry on top of four tasks");
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed_attempts, 1);
        assert_eq!(memory.oom_events(), 1, "the accountant sees the injection");
        assert_eq!(recorder.counter_value("unit", "oom_events"), Some(1));
        let trace = recorder.snapshot();
        assert!(
            trace.events.iter().any(|e| e.name == "oom"),
            "the oom event must land in the trace"
        );
    }

    #[test]
    fn ft_exhausted_attempts_fail_the_job() {
        let plan = FaultPlan::none().with_stage_fail_prob("unit", 1.0);
        let ctx = ft_ctx(plan, RetryPolicy::default().with_max_attempts(3), 2);
        let err = run_stage(
            2,
            2,
            vec![1u8, 2],
            &[0, 1],
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t| t,
        )
        .expect_err("unsurvivable plan must fail");
        assert_eq!(err.attempts, 3);
        assert!(matches!(err.error, TaskError::Injected { .. }));
    }

    /// Tasks 0 and 3 are both doomed and task 3 runs out of attempts first
    /// (a barrier holds task 0 in its first attempt until task 3 is in its
    /// last): the stage still reports task 0, whose attempts all ran.
    #[test]
    fn ft_lowest_failing_task_is_reported_whichever_fails_first() {
        for round in 0..50 {
            let mut plan = FaultPlan::none();
            for (task, attempt) in [(0, 1), (0, 2), (3, 1), (3, 2)] {
                plan = plan.with_fail_point("unit", task, attempt);
            }
            let ctx = ft_ctx(plan, RetryPolicy::default().with_max_attempts(2), 2);
            let runs: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let meet = std::sync::Barrier::new(2);
            let err = run_stage(
                4,
                2,
                vec![(); 4],
                &[0, 1, 0, 1],
                &Recorder::noop(),
                "unit",
                Some(&ctx),
                |idx, ()| {
                    let run = runs[idx].fetch_add(1, Ordering::Relaxed) + 1;
                    if (idx, run) == (0, 1) || (idx, run) == (3, 2) {
                        meet.wait();
                    }
                },
            )
            .expect_err("two doomed tasks fail the stage");
            assert_eq!((err.task, err.attempts), (0, 2), "round {round}");
            assert_eq!(runs[0].load(Ordering::Relaxed), 2, "round {round}");
        }
    }

    #[test]
    fn ft_panicking_task_is_retried_on_another_node() {
        // The closure panics only on node-0 placements of task 0's input; the
        // retry lands elsewhere and succeeds. Panics are modelled by input
        // value since the closure cannot see the node — so panic exactly once
        // via an attempt counter.
        let boom = AtomicUsize::new(0);
        let ctx = ft_ctx(FaultPlan::none(), RetryPolicy::default(), 2);
        let (out, stats) = run_stage(
            1,
            2,
            vec![7u32],
            &[0],
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t| {
                if boom.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("first attempt dies");
                }
                t
            },
        )
        .expect("retry must recover from a panic");
        assert_eq!(out, vec![7]);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed_attempts, 1);
    }

    #[test]
    fn ft_lost_node_reroutes_work() {
        // Node 0 is lost immediately; everything placed there must be
        // rerouted to node 1 and still succeed.
        let plan = FaultPlan::none().with_lost_node(0, 0);
        let ctx = ft_ctx(plan, RetryPolicy::default(), 2);
        let tasks: Vec<u32> = (0..6).collect();
        let (out, stats) = run_stage(
            2,
            2,
            tasks,
            &[0, 0, 0, 0, 0, 0],
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t| t,
        )
        .expect("reroute must recover");
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(stats.failed_attempts, 6, "one fast failure per task");
        assert_eq!(stats.per_node_busy[0], Duration::ZERO);
        assert!(stats.per_node_busy[1] > Duration::ZERO);
    }

    #[test]
    fn ft_blacklists_failing_node() {
        let plan = FaultPlan::none().with_lost_node(0, 0);
        let ctx = ft_ctx(plan, RetryPolicy::default().with_blacklist_after(2), 3);
        let tasks: Vec<u32> = (0..8).collect();
        let (_, stats) = run_stage(
            2,
            3,
            tasks,
            &[0; 8],
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t| t,
        )
        .expect("must recover");
        assert_eq!(stats.blacklisted_nodes, 1);
        assert!(ctx.state.is_blacklisted(0));
    }

    #[test]
    fn ft_speculation_beats_a_straggler() {
        // Node 1 is 40x slower. The straggling task's speculative copy on
        // node 0 finishes first and wins; the sleeping original is killed.
        let plan = FaultPlan::none().with_slow_node(1, 40.0);
        let policy = RetryPolicy::default()
            .with_speculation(true)
            .with_blacklist_after(u64::MAX);
        let ctx = ft_ctx(plan, policy, 2);
        let tasks: Vec<u32> = (0..8).collect();
        // Task 7 runs on the slow node; everything else on node 0.
        let placement = [0, 0, 0, 0, 0, 0, 0, 1];
        let recorder = Recorder::for_nodes(2);
        let (out, stats) = run_stage(
            2,
            2,
            tasks,
            &placement,
            &recorder,
            "unit",
            Some(&ctx),
            |_, t| {
                std::thread::sleep(Duration::from_millis(3));
                t * 2
            },
        )
        .expect("speculation run succeeds");
        assert_eq!(out, (0..8).map(|t| t * 2).collect::<Vec<_>>());
        assert_eq!(stats.speculative_wins, 1, "the copy must win the race");
        // The killed original shows up on the slow node's lane, and the
        // trace still accounts for exactly the busy time.
        let trace = recorder.snapshot();
        assert!(trace.spans.iter().any(|s| s.stage == "unit!killed"));
        for node in 0..2 {
            let span_sum: u64 = trace
                .spans
                .iter()
                .filter(|s| s.lane == asj_obs::Lane::Node(node))
                .map(|s| s.sim_dur_ns)
                .sum();
            assert_eq!(span_sum, stats.per_node_busy[node].as_nanos() as u64);
        }
        // Makespan with a rescued straggler must be far below the 40x bill
        // the original would have paid (3ms * 40 = 120ms).
        assert!(stats.makespan() < Duration::from_millis(120));
    }

    /// The commit hook sees each task once, with the committed attempt's
    /// result: never a failed attempt's, nor a killed or losing copy's.
    #[test]
    fn ft_commit_sees_only_committed_attempts() {
        // Attempt 1 of tasks 1 and 5 fails; node 1 straggles under
        // speculation.
        let plan = FaultPlan::none()
            .with_slow_node(1, 40.0)
            .with_fail_point("unit", 1, 1)
            .with_fail_point("unit", 5, 1);
        let policy = RetryPolicy::default()
            .with_speculation(true)
            .with_blacklist_after(u64::MAX);
        let ctx = ft_ctx(plan, policy, 2);
        let placement = [0, 0, 0, 0, 0, 0, 0, 1];
        let seen = Mutex::new(Vec::new());
        let attempts = AtomicUsize::new(0);
        let commit = |idx: usize, r: &mut (usize, usize)| {
            seen.lock().expect("seen").push((idx, r.1));
            r.1 = usize::MAX;
        };
        let (out, stats) = try_run_stage(
            2,
            2,
            (0..8).collect(),
            &placement,
            &Recorder::noop(),
            "unit",
            Some(&ctx),
            |_, t: usize| {
                std::thread::sleep(Duration::from_millis(3));
                Ok((t, attempts.fetch_add(1, Ordering::Relaxed)))
            },
            &commit,
        )
        .expect("the stage recovers");
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.speculative_wins, 1);
        assert!(attempts.into_inner() > 8, "some attempts never committed");
        let mut seen = seen.into_inner().expect("seen");
        seen.sort_unstable();
        assert_eq!(
            seen.iter().map(|s| s.0).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        // The stage returns what the hook left of the committed results.
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, &(t, left))| t == i && left == usize::MAX));
    }

    #[test]
    fn ft_charges_failed_attempts_to_sim_clock() {
        let plan = FaultPlan::none().with_fail_point("unit", 0, 1);
        let ctx = ft_ctx(plan, RetryPolicy::default(), 1);
        let recorder = Recorder::for_nodes(1);
        let (_, stats) = run_stage(
            1,
            1,
            vec![()],
            &[0],
            &recorder,
            "unit",
            Some(&ctx),
            |_, ()| std::thread::sleep(Duration::from_millis(2)),
        )
        .expect("retry recovers");
        let trace = recorder.snapshot();
        let failed: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.stage == "unit!failed")
            .collect();
        assert_eq!(failed.len(), 1, "failed attempt must appear in the trace");
        assert!(failed[0].sim_dur_ns >= 2_000_000);
        let span_sum: u64 = trace.spans.iter().map(|s| s.sim_dur_ns).sum();
        assert_eq!(span_sum, stats.per_node_busy[0].as_nanos() as u64);
        assert!(
            stats.per_node_busy[0] >= Duration::from_millis(4),
            "both attempts must be billed"
        );
    }
}
