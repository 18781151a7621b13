use crate::clock::{attempt_charge, timed, Ledger, Outcome};
use crate::cluster::CommitHook;
use crate::fault::{place, FaultContext, JobError, TaskError};
use crate::metrics::ExecStats;
use asj_obs::{Attrs, Lane, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Task inputs. Without a fault context every task runs exactly once, so its
/// input is moved out of its cell; with one, a retry or a speculative copy
/// may need the same input again — the analog of Spark recomputing a
/// partition from lineage — so every attempt clones from the shared vector.
enum Inputs<T> {
    Once(Vec<Mutex<Option<T>>>),
    Shared(Vec<T>),
}

impl<T: Clone> Inputs<T> {
    /// The input of task `idx`. For `Once`, task `idx` is attempted exactly
    /// once: there is neither a retry (`max_attempts` is 1) nor a
    /// speculative copy without a fault context.
    fn get(&self, idx: usize) -> T {
        match self {
            Inputs::Once(cells) => cells[idx]
                .lock()
                .expect("task input cell poisoned")
                .take()
                .expect("task input taken once"),
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

/// A committed attempt's result, the wall time it held the host and its
/// simulated charge.
type Won<R> = (R, Duration, Duration);

/// Executes `tasks` on a pool of `threads` OS threads — the calling thread
/// and `threads - 1` it spawns — and bills each attempt to a simulated node,
/// starting from `placement`, through the stage's
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
/// is no retry and no speculative copy, and a panicking task fails the stage
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
///   `max_attempts` times, on the node [`place`](crate::fault::place) picks
///   from (task, attempt) among those neither blacklisted nor lost when the
///   stage started;
/// * the fault state changes only between stages: workers count started and
///   failed attempts per node, and once the stage is over the driver folds
///   the counts in — a node reaching its `lose:` threshold is lost, and one
///   reaching `blacklist_after` failures blacklisted (never the last usable
///   node), both from the next stage on;
/// * with speculation enabled, a task whose first attempt lands on a node
///   that is not lost and that the plan slows by at least
///   `speculation_multiplier` races one copy on the node `place` picks for
///   attempt 0 (none if that is the same node). The plan decides the race:
///   the worker that owns the task runs the attempt on the less slowed node
///   first (the original on a tie). If it commits, the other is killed
///   without running, billed the winner's charge on its node; if it fails,
///   the other runs and its outcome stands;
/// * *every* attempt — failed, killed and winning alike — is billed, so the
///   makespan and the trace honestly reflect the price of recovery.
///
/// So a stage's attempts, retries, speculative wins and blacklisted nodes
/// are functions of the plan and the fault state, at any thread count.
///
/// A task may also fail without panicking by returning a [`TaskError`] (an
/// unreadable spill segment, say): it is billed and retried like a panic.
///
/// `commit` sees each task's result once, on the worker, when that attempt
/// commits — never a failed or killed attempt's — and may take from it what
/// should leave the task before the stage ends (a join partition's formatted
/// pairs, say); what it leaves is returned.
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
    let n_tasks = tasks.len();
    // An empty stage spawns no thread at all.
    let threads = threads.max(1).min(n_tasks);
    let max_attempts = ctx.map_or(1, |c| c.policy.max_attempts);
    let inputs = match ctx {
        None => Inputs::Once(tasks.into_iter().map(|t| Mutex::new(Some(t))).collect()),
        Some(_) => Inputs::Shared(tasks),
    };
    let ledger = Ledger::new(recorder, stage, nodes);

    // Workers claim task indices from a shared counter and own each task
    // they claim, its retries and its speculative copy included, so no lock
    // is held while running `f` and no two threads ever contend on one lock.
    let next = AtomicUsize::new(0);
    // The lowest task index known to be out of attempts; every task after it
    // is cancelled, every task before it still runs (it may fail too, and
    // would then be the one reported).
    let abort_from = AtomicUsize::new(usize::MAX);
    let cancelled = |idx: usize| idx > abort_from.load(Ordering::Relaxed);
    let fatal: Mutex<Option<JobError>> = Mutex::new(None);
    let n_retries = AtomicU64::new(0);
    let n_spec_wins = AtomicU64::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    // The nodes as the stage found them, and per node the attempts it
    // started and failed, folded into the fault state once the stage is over.
    let health = ctx.map(FaultContext::health).unwrap_or_default();
    let sized = ctx.is_none() || health.len() == nodes;
    assert!(sized, "fault state sized for a different cluster");
    let started: Vec<AtomicU64> = (0..nodes).map(|_| AtomicU64::new(0)).collect();
    let failed: Vec<AtomicU64> = (0..nodes).map(|_| AtomicU64::new(0)).collect();
    let slowdown = |node: usize| ctx.map_or(1.0, |c| c.plan.slowdown(node));

    // Books an attempt as started on `node`, and a failed one against it.
    let note_started = |node: usize| {
        if ctx.is_some() {
            recorder.counter_add(stage, "attempts", 1);
            started[node].fetch_add(1, Ordering::Relaxed);
        }
    };
    let note_failed = |node: usize| {
        if ctx.is_some() {
            recorder.counter_add(stage, "failed_attempts", 1);
            failed[node].fetch_add(1, Ordering::Relaxed);
        }
    };

    // Runs one attempt of task `idx` on `node`. `attempt` is 1-based for
    // regular attempts; speculative copies pass 0. A failed attempt is
    // billed and booked here; a successful one returns its result, the wall
    // time it held the host and its charge, for the caller to commit.
    let attempt_once = |idx: usize, attempt: usize, node: usize| -> Result<Won<R>, TaskError> {
        note_started(node);
        let (will_fail, will_oom) = match ctx {
            None => (false, false),
            Some(_) if health[node].lost => {
                // A dead executor fails fast and burns no simulated time.
                ledger.bill(Outcome::Failed, idx, node, Duration::ZERO, Duration::ZERO);
                recorder.event(
                    "node_lost",
                    Lane::Node(node),
                    Some(idx as u64),
                    Attrs::new(),
                );
                note_failed(node);
                return Err(TaskError::NodeLost { node });
            }
            Some(ctx) => (
                ctx.plan.injects(stage, idx, attempt),
                ctx.plan.injects_oom(stage, idx, attempt),
            ),
        };
        let (outcome, wall) = timed(|| catch_unwind(AssertUnwindSafe(|| f(idx, inputs.get(idx)))));
        let charge = attempt_charge(wall, slowdown(node));
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
            Ok(Ok(r)) => return Ok((r, wall, charge)),
        };
        ledger.bill(Outcome::Failed, idx, node, wall, charge);
        note_failed(node);
        Err(error)
    };

    // Commits task `idx`'s result from its attempt `attempt` on `node`. The
    // worker that owns the task is its result cell's one writer.
    let commit_on = |idx: usize, attempt: usize, node: usize, (mut r, wall, charge): Won<R>| {
        commit(idx, &mut r);
        *results[idx].lock().expect("task result cell poisoned") = Some(r);
        ledger.bill(Outcome::Committed, idx, node, wall, charge);
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
    };

    // Where the speculative copy of task `idx`'s attempt on `node` runs: a
    // first attempt on a node that is not lost and that the plan slows past
    // the threshold gets one, placed elsewhere.
    let copy_node = |idx: usize, attempt: usize, node: usize| {
        let ctx = ctx.filter(|c| c.policy.speculation)?;
        let slow = slowdown(node) >= ctx.policy.speculation_multiplier;
        if attempt != 1 || health[node].lost || !slow {
            return None;
        }
        Some(place(&health, node, idx, 0)).filter(|&copy| copy != node)
    };

    // Runs attempt `attempt` of task `idx` on `node` to its outcome, racing
    // a first attempt against its speculative copy. `Ok(())` means the task
    // committed.
    let run_attempt = |idx: usize, attempt: usize, node: usize| -> Result<(), TaskError> {
        let Some(copy) = copy_node(idx, attempt, node) else {
            let won = attempt_once(idx, attempt, node)?;
            commit_on(idx, attempt, node, won);
            return Ok(());
        };
        recorder.event(
            "speculative_launch",
            Lane::Node(copy),
            Some(idx as u64),
            Attrs::new(),
        );
        // The attempt on the less slowed node would finish first, so it runs
        // first; the original wins a tie.
        let mut order = [(attempt, node), (0, copy)];
        if slowdown(copy) < slowdown(node) {
            order.reverse();
        }
        let [(first, on), (other, other_on)] = order;
        let error = match attempt_once(idx, first, on) {
            Ok(won) => {
                // The other attempt is killed as the winner commits, before
                // it runs: it counts as started, billed the winner's charge.
                let charge = won.2;
                commit_on(idx, first, on, won);
                note_started(other_on);
                ledger.bill(Outcome::Killed, idx, other_on, Duration::ZERO, charge);
                return Ok(());
            }
            Err(e) => e,
        };
        // Both failing, the regular attempt's error is the task's.
        let won =
            attempt_once(idx, other, other_on).map_err(|e| if first == 0 { e } else { error })?;
        commit_on(idx, other, other_on, won);
        Ok(())
    };

    let worker = || loop {
        // Indices are claimed in order, so once one is cancelled every later
        // claim is too.
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= n_tasks || cancelled(idx) {
            return;
        }
        // Run the task to completion, retrying failures.
        let mut attempt = 1usize;
        let mut node = placement[idx];
        while !cancelled(idx) {
            let Err(e) = run_attempt(idx, attempt, node) else {
                break;
            };
            // Without a fault context `max_attempts` is 1.
            if attempt >= max_attempts {
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
                break;
            }
            attempt += 1;
            n_retries.fetch_add(1, Ordering::Relaxed);
            recorder.counter_add(stage, "retries", 1);
            let from = node;
            node = place(&health, from, idx, attempt);
            recorder.event(
                "task_retry",
                Lane::Node(node),
                Some(idx as u64),
                Attrs::new().records(from as u64),
            );
        }
    };
    // The thread that runs the stage is one of its workers, as in
    // `on_host_threads`: it spawns the other `threads - 1`.
    let ((), wall) = timed(|| {
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(worker);
            }
            worker();
        })
    });

    let blacklisted_nodes = ctx.map_or(0, |ctx| {
        let sums = |v: Vec<AtomicU64>| v.into_iter().map(AtomicU64::into_inner).collect::<Vec<_>>();
        for node in ctx.fold(stage, &sums(started), &sums(failed)) {
            recorder.counter_add(stage, "blacklisted_nodes", 1);
            recorder.event("node_blacklisted", Lane::Node(node), None, Attrs::new());
        }
        ctx.state.blacklisted_count()
    });
    if let Some(e) = fatal.into_inner().expect("pool error slot poisoned") {
        return Err(e);
    }
    let out: Vec<R> = results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("task result cell poisoned")
                .expect("every task committed a result or the job errored")
        })
        .collect();
    Ok((
        out,
        ExecStats {
            retries: n_retries.into_inner(),
            speculative_wins: n_spec_wins.into_inner(),
            blacklisted_nodes,
            ..ledger.into_stats(wall)
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
                .filter(|s| s.lane == Lane::Node(node))
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

    /// Task bodies that yield or sleep a seeded number of rounds per (task,
    /// attempt) perturb the schedule, and recovery must not notice: three
    /// stages under `p=`, `lose:` and `blacklist_after(2)`, then one under
    /// `slow:` with speculation, give the same counts, the same retries,
    /// (task, from, to), and the same speculative copies, (task, node), at
    /// 1, 2 and 8 threads. A failure names its seeds.
    #[test]
    fn recovery_does_not_depend_on_the_schedule() {
        const NODES: usize = 8;
        const TASKS: usize = 16;
        let run = |seed: u64, threads: usize| {
            let plan = FaultPlan::none().with_seed(seed).with_fail_prob(0.1);
            let policy = RetryPolicy::default()
                .with_max_attempts(12)
                .with_blacklist_after(2);
            let ctx = ft_ctx(plan.clone().with_lost_node(2, 2), policy, NODES);
            // Node 1 straggles past the speculation threshold, node 5 just
            // reaches it, node 6 stays below it and node 3 is lost.
            let slow = plan
                .with_slow_node(1, 3.0)
                .with_slow_node(5, 1.5)
                .with_slow_node(6, 1.2)
                .with_lost_node(3, 0);
            let spec_ctx = ft_ctx(slow, policy.with_speculation(true), NODES);
            let recorder = Recorder::for_nodes(NODES);
            let placement: Vec<usize> = (0..TASKS).map(|i| i % NODES).collect();
            let mut total = ExecStats::default();
            for (stage, ctx) in [("a", &ctx), ("b", &ctx), ("c", &ctx), ("d", &spec_ctx)] {
                let runs: Vec<AtomicU64> = (0..TASKS).map(|_| AtomicU64::new(0)).collect();
                let body = |idx: usize, ()| {
                    let attempt = runs[idx].fetch_add(1, Ordering::Relaxed);
                    let h = crate::digest::splitmix64(seed ^ ((idx as u64) << 16) ^ attempt);
                    for round in 0..h % 8 {
                        if (h >> round) & 1 == 0 {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(Duration::from_micros(40));
                        }
                    }
                };
                let stage_run = run_stage(
                    threads,
                    NODES,
                    vec![(); TASKS],
                    &placement,
                    &recorder,
                    stage,
                    Some(ctx),
                    body,
                );
                total.accumulate(&stage_run.expect("the plan is survivable").1);
            }
            let trace = recorder.snapshot();
            let named = |name: &'static str| {
                let events = trace.events.iter().filter(move |e| e.name == name);
                let mut events: Vec<_> = events
                    .map(|e| (e.partition, e.attrs.records, e.lane))
                    .collect();
                events.sort_unstable();
                events
            };
            let counts = (
                total.attempts,
                total.retries,
                total.failed_attempts,
                total.blacklisted_nodes,
                total.speculative_wins,
            );
            (counts, named("task_retry"), named("speculative_launch"))
        };
        let flaky: Vec<u64> = (0..8u64)
            .filter(|&seed| {
                let base = run(seed, 1);
                let (counts, _, launches) = &base;
                assert!(counts.1 > 0 && counts.3 > 0, "seed {seed}: {counts:?}");
                assert_eq!(launches.len(), 4, "seed {seed}: tasks 1, 5, 9 and 13");
                [2, 8].into_iter().any(|threads| run(seed, threads) != base)
            })
            .collect();
        assert!(
            flaky.is_empty(),
            "schedule-dependent recovery under seeds {flaky:?}"
        );
    }

    /// Task 7 of 8 lands on node 1, which the plan slows 40x.
    fn straggler_stage(threads: usize, plan: FaultPlan) -> (ExecStats, asj_obs::Trace) {
        let policy = RetryPolicy::default()
            .with_speculation(true)
            .with_blacklist_after(u64::MAX);
        let ctx = ft_ctx(plan.with_slow_node(1, 40.0), policy, 2);
        let placement = [0, 0, 0, 0, 0, 0, 0, 1];
        let recorder = Recorder::for_nodes(2);
        let (out, stats) = run_stage(
            threads,
            2,
            (0..8).collect(),
            &placement,
            &recorder,
            "unit",
            Some(&ctx),
            |_, t: u32| {
                std::thread::sleep(Duration::from_millis(3));
                t * 2
            },
        )
        .expect("speculation run succeeds");
        assert_eq!(out, (0..8).map(|t| t * 2).collect::<Vec<_>>());
        (stats, recorder.snapshot())
    }

    fn counts(stats: &ExecStats) -> [u64; 5] {
        [
            stats.attempts,
            stats.retries,
            stats.failed_attempts,
            stats.speculative_wins,
            stats.blacklisted_nodes,
        ]
    }

    #[test]
    fn ft_speculation_beats_a_straggler() {
        // The straggling task's copy on node 0 runs first and commits; the
        // original on the slow node is killed without running, at one
        // thread as at two.
        let (stats, trace) = straggler_stage(2, FaultPlan::none());
        let (one, _) = straggler_stage(1, FaultPlan::none());
        assert_eq!(counts(&stats), [9, 0, 0, 1, 0]);
        assert_eq!(counts(&one), counts(&stats));
        // The killed original shows up on the slow node's lane, billed the
        // committed copy's charge, and the trace still accounts for exactly
        // the busy time.
        let span = |stage: &str, node: usize| {
            let mut spans = trace.spans.iter();
            spans
                .find(|s| s.stage == stage && s.partition == Some(7) && s.lane == Lane::Node(node))
                .expect("span present")
        };
        let killed = span("unit!killed", 1);
        assert_eq!(killed.sim_dur_ns, span("unit", 0).sim_dur_ns);
        assert_eq!(killed.wall_dur_ns, 0, "a killed attempt never runs");
        for node in 0..2 {
            let span_sum: u64 = trace
                .spans
                .iter()
                .filter(|s| s.lane == Lane::Node(node))
                .map(|s| s.sim_dur_ns)
                .sum();
            assert_eq!(span_sum, stats.per_node_busy[node].as_nanos() as u64);
        }
        // Makespan with a rescued straggler must be far below the 40x bill
        // the original would have paid (3ms * 40 = 120ms).
        assert!(stats.makespan() < Duration::from_millis(120));
    }

    /// A copy that fails leaves the race to the original, which then runs
    /// and commits: nothing is retried and no copy wins.
    #[test]
    fn ft_a_failed_copy_leaves_the_original_to_commit() {
        let (stats, trace) = straggler_stage(2, FaultPlan::none().with_fail_point("unit", 7, 0));
        assert_eq!(counts(&stats), [9, 0, 1, 0, 0]);
        let failed: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.stage == "unit!failed")
            .map(|s| (s.partition, s.lane))
            .collect();
        assert_eq!(failed, vec![(Some(7), Lane::Node(0))]);
        assert!(trace.spans.iter().all(|s| s.stage != "unit!killed"));
        // The original paid the slow node's price.
        assert!(stats.per_node_busy[1] >= Duration::from_millis(120));
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
