//! The simulated clock: the one code that decides what a simulated charge
//! is. A charge is a measured host duration ([`timed`]): an attempt's is
//! scaled up on a straggler node ([`attempt_charge`]) and billed through its
//! stage's [`Ledger`]; a serial driver phase's is billed as driver time
//! ([`Cluster::driver_phase`]). A slowdown only scales a charge: nothing
//! waits it out in wall time, and no decision of the pool reads the clock.
//! An attempt killed by its speculative copy never runs; it is billed the
//! winner's charge.

use crate::cluster::Cluster;
use crate::metrics::ExecStats;
use asj_obs::{Attrs, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Runs `f`, returning its result and the wall time it held the host.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The charge of an attempt measured at `wall` on a node `slowdown` times
/// slower than the host: `wall`, times the slowdown when that is above 1.
pub(crate) fn attempt_charge(wall: Duration, slowdown: f64) -> Duration {
    if slowdown <= 1.0 {
        wall
    } else {
        Duration::from_nanos((wall.as_nanos() as f64 * slowdown) as u64)
    }
}

/// How a billed attempt ended; it names the attempt's span `stage`,
/// `stage!failed` or `stage!killed`. A killed attempt lost a speculative
/// race, which the plan's slowdowns decide, and never ran.
pub(crate) enum Outcome {
    Committed,
    Failed,
    Killed,
}

/// One stage's bill, shared by its workers. Every attempt is billed exactly
/// once, so the ledger also counts the stage's attempts and failures.
pub(crate) struct Ledger<'a> {
    recorder: &'a Recorder,
    /// Span names and attempts billed, by [`Outcome`].
    spans: [String; 3],
    billed: [AtomicU64; 3],
    busy_ns: Vec<AtomicU64>,
}

impl<'a> Ledger<'a> {
    pub(crate) fn new(recorder: &'a Recorder, stage: &str, nodes: usize) -> Self {
        Ledger {
            recorder,
            spans: [
                stage.into(),
                format!("{stage}!failed"),
                format!("{stage}!killed"),
            ],
            billed: Default::default(),
            busy_ns: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Bills an attempt of `task` that held `node` for `wall`: `sim` is added
    /// to the node's busy time and is the simulated length of the attempt's
    /// span on the node's trace lane, so per node the lane's spans sum to
    /// exactly [`ExecStats::per_node_busy`].
    pub(crate) fn bill(
        &self,
        outcome: Outcome,
        task: usize,
        node: usize,
        wall: Duration,
        sim: Duration,
    ) {
        let (i, sim_ns) = (outcome as usize, sim.as_nanos() as u64);
        self.busy_ns[node].fetch_add(sim_ns, Ordering::Relaxed);
        self.billed[i].fetch_add(1, Ordering::Relaxed);
        let span = &self.spans[i];
        self.recorder
            .task_span_sim(span, node, Some(task as u64), wall, sim, Attrs::new());
    }

    /// The stage's [`ExecStats`] over `wall`, as far as its bills tell them.
    pub(crate) fn into_stats(self, wall: Duration) -> ExecStats {
        let [committed, failed, killed] = self.billed.map(AtomicU64::into_inner);
        let busy = self.busy_ns.into_iter().map(AtomicU64::into_inner);
        ExecStats {
            per_node_busy: busy.map(Duration::from_nanos).collect(),
            wall,
            attempts: committed + failed + killed,
            failed_attempts: failed,
            ..ExecStats::default()
        }
    }
}

impl ExecStats {
    /// A stage that billed nothing: every one of `nodes` idle.
    pub(crate) fn idle(nodes: usize) -> ExecStats {
        ExecStats {
            per_node_busy: vec![Duration::ZERO; nodes],
            ..ExecStats::default()
        }
    }
}

impl Cluster {
    /// Runs `f` as the serial driver phase `stage`, to which `f` can attach
    /// attributes, and returns its result with the driver time it is billed:
    /// one timer measures the phase, and its driver-lane span lasts exactly
    /// that long.
    pub fn driver_phase<R>(&self, stage: &str, f: impl FnOnce(&mut Attrs) -> R) -> (R, Duration) {
        let mut attrs = Attrs::new();
        let (out, dur) = timed(|| f(&mut attrs));
        self.recorder().driver_span(stage, dur, attrs);
        (out, dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_obs::Lane;

    /// Fixed measured durations through the ledger of a 2-node stage whose
    /// node 1 runs 3× slower: no sleep, so every charge is exact.
    #[test]
    fn ledger_bills_every_outcome_to_its_node_and_lane() {
        let ms = Duration::from_millis;
        let recorder = Recorder::for_nodes(2);
        let ledger = Ledger::new(&recorder, "unit", 2);
        let slow = |wall| attempt_charge(wall, 3.0);
        assert_eq!(attempt_charge(ms(2), 1.0), ms(2));
        assert_eq!(attempt_charge(ms(2), 0.5), ms(2), "no node runs faster");
        // Task 0 commits on node 0; task 1 fails (a returned error), then
        // is injected a fault, on slow node 1, and commits on node 0; task
        // 2's original on node 1 is killed by a copy that committed in 7 ms,
        // billed that charge without running; task 3 meets a lost node 1
        // and fails fast.
        ledger.bill(Outcome::Committed, 0, 0, ms(2), attempt_charge(ms(2), 1.0));
        ledger.bill(Outcome::Failed, 1, 1, ms(1), slow(ms(1)));
        ledger.bill(Outcome::Failed, 1, 1, ms(4), slow(ms(4)));
        ledger.bill(Outcome::Committed, 1, 0, ms(5), ms(5));
        ledger.bill(Outcome::Killed, 2, 1, Duration::ZERO, ms(7));
        ledger.bill(Outcome::Failed, 3, 1, Duration::ZERO, Duration::ZERO);
        let stats = ledger.into_stats(ms(9));
        assert_eq!(stats.per_node_busy, vec![ms(7), ms(3 + 12 + 7)]);
        assert_eq!((stats.wall, stats.makespan()), (ms(9), ms(22)));
        assert_eq!((stats.attempts, stats.failed_attempts), (6, 3));

        let trace = recorder.snapshot();
        let mut spans: Vec<_> = trace
            .spans
            .iter()
            .map(|s| {
                (
                    s.partition,
                    s.stage.as_str(),
                    s.wall_dur_ns / 1_000_000,
                    s.sim_dur_ns / 1_000_000,
                )
            })
            .collect();
        spans.sort();
        assert_eq!(
            spans,
            vec![
                (Some(0), "unit", 2, 2),
                (Some(1), "unit", 5, 5),
                (Some(1), "unit!failed", 1, 3),
                (Some(1), "unit!failed", 4, 12),
                (Some(2), "unit!killed", 0, 7),
                (Some(3), "unit!failed", 0, 0),
            ]
        );
        for node in 0..2 {
            let lane = trace.spans.iter().filter(|s| s.lane == Lane::Node(node));
            let sum: u64 = lane.map(|s| s.sim_dur_ns).sum();
            assert_eq!(sum, stats.per_node_busy[node].as_nanos() as u64);
        }
    }

    #[test]
    fn an_idle_stage_bills_every_node_nothing() {
        let stats = ExecStats::idle(3);
        assert_eq!(stats.per_node_busy, vec![Duration::ZERO; 3]);
        assert_eq!(stats.makespan(), Duration::ZERO);
    }

    #[test]
    fn a_driver_phase_is_billed_exactly_its_span() {
        let recorder = Recorder::for_nodes(1);
        let cluster =
            Cluster::new(crate::ClusterConfig::with_threads(1, 1)).with_recorder(recorder.clone());
        let (out, billed) = cluster.driver_phase("plan", |attrs| {
            *attrs = attrs.cells(4);
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(out, 499_500);
        let trace = recorder.snapshot();
        assert_eq!(trace.spans.len(), 1);
        let span = &trace.spans[0];
        assert_eq!(
            (span.stage.as_str(), span.lane, span.attrs.cells),
            ("plan", Lane::Driver, Some(4))
        );
        assert_eq!(span.sim_dur_ns, billed.as_nanos() as u64);
        assert_eq!(span.wall_dur_ns, span.sim_dur_ns);
        // Without a recorder the phase is still timed and billed.
        let plain = Cluster::new(crate::ClusterConfig::with_threads(1, 1));
        let work = |_: &mut Attrs| (0..1000u64).map(std::hint::black_box).sum::<u64>();
        assert!(plain.driver_phase("plan", work).1 > Duration::ZERO);
    }
}
