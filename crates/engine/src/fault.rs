//! Deterministic fault injection and the recovery policy of the simulated
//! cluster.
//!
//! A [`FaultPlan`] describes *what goes wrong*: per-stage task-failure
//! probabilities, explicit `(stage, task, attempt)` fail points, per-node
//! slowdown multipliers (stragglers) and whole-node loss ("the executor
//! died"). Every injection decision is a pure function of
//! `(seed, stage, task, attempt)` — independent of thread interleaving — so
//! a seeded plan reproduces the same failures run after run.
//!
//! A [`RetryPolicy`] describes *how the engine recovers*: per-task retry with
//! a bounded attempt count (Spark's `spark.task.maxFailures`, default 4),
//! node blacklisting after repeated failures, and optional speculative
//! re-execution of stragglers: a task whose first attempt lands on a node
//! the plan slows by at least `speculation_multiplier` races one copy on
//! another node. The attempt on the less slowed node runs first and wins
//! unless it fails, so the plan decides the race.
//!
//! [`FaultState`] is the mutable cluster-lifetime side: per-node totals of
//! started and failed attempts and the blacklist, shared by every stage a
//! [`crate::Cluster`] runs. Like Spark's executor exclusion it changes only
//! when a stage completes, so where a retry runs (`place`) and which nodes
//! are lost or blacklisted follow from (stage, task, attempt, plan, state at
//! stage start), never from thread timing.

use crate::digest::{fnv1a, splitmix64};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;

/// What a single task attempt died of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The user closure panicked; carries the panic payload when printable.
    Panic(String),
    /// A [`FaultPlan`] injected this failure (probabilistic or explicit).
    Injected { attempt: usize },
    /// A [`FaultPlan`] injected memory-budget exhaustion for this attempt
    /// (the `oom:` clause): the task's node had no headroom left, the
    /// analog of an executor dying with `OutOfMemoryError`.
    OutOfMemory { attempt: usize },
    /// The attempt ran on a node that the plan declared lost.
    NodeLost { node: usize },
    /// An application-level error (e.g. a wire-format decode failure)
    /// surfaced through the task result.
    App(String),
    /// A spill segment could not be written, or a committed chunk could not
    /// be read back whole and decoded.
    Spill(String),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Panic(msg) => write!(f, "task panicked: {msg}"),
            TaskError::Injected { attempt } => {
                write!(f, "injected fault (attempt {attempt})")
            }
            TaskError::OutOfMemory { attempt } => {
                write!(
                    f,
                    "injected out-of-memory: budget exhausted (attempt {attempt})"
                )
            }
            TaskError::NodeLost { node } => write!(f, "node {node} lost"),
            TaskError::App(msg) => write!(f, "task failed: {msg}"),
            TaskError::Spill(msg) => write!(f, "spill segment: {msg}"),
        }
    }
}

impl From<crate::wire::WireError> for TaskError {
    fn from(e: crate::wire::WireError) -> Self {
        TaskError::App(e.to_string())
    }
}

/// A job (stage) failed: some task exhausted every permitted attempt.
///
/// Returned by every stage-running API ([`Cluster::try_run_stage`](crate::Cluster::try_run_stage)
/// and the dataset operators built on it); callers thread it with `?` up to
/// the job's entry point. The driver never unwinds on a failed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Stage name the task belonged to.
    pub stage: String,
    /// Task index within the stage.
    pub task: usize,
    /// Attempts consumed (including the fatal one).
    pub attempts: usize,
    /// The last attempt's error.
    pub error: TaskError,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage '{}' task {} failed after {} attempt(s): {}",
            self.stage, self.task, self.attempts, self.error
        )
    }
}

impl std::error::Error for JobError {}

/// An explicit deterministic fail point: attempt `attempt` of task `task`
/// in stage `stage` fails, exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct FailPoint {
    pub stage: String,
    pub task: usize,
    pub attempt: usize,
}

/// Seeded, deterministic description of everything that goes wrong during a
/// job. The default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-attempt failure hash.
    pub seed: u64,
    /// Probability that any attempt fails, for stages without an override.
    pub default_fail_prob: f64,
    /// Per-stage overrides of the failure probability.
    pub stage_fail_prob: Vec<(String, f64)>,
    /// Explicit `(stage, task, attempt)` fail points.
    pub fail_points: Vec<FailPoint>,
    /// Explicit `(stage, task, attempt)` out-of-memory points: the attempt
    /// fails with [`TaskError::OutOfMemory`], exercising the same
    /// retry/blacklist recovery as a real budget exhaustion would.
    pub oom_points: Vec<FailPoint>,
    /// `(node, multiplier)` — the node runs that many times slower than its
    /// peers (a straggler). Entries for nodes outside the cluster are inert.
    pub node_slowdown: Vec<(usize, f64)>,
    /// `(node, after_attempts)` — the node is lost from the first stage that
    /// starts after it has started that many attempts (from the first stage
    /// for 0); every attempt placed on it from then on fails.
    pub lost_nodes: Vec<(usize, u64)>,
    /// Kill the job-server loop once it has granted this many quanta (the
    /// `crash@N` clause) — a deterministic process-crash point for recovery
    /// testing. Only the [`JobServer`](crate::JobServer) consults it; plain
    /// stage execution ignores a crash clause.
    pub crash_after_grants: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (the engine's default behaviour).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.default_fail_prob > 0.0
            || !self.stage_fail_prob.is_empty()
            || !self.fail_points.is_empty()
            || !self.oom_points.is_empty()
            || !self.node_slowdown.is_empty()
            || !self.lost_nodes.is_empty()
            || self.crash_after_grants.is_some()
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Every attempt of every stage fails with probability `p`.
    pub fn with_fail_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.default_fail_prob = p;
        self
    }

    /// Attempts of stage `stage` fail with probability `p` (overrides the
    /// default probability for that stage).
    pub fn with_stage_fail_prob(mut self, stage: &str, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.stage_fail_prob.push((stage.to_string(), p));
        self
    }

    /// Adds an explicit fail point.
    pub fn with_fail_point(mut self, stage: &str, task: usize, attempt: usize) -> Self {
        self.fail_points.push(FailPoint {
            stage: stage.to_string(),
            task,
            attempt,
        });
        self
    }

    /// Adds an explicit out-of-memory point: attempt `attempt` of task
    /// `task` in stage `stage` fails with budget exhaustion.
    pub fn with_oom_point(mut self, stage: &str, task: usize, attempt: usize) -> Self {
        self.oom_points.push(FailPoint {
            stage: stage.to_string(),
            task,
            attempt,
        });
        self
    }

    /// Node `node` runs `multiplier` times slower than its peers.
    pub fn with_slow_node(mut self, node: usize, multiplier: f64) -> Self {
        assert!(multiplier >= 1.0, "slowdown multiplier must be >= 1");
        self.node_slowdown.push((node, multiplier));
        self
    }

    /// Node `node` is lost from the first stage that starts after it has
    /// started `after_attempts` attempts (`0`: from the first stage).
    pub fn with_lost_node(mut self, node: usize, after_attempts: u64) -> Self {
        self.lost_nodes.push((node, after_attempts));
        self
    }

    /// The job-server loop crashes once it has granted `grants` quanta
    /// (see [`FaultPlan::crash_after_grants`]).
    pub fn with_crash_after_grants(mut self, grants: u64) -> Self {
        self.crash_after_grants = Some(grants);
        self
    }

    /// A standard chaos plan for CI and A/B experiments: a modest
    /// per-attempt failure probability, one straggler and one lost node.
    /// Node references beyond the cluster width are inert, so the plan is
    /// meaningful on any cluster of >= 1 node.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::none()
            .with_seed(seed)
            .with_fail_prob(0.03)
            .with_slow_node(1, 3.0)
            .with_lost_node(2, 5)
    }

    /// Reads a plan from the environment: `ASJ_FAULTS` holds a spec in the
    /// [`FaultPlan::parse`] grammar, `ASJ_FAULT_SEED` a seed. Either alone
    /// suffices — a bare seed selects [`FaultPlan::chaos`]. Returns `None`
    /// when neither is set (or both are empty).
    pub fn from_env() -> Option<Self> {
        let non_empty = |k: &str| std::env::var(k).ok().filter(|v| !v.is_empty());
        let seed = non_empty("ASJ_FAULT_SEED").and_then(|v| v.parse::<u64>().ok());
        match (non_empty("ASJ_FAULTS"), seed) {
            (Some(spec), seed) => FaultPlan::parse(&spec, seed.unwrap_or(7)).ok(),
            (None, Some(seed)) => Some(FaultPlan::chaos(seed)),
            (None, None) => None,
        }
    }

    /// Parses a comma-separated fault spec:
    ///
    /// ```text
    /// chaos                    the standard chaos plan
    /// p=0.05                   every attempt fails with probability 0.05
    /// stage:local_join=0.2     attempts of one stage fail with probability 0.2
    /// slow:1=3.0               node 1 runs 3x slower
    /// lose:2@5                 node 2 is lost from the first stage that
    ///                          starts after it started 5 attempts
    /// fail:shuffle.R:3@1       attempt 1 of task 3 in stage 'shuffle.R' fails
    /// oom:shuffle.R:0@1        attempt 1 of task 0 in stage 'shuffle.R'
    ///                          fails with injected budget exhaustion
    /// crash@6                  the job-server loop dies after granting 6
    ///                          quanta (recovery testing; see JobServer)
    /// ```
    ///
    /// e.g. `p=0.02,slow:1=4.0,lose:2@5`.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::none().with_seed(seed);
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            if clause == "chaos" {
                let chaos = FaultPlan::chaos(seed);
                plan.default_fail_prob = chaos.default_fail_prob;
                plan.node_slowdown.extend(chaos.node_slowdown);
                plan.lost_nodes.extend(chaos.lost_nodes);
                continue;
            }
            // `p=`, `stage:`, `slow:` clauses use '='; `lose:` and `fail:`
            // separate their threshold with '@'.
            let (key, value) = clause
                .split_once('=')
                .or_else(|| clause.split_once('@'))
                .ok_or_else(|| format!("fault clause '{clause}' is not key=value or key@value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid probability '{v}'"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability '{v}' not in [0,1]"));
                }
                Ok(p)
            };
            match key.split(':').collect::<Vec<_>>().as_slice() {
                ["p"] => plan.default_fail_prob = prob(value)?,
                ["stage", stage] => {
                    plan.stage_fail_prob.push((stage.to_string(), prob(value)?));
                }
                ["slow", node] => {
                    let node: usize = node.parse().map_err(|_| format!("invalid node '{node}'"))?;
                    let mult: f64 = value
                        .parse()
                        .map_err(|_| format!("invalid multiplier '{value}'"))?;
                    if mult < 1.0 {
                        return Err(format!("slowdown '{value}' must be >= 1"));
                    }
                    plan.node_slowdown.push((node, mult));
                }
                ["crash"] => {
                    let grants: u64 = value
                        .parse()
                        .map_err(|_| format!("invalid grant count '{value}'"))?;
                    plan.crash_after_grants = Some(grants);
                }
                ["lose", node] => {
                    let node: usize = node.parse().map_err(|_| format!("invalid node '{node}'"))?;
                    let after: u64 = value
                        .parse()
                        .map_err(|_| format!("invalid attempt count '{value}'"))?;
                    plan.lost_nodes.push((node, after));
                }
                ["fail", stage, task] | ["oom", stage, task] => {
                    let is_oom = key.starts_with("oom");
                    let task: usize = task.parse().map_err(|_| format!("invalid task '{task}'"))?;
                    let attempt: usize = value
                        .parse()
                        .map_err(|_| format!("invalid attempt '{value}'"))?;
                    let point = FailPoint {
                        stage: stage.to_string(),
                        task,
                        attempt,
                    };
                    if is_oom {
                        plan.oom_points.push(point);
                    } else {
                        plan.fail_points.push(point);
                    }
                }
                _ => return Err(format!("unknown fault clause '{clause}'")),
            }
        }
        Ok(plan)
    }

    /// Failure probability for attempts of `stage`.
    fn fail_prob(&self, stage: &str) -> f64 {
        self.stage_fail_prob
            .iter()
            .find(|(s, _)| s == stage)
            .map(|(_, p)| *p)
            .unwrap_or(self.default_fail_prob)
    }

    /// Deterministic injection decision for one attempt. `attempt` is
    /// 1-based for regular attempts; speculative copies use 0.
    pub fn injects(&self, stage: &str, task: usize, attempt: usize) -> bool {
        if self
            .fail_points
            .iter()
            .any(|fp| fp.stage == stage && fp.task == task && fp.attempt == attempt)
        {
            return true;
        }
        let p = self.fail_prob(stage);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let h = splitmix64(
            self.seed
                ^ fnv1a(stage.as_bytes())
                ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (attempt as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        // Map the hash to [0,1) and compare; deterministic and unbiased
        // enough for failure injection.
        ((h >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Deterministic out-of-memory injection decision for one attempt
    /// (explicit `oom:` points only — OOM has no probabilistic form, since a
    /// real exhaustion depends on workload, not chance).
    pub fn injects_oom(&self, stage: &str, task: usize, attempt: usize) -> bool {
        self.oom_points
            .iter()
            .any(|fp| fp.stage == stage && fp.task == task && fp.attempt == attempt)
    }

    /// Slowdown multiplier of `node` (1.0 when not a straggler).
    pub fn slowdown(&self, node: usize) -> f64 {
        self.node_slowdown
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, m)| *m)
            .unwrap_or(1.0)
    }

    /// Attempt count after which `node` is lost, if the plan loses it.
    pub fn lost_after(&self, node: usize) -> Option<u64> {
        self.lost_nodes
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, after)| *after)
    }
}

/// How the engine recovers from failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per task before the job fails (Spark's
    /// `spark.task.maxFailures`, default 4).
    pub max_attempts: usize,
    /// Failures on a node before it is blacklisted for re-placement.
    pub blacklist_after: u64,
    /// Enable speculative re-execution of stragglers.
    pub speculation: bool,
    /// A task's first attempt is a straggler, and races a speculative copy,
    /// when the plan slows its node by at least this factor (Spark's
    /// `spark.speculation.multiplier`, applied to slowdowns known in
    /// advance).
    pub speculation_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            blacklist_after: 2,
            speculation: false,
            speculation_multiplier: 1.5,
        }
    }
}

impl RetryPolicy {
    pub fn with_max_attempts(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one attempt");
        self.max_attempts = n;
        self
    }

    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    pub fn with_blacklist_after(mut self, failures: u64) -> Self {
        assert!(failures >= 1, "blacklist threshold must be >= 1");
        self.blacklist_after = failures;
        self
    }
}

/// A node as a stage sees it, fixed when the stage starts; orders from
/// usable to lost. Every attempt placed on a lost node fails at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct NodeHealth {
    pub lost: bool,
    pub blacklisted: bool,
}

/// The node for attempt `attempt` of `task` (0: a speculative copy) away
/// from `from`: among the best class of nodes by (health, is `from`) —
/// usable ones other than `from`, else `from`, else blacklisted, else lost —
/// the one at `(task + attempt) mod count` in node order.
pub(crate) fn place(health: &[NodeHealth], from: usize, task: usize, attempt: usize) -> usize {
    let rank = |n: usize| (health[n], n == from);
    let best = (0..health.len())
        .map(rank)
        .min()
        .expect("cluster has at least one node");
    let class: Vec<usize> = (0..health.len()).filter(|&n| rank(n) == best).collect();
    class[(task + attempt) % class.len()]
}

/// Cluster-lifetime fault state: per-node totals of started and failed
/// attempts, the blacklist and the stages that ran. Only the driver changes
/// it, between stages (`FaultContext::fold`).
#[derive(Debug)]
pub struct FaultState(Mutex<Totals>);

#[derive(Debug)]
struct Totals {
    /// Attempts started per node (drives node loss).
    started: Vec<u64>,
    /// Failed attempts per node (drives blacklisting).
    failed: Vec<u64>,
    blacklisted: Vec<bool>,
    /// Stages that started at least one attempt.
    stages_run: BTreeSet<String>,
}

impl FaultState {
    pub fn new(nodes: usize) -> Self {
        FaultState(Mutex::new(Totals {
            started: vec![0; nodes],
            failed: vec![0; nodes],
            blacklisted: vec![false; nodes],
            stages_run: BTreeSet::new(),
        }))
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.0.lock().expect("fault state poisoned")
    }

    pub fn is_blacklisted(&self, node: usize) -> bool {
        self.totals().blacklisted[node]
    }

    pub fn blacklisted_count(&self) -> u64 {
        self.totals().blacklisted.iter().filter(|&&b| b).count() as u64
    }
}

/// Everything the fault-aware executor needs: the plan, the recovery policy
/// and the shared mutable state.
#[derive(Debug)]
pub struct FaultContext {
    pub plan: FaultPlan,
    pub policy: RetryPolicy,
    pub state: FaultState,
    /// The cluster's memory accountant, when attached: injected `oom:`
    /// faults notify it so OOM events surface in memory snapshots alongside
    /// real budget activity.
    pub memory: Option<std::sync::Arc<crate::memory::MemoryAccountant>>,
}

impl FaultContext {
    pub fn new(plan: FaultPlan, policy: RetryPolicy, nodes: usize) -> Self {
        FaultContext {
            plan,
            policy,
            state: FaultState::new(nodes),
            memory: None,
        }
    }

    /// Each node's health as of now: what the next stage runs against.
    pub(crate) fn health(&self) -> Vec<NodeHealth> {
        let totals = self.state.totals();
        let lost = |n| {
            self.plan
                .lost_after(n)
                .is_some_and(|after| totals.started[n] >= after)
        };
        let health = |(n, &blacklisted)| NodeHealth {
            lost: lost(n),
            blacklisted,
        };
        totals.blacklisted.iter().enumerate().map(health).collect()
    }

    /// Folds a finished stage's per-node counts of started and failed
    /// attempts (sums, so the order attempts ran in does not show) into the
    /// state. Nodes reaching `blacklist_after` failures are blacklisted in
    /// node order — never the last one left, or the job would starve instead
    /// of failing with a meaningful error. Returns the newly blacklisted.
    pub(crate) fn fold(&self, stage: &str, started: &[u64], failed: &[u64]) -> Vec<usize> {
        let mut t = self.state.totals();
        if started.iter().any(|&n| n > 0) {
            t.stages_run.insert(stage.to_string());
        }
        for node in 0..started.len() {
            t.started[node] += started[node];
            t.failed[node] += failed[node];
        }
        let mut newly = Vec::new();
        for node in 0..t.failed.len() {
            let spared = (0..t.blacklisted.len()).all(|n| n == node || t.blacklisted[n]);
            if t.failed[node] >= self.policy.blacklist_after && !t.blacklisted[node] && !spared {
                t.blacklisted[node] = true;
                newly.push(node);
            }
        }
        newly
    }

    /// The stages the plan's `fail:`, `oom:` and per-stage `p=` clauses name
    /// that have run no task on this cluster: so far they injected nothing.
    pub fn stages_never_run(&self) -> BTreeSet<&str> {
        let totals = self.state.totals();
        let points = self.plan.fail_points.iter().chain(&self.plan.oom_points);
        let named = self.plan.stage_fail_prob.iter().map(|(stage, _)| stage);
        let idle = named
            .chain(points.map(|fp| &fp.stage))
            .filter(|s| !totals.stages_run.contains(*s));
        idle.map(String::as_str).collect()
    }

    /// Attaches the cluster's memory accountant.
    pub fn with_memory(mut self, memory: std::sync::Arc<crate::memory::MemoryAccountant>) -> Self {
        self.memory = Some(memory);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::none().with_seed(1).with_fail_prob(0.5);
        let b = FaultPlan::none().with_seed(2).with_fail_prob(0.5);
        let decisions_a: Vec<bool> = (0..64).map(|t| a.injects("map", t, 1)).collect();
        let decisions_a2: Vec<bool> = (0..64).map(|t| a.injects("map", t, 1)).collect();
        let decisions_b: Vec<bool> = (0..64).map(|t| b.injects("map", t, 1)).collect();
        assert_eq!(decisions_a, decisions_a2, "same seed, same decisions");
        assert_ne!(decisions_a, decisions_b, "different seeds must diverge");
        let fails = decisions_a.iter().filter(|&&x| x).count();
        assert!((10..=54).contains(&fails), "p=0.5 should fail about half");
    }

    #[test]
    fn injection_rate_tracks_probability() {
        let plan = FaultPlan::none().with_seed(9).with_fail_prob(0.1);
        let n = 10_000;
        let fails = (0..n).filter(|&t| plan.injects("shuffle", t, 1)).count();
        let rate = fails as f64 / n as f64;
        assert!((0.07..=0.13).contains(&rate), "rate {rate} far from 0.1");
    }

    #[test]
    fn stage_override_and_extremes() {
        let plan = FaultPlan::none()
            .with_fail_prob(0.0)
            .with_stage_fail_prob("join", 1.0);
        assert!(plan.injects("join", 0, 1));
        assert!(!plan.injects("map", 0, 1));
    }

    #[test]
    fn fail_points_fire_exactly_where_placed() {
        let plan = FaultPlan::none().with_fail_point("map", 3, 1);
        assert!(plan.injects("map", 3, 1));
        assert!(!plan.injects("map", 3, 2));
        assert!(!plan.injects("map", 2, 1));
        assert!(!plan.injects("reduce", 3, 1));
    }

    #[test]
    fn slowdown_and_loss_lookups() {
        let plan = FaultPlan::none()
            .with_slow_node(2, 4.0)
            .with_lost_node(1, 10);
        assert_eq!(plan.slowdown(2), 4.0);
        assert_eq!(plan.slowdown(0), 1.0);
        assert_eq!(plan.lost_after(1), Some(10));
        assert_eq!(plan.lost_after(0), None);
        assert!(plan.is_active());
        assert!(!FaultPlan::none().is_active());
    }

    #[test]
    fn node_loss_fires_after_threshold() {
        let ctx = FaultContext::new(
            FaultPlan::none().with_lost_node(0, 3).with_lost_node(1, 0),
            RetryPolicy::default().with_blacklist_after(u64::MAX),
            3,
        );
        let lost = |ctx: &FaultContext| ctx.health().iter().map(|h| h.lost).collect::<Vec<_>>();
        assert_eq!(
            lost(&ctx),
            [false, true, false],
            "`@0` is lost from the first stage"
        );
        ctx.fold("a", &[2, 0, 4], &[0; 3]);
        assert_eq!(lost(&ctx), [false, true, false], "2 of 3 attempts started");
        // The loss takes effect from the next stage, once the totals reach
        // the threshold, however many attempts the stage started past it.
        ctx.fold("b", &[5, 0, 0], &[0; 3]);
        assert_eq!(lost(&ctx), [true, true, false]);
    }

    #[test]
    fn blacklist_spares_the_last_node() {
        let ctx = FaultContext::new(
            FaultPlan::none(),
            RetryPolicy::default().with_blacklist_after(2),
            3,
        );
        assert_eq!(ctx.fold("a", &[4; 3], &[1, 1, 0]), Vec::<usize>::new());
        // Failures add up across stages; nodes reaching the threshold in one
        // fold are blacklisted in node order, and the last usable one is
        // spared however many it failed.
        assert_eq!(ctx.fold("b", &[4; 3], &[1, 1, 2]), vec![0, 1]);
        assert_eq!(ctx.fold("c", &[4; 3], &[5, 5, 5]), Vec::<usize>::new());
        assert!(ctx.state.is_blacklisted(0) && !ctx.state.is_blacklisted(2));
        assert_eq!(ctx.state.blacklisted_count(), 2);
        let health = ctx.health();
        assert!(health[1].blacklisted && !health[1].lost);
    }

    #[test]
    fn retries_are_placed_by_task_and_attempt() {
        let ok = NodeHealth::default();
        let lost = NodeHealth {
            lost: true,
            blacklisted: false,
        };
        let blacklisted = NodeHealth {
            lost: false,
            blacklisted: true,
        };
        // Usable nodes other than the failed one, in node order, picked at
        // (task + attempt) mod count: 0, 2 and 4 away from node 1.
        let health = [ok, ok, ok, blacklisted, ok];
        let picks: Vec<usize> = (0..4).map(|task| place(&health, 1, task, 2)).collect();
        assert_eq!(picks, [4, 0, 2, 4]);
        assert_eq!(place(&health, 1, 0, 0), 0, "a speculative copy");
        // Nowhere else usable: stay on the failed node if it is usable, else
        // prefer a blacklisted node to a lost one.
        assert_eq!(place(&[ok, lost], 0, 3, 2), 0);
        assert_eq!(place(&[lost, blacklisted, lost], 0, 3, 2), 1);
        assert_eq!(place(&[lost, lost, lost], 0, 1, 2), 2);
        assert_eq!(place(&[lost], 0, 1, 2), 0);
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let plan = FaultPlan::parse("p=0.05, slow:1=3.0, lose:2@4, stage:local_join=0.2", 11);
        let plan = plan.expect("spec must parse");
        assert_eq!(plan.seed, 11);
        assert_eq!(plan.default_fail_prob, 0.05);
        assert_eq!(plan.slowdown(1), 3.0);
        assert_eq!(plan.lost_after(2), Some(4));
        assert_eq!(plan.fail_prob("local_join"), 0.2);
        let fp = FaultPlan::parse("fail:shuffle.R:3@2", 0).expect("fail point parses");
        assert!(fp.injects("shuffle.R", 3, 2));
        assert!(!fp.injects("shuffle.R", 3, 1));
        let oom = FaultPlan::parse("oom:shuffle.R:0@1", 0).expect("oom point parses");
        assert!(oom.injects_oom("shuffle.R", 0, 1));
        assert!(!oom.injects_oom("shuffle.R", 0, 2));
        assert!(!oom.injects_oom("shuffle.S", 0, 1));
        assert!(
            !oom.injects("shuffle.R", 0, 1),
            "oom is not a plain failure"
        );
        assert!(oom.is_active());
        assert_eq!(oom, FaultPlan::none().with_oom_point("shuffle.R", 0, 1));
        assert_eq!(
            FaultPlan::parse("chaos", 5).expect("chaos parses"),
            FaultPlan::chaos(5)
        );
        let crash = FaultPlan::parse("crash@6", 0).expect("crash parses");
        assert_eq!(crash.crash_after_grants, Some(6));
        assert!(crash.is_active());
        assert_eq!(crash, FaultPlan::none().with_crash_after_grants(6));
        let combined = FaultPlan::parse("p=0.1,crash@3", 1).expect("combined parses");
        assert_eq!(combined.crash_after_grants, Some(3));
        assert_eq!(combined.default_fail_prob, 0.1);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "p",
            "p=1.5",
            "slow:x=2.0",
            "slow:1=0.5",
            "lose:1=x",
            "what:3=1",
            "fail:stage:x@1",
            "oom:stage:x@1",
            "oom:stage:1@y",
            "crash@x",
            "crash@-1",
        ] {
            assert!(
                FaultPlan::parse(bad, 0).is_err(),
                "'{bad}' must be rejected"
            );
        }
    }
}
