use crate::ExpConfig;
use asj_data::{Catalog, DatasetSpec, TupleSizeFactor};
use asj_engine::{Cluster, ExecStats, FaultPlan, RetryPolicy};
use asj_join::{Algorithm, JoinError, JoinInput, JoinOutput, JoinSpec};

/// The dataset combinations of the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combo {
    /// Synthetic ⋈ synthetic.
    S1S2,
    /// Real (hydrography-like) ⋈ synthetic.
    R1S1,
    /// Real ⋈ real (the paper joins R2 with R1).
    R2R1,
}

impl Combo {
    pub const ALL: [Combo; 3] = [Combo::S1S2, Combo::R1S1, Combo::R2R1];

    pub fn name(self) -> &'static str {
        match self {
            Combo::S1S2 => "S1 ⋈ S2",
            Combo::R1S1 => "R1 ⋈ S1",
            Combo::R2R1 => "R2 ⋈ R1",
        }
    }

    /// The two datasets at the given size factor.
    pub(crate) fn specs(self, cfg: &ExpConfig, size_factor: usize) -> (DatasetSpec, DatasetSpec) {
        let catalog = Catalog::new(cfg.base * size_factor);
        match self {
            Combo::S1S2 => (catalog.s1, catalog.s2),
            Combo::R1S1 => (catalog.r1, catalog.s1),
            Combo::R2R1 => (catalog.r2, catalog.r1),
        }
    }

    /// The two inputs at the given size factor and tuple payload, as
    /// generated join inputs: each join makes its input partitions inside
    /// its tasks, so a handle is cloned for every repetition, never the
    /// records.
    pub fn datasets(
        self,
        cfg: &ExpConfig,
        size_factor: usize,
        tuple: TupleSizeFactor,
    ) -> (JoinInput, JoinInput) {
        let (a, b) = self.specs(cfg, size_factor);
        (generated(a, tuple), generated(b, tuple))
    }
}

/// `spec`'s points as generated records with `tuple`'s payload.
pub(crate) fn generated(spec: DatasetSpec, tuple: TupleSizeFactor) -> JoinInput {
    let n = spec.cardinality;
    JoinInput::generated(n, move |ids| spec.block_stream(ids), tuple.payload_bytes())
}

/// Network model for the simulated execution time: shuffle *remote* bytes
/// are charged against the aggregate cluster bandwidth, exactly the term the
/// paper's Spark jobs pay when executors fetch remote shuffle blocks. The
/// default 117 MiB/s per node is the 1 Gbps NIC of the paper's VMs.
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    pub bytes_per_sec_per_node: f64,
    /// Effective local-disk bandwidth per node. Spark's sort-based shuffle
    /// always writes map outputs to local disk and reads them back on the
    /// reduce side (remote or not); the paper's VMs sit on Ceph-backed
    /// volumes, so this is the term that punishes replication-heavy
    /// algorithms (ε-grid ran out of memory/disk at scale).
    pub disk_bytes_per_sec_per_node: f64,
    pub nodes: usize,
}

impl NetModel {
    pub const GIGABIT: f64 = 117.0 * 1024.0 * 1024.0;
    pub const CEPH_DISK: f64 = 150.0 * 1024.0 * 1024.0;

    pub fn gigabit(nodes: usize) -> NetModel {
        NetModel {
            bytes_per_sec_per_node: Self::GIGABIT,
            disk_bytes_per_sec_per_node: Self::CEPH_DISK,
            nodes,
        }
    }

    /// Seconds to move `remote_bytes` across the cluster fabric.
    pub fn transfer_secs(&self, remote_bytes: u64) -> f64 {
        remote_bytes as f64 / (self.bytes_per_sec_per_node * self.nodes.max(1) as f64)
    }

    /// Seconds to spill + re-read all shuffle bytes through local disk
    /// (write on the map side, read on the reduce side).
    pub fn spill_secs(&self, total_bytes: u64) -> f64 {
        2.0 * total_bytes as f64 / (self.disk_bytes_per_sec_per_node * self.nodes.max(1) as f64)
    }
}

/// Flattened metrics of one run, in the units the paper plots.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub algorithm: String,
    /// Replicated objects (both inputs).
    pub replicated: u64,
    /// Shuffle remote reads, bytes.
    pub shuffle_remote: u64,
    /// Total shuffled bytes.
    pub shuffle_total: u64,
    /// Simulated execution time, seconds.
    pub sim_time: f64,
    /// …split into construction (sampling + mapping + shuffle + driver) and
    /// join processing — the stacked bars of Fig. 13c.
    pub construction_time: f64,
    pub join_time: f64,
    pub results: u64,
    pub candidates: u64,
    /// Largest post-shuffle partition footprint (bytes).
    pub peak_partition_bytes: u64,
}

impl RunResult {
    pub fn from_output(out: &JoinOutput, net: &NetModel) -> RunResult {
        // The engine's simulated time, whose join-phase makespan is the join
        // bar, plus the I/O the network model prices into construction.
        let metrics = &out.metrics;
        let join = metrics.join.makespan();
        let construction = (metrics.simulated_time() - join).as_secs_f64()
            + net.transfer_secs(metrics.shuffle.remote_bytes)
            + net.spill_secs(metrics.shuffle.total_bytes())
            // Broadcast variables reach every executor over the same fabric.
            + net.transfer_secs(metrics.broadcast_bytes * net.nodes as u64);
        let join = join.as_secs_f64();
        RunResult {
            algorithm: out.algorithm.clone(),
            replicated: out.replicated_total(),
            shuffle_remote: out.metrics.shuffle.remote_bytes,
            shuffle_total: out.metrics.shuffle.total_bytes(),
            sim_time: construction + join,
            construction_time: construction,
            join_time: join,
            results: out.result_count,
            candidates: out.candidates,
            peak_partition_bytes: out.metrics.shuffle.peak_partition_bytes(),
        }
    }
}

/// Runs one algorithm once.
pub fn run_once(
    cluster: &Cluster,
    spec: &JoinSpec,
    algo: Algorithm,
    r: &JoinInput,
    s: &JoinInput,
) -> Result<RunResult, JoinError> {
    let out = algo.try_run(cluster, spec, r.clone(), s.clone())?;
    Ok(RunResult::from_output(
        &out,
        &NetModel::gigabit(cluster.nodes()),
    ))
}

/// Runs one algorithm `reps` times and averages the time metrics (counts are
/// deterministic and asserted identical across repetitions).
pub fn run_avg(
    cluster: &Cluster,
    spec: &JoinSpec,
    algo: Algorithm,
    r: &JoinInput,
    s: &JoinInput,
    reps: usize,
) -> Result<RunResult, JoinError> {
    assert!(reps >= 1);
    let mut acc = run_once(cluster, spec, algo, r, s)?;
    for _ in 1..reps {
        let next = run_once(cluster, spec, algo, r, s)?;
        assert_eq!(
            next.replicated, acc.replicated,
            "{algo:?} must be deterministic"
        );
        assert_eq!(next.results, acc.results);
        acc.sim_time += next.sim_time;
        acc.construction_time += next.construction_time;
        acc.join_time += next.join_time;
    }
    let n = reps as f64;
    acc.sim_time /= n;
    acc.construction_time /= n;
    acc.join_time /= n;
    Ok(acc)
}

/// One fault-injection A/B comparison: the same join fault-free and under a
/// seeded [`FaultPlan`], plus the recovery work the faulted run performed.
#[derive(Debug, Clone)]
pub struct FaultAb {
    pub baseline: RunResult,
    pub faulted: RunResult,
    /// Task attempts of the faulted run (> tasks when anything was retried).
    pub attempts: u64,
    pub retries: u64,
    pub failed_attempts: u64,
    pub speculative_wins: u64,
    pub blacklisted_nodes: u64,
}

/// Runs `algo` twice — on `cluster` as-is and on a copy with `plan`/`policy`
/// injected — and asserts the recovered run produces the identical result
/// set (the engine's recovery-transparency guarantee).
pub fn run_fault_ab(
    cluster: &Cluster,
    spec: &JoinSpec,
    algo: Algorithm,
    r: &JoinInput,
    s: &JoinInput,
    plan: FaultPlan,
    policy: RetryPolicy,
) -> Result<FaultAb, JoinError> {
    // The control run must be fault-free even when the caller's cluster
    // already carries a plan (e.g. `repro --faults` attaches one globally).
    let clean = cluster.clone().without_faults();
    let base_out = algo.try_run(&clean, spec, r.clone(), s.clone())?;
    let chaotic = cluster.clone().with_fault_policy(plan, policy);
    let fault_out = algo.try_run(&chaotic, spec, r.clone(), s.clone())?;
    assert_eq!(
        fault_out.result_count, base_out.result_count,
        "fault recovery must not change the join result"
    );
    assert_eq!(fault_out.pairs, base_out.pairs);
    let mut exec = ExecStats::default();
    exec.accumulate(&fault_out.metrics.construction);
    exec.accumulate(&fault_out.metrics.join);
    let net = NetModel::gigabit(cluster.nodes());
    Ok(FaultAb {
        baseline: RunResult::from_output(&base_out, &net),
        faulted: RunResult::from_output(&fault_out, &net),
        attempts: exec.attempts,
        retries: exec.retries,
        failed_attempts: exec.failed_attempts,
        speculative_wins: exec.speculative_wins,
        blacklisted_nodes: exec.blacklisted_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_data::PAPER_BBOX;

    #[test]
    fn combos_generate_expected_cardinalities() {
        let cfg = ExpConfig::quick().with_base(2000);
        let (r, s) = Combo::S1S2.specs(&cfg, 1);
        assert_eq!((r.cardinality, s.cardinality), (2000, 2000));
        let (r, s) = Combo::R2R1.specs(&cfg, 2);
        assert_eq!(r.cardinality, (4000.0 * 0.427) as usize);
        assert_eq!(s.cardinality, (4000.0 * 0.941) as usize);
    }

    #[test]
    fn run_avg_is_deterministic_in_counts() {
        let cfg = ExpConfig::quick().with_base(1500);
        let cluster = cfg.cluster();
        let (r, s) = Combo::S1S2.datasets(&cfg, 1, TupleSizeFactor::F0);
        let spec = JoinSpec::new(PAPER_BBOX, cfg.default_eps)
            .with_partitions(cfg.partitions)
            .counting_only();
        let a = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, 2).expect("join runs");
        let b = run_once(&cluster, &spec, Algorithm::Lpib, &r, &s).expect("join runs");
        assert_eq!(a.replicated, b.replicated);
        assert_eq!(a.results, b.results);
        assert!(a.sim_time > 0.0);
    }

    #[test]
    fn fault_ab_recovers_the_same_results() {
        let cfg = ExpConfig::quick().with_base(1200);
        let cluster = cfg.cluster();
        let (r, s) = Combo::S1S2.datasets(&cfg, 1, TupleSizeFactor::F0);
        let spec = JoinSpec::new(PAPER_BBOX, cfg.default_eps).with_partitions(cfg.partitions);
        let plan = FaultPlan::none()
            .with_seed(42)
            .with_fail_prob(0.05)
            .with_slow_node(1, 2.0);
        let ab = run_fault_ab(
            &cluster,
            &spec,
            Algorithm::Lpib,
            &r,
            &s,
            plan,
            RetryPolicy::default().with_max_attempts(8),
        )
        .expect("both legs run");
        assert_eq!(ab.baseline.results, ab.faulted.results);
        assert!(ab.attempts > 0);
        // Without speculation every failed attempt is followed by a retry.
        assert_eq!(ab.retries, ab.failed_attempts);
    }
}
