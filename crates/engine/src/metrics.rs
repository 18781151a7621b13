use std::time::Duration;

/// Outcome of one parallel stage: how long each simulated node was busy and
/// how long the stage took on the host.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Total task time attributed to each simulated node.
    pub per_node_busy: Vec<Duration>,
    /// Real elapsed time on the host machine.
    pub wall: Duration,
    /// Task attempts started, including failed ones, speculative copies and
    /// the originals they killed. Equals the task count on a fault-free run;
    /// exceeds it under recovery.
    pub attempts: u64,
    /// Attempts that were re-runs of a previously failed task.
    pub retries: u64,
    /// Attempts that ended in failure (injected, panic, or lost node).
    pub failed_attempts: u64,
    /// Speculative copies that committed in place of the original attempt.
    pub speculative_wins: u64,
    /// Nodes blacklisted by the end of the stage (cluster-lifetime view:
    /// accumulation takes the max, not the sum).
    pub blacklisted_nodes: u64,
    /// Bytes this stage wrote to disk spill segments because a node's memory
    /// budget would have been exceeded (0 on unbudgeted runs).
    pub spilled_bytes: u64,
    /// Highest concurrent memory charge observed on any node by the end of
    /// the stage — cluster-lifetime watermark like the blacklist, so
    /// accumulation takes the max. When a budget is enforced this never
    /// exceeds it, by construction.
    pub peak_memory_bytes: u64,
}

impl ExecStats {
    /// Simulated stage duration: the busiest node bounds the stage, exactly
    /// as the slowest executor bounds a Spark stage.
    pub fn makespan(&self) -> Duration {
        self.per_node_busy
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Total work across all nodes.
    pub fn total_busy(&self) -> Duration {
        self.per_node_busy.iter().sum()
    }

    /// Ratio of the busiest node to the average — 1.0 is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_busy().as_secs_f64();
        if total == 0.0 || self.per_node_busy.is_empty() {
            return 1.0;
        }
        let avg = total / self.per_node_busy.len() as f64;
        self.makespan().as_secs_f64() / avg
    }

    /// Accumulates another stage executed after this one (busy times add up
    /// node-wise; wall times add).
    pub fn accumulate(&mut self, other: &ExecStats) {
        if self.per_node_busy.len() < other.per_node_busy.len() {
            self.per_node_busy
                .resize(other.per_node_busy.len(), Duration::ZERO);
        }
        for (a, b) in self.per_node_busy.iter_mut().zip(&other.per_node_busy) {
            *a += *b;
        }
        self.wall += other.wall;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.failed_attempts += other.failed_attempts;
        self.speculative_wins += other.speculative_wins;
        // The blacklist is cluster-lifetime state observed per stage, not a
        // per-stage increment: the later stage's view supersedes.
        self.blacklisted_nodes = self.blacklisted_nodes.max(other.blacklisted_nodes);
        self.spilled_bytes += other.spilled_bytes;
        // The memory peak is a watermark like the blacklist.
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
    }
}

/// Order statistics over a set of duration samples (queue waits, turnaround
/// times). Percentiles use the nearest-rank method on the sorted samples, so
/// summaries of identical sample sets are identical — no interpolation noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurationSummary {
    pub count: usize,
    pub mean: Duration,
    pub p50: Duration,
    pub p99: Duration,
    pub max: Duration,
}

impl DurationSummary {
    /// Summarizes `samples` (order irrelevant; empty yields all zeros).
    pub fn from_samples(samples: &[Duration]) -> DurationSummary {
        if samples.is_empty() {
            return DurationSummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        let rank = |q: f64| {
            let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[k - 1]
        };
        DurationSummary {
            count: sorted.len(),
            mean: total / sorted.len() as u32,
            p50: rank(0.50),
            p99: rank(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Byte accounting of one shuffle, split by whether a record stayed on its
/// source node. `remote_bytes` is the analog of Spark's *shuffle remote
/// reads* metric used throughout the paper's evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Bytes of records that crossed simulated nodes.
    pub remote_bytes: u64,
    /// Bytes of records that stayed on their node.
    pub local_bytes: u64,
    /// Records moved (local + remote).
    pub records: u64,
    /// Bytes landing in each target partition — the post-shuffle memory
    /// footprint. The maximum entry is what blows up first when replication
    /// is excessive (the paper's ε-grid out-of-memory failure at scale).
    pub partition_bytes: Vec<u64>,
}

impl ShuffleStats {
    pub fn total_bytes(&self) -> u64 {
        self.remote_bytes + self.local_bytes
    }

    /// Largest post-shuffle partition, in bytes (0 if nothing moved).
    pub fn peak_partition_bytes(&self) -> u64 {
        self.partition_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Merges another shuffle over the same partitioning: co-located
    /// partitions add up (a join holds both inputs' partitions in memory).
    pub fn merge(&mut self, other: &ShuffleStats) {
        self.remote_bytes += other.remote_bytes;
        self.local_bytes += other.local_bytes;
        self.records += other.records;
        if self.partition_bytes.len() < other.partition_bytes.len() {
            self.partition_bytes.resize(other.partition_bytes.len(), 0);
        }
        for (a, b) in self.partition_bytes.iter_mut().zip(&other.partition_bytes) {
            *a += *b;
        }
    }
}

/// Aggregate metrics of one distributed job, mirroring the paper's reporting.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Shuffle volume (both inputs).
    pub shuffle: ShuffleStats,
    /// Simulated/wall time of the construction phase (sampling, graph,
    /// mapping, shuffle).
    pub construction: ExecStats,
    /// Simulated/wall time of the join phase.
    pub join: ExecStats,
    /// Time spent in driver-side serial work (included in construction's
    /// simulated time as a serial stage).
    pub driver: Duration,
    /// Bytes pushed to each executor by broadcast variables (the agreement
    /// grid of Algorithm 5); total network cost is `broadcast_bytes × nodes`.
    pub broadcast_bytes: u64,
}

impl JobMetrics {
    /// Simulated end-to-end execution time: serial driver work plus the
    /// makespan of each parallel phase.
    pub fn simulated_time(&self) -> Duration {
        self.driver + self.construction.makespan() + self.join.makespan()
    }

    /// Real elapsed time on the host.
    pub fn wall_time(&self) -> Duration {
        self.driver + self.construction.wall + self.join.wall
    }

    /// Bytes spilled to disk across both phases (0 unless a memory budget
    /// forced shuffles out of core).
    pub fn spilled_bytes(&self) -> u64 {
        self.construction.spilled_bytes + self.join.spilled_bytes
    }

    /// Highest concurrent per-node memory charge observed across both
    /// phases. When a budget is enforced this never exceeds it.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.construction
            .peak_memory_bytes
            .max(self.join.peak_memory_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn makespan_is_max_node() {
        let s = ExecStats {
            per_node_busy: vec![ms(10), ms(30), ms(20)],
            wall: ms(35),
            ..ExecStats::default()
        };
        assert_eq!(s.makespan(), ms(30));
        assert_eq!(s.total_busy(), ms(60));
        assert!((s.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = ExecStats::default();
        assert_eq!(s.makespan(), Duration::ZERO);
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn accumulate_adds_nodewise() {
        let mut a = ExecStats {
            per_node_busy: vec![ms(5), ms(10)],
            wall: ms(12),
            attempts: 2,
            retries: 1,
            failed_attempts: 1,
            speculative_wins: 0,
            blacklisted_nodes: 1,
            spilled_bytes: 100,
            peak_memory_bytes: 700,
        };
        let b = ExecStats {
            per_node_busy: vec![ms(1), ms(2), ms(3)],
            wall: ms(4),
            attempts: 3,
            retries: 0,
            failed_attempts: 0,
            speculative_wins: 2,
            blacklisted_nodes: 0,
            spilled_bytes: 50,
            peak_memory_bytes: 400,
        };
        a.accumulate(&b);
        assert_eq!(a.per_node_busy, vec![ms(6), ms(12), ms(3)]);
        assert_eq!(a.wall, ms(16));
        assert_eq!(a.attempts, 5);
        assert_eq!(a.retries, 1);
        assert_eq!(a.failed_attempts, 1);
        assert_eq!(a.speculative_wins, 2);
        assert_eq!(a.blacklisted_nodes, 1, "blacklist accumulates as max");
        assert_eq!(a.spilled_bytes, 150, "spill volume accumulates as sum");
        assert_eq!(a.peak_memory_bytes, 700, "memory peak accumulates as max");
    }

    #[test]
    fn shuffle_stats_merge() {
        let mut a = ShuffleStats {
            remote_bytes: 10,
            local_bytes: 5,
            records: 3,
            partition_bytes: vec![8, 7],
        };
        a.merge(&ShuffleStats {
            remote_bytes: 1,
            local_bytes: 2,
            records: 1,
            partition_bytes: vec![1, 1, 1],
        });
        assert_eq!(a.remote_bytes, 11);
        assert_eq!(a.local_bytes, 7);
        assert_eq!(a.records, 4);
        assert_eq!(a.partition_bytes, vec![9, 8, 1]);
        assert_eq!(a.total_bytes(), 18);
        assert_eq!(a.peak_partition_bytes(), 9);
    }

    #[test]
    fn empty_shuffle_peak_is_zero() {
        assert_eq!(ShuffleStats::default().peak_partition_bytes(), 0);
    }

    #[test]
    fn job_metrics_compose_times() {
        let m = JobMetrics {
            shuffle: ShuffleStats::default(),
            construction: ExecStats {
                per_node_busy: vec![ms(10), ms(20)],
                wall: ms(25),
                ..ExecStats::default()
            },
            join: ExecStats {
                per_node_busy: vec![ms(40), ms(5)],
                wall: ms(42),
                ..ExecStats::default()
            },
            driver: ms(3),
            broadcast_bytes: 0,
        };
        assert_eq!(m.simulated_time(), ms(3 + 20 + 40));
        assert_eq!(m.wall_time(), ms(3 + 25 + 42));
    }

    #[test]
    fn job_metrics_compose_memory() {
        let mut m = JobMetrics::default();
        m.construction.spilled_bytes = 300;
        m.construction.peak_memory_bytes = 900;
        m.join.spilled_bytes = 200;
        m.join.peak_memory_bytes = 1200;
        assert_eq!(m.spilled_bytes(), 500, "phases' spill volumes add");
        assert_eq!(m.peak_memory_bytes(), 1200, "peak is the max watermark");
    }
}
