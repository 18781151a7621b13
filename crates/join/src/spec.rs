use crate::{Pairs, Record};
use asj_engine::{Dataset, JobError, JobMetrics, Placement};
use asj_geom::Rect;

/// Partition-local join kernel (ablation A1 in DESIGN.md). Re-exported from
/// `asj-core`, where the committed [`asj_core::KernelCostModel`] resolves
/// the default `Auto` per cell group.
pub use asj_core::LocalKernel;

/// Parameters of one distributed ε-distance join run, mirroring Table 3 of
/// the paper (defaults in **bold** there are defaults here).
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Minimum bounding rectangle of the data space (`m` in Algorithm 5).
    pub bbox: Rect,
    /// Distance threshold ε.
    pub eps: f64,
    /// Grid resolution factor (cell side ≥ `grid_factor · ε`); the paper
    /// uses 2 and sweeps 2–5 in Fig. 15.
    pub grid_factor: f64,
    /// Number of shuffle partitions for the join (the paper's Spark default
    /// is 96).
    pub num_partitions: usize,
    /// Number of input partitions the raw datasets are split into.
    pub input_partitions: usize,
    /// Sampling fraction φ (the paper found 3 % best).
    pub sample_fraction: f64,
    /// Cell → partition placement: Spark-default hash or LPT (§6.2).
    pub placement: Placement,
    /// Seed for sampling and any randomized choices; runs are reproducible.
    pub seed: u64,
    /// Materialize result pairs (`(r.id, s.id)`) in the output. Disable for
    /// large runs where only counts and metrics matter.
    pub collect_pairs: bool,
    /// Partition-local join kernel (default [`LocalKernel::Auto`]: the
    /// committed cost model picks per cell group).
    pub kernel: LocalKernel,
}

impl JoinSpec {
    /// The default [`JoinSpec::input_partitions`]: how many partitions an
    /// input is read into when it comes from a file.
    pub const INPUT_PARTITIONS: usize = 16;

    pub fn new(bbox: Rect, eps: f64) -> Self {
        JoinSpec {
            bbox,
            eps,
            grid_factor: 2.0,
            num_partitions: 96,
            input_partitions: JoinSpec::INPUT_PARTITIONS,
            sample_fraction: 0.03,
            placement: Placement::Hash,
            seed: 0xA5A5_5EED,
            collect_pairs: true,
            kernel: LocalKernel::default(),
        }
    }

    pub fn with_kernel(mut self, kernel: LocalKernel) -> Self {
        self.kernel = kernel;
        self
    }

    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    pub fn with_grid_factor(mut self, factor: f64) -> Self {
        self.grid_factor = factor;
        self
    }

    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.num_partitions = partitions;
        self
    }

    pub fn with_sample_fraction(mut self, fraction: f64) -> Self {
        self.sample_fraction = fraction;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn counting_only(mut self) -> Self {
        self.collect_pairs = false;
        self
    }

    /// Rejects a spec no join can run: every entry point calls this first,
    /// so values that arrived from a command line or a queue file surface as
    /// [`JoinError::InvalidSpec`] instead of tripping an `assert!` deeper in
    /// the grid, the partitioner or the sampler.
    pub fn validate(&self) -> Result<(), JoinError> {
        let invalid = |field, reason: String| Err(JoinError::InvalidSpec { field, reason });
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return invalid(
                "eps",
                format!("must be finite and positive, got {}", self.eps),
            );
        }
        if !(self.grid_factor.is_finite() && self.grid_factor >= 1.0) {
            return invalid(
                "grid_factor",
                format!("must be finite and at least 1, got {}", self.grid_factor),
            );
        }
        if self.num_partitions == 0 {
            return invalid("num_partitions", "must be at least 1".into());
        }
        if self.input_partitions == 0 {
            return invalid("input_partitions", "must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.sample_fraction) {
            return invalid(
                "sample_fraction",
                format!("must be in [0, 1], got {}", self.sample_fraction),
            );
        }
        Ok(())
    }
}

/// One input of a join: records, which the join cuts into
/// [`JoinSpec::input_partitions`] input partitions, or input partitions as
/// they were read — e.g. straight from a file by
/// `asj_data::read_points_csv_partitions`, so that no row is copied.
#[derive(Debug, Clone)]
pub enum JoinInput<T = Record> {
    Records(Vec<T>),
    Partitions(Dataset<T>),
}

impl<T> From<Vec<T>> for JoinInput<T> {
    fn from(records: Vec<T>) -> Self {
        JoinInput::Records(records)
    }
}

impl<T> From<Dataset<T>> for JoinInput<T> {
    fn from(partitions: Dataset<T>) -> Self {
        JoinInput::Partitions(partitions)
    }
}

impl<T: Send + Sync + Clone> JoinInput<T> {
    /// The input's partitions: records cut into `spec.input_partitions`
    /// chunks, partitions as they are. Call after [`JoinSpec::validate`].
    pub(crate) fn partitioned(self, spec: &JoinSpec) -> Dataset<T> {
        match self {
            JoinInput::Records(records) => Dataset::from_vec(records, spec.input_partitions),
            JoinInput::Partitions(partitions) => partitions,
        }
    }
}

/// Typed failure of a join entry point. Every entry point of this crate
/// returns `Result<_, JoinError>`; none panics on a failed stage or on a
/// spec that outside input could have produced.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinError {
    /// A spec field is outside the range every join needs (see
    /// [`JoinSpec::validate`]), or an entry point's own argument is outside
    /// its range (`k` of [`knn_join`](crate::knn_join), `radius` of
    /// [`circle_query`](crate::PartitionedPoints::circle_query)).
    InvalidSpec {
        /// The offending [`JoinSpec`] field or argument.
        field: &'static str,
        reason: String,
    },
    /// The requested grid resolution leaves cell sides below `2ε`, so the
    /// agreement construction (Algorithms 2–4) cannot be made
    /// duplicate-free. Raise [`JoinSpec::with_grid_factor`] to at least
    /// `min_factor`; the baselines ([`pbsm_join`](crate::pbsm_join),
    /// [`eps_grid_join`](crate::eps_grid_join)) run on any factor ≥ 1.
    GridTooFine {
        /// The factor the spec asked for.
        grid_factor: f64,
        /// The smallest factor the agreement construction supports.
        min_factor: f64,
    },
    /// A stage failed: some task exhausted every permitted attempt.
    Job(JobError),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::InvalidSpec { field, reason } => {
                write!(f, "invalid join spec: {field} {reason}")
            }
            JoinError::GridTooFine {
                grid_factor,
                min_factor,
            } => write!(
                f,
                "grid too fine for adaptive replication: grid_factor {grid_factor} \
                 puts cell sides below 2*eps (need grid_factor >= {min_factor})"
            ),
            JoinError::Job(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JoinError {}

impl From<JobError> for JoinError {
    fn from(e: JobError) -> Self {
        JoinError::Job(e)
    }
}

/// Everything one join run produced — results plus the paper's metrics.
#[derive(Debug, Clone)]
pub struct JoinOutput {
    /// Algorithm display name (matches the paper's figure legends).
    pub algorithm: String,
    /// Materialized `(r.id, s.id)` pairs, as each join partition produced
    /// them (empty when `collect_pairs` is off).
    pub pairs: Pairs,
    /// Number of result pairs (always populated).
    pub result_count: u64,
    /// Candidate pairs whose exact distance was evaluated.
    pub candidates: u64,
    /// Replicated objects `[R, S]`: copies beyond the native assignment —
    /// metric (b) of §7.1.
    pub replicated: [u64; 2],
    /// Shuffle volume, phase timings and simulated cluster time.
    pub metrics: JobMetrics,
}

impl JoinOutput {
    /// Total replicated objects across both inputs.
    pub fn replicated_total(&self) -> u64 {
        self.replicated[0] + self.replicated[1]
    }

    /// Join selectivity in percent: `result / (|R|·|S|) · 100` (Table 4).
    pub fn selectivity_pct(&self, r_len: usize, s_len: usize) -> f64 {
        if r_len == 0 || s_len == 0 {
            return 0.0;
        }
        self.result_count as f64 / (r_len as f64 * s_len as f64) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_apply() {
        let bbox = Rect::new(0.0, 0.0, 10.0, 10.0);
        let s = JoinSpec::new(bbox, 0.5)
            .with_placement(Placement::Lpt)
            .with_grid_factor(3.0)
            .with_partitions(48)
            .with_sample_fraction(0.1)
            .with_seed(7)
            .counting_only();
        assert_eq!(s.placement, Placement::Lpt);
        assert_eq!(s.grid_factor, 3.0);
        assert_eq!(s.num_partitions, 48);
        assert_eq!(s.sample_fraction, 0.1);
        assert_eq!(s.seed, 7);
        assert!(!s.collect_pairs);
        // Paper defaults.
        let d = JoinSpec::new(bbox, 0.5);
        assert_eq!(d.num_partitions, 96);
        assert_eq!(d.sample_fraction, 0.03);
        assert_eq!(d.grid_factor, 2.0);
        assert_eq!(d.placement, Placement::Hash);
        assert_eq!(d.kernel, LocalKernel::Auto, "Auto is the default kernel");
        let k = JoinSpec::new(bbox, 0.5).with_kernel(LocalKernel::GridBucket);
        assert_eq!(k.kernel, LocalKernel::GridBucket);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let ok = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 0.5);
        assert_eq!(ok.validate(), Ok(()));
        type Spoil = fn(&mut JoinSpec);
        let cases: [(&str, Spoil); 9] = [
            ("eps", |s| s.eps = 0.0),
            ("eps", |s| s.eps = f64::NAN),
            ("eps", |s| s.eps = f64::INFINITY),
            ("grid_factor", |s| s.grid_factor = 0.5),
            ("grid_factor", |s| s.grid_factor = f64::NAN),
            ("num_partitions", |s| s.num_partitions = 0),
            ("input_partitions", |s| s.input_partitions = 0),
            ("sample_fraction", |s| s.sample_fraction = 1.5),
            ("sample_fraction", |s| s.sample_fraction = f64::NAN),
        ];
        for (field, spoil) in cases {
            let mut spec = ok.clone();
            spoil(&mut spec);
            match spec.validate() {
                Err(JoinError::InvalidSpec { field: got, reason }) => {
                    assert_eq!(got, field, "{reason}");
                }
                other => panic!("{field}: expected InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn selectivity_matches_table4_definition() {
        let out = JoinOutput {
            algorithm: "x".into(),
            pairs: Pairs::default(),
            result_count: 50,
            candidates: 100,
            replicated: [3, 4],
            metrics: JobMetrics::default(),
        };
        assert_eq!(out.replicated_total(), 7);
        // 50 / (100 * 100) * 100 = 0.5 %
        assert!((out.selectivity_pct(100, 100) - 0.5).abs() < 1e-12);
        assert_eq!(out.selectivity_pct(0, 100), 0.0);
    }
}
