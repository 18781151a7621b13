use crate::record::partition_records;
use crate::routing::Remake;
use crate::{NoPayload, PairSink, Pairs, Record, RecordPayload};
use asj_engine::digest::PairDigest;
use asj_engine::{split, Cluster, Dataset, ExecStats, JobError, JobMetrics, Placement};
use asj_geom::{Point, Rect};
use std::ops::Range;
use std::sync::Arc;

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
    /// Where the result pairs `(r.id, s.id)` go (default
    /// [`PairSink::Collect`]).
    pub sink: PairSink,
    /// Whether [`JoinSpec::sink`] is [`PairSink::Collect`]. The joins read
    /// `sink`; this mirror is kept, set by [`JoinSpec::with_sink`] and
    /// [`JoinSpec::counting_only`], for `benchmark/src/probe.rs`.
    #[deprecated(note = "frozen for benchmark/src/probe.rs; read `sink`")]
    pub collect_pairs: bool,
    /// Partition-local join kernel (default [`LocalKernel::Auto`]: the
    /// committed cost model picks per cell group).
    pub kernel: LocalKernel,
}

impl JoinSpec {
    /// The default [`JoinSpec::input_partitions`]: how many partitions an
    /// input is read into when it comes from a file.
    pub const INPUT_PARTITIONS: usize = 16;

    #[allow(deprecated)] // sets the frozen `collect_pairs` mirror
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
            sink: PairSink::Collect,
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

    /// Sends the result pairs to `sink`.
    #[allow(deprecated)] // sets the frozen `collect_pairs` mirror
    pub fn with_sink(mut self, sink: PairSink) -> Self {
        self.collect_pairs = matches!(sink, PairSink::Collect);
        self.sink = sink;
        self
    }

    /// [`JoinSpec::with_sink`]`(`[`PairSink::Count`]`)`.
    pub fn counting_only(self) -> Self {
        self.with_sink(PairSink::Count)
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
/// [`JoinSpec::input_partitions`] input partitions; input partitions as
/// they were read — e.g. straight from a file by `asj_data::read_points_csv_each`
/// into an [`Ingest`](asj_engine::Ingest), so that no row is copied and,
/// under a memory budget, a partition may wait on disk until its tasks read
/// it; or records that the join's tasks generate ([`JoinInput::generated`]).
#[derive(Debug, Clone)]
pub enum JoinInput<T = Record> {
    Records(Vec<T>),
    Partitions(Dataset<T>),
    Generated(Generator<T>),
}

/// Records `0..n` made range by range, with or without their payloads: a
/// [`JoinInput::generated`] input. Cloning it shares the generator.
#[derive(Clone)]
pub struct Generator<T> {
    n: usize,
    /// Payload bytes per record.
    payload_bytes: u64,
    /// The records of a range.
    rows: Arc<dyn Fn(Range<usize>) -> Vec<T> + Send + Sync>,
    /// The same records without payloads.
    bare: Arc<dyn Fn(Range<usize>) -> Vec<Record<NoPayload>> + Send + Sync>,
    /// A record's id, which is its index in `0..n`.
    id: fn(&T) -> u64,
}

impl<T> std::fmt::Debug for Generator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generator")
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
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

impl JoinInput<Record> {
    /// Records `0..n`: record `i` has id `i`, the `i`-th point of the
    /// dataset that `points(range)` yields range by range — on any thread,
    /// as `asj_data::DatasetSpec::block_stream` does — and `payload_bytes`
    /// of generated payload, at most [`MAX_PAYLOAD_BYTES`](crate::MAX_PAYLOAD_BYTES).
    /// The join cuts it as it cuts [`JoinInput::Records`], and each input
    /// partition is made inside the task that reads it and dropped after: the
    /// sample makes its ids and points only, the shuffle's map task the
    /// records, their payloads in one arena. So every answer and counter is
    /// that of `to_records` over all the points, and nothing holds the input
    /// between stages.
    ///
    /// # Panics
    /// Panics if `payload_bytes` exceeds [`MAX_PAYLOAD_BYTES`](crate::MAX_PAYLOAD_BYTES).
    pub fn generated<I>(
        n: usize,
        points: impl Fn(Range<usize>) -> I + Send + Sync + 'static,
        payload_bytes: usize,
    ) -> Self
    where
        I: ExactSizeIterator<Item = Point>,
    {
        assert!(
            payload_bytes <= crate::MAX_PAYLOAD_BYTES,
            "payload too large to window"
        );
        let points = Arc::new(points);
        let bare = Arc::clone(&points);
        JoinInput::Generated(Generator {
            n,
            payload_bytes: payload_bytes as u64,
            rows: Arc::new(move |ids: Range<usize>| {
                partition_records(ids.clone(), points(ids), payload_bytes)
            }),
            bare: Arc::new(move |ids: Range<usize>| {
                let ids = ids.clone().zip(bare(ids));
                ids.map(|(id, point)| Record::bare(id as u64, point))
                    .collect()
            }),
            id: |record| record.id,
        })
    }
}

impl<T: Send + Sync + Clone + 'static> JoinInput<T> {
    /// The input's partitions: records cut into `spec.input_partitions`
    /// chunks, partitions as they are, a generator's ranges as recipes. Call
    /// after [`JoinSpec::validate`].
    pub(crate) fn partitioned(self, spec: &JoinSpec) -> Partitioned<T> {
        let rows = match self {
            JoinInput::Records(records) => Dataset::from_vec(records, spec.input_partitions),
            JoinInput::Partitions(partitions) => partitions,
            JoinInput::Generated(generator) => {
                let Generator {
                    n,
                    payload_bytes,
                    rows,
                    bare,
                    id,
                } = generator;
                let parts = spec.input_partitions;
                let lens: Vec<usize> = (0..parts).map(|p| split(n, parts, p).len()).collect();
                let make: Arc<dyn Fn(usize) -> (Vec<T>, u64) + Send + Sync> = Arc::new(move |p| {
                    let ids = split(n, parts, p);
                    let payload = ids.len() as u64 * payload_bytes;
                    (rows(ids), payload)
                });
                let bare = move |p| (bare(split(n, parts, p)), 0);
                let rows = Arc::clone(&make);
                return Partitioned {
                    rows: Dataset::from_recipe(lens.clone(), move |p| rows(p)),
                    bare: Some(Dataset::from_recipe(lens, bare)),
                    remake: Some(Remake {
                        n,
                        payload_bytes,
                        parts,
                        make,
                        id,
                    }),
                };
            }
        };
        rows.into()
    }
}

/// A join input cut into its input partitions.
pub(crate) struct Partitioned<T> {
    pub rows: Dataset<T>,
    /// The same records without payloads, where the input can make them
    /// without making the payloads: what the sample reads.
    bare: Option<Dataset<Record<NoPayload>>>,
    /// How a generated input's partitions are made again: what its
    /// shuffles' checkpoints keep only the routing of.
    pub remake: Option<Remake<T>>,
}

impl<T> From<Dataset<T>> for Partitioned<T> {
    fn from(rows: Dataset<T>) -> Self {
        Partitioned {
            rows,
            bare: None,
            remake: None,
        }
    }
}

impl<P: RecordPayload> Partitioned<Record<P>> {
    /// The points of the input's Bernoulli sample — the `sample(φ)` step of
    /// Algorithm 5 — in record order. A generated input samples its records
    /// without payloads: the same ids and points in the same order, so the
    /// same draws pick the same points, and no payload byte is made.
    pub(crate) fn sample_points(
        &self,
        cluster: &Cluster,
        fraction: f64,
        seed: u64,
    ) -> Result<(Vec<Point>, ExecStats), JobError> {
        fn points<P>((sample, stats): (Vec<Record<P>>, ExecStats)) -> (Vec<Point>, ExecStats) {
            (sample.iter().map(|rec| rec.point).collect(), stats)
        }
        match &self.bare {
            Some(bare) => bare.try_sample(cluster, fraction, seed).map(points),
            None => self.rows.try_sample(cluster, fraction, seed).map(points),
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
    /// them ([`PairSink::Collect`] only; empty otherwise).
    pub pairs: Pairs,
    /// The committed partitions' digests, added up ([`PairSink::Digest`]
    /// only; zero otherwise).
    pub digest: PairDigest,
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
        assert!(matches!(s.sink, PairSink::Count));
        #[allow(deprecated)]
        let mirrored = (s.collect_pairs, JoinSpec::new(bbox, 0.5).collect_pairs);
        assert_eq!(
            mirrored,
            (false, true),
            "the frozen mirror follows the sink"
        );
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
            digest: PairDigest::default(),
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

    mod generated {
        use super::*;
        use crate::{to_records, Algorithm};
        use asj_data::{DatasetSpec, GenKind, PAPER_BBOX};
        use asj_engine::{ClusterConfig, FaultPlan, Recorder, RetryPolicy};
        use proptest::prelude::*;

        const KINDS: [GenKind; 4] = [
            GenKind::GaussianClusters,
            GenKind::Hydrography,
            GenKind::Parks,
            GenKind::Uniform,
        ];

        fn dataset(kind: GenKind, n: usize, seed: u64) -> DatasetSpec {
            DatasetSpec {
                name: "t",
                kind,
                cardinality: n,
                seed,
                bbox: PAPER_BBOX,
                sigma_scale: 1.0,
            }
        }

        fn generated(spec: &DatasetSpec, payload_bytes: usize) -> JoinInput {
            let spec = spec.clone();
            let n = spec.cardinality;
            JoinInput::generated(n, move |ids| spec.block_stream(ids), payload_bytes)
        }

        /// `to_records` over every point, as a join input.
        fn records(spec: &DatasetSpec, payload_bytes: usize) -> JoinInput {
            to_records(&spec.points(), payload_bytes).into()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// A generated input's partitions, as their recipes make them,
            /// are what generating into one vector and cutting it gives —
            /// ids, points, payload bytes —, and its payload-free partitions
            /// are the same records stripped.
            #[test]
            fn generated_partitions_match_cut_records(
                kind in 0usize..4,
                payload_bytes in prop_oneof![Just(0usize), Just(1), Just(64), Just(257)],
                n in prop_oneof![0usize..2, 1023usize..1026, 2000usize..5000],
                parts in prop_oneof![Just(1usize), Just(16), Just(97)],
                seed in any::<u64>(),
            ) {
                let data = dataset(KINDS[kind], n, seed);
                let cut = Dataset::from_vec(to_records(&data.points(), payload_bytes), parts);
                let mut spec = JoinSpec::new(PAPER_BBOX, 1.0);
                spec.input_partitions = parts;
                let input = generated(&data, payload_bytes).partitioned(&spec);
                prop_assert_eq!(input.rows.len(), n);
                let bare = input.bare.expect("a generated input samples without payloads");
                let bare = bare.try_into_partitions("t").expect("made");
                let got = input.rows.try_into_partitions("t").expect("made");
                let want = cut.into_partitions();
                prop_assert_eq!(&got, &want);
                for (part, bare) in got.iter().zip(&bare) {
                    let stripped: Vec<Record<NoPayload>> = part.iter().map(Record::stripped).collect();
                    prop_assert_eq!(&stripped, bare);
                }
            }
        }

        /// What a run's trace counted, without the timings and without what
        /// recipes made.
        fn counters(recorder: &Recorder) -> Vec<((String, String), u64)> {
            let metrics = recorder.snapshot().metrics;
            let exact = |((_, name), _): &(&(String, String), &u64)| {
                !name.ends_with("_ns") && !name.starts_with("recipe_")
            };
            let counters = metrics.counters.iter().filter(exact);
            counters.map(|(key, &v)| (key.clone(), v)).collect()
        }

        /// A generated input joins exactly as `to_records` over its points
        /// does, for every algorithm, with and without payloads, on one and
        /// two host threads: the same pairs, counters, replication, shuffle
        /// bytes and sample points.
        #[test]
        fn generated_inputs_join_like_records() {
            let (r, s) = (
                dataset(GenKind::GaussianClusters, 1_500, 3),
                dataset(GenKind::Parks, 1_200, 4),
            );
            let spec = JoinSpec::new(PAPER_BBOX, 0.6)
                .with_partitions(12)
                .with_sample_fraction(0.2);
            let algos = Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]);
            for algo in algos {
                for payload in [0, 64] {
                    for threads in [1, 2] {
                        let run = |r: JoinInput, s: JoinInput| {
                            let recorder = Recorder::for_nodes(4);
                            let cluster = Cluster::new(ClusterConfig::with_threads(4, threads))
                                .with_recorder(recorder.clone());
                            let sample = |input: &JoinInput| {
                                let input = input.clone().partitioned(&spec);
                                let (points, _) = input
                                    .sample_points(&cluster, spec.sample_fraction, spec.seed)
                                    .expect("sample runs");
                                points.iter().map(|p| (p.x, p.y)).collect::<Vec<_>>()
                            };
                            let samples = (sample(&r), sample(&s));
                            let out = algo.try_run(&cluster, &spec, r, s).expect("join runs");
                            let shuffle = out.metrics.shuffle.clone();
                            let counts = (out.result_count, out.candidates, out.replicated_total());
                            (out.pairs, counts, shuffle, counters(&recorder), samples)
                        };
                        let want = run(records(&r, payload), records(&s, payload));
                        let got = run(generated(&r, payload), generated(&s, payload));
                        assert!(want.1 .0 > 0, "{algo:?}: the join finds pairs");
                        assert_eq!(
                            got, want,
                            "{algo:?}, payload {payload}, {threads} thread(s)"
                        );
                    }
                }
            }
        }

        /// A shuffle of a generated input checkpoints each row's key and
        /// record id, 16 bytes a row, and a load restores what the map
        /// tasks wrote: the same rows in the same order, the replicas of a
        /// record sharing its payload, one arena per input partition. Also
        /// when a budget spilled blocks before the save read them.
        #[test]
        fn routing_checkpoints_restore_what_the_shuffle_wrote() {
            use crate::pipeline::{cells_within_eps, expansion, shuffle_keyed};
            use asj_engine::HashPartitioner;
            use asj_grid::{Grid, GridSpec};
            let data = dataset(GenKind::GaussianClusters, 3_000, 9);
            let spec = JoinSpec::new(PAPER_BBOX, 0.8);
            let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, 2.0));
            let partitioner = HashPartitioner::new(12);
            for budget in [None, Some(16 << 10)] {
                let dir = std::env::temp_dir().join(format!(
                    "asj-routing-{}-{}",
                    budget.is_some(),
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let run = || {
                    let recorder = Recorder::for_nodes(4);
                    let mut cluster = Cluster::new(ClusterConfig::with_threads(4, 2));
                    if let Some(budget) = budget {
                        cluster = cluster.with_memory_budget(budget);
                    }
                    let cluster = cluster
                        .with_recorder(recorder.clone())
                        .with_checkpoint_dir(&dir)
                        .expect("open checkpoint dir");
                    let input = generated(&data, 64).partitioned(&spec);
                    let assign = cells_within_eps(cluster.broadcast(grid.clone()));
                    let (keyed, _, shuffle, exec) = shuffle_keyed(
                        &cluster,
                        (input.rows, input.remake.as_ref()),
                        expansion(&assign),
                        &partitioner,
                        "shuffle",
                    )
                    .expect("shuffle runs");
                    let parts: Vec<Vec<(u64, Record)>> = keyed
                        .partitions()
                        .iter()
                        .map(|part| part.fetch().expect("blocks read").concat())
                        .collect();
                    (parts, shuffle, exec.spilled_bytes, recorder)
                };
                let (computed, shuffle, spilled, recorder) = run();
                assert_eq!(spilled > 0, budget.is_some(), "budget {budget:?}");
                let written = recorder.counter_value("shuffle", "checkpoint_bytes");
                assert_eq!(written, Some(16 * shuffle.records));
                assert!(shuffle.records > data.cardinality as u64, "replicas exist");
                let (restored, restored_shuffle, _, recorder) = run();
                assert_eq!(
                    recorder.counter_value("shuffle", "stages_recovered"),
                    Some(1)
                );
                assert_eq!(restored, computed);
                assert_eq!(restored_shuffle, shuffle);
                // Record `id`'s payload sits at `(id - start) · 64` in its
                // input partition's one arena, for every copy of the record.
                let mut start_of = std::collections::HashMap::new();
                for (_, rec) in restored.iter().flatten() {
                    let (p, i) = crate::routing::locate(data.cardinality, 16, rec.id as usize);
                    let at = rec.payload.as_ptr() as usize - 64 * i;
                    assert_eq!(*start_of.entry(p).or_insert(at), at, "record {}", rec.id);
                }
                std::fs::remove_dir_all(&dir).expect("cleanup");
            }
        }

        /// Whatever is wrong with a routing checkpoint, loading it is a miss
        /// that deletes the pair, and the stage recomputes to the same
        /// answer: the shuffle is not resumed, the others are.
        #[test]
        fn a_damaged_routing_checkpoint_is_a_self_healing_miss() {
            use asj_engine::CheckpointStore;
            use std::path::Path;
            const KEY: &str = "main-shuffle_R-0";
            /// Rewrites the manifest of `KEY` line by line.
            fn edit_manifest(dir: &Path, edit: impl Fn(&str) -> String) {
                let path = dir.join(format!("{KEY}.manifest"));
                let text = std::fs::read_to_string(&path).expect("read manifest");
                let lines: String = text.lines().map(|line| edit(line) + "\n").collect();
                std::fs::write(&path, lines).expect("rewrite manifest");
            }
            /// Rewrites the `recipe=n:payload:partitions` line with `f`.
            fn edit_recipe(dir: &Path, f: fn([u64; 3]) -> [u64; 3]) {
                edit_manifest(dir, |line| {
                    let Some(recipe) = line.strip_prefix("recipe=") else {
                        return line.to_string();
                    };
                    let fields: Vec<u64> =
                        recipe.split(':').map(|v| v.parse().expect("u64")).collect();
                    let [n, payload, parts] = f([fields[0], fields[1], fields[2]]);
                    format!("recipe={n}:{payload}:{parts}")
                });
            }
            let (r, s) = (
                dataset(GenKind::Uniform, 1_200, 7),
                dataset(GenKind::Parks, 900, 8),
            );
            let spec = JoinSpec::new(PAPER_BBOX, 0.8).with_partitions(10);
            let remake = generated(&r, 64)
                .partitioned(&spec)
                .remake
                .expect("generated");
            type Damage = (&'static str, fn(&Path, &Remake<Record>));
            const DAMAGE: [Damage; 7] = [
                ("flipped byte", |dir, _| {
                    let seg = dir.join(format!("{KEY}.seg"));
                    let mut bytes = std::fs::read(&seg).expect("read seg");
                    bytes[5] ^= 0x40;
                    std::fs::write(&seg, bytes).expect("rewrite seg");
                }),
                ("truncated chunk", |dir, _| {
                    let seg = std::fs::OpenOptions::new()
                        .write(true)
                        .open(dir.join(format!("{KEY}.seg")))
                        .expect("open seg");
                    let len = seg.metadata().expect("stat seg").len();
                    seg.set_len(len - 9).expect("truncate seg");
                }),
                ("`records` disagreeing with the chunk's length", |dir, _| {
                    edit_manifest(dir, |line| match line.strip_prefix("chunk=0:") {
                        Some(rest) => {
                            let (records, rest) = rest.split_once(':').expect("records");
                            let records: u64 = records.parse().expect("u64");
                            format!("chunk=0:{}:{rest}", records + 1)
                        }
                        None => line.to_string(),
                    })
                }),
                ("an id ≥ n, checksummed", |dir, remake| {
                    // Saved again through the codec, so the chunk verifies.
                    let store = CheckpointStore::open(dir).expect("open");
                    let codec = remake.codec();
                    let (mut parts, stats) =
                        store.load(KEY, 10, 1, &codec).expect("load").expect("hit");
                    let part = parts.iter().position(|p| !p.is_empty()).expect("rows");
                    let mut rows = parts[part].fetch().expect("rows").concat();
                    rows[0].1.id = remake.n as u64;
                    parts[part] = asj_engine::ShuffledPartition::of_rows(rows);
                    store.save(KEY, &parts, &stats, 1, &codec).expect("save");
                }),
                ("another recipe's n", |dir, _| {
                    edit_recipe(dir, |[n, payload, parts]| [n + 1, payload, parts])
                }),
                ("another recipe's payload bytes", |dir, _| {
                    edit_recipe(dir, |[n, _, parts]| [n, 0, parts])
                }),
                ("another recipe's partition count", |dir, _| {
                    edit_recipe(dir, |[n, payload, parts]| [n, payload, parts * 2])
                }),
            ];
            let run = |dir: &Path| {
                let recorder = Recorder::for_nodes(4);
                let cluster = Cluster::new(ClusterConfig::with_threads(4, 2))
                    .with_recorder(recorder.clone())
                    .with_checkpoint_dir(dir)
                    .expect("open checkpoint dir");
                let out = Algorithm::Lpib
                    .try_run(&cluster, &spec, generated(&r, 64), generated(&s, 64))
                    .expect("join runs");
                let counts = (out.result_count, out.candidates, out.replicated_total());
                let resumed = ["shuffle.R", "shuffle.S", "cogroup_join"]
                    .map(|stage| recorder.counter_value(stage, "stages_recovered"));
                ((out.pairs, counts, out.metrics.shuffle), resumed)
            };
            for (what, damage) in DAMAGE {
                let dir =
                    std::env::temp_dir().join(format!("asj-routing-damage-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let (answer, resumed) = run(&dir);
                assert_eq!(resumed, [None; 3], "{what}: a fresh directory");
                damage(&dir, &remake);
                // The load refuses it and removes the pair...
                let copy = dir.with_extension("copy");
                let _ = std::fs::remove_dir_all(&copy);
                std::fs::create_dir_all(&copy).expect("copy dir");
                for entry in std::fs::read_dir(&dir).expect("list") {
                    let path = entry.expect("entry").path();
                    std::fs::copy(&path, copy.join(path.file_name().expect("name"))).expect("copy");
                }
                let store = CheckpointStore::open(&copy).expect("open copy");
                let loaded = store.load(KEY, 10, 2, &remake.codec()).expect("load");
                assert!(loaded.is_none(), "{what}: must be a miss");
                for ext in ["manifest", "seg"] {
                    assert!(
                        !copy.join(format!("{KEY}.{ext}")).exists(),
                        "{what}: .{ext} kept"
                    );
                }
                std::fs::remove_dir_all(&copy).expect("cleanup copy");
                // ...and the join recomputes that stage to the same answer.
                let (again, resumed) = run(&dir);
                assert!(again == answer, "{what}: the answer moved");
                assert_eq!(resumed, [None, Some(1), Some(1)], "{what}");
                std::fs::remove_dir_all(&dir).expect("cleanup");
            }
        }

        /// A task that fails, and a node lost while the stages run, make the
        /// sample and the shuffles rebuild their partitions from the recipe —
        /// which the `recipe_rows` counters show — and the answer stands. The
        /// sample stage makes no payload byte; the map tasks make them all.
        #[test]
        fn failed_tasks_rebuild_generated_partitions() {
            let (r, s) = (
                dataset(GenKind::Uniform, 2_000, 5),
                dataset(GenKind::GaussianClusters, 1_600, 6),
            );
            let spec = JoinSpec::new(PAPER_BBOX, 0.8).with_partitions(8);
            let run = |plan: FaultPlan| {
                let recorder = Recorder::for_nodes(4);
                let cluster = Cluster::new(ClusterConfig::with_threads(4, 2))
                    .with_recorder(recorder.clone())
                    .with_fault_policy(plan, RetryPolicy::default().with_max_attempts(4));
                let (r, s) = (generated(&r, 64), generated(&s, 64));
                let out = Algorithm::Lpib
                    .try_run(&cluster, &spec, r, s)
                    .expect("join runs");
                let made = |stage: &str, name: &str| recorder.counter_value(stage, name);
                let counts = [
                    ("sample", "recipe_rows"),
                    ("sample", "recipe_bytes"),
                    ("shuffle.R", "recipe_rows"),
                    ("shuffle.S", "recipe_rows"),
                    ("shuffle.R", "recipe_bytes"),
                ]
                .map(|(stage, name)| made(stage, name));
                (out.pairs, counts, out.metrics.construction.retries)
            };
            let (pairs, clean, _) = run(FaultPlan::none());
            let (n_r, n_s) = (r.cardinality as u64, s.cardinality as u64);
            let sampled = Some(n_r + n_s);
            assert_eq!(
                clean,
                [sampled, Some(0), Some(n_r), Some(n_s), Some(64 * n_r)]
            );
            // Both sample stages fail task 0's first attempt after it made
            // its partition, shuffle.R task 1's likewise, and node 3 is lost
            // once it has started an attempt: its tasks then fail before they
            // run, and every retry makes its partition again. R's 16 input
            // partitions hold 125 rows each, S's 100.
            let plan = FaultPlan::none()
                .with_fail_point("sample", 0, 1)
                .with_fail_point("shuffle.R", 1, 1)
                .with_lost_node(3, 1);
            let (faulted, made, retries) = run(plan);
            assert_eq!(faulted, pairs, "recovery must not change the answer");
            assert!(retries > 3, "{retries} retries: node 3 was lost");
            let [sample_rows, sample_bytes, r_rows, s_rows, r_bytes] =
                made.map(Option::unwrap_or_default);
            assert_eq!(sample_rows, n_r + n_s + 125 + 100);
            assert_eq!(sample_bytes, 0, "the sample makes no payload byte");
            assert_eq!((r_rows, s_rows), (n_r + 125, n_s));
            assert_eq!(r_bytes, 64 * r_rows);
        }
    }
}
