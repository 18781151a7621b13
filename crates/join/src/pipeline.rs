use crate::sink::{Emitter, SinkOutput};
use crate::{JoinError, JoinInput, JoinOutput, JoinSpec, PairSink, Pairs, Record, RecordPayload};
use asj_core::{AgreementPolicy, KernelCostModel, KernelKind};
use asj_engine::{
    ensure_remaining, Broadcast, Cluster, CommitHook, Dataset, ExecStats, JobMetrics, Partitioner,
    ShuffleStats, ShuffledDataset, StageResult, Wire, WireError,
};
use asj_geom::Point;
use asj_grid::{CellCoord, Grid};
use asj_index::{kernels, PointBatch, PointsView};
use bytes::{Buf, BufMut};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::time::Duration;

/// Every join algorithm of the paper's evaluation, dispatchable by name —
/// the benchmark harness iterates over these to produce each figure's
/// series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Adaptive replication, LPiB instantiation.
    Lpib,
    /// Adaptive replication, DIFF instantiation.
    Diff,
    /// PBSM universally replicating R.
    UniR,
    /// PBSM universally replicating S.
    UniS,
    /// ε×ε grid replicating the smaller input.
    EpsGrid,
    /// QuadTree-leaf partitioning replicating the smaller input (Sedona-like).
    Sedona,
    /// LPiB with an unmarked (duplicate-producing) graph and the paper's
    /// distributed-dedup operator bolted on — Table 6's comparison arm.
    /// Not part of [`Algorithm::ALL`] (the figures list six algorithms);
    /// its distinguishing property for the serve stack is a *post-join*
    /// stage, so a crash can land between a completed join and job
    /// completion — the window join-phase checkpoints exist for.
    LpibDedup,
}

impl Algorithm {
    /// The six algorithms in the order the paper's figures list them.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Lpib,
        Algorithm::Diff,
        Algorithm::UniR,
        Algorithm::UniS,
        Algorithm::EpsGrid,
        Algorithm::Sedona,
    ];

    /// Display name, as in the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Lpib => "LPiB",
            Algorithm::Diff => "DIFF",
            Algorithm::UniR => "UNI(R)",
            Algorithm::UniS => "UNI(S)",
            Algorithm::EpsGrid => "eps-grid",
            Algorithm::Sedona => "Sedona",
            Algorithm::LpibDedup => "LPiB+dedup",
        }
    }

    /// Command-line (`--algo`) and queue-file (`algo=`) spelling.
    pub fn token(self) -> &'static str {
        match self {
            Algorithm::Lpib => "lpib",
            Algorithm::Diff => "diff",
            Algorithm::UniR => "uni-r",
            Algorithm::UniS => "uni-s",
            Algorithm::EpsGrid => "eps-grid",
            Algorithm::Sedona => "sedona",
            Algorithm::LpibDedup => "lpib-dedup",
        }
    }

    /// The inverse of [`Algorithm::token`], over all seven algorithms.
    pub fn from_token(token: &str) -> Result<Algorithm, String> {
        Algorithm::ALL
            .into_iter()
            .chain([Algorithm::LpibDedup])
            .find(|algo| algo.token() == token)
            .ok_or_else(|| format!("unknown algorithm '{token}'"))
    }

    /// Runs this algorithm on the given inputs.
    pub fn try_run<P: RecordPayload>(
        self,
        cluster: &Cluster,
        spec: &JoinSpec,
        r: impl Into<JoinInput<Record<P>>>,
        s: impl Into<JoinInput<Record<P>>>,
    ) -> Result<JoinOutput, JoinError> {
        let (r, s) = (r.into(), s.into());
        match self {
            Algorithm::Lpib => crate::adaptive_join(cluster, spec, AgreementPolicy::Lpib, r, s),
            Algorithm::Diff => crate::adaptive_join(cluster, spec, AgreementPolicy::Diff, r, s),
            Algorithm::UniR => crate::pbsm_join(cluster, spec, crate::ReplicateSide::R, r, s),
            Algorithm::UniS => crate::pbsm_join(cluster, spec, crate::ReplicateSide::S, r, s),
            Algorithm::EpsGrid => crate::eps_grid_join(cluster, spec, r, s),
            Algorithm::Sedona => crate::sedona_like_join(cluster, spec, r, s),
            Algorithm::LpibDedup => {
                crate::adaptive_join_dedup(cluster, spec, AgreementPolicy::Lpib, r, s)
            }
        }
    }

    /// Infallible [`Algorithm::try_run`].
    ///
    /// # Panics
    /// Panics if the join fails.
    #[deprecated(note = "frozen for benchmark/src/probe.rs; use try_run")]
    #[allow(clippy::panic)]
    pub fn run(
        self,
        cluster: &Cluster,
        spec: &JoinSpec,
        r: Vec<Record>,
        s: Vec<Record>,
    ) -> JoinOutput {
        self.try_run(cluster, spec, r, s)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A spatial-mapping function (the body of Spark's `flatMapToPair`): pushes
/// the keys of every cell a record is assigned to onto the first vector, the
/// record's own cell first. The second vector is coordinate scratch space the
/// mapping reuses across records.
pub(crate) type Assign<'a, T = Record> = dyn Fn(&T, &mut Vec<u64>, &mut Vec<CellCoord>) + Sync + 'a;

/// `assign` as a fused shuffle's expansion: each record keyed by every cell
/// it is assigned to, the replicas cloned and the original moved into its
/// own cell, last.
pub(crate) fn expansion<'a, T: Clone>(
    assign: &'a Assign<'a, T>,
) -> impl Fn(Vec<T>) -> Vec<(u64, T)> + Sync + 'a {
    move |part| {
        let mut rows = Vec::with_capacity(part.len() + part.len() / 8);
        let mut cells: Vec<u64> = Vec::with_capacity(4);
        let mut scratch: Vec<CellCoord> = Vec::with_capacity(4);
        for rec in part {
            cells.clear();
            assign(&rec, &mut cells, &mut scratch);
            debug_assert!(!cells.is_empty(), "every record must map to >= 1 cell");
            for &c in &cells[1..] {
                rows.push((c, rec.clone()));
            }
            rows.push((cells[0], rec));
        }
        rows
    }
}

/// Universal replication: the native cell plus every cell within ε.
pub(crate) fn cells_within_eps<P: RecordPayload>(
    grid: Broadcast<Grid>,
) -> Box<Assign<'static, Record<P>>> {
    Box::new(move |rec, cells, scratch| {
        scratch.clear();
        scratch.push(grid.cell_of(rec.point));
        grid.push_cells_within_eps(rec.point, scratch);
        cells.extend(scratch.iter().map(|&c| grid.cell_index(c) as u64));
    })
}

/// Single assignment: the native cell only.
pub(crate) fn native_cell<P: RecordPayload>(
    grid: Broadcast<Grid>,
) -> Box<Assign<'static, Record<P>>> {
    Box::new(move |rec, cells, _| cells.push(grid.cell_index(grid.cell_of(rec.point)) as u64))
}

/// Reference-point duplicate avoidance (Dittrich & Seeger): of the cells a
/// pair is co-located in, only the one holding the pair's midpoint reports
/// it. The midpoint is within `d(a,b)/2 ≤ ε/2` of both endpoints, so both
/// were replicated into that cell, and exactly one cell contains it.
pub(crate) fn midpoint_in_cell(grid: &Grid, cell: u64, a: Point, b: Point) -> bool {
    let mid = Point::new((a.x + b.x) * 0.5, (a.y + b.y) * 0.5);
    grid.cell_index(grid.cell_of(mid)) as u64 == cell
}

/// Lane `i` of a view as a point.
pub(crate) fn point_at(v: PointsView<'_>, i: usize) -> Point {
    Point::new(v.xs[i], v.ys[i])
}

/// Decides whether the ε-hit `(a, b)` found in `cell` is reported there.
pub(crate) type PairFilter<'a> = dyn Fn(u64, Point, Point) -> bool + Sync + 'a;

/// A shuffled partition as its reduce task fetched it: the rows of each
/// block, in source order.
pub(crate) type Blocks<'a, T> = [Cow<'a, [(u64, T)]>];

/// A plan's partition-local join (Algorithm 5, line 9): one pair of
/// co-located shuffled partitions in, their result pairs `(r.id, s.id)` —
/// as the spec's sink takes them — and kernel tally out.
pub(crate) type LocalJoin<'a, T = Record> =
    dyn Fn(&Blocks<'_, T>, &Blocks<'_, T>) -> SinkOutput<KernelTally> + Sync + 'a;

/// What differs between the grid algorithms — and the extent join, whose
/// records are shapes: everything else is [`run_plan`].
pub(crate) struct JoinPlan<'a, T: Clone = Record> {
    /// Display name, as in the paper's figure legends.
    pub name: String,
    /// Where the result pairs go: the spec's sink.
    pub sink: &'a PairSink,
    pub assign_r: &'a Assign<'a, T>,
    pub assign_s: &'a Assign<'a, T>,
    /// Cell key → join partition.
    pub partitioner: &'a dyn Partitioner<u64>,
    pub local_join: &'a LocalJoin<'a, T>,
    /// Size of the structure the assigners consult on every node.
    pub broadcast_bytes: u64,
    /// Driver-side construction time of that structure.
    pub driver: Duration,
    /// Stats of the sampling stages construction already ran.
    pub sampling: ExecStats,
}

/// Algorithm 5 from the mapping on: spatial mapping of both inputs fused into
/// their keyed shuffles, partition-local join with immediate refinement, and
/// the paper's metrics assembled into a [`JoinOutput`].
pub(crate) fn run_plan<T>(
    cluster: &Cluster,
    rdd_r: Dataset<T>,
    rdd_s: Dataset<T>,
    plan: JoinPlan<'_, T>,
) -> Result<JoinOutput, JoinError>
where
    T: Wire + Send + Sync + Clone,
{
    let mut construction = plan.sampling;
    let window = plan.sink.window();
    let out = join_stage(
        cluster,
        (rdd_r, expansion(plan.assign_r)),
        (rdd_s, expansion(plan.assign_s)),
        plan.partitioner,
        plan.local_join,
        &|idx, part| window.commit(idx, part),
    )?;
    construction.accumulate(&out.shuffle_exec);
    let mut joined = JoinOutput {
        algorithm: plan.name,
        pairs: Pairs::default(),
        digest: Default::default(),
        result_count: 0,
        candidates: 0,
        replicated: out.replicated,
        metrics: JobMetrics {
            shuffle: out.shuffle,
            construction,
            join: out.join_exec,
            driver: plan.driver,
            broadcast_bytes: plan.broadcast_bytes,
        },
    };
    let mut tally = KernelTally::default();
    for t in plan.sink.gather(out.parts, &mut joined) {
        tally.merge(&t);
    }
    tally.publish(cluster, "local_join");
    joined.result_count = tally.results;
    joined.candidates = tally.candidates;
    Ok(joined)
}

/// One input's shuffle, keyed by `expand` inside its map tasks (Algorithm
/// 5's `flatMapToPair → join`), with its replicas — records shuffled beyond
/// one per input record, read from the committed or checkpoint-restored
/// stats — published under `stage`.
pub(crate) fn shuffle_keyed<T, V>(
    cluster: &Cluster,
    input: Dataset<T>,
    expand: impl Fn(Vec<T>) -> Vec<(u64, V)> + Sync,
    partitioner: &dyn Partitioner<u64>,
    stage: &str,
) -> Result<(ShuffledDataset<u64, V>, u64, ShuffleStats, ExecStats), JoinError>
where
    T: Wire + Send + Sync + Clone,
    V: Wire + Send + Sync + Clone,
{
    let records = input.len() as u64;
    let (keyed, shuffle, exec) = input.shuffle_stage_by(cluster, partitioner, stage, expand)?;
    let replicas = shuffle.records.saturating_sub(records);
    cluster.recorder().counter_add(stage, "replicas", replicas);
    Ok((keyed, replicas, shuffle, exec))
}

/// The point plans' partition body (Algorithm 5, line 9). With a `keep`
/// filter only the ε-hits it accepts are results — handed to the sink,
/// counted and tallied.
///
/// Each side becomes a columnar `PointBatch` once — the permutation sort
/// groups records by cell in ascending-x order and gathers `x`/`y`/`id` into
/// flat lanes — then the ascending key lists merge and the SoA kernel runs
/// per common cell, streaming contiguous memory instead of re-extracting
/// positions per group.
pub(crate) fn join_points<'a, P: RecordPayload>(
    spec: &JoinSpec,
    keep: Option<&'a PairFilter<'a>>,
) -> Box<LocalJoin<'a, Record<P>>> {
    let (eps, kernel, sink) = (spec.eps, spec.kernel, spec.sink.clone());
    let model = KernelCostModel::default();
    Box::new(move |rs, ss| {
        let pos = |r: &Record<P>| r.point;
        let rid = |r: &Record<P>| r.id;
        let br = PointBatch::from_blocks(rs, pos, rid);
        let bs = PointBatch::from_blocks(ss, pos, rid);
        let mut out = Emitter::new(&sink);
        let mut acc = KernelTally {
            batches: 2,
            batch_points: (br.num_points() + bs.num_points()) as u64,
            ..KernelTally::default()
        };
        let (mut gi, mut gj) = (0usize, 0usize);
        while gi < br.num_groups() && gj < bs.num_groups() {
            match br.keys()[gi].cmp(&bs.keys()[gj]) {
                Ordering::Less => gi += 1,
                Ordering::Greater => gj += 1,
                Ordering::Equal => {
                    let (va, vb) = (br.group(gi), bs.group(gj));
                    let (ids_a, ids_b) = (br.group_ids(gi), bs.group_ids(gj));
                    // Counting is decided out here, not in the emitter: with
                    // a no-op callback the kernel's emission walk compiles
                    // away.
                    let outcome = match keep {
                        None if out.keeps() => {
                            kernels::local_join_view(kernel, &model, eps, va, vb, |i, j| {
                                out.emit(ids_a[i], ids_b[j])
                            })
                        }
                        None => kernels::local_join_view(kernel, &model, eps, va, vb, |_, _| {}),
                        Some(keep) => {
                            let cell = br.keys()[gi];
                            let mut kept = 0u64;
                            let mut outcome =
                                kernels::local_join_view(kernel, &model, eps, va, vb, |i, j| {
                                    if keep(cell, point_at(va, i), point_at(vb, j)) {
                                        kept += 1;
                                        out.emit(ids_a[i], ids_b[j]);
                                    }
                                });
                            outcome.stats.results = kept;
                            outcome
                        }
                    };
                    acc.record(outcome, va.len() as u64 * vb.len() as u64);
                    gi += 1;
                    gj += 1;
                }
            }
        }
        let (pairs, part) = out.finish();
        (pairs, (acc, part))
    })
}

/// Shuffle + partition-local join: the one co-group of every two-input
/// operator. Each side comes unshuffled with its expansion, and is shuffled
/// by `partitioner` ([`shuffle_keyed`] as `shuffle.R`, `shuffle.S`); then
/// each `cogroup_join` task fetches its pair of co-located partitions — the
/// shuffle's blocks, read in place, spilled ones from disk — and `body`
/// joins them. Returns every partition's `(records, accumulator)` in
/// partition order, each side's replicas, the combined shuffle stats, and
/// the exec stats of the shuffle and join stages. `commit` sees each
/// partition's output when its attempt commits (`run_stage_checkpointed`).
///
/// Per-partition accumulators are committed with the task output: shared
/// atomics would be double-counted by retried or speculatively re-executed
/// tasks.
pub(crate) fn join_stage<TA, TB, A, B, O, Acc>(
    cluster: &Cluster,
    (input_r, expand_r): (Dataset<TA>, impl Fn(Vec<TA>) -> Vec<(u64, A)> + Sync),
    (input_s, expand_s): (Dataset<TB>, impl Fn(Vec<TB>) -> Vec<(u64, B)> + Sync),
    partitioner: &dyn Partitioner<u64>,
    body: impl Fn(&Blocks<'_, A>, &Blocks<'_, B>) -> (Vec<O>, Acc) + Sync,
    commit: &CommitHook<(Vec<O>, Acc)>,
) -> Result<JoinStageOutput<O, Acc>, JoinError>
where
    TA: Wire + Send + Sync + Clone,
    TB: Wire + Send + Sync + Clone,
    A: Wire + Send + Sync + Clone,
    B: Wire + Send + Sync + Clone,
    O: Wire + Send + Sync,
    Acc: Wire + Send + Sync,
{
    let recorder = cluster.recorder().clone();
    let (keyed_r, keyed_s, replicated, shuffle, shuffle_exec) =
        recorder.phase_attrs("shuffle", |attrs| {
            let (keyed_r, rep_r, mut shuffle, mut shuffle_exec) =
                shuffle_keyed(cluster, input_r, expand_r, partitioner, "shuffle.R")?;
            let (keyed_s, rep_s, sh_s, ex_s) =
                shuffle_keyed(cluster, input_s, expand_s, partitioner, "shuffle.S")?;
            shuffle.merge(&sh_s);
            shuffle_exec.accumulate(&ex_s);
            *attrs = attrs.records(shuffle.records).bytes(shuffle.total_bytes());
            Ok::<_, JoinError>((keyed_r, keyed_s, [rep_r, rep_s], shuffle, shuffle_exec))
        })?;
    let (parts, join_exec) = recorder.phase("local_join", || {
        cogroup_join(cluster, keyed_r, keyed_s, body, commit)
    })?;
    Ok(JoinStageOutput {
        parts,
        replicated,
        shuffle,
        shuffle_exec,
        join_exec,
    })
}

/// The `cogroup_join` stage of [`join_stage`]: each task fetches its pair of
/// co-located shuffled partitions, and `body` joins them.
///
/// `run_stage_checkpointed`: with a checkpoint store attached the
/// per-partition outputs are persisted after the stage and replayed on
/// recovery, so a recovered server skips the join phase — the ε-grid's
/// memory-pressure peak — entirely, not just the shuffles.
///
/// The tasks only read their partitions' blocks, so a retried or speculative
/// attempt copies two references and reads the blocks again, and an
/// unreadable spill chunk fails the attempt with a retriable error. This
/// thread drops both sides once the stage is over, failed or not: every
/// bucket in one sweep (a payload record's drop is a refcount decrement),
/// every spill segment's file with its last block. A task's records live as
/// long as the job's output, so they keep no spare capacity.
fn cogroup_join<A, B, O, Acc>(
    cluster: &Cluster,
    keyed_r: ShuffledDataset<u64, A>,
    keyed_s: ShuffledDataset<u64, B>,
    body: impl Fn(&Blocks<'_, A>, &Blocks<'_, B>) -> (Vec<O>, Acc) + Sync,
    commit: &CommitHook<(Vec<O>, Acc)>,
) -> StageResult<(Vec<O>, Acc)>
where
    A: Wire + Send + Sync + Clone,
    B: Wire + Send + Sync + Clone,
    O: Wire + Send + Sync,
    Acc: Wire + Send + Sync,
{
    let tasks: Vec<_> = keyed_r
        .partitions()
        .iter()
        .zip(keyed_s.partitions())
        .collect();
    cluster.run_stage_checkpointed(
        "cogroup_join",
        tasks,
        |_, (a, b)| {
            let (mut records, acc) = body(&a.fetch()?, &b.fetch()?);
            records.shrink_to_fit();
            Ok((records, acc))
        },
        commit,
    )
}

/// The record-at-a-time co-group: for every key present on both sides of a
/// pair of co-located partitions, each given as its blocks, in ascending key
/// order, `f` receives the key and its two value groups, each in partition
/// order. The partitions are only borrowed.
pub(crate) fn for_each_cogroup<A, B>(
    a: &[impl AsRef<[(u64, A)]>],
    b: &[impl AsRef<[(u64, B)]>],
    mut f: impl FnMut(u64, &[&A], &[&B]),
) {
    let ((ka, va), (kb, vb)) = (by_key(a), by_key(b));
    let (mut i, mut j) = (0usize, 0usize);
    while i < ka.len() && j < kb.len() {
        match ka[i].cmp(&kb[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let key = ka[i];
                let end_i = i + ka[i..].partition_point(|&k| k == key);
                let end_j = j + kb[j..].partition_point(|&k| k == key);
                f(key, &va[i..end_i], &vb[j..end_j]);
                (i, j) = (end_i, end_j);
            }
        }
    }
}

/// A partition's keys in ascending order, and its values in the same order
/// (records of one key keep their partition order).
fn by_key<V>(blocks: &[impl AsRef<[(u64, V)]>]) -> (Vec<u64>, Vec<&V>) {
    let mut order: Vec<&(u64, V)> = blocks.iter().flat_map(AsRef::as_ref).collect();
    order.sort_by_key(|&&(k, _)| k);
    order.into_iter().map(|(k, v)| (*k, v)).unzip()
}

/// Per-partition fold of what the adaptive kernel layer did: counts, the
/// resolved-kernel picks, and the worst-case `Σ r·s` the nested loop would
/// have evaluated (so pruning is observable).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KernelTally {
    pub candidates: u64,
    pub results: u64,
    /// `Σ |R_i|·|S_i|` over the groups — the nested-loop candidate count.
    pub worst_case: u64,
    pub picks_nl: u64,
    pub picks_ps: u64,
    pub picks_bucket: u64,
    /// Columnar batches built at shuffle-receive time.
    pub batches: u64,
    /// Points gathered into those batches' SoA lanes.
    pub batch_points: u64,
}

impl KernelTally {
    pub fn record(&mut self, outcome: kernels::LocalJoinOutcome, worst_case: u64) {
        self.candidates += outcome.stats.candidates;
        self.results += outcome.stats.results;
        self.worst_case += worst_case;
        match outcome.kind {
            KernelKind::NestedLoop => self.picks_nl += 1,
            KernelKind::PlaneSweep => self.picks_ps += 1,
            KernelKind::GridBucket => self.picks_bucket += 1,
        }
    }

    pub fn merge(&mut self, other: &KernelTally) {
        self.candidates += other.candidates;
        self.results += other.results;
        self.worst_case += other.worst_case;
        self.picks_nl += other.picks_nl;
        self.picks_ps += other.picks_ps;
        self.picks_bucket += other.picks_bucket;
        self.batches += other.batches;
        self.batch_points += other.batch_points;
    }

    /// The tally's eight counters in field order — one place to keep the
    /// wire layout and the struct in sync.
    fn fields(&self) -> [u64; 8] {
        [
            self.candidates,
            self.results,
            self.worst_case,
            self.picks_nl,
            self.picks_ps,
            self.picks_bucket,
            self.batches,
            self.batch_points,
        ]
    }

    /// Publishes the tally as observability counters under `phase`.
    pub fn publish(&self, cluster: &Cluster, phase: &str) {
        let recorder = cluster.recorder();
        recorder.counter_add(phase, "candidates", self.candidates);
        recorder.counter_add(phase, "results", self.results);
        recorder.counter_add(phase, "kernel_auto_nl", self.picks_nl);
        recorder.counter_add(phase, "kernel_auto_ps", self.picks_ps);
        recorder.counter_add(phase, "kernel_auto_bucket", self.picks_bucket);
        recorder.counter_add(phase, "batches_built", self.batches);
        recorder.counter_add(phase, "batch_points", self.batch_points);
        recorder.counter_add(
            phase,
            "candidates_pruned",
            self.worst_case.saturating_sub(self.candidates),
        );
    }
}

/// Join-phase checkpointing serializes the per-partition accumulator next
/// to the emitted pairs: eight fixed-width little-endian `u64`s in field
/// order.
impl Wire for KernelTally {
    fn encoded_size(&self) -> usize {
        8 * std::mem::size_of::<u64>()
    }

    fn encode(&self, buf: &mut impl BufMut) {
        for field in self.fields() {
            field.encode(buf);
        }
    }

    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        ensure_remaining(buf, 8 * std::mem::size_of::<u64>())?;
        Ok(KernelTally {
            candidates: u64::decode(buf),
            results: u64::decode(buf),
            worst_case: u64::decode(buf),
            picks_nl: u64::decode(buf),
            picks_ps: u64::decode(buf),
            picks_bucket: u64::decode(buf),
            batches: u64::decode(buf),
            batch_points: u64::decode(buf),
        })
    }
}

pub(crate) struct JoinStageOutput<O, Acc> {
    /// Every partition's `(records, accumulator)`, in partition order.
    pub parts: Vec<(Vec<O>, Acc)>,
    /// Records each side shuffled beyond one per input record.
    pub replicated: [u64; 2],
    pub shuffle: ShuffleStats,
    pub shuffle_exec: ExecStats,
    pub join_exec: ExecStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_engine::{ClusterConfig, HashPartitioner};
    use asj_geom::Rect;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_threads(2, 2))
    }

    #[test]
    fn shuffle_keyed_counts_replicas() {
        let recorder = asj_obs::Recorder::for_nodes(2);
        let c = cluster().with_recorder(recorder.clone());
        let recs = crate::to_records(
            &[
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(2.0, 2.0),
            ],
            0,
        );
        // Every record goes to its id cell, even ids get one replica.
        let assign: &Assign = &|rec, cells, _| {
            let x = rec.point.x as u64;
            cells.push(x);
            if x.is_multiple_of(2) {
                cells.push(100 + x);
            }
        };
        let ds = Dataset::from_vec(recs, 2);
        let hash = HashPartitioner::new(4);
        let (keyed, replicas, shuffle, _) =
            shuffle_keyed(&c, ds, expansion(assign), &hash, "shuffle").expect("join runs");
        assert_eq!(replicas, 2);
        assert_eq!((keyed.len(), shuffle.records), (5, 5));
        let keyed = keyed.into_rows().expect("in-memory blocks");
        assert_eq!(recorder.counter_value("shuffle", "replicas"), Some(2));
        assert!(recorder.counter_value("shuffle", "assign_ns").is_some());
        // Each record lands in its own cell and in its replica's.
        let mut rows: Vec<(u64, u64)> = keyed
            .into_partitions()
            .into_iter()
            .flatten()
            .map(|(cell, rec)| (rec.id, cell))
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![(0, 0), (0, 100), (1, 1), (2, 2), (2, 102)]);
    }

    #[test]
    fn join_stage_finds_pairs_in_shared_cells() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
        let r = crate::to_records(&[Point::new(1.0, 1.0), Point::new(8.0, 8.0)], 0);
        let s = crate::to_records(&[Point::new(1.5, 1.0), Point::new(4.0, 4.0)], 0);
        // Everything keyed to one cell: the kernel sees all candidates.
        let one_cell: &Assign = &|_, cells, _| cells.push(0);
        let side = |recs: &[Record]| {
            let input = Dataset::from_vec(recs.to_vec(), 1);
            (input, expansion(one_cell))
        };
        let hash = HashPartitioner::new(4);
        // Pairs, results and candidates over all partitions, plus records
        // shuffled.
        let run = |spec: &JoinSpec| {
            let body = join_points(spec, None);
            let out =
                join_stage(&c, side(&r), side(&s), &hash, body, &|_, _| {}).expect("join runs");
            let (pairs, tallies): (Vec<_>, Vec<_>) = out
                .parts
                .into_iter()
                .map(|(pairs, (tally, _))| (pairs, tally))
                .unzip();
            let sum = |f: fn(&KernelTally) -> u64| tallies.iter().map(f).sum::<u64>();
            let pairs: Vec<(u64, u64)> = pairs.into_iter().flatten().collect();
            let counts = (sum(|t| t.results), sum(|t| t.candidates));
            (pairs, counts, out.shuffle.records)
        };
        // Default Auto resolves the tiny 2x2 group to a nested loop; only
        // (1,1)-(1.5,1) is within eps.
        assert_eq!(run(&spec), (vec![(0, 0)], (1, 4), 4));
        // An explicit plane-sweep request is honored: the epsilon window
        // prunes everything but the matching pair.
        let spec_ps = spec.with_kernel(crate::LocalKernel::PlaneSweep);
        let (pairs, (results, candidates), _) = run(&spec_ps);
        assert_eq!((pairs, results), (vec![(0, 0)], 1));
        assert_eq!(candidates, 1, "sweep window must prune");
    }

    /// A spill segment cut short after the shuffle wrote it, before the join
    /// read it: every attempt of the reading task fails with a typed spill
    /// error, and the join returns a `JobError` instead of unwinding.
    #[test]
    fn a_truncated_spill_segment_fails_the_join_with_a_typed_error() {
        use asj_engine::{Block, RetryPolicy, TaskError};
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
        let pts: Vec<Point> = (0..40).map(|i| Point::new(i as f64 / 4.0, 5.0)).collect();
        let native: &Assign = &|rec, cells, _| cells.push(rec.point.x as u64);
        let hash = HashPartitioner::new(4);
        for retry in [None, Some(RetryPolicy::default().with_max_attempts(3))] {
            // A one-byte budget spills every target.
            let mut c = Cluster::new(ClusterConfig::with_threads(2, 1)).with_memory_budget(1);
            if let Some(policy) = retry {
                c = c.with_retry_policy(policy);
            }
            let shuffle = |stage| {
                let input = Dataset::from_vec(crate::to_records(&pts, 8), 2);
                let (keyed, ..) = shuffle_keyed(&c, input, expansion(native), &hash, stage)
                    .expect("shuffle runs");
                keyed
            };
            let (keyed_r, keyed_s) = (shuffle("shuffle.R"), shuffle("shuffle.S"));
            let first = keyed_r
                .partitions()
                .iter()
                .flat_map(|part| part.blocks())
                .next();
            let Some(Block::Spilled { segment, .. }) = first else {
                panic!("a one-byte budget keeps no block in memory");
            };
            let file = std::fs::File::options()
                .write(true)
                .open(segment.path())
                .expect("open");
            file.set_len(segment.total_bytes() / 2).expect("truncate");
            let body = join_points(&spec, None);
            let err = cogroup_join(&c, keyed_r, keyed_s, body, &|_, _| {})
                .expect_err("a short read fails");
            assert_eq!(err.stage, "cogroup_join");
            assert_eq!(err.attempts, retry.map_or(1, |p| p.max_attempts));
            assert!(matches!(err.error, TaskError::Spill(_)), "{err}");
        }
    }

    /// All (key, a, b) rows of `for_each_cogroup` over one partition pair.
    fn cogroup_rows(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64, u64)> {
        let mut rows = Vec::new();
        for_each_cogroup(&[a], &[b], |k, va, vb| {
            for &&x in va {
                rows.extend(vb.iter().map(|&&y| (k, x, y)));
            }
        });
        rows
    }

    #[test]
    fn cogroup_join_pairs_matching_keys() {
        let a = [(3u64, 30u64), (2, 20), (1, 10), (2, 21)];
        let b = [(4u64, 400u64), (3, 300), (2, 200), (3, 301)];
        // Keys ascend; each group keeps its partition order.
        assert_eq!(
            cogroup_rows(&a, &b),
            vec![(2, 20, 200), (2, 21, 200), (3, 30, 300), (3, 30, 301)]
        );
    }

    #[test]
    fn cogroup_join_empty_sides() {
        assert!(cogroup_rows(&[], &[(2, 2)]).is_empty());
        assert!(cogroup_rows(&[(1, 1)], &[]).is_empty());
        assert!(cogroup_rows(&[(1, 1)], &[(2, 2)]).is_empty());
    }

    #[test]
    fn kernel_tally_round_trips_over_the_wire() {
        let tally = KernelTally {
            candidates: 101,
            results: 7,
            worst_case: 10_000,
            picks_nl: 1,
            picks_ps: 2,
            picks_bucket: 3,
            batches: 4,
            batch_points: 555,
        };
        let mut buf = Vec::new();
        tally.encode(&mut buf);
        assert_eq!(buf.len(), tally.encoded_size());
        let got = KernelTally::try_decode(&mut buf.as_slice()).expect("decode");
        assert_eq!(got.fields(), tally.fields());
        assert!(
            KernelTally::try_decode(&mut &buf[..buf.len() - 1]).is_err(),
            "truncated tally is a decode error, not garbage"
        );
    }

    #[test]
    fn algorithm_tokens_round_trip() {
        let all = Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]);
        for algo in all {
            assert_eq!(Algorithm::from_token(algo.token()), Ok(algo));
        }
        assert_eq!(
            Algorithm::from_token("quadtree"),
            Err("unknown algorithm 'quadtree'".to_string())
        );
    }

    #[test]
    fn algorithm_names_match_paper() {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["LPiB", "DIFF", "UNI(R)", "UNI(S)", "eps-grid", "Sedona"]
        );
    }
}

#[cfg(test)]
mod kernel_choice_tests {
    use super::*;
    use crate::{to_records, LocalKernel};
    use asj_core::AgreementPolicy;
    use asj_engine::ClusterConfig;
    use asj_geom::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Both local kernels produce identical result sets; the sweep evaluates
    /// fewer candidates.
    #[test]
    fn plane_sweep_kernel_matches_nested_loop() {
        let c = Cluster::new(ClusterConfig::with_threads(3, 2));
        let mut rng = StdRng::seed_from_u64(55);
        let pts = |rng: &mut StdRng, n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..15.0), rng.gen_range(0.0..15.0)))
                .collect()
        };
        let r = to_records(&pts(&mut rng, 400), 0);
        let s = to_records(&pts(&mut rng, 400), 0);
        let base = JoinSpec::new(Rect::new(0.0, 0.0, 15.0, 15.0), 0.8).with_partitions(8);
        let nl = crate::adaptive_join(
            &c,
            &base.clone().with_kernel(LocalKernel::NestedLoop),
            AgreementPolicy::Lpib,
            r.clone(),
            s.clone(),
        )
        .expect("join runs");
        let ps = crate::adaptive_join(
            &c,
            &base.with_kernel(LocalKernel::PlaneSweep),
            AgreementPolicy::Lpib,
            r,
            s,
        )
        .expect("join runs");
        let mut a = nl.pairs.to_vec();
        let mut b = ps.pairs.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(
            ps.candidates < nl.candidates,
            "sweep must prune: {} vs {}",
            ps.candidates,
            nl.candidates
        );
    }
}
