//! `asj` — command-line front end for the adaptive-replication spatial join.
//!
//! ```text
//! asj generate --kind gaussian --n 100000 --seed 7 --out points.csv
//! asj join      --r r.csv --s s.csv --eps 0.25 [--algo lpib] [--nodes 12]
//!               [--partitions 96] [--out pairs.csv]
//! asj self-join --input points.csv --eps 0.25
//! ```
//!
//! Input/output files use the paper's raw text format: `id,x,y` per line.

use adaptive_spatial_join::data::{
    read_points_csv_each, write_points_csv, DatasetSpec, PAPER_BBOX,
};
use adaptive_spatial_join::engine::{
    clean_orphaned_spills, on_host_threads, set_spill_dir, Attrs, ClusterConfig, Dataset, Ingest,
    Journal, Lane, SpillSegment,
};
use adaptive_spatial_join::geom::Rect;
use adaptive_spatial_join::join::{
    knn_join, self_join, Algorithm, JoinError, JoinOutput, JoinSpec, NoPayload, PairFile, PairSink,
    PartitionedPoints, Record,
};
use adaptive_spatial_join::prelude::*;
use adaptive_spatial_join::serve::{
    parse_queue, run_queue, solo_outcome, summary_line, synopsis, Options, RecoveryOptions,
    ServeError, Spelling,
};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.usage => {
            eprintln!("error: {}", e.message);
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(1)
        }
    }
}

/// Why a command stopped. What a corrected command line or queue file fixes
/// is a usage error (the error line, then [`usage`], exit 2) — and so is any
/// plain `String`/`&str` error, which is what the flag parsers return. A run
/// that failed — I/O, a stage out of attempts, a failed tenant — prints its
/// one error line alone and exits 1.
#[derive(Debug)]
struct CliError {
    message: String,
    usage: bool,
}

impl CliError {
    fn runtime(message: impl std::fmt::Display) -> Self {
        CliError {
            message: message.to_string(),
            usage: false,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            usage: true,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

impl From<JoinError> for CliError {
    fn from(e: JoinError) -> Self {
        match e {
            JoinError::Job(e) => CliError::runtime(e),
            JoinError::InvalidSpec { field, reason } => {
                Spelling::Flag.invalid_spec(field, &reason).into()
            }
            e @ JoinError::GridTooFine { .. } => e.to_string().into(),
        }
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Spec { .. } => e.to_string().into(),
            ServeError::Submit { .. } | ServeError::Io { .. } => CliError::runtime(e),
        }
    }
}

/// The USAGE text: one synopsis per command, rendered from the options it
/// takes, then what they mean.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for name in COMMANDS {
        let (_, required, optional) = command(name).expect("every listed command exists");
        text += &synopsis(&format!("  asj {name:<10}"), required, &optional);
        text.push('\n');
    }
    text + "  asj journal   compact FILE\n\n" + HELP
}

/// What the options of [`usage`]'s synopses mean.
const HELP: &str = "\
Exit status: 0 done; 1 the run failed (I/O, a stage out of attempts, a failed
tenant) — one 'error:' line, no usage text; 2 bad arguments or queue file.

Every command accepts --spill-dir DIR (or ASJ_SPILL_DIR) to route spill and
checkpoint segments somewhere other than the system temp dir; orphaned spill
files from a previous crashed run are cleaned up at startup.

ALGO: lpib (default) | diff | uni-r | uni-s | eps-grid | sedona |
      lpib-dedup — lpib-dedup is LPiB over an unmarked graph plus the
      paper's distributed-dedup post-join stage (Table 6); it exists as a
      recovery-stress shape and is excluded from the figure sweeps.
K:    auto (default) | nested-loop | plane-sweep | grid-bucket — the
      partition-local join kernel; auto picks per cell group from the
      committed cost model.
--trace records a dual-clock execution trace; the chrome format opens in
Perfetto (https://ui.perfetto.dev) or chrome://tracing.
--faults injects deterministic failures, e.g. 'chaos' or
'p=0.02,slow:1=3.0,lose:2@5' (seeded by --seed; lose:2@5 loses node 2 from
the first stage after it started 5 attempts); the env vars ASJ_FAULTS /
ASJ_FAULT_SEED do the same without flags. Retries, losses, blacklisting and
speculation follow from the plan alone, never from thread timing.
--speculation races a copy on another node against each task whose first
attempt lands on a node the plan slows 1.5x or more: the less slowed attempt
runs first and wins unless it fails. A fault clause naming a stage the job
never runs is reported as a warning. --memory-budget caps simulated per-node
memory (bytes; k/m/g binary suffixes accepted): each shuffle map task gets a
fixed share of every node's budget, and buckets that would exceed it spill
to temporary files and are re-read at reduce time, leaving results
byte-identical. join and self-join also write each input partition larger
than B/(2*I), I the input partitions on its node, to disk as it is read
('input on disk'); its sample and shuffle tasks read it back. What spills
follows from the budget and the plan alone, never from thread timing. The
join report's 'peak memory' is that governor's simulated per-node peak
(shuffle buckets only); 'peak RSS' is the whole process's resident-set
high-water mark.
--jobs runs a multi-tenant queue on one simulated cluster: one
'job NAME key=value ...' per line ('#' comments; keys: algo eps n kind seed
weight kernel partitions grid-factor payload faults fault-seed max-attempts
estimate). Admission control rejects tenants whose estimated working set
exceeds the per-node --memory-budget; admitted tenants interleave under the
--policy with isolated fault and obs state. --verify re-runs every
tenant solo and fails unless results are byte-identical.

--journal FILE appends a crash-consistent record of every admission, grant
and completed job to FILE; --checkpoint-dir DIR persists each completed
shuffle and join stage so a restarted server can skip recomputation.
--recover replays FILE before running: journaled results are served without
re-execution and in-flight jobs resume from their checkpoints. A finished
job's checkpoints are garbage-collected once its result is durable in the
journal, and --compact-every N rewrites the journal down to live records
after every N completions, so long-lived servers keep bounded disk.
'asj journal compact FILE' runs the same compaction offline (atomic:
tmp file + fsync + rename).";

type Handler = fn(&Options) -> Result<(), CliError>;

/// The subcommands, in USAGE order.
const COMMANDS: [&str; 7] = [
    "generate",
    "join",
    "self-join",
    "knn",
    "range",
    "heatmap",
    "serve",
];

/// The options [`job_cluster`] and [`build_spec`] read: cluster shape,
/// kernel, tracing, faults and budget.
const SPEC_OPTIONS: &[&str] = &[
    "nodes",
    "partitions",
    "grid-factor",
    "kernel",
    "trace",
    "trace-format",
    "faults",
    "seed",
    "max-attempts",
    "speculation",
    "memory-budget",
];

/// Subcommand `cmd`: its handler, the options it requires and every other
/// option it reads.
fn command(cmd: &str) -> Option<(Handler, &'static [&'static str], Vec<&'static str>)> {
    // The last field: whether it also reads SPEC_OPTIONS.
    let (handler, required, optional, spec): (Handler, &[&str], &[&str], bool) = match cmd {
        "generate" => (cmd_generate, &["kind", "n", "out"], &["seed"], false),
        "join" => (cmd_join, &["r", "s", "eps"], &["algo", "out"], true),
        "self-join" => (cmd_self_join, &["input", "eps"], &["out"], true),
        "knn" => (cmd_knn, &["r", "s", "k", "eps"], &[], true),
        "range" => (cmd_range, &["input", "rect", "eps"], &[], true),
        "heatmap" => (cmd_heatmap, &["input"], &["width", "height"], false),
        "serve" => (
            cmd_serve,
            &["jobs"],
            &[
                "policy",
                "nodes",
                "memory-budget",
                "verify",
                "journal",
                "checkpoint-dir",
                "recover",
                "compact-every",
                "trace",
                "trace-format",
            ],
            false,
        ),
        _ => return None,
    };
    let spec = if spec { SPEC_OPTIONS } else { &[] };
    Some((handler, required, [optional, spec, &["spill-dir"]].concat()))
}

/// The subcommand `args` names and the options it was given.
fn parse_args(args: &[String]) -> Result<(Handler, Options), String> {
    let Some(cmd) = args.first() else {
        return Err("no subcommand".into());
    };
    let (handler, required, optional) =
        command(cmd).ok_or_else(|| format!("unknown subcommand '{cmd}'"))?;
    let accepted = [required, &optional].concat();
    let words = args[1..].iter().map(String::as_str);
    let opts = Options::parse(&accepted, Spelling::Flag, words, &format!("asj {cmd}"))?;
    match opts.operands.first() {
        Some(word) => Err(format!("expected --flag, got '{word}'")),
        None => Ok((handler, opts)),
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    if args.first().is_some_and(|cmd| cmd == "journal") {
        // Positional operands (`journal compact FILE`), not --flags.
        return cmd_journal(&args[1..]);
    }
    let (handler, opts) = parse_args(args)?;
    if let Some(dir) = &opts.spill_dir {
        set_spill_dir(PathBuf::from(dir));
        // A previous run that crashed mid-spill may have left segments behind;
        // the pid in every spill filename makes live files distinguishable.
        match clean_orphaned_spills(std::path::Path::new(dir)) {
            Ok(swept) if swept > 0 => {
                eprintln!("swept {swept} orphaned spill file(s) from {dir}");
            }
            Ok(_) => {}
            Err(e) => return Err(CliError::runtime(format!("cleaning spill dir {dir}: {e}"))),
        }
    }
    handler(&opts)
}

fn cmd_generate(opts: &Options) -> Result<(), CliError> {
    let kind = opts.need(&opts.kind, "kind")?;
    let n = opts.need(&opts.n, "n")?;
    let out = PathBuf::from(opts.need(&opts.out, "out")?);
    let spec = DatasetSpec {
        name: "cli",
        kind,
        cardinality: n,
        seed: opts.seed.unwrap_or(7),
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    };
    // Each host thread makes and formats a range of points, and the ranges
    // are written in order, so the file is the same on any number of them.
    const GENERATE_RANGE: usize = 1 << 16;
    let threads = ClusterConfig::new(1).threads;
    let ranges: Vec<_> = (0..n).step_by(GENERATE_RANGE).collect();
    let write = || -> std::io::Result<()> {
        let mut file = File::create(&out)?;
        for round in ranges.chunks(threads) {
            let texts = on_host_threads(threads, round.len(), |t, _| {
                let ids = round[t]..(round[t] + GENERATE_RANGE).min(n);
                let mut text = Vec::new();
                write_points_csv(&mut text, ids.start, spec.block_stream(ids))?;
                Ok::<_, std::io::Error>(text)
            })?;
            texts.iter().try_for_each(|text| file.write_all(text))?;
        }
        Ok(())
    };
    write().map_err(|e| CliError::runtime(format!("writing {}: {e}", out.display())))?;
    println!("wrote {n} points to {}", out.display());
    Ok(())
}

/// Reads `path` into input partitions through `ingest` — a CSV row is an id
/// and a point, so its record carries no payload — and returns them with the
/// bounding box of their rows, folded from each partition's as the reader
/// finished it.
fn load(
    path: &str,
    ingest: Ingest<Record<NoPayload>>,
) -> Result<(Dataset<Record<NoPayload>>, Rect), CliError> {
    let bbox = Mutex::new(Rect::empty());
    let put = |p, rows: Vec<Record<NoPayload>>| {
        let mut rect = Rect::empty();
        rows.iter().for_each(|rec| rect.extend(rec.point));
        let mut bbox = bbox.lock().expect("bbox lock poisoned");
        *bbox = bbox.union(&rect);
        drop(bbox);
        ingest.put(p, rows)
    };
    let failed = |e| CliError::runtime(format!("reading {path}: {e}"));
    read_points_csv_each(
        Path::new(path),
        JoinSpec::INPUT_PARTITIONS,
        Record::bare,
        put,
    )
    .map_err(failed)?;
    let input = ingest.finish().map_err(failed)?;
    Ok((input, bbox.into_inner().expect("bbox lock poisoned")))
}

/// `path` read into input partitions that stay in memory.
fn load_records(path: &str) -> Result<(Dataset<Record<NoPayload>>, Rect), CliError> {
    load(path, Ingest::in_memory(JoinSpec::INPUT_PARTITIONS))
}

/// The inputs of a join, as read.
struct Inputs {
    data: Vec<Dataset<Record<NoPayload>>>,
    /// The bounding box of all their rows.
    bbox: Rect,
    read: InputStats,
}

/// What reading a join's inputs took, for its report.
struct InputStats {
    time: Duration,
    /// Under a memory budget, the bytes left waiting on disk.
    on_disk: Option<u64>,
}

/// Reads the `paths` a join on `cluster` runs on, in turn. Under a memory
/// budget an input partition that does not fit its share of its node's
/// budget waits on disk until its tasks read it ([`Ingest`]); the bytes on
/// disk are counted in the trace as `ingest` / `disk_bytes`.
fn read_inputs(cluster: &Cluster, paths: &[String]) -> Result<Inputs, CliError> {
    let start = Instant::now();
    let (mut data, mut bbox) = (Vec::new(), Rect::empty());
    for path in paths {
        let ingest = Ingest::new(cluster, paths.len(), JoinSpec::INPUT_PARTITIONS);
        let (input, rect) = load(path, ingest)?;
        data.push(input);
        bbox = bbox.union(&rect);
    }
    let on_disk = data.iter().filter_map(Dataset::on_disk);
    let on_disk: u64 = on_disk.map(SpillSegment::total_bytes).sum();
    cluster
        .recorder()
        .counter_add("ingest", "disk_bytes", on_disk);
    let on_disk = cluster.memory_budget().map(|_| on_disk);
    let time = start.elapsed();
    Ok(Inputs {
        data,
        bbox,
        read: InputStats { time, on_disk },
    })
}

/// A file named by `--out` or `--trace`, opened before any input is read so
/// that a path that cannot be written fails the command before the work
/// does. An existing file is truncated only when there is something to write
/// into it.
struct Destination {
    path: PathBuf,
    file: File,
}

impl Destination {
    fn open(path: &str) -> Result<Destination, CliError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| CliError::runtime(format!("creating {path}: {e}")))?;
        Ok(Destination {
            path: path.into(),
            file,
        })
    }

    /// Replaces the file's content with what `write` writes.
    fn replace(
        &self,
        write: impl FnOnce(&mut &File) -> std::io::Result<()>,
    ) -> Result<(), CliError> {
        let failed = |e| CliError::runtime(format!("writing {}: {e}", self.path.display()));
        self.file.set_len(0).map_err(failed)?;
        write(&mut &self.file).map_err(failed)
    }
}

/// Tracing requested on the command line: the recorder attached to the
/// cluster plus the file the rendered trace goes to when the job is done.
struct TraceSink {
    recorder: Recorder,
    nodes: usize,
    destination: Option<Destination>,
    format: TraceFormat,
}

impl TraceSink {
    /// Opens the `--trace` file, if any: call before reading any input.
    fn open(opts: &Options) -> Result<TraceSink, CliError> {
        let nodes = opts.nodes.unwrap_or(12);
        let destination = opts.trace.as_deref().map(Destination::open).transpose()?;
        // Without --trace the recorder stays no-op: zero overhead, and the
        // join's outputs and metrics are bit-identical to an untraced run.
        let recorder = if destination.is_some() {
            Recorder::for_nodes(nodes)
        } else {
            Recorder::noop()
        };
        Ok(TraceSink {
            recorder,
            nodes,
            destination,
            format: opts.trace_format.unwrap_or_default(),
        })
    }

    fn write(&self) -> Result<(), CliError> {
        let Some(destination) = &self.destination else {
            return Ok(());
        };
        let trace = self.recorder.snapshot();
        destination.replace(|file| file.write_all(trace.render(self.format).as_bytes()))?;
        println!(
            "wrote trace          : {} ({} spans, {} events)",
            destination.path.display(),
            trace.spans.len(),
            trace.events.len()
        );
        Ok(())
    }
}

/// The cluster `--nodes` and `--memory-budget` describe, recording into
/// `trace`.
fn build_cluster(opts: &Options, trace: &TraceSink) -> Cluster {
    let cluster =
        Cluster::new(ClusterConfig::new(trace.nodes)).with_recorder(trace.recorder.clone());
    match opts.memory_budget {
        Some(bytes) => cluster.with_memory_budget(bytes),
        None => cluster,
    }
}

/// The cluster of a job: [`build_cluster`]'s, with the fault plan and retry
/// policy of `--faults` / `--seed` / `--max-attempts` / `--speculation`,
/// falling back to `ASJ_FAULTS` / `ASJ_FAULT_SEED`. Built before any input
/// is read: the budget decides which input partitions wait on disk.
fn job_cluster(opts: &Options, trace: &TraceSink) -> Result<Cluster, CliError> {
    let cluster = build_cluster(opts, trace);
    Ok(match opts.fault_setup(opts.seed.unwrap_or(7), true)? {
        Some((plan, policy)) => cluster.with_fault_policy(plan, policy),
        None => cluster,
    })
}

/// The join spec over `bbox` that the options describe.
fn build_spec(opts: &Options, bbox: Rect) -> Result<JoinSpec, CliError> {
    let eps = opts.need(&opts.eps, "eps")?;
    // Pad the observed bbox so border points still get full neighborhoods.
    Ok(JoinSpec::new(bbox.expand(eps), eps)
        .with_partitions(opts.partitions.unwrap_or(96))
        .with_grid_factor(opts.grid_factor.unwrap_or(2.0))
        .with_kernel(opts.kernel.unwrap_or_default()))
}

/// Prints the metrics report of a join. `ingest time` is the time spent
/// reading the inputs before it: together with `output time` (printed by
/// [`finish_join`]) it accounts for the part of the process's run that `wall
/// time` — the join alone — does not cover.
fn report(out: &JoinOutput, read: &InputStats) {
    println!("algorithm            : {}", out.algorithm);
    println!("result pairs         : {}", out.result_count);
    println!("candidates evaluated : {}", out.candidates);
    println!(
        "replicated objects   : {} (R: {}, S: {})",
        out.replicated_total(),
        out.replicated[0],
        out.replicated[1]
    );
    println!(
        "shuffle remote reads : {} KiB",
        out.metrics.shuffle.remote_bytes / 1024
    );
    println!(
        "shuffle total        : {} KiB",
        out.metrics.shuffle.total_bytes() / 1024
    );
    println!(
        "peak partition       : {} KiB",
        out.metrics.shuffle.peak_partition_bytes() / 1024
    );
    println!(
        "simulated time       : {:.3} s",
        out.metrics.simulated_time().as_secs_f64()
    );
    println!(
        "wall time            : {:.3} s",
        out.metrics.wall_time().as_secs_f64()
    );
    println!("ingest time          : {:.3} s", read.time.as_secs_f64());
    println!(
        "peak memory          : {} KiB",
        out.metrics.peak_memory_bytes() / 1024
    );
    // Only interesting when the memory governor actually forced data to disk.
    if out.metrics.spilled_bytes() > 0 {
        println!(
            "spilled to disk      : {} KiB",
            out.metrics.spilled_bytes() / 1024
        );
    }
    if let Some(bytes) = read.on_disk {
        println!("input on disk        : {} KiB", bytes / 1024);
    }
    let mut exec = ExecStats::default();
    exec.accumulate(&out.metrics.construction);
    exec.accumulate(&out.metrics.join);
    // Only interesting when something actually went wrong (or was recovered).
    if exec.retries + exec.failed_attempts + exec.speculative_wins + exec.blacklisted_nodes > 0 {
        println!(
            "task attempts        : {} ({} retries, {} failed)",
            exec.attempts, exec.retries, exec.failed_attempts
        );
        println!(
            "fault recovery       : {} speculative wins, {} blacklisted nodes",
            exec.speculative_wins, exec.blacklisted_nodes
        );
    }
}

/// The process's resident-set high-water mark so far (`VmHWM`), in MiB;
/// `None` where `/proc/self/status` cannot be read.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024)
}

/// Warns — on stderr and as a driver-lane trace event — about every stage
/// the fault plan names that this job never ran a task of: such a clause
/// injected nothing.
fn warn_unreached_fault_stages(cluster: &Cluster) {
    let Some(ctx) = cluster.fault_context() else {
        return;
    };
    for stage in ctx.stages_never_run() {
        let warning =
            format!("warning: fault plan names stage '{stage}', which this job never ran");
        eprintln!("{warning}");
        cluster
            .recorder()
            .event(&warning, Lane::Driver, None, Attrs::new());
    }
}

/// The shared tail of `join` / `self-join`: the report, then the trace
/// file and the pair file's publication (its lines were written by the
/// join's tasks), then how long those took, and last the process's peak
/// RSS, which the output may have set.
fn finish_join(
    out: &JoinOutput,
    read: &InputStats,
    trace: &TraceSink,
    pairs: Option<PairFile>,
) -> Result<(), CliError> {
    report(out, read);
    let output = Instant::now();
    trace.write()?;
    if let Some(pairs) = &pairs {
        let path = pairs.path().display();
        pairs
            .publish()
            .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
        println!("wrote {} pairs to {path}", out.result_count);
    }
    println!(
        "output time          : {:.3} s",
        output.elapsed().as_secs_f64()
    );
    if let Some(mib) = peak_rss_mib() {
        println!("peak RSS             : {mib} MiB");
    }
    Ok(())
}

/// The `--out` pairs file of a join, created (as a sibling that replaces
/// it once the join is done) before any input is read.
fn pairs_destination(opts: &Options) -> Result<Option<PairFile>, CliError> {
    let create = |path: &str| {
        PairFile::create(path).map_err(|e| CliError::runtime(format!("creating {path}: {e}")))
    };
    opts.out.as_deref().map(create).transpose()
}

/// Where a join's pairs go: the `--out` file, or nowhere (counted only).
fn pair_sink(pairs: &Option<PairFile>) -> PairSink {
    pairs.clone().map_or(PairSink::Count, PairSink::File)
}

fn cmd_join(opts: &Options) -> Result<(), CliError> {
    let (trace, pairs) = (TraceSink::open(opts)?, pairs_destination(opts)?);
    let cluster = job_cluster(opts, &trace)?;
    let paths = [opts.need(&opts.r, "r")?, opts.need(&opts.s, "s")?];
    let inputs = read_inputs(&cluster, &paths)?;
    join_inputs(opts, &cluster, inputs, &trace, pairs)
}

/// `asj join` once its inputs are read: the join, its report, the trace and
/// the pair file.
fn join_inputs(
    opts: &Options,
    cluster: &Cluster,
    inputs: Inputs,
    trace: &TraceSink,
    pairs: Option<PairFile>,
) -> Result<(), CliError> {
    if inputs.bbox.is_empty() {
        return Err("inputs contain no points".into());
    }
    let spec = build_spec(opts, inputs.bbox)?.with_sink(pair_sink(&pairs));
    let algo = opts.algo.unwrap_or(Algorithm::Lpib);
    let [r, s] = <[_; 2]>::try_from(inputs.data).map_err(|_| "a join reads two inputs")?;
    let out = algo.try_run(cluster, &spec, r, s)?;
    warn_unreached_fault_stages(cluster);
    finish_join(&out, &inputs.read, trace, pairs)
}

fn cmd_self_join(opts: &Options) -> Result<(), CliError> {
    let (trace, pairs) = (TraceSink::open(opts)?, pairs_destination(opts)?);
    let cluster = job_cluster(opts, &trace)?;
    let mut inputs = read_inputs(&cluster, &[opts.need(&opts.input, "input")?])?;
    if inputs.bbox.is_empty() {
        return Err("input contains no points".into());
    }
    let spec = build_spec(opts, inputs.bbox)?.with_sink(pair_sink(&pairs));
    let input = inputs.data.remove(0);
    let out = self_join(&cluster, &spec, input)?;
    warn_unreached_fault_stages(&cluster);
    finish_join(&out, &inputs.read, &trace, pairs)
}

fn cmd_knn(opts: &Options) -> Result<(), CliError> {
    let trace = TraceSink::open(opts)?;
    let cluster = job_cluster(opts, &trace)?;
    let (r, bbox_r) = load_records(&opts.need(&opts.r, "r")?)?;
    let (s, bbox_s) = load_records(&opts.need(&opts.s, "s")?)?;
    let k = opts.need(&opts.k, "k")?;
    let bbox = bbox_r.union(&bbox_s);
    if bbox.is_empty() {
        return Err("inputs contain no points".into());
    }
    let spec = build_spec(opts, bbox)?;
    let out = knn_join(&cluster, &spec, k, r, s)?;
    warn_unreached_fault_stages(&cluster);
    println!("queries answered     : {}", out.neighbors.len());
    println!("expanding rounds     : {}", out.rounds);
    println!(
        "shuffle total        : {} KiB",
        out.shuffle.total_bytes() / 1024
    );
    let mean_nn: f64 = out
        .neighbors
        .iter()
        .filter_map(|(_, ns)| ns.first().map(|(_, d)| *d))
        .sum::<f64>()
        / out.neighbors.len().max(1) as f64;
    println!("mean nearest distance: {mean_nn:.4}");
    trace.write()
}

fn cmd_range(opts: &Options) -> Result<(), CliError> {
    let trace = TraceSink::open(opts)?;
    let cluster = job_cluster(opts, &trace)?;
    let (input, bbox) = load_records(&opts.need(&opts.input, "input")?)?;
    let region = opts.need(&opts.rect, "rect")?;
    if bbox.is_empty() {
        return Err("input contains no points".into());
    }
    let spec = build_spec(opts, bbox)?;
    let table = PartitionedPoints::build(&cluster, &spec, input)?;
    let (ids, _) = table.range_query(&cluster, region)?;
    println!("points in region     : {}", ids.len());
    for id in ids.iter().take(10) {
        println!("  #{id}");
    }
    if ids.len() > 10 {
        println!("  ... and {} more", ids.len() - 10);
    }
    trace.write()
}

/// ASCII density map of a dataset — a quick look at the skew the adaptive
/// algorithms exploit.
fn cmd_heatmap(opts: &Options) -> Result<(), CliError> {
    let (input, bbox) = load_records(&opts.need(&opts.input, "input")?)?;
    if input.is_empty() {
        return Err("input contains no points".into());
    }
    let (width, height) = (opts.width.unwrap_or(64), opts.height.unwrap_or(24));
    let mut counts = vec![0u64; width * height];
    for rec in input.partitions().iter().flatten() {
        let cx = (((rec.point.x - bbox.min_x) / bbox.width().max(1e-12) * width as f64) as usize)
            .min(width - 1);
        let cy = (((rec.point.y - bbox.min_y) / bbox.height().max(1e-12) * height as f64) as usize)
            .min(height - 1);
        counts[cy * width + cx] += 1;
    }
    let max = *counts.iter().max().unwrap() as f64;
    const SHADES: &[u8] = b" .:-=+*#%@";
    println!(
        "{} points, bbox [{:.2}, {:.2}] x [{:.2}, {:.2}], peak bucket {max}",
        input.len(),
        bbox.min_x,
        bbox.max_x,
        bbox.min_y,
        bbox.max_y
    );
    for row in (0..height).rev() {
        let line: String = (0..width)
            .map(|col| {
                let c = counts[row * width + col] as f64;
                let idx = ((c / max).sqrt() * (SHADES.len() - 1) as f64).round() as usize;
                SHADES[idx.min(SHADES.len() - 1)] as char
            })
            .collect();
        println!("{line}");
    }
    Ok(())
}

/// Journal maintenance: `asj journal compact FILE` rewrites a server
/// journal down to its live records (atomically — tmp, fsync, rename), for
/// operators trimming a long-lived server's disk offline.
fn cmd_journal(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("compact") => {
            let [_, path] = args else {
                return Err("usage: asj journal compact FILE".into());
            };
            let stats = Journal::compact_file(std::path::Path::new(path))
                .map_err(|e| CliError::runtime(format!("compacting {path}: {e}")))?;
            println!(
                "compacted {path}: kept {kept} record(s), dropped {dropped}, \
                 {before} -> {after} bytes",
                kept = stats.kept,
                dropped = stats.dropped,
                before = stats.bytes_before,
                after = stats.bytes_after,
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown journal action '{other}' (expected 'compact')").into()),
        None => Err("usage: asj journal compact FILE".into()),
    }
}

/// Multi-tenant job server: run a queue file of tenant joins on one
/// simulated cluster under admission control and a scheduling policy.
fn cmd_serve(opts: &Options) -> Result<(), CliError> {
    let path = opts.need(&opts.jobs, "jobs")?;
    let trace = TraceSink::open(opts)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::runtime(format!("reading {path}: {e}")))?;
    let tenants = parse_queue(&text).map_err(|e| e.to_string())?;
    if tenants.is_empty() {
        return Err(format!("no jobs in {path}").into());
    }
    let cluster = build_cluster(opts, &trace);
    let recovery = RecoveryOptions {
        journal: opts.journal.as_ref().map(PathBuf::from),
        checkpoint_dir: opts.checkpoint_dir.as_ref().map(PathBuf::from),
        recover: opts.recover,
        compact_every: opts.compact_every,
    };
    let policy = opts.policy.unwrap_or_default();
    let run = run_queue(&cluster, &tenants, policy, &recovery)?;
    println!("policy               : {}", run.policy.name());
    println!("tenants              : {}", run.reports.len());
    println!("simulated nodes      : {}", cluster.nodes());
    if let Some(budget) = cluster.memory_budget() {
        println!("memory budget        : {} KiB/node", budget / 1024);
    }
    println!(
        "server clock         : {:.3} s (serialized simulated time)",
        run.clock.as_secs_f64()
    );
    println!("quanta granted       : {}", run.grants.len());
    if recovery.journal.is_some() {
        // Every grant is journaled before it takes effect.
        println!("journal grants written : {}", run.grants.len());
        println!("journal grants replayed : {}", run.journal_grants.len());
        println!("checkpoint bytes     : {}", run.checkpoint_bytes);
        if recovery.checkpoint_dir.is_some() {
            let spent = run.checkpoint_times;
            println!(
                "checkpoint time      : {:.3} s write + {:.3} s fsync + {:.3} s manifest + {:.3} s gc",
                spent.write.as_secs_f64(),
                spent.fsync.as_secs_f64(),
                spent.manifest.as_secs_f64(),
                spent.gc.as_secs_f64()
            );
        }
        println!("stages recovered     : {}", run.stages_recovered);
        let replayed = run.reports.iter().filter(|t| t.recovered).count();
        println!("tenants replayed     : {replayed}");
    }
    for report in &run.reports {
        println!("{}", summary_line(report));
    }
    if opts.verify {
        for (tenant, report) in tenants.iter().zip(&run.reports) {
            let Ok(shared) = &report.result else {
                continue;
            };
            let solo = solo_outcome(&cluster, tenant).map_err(CliError::runtime)?;
            if shared != &solo {
                return Err(CliError::runtime(format!(
                    "isolation violated for tenant '{}': concurrent checksum {:016x} != solo {:016x}",
                    tenant.name, shared.checksum, solo.checksum
                )));
            }
        }
        println!("isolation            : all tenants match their solo runs");
    }
    trace.write()?;
    if run.crashed {
        // A fault-plan crash clause stopped the server mid-queue; the journal
        // (if any) holds the prefix, so this is a restartable state, not a
        // per-tenant failure.
        return Err(CliError::runtime(
            "server crashed mid-queue (fault plan crash clause); \
             re-run with --recover to resume from the journal",
        ));
    }
    let failed: Vec<&str> = run
        .reports
        .iter()
        .filter(|t| t.result.is_err())
        .map(|t| t.name.as_str())
        .collect();
    if !failed.is_empty() {
        return Err(CliError::runtime(format!(
            "{} tenant(s) failed: {}",
            failed.len(),
            failed.join(", ")
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_spatial_join::data::GenKind;
    use adaptive_spatial_join::join::LocalKernel;
    use adaptive_spatial_join::serve::{TenantSpec, QUEUE_KEYS, ROWS};

    fn asj(args: &[&str]) -> Result<(), CliError> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// The options `asj ARGS` would run with, or its usage error.
    fn options(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|(_, opts)| opts)
    }

    /// The cluster and spec of `asj join ARGS` over a 10 x 10 box.
    fn join_spec(args: &[&str]) -> Result<(Cluster, JoinSpec, TraceSink), CliError> {
        let args = [&["join", "--r", "r.csv", "--s", "s.csv"], args].concat();
        let opts = options(&args)?;
        let trace = TraceSink::open(&opts)?;
        let cluster = job_cluster(&opts, &trace)?;
        let spec = build_spec(&opts, Rect::new(0.0, 0.0, 10.0, 10.0))?;
        Ok((cluster, spec, trace))
    }

    #[test]
    fn flags_parse_pairs() {
        let f = options(&["join", "--eps", "0.5", "--algo", "diff"]).unwrap();
        assert_eq!(f.eps, Some(0.5));
        assert_eq!(f.algo, Some(Algorithm::Diff));
    }

    #[test]
    fn empty_inputs_are_reported_not_joined() {
        let path = std::env::temp_dir().join(format!("asj-cli-empty-{}.csv", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let file = path.to_str().unwrap();
        let err = asj(&["join", "--r", file, "--s", file, "--eps", "0.5"]).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.message, "inputs contain no points");
    }

    /// The pair file a join's tasks write holds the collected pairs, in
    /// partition order, as `fmt` writes them.
    #[test]
    fn pair_lines_are_what_fmt_writes() {
        let dir = std::env::temp_dir().join(format!("asj-cli-lines-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let points = |seed| {
            let spec = DatasetSpec {
                name: "lines",
                kind: GenKind::GaussianClusters,
                cardinality: 3_000,
                seed,
                bbox: PAPER_BBOX,
                sigma_scale: 1.0,
            };
            to_records(&spec.points(), 0)
        };
        let (r, s) = (points(1), points(2));
        let spec = JoinSpec::new(PAPER_BBOX, 0.4).with_partitions(16);
        let cluster = Cluster::new(ClusterConfig::with_threads(4, 2));
        let collected = Algorithm::Lpib
            .try_run(&cluster, &spec, r.clone(), s.clone())
            .unwrap();
        let path = dir.join("pairs.csv");
        let file = PairFile::create(&path).unwrap();
        let spec = spec.with_sink(PairSink::File(file.clone()));
        Algorithm::Lpib.try_run(&cluster, &spec, r, s).unwrap();
        file.publish().unwrap();
        let want: String = collected
            .pairs
            .iter()
            .map(|(a, b)| format!("{a},{b}\n"))
            .collect();
        assert!(collected.result_count > 1_000, "{}", collected.result_count);
        assert!(std::fs::read(&path).unwrap() == want.as_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flags_reject_missing_value_and_bad_prefix() {
        assert_eq!(
            options(&["join", "--eps"]).unwrap_err(),
            "missing value for --eps"
        );
        assert_eq!(
            options(&["join", "eps", "1"]).unwrap_err(),
            "expected --flag, got 'eps'"
        );
    }

    #[test]
    fn bool_flags_need_no_value() {
        let f = options(&["join", "--speculation", "--eps", "0.5"]).unwrap();
        assert!(f.speculation);
        assert_eq!(f.eps, Some(0.5));
    }

    #[test]
    fn fault_setup_reads_flags() {
        let (cluster, _, _) = join_spec(&[
            "--eps",
            "0.5",
            "--faults",
            "p=0.5,slow:1=2.0",
            "--seed",
            "3",
            "--max-attempts",
            "6",
            "--speculation",
        ])
        .unwrap();
        let ctx = cluster.fault_context().expect("faults requested");
        assert!(ctx.plan.is_active());
        assert_eq!(ctx.plan.seed, 3);
        assert_eq!(ctx.plan.slowdown(1), 2.0);
        assert_eq!(ctx.policy.max_attempts, 6);
        assert!(ctx.policy.speculation);

        assert!(join_spec(&["--eps", "0.5", "--faults", "gremlins"]).is_err());

        // A bare retry policy routes through recovery with an inert plan.
        // (Skipped when the chaos env vars are set, e.g. in the CI
        // fault-matrix job, where from_env() supplies an active plan.)
        if std::env::var("ASJ_FAULTS").is_err() && std::env::var("ASJ_FAULT_SEED").is_err() {
            let (cluster, _, _) = join_spec(&["--eps", "0.5", "--speculation"]).unwrap();
            let ctx = cluster.fault_context().expect("policy requested");
            assert!(!ctx.plan.is_active());
            assert!(ctx.policy.speculation);
        }
    }

    #[test]
    fn algorithm_names_resolve() {
        // lpib-dedup is listed in USAGE as a recovery-stress shape: resolvable
        // by name even though it stays out of Algorithm::ALL.
        for algo in Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]) {
            assert!(
                usage().contains(algo.token()),
                "'{}' must be discoverable from --help",
                algo.token()
            );
        }
    }

    #[test]
    fn unknown_flags_are_typed_errors_naming_flag_and_subcommand() {
        // Caught at parse time, before any file is opened: the paths do not
        // exist and must not mask the usage error.
        let join = |extra: [&str; 2]| {
            let base = [
                "join",
                "--r",
                "/nonexistent/r.csv",
                "--s",
                "/nonexistent/s.csv",
            ];
            asj(&[&base[..], &["--eps", "0.4"], &extra].concat())
                .unwrap_err()
                .message
        };
        // A typo used to be swallowed and the join ran unbudgeted.
        assert_eq!(
            join(["--memory-budgt", "1k"]),
            "unknown flag '--memory-budgt' for 'asj join'"
        );
        // Removed options fail loudly, whatever their value.
        assert_eq!(
            join(["--exec", "barrier"]),
            "unknown flag '--exec' for 'asj join'"
        );
        let err = asj(&[
            "serve",
            "--jobs",
            "/nonexistent/jobs.txt",
            "--shuffle",
            "radix",
        ])
        .unwrap_err();
        assert_eq!(err.message, "unknown flag '--shuffle' for 'asj serve'");
        assert!(err.usage);
        // A flag of one subcommand is unknown to another.
        let err = asj(&["heatmap", "--eps", "1"]).unwrap_err();
        assert_eq!(err.message, "unknown flag '--eps' for 'asj heatmap'");
    }

    #[test]
    fn kernel_flag_selects_local_kernel() {
        let (_, spec, _) = join_spec(&["--eps", "0.5"]).unwrap();
        assert_eq!(spec.kernel, LocalKernel::Auto, "auto is the default");
        for (name, kernel) in [
            ("nested-loop", LocalKernel::NestedLoop),
            ("plane-sweep", LocalKernel::PlaneSweep),
            ("grid-bucket", LocalKernel::GridBucket),
            ("auto", LocalKernel::Auto),
        ] {
            let (_, spec, _) = join_spec(&["--eps", "0.5", "--kernel", name]).unwrap();
            assert_eq!(spec.kernel, kernel, "--kernel {name}");
        }
        assert!(join_spec(&["--eps", "0.5", "--kernel", "quadratic"]).is_err());
    }

    #[test]
    fn memory_budget_flag_parses_and_caps_the_cluster() {
        let (cluster, _, _) = join_spec(&["--eps", "0.5"]).unwrap();
        assert_eq!(
            cluster.memory_accountant().budget(),
            None,
            "no flag leaves the accountant meter-only"
        );
        let (cluster, _, _) = join_spec(&["--eps", "0.5", "--memory-budget", "64k"]).unwrap();
        assert_eq!(cluster.memory_accountant().budget(), Some(64 << 10));
        let err = join_spec(&["--eps", "0.5", "--memory-budget", "plenty"]).err();
        assert_eq!(
            err.map(|e| e.message).as_deref(),
            Some("--memory-budget: invalid byte size: 'plenty'")
        );
    }

    #[test]
    fn generator_names_resolve() {
        for kind in [
            GenKind::GaussianClusters,
            GenKind::Hydrography,
            GenKind::Parks,
            GenKind::Uniform,
        ] {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert!(usage().contains(kind.name()), "--kind {}", kind.name());
        }
        let err = asj(&["generate", "--kind", "what"]).unwrap_err();
        assert_eq!(err.message, "unknown generator kind 'what'");
        assert!(err.usage);
    }

    /// Writes a 300-point input file; returns its path.
    fn small_input(tag: &str) -> String {
        let path = std::env::temp_dir().join(format!("asj-cli-{tag}-{}.csv", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        asj(&[
            "generate", "--kind", "uniform", "--n", "300", "--out", &path,
        ])
        .unwrap();
        path
    }

    #[test]
    fn out_of_range_flags_are_usage_errors_naming_the_flag() {
        let input = small_input("range");
        // `--eps 0.5` unless the case gives its own: a repeated flag is an
        // error of its own.
        let join = |extra: &[&str]| {
            let eps: &[&str] = if extra.contains(&"--eps") {
                &[]
            } else {
                &["--eps", "0.5"]
            };
            asj(&[&["join", "--r", &input, "--s", &input], eps, extra].concat())
        };
        // Each of these used to trip an `assert!` inside the library.
        for (extra, expected) in [
            (
                ["--grid-factor", "0.5"],
                "--grid-factor must be finite and at least 1, got 0.5",
            ),
            (
                ["--grid-factor", "nan"],
                "--grid-factor must be finite and at least 1, got NaN",
            ),
            (
                ["--eps", "inf"],
                "--eps must be finite and positive, got inf",
            ),
            (
                ["--eps", "nan"],
                "--eps must be finite and positive, got NaN",
            ),
            (["--eps", "0"], "--eps must be finite and positive, got 0"),
            (["--nodes", "0"], "--nodes must be positive"),
            (["--partitions", "0"], "--partitions must be at least 1"),
            (["--max-attempts", "0"], "--max-attempts must be positive"),
            (["--memory-budget", "0"], "--memory-budget must be positive"),
            (
                ["--grid-factor", "1.5"],
                "grid too fine for adaptive replication: grid_factor 1.5",
            ),
        ] {
            let err = join(&extra).expect_err(expected);
            assert!(err.message.starts_with(expected), "{}", err.message);
            assert!(err.usage, "asj join {extra:?} is an argument error");
        }
        // `knn_join` rejects k = 0 itself; the CLI names the flag.
        let err = asj(&[
            "knn", "--r", &input, "--s", &input, "--eps", "0.5", "--k", "0",
        ])
        .unwrap_err();
        assert_eq!(err.message, "--k must be positive");
        assert!(err.usage, "asj knn --k 0 is an argument error");
        // The baselines run on any factor >= 1.
        join(&["--grid-factor", "1.5", "--algo", "uni-r"]).unwrap();
        std::fs::remove_file(input).unwrap();
    }

    #[test]
    fn failed_stages_and_tenants_are_runtime_errors() {
        let input = small_input("faults");
        let doomed = ["--eps", "0.5", "--faults", "p=1.0", "--max-attempts", "2"];
        let join = [&["join", "--r", &input, "--s", &input], &doomed[..]].concat();
        let self_join = [&["self-join", "--input", &input], &doomed[..]].concat();
        let unreadable = [
            "join",
            "--r",
            "/nonexistent/r.csv",
            "--s",
            &input,
            "--eps",
            "1",
        ];
        for (args, expected) in [
            (&join[..], "stage 'sample' task 0 failed after 2 attempt(s)"),
            (
                &self_join[..],
                "stage 'shuffle' task 0 failed after 2 attempt(s)",
            ),
            (&unreadable[..], "reading /nonexistent/r.csv"),
        ] {
            let err = asj(args).expect_err(expected);
            assert!(err.message.starts_with(expected), "{}", err.message);
            assert!(!err.usage, "'{expected}' is not a usage error");
        }
        std::fs::remove_file(&input).unwrap();

        // One doomed tenant fails alone; the server reports it and exits 1.
        let jobs = format!("{input}.jobs");
        let serve = |queue: &str| {
            std::fs::write(&jobs, queue).unwrap();
            asj(&["serve", "--jobs", &jobs, "--nodes", "4"]).unwrap_err()
        };
        let err = serve(
            "job doomed eps=0.5 n=400 partitions=8 faults=p=1.0 max-attempts=2\n\
             job calm algo=uni-r eps=0.3 n=600 partitions=8 seed=23\n",
        );
        assert_eq!(err.message, "1 tenant(s) failed: doomed");
        assert!(!err.usage);
        // A queue line the parser rejects names its line: an argument error.
        let err = serve("# header\njob a eps=0.5 max-attempts=0\n");
        assert_eq!(err.message, "queue line 2: max-attempts must be positive");
        assert!(err.usage);
        std::fs::remove_file(jobs).unwrap();
    }

    /// A byte changed in an input chunk on disk fails the join at its sample
    /// stage: a runtime error naming the stage, no pair file published, and
    /// no input chunk left behind.
    #[test]
    fn a_damaged_input_chunk_fails_the_sample_stage() {
        use std::os::unix::fs::FileExt;
        let input = small_input("damaged");
        let out = format!("{input}.pairs");
        let args = ["join", "--r", &input, "--s", &input, "--eps", "0.5"];
        let opts =
            options(&[&args[..], &["--memory-budget", "1k", "--out", &out]].concat()).unwrap();
        let (trace, pairs) = (
            TraceSink::open(&opts).unwrap(),
            pairs_destination(&opts).unwrap(),
        );
        let cluster = job_cluster(&opts, &trace).unwrap();
        let inputs = read_inputs(&cluster, &[input.clone(), input.clone()]).unwrap();
        let segments: Vec<&SpillSegment> =
            inputs.data.iter().filter_map(Dataset::on_disk).collect();
        assert_eq!(segments.len(), 2, "a 1k budget sends both inputs to disk");
        let files: Vec<PathBuf> = segments.iter().map(|s| s.path().to_path_buf()).collect();
        let at = segments[0].chunks()[0].offset;
        let file = File::options()
            .read(true)
            .write(true)
            .open(&files[0])
            .unwrap();
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[byte[0] ^ 1], at).unwrap();

        let err = join_inputs(&opts, &cluster, inputs, &trace, pairs).unwrap_err();
        assert!(
            err.message.starts_with("stage 'sample' task "),
            "{}",
            err.message
        );
        assert!(!err.usage);
        let name = Path::new(&out)
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .to_string();
        let dir = std::fs::read_dir(std::env::temp_dir()).unwrap();
        let left: Vec<String> = dir
            .filter_map(|entry| entry.unwrap().file_name().into_string().ok())
            .filter(|file| file.contains(&name))
            .collect();
        assert!(left.is_empty(), "a failed join left {left:?}");
        assert!(
            files.iter().all(|file| !file.exists()),
            "input chunks left behind"
        );
        std::fs::remove_file(input).unwrap();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(asj(&["frobnicate"]).is_err());
        assert!(asj(&[]).is_err());
    }

    #[test]
    fn end_to_end_generate_and_join() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let r_path = dir.join(format!("asj-cli-r-{pid}.csv"));
        let s_path = dir.join(format!("asj-cli-s-{pid}.csv"));
        let out_path = dir.join(format!("asj-cli-out-{pid}.csv"));
        let (r, s) = (r_path.to_str().unwrap(), s_path.to_str().unwrap());
        let out = out_path.to_str().unwrap();
        asj(&["generate", "--kind", "uniform", "--n", "500", "--out", r]).unwrap();
        asj(&[
            "generate", "--kind", "gaussian", "--n", "500", "--seed", "9", "--out", s,
        ])
        .unwrap();
        asj(&[
            "join",
            "--r",
            r,
            "--s",
            s,
            "--eps",
            "1.5",
            "--nodes",
            "4",
            "--partitions",
            "8",
            "--memory-budget",
            "4k",
            "--out",
            out,
        ])
        .unwrap();
        let pairs = std::fs::read_to_string(&out_path).unwrap();
        assert!(pairs.lines().all(|l| l.split(',').count() == 2));
        asj(&["knn", "--r", r, "--s", s, "--k", "3", "--eps", "1.0"]).unwrap();
        asj(&[
            "range",
            "--input",
            r,
            "--rect",
            "-100,30,-90,40",
            "--eps",
            "1.0",
        ])
        .unwrap();
        asj(&["heatmap", "--input", s, "--width", "40", "--height", "12"]).unwrap();
        asj(&["self-join", "--input", s, "--eps", "0.8"]).unwrap();
        for p in [r_path, s_path, out_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// The two-tenant queue the serve tests run, written to a temp file.
    fn two_tenant_queue(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("asj-serve-{tag}-{}.txt", std::process::id()));
        std::fs::write(
            &path,
            "# two tenants on one cluster\n\
             job alpha algo=lpib eps=0.5 n=600 partitions=8 seed=11\n\
             job beta algo=uni-r eps=0.3 n=900 partitions=8 seed=23 weight=2\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn serve_runs_a_queue_file_with_verification() {
        let jobs_path = two_tenant_queue("jobs");
        let jobs = jobs_path.to_str().unwrap();
        for policy in ["fair-share", "fifo"] {
            asj(&[
                "serve", "--jobs", jobs, "--policy", policy, "--nodes", "4", "--verify",
            ])
            .unwrap_or_else(|e| panic!("serve --policy {policy}: {}", e.message));
        }
        let _ = std::fs::remove_file(jobs_path);
    }

    #[test]
    fn serve_journals_and_recovers_a_queue() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jobs_path = two_tenant_queue("journal-jobs");
        let journal_path = dir.join(format!("asj-serve-journal-{pid}.jsonl"));
        let ckpt_dir = dir.join(format!("asj-serve-journal-ckpt-{pid}"));
        let jobs = jobs_path.to_str().unwrap();
        let journal = journal_path.to_str().unwrap();
        let ckpt = ckpt_dir.to_str().unwrap();
        // First run writes the journal and checkpoints; second run replays it.
        // Both legs must succeed and the journal must survive in between.
        for recover in [false, true] {
            let serve = [
                "serve",
                "--jobs",
                jobs,
                "--nodes",
                "4",
                "--journal",
                journal,
                "--checkpoint-dir",
                ckpt,
            ];
            let recover_flag: &[&str] = if recover { &["--recover"] } else { &[] };
            asj(&[&serve[..], recover_flag].concat())
                .unwrap_or_else(|e| panic!("serve recover={recover}: {}", e.message));
            assert!(journal_path.exists(), "journal written");
        }
        // Durable-state flags without a journal are usage errors, not
        // crashes, and not silently ignored: nothing could read back (or GC)
        // checkpoints written without one.
        for extra in [
            &["--recover"][..],
            &["--checkpoint-dir", ckpt],
            &["--compact-every", "2"],
        ] {
            let err = asj(&[&["serve", "--jobs", jobs][..], extra].concat()).unwrap_err();
            assert_eq!(err.message, format!("{} requires --journal FILE", extra[0]));
            assert!(err.usage);
        }
        let _ = std::fs::remove_file(jobs_path);
        let _ = std::fs::remove_file(journal_path);
        let _ = std::fs::remove_dir_all(ckpt_dir);
    }

    #[test]
    fn serve_compacts_the_journal_and_cli_compacts_offline() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jobs_path = two_tenant_queue("compact-jobs");
        let journal_path = dir.join(format!("asj-serve-compact-{pid}.jsonl"));
        let ckpt_dir = dir.join(format!("asj-serve-compact-ckpt-{pid}"));
        let jobs = jobs_path.to_str().unwrap();
        let journal = journal_path.to_str().unwrap();
        let ckpt = ckpt_dir.to_str().unwrap();
        let durable = [
            "serve",
            "--jobs",
            jobs,
            "--nodes",
            "4",
            "--journal",
            journal,
            "--checkpoint-dir",
            ckpt,
        ];
        asj(&[&durable[..], &["--compact-every", "1"]].concat())
            .expect("serve with --compact-every");
        // Retention GC: every tenant finished, so no stage checkpoints
        // survive the run.
        let leftovers = std::fs::read_dir(&ckpt_dir)
            .map(|rd| rd.count())
            .unwrap_or(0);
        assert_eq!(leftovers, 0, "finished tenants' checkpoints were GC'd");
        // Recovery after in-run compaction still replays every tenant.
        asj(&[&durable[..], &["--recover"]].concat()).expect("recover after compaction");
        // Offline compaction shrinks (or keeps) the file and stays readable.
        let before = std::fs::metadata(&journal_path).unwrap().len();
        asj(&["journal", "compact", journal]).expect("journal compact");
        let after = std::fs::metadata(&journal_path).unwrap().len();
        assert!(after <= before, "compaction never grows the journal");
        // Usage errors, not crashes.
        assert!(asj(&["journal"]).is_err());
        assert!(asj(&["journal", "prune"]).is_err());
        let err = asj(&["serve", "--jobs", jobs, "--compact-every", "2"])
            .unwrap_err()
            .message;
        assert!(err.contains("--journal"), "{err}");
        let _ = std::fs::remove_file(jobs_path);
        let _ = std::fs::remove_file(journal_path);
        let _ = std::fs::remove_dir_all(ckpt_dir);
    }

    #[test]
    fn serve_rejects_oversized_tenants_and_bad_queues() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jobs_path = dir.join(format!("asj-serve-reject-{pid}.txt"));
        let jobs = jobs_path.to_str().unwrap();
        std::fs::write(
            &jobs_path,
            "job hog algo=lpib eps=0.5 n=600 partitions=8 estimate=1g\n",
        )
        .unwrap();
        let err = asj(&[
            "serve",
            "--jobs",
            jobs,
            "--nodes",
            "4",
            "--memory-budget",
            "1m",
        ])
        .unwrap_err();
        assert!(err.message.contains("rejected"), "{}", err.message);
        assert!(!err.usage, "admission is decided at run time");

        std::fs::write(&jobs_path, "job broken n=100\n").unwrap();
        let err = asj(&["serve", "--jobs", jobs]).unwrap_err().message;
        assert!(err.contains("line 1") && err.contains("eps"), "{err}");
        let _ = std::fs::remove_file(jobs_path);
    }

    #[test]
    fn join_with_trace_writes_chrome_and_jsonl() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let r_path = dir.join(format!("asj-trace-r-{pid}.csv"));
        let chrome_path = dir.join(format!("asj-trace-{pid}.json"));
        let jsonl_path = dir.join(format!("asj-trace-{pid}.jsonl"));
        let r = r_path.to_str().unwrap();
        let small = ["--eps", "1.0", "--nodes", "3", "--partitions", "6"];
        asj(&["generate", "--kind", "uniform", "--n", "400", "--out", r]).unwrap();
        let trace = ["--trace", chrome_path.to_str().unwrap()];
        asj(&[&["join", "--r", r, "--s", r], &small[..], &trace].concat()).unwrap();
        let chrome = std::fs::read_to_string(&chrome_path).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        // One named lane per simulated node plus the driver.
        for lane in [
            "\"driver\"",
            "\"node 0 (sim)\"",
            "\"node 1 (sim)\"",
            "\"node 2 (sim)\"",
        ] {
            assert!(chrome.contains(lane), "missing lane {lane}");
        }
        // At least one span per join phase of the pipeline; the mapping runs
        // inside the shuffle's map tasks, not as a phase of its own.
        for phase in [
            "\"sampling\"",
            "\"agreement_graph\"",
            "\"shuffle\"",
            "\"local_join\"",
        ] {
            assert!(chrome.contains(phase), "missing phase {phase}");
        }
        assert!(!chrome.contains("\"marking\""), "no marking phase");
        let trace = [
            "--trace",
            jsonl_path.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ];
        asj(&[&["self-join", "--input", r], &small[..], &trace].concat()).unwrap();
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(jsonl.lines().count() > 4);
        assert!(jsonl.lines().next().unwrap().contains("\"kind\":\"meta\""));
        assert!(jsonl.contains("\"kind\":\"span\""));
        for p in [r_path, chrome_path, jsonl_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn knn_and_range_write_their_trace() {
        let input = small_input("knn-trace");
        let trace = format!("{input}.jsonl");
        let small = ["--eps", "1.0", "--nodes", "3", "--partitions", "6"];
        let traced = ["--trace", &trace, "--trace-format", "jsonl"];
        for command in [
            &["knn", "--r", &input, "--s", &input, "--k", "2"][..],
            &["range", "--input", &input, "--rect", "-100,30,-90,40"],
        ] {
            let _ = std::fs::remove_file(&trace);
            asj(&[command, &small[..], &traced].concat()).unwrap();
            let jsonl = std::fs::read_to_string(&trace).expect("trace written");
            assert!(jsonl.contains("\"kind\":\"span\""), "{}", command[0]);
        }
        std::fs::remove_file(trace).unwrap();
        std::fs::remove_file(input).unwrap();
    }

    #[test]
    fn bad_trace_format_is_rejected() {
        let err = join_spec(&["--eps", "1", "--trace", "t.json", "--trace-format", "xml"]);
        assert_eq!(
            err.err().map(|e| e.message).as_deref(),
            Some("unknown trace format \"xml\" (chrome|jsonl)")
        );
        // A format without a trace to write used to be ignored.
        for args in [
            &["join", "--r", "r.csv", "--s", "s.csv", "--eps", "1"][..],
            &["serve", "--jobs", "jobs.txt"],
        ] {
            let err = options(&[args, &["--trace-format", "jsonl"]].concat());
            assert_eq!(err.unwrap_err(), "--trace-format requires --trace FILE");
        }
    }

    #[test]
    fn a_repeated_option_is_rejected_by_every_front_end() {
        let err = options(&[
            "join", "--r", "r.csv", "--s", "s.csv", "--eps", "1", "--eps", "2",
        ]);
        assert_eq!(err.unwrap_err(), "duplicate option '--eps'");
        let err = options(&["serve", "--jobs", "a", "--verify", "--verify"]);
        assert_eq!(err.unwrap_err(), "duplicate option '--verify'");
        let err = parse_queue("job a eps=1 eps=2").unwrap_err();
        assert_eq!(err.message, "duplicate option 'eps'");
    }

    #[test]
    fn every_option_a_command_takes_is_in_its_usage_synopsis() {
        let usage = usage();
        let synopses = &usage[..usage.find("Exit status").unwrap()];
        for name in COMMANDS {
            let (_, required, optional) = command(name).unwrap();
            let head = format!("  asj {name:<10}");
            let start = synopses.find(&head).expect("a synopsis per command");
            let end = synopses[start + 1..]
                .find("\n  asj ")
                .map_or(synopses.len(), |e| start + 1 + e);
            let synopsis = &synopses[start..end];
            for option in required.iter().chain(&optional) {
                let row = ROWS.iter().find(|row| row.name == *option);
                let row = row.unwrap_or_else(|| panic!("asj {name} --{option} has no row"));
                let item = format!("--{} {}", row.name, row.value);
                assert!(
                    synopsis.contains(item.trim_end()),
                    "asj {name}: '{item}' missing from\n{synopsis}"
                );
            }
        }
        // The queue keys are prose, not a synopsis, but listed all the same.
        let words: Vec<&str> = usage
            .split(|c: char| !(c.is_alphanumeric() || c == '-'))
            .collect();
        for key in QUEUE_KEYS {
            assert!(words.contains(key), "queue key '{key}'");
        }
    }

    /// What `asj join --name value ...` builds (the spec fields every
    /// front end shares, and the fault setup), or its error without the
    /// `--` of the option it names.
    type Built = Result<(f64, usize, f64, LocalKernel, Option<String>), String>;

    fn via_flags(pairs: &[(&str, &str)]) -> Built {
        let mut args = vec![];
        for (name, value) in pairs {
            // A queue's `fault-seed` is the fault seed `join --seed` takes.
            let name = if *name == "fault-seed" { "seed" } else { name };
            args.extend([format!("--{name}"), value.to_string()]);
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let built = join_spec(&args).and_then(|(cluster, spec, _)| {
            spec.validate()?;
            let faults = cluster
                .fault_context()
                .map(|c| format!("{:?}", (&c.plan, c.policy)));
            Ok((
                spec.eps,
                spec.num_partitions,
                spec.grid_factor,
                spec.kernel,
                faults,
            ))
        });
        built.map_err(|e| e.message.replace("'--", "'").replacen("--", "", 1))
    }

    fn via_queue(pairs: &[(&str, &str)]) -> Built {
        let tokens: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let tenant: TenantSpec = parse_queue(&format!("job t {}", tokens.join(" ")))
            .map_err(|e| e.message)?
            .remove(0);
        let opts = Options {
            faults: tenant.faults.clone(),
            max_attempts: tenant.max_attempts,
            ..Options::default()
        };
        let faults = opts
            .fault_setup(tenant.fault_seed, false)?
            .map(|setup| format!("{setup:?}"));
        let kernel = tenant.kernel;
        Ok((
            tenant.eps,
            tenant.partitions,
            tenant.grid_factor,
            kernel,
            faults,
        ))
    }

    mod shared_options {
        use super::*;
        use proptest::prelude::*;

        const EPS: &[&str] = &["0.5", "2", "1e-3", "0", "-1", "nan", "inf", "abc"];
        const PARTITIONS: &[&str] = &["8", "1", "0", "-3", "many"];
        const GRID_FACTOR: &[&str] = &["2", "1", "3.5", "0.5", "nan", "fine"];
        const KERNEL: &[&str] = &["auto", "plane-sweep", "grid-bucket", "turbo"];
        const FAULTS: &[&str] = &["p=0.2", "chaos", "p=0.1,slow:1=2.0", "gremlins"];
        // Valid only: the fault seed is `--seed` on `join` but `fault-seed`
        // in a queue line, so its errors name different options.
        const SEED: &[&str] = &["3", "11", "0"];
        const MAX_ATTEMPTS: &[&str] = &["3", "1", "0", "x"];

        proptest! {
            /// `--name v` on the command line and `name=v` in a queue line
            /// build the same spec and fault setup, or fail with the same
            /// text but for the `--`.
            #[test]
            fn flags_and_queue_keys_agree(
                picks in (0..EPS.len(), 0..PARTITIONS.len(), 0..GRID_FACTOR.len(),
                          0..KERNEL.len(), 0..FAULTS.len(), 0..SEED.len(),
                          0..MAX_ATTEMPTS.len()),
                order in any::<u64>(),
            ) {
                let (e, p, g, k, f, s, m) = picks;
                let mut pairs = vec![
                    ("eps", EPS[e]),
                    ("partitions", PARTITIONS[p]),
                    ("grid-factor", GRID_FACTOR[g]),
                    ("kernel", KERNEL[k]),
                    ("faults", FAULTS[f]),
                    ("fault-seed", SEED[s]),
                    ("max-attempts", MAX_ATTEMPTS[m]),
                ];
                // Either front end reports the first bad value it reads.
                let by = (order % pairs.len() as u64) as usize;
                pairs.rotate_left(by);
                prop_assert_eq!(via_flags(&pairs), via_queue(&pairs));
            }
        }
    }
}
