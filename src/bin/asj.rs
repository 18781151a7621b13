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
    read_points_csv_partitions, write_points_csv, DatasetSpec, GenKind, PAPER_BBOX,
};
use adaptive_spatial_join::engine::{
    clean_orphaned_spills, set_spill_dir, Attrs, Dataset, Journal, Lane, SchedPolicy,
};
use adaptive_spatial_join::geom::Rect;
use adaptive_spatial_join::join::{
    knn_join, self_join, Algorithm, JoinError, JoinOutput, JoinSpec, LocalKernel, Pairs,
    PartitionedPoints, Record,
};
use adaptive_spatial_join::prelude::*;
use adaptive_spatial_join::serve::{
    parse_bytes, parse_queue, run_queue, solo_outcome, summary_line, RecoveryOptions, ServeError,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.usage => {
            eprintln!("error: {}", e.message);
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(1)
        }
    }
}

/// Why a command stopped. What a corrected command line or queue file fixes
/// is a usage error (the error line, then [`USAGE`], exit 2) — and so is any
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
            // Name the flag the spec field or argument came from.
            JoinError::InvalidSpec { field, reason } => {
                let flag = match field {
                    "eps" => "--eps",
                    "grid_factor" => "--grid-factor",
                    "num_partitions" => "--partitions",
                    "k" => "--k",
                    other => other,
                };
                format!("{flag} {reason}").into()
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

const USAGE: &str = "\
usage:
  asj generate  --kind gaussian|hydrography|parks|uniform --n N --out FILE
                [--seed S]
  asj join      --r FILE --s FILE --eps E [--algo ALGO] [--nodes N]
                [--partitions P] [--grid-factor F] [--kernel K] [--out FILE]
                [--trace FILE] [--trace-format chrome|jsonl]
                [--faults SPEC] [--seed S] [--max-attempts N] [--speculation]
                [--memory-budget B]
  asj self-join --input FILE --eps E [--nodes N] [--partitions P] [--kernel K]
                [--trace FILE] [--trace-format chrome|jsonl]
                [--faults SPEC] [--seed S] [--max-attempts N] [--speculation]
                [--memory-budget B]
  asj knn       --r FILE --s FILE --k K --eps E [--nodes N] [--partitions P]
  asj range     --input FILE --rect x0,y0,x1,y1 --eps E [--nodes N]
  asj heatmap   --input FILE [--width W] [--height H]
  asj serve     --jobs FILE [--policy fair-share|fifo] [--nodes N]
                [--memory-budget B] [--verify]
                [--journal FILE] [--checkpoint-dir DIR] [--recover]
                [--compact-every N]
                [--trace FILE] [--trace-format chrome|jsonl]
  asj journal   compact FILE

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
      calibrated cost model.
--trace records a dual-clock execution trace; the chrome format opens in
Perfetto (https://ui.perfetto.dev) or chrome://tracing.
--faults injects deterministic failures, e.g. 'chaos' or
'p=0.02,slow:1=3.0,lose:2@5' (seeded by --seed); the env vars ASJ_FAULTS /
ASJ_FAULT_SEED do the same without flags. --speculation re-executes
straggler tasks on another node. A fault clause naming a stage the job never
runs is reported as a warning. --memory-budget caps simulated per-node
memory (bytes; k/m/g binary suffixes accepted) — shuffle buckets that would
exceed it spill to temporary files and are re-read at reduce time, leaving
results byte-identical. The join report's 'peak memory' is that governor's
simulated per-node peak (shuffle buckets only); 'peak RSS' is the whole
process's resident-set high-water mark.
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

/// Flags that take no value: their presence means "on".
const BOOL_FLAGS: &[&str] = &["speculation", "verify", "recover"];

/// Flags [`build_spec`] reads: cluster shape, kernel, tracing, faults, budget.
const SPEC_FLAGS: &[&str] = &[
    "eps",
    "nodes",
    "partitions",
    "grid-factor",
    "kernel",
    "trace",
    "trace-format",
    "memory-budget",
    "faults",
    "seed",
    "max-attempts",
    "speculation",
];

/// Parsed `--flag value` options after subcommand `cmd`, which reads the
/// flags in `known`; anything else is an error, so a typo or a removed
/// option never runs with the flag silently dropped. Flags listed in
/// [`BOOL_FLAGS`] are valueless switches recorded as `"true"`.
fn parse_flags(
    cmd: &str,
    known: &[&str],
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        if !known.contains(&key) {
            return Err(format!("unknown flag '--{key}' for 'asj {cmd}'"));
        }
        if BOOL_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for --{key}"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required --{key}"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: '{s}'"))
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err("no subcommand".into());
    };
    if cmd == "journal" {
        // Positional operands (`journal compact FILE`), not --flags.
        return cmd_journal(&args[1..]);
    }
    // Each subcommand with the flags it reads itself and whether it also
    // builds a cluster through `build_spec`; all accept `--spill-dir`.
    type Handler = fn(&HashMap<String, String>) -> Result<(), CliError>;
    let (handler, own, spec): (Handler, &[&str], bool) = match cmd.as_str() {
        "generate" => (cmd_generate, &["kind", "n", "out", "seed"], false),
        "join" => (cmd_join, &["r", "s", "algo", "out"], true),
        "self-join" => (cmd_self_join, &["input", "out"], true),
        "knn" => (cmd_knn, &["r", "s", "k"], true),
        "range" => (cmd_range, &["input", "rect"], true),
        "heatmap" => (cmd_heatmap, &["input", "width", "height"], false),
        "serve" => (
            cmd_serve,
            &[
                "jobs",
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
        other => return Err(format!("unknown subcommand '{other}'").into()),
    };
    let mut known = own.to_vec();
    known.push("spill-dir");
    if spec {
        known.extend_from_slice(SPEC_FLAGS);
    }
    let flags = parse_flags(cmd, &known, &args[1..])?;
    if let Some(dir) = flags.get("spill-dir") {
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
    handler(&flags)
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let kind: GenKind = required(flags, "kind")?.parse()?;
    let n: usize = parse(required(flags, "n")?, "--n")?;
    let out = PathBuf::from(required(flags, "out")?);
    let seed: u64 = flags.get("seed").map_or(Ok(7), |s| parse(s, "--seed"))?;
    let spec = DatasetSpec {
        name: "cli",
        kind,
        cardinality: n,
        seed,
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    };
    let points = spec.points();
    write_points_csv(&out, &points)
        .map_err(|e| CliError::runtime(format!("writing {}: {e}", out.display())))?;
    println!("wrote {} points to {}", points.len(), out.display());
    Ok(())
}

/// Reads `path` straight into the input partitions a join runs on.
fn load_records(path: &str) -> Result<Dataset<Record>, CliError> {
    read_points_csv_partitions(
        std::path::Path::new(path),
        JoinSpec::INPUT_PARTITIONS,
        Record::new,
    )
    .map(Dataset::from_partitions)
    .map_err(|e| CliError::runtime(format!("reading {path}: {e}")))
}

/// Every record of `input`, partition by partition.
fn records(input: &Dataset<Record>) -> impl Iterator<Item = &Record> {
    input.partitions().iter().flatten()
}

fn bbox_of<'a>(records: impl Iterator<Item = &'a Record>) -> Rect {
    let mut bbox = Rect::empty();
    for rec in records {
        bbox.extend(rec.point);
    }
    bbox
}

/// Tracing requested on the command line: the recorder attached to the
/// cluster plus where to write the rendered trace when the job is done.
struct TraceSink {
    recorder: Recorder,
    path: Option<PathBuf>,
    format: TraceFormat,
}

impl TraceSink {
    fn from_flags(flags: &HashMap<String, String>, nodes: usize) -> Result<TraceSink, String> {
        let path = flags.get("trace").map(PathBuf::from);
        let format: TraceFormat = flags
            .get("trace-format")
            .map_or(Ok(TraceFormat::Chrome), |s| {
                s.parse().map_err(|e: String| e)
            })?;
        // Without --trace the recorder stays no-op: zero overhead, and the
        // join's outputs and metrics are bit-identical to an untraced run.
        let recorder = if path.is_some() {
            Recorder::for_nodes(nodes)
        } else {
            Recorder::noop()
        };
        Ok(TraceSink {
            recorder,
            path,
            format,
        })
    }

    fn write(&self) -> Result<(), CliError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let trace = self.recorder.snapshot();
        trace
            .write_to(path, self.format)
            .map_err(|e| CliError::runtime(format!("writing {}: {e}", path.display())))?;
        println!(
            "wrote trace          : {} ({} spans, {} events)",
            path.display(),
            trace.spans.len(),
            trace.events.len()
        );
        Ok(())
    }
}

/// The cluster `--nodes`, `--trace` and `--memory-budget` describe. Zeroes
/// are rejected here, before `ClusterConfig` asserts on them.
fn build_cluster(flags: &HashMap<String, String>) -> Result<(Cluster, TraceSink), String> {
    let nodes: usize = flags.get("nodes").map_or(Ok(12), |s| parse(s, "--nodes"))?;
    if nodes == 0 {
        return Err("--nodes must be positive".into());
    }
    let trace = TraceSink::from_flags(flags, nodes)?;
    let mut cluster = Cluster::new(ClusterConfig::new(nodes)).with_recorder(trace.recorder.clone());
    if let Some(budget) = flags.get("memory-budget") {
        match parse_bytes(budget).map_err(|e| format!("--memory-budget: {e}"))? {
            0 => return Err("--memory-budget must be positive".into()),
            bytes => cluster = cluster.with_memory_budget(bytes),
        }
    }
    Ok((cluster, trace))
}

fn build_spec(
    flags: &HashMap<String, String>,
    bbox: Rect,
) -> Result<(Cluster, JoinSpec, TraceSink), CliError> {
    let eps: f64 = parse(required(flags, "eps")?, "--eps")?;
    let partitions: usize = flags
        .get("partitions")
        .map_or(Ok(96), |s| parse(s, "--partitions"))?;
    let factor: f64 = flags
        .get("grid-factor")
        .map_or(Ok(2.0), |s| parse(s, "--grid-factor"))?;
    let kernel: LocalKernel = flags
        .get("kernel")
        .map_or(Ok(LocalKernel::Auto), |s| s.parse())?;
    let (mut cluster, trace) = build_cluster(flags)?;
    if let Some((plan, policy)) = fault_setup(flags)? {
        cluster = cluster.with_fault_policy(plan, policy);
    }
    // Pad the observed bbox so border points still get full neighborhoods.
    let spec = JoinSpec::new(bbox.expand(eps), eps)
        .with_partitions(partitions)
        .with_grid_factor(factor)
        .with_kernel(kernel);
    Ok((cluster, spec, trace))
}

/// Fault plan and retry policy requested by `--faults` / `--seed` /
/// `--max-attempts` / `--speculation`, falling back to the `ASJ_FAULTS` /
/// `ASJ_FAULT_SEED` environment variables. `None` leaves the cluster
/// single-attempt and fail-stop.
fn fault_setup(
    flags: &HashMap<String, String>,
) -> Result<Option<(FaultPlan, RetryPolicy)>, String> {
    let seed: u64 = flags.get("seed").map_or(Ok(7), |s| parse(s, "--seed"))?;
    let plan = match flags.get("faults") {
        Some(spec) => Some(FaultPlan::parse(spec, seed)?),
        None => FaultPlan::from_env(),
    };
    let mut policy = RetryPolicy::default();
    if let Some(n) = flags.get("max-attempts") {
        match parse(n, "--max-attempts")? {
            0 => return Err("--max-attempts must be positive".into()),
            attempts => policy = policy.with_max_attempts(attempts),
        }
    }
    if flags.contains_key("speculation") {
        policy = policy.with_speculation(true);
    }
    let policy_requested = flags.contains_key("max-attempts") || flags.contains_key("speculation");
    match plan {
        Some(plan) => Ok(Some((plan, policy))),
        // A policy without a plan still applies (e.g. --speculation on a
        // fault-free run).
        None if policy_requested => Ok(Some((FaultPlan::none(), policy))),
        None => Ok(None),
    }
}

/// Prints the metrics report of a join. `ingest` is the time spent reading the
/// inputs before it: together with `output time` (printed by [`finish_join`])
/// it accounts for the part of the process's run that `wall time` — the join
/// alone — does not cover.
fn report(out: &JoinOutput, ingest: Duration) {
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
    println!("ingest time          : {:.3} s", ingest.as_secs_f64());
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

/// `"00"` to `"99"`: the decimal writer below emits two digits per division.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// Room for one `a,b\n` line: a `u64` has at most 20 digits.
const PAIR_LINE: usize = 20 + 1 + 20 + 1;

/// Writes `n` in decimal, as `{n}` formats it, so that it ends right before
/// `line[end]`; returns the index of its first digit.
fn decimal_before(line: &mut [u8; PAIR_LINE], mut end: usize, mut n: u64) -> usize {
    while n >= 100 {
        end -= 2;
        line[end..end + 2].copy_from_slice(&DIGIT_PAIRS[(n % 100) as usize]);
        n /= 100;
    }
    if n >= 10 {
        end -= 2;
        line[end..end + 2].copy_from_slice(&DIGIT_PAIRS[n as usize]);
    } else {
        end -= 1;
        line[end] = b'0' + n as u8;
    }
    end
}

/// Writes the pairs of every chunk, in order, to `out` as `a,b` lines,
/// formatted by hand into one block buffer that is flushed every ~64 KiB: a
/// million lines through `fmt` cost more than the join that found them.
fn write_pair_lines<'a>(
    out: &mut impl Write,
    chunks: impl IntoIterator<Item = &'a [(u64, u64)]>,
) -> std::io::Result<()> {
    const BLOCK: usize = 64 << 10;
    let mut block = Vec::with_capacity(BLOCK + PAIR_LINE);
    let mut line = [b'\n'; PAIR_LINE];
    for &(a, b) in chunks.into_iter().flatten() {
        let comma = decimal_before(&mut line, PAIR_LINE - 1, b) - 1;
        line[comma] = b',';
        let start = decimal_before(&mut line, comma, a);
        block.extend_from_slice(&line[start..]);
        if block.len() >= BLOCK {
            out.write_all(&block)?;
            block.clear();
        }
    }
    out.write_all(&block)
}

fn write_pairs(path: &str, pairs: &Pairs) -> Result<(), CliError> {
    let failed = |what: &str, e: std::io::Error| CliError::runtime(format!("{what} {path}: {e}"));
    let mut file = std::fs::File::create(path).map_err(|e| failed("creating", e))?;
    write_pair_lines(&mut file, pairs.chunks()).map_err(|e| failed("writing", e))?;
    println!("wrote {} pairs to {path}", pairs.len());
    Ok(())
}

/// The shared tail of `join` / `self-join`: the report, then the trace and
/// pair files, then how long writing those took, and last the process's
/// peak RSS, which the output may have set.
fn finish_join(
    flags: &HashMap<String, String>,
    out: &JoinOutput,
    ingest: Duration,
    trace: &TraceSink,
) -> Result<(), CliError> {
    report(out, ingest);
    let output = Instant::now();
    trace.write()?;
    if let Some(path) = flags.get("out") {
        write_pairs(path, &out.pairs)?;
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

fn cmd_join(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let ingest = Instant::now();
    let r = load_records(required(flags, "r")?)?;
    let s = load_records(required(flags, "s")?)?;
    let ingest = ingest.elapsed();
    let algo = Algorithm::from_token(flags.get("algo").map_or("lpib", String::as_str))?;
    let bbox = bbox_of(records(&r).chain(records(&s)));
    if bbox.is_empty() {
        return Err("inputs contain no points".into());
    }
    let (cluster, mut spec, trace) = build_spec(flags, bbox)?;
    if flags.get("out").is_none() {
        spec = spec.counting_only();
    }
    let out = algo.try_run(&cluster, &spec, r, s)?;
    warn_unreached_fault_stages(&cluster);
    finish_join(flags, &out, ingest, &trace)
}

fn cmd_self_join(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let ingest = Instant::now();
    let input = load_records(required(flags, "input")?)?;
    let ingest = ingest.elapsed();
    let bbox = bbox_of(records(&input));
    if bbox.is_empty() {
        return Err("input contains no points".into());
    }
    let (cluster, mut spec, trace) = build_spec(flags, bbox)?;
    if flags.get("out").is_none() {
        spec = spec.counting_only();
    }
    let out = self_join(&cluster, &spec, input)?;
    warn_unreached_fault_stages(&cluster);
    finish_join(flags, &out, ingest, &trace)
}

fn cmd_knn(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let r = load_records(required(flags, "r")?)?;
    let s = load_records(required(flags, "s")?)?;
    let k: usize = parse(required(flags, "k")?, "--k")?;
    let bbox = bbox_of(records(&r).chain(records(&s)));
    if bbox.is_empty() {
        return Err("inputs contain no points".into());
    }
    let (cluster, spec, _trace) = build_spec(flags, bbox)?;
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
    Ok(())
}

fn cmd_range(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let input = load_records(required(flags, "input")?)?;
    let rect_spec = required(flags, "rect")?;
    let nums: Vec<f64> = rect_spec
        .split(',')
        .map(|v| parse(v.trim(), "--rect coordinate"))
        .collect::<Result<_, String>>()?;
    if nums.len() != 4 {
        return Err("--rect needs exactly x0,y0,x1,y1".into());
    }
    let region = Rect::new(
        nums[0].min(nums[2]),
        nums[1].min(nums[3]),
        nums[0].max(nums[2]),
        nums[1].max(nums[3]),
    );
    let bbox = bbox_of(records(&input));
    if bbox.is_empty() {
        return Err("input contains no points".into());
    }
    let (cluster, spec, _trace) = build_spec(flags, bbox)?;
    let table = PartitionedPoints::build(&cluster, &spec, input)?;
    let (ids, _) = table.range_query(&cluster, region)?;
    println!("points in region     : {}", ids.len());
    for id in ids.iter().take(10) {
        println!("  #{id}");
    }
    if ids.len() > 10 {
        println!("  ... and {} more", ids.len() - 10);
    }
    Ok(())
}

/// ASCII density map of a dataset — a quick look at the skew the adaptive
/// algorithms exploit.
fn cmd_heatmap(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let input = load_records(required(flags, "input")?)?;
    if input.is_empty() {
        return Err("input contains no points".into());
    }
    let width: usize = flags.get("width").map_or(Ok(64), |s| parse(s, "--width"))?;
    let height: usize = flags
        .get("height")
        .map_or(Ok(24), |s| parse(s, "--height"))?;
    if width == 0 || height == 0 {
        return Err("--width/--height must be positive".into());
    }
    let bbox = bbox_of(records(&input));
    let mut counts = vec![0u64; width * height];
    for rec in records(&input) {
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
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let path = required(flags, "jobs")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("reading {path}: {e}")))?;
    let tenants = parse_queue(&text).map_err(|e| e.to_string())?;
    if tenants.is_empty() {
        return Err(format!("no jobs in {path}").into());
    }
    let policy = match flags.get("policy") {
        Some(s) => SchedPolicy::parse(s)
            .ok_or_else(|| format!("unknown policy '{s}' (fair-share | fifo)"))?,
        None => SchedPolicy::FairShare,
    };
    let (cluster, trace) = build_cluster(flags)?;
    let compact_every = flags
        .get("compact-every")
        .map(|s| parse::<u64>(s, "--compact-every"))
        .transpose()?;
    if compact_every == Some(0) {
        return Err("--compact-every must be positive".into());
    }
    let recovery = RecoveryOptions {
        journal: flags.get("journal").map(PathBuf::from),
        checkpoint_dir: flags.get("checkpoint-dir").map(PathBuf::from),
        recover: flags.contains_key("recover"),
        compact_every,
    };
    if recovery.recover && recovery.journal.is_none() {
        return Err("--recover requires --journal FILE".into());
    }
    if recovery.compact_every.is_some() && recovery.journal.is_none() {
        return Err("--compact-every requires --journal FILE".into());
    }
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
    if flags.contains_key("verify") {
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

    #[test]
    fn flags_parse_pairs() {
        let args: Vec<String> = ["--eps", "0.5", "--algo", "diff"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags("join", &["eps", "algo"], &args).unwrap();
        assert_eq!(f["eps"], "0.5");
        assert_eq!(f["algo"], "diff");
    }

    #[test]
    fn empty_inputs_are_reported_not_joined() {
        let path = std::env::temp_dir().join(format!("asj-cli-empty-{}.csv", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let file = path.to_str().unwrap();
        let flags = [("r", file), ("s", file), ("eps", "0.5")]
            .map(|(flag, value)| (flag.to_string(), value.to_string()));
        let err = cmd_join(&HashMap::from(flags)).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.message, "inputs contain no points");
    }

    #[test]
    fn pair_lines_are_what_fmt_writes() {
        // Digit-count boundaries, enough lines to cross block flushes, and
        // chunks (one empty) that end inside a block.
        let mut pairs = vec![(0, 9), (10, 99), (100, u64::MAX), (u64::MAX, 0)];
        pairs.extend((0..20_000u64).map(|i| (i * 7_919, u64::MAX / (i + 1))));
        let mut got = Vec::new();
        let chunks = pairs.chunks(7_001).chain([&[][..]]);
        write_pair_lines(&mut got, chunks).unwrap();
        let want: String = pairs.iter().map(|(a, b)| format!("{a},{b}\n")).collect();
        assert!(want.len() > 3 * (64 << 10));
        assert!(got == want.as_bytes());
    }

    #[test]
    fn flags_reject_missing_value_and_bad_prefix() {
        assert!(parse_flags("join", &["eps"], &["--eps".to_string()]).is_err());
        assert!(parse_flags("join", &["eps"], &["eps".to_string(), "1".to_string()]).is_err());
    }

    #[test]
    fn bool_flags_need_no_value() {
        let args: Vec<String> = ["--speculation", "--eps", "0.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags("join", SPEC_FLAGS, &args).unwrap();
        assert_eq!(f["speculation"], "true");
        assert_eq!(f["eps"], "0.5");
    }

    #[test]
    fn fault_setup_reads_flags() {
        let flags: HashMap<String, String> = [
            ("faults", "p=0.5,slow:1=2.0"),
            ("seed", "3"),
            ("max-attempts", "6"),
            ("speculation", "true"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let (plan, policy) = fault_setup(&flags).unwrap().expect("faults requested");
        assert!(plan.is_active());
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.slowdown(1), 2.0);
        assert_eq!(policy.max_attempts, 6);
        assert!(policy.speculation);

        let bad: HashMap<String, String> = [("faults".to_string(), "gremlins".to_string())].into();
        assert!(fault_setup(&bad).is_err());

        // A bare retry policy routes through recovery with an inert plan.
        // (Skipped when the chaos env vars are set, e.g. in the CI
        // fault-matrix job, where from_env() supplies an active plan.)
        if std::env::var("ASJ_FAULTS").is_err() && std::env::var("ASJ_FAULT_SEED").is_err() {
            let spec_only: HashMap<String, String> =
                [("speculation".to_string(), "true".to_string())].into();
            let (plan, policy) = fault_setup(&spec_only).unwrap().expect("policy requested");
            assert!(!plan.is_active());
            assert!(policy.speculation);
        }
    }

    #[test]
    fn algorithm_names_resolve() {
        // lpib-dedup is listed in USAGE as a recovery-stress shape: resolvable
        // by name even though it stays out of Algorithm::ALL.
        for algo in Algorithm::ALL.into_iter().chain([Algorithm::LpibDedup]) {
            assert!(
                USAGE.contains(algo.token()),
                "'{}' must be discoverable from --help",
                algo.token()
            );
        }
    }

    #[test]
    fn unknown_flags_are_typed_errors_naming_flag_and_subcommand() {
        let arg = |s: &str| s.to_string();
        // Caught at parse time, before any file is opened: the paths do not
        // exist and must not mask the usage error.
        let join = |extra: [&str; 2]| {
            let mut args = vec![
                arg("join"),
                arg("--r"),
                arg("/nonexistent/r.csv"),
                arg("--s"),
                arg("/nonexistent/s.csv"),
                arg("--eps"),
                arg("0.4"),
            ];
            args.extend(extra.map(arg));
            run(&args).unwrap_err().message
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
        let err = run(&[
            arg("serve"),
            arg("--jobs"),
            arg("/nonexistent/jobs.txt"),
            arg("--shuffle"),
            arg("radix"),
        ])
        .unwrap_err();
        assert_eq!(err.message, "unknown flag '--shuffle' for 'asj serve'");
        assert!(err.usage);
        // A flag of one subcommand is unknown to another.
        let err = run(&[arg("heatmap"), arg("--eps"), arg("1")]).unwrap_err();
        assert_eq!(err.message, "unknown flag '--eps' for 'asj heatmap'");
    }

    #[test]
    fn kernel_flag_selects_local_kernel() {
        let bbox = Rect::new(0.0, 0.0, 10.0, 10.0);
        let base: HashMap<String, String> = [("eps".to_string(), "0.5".to_string())].into();
        let (_, spec, _) = build_spec(&base, bbox).unwrap();
        assert_eq!(spec.kernel, LocalKernel::Auto, "auto is the default");
        for (name, kernel) in [
            ("nested-loop", LocalKernel::NestedLoop),
            ("plane-sweep", LocalKernel::PlaneSweep),
            ("grid-bucket", LocalKernel::GridBucket),
            ("auto", LocalKernel::Auto),
        ] {
            let mut flags = base.clone();
            flags.insert("kernel".to_string(), name.to_string());
            let (_, spec, _) = build_spec(&flags, bbox).unwrap();
            assert_eq!(spec.kernel, kernel, "--kernel {name}");
        }
        let mut bad = base.clone();
        bad.insert("kernel".to_string(), "quadratic".to_string());
        assert!(build_spec(&bad, bbox).is_err());
    }

    #[test]
    fn memory_budget_flag_parses_and_caps_the_cluster() {
        let bbox = Rect::new(0.0, 0.0, 10.0, 10.0);
        let base: HashMap<String, String> = [("eps".to_string(), "0.5".to_string())].into();
        let (cluster, _, _) = build_spec(&base, bbox).unwrap();
        assert_eq!(
            cluster.memory_accountant().budget(),
            None,
            "no flag leaves the accountant meter-only"
        );
        let mut flags = base.clone();
        flags.insert("memory-budget".to_string(), "64k".to_string());
        let (cluster, _, _) = build_spec(&flags, bbox).unwrap();
        assert_eq!(cluster.memory_accountant().budget(), Some(64 << 10));
        let mut bad = base;
        bad.insert("memory-budget".to_string(), "plenty".to_string());
        assert!(build_spec(&bad, bbox).is_err());
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
            assert!(USAGE.contains(kind.name()), "--kind {}", kind.name());
        }
        let flags: HashMap<String, String> = [("kind".to_string(), "what".to_string())].into();
        let err = cmd_generate(&flags).unwrap_err();
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

    fn asj(args: &[&str]) -> Result<(), CliError> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn out_of_range_flags_are_usage_errors_naming_the_flag() {
        let input = small_input("range");
        let join = |extra: &[&str]| {
            // A repeated flag overrides the earlier one.
            asj(&[
                &["join", "--r", &input, "--s", &input, "--eps", "0.5"],
                extra,
            ]
            .concat())
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

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn end_to_end_generate_and_join() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let r_path = dir.join(format!("asj-cli-r-{pid}.csv"));
        let s_path = dir.join(format!("asj-cli-s-{pid}.csv"));
        let out_path = dir.join(format!("asj-cli-out-{pid}.csv"));
        let arg = |s: &str| s.to_string();
        run(&[
            arg("generate"),
            arg("--kind"),
            arg("uniform"),
            arg("--n"),
            arg("500"),
            arg("--out"),
            arg(r_path.to_str().unwrap()),
        ])
        .unwrap();
        run(&[
            arg("generate"),
            arg("--kind"),
            arg("gaussian"),
            arg("--n"),
            arg("500"),
            arg("--seed"),
            arg("9"),
            arg("--out"),
            arg(s_path.to_str().unwrap()),
        ])
        .unwrap();
        run(&[
            arg("join"),
            arg("--r"),
            arg(r_path.to_str().unwrap()),
            arg("--s"),
            arg(s_path.to_str().unwrap()),
            arg("--eps"),
            arg("1.5"),
            arg("--nodes"),
            arg("4"),
            arg("--partitions"),
            arg("8"),
            arg("--memory-budget"),
            arg("4k"),
            arg("--out"),
            arg(out_path.to_str().unwrap()),
        ])
        .unwrap();
        let pairs = std::fs::read_to_string(&out_path).unwrap();
        assert!(pairs.lines().all(|l| l.split(',').count() == 2));
        run(&[
            arg("knn"),
            arg("--r"),
            arg(r_path.to_str().unwrap()),
            arg("--s"),
            arg(s_path.to_str().unwrap()),
            arg("--k"),
            arg("3"),
            arg("--eps"),
            arg("1.0"),
        ])
        .unwrap();
        run(&[
            arg("range"),
            arg("--input"),
            arg(r_path.to_str().unwrap()),
            arg("--rect"),
            arg("-100,30,-90,40"),
            arg("--eps"),
            arg("1.0"),
        ])
        .unwrap();
        run(&[
            arg("heatmap"),
            arg("--input"),
            arg(s_path.to_str().unwrap()),
            arg("--width"),
            arg("40"),
            arg("--height"),
            arg("12"),
        ])
        .unwrap();
        run(&[
            arg("self-join"),
            arg("--input"),
            arg(s_path.to_str().unwrap()),
            arg("--eps"),
            arg("0.8"),
        ])
        .unwrap();
        for p in [r_path, s_path, out_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn serve_runs_a_queue_file_with_verification() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jobs_path = dir.join(format!("asj-serve-jobs-{pid}.txt"));
        std::fs::write(
            &jobs_path,
            "# two tenants on one cluster\n\
             job alpha algo=lpib eps=0.5 n=600 partitions=8 seed=11\n\
             job beta algo=uni-r eps=0.3 n=900 partitions=8 seed=23 weight=2\n",
        )
        .unwrap();
        let arg = |s: &str| s.to_string();
        for policy in ["fair-share", "fifo"] {
            run(&[
                arg("serve"),
                arg("--jobs"),
                arg(jobs_path.to_str().unwrap()),
                arg("--policy"),
                arg(policy),
                arg("--nodes"),
                arg("4"),
                arg("--verify"),
            ])
            .unwrap_or_else(|e| panic!("serve --policy {policy}: {}", e.message));
        }
        let _ = std::fs::remove_file(jobs_path);
    }

    #[test]
    fn serve_journals_and_recovers_a_queue() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jobs_path = dir.join(format!("asj-serve-journal-jobs-{pid}.txt"));
        let journal_path = dir.join(format!("asj-serve-journal-{pid}.jsonl"));
        let ckpt_dir = dir.join(format!("asj-serve-journal-ckpt-{pid}"));
        std::fs::write(
            &jobs_path,
            "job alpha algo=lpib eps=0.5 n=600 partitions=8 seed=11\n\
             job beta algo=uni-r eps=0.3 n=900 partitions=8 seed=23 weight=2\n",
        )
        .unwrap();
        let arg = |s: &str| s.to_string();
        // First run writes the journal and checkpoints; second run replays it.
        // Both legs must succeed and the journal must survive in between.
        for recover in [false, true] {
            let mut args = vec![
                arg("serve"),
                arg("--jobs"),
                arg(jobs_path.to_str().unwrap()),
                arg("--nodes"),
                arg("4"),
                arg("--journal"),
                arg(journal_path.to_str().unwrap()),
                arg("--checkpoint-dir"),
                arg(ckpt_dir.to_str().unwrap()),
            ];
            if recover {
                args.push(arg("--recover"));
            }
            run(&args).unwrap_or_else(|e| panic!("serve recover={recover}: {}", e.message));
            assert!(journal_path.exists(), "journal written");
        }
        // --recover without a journal flag is a usage error, not a crash.
        let err = run(&[
            arg("serve"),
            arg("--jobs"),
            arg(jobs_path.to_str().unwrap()),
            arg("--recover"),
        ])
        .unwrap_err()
        .message;
        assert!(err.contains("--journal"), "{err}");
        let _ = std::fs::remove_file(jobs_path);
        let _ = std::fs::remove_file(journal_path);
        let _ = std::fs::remove_dir_all(ckpt_dir);
    }

    #[test]
    fn serve_compacts_the_journal_and_cli_compacts_offline() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jobs_path = dir.join(format!("asj-serve-compact-jobs-{pid}.txt"));
        let journal_path = dir.join(format!("asj-serve-compact-{pid}.jsonl"));
        let ckpt_dir = dir.join(format!("asj-serve-compact-ckpt-{pid}"));
        std::fs::write(
            &jobs_path,
            "job alpha algo=lpib eps=0.5 n=600 partitions=8 seed=11\n\
             job beta algo=uni-r eps=0.3 n=900 partitions=8 seed=23 weight=2\n",
        )
        .unwrap();
        let arg = |s: &str| s.to_string();
        run(&[
            arg("serve"),
            arg("--jobs"),
            arg(jobs_path.to_str().unwrap()),
            arg("--nodes"),
            arg("4"),
            arg("--journal"),
            arg(journal_path.to_str().unwrap()),
            arg("--checkpoint-dir"),
            arg(ckpt_dir.to_str().unwrap()),
            arg("--compact-every"),
            arg("1"),
        ])
        .expect("serve with --compact-every");
        // Retention GC: every tenant finished, so no stage checkpoints
        // survive the run.
        let leftovers = std::fs::read_dir(&ckpt_dir)
            .map(|rd| rd.count())
            .unwrap_or(0);
        assert_eq!(leftovers, 0, "finished tenants' checkpoints were GC'd");
        // Recovery after in-run compaction still replays every tenant.
        run(&[
            arg("serve"),
            arg("--jobs"),
            arg(jobs_path.to_str().unwrap()),
            arg("--nodes"),
            arg("4"),
            arg("--journal"),
            arg(journal_path.to_str().unwrap()),
            arg("--checkpoint-dir"),
            arg(ckpt_dir.to_str().unwrap()),
            arg("--recover"),
        ])
        .expect("recover after compaction");
        // Offline compaction shrinks (or keeps) the file and stays readable.
        let before = std::fs::metadata(&journal_path).unwrap().len();
        run(&[
            arg("journal"),
            arg("compact"),
            arg(journal_path.to_str().unwrap()),
        ])
        .expect("journal compact");
        let after = std::fs::metadata(&journal_path).unwrap().len();
        assert!(after <= before, "compaction never grows the journal");
        // Usage errors, not crashes.
        assert!(run(&[arg("journal")]).is_err());
        assert!(run(&[arg("journal"), arg("prune")]).is_err());
        let err = run(&[
            arg("serve"),
            arg("--jobs"),
            arg(jobs_path.to_str().unwrap()),
            arg("--compact-every"),
            arg("2"),
        ])
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
        std::fs::write(
            &jobs_path,
            "job hog algo=lpib eps=0.5 n=600 partitions=8 estimate=1g\n",
        )
        .unwrap();
        let arg = |s: &str| s.to_string();
        let err = run(&[
            arg("serve"),
            arg("--jobs"),
            arg(jobs_path.to_str().unwrap()),
            arg("--nodes"),
            arg("4"),
            arg("--memory-budget"),
            arg("1m"),
        ])
        .unwrap_err();
        assert!(err.message.contains("rejected"), "{}", err.message);
        assert!(!err.usage, "admission is decided at run time");

        std::fs::write(&jobs_path, "job broken n=100\n").unwrap();
        let err = run(&[
            arg("serve"),
            arg("--jobs"),
            arg(jobs_path.to_str().unwrap()),
        ])
        .unwrap_err()
        .message;
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
        let arg = |s: &str| s.to_string();
        run(&[
            arg("generate"),
            arg("--kind"),
            arg("uniform"),
            arg("--n"),
            arg("400"),
            arg("--out"),
            arg(r_path.to_str().unwrap()),
        ])
        .unwrap();
        run(&[
            arg("join"),
            arg("--r"),
            arg(r_path.to_str().unwrap()),
            arg("--s"),
            arg(r_path.to_str().unwrap()),
            arg("--eps"),
            arg("1.0"),
            arg("--nodes"),
            arg("3"),
            arg("--partitions"),
            arg("6"),
            arg("--trace"),
            arg(chrome_path.to_str().unwrap()),
        ])
        .unwrap();
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
        run(&[
            arg("self-join"),
            arg("--input"),
            arg(r_path.to_str().unwrap()),
            arg("--eps"),
            arg("1.0"),
            arg("--nodes"),
            arg("3"),
            arg("--partitions"),
            arg("6"),
            arg("--trace"),
            arg(jsonl_path.to_str().unwrap()),
            arg("--trace-format"),
            arg("jsonl"),
        ])
        .unwrap();
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(jsonl.lines().count() > 4);
        assert!(jsonl.lines().next().unwrap().contains("\"kind\":\"meta\""));
        assert!(jsonl.contains("\"kind\":\"span\""));
        for p in [r_path, chrome_path, jsonl_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn bad_trace_format_is_rejected() {
        let flags: HashMap<String, String> = [
            ("trace".to_string(), "t.json".to_string()),
            ("trace-format".to_string(), "xml".to_string()),
        ]
        .into_iter()
        .collect();
        assert!(TraceSink::from_flags(&flags, 2).is_err());
    }
}
