//! `asj-benchmark`: one end-to-end + per-layer benchmark for `asj join` and
//! `asj serve`. See README.md for workloads, metrics and how to read them.

mod compare;
mod json;
mod measure;
mod metrics;
mod probe;
mod proc;
mod report;
mod stats;
mod trace;
mod workload;

use json::Json;
use measure::{measure, Measurement};
use metrics::{END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Env, Scale, Workload, WORKLOADS};

pub const SCHEMA: &str = "asj-benchmark/1";
/// `run`'s default for `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "\
usage:
  asj-benchmark run     [--seed N] [--seconds S] [--out FILE] [--smoke]
      every workload, end to end and per layer; prints each metric with its
      unit and writes the same as JSON
  asj-benchmark bench   --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      one workload; the last stdout line is one JSON object (--trace 0: the
      end-to-end metrics, --trace 1: the per-layer metrics)
  asj-benchmark layers  [--seed N] [--smoke]
      only the in-process layer probe, on every workload's inputs
  asj-benchmark compare A.json B.json
      applies BENCHMARK.json's bounds to two `run` outputs; exits 1 on a regression
workloads: join_dense join_skew_spill serve_mem serve_durable";

/// The repository root: this package lives in `<root>/benchmark`.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
}

pub fn benchmark_json() -> PathBuf {
    repo_root().join("BENCHMARK.json")
}

/// Builds the shipped CLI from source into the target directory this binary
/// itself runs from, and returns `(asj, scratch root)`. A fresh build is a
/// no-op; the time is not part of any metric.
fn ensure_program() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot tell the target directory from the harness's own path")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--bin", "asj", "--manifest-path"])
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err("cargo build --release --bin asj failed".into());
    }
    Ok((
        target.join("release").join("asj"),
        target.join("asj-benchmark"),
    ))
}

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => drop(flags.insert("smoke".to_string(), String::new())),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    /// `--seed`: any integer names an input set (a negative one by its bit
    /// pattern), so no seed a caller picks can fail.
    fn seed(&self, default: Option<u64>) -> Result<u64, String> {
        match self.flags.get("seed") {
            Some(v) => v
                .parse::<u64>()
                .or_else(|_| v.parse::<i64>().map(|n| n as u64))
                .map_err(|_| format!("--seed: bad value '{v}'")),
            None => default.ok_or_else(|| "--seed is required".to_string()),
        }
    }

    fn scale(&self) -> Scale {
        if self.flags.contains_key("smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn env_for(workload: &Workload, asj: &Path, scratch: &Path, scale: Scale) -> Env {
    Env {
        asj: asj.to_path_buf(),
        dir: scratch.join(workload.name),
        scale,
    }
}

fn print_measurement(m: &Measurement, bounds: &[(String, bool, f64)]) {
    println!("== {} ({}) ==", m.workload, m.input);
    println!("reference: {}", m.reference);
    for ((name, s), (_, unit, _)) in m.end_to_end.iter().zip(END_TO_END) {
        let bound = bounds
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, b)| *b);
        // A timing whose own spread exceeds its bound cannot resolve a
        // regression of that size.
        let noisy = if bound.is_some_and(|b| s.spread() > b) {
            "  noisy"
        } else {
            ""
        };
        println!(
            "{name:<38} {:>16.4} {unit:<7} median {:.4} q1 {:.4} q3 {:.4} n {}{noisy}",
            s.value, s.median, s.q1, s.q3, s.n
        );
    }
    println!(
        "{:<38} {:>16.4} {:<7} {} of {} children",
        "failed_share",
        m.failed as f64 / m.attempted as f64,
        "ratio",
        m.failed,
        m.attempted
    );
    for ((name, value), (_, unit)) in m.per_layer.iter().zip(PER_LAYER) {
        println!("{name:<38} {value:>16.4} {unit}");
    }
    for problem in &m.problems {
        println!("PROBLEM: {problem}");
    }
}

fn measurement_json(m: &Measurement) -> Json {
    Json::obj([
        ("name", Json::Str(m.workload.into())),
        ("input", Json::Str(m.input.clone())),
        ("reference", Json::Str(m.reference.clone())),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        (
            "failed_share",
            Json::Num(m.failed as f64 / m.attempted as f64),
        ),
        (
            "problems",
            Json::Arr(m.problems.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "end_to_end",
            Json::obj(
                m.end_to_end
                    .iter()
                    .zip(END_TO_END)
                    .map(|((name, s), (_, unit, _))| {
                        (
                            *name,
                            Json::obj([
                                ("unit", Json::Str(unit.into())),
                                ("value", Json::Num(s.value)),
                                ("median", Json::Num(s.median)),
                                ("q1", Json::Num(s.q1)),
                                ("q3", Json::Num(s.q3)),
                                ("n", Json::Num(s.n as f64)),
                            ]),
                        )
                    }),
            ),
        ),
        (
            "per_layer",
            Json::obj(
                m.per_layer
                    .iter()
                    .zip(PER_LAYER)
                    .map(|((name, value), (_, unit))| {
                        (
                            *name,
                            Json::obj([
                                ("unit", Json::Str(unit.into())),
                                ("value", Json::Num(*value)),
                            ]),
                        )
                    }),
            ),
        ),
    ])
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed(Some(1))?;
    let scale = args.scale();
    // Smoke stops at its minimum repetitions: it exercises the harness, it
    // does not measure.
    let seconds: f64 = args.get(
        "seconds",
        Some(if scale == Scale::Smoke {
            0.0
        } else {
            DEFAULT_SECONDS
        }),
    )?;
    let bounds = compare::bounds(&load(&benchmark_json())?)?;
    let (asj, scratch) = ensure_program()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!("asj-benchmark run: scale {}, seed {seed}, {nproc} host threads, one child at a time (closed loop)", scale.name());
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        let env = env_for(workload, &asj, &scratch, scale);
        results.push(measure(workload, &env, seed, seconds, true)?);
    }
    // Every child of every workload has been timed; only now the probes,
    // which grow this process (see `Measurement::probe_layers`).
    for (m, workload) in results.iter_mut().zip(&WORKLOADS) {
        m.probe_layers()?;
        println!("\n{}: {}", workload.name, workload.why);
        print_measurement(m, &bounds);
    }
    let out = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("scale", Json::Str(scale.name().into())),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "workloads",
            Json::Arr(results.iter().map(measurement_json).collect()),
        ),
    ]);
    let path = match args.flags.get("out") {
        Some(path) => PathBuf::from(path),
        None => scratch.join(format!("run-{}-seed{seed}.json", scale.name())),
    };
    std::fs::write(&path, out.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(if results.iter().all(Measurement::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_bench(args: &Args) -> Result<ExitCode, String> {
    let name: String = args.get("workload", None)?;
    let workload = workload::by_name(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = args.seed(None)?;
    let seconds: f64 = args.get("seconds", None)?;
    let layers = match args.get::<u8>("trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: bad value '{other}'")),
    };
    let (asj, scratch) = ensure_program()?;
    let env = env_for(workload, &asj, &scratch, args.scale());
    let mut m = measure(workload, &env, seed, seconds, layers)?;
    m.probe_layers()?;
    for problem in &m.problems {
        eprintln!("PROBLEM: {problem}");
    }
    let value =
        |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]);
    let metrics = if layers {
        Json::obj(
            m.per_layer
                .iter()
                .zip(PER_LAYER)
                .map(|((name, v), (_, unit))| (*name, value(*v, unit))),
        )
    } else {
        Json::obj(
            m.end_to_end
                .iter()
                .zip(END_TO_END)
                .map(|((name, s), (_, unit, _))| (*name, value(s.value, unit))),
        )
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(m.correct())),
            ("attempted", Json::Num(m.attempted as f64)),
            ("failed", Json::Num(m.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(if m.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_layers(args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed(Some(1))?;
    let (asj, scratch) = ensure_program()?;
    for workload in &WORKLOADS {
        let env = env_for(workload, &asj, &scratch, args.scale());
        let (prepared, _) = workload.prepare(&env, seed)?;
        println!("\n== {} ({}) ==", workload.name, prepared.input);
        let probed = probe::run(&prepared.probe, &env.dir)?;
        for (name, unit) in PER_LAYER {
            if let Some(value) = probed.get(name) {
                println!("{name:<38} {value:>16.4} {unit}");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let regressed = compare::compare(
        &load(&benchmark_json())?,
        &load(Path::new(a))?,
        &load(Path::new(b))?,
    )?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        None => Err("no subcommand".to_string()),
        Some((sub, rest)) => Args::parse(rest).and_then(|args| match sub.as_str() {
            "run" => cmd_run(&args),
            "bench" => cmd_bench(&args),
            "layers" => cmd_layers(&args),
            "compare" => cmd_compare(&args),
            other => Err(format!("unknown subcommand '{other}'")),
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::from(2)
    })
}
