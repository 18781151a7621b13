//! One workload, measured: repeated set-up, a warm-up, timed repetitions of
//! the shipped CLI (one child at a time, tracing off), one traced child for
//! the exact counters and phases, and on request the in-process layer probe.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probe;
use crate::proc::ChildRun;
use crate::report::ServeReport;
use crate::stats::{median, Summary};
use crate::trace::{TraceSummary, PHASES};
use crate::workload::{Env, Observed, ProbeInput, Reference, Scale, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is repeated so `setup_s` is a median, not one draw.
const SETUPS: usize = 3;
/// Timed repetitions: at least this many, then more until `--seconds` is up.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 15;
const SMOKE_REPS: usize = 2;
/// Repetitions of the other serve variant for `engine.durability_overhead_s`.
const PAIRED_REPS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

pub struct Measurement {
    pub workload: &'static str,
    pub input: String,
    /// The reference answer every repetition reproduced.
    pub reference: String,
    /// Children run under a correctness check, and how many failed it.
    pub attempted: u64,
    pub failed: u64,
    /// Failed repetitions and cross-checks, in words.
    pub problems: Vec<String>,
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Empty until [`Measurement::probe_layers`] has run.
    pub per_layer: Vec<(&'static str, f64)>,
    /// What the layers still need, if they were asked for.
    pending: Option<PendingLayers>,
}

/// The per-layer metrics the children already gave, and what the in-process
/// probe needs to supply the rest.
struct PendingLayers {
    probe: ProbeInput,
    scratch: PathBuf,
    from_children: BTreeMap<&'static str, f64>,
    /// On join workloads, what the probe must have seen too: the program's
    /// replicas, result pairs and shuffled MiB.
    program: Option<[f64; 3]>,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Runs the layer probe and completes `per_layer`. Kept apart from
    /// [`measure`] because the probe holds the whole input in this process:
    /// a child forked afterwards reports the harness's peak RSS as its own,
    /// so every timed child of every workload must run before any probe.
    pub fn probe_layers(&mut self) -> Result<(), String> {
        let Some(pending) = self.pending.take() else {
            return Ok(());
        };
        let mut m = probe::run(&pending.probe, &pending.scratch)?;
        crate::proc::flush_disk_writes();
        m.extend(pending.from_children);
        // The probe must have measured the same work as the program did.
        if let Some(program) = pending.program {
            let probed = [
                m["core.replicas"],
                m["index.kernel_results"],
                m["engine.shuffle_total_mib"],
            ];
            for ((probe, program), what) in
                probed
                    .iter()
                    .zip(program)
                    .zip(["replicas", "result pairs", "shuffled MiB"])
            {
                if *probe != program {
                    self.problems.push(format!(
                        "layer probe saw {probe} {what}, the program {program}"
                    ));
                }
            }
        }
        self.per_layer = PER_LAYER
            .iter()
            .map(|(name, _)| {
                m.get(name)
                    .map(|v| (*name, *v))
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

struct Reps<'a> {
    workload: &'a Workload,
    env: &'a Env,
    reference: &'a Reference,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Reps<'_> {
    /// One checked child; `None` (and a recorded problem) if it failed.
    fn attempt(
        &mut self,
        trace: Option<&Path>,
        durable: Option<bool>,
    ) -> Result<Option<(ChildRun, Observed)>, String> {
        self.attempted += 1;
        let (run, observed) = self
            .workload
            .repetition(self.env, self.reference, trace, durable)?;
        Ok(match observed {
            Ok(observed) => Some((run, observed)),
            Err(problem) => {
                self.failed += 1;
                self.problems
                    .push(format!("repetition {}: {problem}", self.attempted));
                None
            }
        })
    }
}

pub fn measure(
    workload: &Workload,
    env: &Env,
    seed: u64,
    seconds: f64,
    layers: bool,
) -> Result<Measurement, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let (p, setup_s) = workload.prepare(env, seed)?;
        setups.push(setup_s);
        prepared = Some(p);
    }
    let prepared = prepared.expect("SETUPS > 0");
    let mut reps = Reps {
        workload,
        env,
        reference: &prepared.reference,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };

    // Warm-up: page cache and lazy set-up, checked but not timed.
    reps.attempt(None, None)?;
    let min_reps = if env.scale == Scale::Smoke {
        SMOKE_REPS
    } else {
        MIN_REPS
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut timed: Vec<(ChildRun, Observed)> = Vec::new();
    for tried in 0..MAX_REPS {
        if tried >= min_reps && start.elapsed() >= budget {
            break;
        }
        timed.extend(reps.attempt(None, None)?);
    }
    if timed.is_empty() {
        return Err(format!(
            "{}: no repetition succeeded: {}",
            workload.name,
            reps.problems.join("; ")
        ));
    }
    let walls: Vec<f64> = timed.iter().map(|(run, _)| run.wall_s).collect();
    let wall = Summary::fastest_of(&walls);
    eprintln!(
        "{}: set-ups {setups:.3?} s, timed repetitions {walls:.3?} s",
        workload.name
    );

    // The traced child: exact counters and phases from the program's own
    // recorder; its extra wall over the untraced median is the recorder's cost.
    let trace_path = env.path("trace.jsonl");
    let Some((traced_run, traced)) = reps.attempt(Some(&trace_path), None)? else {
        return Err(format!(
            "{}: the traced repetition failed: {}",
            workload.name,
            reps.problems.join("; ")
        ));
    };
    let trace =
        TraceSummary::parse(&std::fs::read_to_string(&trace_path).map_err(|e| e.to_string())?)?;
    if let Observed::Join(report) = &traced {
        let kib = |bytes: u64| bytes / 1024;
        if trace.counter("replicas") != report.replicated_objects
            || kib(trace.counter("remote_bytes")) != report.shuffle_remote_kib
            || trace.counter("results") != report.result_pairs
        {
            reps.problems
                .push("the trace's counters disagree with the report printed beside it".into());
        }
    }

    let end_to_end = vec![
        ("setup_s", Summary::of(&setups)),
        ("run_wall_s", wall),
        (
            "peak_rss_mib",
            Summary::of(
                &timed
                    .iter()
                    .map(|(run, _)| run.peak_rss_mib)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "replicated_objects",
            Summary::single(trace.counter("replicas") as f64),
        ),
        (
            "shuffle_remote_mib",
            Summary::single(trace.counter("remote_bytes") as f64 / MIB),
        ),
    ];
    debug_assert!(end_to_end
        .iter()
        .map(|(n, _)| *n)
        .eq(END_TO_END.iter().map(|(n, _, _)| *n)));

    let mut pending = None;
    if layers {
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        let over_reps = |f: &dyn Fn(&ChildRun, &Observed) -> f64| {
            median(
                &timed
                    .iter()
                    .map(|(run, obs)| f(run, obs))
                    .collect::<Vec<_>>(),
            )
        };
        m.insert("cli.cpu_s", over_reps(&|run, _| run.cpu_s()));
        m.insert("cli.sys_s", over_reps(&|run, _| run.sys_s));
        m.insert("data.generate_s", prepared.generate_s);
        let join_wall = |obs: &Observed| match obs {
            Observed::Join(report) => Some(report.wall_s),
            Observed::Serve(_) => None,
        };
        m.insert(
            "cli.join_reported_wall_s",
            over_reps(&|_, obs| join_wall(obs).unwrap_or(0.0)),
        );
        m.insert(
            "cli.non_join_s",
            over_reps(&|run, obs| join_wall(obs).map_or(0.0, |w| run.wall_s - w)),
        );
        let serve = |f: &dyn Fn(&ServeReport) -> f64| {
            over_reps(&|_, obs| match obs {
                Observed::Serve(report) => f(report),
                Observed::Join(_) => 0.0,
            })
        };
        m.insert("engine.jobs_quanta", serve(&|r| r.quanta as f64));
        m.insert("engine.jobs_server_clock_s", serve(&|r| r.server_clock_s));
        m.insert(
            "engine.durability_overhead_s",
            match workload.durable() {
                None => 0.0,
                Some(own) => {
                    let mut other = Vec::new();
                    for _ in 0..PAIRED_REPS {
                        other.extend(reps.attempt(None, Some(!own))?.map(|(run, _)| run.wall_s));
                    }
                    if other.is_empty() {
                        return Err(format!(
                            "{}: no repetition of the paired serve variant succeeded",
                            workload.name
                        ));
                    }
                    let other = Summary::fastest_of(&other).value;
                    let (durable, mem) = if own {
                        (wall.value, other)
                    } else {
                        (other, wall.value)
                    };
                    durable - mem
                }
            },
        );
        for (phase, wall_metric, sim_metric) in PHASES {
            m.insert(
                wall_metric,
                trace.phase_wall_s.get(phase).copied().unwrap_or(0.0),
            );
            m.insert(
                sim_metric,
                trace.phase_sim_s.get(phase).copied().unwrap_or(0.0),
            );
        }
        m.insert(
            "obs.trace_overhead_pct",
            (traced_run.wall_s - wall.median) / wall.median * 100.0,
        );
        m.insert("obs.spans", trace.spans as f64);
        m.insert("obs.events", trace.events as f64);

        let program = match &traced {
            Observed::Join(report) => Some([
                report.replicated_objects as f64,
                report.result_pairs as f64,
                (trace.counter("remote_bytes") + trace.counter("local_bytes")) as f64 / MIB,
            ]),
            Observed::Serve(_) => None,
        };
        pending = Some(PendingLayers {
            probe: prepared.probe,
            scratch: env.dir.clone(),
            from_children: m,
            program,
        });
    }

    // Leave no write-back behind for whatever is measured next.
    crate::proc::flush_disk_writes();
    Ok(Measurement {
        workload: workload.name,
        input: prepared.input,
        reference: prepared.reference.describe(),
        attempted: reps.attempted,
        failed: reps.failed,
        problems: reps.problems,
        end_to_end,
        per_layer: Vec::new(),
        pending,
    })
}
