//! Full-scale reproduction driver.
//!
//! ```text
//! repro [EXPERIMENT...] [--quick] [--scale N] [--reps N]
//!       [--faults SPEC] [--fault-seed N] [--speculation]
//!
//! EXPERIMENT    a name `repro --help` lists (`experiments::EXPERIMENTS`);
//!               none, or `all`, runs every experiment, and each runs once
//!               however many of its names are given
//! --quick       reduced scale: every experiment still runs, in seconds
//! --scale N     x1 cardinality of the synthetic sets (default 100000)
//! --reps N      repetitions per configuration (times averaged; default 3)
//! --faults SPEC inject deterministic faults into every run, e.g. 'chaos'
//!               or 'p=0.02,slow:1=3.0' (see `asj --faults`)
//! --fault-seed N  seed for --faults and the `faults` experiment (default 7)
//! --speculation   speculatively re-execute straggler tasks
//! ```
//!
//! Each table prints as its experiment finishes; the whole record is then
//! written to `repro.json` in the working directory.

use asj_bench::experiments::{select, Experiment, EXPERIMENTS};
use asj_bench::{ExpConfig, Record};
use asj_engine::{FaultPlan, RetryPolicy};
use asj_serve::{synopsis, Options, Spelling};

/// The flags `repro` takes; every other word names an experiment.
const OPTIONS: &[&str] = &[
    "quick",
    "scale",
    "reps",
    "faults",
    "fault-seed",
    "speculation",
];

/// What a `repro` command line asks for.
struct Args {
    cfg: ExpConfig,
    experiments: Vec<String>,
    /// The plan the `faults` experiment compares against.
    ab_plan: FaultPlan,
    policy: RetryPolicy,
}

/// Reads a `repro` command line. Flag order does not matter: `--scale`
/// rescales, and recalibrates the ε of, whichever configuration `--quick`
/// picks.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let words = args.iter().map(String::as_str);
    let opts = Options::parse(OPTIONS, Spelling::Flag, words, "repro")?;
    let mut cfg = if opts.quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    if let Some(base) = opts.scale {
        cfg = cfg.with_base(base);
    }
    cfg.reps = opts.reps.unwrap_or(cfg.reps);
    // Without --faults, ASJ_FAULTS / ASJ_FAULT_SEED apply, so the CI
    // fault-matrix job can chaos-test the whole figure pipeline.
    let seed = opts.fault_seed.unwrap_or(7);
    let setup = opts.fault_setup(seed, true)?;
    let policy = setup.as_ref().map_or_else(RetryPolicy::default, |s| s.1);
    // The dedicated A/B experiment compares against the given plan, or the
    // standard chaos plan when none was given.
    let ab_plan = match &setup {
        Some((plan, _)) if plan.is_active() => plan.clone(),
        _ => FaultPlan::chaos(seed),
    };
    if let Some((plan, policy)) = setup {
        cfg = cfg.with_faults(plan, policy);
    }
    Ok(Args {
        cfg,
        experiments: opts.operands,
        ab_plan,
        policy,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage("");
    }
    let args = parse_args(&args).unwrap_or_else(|e| usage(&e));
    let experiments = select(&args.experiments).unwrap_or_else(|e| usage(&e));
    if let Err(e) = run(&args, &experiments) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Runs `experiments` into one record and writes it to `repro.json`; a join
/// that fails — a stage out of attempts, a rejected spec — ends the run with
/// its error.
fn run(args: &Args, experiments: &[&Experiment]) -> Result<(), String> {
    let mut record = Record::new(&args.cfg, &args.ab_plan);
    println!("# {}", record.config());
    for (_, run) in experiments {
        let tables = run(&args.cfg, &args.ab_plan, args.policy).map_err(|e| e.to_string())?;
        record.push(tables);
    }
    std::fs::write("repro.json", record.to_json())
        .map_err(|e| format!("could not write repro.json: {e}"))?;
    println!("\nwrote repro.json");
    Ok(())
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    let names: Vec<String> = EXPERIMENTS.iter().map(|(n, _)| n.join("|")).collect();
    eprintln!(
        "{}\nexperiments: {} all",
        synopsis("usage: repro [EXPERIMENT...] ", &[], OPTIONS),
        names.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_recalibrates_eps_whatever_the_flag_order() {
        let want = ExpConfig::quick().with_base(5_000);
        assert!(want.default_eps > ExpConfig::quick().default_eps);
        for args in [
            ["--quick", "--scale", "5000"],
            ["--scale", "5000", "--quick"],
        ] {
            let cfg = parse(&args).expect("parses").cfg;
            assert_eq!(cfg.base, want.base, "{args:?}");
            assert_eq!(cfg.reps, want.reps, "{args:?}");
            assert_eq!(cfg.default_eps, want.default_eps, "{args:?}");
            assert_eq!(cfg.eps_values, want.eps_values, "{args:?}");
        }
        let cfg = parse(&["fig15", "--reps", "2"]).expect("parses");
        assert_eq!(
            (cfg.cfg.reps, cfg.experiments),
            (2, vec!["fig15".to_string()])
        );
    }

    #[test]
    fn bad_values_are_usage_errors() {
        for (args, expected) in [
            (&["--reps", "0"][..], "--reps must be positive"),
            (&["--scale", "0"], "--scale must be positive"),
            (&["--scale", "abc"], "invalid value for '--scale': 'abc'"),
            (&["--scale"], "missing value for --scale"),
            (&["--quick", "--quick"], "duplicate option '--quick'"),
            (&["--exec", "x"], "unknown flag '--exec' for 'repro'"),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(expected), "{args:?}");
        }
    }

    #[test]
    fn speculation_alone_applies_to_every_run() {
        // Skipped under the CI fault-matrix env vars, which supply a plan.
        if std::env::var("ASJ_FAULTS").is_ok() || std::env::var("ASJ_FAULT_SEED").is_ok() {
            return;
        }
        let args = parse(&["--speculation"]).expect("parses");
        let (plan, policy) = args.cfg.faults.expect("a policy without a plan applies");
        assert!(!plan.is_active());
        assert!(policy.speculation && args.policy.speculation);
        assert_eq!(
            args.ab_plan,
            FaultPlan::chaos(7),
            "the A/B plan stays chaos"
        );
        let args = parse(&["--faults", "p=0.2", "--fault-seed", "3"]).expect("parses");
        assert_eq!(args.ab_plan, FaultPlan::parse("p=0.2", 3).expect("plan"));
        assert!(parse(&[]).expect("parses").cfg.faults.is_none());
    }
}
