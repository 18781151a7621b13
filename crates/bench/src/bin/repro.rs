//! Full-scale reproduction driver.
//!
//! ```text
//! repro [EXPERIMENT...] [--quick] [--scale N] [--reps N]
//!       [--faults SPEC] [--fault-seed N] [--speculation]
//!
//! EXPERIMENT: table1 fig1b fig10 table4 fig13 fig14 fig15 fig16 fig17
//!             fig18 table5 table6 table7 ablation-kernels (a1) faults
//!             memory multitenant recovery all (default: all)
//! --quick       reduced scale: every experiment still runs, in seconds
//! --scale N     x1 cardinality of the synthetic sets (default 100000)
//! --reps N      repetitions per configuration (times averaged; default 3)
//! --faults SPEC inject deterministic faults into every run, e.g. 'chaos'
//!               or 'p=0.02,slow:1=3.0' (see `asj --faults`)
//! --fault-seed N  seed for --faults and the `faults` experiment (default 7)
//! --speculation   speculatively re-execute straggler tasks
//! ```

use asj_bench::{experiments, memory, multitenant, recovery, Combo, ExpConfig};
use asj_engine::{FaultPlan, RetryPolicy};
use asj_join::JoinError;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::full();
    let mut wanted: Vec<String> = Vec::new();
    let mut fault_spec: Option<String> = None;
    let mut fault_seed: u64 = 7;
    let mut policy = RetryPolicy::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ExpConfig::quick(),
            "--scale" => {
                i += 1;
                cfg.base = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --scale"));
            }
            "--reps" => {
                i += 1;
                cfg.reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --reps"));
            }
            "--faults" => {
                i += 1;
                fault_spec = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("missing value for --faults")),
                );
            }
            "--fault-seed" => {
                i += 1;
                fault_seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --fault-seed"));
            }
            "--speculation" => policy = policy.with_speculation(true),
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => wanted.push(other.to_string()),
        }
        i += 1;
    }
    let plan = match &fault_spec {
        Some(spec) => match FaultPlan::parse(spec, fault_seed) {
            Ok(plan) => Some(plan),
            Err(e) => usage(&e),
        },
        // No flag: honor ASJ_FAULTS / ASJ_FAULT_SEED, so the CI fault-matrix
        // job can chaos-test the whole figure pipeline without flag plumbing.
        None => FaultPlan::from_env(),
    };
    if let Some(plan) = &plan {
        cfg = cfg.with_faults(plan.clone(), policy);
    }
    // The dedicated A/B experiment compares against the given plan, or the
    // standard chaos plan when --faults was not passed.
    let ab_plan = plan.unwrap_or_else(|| FaultPlan::chaos(fault_seed));
    if let Err(e) = run_experiments(&cfg, &wanted, &ab_plan, policy) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Runs the named experiments (all of them for an empty list or `all`); a
/// join that fails — a stage out of attempts, a rejected spec — ends the run
/// with its error.
fn run_experiments(
    cfg: &ExpConfig,
    wanted: &[String],
    ab_plan: &FaultPlan,
    policy: RetryPolicy,
) -> Result<(), JoinError> {
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        experiments::run_all(cfg)?;
        experiments::fault_tolerance(cfg, ab_plan, policy)?;
        return Ok(());
    }
    for w in wanted {
        match w.as_str() {
            "table1" => {
                experiments::table1();
            }
            "fig1b" => {
                experiments::fig1b(cfg)?;
            }
            "fig10" | "fig11" | "fig12" => {
                experiments::fig10_11_12(cfg, Combo::S1S2)?;
                experiments::fig10_11_12(cfg, Combo::R1S1)?;
            }
            "table4" => {
                experiments::table4(cfg)?;
            }
            "fig13" => {
                experiments::fig13(cfg)?;
            }
            "fig14" => {
                experiments::fig14(cfg)?;
            }
            "fig15" => {
                experiments::fig15(cfg)?;
            }
            "fig16" => {
                experiments::fig16_18(cfg, Combo::S1S2)?;
            }
            "fig17" => {
                experiments::fig16_18(cfg, Combo::R1S1)?;
            }
            "fig18" => {
                experiments::fig16_18(cfg, Combo::R2R1)?;
            }
            "table5" => {
                experiments::table5(cfg)?;
            }
            "table6" => {
                experiments::table6(cfg)?;
            }
            "table7" => {
                experiments::table7(cfg)?;
            }
            "a1" | "kernels" | "ablation-kernels" => {
                experiments::ablation_kernels(cfg)?;
            }
            "a2" | "edgeorder" => {
                experiments::ablation_edge_order(cfg);
            }
            "ext" | "extensions" => {
                experiments::extensions(cfg)?;
            }
            "faults" | "fault-tolerance" => {
                experiments::fault_tolerance(cfg, ab_plan, policy)?;
            }
            "memory" | "memory-sweep" | "budget-sweep" => {
                memory::memory_sweep(cfg);
            }
            "multitenant" | "multi-tenant" | "jobs" => {
                multitenant::multitenant_sweep(cfg);
            }
            "recovery" | "crash-recovery" => {
                recovery::recovery_sweep(cfg);
            }
            other => usage(&format!("unknown experiment {other}")),
        }
    }
    Ok(())
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [EXPERIMENT...] [--quick] [--scale N] [--reps N]\n\
         \x20            [--faults SPEC] [--fault-seed N] [--speculation]\n\
         experiments: table1 fig1b fig10 table4 fig13 fig14 fig15 fig16 \
         fig17 fig18 table5 table6 table7 ablation-kernels a2 ext faults \
         memory multitenant recovery all"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
