//! Property tests for the multi-tenant job server: ANY fair-share
//! interleaving of tenant joins — across seeds, algorithms, per-tenant fault
//! plans (including injected `oom:` budget exhaustion) and spill-triggering
//! cluster budgets — must yield byte-identical per-tenant results and
//! checksums versus running each tenant alone on a fresh cluster. The
//! scheduler may only change WHEN a tenant's stages run, never WHAT they
//! compute.

use adaptive_spatial_join::engine::{Cluster, ClusterConfig, SchedPolicy};
use adaptive_spatial_join::join::Algorithm;
use adaptive_spatial_join::serve::{run_queue, solo_outcome, RecoveryOptions, TenantSpec};
use proptest::prelude::*;

/// Injectable fault plans a tenant may carry. Probabilities stay low enough
/// that 8 attempts always recover: a permanent failure would abort the solo
/// oracle, not test isolation.
const FAULT_MENU: &[&str] = &[
    "p=0.15",
    "p=0.1,slow:1=2.0",
    "oom:shuffle.R:0@1",
    "p=0.1,oom:shuffle.S:0@1",
];

/// One generated tenant: algorithm, scale, distribution seed and an optional
/// fault plan drawn from the deterministic injectable clauses.
#[derive(Debug, Clone)]
struct GenTenant {
    algo_idx: usize,
    cardinality: usize,
    eps: f64,
    seed: u64,
    weight: u32,
    faults: Option<String>,
    fault_seed: u64,
}

fn tenant_strategy() -> impl Strategy<Value = GenTenant> {
    (
        0usize..Algorithm::ALL.len(),
        80usize..280,
        0.2f64..0.9,
        any::<u64>(),
        1u32..4,
        0usize..FAULT_MENU.len() + 1,
        any::<u64>(),
    )
        .prop_map(
            |(algo_idx, cardinality, eps, seed, weight, fault_idx, fault_seed)| GenTenant {
                algo_idx,
                cardinality,
                eps,
                seed,
                weight,
                // Index 0 is the fault-free arm; the rest draw from the menu.
                faults: fault_idx.checked_sub(1).map(|i| FAULT_MENU[i].to_string()),
                fault_seed,
            },
        )
}

fn materialize(tenants: &[GenTenant]) -> Vec<TenantSpec> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut t = TenantSpec::new(format!("t{i}"), g.eps, g.cardinality);
            t.algorithm = Algorithm::ALL[g.algo_idx];
            t.seed = g.seed;
            t.weight = g.weight;
            t.partitions = 6;
            t.faults = g.faults.clone();
            t.fault_seed = g.fault_seed;
            if g.faults.is_some() {
                t.max_attempts = Some(8);
            }
            // Admission is being bypassed on purpose: the budget below is
            // chosen to force spilling, and a model estimate above it would
            // turn the case into a rejection instead of an interleaving.
            t.estimate_override = Some(1);
            t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline isolation property: concurrent == solo, byte for byte,
    /// for every tenant of every generated queue, with every grant belonging
    /// to a submitted job — and the queue spills, is refused and peaks
    /// exactly as the same queue without its fault plans does.
    #[test]
    fn fair_share_interleavings_match_solo_runs(
        tenants in prop::collection::vec(tenant_strategy(), 2..5),
        nodes in 2usize..5,
        budget_kib in 2u64..64,
    ) {
        let specs = materialize(&tenants);
        let budget = budget_kib * 1024;
        let cluster = Cluster::new(
            ClusterConfig::with_threads(nodes, 2).with_memory_budget(budget),
        );
        let run = run_queue(&cluster, &specs, SchedPolicy::FairShare, &RecoveryOptions::default())
            .expect("estimate overrides admit every tenant");

        prop_assert_eq!(run.reports.len(), specs.len());
        for (spec, report) in specs.iter().zip(&run.reports) {
            let shared = report.result.as_ref().expect("tenant recovered");
            let solo = solo_outcome(&cluster, spec).expect("solo run");
            prop_assert_eq!(
                shared, &solo,
                "tenant '{}' diverged from its solo run", spec.name
            );
        }
        for &grant in &run.grants {
            prop_assert!(grant < specs.len(), "grant {} has no job", grant);
        }
        // The budget is enforced across ALL interleaved tenants at once.
        prop_assert!(cluster.memory_accountant().peak_bytes() <= budget);
        // Failed attempts' ledgers are never folded, so the faults move no
        // memory counter.
        let clean_specs: Vec<TenantSpec> = specs
            .iter()
            .map(|spec| TenantSpec { faults: None, max_attempts: None, ..spec.clone() })
            .collect();
        let clean_cluster = Cluster::new(
            ClusterConfig::with_threads(nodes, 2).with_memory_budget(budget),
        );
        let clean = run_queue(&clean_cluster, &clean_specs, SchedPolicy::FairShare, &RecoveryOptions::default())
            .expect("estimate overrides admit every tenant");
        prop_assert!(clean.reports.iter().all(|report| report.result.is_ok()));
        let (faulty, clean) = (
            cluster.memory_accountant().snapshot(),
            clean_cluster.memory_accountant().snapshot(),
        );
        prop_assert_eq!(
            (faulty.spilled_bytes, faulty.budget_denials, faulty.per_node_peak),
            (clean.spilled_bytes, clean.budget_denials, clean.per_node_peak)
        );
    }

    /// Policy independence: FIFO and fair-share schedule the same queue very
    /// differently, but every tenant's outcome is identical under both.
    #[test]
    fn outcomes_are_policy_independent(
        tenants in prop::collection::vec(tenant_strategy(), 2..4),
        nodes in 2usize..4,
    ) {
        let specs = materialize(&tenants);
        let mk = || Cluster::new(ClusterConfig::with_threads(nodes, 2));
        let fair = run_queue(&mk(), &specs, SchedPolicy::FairShare, &RecoveryOptions::default()).expect("fair");
        let fifo = run_queue(&mk(), &specs, SchedPolicy::Fifo, &RecoveryOptions::default()).expect("fifo");
        for (a, b) in fair.reports.iter().zip(&fifo.reports) {
            prop_assert_eq!(
                a.result.as_ref().expect("ok"),
                b.result.as_ref().expect("ok"),
                "policy changed tenant '{}'", a.name
            );
        }
        // FIFO runs each job to completion: its grant log is sorted.
        let mut sorted = fifo.grants.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&fifo.grants, &sorted, "FIFO must not interleave");
    }
}
