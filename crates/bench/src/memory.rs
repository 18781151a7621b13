//! `repro memory` — the memory-governor budget sweep behind the
//! spill-to-disk shuffle work.
//!
//! One unbudgeted reference run of a shuffle-heavy workload
//! (`keyed_workload`) establishes the **natural peak**: the largest number of
//! bytes any simulated node holds resident at once when nothing is ever denied.
//! The sweep then re-runs the identical workload under per-node budgets at
//! shrinking fractions of that peak, forcing more and more shuffle buckets
//! through disk spill segments, and asserts after every leg:
//!
//! * the shuffled partitions are **byte-identical** to the unbudgeted run
//!   (full `Vec` equality plus the FNV-1a checksum the record gates on),
//! * every [`ShuffleStats`] meter matches — spilling is invisible in stats,
//! * `peak_memory_bytes <= budget` on every leg that has one,
//! * legs budgeted meaningfully below the natural peak actually spill.
//!
//! A final leg injects a deterministic `oom:` fault on top of the tightest
//! budget and demands the retry machinery recovers to the same bytes.
//!
//! Each map task admits against its fixed share of every node's budget, so
//! which buckets spill depends on the plan and never on the schedule: every
//! column is an exact counter. A task cannot borrow room another task's
//! share leaves unused, so even the 100 % leg spills a little.

use crate::{Cell, ExpConfig, Table};
use asj_data::{DatasetSpec, GenKind, PAPER_BBOX};
use asj_engine::digest::Fnv1a;
use asj_engine::{
    Cluster, ClusterConfig, ExplicitPartitioner, FaultPlan, KeyedDataset, RetryPolicy, ShuffleStats,
};
use asj_join::{to_records, Record};
use std::collections::HashMap;
use std::hash::Hasher;

/// Opaque payload carried by every benchmark record: large enough that the
/// shuffle moves real bytes (the paper's tuples carry geometry + attributes),
/// small enough that a quick CI run stays in memory comfortably.
const PAYLOAD_BYTES: usize = 64;

/// Cells per axis of the routing grid. 64×64 = 4096 contiguous cell keys —
/// the contiguous-id case the dense partitioner table exists for.
const GRID_CELLS: u64 = 64;

/// Budget fractions of the natural peak swept after the reference leg, in
/// percent. 100% still admits everything (the peak *is* attainable); the
/// tail forces the governor to spill most of the shuffle volume.
const SWEEP_PCT: &[u64] = &[100, 50, 25, 10];

/// One leg of the sweep.
#[derive(Debug, Clone)]
pub struct MemLeg {
    /// Per-node budget in bytes; `None` for the unbudgeted reference leg.
    pub budget: Option<u64>,
    /// Budget as a percentage of the natural peak (100 for the reference).
    pub budget_pct: u64,
    /// Most bytes any node's admitted buffers held in the leg's shuffle.
    pub peak_memory_bytes: u64,
    /// Bytes routed through disk spill segments.
    pub spilled_bytes: u64,
    /// Charges refused by the map tasks' ledgers (each refused target
    /// spills one bucket; a refused routing scratch only counts).
    pub budget_denials: u64,
    /// Injected out-of-memory faults recovered by retry during the leg.
    pub oom_events: u64,
}

/// The sweep's full result set.
#[derive(Debug, Clone)]
pub struct MemReport {
    pub records: usize,
    pub nodes: usize,
    /// Peak per-node resident bytes of the unbudgeted reference run.
    pub natural_peak: u64,
    /// FNV-1a of the shuffled output; identical for every leg by assertion.
    pub checksum: u64,
    pub legs: Vec<MemLeg>,
}

impl MemReport {
    /// The sweep's table, one row per leg.
    pub fn tables(&self) -> Vec<Table> {
        let mut table = Table::new(
            "memory",
            format!(
                "memory budget sweep — {} records × {} B payload, {} nodes",
                self.records, PAYLOAD_BYTES, self.nodes
            ),
            vec![
                "budget",
                "budget B",
                "peak B",
                "spilled B",
                "denials",
                "oom",
                "checksum",
            ],
        );
        for leg in &self.legs {
            let label = match (leg.budget, leg.budget_pct) {
                (None, _) => "unbounded".to_string(),
                (Some(_), 0) => "10% + oom".to_string(),
                (Some(_), pct) => format!("{pct}%"),
            };
            table.row(vec![
                Cell::Label(label),
                leg.budget.map_or(Cell::Missing, Cell::Count),
                Cell::Count(leg.peak_memory_bytes),
                Cell::Count(leg.spilled_bytes),
                Cell::Count(leg.budget_denials),
                Cell::Count(leg.oom_events),
                // Every leg's output is asserted byte-identical to the reference's.
                Cell::Checksum(self.checksum),
            ]);
        }
        vec![table]
    }
}

type Workload = Vec<Vec<(u64, Record)>>;

/// FNV-1a 64-bit, folded over the shuffled partitions in order. Covers the
/// partition boundaries, every key, record id, coordinate bit pattern and
/// payload byte — any reordering or corruption moves the digest.
fn checksum_partitions(parts: &[Vec<(u64, Record)>]) -> u64 {
    let mut h = Fnv1a::default();
    for (i, part) in parts.iter().enumerate() {
        h.write_u64(0xffff_0000_0000_0000 | i as u64);
        h.write_u64(part.len() as u64);
        for (key, rec) in part {
            h.write_u64(*key);
            h.write_u64(rec.id);
            h.write_u64(rec.point.x.to_bits());
            h.write_u64(rec.point.y.to_bits());
            h.write_u64(rec.payload.len() as u64);
            h.write(&rec.payload);
        }
    }
    h.finish()
}

/// The shuffle-heavy workload: `n` uniform points with opaque payloads,
/// keyed by routing-grid cell, split round-robin into `sources` map-side
/// partitions (round-robin input maximizes cross-partition traffic).
fn keyed_workload(n: usize, sources: usize) -> Vec<Vec<(u64, Record)>> {
    let points = DatasetSpec {
        name: "perf",
        kind: GenKind::Uniform,
        cardinality: n,
        seed: 4242,
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    }
    .points();
    let records = to_records(&points, PAYLOAD_BYTES);
    let span_x = PAPER_BBOX.max_x - PAPER_BBOX.min_x;
    let span_y = PAPER_BBOX.max_y - PAPER_BBOX.min_y;
    let mut parts: Vec<Vec<(u64, Record)>> = (0..sources).map(|_| Vec::new()).collect();
    for (i, rec) in records.into_iter().enumerate() {
        let cx = (((rec.point.x - PAPER_BBOX.min_x) / span_x) * GRID_CELLS as f64) as u64;
        let cy = (((rec.point.y - PAPER_BBOX.min_y) / span_y) * GRID_CELLS as f64) as u64;
        let key = cx.min(GRID_CELLS - 1) * GRID_CELLS + cy.min(GRID_CELLS - 1);
        parts[i % sources].push((key, rec));
    }
    parts
}

/// LPT-flavored cell→partition assignment shared by every leg (the adaptive
/// join routes through exactly this kind of explicit map).
fn assignment(targets: usize) -> HashMap<u64, usize> {
    (0..GRID_CELLS * GRID_CELLS)
        .map(|cell| (cell, (cell as usize).wrapping_mul(7) % targets))
        .collect()
}

/// Runs one leg and returns its row plus the shuffled output for the
/// byte-identity gate.
fn run_leg(
    cfg: &ExpConfig,
    parts: &Workload,
    budget: Option<u64>,
    budget_pct: u64,
    faults: Option<(FaultPlan, RetryPolicy)>,
) -> (MemLeg, Workload, ShuffleStats) {
    let mut cluster = Cluster::new(ClusterConfig::new(cfg.nodes));
    if let Some(b) = budget {
        cluster = cluster.with_memory_budget(b);
    }
    if let Some((plan, policy)) = faults {
        cluster = cluster.with_fault_policy(plan, policy);
    }
    let targets = cfg.partitions;
    let partitioner = ExplicitPartitioner::new(assignment(targets), targets);
    let (ds, stats, exec) = KeyedDataset::from_partitions(parts.clone())
        .shuffle_stage(&cluster, &partitioner, "shuffle")
        .expect("a budgeted shuffle spills, it never fails");
    let acct = cluster.memory_accountant();
    let leg = MemLeg {
        budget,
        budget_pct,
        peak_memory_bytes: exec.peak_memory_bytes,
        spilled_bytes: exec.spilled_bytes,
        budget_denials: acct.budget_denials(),
        oom_events: acct.oom_events(),
    };
    let rows = ds.into_rows().expect("spilled chunks read back");
    (leg, rows.into_partitions(), stats)
}

/// The `repro memory` entry point. Runs the budget sweep and asserts the
/// byte-identity and `peak <= budget` gates.
pub fn memory_sweep(cfg: &ExpConfig) -> MemReport {
    let records = cfg.base * 2;
    let parts = keyed_workload(records, cfg.partitions);

    // Reference leg: no budget. The accountant still meters every admission,
    // so its peak is the natural footprint the sweep is scaled against.
    let (reference, base_parts, base_stats) = run_leg(cfg, &parts, None, 100, None);
    assert_eq!(
        reference.spilled_bytes, 0,
        "an unbudgeted run must never spill"
    );
    let natural_peak = reference.peak_memory_bytes;
    let checksum = checksum_partitions(&base_parts);
    let mut legs = vec![reference];

    for &pct in SWEEP_PCT {
        let budget = (natural_peak * pct / 100).max(1);
        let (leg, out, stats) = run_leg(cfg, &parts, Some(budget), pct, None);
        assert_eq!(
            stats, base_stats,
            "budget {pct}%: ShuffleStats drifted under spilling"
        );
        assert_eq!(
            out, base_parts,
            "budget {pct}%: spilling changed the shuffled bytes"
        );
        assert_eq!(checksum_partitions(&out), checksum);
        assert!(
            leg.peak_memory_bytes <= budget,
            "budget {pct}%: peak {} exceeds budget {budget}",
            leg.peak_memory_bytes
        );
        if pct <= 50 {
            assert!(
                leg.spilled_bytes > 0,
                "budget {pct}% of natural peak must force spilling"
            );
        }
        legs.push(leg);
    }

    // OOM-injection leg: tightest budget plus a deterministic `oom:` fault on
    // the first shuffle task's first attempt — the retry machinery must
    // recover to the exact same bytes, and the accountant must log the event.
    let tight = (natural_peak * SWEEP_PCT[SWEEP_PCT.len() - 1] / 100).max(1);
    let plan = FaultPlan::parse("oom:shuffle:0@1", 7).expect("static fault spec");
    let policy = RetryPolicy::default().with_max_attempts(4);
    let (oom_leg, out, stats) = run_leg(cfg, &parts, Some(tight), 0, Some((plan, policy)));
    assert_eq!(stats, base_stats, "oom leg: ShuffleStats drifted");
    assert_eq!(out, base_parts, "oom leg: recovery changed the bytes");
    assert!(oom_leg.oom_events >= 1, "the injected oom must register");
    assert!(oom_leg.peak_memory_bytes <= tight);
    legs.push(oom_leg);

    MemReport {
        records,
        nodes: cfg.nodes,
        natural_peak,
        checksum,
        legs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive() {
        let rec = |id: u64| Record::new(id, asj_geom::Point::new(id as f64, 0.0));
        let a = vec![vec![(1u64, rec(1)), (2, rec(2))]];
        let b = vec![vec![(2u64, rec(2)), (1, rec(1))]];
        assert_ne!(checksum_partitions(&a), checksum_partitions(&b));
        assert_eq!(checksum_partitions(&a), checksum_partitions(&a.clone()));
    }

    #[test]
    fn workload_routes_to_every_source() {
        let parts = keyed_workload(1000, 7);
        assert_eq!(parts.len(), 7);
        assert!(parts.iter().all(|p| !p.is_empty()));
        let max_key = GRID_CELLS * GRID_CELLS;
        for part in &parts {
            for (key, rec) in part {
                assert!(*key < max_key);
                assert_eq!(rec.payload.len(), PAYLOAD_BYTES);
            }
        }
    }

    #[test]
    fn memory_sweep_runs_at_tiny_scale() {
        let cfg = ExpConfig::quick().with_base(1500);
        let report = memory_sweep(&cfg);

        // Reference + one leg per sweep point + the oom leg.
        assert_eq!(report.legs.len(), SWEEP_PCT.len() + 2);
        assert!(report.natural_peak > 0, "the accountant meters peak");
        assert_eq!(report.legs[0].budget, None);
        assert_eq!(report.legs[0].spilled_bytes, 0);
        for leg in &report.legs[1..] {
            let budget = leg.budget.expect("swept legs have budgets");
            assert!(leg.peak_memory_bytes <= budget);
        }
        let tightest = &report.legs[SWEEP_PCT.len()];
        assert!(tightest.spilled_bytes > 0, "10% budget must spill");
        assert!(tightest.budget_denials > 0);
        let oom = report.legs.last().expect("oom leg present");
        assert!(oom.oom_events >= 1);

        // The table: one row per leg, each carrying the shared checksum.
        let tables = report.tables();
        assert_eq!(tables[0].rows().len(), report.legs.len());
        assert!(tables[0]
            .rows()
            .iter()
            .all(|row| row[6] == Cell::Checksum(report.checksum)));
    }
}
