//! One function per paper artifact. Each prints its table(s) and returns
//! them for inspection; `run_all` regenerates the entire evaluation.

use crate::runner::{mib, run_avg, run_fault_ab, Combo, NetModel};
use crate::{ExpConfig, Table};
use asj_core::{cell_costs, AgreementGraph, AgreementPolicy, GridSample};
use asj_data::{TupleSizeFactor, PAPER_BBOX};
use asj_engine::{Cluster, ClusterConfig, FaultPlan, Placement, RetryPolicy};
use asj_geom::{Point, Rect};
use asj_grid::{Grid, GridSpec};
use asj_join::{
    adaptive_join, adaptive_join_dedup, adaptive_join_post_fetch, Algorithm, JoinError, JoinSpec,
};

fn spec_for(cfg: &ExpConfig, eps: f64) -> JoinSpec {
    JoinSpec::new(PAPER_BBOX, eps)
        .with_partitions(cfg.partitions)
        .counting_only()
}

// ---------------------------------------------------------------------------
// Table 1 / Figure 2: the running example, reconstructed exactly.
// ---------------------------------------------------------------------------

/// The 16-point instance of Figure 2, reverse-engineered from Table 1's
/// replication pattern (verified cell by cell). Space `[0,5]²`, ε = 1,
/// 2×2 cells of side 2.5: A = north-west, B = north-east, C = south-east,
/// D = south-west.
pub fn figure2_instance() -> (Vec<Point>, Vec<Point>) {
    let r = vec![
        Point::new(0.7, 3.2), // r1 ∈ A → D
        Point::new(3.0, 3.1), // r2 ∈ B → A, C, D
        Point::new(4.5, 4.5), // r3 ∈ B
        Point::new(4.0, 3.2), // r4 ∈ B → C
        Point::new(3.1, 2.0), // r5 ∈ C → A, B, D
        Point::new(2.8, 0.5), // r6 ∈ C → D
        Point::new(1.7, 1.8), // r7 ∈ D → A, C
        Point::new(1.0, 1.8), // r8 ∈ D → A
    ];
    let s = vec![
        Point::new(2.3, 4.5), // s1 ∈ A → B
        Point::new(2.2, 4.0), // s2 ∈ A → B
        Point::new(2.0, 3.0), // s3 ∈ A → B, C, D
        Point::new(2.9, 4.6), // s4 ∈ B → A
        Point::new(3.2, 1.9), // s5 ∈ C → A, B, D
        Point::new(4.5, 0.5), // s6 ∈ C
        Point::new(1.9, 1.9), // s7 ∈ D → A, B, C
        Point::new(1.9, 0.4), // s8 ∈ D → C
    ];
    (r, s)
}

/// The grid of the running example.
pub fn figure2_grid() -> Grid {
    Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 5.0, 5.0), 1.0))
}

/// Cell name of the running example (A = NW, B = NE, C = SE, D = SW).
fn figure2_cell_name(c: asj_grid::CellCoord) -> &'static str {
    match (c.x, c.y) {
        (0, 1) => "A",
        (1, 1) => "B",
        (1, 0) => "C",
        (0, 0) => "D",
        _ => unreachable!("running example has 4 cells"),
    }
}

/// Table 1: per-cell replicated objects and worst-case cost `r·s` under
/// universal replication of R and of S, on the reconstructed Figure-2
/// instance.
pub fn table1() -> Table {
    let grid = figure2_grid();
    let (r, s) = figure2_instance();
    let sample = GridSample::new(&grid);
    let mut table = Table::new(vec![
        "cell",
        "UNI(R) replicas",
        "UNI(R) cost",
        "UNI(S) replicas",
        "UNI(S) cost",
    ]);
    let graph_r = AgreementGraph::build(&grid, &sample, AgreementPolicy::UniformR);
    let graph_s = AgreementGraph::build(&grid, &sample, AgreementPolicy::UniformS);
    let costs_r = cell_costs(&graph_r, r.iter(), s.iter());
    let costs_s = cell_costs(&graph_s, r.iter(), s.iter());
    // Natives per cell, to derive replica counts.
    let mut native = vec![[0u64; 2]; grid.num_cells()];
    for p in &r {
        native[grid.cell_index(grid.cell_of(*p))][0] += 1;
    }
    for p in &s {
        native[grid.cell_index(grid.cell_of(*p))][1] += 1;
    }
    let mut totals = [0u64; 4]; // replicas R, cost R, replicas S, cost S
    let cells = [
        asj_grid::CellCoord { x: 0, y: 1 }, // A
        asj_grid::CellCoord { x: 1, y: 1 }, // B
        asj_grid::CellCoord { x: 1, y: 0 }, // C
        asj_grid::CellCoord { x: 0, y: 0 }, // D
    ];
    for coord in cells {
        let name = figure2_cell_name(coord);
        let ci = grid.cell_index(coord);
        let rep_r = costs_r[ci].r - native[ci][0];
        let rep_s = costs_s[ci].s - native[ci][1];
        totals[0] += rep_r;
        totals[1] += costs_r[ci].cost();
        totals[2] += rep_s;
        totals[3] += costs_s[ci].cost();
        table.row(vec![
            name.to_string(),
            rep_r.to_string(),
            costs_r[ci].cost().to_string(),
            rep_s.to_string(),
            costs_s[ci].cost().to_string(),
        ]);
    }
    table.row(vec![
        "total".to_string(),
        totals[0].to_string(),
        totals[1].to_string(),
        totals[2].to_string(),
        totals[3].to_string(),
    ]);
    table.print("Table 1: running example — universal replication of R vs S");
    table
}

// ---------------------------------------------------------------------------
// Figure 1b: relative replication overhead of PBSM over adaptive.
// ---------------------------------------------------------------------------

/// Figure 1b: for each dataset combination, the ratio of the best PBSM
/// variant's replicated objects to adaptive replication's (log-scale chart in
/// the paper; a ratio table here).
pub fn fig1b(cfg: &ExpConfig) -> Result<Table, JoinError> {
    let cluster = cfg.cluster();
    let spec = spec_for(cfg, cfg.default_eps);
    let mut table = Table::new(vec![
        "combination",
        "LPiB repl.",
        "UNI(R) repl.",
        "UNI(S) repl.",
        "overhead (best UNI / LPiB)",
    ]);
    for combo in Combo::ALL {
        let (r, s) = combo.datasets(cfg, 1, TupleSizeFactor::F0);
        let lpib = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, 1)?;
        let uni_r = run_avg(&cluster, &spec, Algorithm::UniR, &r, &s, 1)?;
        let uni_s = run_avg(&cluster, &spec, Algorithm::UniS, &r, &s, 1)?;
        let best = uni_r.replicated.min(uni_s.replicated);
        let ratio = best as f64 / lpib.replicated.max(1) as f64;
        table.row(vec![
            combo.name().to_string(),
            lpib.replicated.to_string(),
            uni_r.replicated.to_string(),
            uni_s.replicated.to_string(),
            format!("{ratio:.1}x"),
        ]);
    }
    table.print("Figure 1b: replication overhead of PBSM over adaptive replication");
    Ok(table)
}

// ---------------------------------------------------------------------------
// Figures 10, 11, 12: varying the distance threshold ε.
// ---------------------------------------------------------------------------

/// Figures 10 (replication), 11 (shuffle remote reads) and 12 (execution
/// time) for one dataset combination over the ε sweep.
pub fn fig10_11_12(cfg: &ExpConfig, combo: Combo) -> Result<(Table, Table, Table), JoinError> {
    let cluster = cfg.cluster();
    let (r, s) = combo.datasets(cfg, 1, TupleSizeFactor::F0);
    let mut header = vec!["algorithm".to_string()];
    header.extend(cfg.eps_values.iter().map(|e| format!("eps={e:.3}")));
    let mut repl = Table::new(header.clone());
    let mut shuffle = Table::new(header.clone());
    let mut time = Table::new(header);
    for algo in Algorithm::ALL {
        let mut row_repl = vec![algo.name().to_string()];
        let mut row_sh = vec![algo.name().to_string()];
        let mut row_t = vec![algo.name().to_string()];
        for &eps in &cfg.eps_values {
            let spec = spec_for(cfg, eps);
            let res = run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)?;
            row_repl.push(res.replicated.to_string());
            row_sh.push(mib(res.shuffle_remote));
            row_t.push(format!("{:.3}", res.sim_time));
        }
        repl.row(row_repl);
        shuffle.row(row_sh);
        time.row(row_t);
    }
    repl.print(&format!(
        "Figure 10 ({}): replicated objects vs eps",
        combo.name()
    ));
    shuffle.print(&format!(
        "Figure 11 ({}): shuffle remote reads (MiB) vs eps",
        combo.name()
    ));
    time.print(&format!(
        "Figure 12 ({}): execution time (simulated s) vs eps",
        combo.name()
    ));
    Ok((repl, shuffle, time))
}

// ---------------------------------------------------------------------------
// Table 4: selectivity and join results.
// ---------------------------------------------------------------------------

/// Table 4: result-set selectivity and join-result counts for the ε sweep
/// (S1⋈S2, R1⋈S1), the size sweep (S1⋈S2) and R2⋈R1.
pub fn table4(cfg: &ExpConfig) -> Result<Table, JoinError> {
    let cluster = cfg.cluster();
    let mut table = Table::new(vec!["configuration", "selectivity (%)", "join results"]);
    for combo in [Combo::S1S2, Combo::R1S1] {
        let (r, s) = combo.datasets(cfg, 1, TupleSizeFactor::F0);
        for &eps in &cfg.eps_values {
            let spec = spec_for(cfg, eps);
            let res = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, 1)?;
            let sel = res.results as f64 / (r.len() as f64 * s.len() as f64) * 100.0;
            table.row(vec![
                format!("{} eps={eps:.3}", combo.name()),
                format!("{sel:.2e}"),
                res.results.to_string(),
            ]);
        }
    }
    for &f in cfg.size_factors.iter().skip(1) {
        let (r, s) = Combo::S1S2.datasets(cfg, f, TupleSizeFactor::F0);
        let spec = spec_for(cfg, cfg.default_eps);
        let res = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, 1)?;
        let sel = res.results as f64 / (r.len() as f64 * s.len() as f64) * 100.0;
        table.row(vec![
            format!("S1 ⋈ S2 x{f}"),
            format!("{sel:.2e}"),
            res.results.to_string(),
        ]);
    }
    {
        let (r, s) = Combo::R2R1.datasets(cfg, 1, TupleSizeFactor::F0);
        let spec = spec_for(cfg, cfg.default_eps);
        let res = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, 1)?;
        let sel = res.results as f64 / (r.len() as f64 * s.len() as f64) * 100.0;
        table.row(vec![
            "R2 ⋈ R1".to_string(),
            format!("{sel:.2e}"),
            res.results.to_string(),
        ]);
    }
    table.print("Table 4: result-set selectivity and join results");
    Ok(table)
}

// ---------------------------------------------------------------------------
// Figure 13: scalability with data size.
// ---------------------------------------------------------------------------

/// Figure 13: replication (a), shuffle remote reads (b) and execution time
/// with construction/join split (c) while scaling S1⋈S2 from x1 upward —
/// plus a peak-partition-memory table (13d, ours) that exposes the ε-grid
/// blow-up the paper reports as an out-of-memory failure (the red ×).
pub fn fig13(cfg: &ExpConfig) -> Result<(Table, Table, Table), JoinError> {
    let cluster = cfg.cluster();
    let mut header = vec!["algorithm".to_string()];
    header.extend(cfg.size_factors.iter().map(|f| format!("x{f}")));
    let mut repl = Table::new(header.clone());
    let mut shuffle = Table::new(header.clone());
    let mut time = Table::new(header.clone());
    let mut mem = Table::new(header);
    for algo in Algorithm::ALL {
        let mut row_repl = vec![algo.name().to_string()];
        let mut row_sh = vec![algo.name().to_string()];
        let mut row_t = vec![algo.name().to_string()];
        let mut row_m = vec![algo.name().to_string()];
        for &f in &cfg.size_factors {
            // The paper raises the partition count with the input size: 96
            // up to x2, then 96 more per size step (192 at x4, 288 at x6,
            // 384 at x8).
            let partitions = match f {
                0..=2 => cfg.partitions,
                4 => cfg.partitions * 2,
                6 => cfg.partitions * 3,
                _ => cfg.partitions * 4,
            };
            let spec = spec_for(cfg, cfg.default_eps).with_partitions(partitions);
            let (r, s) = Combo::S1S2.datasets(cfg, f, TupleSizeFactor::F0);
            let res = run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)?;
            row_repl.push(res.replicated.to_string());
            row_sh.push(mib(res.shuffle_remote));
            // Construction + join split, as in the stacked bars of Fig 13c.
            row_t.push(format!(
                "{:.3} ({:.3}+{:.3})",
                res.sim_time, res.construction_time, res.join_time
            ));
            row_m.push(mib(res.peak_partition_bytes));
        }
        repl.row(row_repl);
        shuffle.row(row_sh);
        time.row(row_t);
        mem.row(row_m);
    }
    repl.print("Figure 13a: replicated objects vs data size (S1 ⋈ S2)");
    shuffle.print("Figure 13b: shuffle remote reads (MiB) vs data size (S1 ⋈ S2)");
    time.print("Figure 13c: execution time s (construction+join) vs data size (S1 ⋈ S2)");
    mem.print("Figure 13d (ours): peak partition memory (MiB) vs data size (S1 ⋈ S2)");
    Ok((repl, shuffle, time))
}

// ---------------------------------------------------------------------------
// Figure 14: scalability with the number of nodes.
// ---------------------------------------------------------------------------

/// Figure 14: execution time and shuffle remote reads on S1⋈S2 while varying
/// the simulated cluster from 4 to 12 nodes.
pub fn fig14(cfg: &ExpConfig) -> Result<(Table, Table), JoinError> {
    let nodes_sweep = [4usize, 6, 8, 10, 12];
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let spec = spec_for(cfg, cfg.default_eps);
    let mut header = vec!["algorithm".to_string()];
    header.extend(nodes_sweep.iter().map(|n| format!("{n} nodes")));
    let mut time = Table::new(header.clone());
    let mut shuffle = Table::new(header);
    for algo in Algorithm::ALL {
        let mut row_t = vec![algo.name().to_string()];
        let mut row_sh = vec![algo.name().to_string()];
        for &n in &nodes_sweep {
            let cluster = cfg.cluster_with_nodes(n);
            let res = run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)?;
            row_t.push(format!("{:.3}", res.sim_time));
            row_sh.push(mib(res.shuffle_remote));
        }
        time.row(row_t);
        shuffle.row(row_sh);
    }
    time.print("Figure 14a: execution time (simulated s) vs number of nodes (S1 ⋈ S2)");
    shuffle.print("Figure 14b: shuffle remote reads (MiB) vs number of nodes (S1 ⋈ S2)");
    Ok((time, shuffle))
}

// ---------------------------------------------------------------------------
// Figure 15: grid resolution.
// ---------------------------------------------------------------------------

/// Figure 15: execution time of LPiB and DIFF with grid resolution 2ε–5ε.
pub fn fig15(cfg: &ExpConfig) -> Result<Table, JoinError> {
    let cluster = cfg.cluster();
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let factors = [2.0f64, 3.0, 4.0, 5.0];
    let mut header = vec!["algorithm".to_string()];
    header.extend(factors.iter().map(|f| format!("{f}eps")));
    let mut table = Table::new(header);
    for algo in [Algorithm::Lpib, Algorithm::Diff] {
        let mut row = vec![algo.name().to_string()];
        for &f in &factors {
            let spec = spec_for(cfg, cfg.default_eps).with_grid_factor(f);
            let res = run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)?;
            row.push(format!("{:.3}", res.sim_time));
        }
        table.row(row);
    }
    table.print("Figure 15: execution time (simulated s) vs grid resolution (S1 ⋈ S2)");
    Ok(table)
}

// ---------------------------------------------------------------------------
// Figures 16/17/18: tuple size factors.
// ---------------------------------------------------------------------------

/// Figures 16 (S1⋈S2), 17 (R1⋈S1) and 18 (R2⋈R1): shuffle remote reads and
/// execution time while increasing the tuple size factor f0–f4.
pub fn fig16_18(cfg: &ExpConfig, combo: Combo) -> Result<(Table, Table), JoinError> {
    let cluster = cfg.cluster();
    // The paper uses 192 partitions for the tuple-size experiments, except
    // 120 for the real-data combination.
    let partitions = match combo {
        Combo::R2R1 => cfg.partitions * 5 / 4,
        _ => cfg.partitions * 2,
    };
    let spec = spec_for(cfg, cfg.default_eps).with_partitions(partitions);
    let mut header = vec!["algorithm".to_string()];
    header.extend(TupleSizeFactor::ALL.iter().map(|f| f.name().to_string()));
    let mut shuffle = Table::new(header.clone());
    let mut time = Table::new(header);
    for algo in Algorithm::ALL {
        let mut row_sh = vec![algo.name().to_string()];
        let mut row_t = vec![algo.name().to_string()];
        for &factor in &TupleSizeFactor::ALL {
            let (r, s) = combo.datasets(cfg, 1, factor);
            let res = run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)?;
            row_sh.push(mib(res.shuffle_remote));
            row_t.push(format!("{:.3}", res.sim_time));
        }
        shuffle.row(row_sh);
        time.row(row_t);
    }
    let fig = match combo {
        Combo::S1S2 => "Figure 16",
        Combo::R1S1 => "Figure 17",
        Combo::R2R1 => "Figure 18",
    };
    shuffle.print(&format!(
        "{fig}a ({}): shuffle remote reads (MiB) vs tuple size",
        combo.name()
    ));
    time.print(&format!(
        "{fig}b ({}): execution time (simulated s) vs tuple size",
        combo.name()
    ));
    Ok((shuffle, time))
}

// ---------------------------------------------------------------------------
// Table 5: attributes on join vs post-processing.
// ---------------------------------------------------------------------------

/// Table 5: LPiB/DIFF with the f1 payload carried through the join versus
/// fetched by id-joins afterwards.
pub fn table5(cfg: &ExpConfig) -> Result<Table, JoinError> {
    let cluster = cfg.cluster();
    let spec = spec_for(cfg, cfg.default_eps);
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F1);
    let mut table = Table::new(vec!["method", "on join (s)", "post-processing (s)"]);
    for policy in [AgreementPolicy::Lpib, AgreementPolicy::Diff] {
        let net = NetModel::gigabit(cfg.nodes);
        let inline = {
            let out = adaptive_join(&cluster, &spec, policy, r.clone(), s.clone())?;
            crate::RunResult::from_output(&out, &net).sim_time
        };
        let fetched = {
            let out = adaptive_join_post_fetch(&cluster, &spec, policy, r.clone(), s.clone())?;
            crate::RunResult::from_output(&out, &net).sim_time
        };
        table.row(vec![
            policy.name().to_string(),
            format!("{inline:.3}"),
            format!("{fetched:.3}"),
        ]);
    }
    table.print(
        "Table 5: extra attributes included on join vs fetched in post-processing (S1 ⋈ S2, f1)",
    );
    Ok(table)
}

// ---------------------------------------------------------------------------
// Table 6: duplicate-free vs dedup operator.
// ---------------------------------------------------------------------------

/// Table 6: duplicate-free assignment versus the simplified assignment with
/// a distributed deduplication operator.
pub fn table6(cfg: &ExpConfig) -> Result<Table, JoinError> {
    let cluster = cfg.cluster();
    let spec = spec_for(cfg, cfg.default_eps);
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let mut table = Table::new(vec![
        "method",
        "duplicate-free (s)",
        "non dup-free + dedup (s)",
    ]);
    for policy in [AgreementPolicy::Lpib, AgreementPolicy::Diff] {
        let net = NetModel::gigabit(cfg.nodes);
        let clean = {
            let out = adaptive_join(&cluster, &spec, policy, r.clone(), s.clone())?;
            crate::RunResult::from_output(&out, &net).sim_time
        };
        let dedup = {
            let out = adaptive_join_dedup(&cluster, &spec, policy, r.clone(), s.clone())?;
            crate::RunResult::from_output(&out, &net).sim_time
        };
        table.row(vec![
            policy.name().to_string(),
            format!("{clean:.3}"),
            format!("{dedup:.3}"),
        ]);
    }
    table.print(
        "Table 6: duplicate-free vs non duplicate-free assignment with deduplication (S1 ⋈ S2)",
    );
    Ok(table)
}

// ---------------------------------------------------------------------------
// Table 7: hash vs LPT placement.
// ---------------------------------------------------------------------------

/// Table 7: LPiB/DIFF execution time under hash-based and LPT cell placement
/// for S1⋈S2 (x4) and R2⋈R1, plus SJMR's round-robin tile mapping as an
/// extra related-work column.
pub fn table7(cfg: &ExpConfig) -> Result<Table, JoinError> {
    let cluster = cfg.cluster();
    let mut table = Table::new(vec![
        "configuration",
        "hash (s)",
        "LPT (s)",
        "round-robin (s)",
        "LPT gain (%)",
    ]);
    let x4 = *cfg.size_factors.iter().find(|&&f| f >= 4).unwrap_or(&1);
    for (combo, factor) in [(Combo::S1S2, x4), (Combo::R2R1, 1usize)] {
        let (r, s) = combo.datasets(cfg, factor, TupleSizeFactor::F0);
        for algo in [Algorithm::Lpib, Algorithm::Diff] {
            let hash_spec = spec_for(cfg, cfg.default_eps);
            let lpt_spec = spec_for(cfg, cfg.default_eps).with_placement(Placement::Lpt);
            let rr_spec = spec_for(cfg, cfg.default_eps).with_placement(Placement::RoundRobin);
            let hash = run_avg(&cluster, &hash_spec, algo, &r, &s, cfg.reps)?;
            let lpt = run_avg(&cluster, &lpt_spec, algo, &r, &s, cfg.reps)?;
            let rr = run_avg(&cluster, &rr_spec, algo, &r, &s, cfg.reps)?;
            let gain = (hash.sim_time - lpt.sim_time) / hash.sim_time * 100.0;
            table.row(vec![
                format!("{} x{factor} {}", combo.name(), algo.name()),
                format!("{:.3}", hash.sim_time),
                format!("{:.3}", lpt.sim_time),
                format!("{:.3}", rr.sim_time),
                format!("{gain:.1}"),
            ]);
        }
    }
    table.print("Table 7: hash vs LPT (vs SJMR round-robin) assignment of cells to workers");
    Ok(table)
}

// ---------------------------------------------------------------------------
// Ablations (ours, not in the paper).
// ---------------------------------------------------------------------------

/// Ablation A1: the distributed join under every fixed partition-local
/// kernel and under `Auto` (the calibrated cost model picking per cell
/// group), on a uniform and a skewed workload. Results are identical across
/// kernels; candidates and join times differ, and `Auto` must track the best
/// fixed kernel's simulated time on both workloads. The tolerance (5%
/// relative plus 2 ms absolute) covers measurement noise in the wall-clock
/// makespans: the kernels' construction phases are identical, and `Auto`
/// resolves each cell group to whatever fixed kernel the calibrated model
/// scores cheapest, so any genuine regression shows up well beyond it.
pub fn ablation_kernels(cfg: &ExpConfig) -> Result<Table, JoinError> {
    use asj_data::{DatasetSpec, GenKind};
    use asj_join::{to_records, LocalKernel};
    let cluster = cfg.cluster();
    // Per-run times at quick scale are a few ms; extra repetitions keep the
    // auto-vs-fixed comparison out of the noise floor.
    let reps = cfg.reps.max(5);
    let mut table = Table::new(vec![
        "workload",
        "kernel",
        "candidates",
        "results",
        "join time (s)",
        "total (s)",
    ]);
    for (workload, kind) in [
        ("uniform", GenKind::Uniform),
        ("skewed", GenKind::GaussianClusters),
    ] {
        let gen = |seed: u64| {
            DatasetSpec {
                name: "ablation",
                kind,
                cardinality: cfg.base,
                seed,
                bbox: PAPER_BBOX,
                sigma_scale: 1.0,
            }
            .points()
        };
        let r = to_records(&gen(101), 0);
        let s = to_records(&gen(202), 0);
        let mut best_fixed = f64::INFINITY;
        let mut auto_time = f64::INFINITY;
        let mut results: Option<u64> = None;
        for (name, kernel) in [
            ("nested-loop", LocalKernel::NestedLoop),
            ("plane-sweep", LocalKernel::PlaneSweep),
            ("grid-bucket", LocalKernel::GridBucket),
            ("auto", LocalKernel::Auto),
        ] {
            let spec = spec_for(cfg, cfg.default_eps).with_kernel(kernel);
            let res = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, reps)?;
            match results {
                None => results = Some(res.results),
                Some(n) => assert_eq!(n, res.results, "{workload}: kernels must agree"),
            }
            if kernel == LocalKernel::Auto {
                auto_time = res.sim_time;
            } else {
                best_fixed = best_fixed.min(res.sim_time);
            }
            table.row(vec![
                workload.to_string(),
                name.to_string(),
                res.candidates.to_string(),
                res.results.to_string(),
                format!("{:.3}", res.join_time),
                format!("{:.3}", res.sim_time),
            ]);
        }
        assert!(
            auto_time <= best_fixed * 1.05 + 2e-3,
            "{workload}: auto ({auto_time:.3}s) must track the best fixed kernel ({best_fixed:.3}s)"
        );
    }
    table.print("Ablation A1: partition-local join kernel (LPiB, uniform and skewed)");
    Ok(table)
}

/// Ablation A2: Algorithm 1's diagonal-first edge order versus naive
/// weight-only ordering — replication induced by each (the reason the paper
/// prioritizes edges whose cells share only a touching point, §5.2).
pub fn ablation_edge_order(cfg: &ExpConfig) -> Table {
    use asj_core::{build_duplicate_free_with_order, EdgeOrder, SetLabel};
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let grid = Grid::new(GridSpec::new(PAPER_BBOX, cfg.default_eps));
    let sample = GridSample::from_points(
        &grid,
        r.iter().step_by(33).map(|rec| rec.point),
        s.iter().step_by(33).map(|rec| rec.point),
    );
    let mut table = Table::new(vec!["edge order", "marked edges", "replicated objects"]);
    for (name, order) in [
        ("diagonal-first", EdgeOrder::DiagonalFirst),
        ("weight-only", EdgeOrder::WeightOnly),
    ] {
        let mut graph = AgreementGraph::build_unmarked(&grid, &sample, AgreementPolicy::Lpib);
        build_duplicate_free_with_order(&mut graph, &sample, order);
        assert_eq!(graph.validate().unresolved_hazards, 0);
        let mut cells = Vec::with_capacity(4);
        let mut replicas = 0u64;
        for rec in &r {
            graph.assign(rec.point, SetLabel::R, &mut cells);
            replicas += cells.len() as u64 - 1;
        }
        for rec in &s {
            graph.assign(rec.point, SetLabel::S, &mut cells);
            replicas += cells.len() as u64 - 1;
        }
        table.row(vec![
            name.to_string(),
            graph.marked_edge_count().to_string(),
            replicas.to_string(),
        ]);
    }
    table.print("Ablation A2: Algorithm 1 edge ordering (LPiB, S1 ⋈ S2)");
    table
}

// ---------------------------------------------------------------------------
// Everything.
// ---------------------------------------------------------------------------

/// Regenerates every table and figure of the paper in order.
pub fn run_all(cfg: &ExpConfig) -> Result<(), JoinError> {
    println!(
        "# Reproduction run: base={} eps={:?} nodes={} partitions={} reps={}",
        cfg.base, cfg.eps_values, cfg.nodes, cfg.partitions, cfg.reps
    );
    table1();
    fig1b(cfg)?;
    fig10_11_12(cfg, Combo::S1S2)?;
    fig10_11_12(cfg, Combo::R1S1)?;
    table4(cfg)?;
    fig13(cfg)?;
    fig14(cfg)?;
    fig15(cfg)?;
    fig16_18(cfg, Combo::S1S2)?;
    fig16_18(cfg, Combo::R1S1)?;
    fig16_18(cfg, Combo::R2R1)?;
    table5(cfg)?;
    table6(cfg)?;
    table7(cfg)?;
    ablation_kernels(cfg)?;
    ablation_edge_order(cfg);
    extensions(cfg)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Fault-tolerance A/B (ours): recovery transparency and its time overhead.
// ---------------------------------------------------------------------------

/// Fault-injection A/B: every algorithm runs fault-free and under a seeded
/// chaos plan (random failures + one slow node + one lost node); the result
/// sets must be identical and the table reports the recovery work and the
/// simulated-time overhead. Not part of the paper's evaluation — it
/// exercises the Spark fault-tolerance semantics the paper's jobs rely on.
pub fn fault_tolerance(
    cfg: &ExpConfig,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> Result<Table, JoinError> {
    // Speculative copies need a second worker thread to race the straggler;
    // on a single-core host `ClusterConfig::new` would provide only one.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    let cluster = Cluster::new(ClusterConfig::with_threads(cfg.nodes, threads));
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let spec = spec_for(cfg, cfg.default_eps);
    let mut table = Table::new(
        [
            "algorithm",
            "results",
            "attempts",
            "retries",
            "spec wins",
            "blacklisted",
            "time",
            "time (faults)",
        ]
        .map(str::to_string)
        .to_vec(),
    );
    for algo in [Algorithm::Lpib, Algorithm::Diff] {
        let ab = run_fault_ab(&cluster, &spec, algo, &r, &s, plan.clone(), policy)?;
        table.row(vec![
            algo.name().to_string(),
            ab.faulted.results.to_string(),
            ab.attempts.to_string(),
            ab.retries.to_string(),
            ab.speculative_wins.to_string(),
            ab.blacklisted_nodes.to_string(),
            format!("{:.3}", ab.baseline.sim_time),
            format!("{:.3}", ab.faulted.sim_time),
        ]);
    }
    table.print(&format!(
        "Fault tolerance (S1 ⋈ S2, plan seed {}): identical results under chaos",
        plan.seed
    ));
    Ok(table)
}

// ---------------------------------------------------------------------------
// Extension experiments (ours): the operations beyond the paper's evaluation.
// ---------------------------------------------------------------------------

/// Extension experiments: the ε self-join (MR-DSJ setting), the
/// expanding-ring kNN join, and the polyline/polygon extent join, each with
/// its headline metrics. Not part of the paper's evaluation; they
/// characterize the substrate the future-work directions run on.
pub fn extensions(cfg: &ExpConfig) -> Result<(Table, Table, Table), JoinError> {
    use asj_data::{random_boxes, random_polylines};
    use asj_geom::Shape;
    use asj_join::{extent_join, knn_join, self_join, ExtentRecord};

    let cluster = cfg.cluster();

    // Self-join of S1 across the ε sweep.
    let (s1, _) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let mut selfj = Table::new(vec![
        "eps",
        "pairs",
        "replicated",
        "shuffle (MiB)",
        "time (s)",
    ]);
    for &eps in &cfg.eps_values {
        let spec = spec_for(cfg, eps);
        let out = self_join(&cluster, &spec, s1.clone())?;
        let net = NetModel::gigabit(cfg.nodes);
        let res = crate::RunResult::from_output(&out, &net);
        selfj.row(vec![
            format!("{eps:.3}"),
            out.result_count.to_string(),
            out.replicated_total().to_string(),
            mib(res.shuffle_remote),
            format!("{:.3}", res.sim_time),
        ]);
    }
    selfj.print("Extension: eps self-join of S1 (MR-DSJ setting)");

    // kNN join: rounds and time vs k.
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let mut knn = Table::new(vec!["k", "rounds", "shuffle (MiB)", "makespan (s)"]);
    for k in [1usize, 5, 10, 20] {
        let spec = spec_for(cfg, cfg.default_eps);
        let out = knn_join(&cluster, &spec, k, r.clone(), s.clone())?;
        knn.row(vec![
            k.to_string(),
            out.rounds.to_string(),
            mib(out.shuffle.total_bytes()),
            format!("{:.3}", out.exec.makespan().as_secs_f64()),
        ]);
    }
    knn.print("Extension: kNN join of S1 queries against S2 (expanding ring)");

    // Extent join: rivers × parks at 1/10 of the point scale.
    let n = (cfg.base / 10).max(500);
    let bbox = PAPER_BBOX;
    let rivers: Vec<ExtentRecord> = random_polylines(bbox, n, 10, 11)
        .into_iter()
        .enumerate()
        .map(|(i, l)| ExtentRecord::new(i as u64, Shape::Polyline(l)))
        .collect();
    let parks: Vec<ExtentRecord> = random_boxes(bbox, n, 0.8, 12)
        .into_iter()
        .enumerate()
        .map(|(i, g)| ExtentRecord::new(i as u64, Shape::Polygon(g)))
        .collect();
    let mut ext = Table::new(vec!["eps", "pairs", "replicated", "peak partition (MiB)"]);
    for &eps in &cfg.eps_values {
        let spec = spec_for(cfg, eps);
        let out = extent_join(&cluster, &spec, rivers.clone(), parks.clone())?;
        ext.row(vec![
            format!("{eps:.3}"),
            out.result_count.to_string(),
            out.replicated_total().to_string(),
            mib(out.metrics.shuffle.peak_partition_bytes()),
        ]);
    }
    ext.print(&format!(
        "Extension: extent join, {n} river polylines x {n} park polygons"
    ));

    // Sampling-fraction sweep: the paper states 3 % "offers the best
    // performance"; this table shows the trade (construction cost vs
    // replication quality of the sampled agreement graph).
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let mut phi = Table::new(vec![
        "sample phi",
        "replicated",
        "construction (s)",
        "total (s)",
    ]);
    for fraction in [0.005f64, 0.01, 0.03, 0.10, 0.30] {
        let spec = spec_for(cfg, cfg.default_eps).with_sample_fraction(fraction);
        let res = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, cfg.reps)?;
        phi.row(vec![
            format!("{:.1}%", fraction * 100.0),
            res.replicated.to_string(),
            format!("{:.3}", res.construction_time),
            format!("{:.3}", res.sim_time),
        ]);
    }
    phi.print("Extension: sampling fraction sweep (LPiB, S1 ⋈ S2)");
    Ok((selfj, knn, ext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_join::oracle;

    /// Table 1 must match the paper's numbers exactly: 12 replicated objects
    /// with per-cell costs (15, 4, 10, 12) under UNI(R); 13 replicated with
    /// (6, 18, 10, 8) under UNI(S).
    #[test]
    fn table1_matches_paper_exactly() {
        let t = table1();
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        let cell = |row: usize| -> Vec<String> {
            lines[row + 2]
                .split_whitespace()
                .map(str::to_string)
                .collect()
        };
        // Rows: A, B, C, D, total — columns: replicas R, cost R, replicas S, cost S.
        assert_eq!(cell(0), vec!["A", "4", "15", "3", "6"]);
        assert_eq!(cell(1), vec!["B", "1", "4", "5", "18"]);
        assert_eq!(cell(2), vec!["C", "3", "10", "3", "10"]);
        assert_eq!(cell(3), vec!["D", "4", "12", "2", "8"]);
        assert_eq!(cell(4), vec!["total", "12", "41", "13", "42"]);
    }

    /// The reconstructed Figure-2 instance must put each point in its
    /// documented cell.
    #[test]
    fn figure2_points_live_in_documented_cells() {
        let grid = figure2_grid();
        let (r, s) = figure2_instance();
        let names_r = ["A", "B", "B", "B", "C", "C", "D", "D"];
        let names_s = ["A", "A", "A", "B", "C", "C", "D", "D"];
        for (p, want) in r.iter().zip(names_r) {
            assert_eq!(super::figure2_cell_name(grid.cell_of(*p)), want);
        }
        for (p, want) in s.iter().zip(names_s) {
            assert_eq!(super::figure2_cell_name(grid.cell_of(*p)), want);
        }
    }

    /// Example 4.3 of the paper, on the reconstructed instance: between
    /// cells A and D, LPiB counts the border candidates (2 S: s3, s7 vs
    /// 3 R: r1, r7, r8) and picks α_S; DIFF looks at the most imbalanced
    /// cell (A: |1−3| = 2 beats D: |2−2| = 0) and picks the sparse set
    /// there, α_R.
    #[test]
    fn example_4_3_lpib_vs_diff_decision() {
        use asj_core::SetLabel;
        let grid = figure2_grid();
        let (r, s) = figure2_instance();
        let sample = GridSample::from_points(&grid, r.iter().copied(), s.iter().copied());
        let a = asj_grid::CellCoord { x: 0, y: 1 };
        let d = asj_grid::CellCoord { x: 0, y: 0 };
        assert_eq!(
            AgreementPolicy::Lpib.agreement_type(&grid, &sample, a, d),
            SetLabel::S
        );
        assert_eq!(
            AgreementPolicy::Diff.agreement_type(&grid, &sample, a, d),
            SetLabel::R
        );
    }

    /// Example 4.4: under the LPiB instantiation, w(e_BA) = 1·3 (one R point
    /// r2 replicated from B into A's three S points) and w(e_CB) = 1·3 (one
    /// S point s5 into B's three R points).
    #[test]
    fn example_4_4_edge_weights() {
        use asj_core::{Dir8, SetLabel};
        let grid = figure2_grid();
        let (r, s) = figure2_instance();
        let sample = GridSample::from_points(&grid, r.iter().copied(), s.iter().copied());
        let a = asj_grid::CellCoord { x: 0, y: 1 };
        let b = asj_grid::CellCoord { x: 1, y: 1 };
        let c = asj_grid::CellCoord { x: 1, y: 0 };
        // The paper's graph instance is LPiB-based with A–B of type α_R and
        // C–B of type α_S.
        assert_eq!(
            AgreementPolicy::Lpib.agreement_type(&grid, &sample, a, b),
            SetLabel::R
        );
        assert_eq!(
            AgreementPolicy::Lpib.agreement_type(&grid, &sample, c, b),
            SetLabel::S
        );
        // Weight = border candidates of the agreement's set × partner points
        // in the head cell (Example 4.4 computes both as 1 · 3 = 3).
        let w_ba = sample.border_count(grid.cell_index(b), Dir8::W, SetLabel::R)
            * sample.total(grid.cell_index(a), SetLabel::S);
        assert_eq!(w_ba, 3);
        let w_cb = sample.border_count(grid.cell_index(c), Dir8::N, SetLabel::S)
            * sample.total(grid.cell_index(b), SetLabel::R);
        assert_eq!(w_cb, 3);
    }

    /// Smoke test: a tiny full run of the headline experiment shows the
    /// paper's shape — adaptive replicates (far) less than the best PBSM
    /// variant, with identical results.
    #[test]
    fn adaptive_beats_pbsm_on_replication() -> Result<(), JoinError> {
        let cfg = ExpConfig::quick().with_base(4000);
        let cluster = cfg.cluster();
        let spec = spec_for(&cfg, cfg.default_eps);
        let (r, s) = Combo::S1S2.datasets(&cfg, 1, TupleSizeFactor::F0);
        let lpib = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, 1)?;
        let uni_r = run_avg(&cluster, &spec, Algorithm::UniR, &r, &s, 1)?;
        let uni_s = run_avg(&cluster, &spec, Algorithm::UniS, &r, &s, 1)?;
        assert_eq!(lpib.results, uni_r.results);
        assert_eq!(lpib.results, uni_s.results);
        assert!(
            lpib.replicated < uni_r.replicated.min(uni_s.replicated),
            "adaptive {} vs UNI(R) {} / UNI(S) {}",
            lpib.replicated,
            uni_r.replicated,
            uni_s.replicated
        );
        // Cross-check the result count against the centralized oracle.
        let expected = oracle::rtree_pairs(&r, &s, spec.eps).len() as u64;
        assert_eq!(lpib.results, expected);
        Ok(())
    }
}
