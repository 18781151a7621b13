//! One function per paper artifact. Each returns its typed tables;
//! [`EXPERIMENTS`] names every experiment for `repro`, which prints the
//! tables and writes them to `repro.json` (see [`Record`](crate::Record)).

use crate::runner::{run_avg, run_fault_ab, Combo, NetModel, RunResult};
use crate::{memory, multitenant, recovery, Cell, ExpConfig, Table};
use asj_core::{cell_costs, AgreementGraph, AgreementPolicy, GridSample};
use asj_data::{TupleSizeFactor, PAPER_BBOX};
use asj_engine::{Cluster, ClusterConfig, FaultPlan, Placement, RetryPolicy};
use asj_geom::{Point, Rect};
use asj_grid::{Grid, GridSpec};
use asj_join::{
    adaptive_join, adaptive_join_dedup, adaptive_join_post_fetch, Algorithm, JoinError, JoinOutput,
    JoinSpec, Record,
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
    let mut table = Table::new(
        "table1",
        "Table 1: running example — universal replication of R vs S",
        vec![
            "cell",
            "UNI(R) replicas",
            "UNI(R) cost",
            "UNI(S) replicas",
            "UNI(S) cost",
        ],
    );
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
        let ci = grid.cell_index(coord);
        let row = [
            costs_r[ci].r - native[ci][0],
            costs_r[ci].cost(),
            costs_s[ci].s - native[ci][1],
            costs_s[ci].cost(),
        ];
        for (total, n) in totals.iter_mut().zip(row) {
            *total += n;
        }
        let name = Cell::label(figure2_cell_name(coord));
        table.row(std::iter::once(name).chain(row.map(Cell::Count)).collect());
    }
    table.row(
        std::iter::once(Cell::label("total"))
            .chain(totals.map(Cell::Count))
            .collect(),
    );
    table
}

// ---------------------------------------------------------------------------
// Figure 1b: relative replication overhead of PBSM over adaptive.
// ---------------------------------------------------------------------------

/// Figure 1b: for each dataset combination, the ratio of the best PBSM
/// variant's replicated objects to adaptive replication's (log-scale chart in
/// the paper; a ratio table here).
pub fn fig1b(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    let cluster = cfg.cluster();
    let spec = spec_for(cfg, cfg.default_eps);
    let mut table = Table::new(
        "fig1b",
        "Figure 1b: replication overhead of PBSM over adaptive replication",
        vec![
            "combination",
            "LPiB repl.",
            "UNI(R) repl.",
            "UNI(S) repl.",
            "overhead (best UNI / LPiB)",
        ],
    );
    for combo in Combo::ALL {
        let (r, s) = combo.datasets(cfg, 1, TupleSizeFactor::F0);
        let lpib = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, 1)?;
        let uni_r = run_avg(&cluster, &spec, Algorithm::UniR, &r, &s, 1)?;
        let uni_s = run_avg(&cluster, &spec, Algorithm::UniS, &r, &s, 1)?;
        let best = uni_r.replicated.min(uni_s.replicated);
        let ratio = best as f64 / lpib.replicated.max(1) as f64;
        table.row(vec![
            Cell::label(combo.name()),
            Cell::Count(lpib.replicated),
            Cell::Count(uni_r.replicated),
            Cell::Count(uni_s.replicated),
            Cell::Measure(ratio, format!("{ratio:.1}x")),
        ]);
    }
    Ok(vec![table])
}

// ---------------------------------------------------------------------------
// The sweep figures: a row per algorithm, a column per sweep point.
// ---------------------------------------------------------------------------

/// How one run fills a cell of a sweep table.
type Metric = fn(&RunResult) -> Cell;

/// One table per `(key, title, metric)`, a row per algorithm of `algos`, a
/// column per labelled point; `run` performs the run behind one (algorithm,
/// point).
fn sweep<P: Copy>(
    algos: &[Algorithm],
    points: &[(String, P)],
    metrics: &[(String, String, Metric)],
    mut run: impl FnMut(Algorithm, P) -> Result<RunResult, JoinError>,
) -> Result<Vec<Table>, JoinError> {
    let header: Vec<String> = std::iter::once("algorithm".to_string())
        .chain(points.iter().map(|(label, _)| label.clone()))
        .collect();
    let mut tables: Vec<Table> = metrics
        .iter()
        .map(|(key, title, _)| Table::new(key.as_str(), title.as_str(), header.clone()))
        .collect();
    for &algo in algos {
        let mut rows: Vec<Vec<Cell>> = metrics
            .iter()
            .map(|_| vec![Cell::label(algo.name())])
            .collect();
        for &(_, point) in points {
            let res = run(algo, point)?;
            for (row, (_, _, metric)) in rows.iter_mut().zip(metrics) {
                row.push(metric(&res));
            }
        }
        for (table, row) in tables.iter_mut().zip(rows) {
            table.row(row);
        }
    }
    Ok(tables)
}

/// Figures 10 (replication), 11 (shuffle remote reads) and 12 (execution
/// time) for one dataset combination over the ε sweep.
pub fn fig10_11_12(cfg: &ExpConfig, combo: Combo) -> Result<Vec<Table>, JoinError> {
    let cluster = cfg.cluster();
    let (r, s) = combo.datasets(cfg, 1, TupleSizeFactor::F0);
    let eps: Vec<(String, f64)> = cfg
        .eps_values
        .iter()
        .map(|&e| (format!("eps={e:.3}"), e))
        .collect();
    let name = combo.name();
    sweep(
        &Algorithm::ALL,
        &eps,
        &[
            (
                format!("fig10 {name}"),
                format!("Figure 10 ({name}): replicated objects vs eps"),
                |res| Cell::Count(res.replicated),
            ),
            (
                format!("fig11 {name}"),
                format!("Figure 11 ({name}): shuffle remote reads (MiB) vs eps"),
                |res| Cell::Mib(res.shuffle_remote),
            ),
            (
                format!("fig12 {name}"),
                format!("Figure 12 ({name}): execution time (simulated s) vs eps"),
                |res| Cell::secs(res.sim_time),
            ),
        ],
        |algo, eps| run_avg(&cluster, &spec_for(cfg, eps), algo, &r, &s, cfg.reps),
    )
}

// ---------------------------------------------------------------------------
// Table 4: selectivity and join results.
// ---------------------------------------------------------------------------

/// Table 4: result-set selectivity and join-result counts for the ε sweep
/// (S1⋈S2, R1⋈S1), the size sweep (S1⋈S2) and R2⋈R1.
pub fn table4(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    let cluster = cfg.cluster();
    let mut table = Table::new(
        "table4",
        "Table 4: result-set selectivity and join results",
        vec!["configuration", "selectivity (%)", "join results"],
    );
    let mut legs = Vec::new();
    for combo in [Combo::S1S2, Combo::R1S1] {
        for &eps in &cfg.eps_values {
            legs.push((format!("{} eps={eps:.3}", combo.name()), combo, 1, eps));
        }
    }
    for &f in cfg.size_factors.iter().skip(1) {
        legs.push((format!("S1 ⋈ S2 x{f}"), Combo::S1S2, f, cfg.default_eps));
    }
    legs.push(("R2 ⋈ R1".to_string(), Combo::R2R1, 1, cfg.default_eps));
    for (label, combo, factor, eps) in legs {
        let (r, s) = combo.datasets(cfg, factor, TupleSizeFactor::F0);
        let res = run_avg(&cluster, &spec_for(cfg, eps), Algorithm::Lpib, &r, &s, 1)?;
        let sel = res.results as f64 / (r.len() as f64 * s.len() as f64) * 100.0;
        table.row(vec![
            Cell::Label(label),
            Cell::Measure(sel, format!("{sel:.2e}")),
            Cell::Count(res.results),
        ]);
    }
    Ok(vec![table])
}

// ---------------------------------------------------------------------------
// Figure 13: scalability with data size.
// ---------------------------------------------------------------------------

/// Figure 13: replication (a), shuffle remote reads (b) and execution time
/// with construction/join split (c) while scaling S1⋈S2 from x1 upward —
/// plus a peak-partition-memory table (13d, ours) that exposes the ε-grid
/// blow-up the paper reports as an out-of-memory failure (the red ×).
pub fn fig13(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    let cluster = cfg.cluster();
    let sizes: Vec<(String, usize)> = cfg
        .size_factors
        .iter()
        .map(|&f| (format!("x{f}"), f))
        .collect();
    sweep(
        &Algorithm::ALL,
        &sizes,
        &[
            (
                "fig13a".into(),
                "Figure 13a: replicated objects vs data size (S1 ⋈ S2)".into(),
                |res| Cell::Count(res.replicated),
            ),
            (
                "fig13b".into(),
                "Figure 13b: shuffle remote reads (MiB) vs data size (S1 ⋈ S2)".into(),
                |res| Cell::Mib(res.shuffle_remote),
            ),
            (
                "fig13c".into(),
                "Figure 13c: execution time s (construction+join) vs data size (S1 ⋈ S2)".into(),
                // Construction + join split, as in the stacked bars of Fig 13c.
                |res| {
                    let split = format!(
                        "{:.3} ({:.3}+{:.3})",
                        res.sim_time, res.construction_time, res.join_time
                    );
                    Cell::Measure(res.sim_time, split)
                },
            ),
            (
                "fig13d".into(),
                "Figure 13d (ours): peak partition memory (MiB) vs data size (S1 ⋈ S2)".into(),
                |res| Cell::Mib(res.peak_partition_bytes),
            ),
        ],
        |algo, f| {
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
            run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)
        },
    )
}

// ---------------------------------------------------------------------------
// Figure 14: scalability with the number of nodes.
// ---------------------------------------------------------------------------

/// Figure 14: execution time and shuffle remote reads on S1⋈S2 while varying
/// the simulated cluster from 4 to 12 nodes.
pub fn fig14(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let spec = spec_for(cfg, cfg.default_eps);
    let nodes = [4usize, 6, 8, 10, 12].map(|n| (format!("{n} nodes"), n));
    sweep(
        &Algorithm::ALL,
        &nodes,
        &[
            (
                "fig14a".into(),
                "Figure 14a: execution time (simulated s) vs number of nodes (S1 ⋈ S2)".into(),
                |res| Cell::secs(res.sim_time),
            ),
            (
                "fig14b".into(),
                "Figure 14b: shuffle remote reads (MiB) vs number of nodes (S1 ⋈ S2)".into(),
                |res| Cell::Mib(res.shuffle_remote),
            ),
        ],
        |algo, n| run_avg(&cfg.cluster_with_nodes(n), &spec, algo, &r, &s, cfg.reps),
    )
}

// ---------------------------------------------------------------------------
// Figure 15: grid resolution.
// ---------------------------------------------------------------------------

/// Figure 15: execution time of LPiB and DIFF with grid resolution 2ε–5ε.
pub fn fig15(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    let cluster = cfg.cluster();
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let factors = [2.0f64, 3.0, 4.0, 5.0].map(|f| (format!("{f}eps"), f));
    sweep(
        &[Algorithm::Lpib, Algorithm::Diff],
        &factors,
        &[(
            "fig15".into(),
            "Figure 15: execution time (simulated s) vs grid resolution (S1 ⋈ S2)".into(),
            |res| Cell::secs(res.sim_time),
        )],
        |algo, f| {
            let spec = spec_for(cfg, cfg.default_eps).with_grid_factor(f);
            run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)
        },
    )
}

// ---------------------------------------------------------------------------
// Figures 16/17/18: tuple size factors.
// ---------------------------------------------------------------------------

/// Figures 16 (S1⋈S2), 17 (R1⋈S1) and 18 (R2⋈R1): shuffle remote reads and
/// execution time while increasing the tuple size factor f0–f4.
pub fn fig16_18(cfg: &ExpConfig, combo: Combo) -> Result<Vec<Table>, JoinError> {
    let cluster = cfg.cluster();
    // The paper uses 192 partitions for the tuple-size experiments, except
    // 120 for the real-data combination.
    let partitions = match combo {
        Combo::R2R1 => cfg.partitions * 5 / 4,
        _ => cfg.partitions * 2,
    };
    let spec = spec_for(cfg, cfg.default_eps).with_partitions(partitions);
    let fig = match combo {
        Combo::S1S2 => 16,
        Combo::R1S1 => 17,
        Combo::R2R1 => 18,
    };
    let name = combo.name();
    let factors = TupleSizeFactor::ALL.map(|f| (f.name().to_string(), f));
    sweep(
        &Algorithm::ALL,
        &factors,
        &[
            (
                format!("fig{fig}a"),
                format!("Figure {fig}a ({name}): shuffle remote reads (MiB) vs tuple size"),
                |res| Cell::Mib(res.shuffle_remote),
            ),
            (
                format!("fig{fig}b"),
                format!("Figure {fig}b ({name}): execution time (simulated s) vs tuple size"),
                |res| Cell::secs(res.sim_time),
            ),
        ],
        |algo, factor| {
            let (r, s) = combo.datasets(cfg, 1, factor);
            run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)
        },
    )
}

// ---------------------------------------------------------------------------
// Tables 5 and 6: two variants of each adaptive policy.
// ---------------------------------------------------------------------------

/// A join of one agreement policy, as Tables 5 and 6 compare them.
type PolicyJoin = fn(
    &Cluster,
    &JoinSpec,
    AgreementPolicy,
    Vec<Record>,
    Vec<Record>,
) -> Result<JoinOutput, JoinError>;

/// LPiB and DIFF on S1⋈S2 at `tuple`: the simulated time of join `a` and of
/// join `b`, one row per policy.
fn policy_ab(
    cfg: &ExpConfig,
    mut table: Table,
    tuple: TupleSizeFactor,
    a: PolicyJoin,
    b: PolicyJoin,
) -> Result<Vec<Table>, JoinError> {
    let cluster = cfg.cluster();
    let spec = spec_for(cfg, cfg.default_eps);
    let (r, s) = Combo::S1S2.datasets(cfg, 1, tuple);
    let net = NetModel::gigabit(cfg.nodes);
    for policy in [AgreementPolicy::Lpib, AgreementPolicy::Diff] {
        let mut row = vec![Cell::label(policy.name())];
        for join in [a, b] {
            let out = join(&cluster, &spec, policy, r.clone(), s.clone())?;
            row.push(Cell::secs(RunResult::from_output(&out, &net).sim_time));
        }
        table.row(row);
    }
    Ok(vec![table])
}

/// Table 5: LPiB/DIFF with the f1 payload carried through the join versus
/// fetched by id-joins afterwards.
pub fn table5(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    let table = Table::new(
        "table5",
        "Table 5: extra attributes included on join vs fetched in post-processing (S1 ⋈ S2, f1)",
        vec!["method", "on join (s)", "post-processing (s)"],
    );
    policy_ab(
        cfg,
        table,
        TupleSizeFactor::F1,
        adaptive_join,
        adaptive_join_post_fetch,
    )
}

/// Table 6: duplicate-free assignment versus the simplified assignment with
/// a distributed deduplication operator.
pub fn table6(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    let table = Table::new(
        "table6",
        "Table 6: duplicate-free vs non duplicate-free assignment with deduplication (S1 ⋈ S2)",
        vec!["method", "duplicate-free (s)", "non dup-free + dedup (s)"],
    );
    policy_ab(
        cfg,
        table,
        TupleSizeFactor::F0,
        adaptive_join,
        adaptive_join_dedup,
    )
}

// ---------------------------------------------------------------------------
// Table 7: hash vs LPT placement.
// ---------------------------------------------------------------------------

/// Table 7: LPiB/DIFF execution time under hash-based and LPT cell placement
/// for S1⋈S2 (x4) and R2⋈R1, plus SJMR's round-robin tile mapping as an
/// extra related-work column.
pub fn table7(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    let cluster = cfg.cluster();
    let mut table = Table::new(
        "table7",
        "Table 7: hash vs LPT (vs SJMR round-robin) assignment of cells to workers",
        vec![
            "configuration",
            "hash (s)",
            "LPT (s)",
            "round-robin (s)",
            "LPT gain (%)",
        ],
    );
    let x4 = *cfg.size_factors.iter().find(|&&f| f >= 4).unwrap_or(&1);
    for (combo, factor) in [(Combo::S1S2, x4), (Combo::R2R1, 1usize)] {
        let (r, s) = combo.datasets(cfg, factor, TupleSizeFactor::F0);
        for algo in [Algorithm::Lpib, Algorithm::Diff] {
            let label = format!("{} x{factor} {}", combo.name(), algo.name());
            let mut row = vec![Cell::Label(label)];
            let mut times = Vec::new();
            for placement in [Placement::Hash, Placement::Lpt, Placement::RoundRobin] {
                let spec = spec_for(cfg, cfg.default_eps).with_placement(placement);
                let time = run_avg(&cluster, &spec, algo, &r, &s, cfg.reps)?.sim_time;
                times.push(time);
                row.push(Cell::secs(time));
            }
            let gain = (times[0] - times[1]) / times[0] * 100.0;
            row.push(Cell::Measure(gain, format!("{gain:.1}")));
            table.row(row);
        }
    }
    Ok(vec![table])
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
pub fn ablation_kernels(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    use asj_data::{DatasetSpec, GenKind};
    use asj_join::{to_records, LocalKernel};
    let cluster = cfg.cluster();
    // Per-run times at quick scale are a few ms; extra repetitions keep the
    // auto-vs-fixed comparison out of the noise floor.
    let reps = cfg.reps.max(5);
    let mut table = Table::new(
        "a1",
        "Ablation A1: partition-local join kernel (LPiB, uniform and skewed)",
        vec![
            "workload",
            "kernel",
            "candidates",
            "results",
            "join time (s)",
            "total (s)",
        ],
    );
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
            // Auto's picks follow a cost model calibrated by timing, so its
            // candidate count is a measurement.
            let candidates = if kernel == LocalKernel::Auto {
                auto_time = res.sim_time;
                Cell::varying(res.candidates)
            } else {
                best_fixed = best_fixed.min(res.sim_time);
                Cell::Count(res.candidates)
            };
            table.row(vec![
                Cell::label(workload),
                Cell::label(name),
                candidates,
                Cell::Count(res.results),
                Cell::secs(res.join_time),
                Cell::secs(res.sim_time),
            ]);
        }
        assert!(
            auto_time <= best_fixed * 1.05 + 2e-3,
            "{workload}: auto ({auto_time:.3}s) must track the best fixed kernel ({best_fixed:.3}s)"
        );
    }
    Ok(vec![table])
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
    let mut table = Table::new(
        "a2",
        "Ablation A2: Algorithm 1 edge ordering (LPiB, S1 ⋈ S2)",
        vec!["edge order", "marked edges", "replicated objects"],
    );
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
            Cell::label(name),
            Cell::Count(graph.marked_edge_count() as u64),
            Cell::Count(replicas),
        ]);
    }
    table
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
) -> Result<Vec<Table>, JoinError> {
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
        "faults",
        format!(
            "Fault tolerance (S1 ⋈ S2, plan seed {}): identical results under chaos",
            plan.seed
        ),
        vec![
            "algorithm",
            "results",
            "attempts",
            "retries",
            "spec wins",
            "blacklisted",
            "time",
            "time (faults)",
        ],
    );
    for algo in [Algorithm::Lpib, Algorithm::Diff] {
        let ab = run_fault_ab(&cluster, &spec, algo, &r, &s, plan.clone(), policy)?;
        table.row(vec![
            Cell::label(algo.name()),
            Cell::Count(ab.faulted.results),
            // A retry goes to the least-loaded node by measured busy time,
            // which decides whether it lands before or after the lost
            // node's cut-off; who wins a speculative race is timing too.
            Cell::varying(ab.attempts),
            Cell::varying(ab.retries),
            Cell::varying(ab.speculative_wins),
            Cell::Count(ab.blacklisted_nodes),
            Cell::secs(ab.baseline.sim_time),
            Cell::secs(ab.faulted.sim_time),
        ]);
    }
    Ok(vec![table])
}

// ---------------------------------------------------------------------------
// Extension experiments (ours): the operations beyond the paper's evaluation.
// ---------------------------------------------------------------------------

/// Extension experiments: the ε self-join (MR-DSJ setting), the
/// expanding-ring kNN join, and the polyline/polygon extent join, each with
/// its headline metrics, plus the sampling-fraction sweep. Not part of the
/// paper's evaluation; they characterize the substrate the future-work
/// directions run on.
pub fn extensions(cfg: &ExpConfig) -> Result<Vec<Table>, JoinError> {
    use asj_data::{random_boxes, random_polylines};
    use asj_geom::Shape;
    use asj_join::{extent_join, knn_join, self_join, ExtentRecord};

    let cluster = cfg.cluster();
    let net = NetModel::gigabit(cfg.nodes);

    // Self-join of S1 across the ε sweep.
    let (s1, _) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let mut selfj = Table::new(
        "ext self-join",
        "Extension: eps self-join of S1 (MR-DSJ setting)",
        vec!["eps", "pairs", "replicated", "shuffle (MiB)", "time (s)"],
    );
    for &eps in &cfg.eps_values {
        let out = self_join(&cluster, &spec_for(cfg, eps), s1.clone())?;
        let res = RunResult::from_output(&out, &net);
        selfj.row(vec![
            Cell::label(format!("{eps:.3}")),
            Cell::Count(out.result_count),
            Cell::Count(out.replicated_total()),
            Cell::Mib(res.shuffle_remote),
            Cell::secs(res.sim_time),
        ]);
    }

    // kNN join: rounds and time vs k.
    let (r, s) = Combo::S1S2.datasets(cfg, 1, TupleSizeFactor::F0);
    let mut knn = Table::new(
        "ext knn",
        "Extension: kNN join of S1 queries against S2 (expanding ring)",
        vec!["k", "rounds", "shuffle (MiB)", "makespan (s)"],
    );
    for k in [1usize, 5, 10, 20] {
        let spec = spec_for(cfg, cfg.default_eps);
        let out = knn_join(&cluster, &spec, k, r.clone(), s.clone())?;
        knn.row(vec![
            Cell::label(k.to_string()),
            Cell::Count(out.rounds as u64),
            Cell::Mib(out.shuffle.total_bytes()),
            Cell::secs(out.exec.makespan().as_secs_f64()),
        ]);
    }

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
    let mut ext = Table::new(
        "ext extent",
        format!("Extension: extent join, {n} river polylines x {n} park polygons"),
        vec!["eps", "pairs", "replicated", "peak partition (MiB)"],
    );
    for &eps in &cfg.eps_values {
        let out = extent_join(&cluster, &spec_for(cfg, eps), rivers.clone(), parks.clone())?;
        ext.row(vec![
            Cell::label(format!("{eps:.3}")),
            Cell::Count(out.result_count),
            Cell::Count(out.replicated_total()),
            Cell::Mib(out.metrics.shuffle.peak_partition_bytes()),
        ]);
    }

    // Sampling-fraction sweep: the paper states 3 % "offers the best
    // performance"; this table shows the trade (construction cost vs
    // replication quality of the sampled agreement graph).
    let mut phi = Table::new(
        "ext sample",
        "Extension: sampling fraction sweep (LPiB, S1 ⋈ S2)",
        vec!["sample phi", "replicated", "construction (s)", "total (s)"],
    );
    for fraction in [0.005f64, 0.01, 0.03, 0.10, 0.30] {
        let spec = spec_for(cfg, cfg.default_eps).with_sample_fraction(fraction);
        let res = run_avg(&cluster, &spec, Algorithm::Lpib, &r, &s, cfg.reps)?;
        phi.row(vec![
            Cell::label(format!("{:.1}%", fraction * 100.0)),
            Cell::Count(res.replicated),
            Cell::secs(res.construction_time),
            Cell::secs(res.sim_time),
        ]);
    }
    Ok(vec![selfj, knn, ext, phi])
}

// ---------------------------------------------------------------------------
// Every experiment, by name.
// ---------------------------------------------------------------------------

/// What one experiment produces: its tables, from the run's configuration
/// and the plan and retry policy the `faults` A/B compares against.
pub type Run = fn(&ExpConfig, &FaultPlan, RetryPolicy) -> Result<Vec<Table>, JoinError>;

/// An experiment's names (the first is the one the usage line leads with)
/// and what it runs.
pub type Experiment = (&'static [&'static str], Run);

/// Every experiment `repro` knows, in the order `repro all` runs them.
/// Dispatch, `all` and the usage line all read this table.
pub const EXPERIMENTS: &[Experiment] = &[
    (&["table1"], |_, _, _| Ok(vec![table1()])),
    (&["fig1b"], |cfg, _, _| fig1b(cfg)),
    (&["fig10", "fig11", "fig12"], |cfg, _, _| {
        let mut tables = fig10_11_12(cfg, Combo::S1S2)?;
        tables.extend(fig10_11_12(cfg, Combo::R1S1)?);
        Ok(tables)
    }),
    (&["table4"], |cfg, _, _| table4(cfg)),
    (&["fig13"], |cfg, _, _| fig13(cfg)),
    (&["fig14"], |cfg, _, _| fig14(cfg)),
    (&["fig15"], |cfg, _, _| fig15(cfg)),
    (&["fig16"], |cfg, _, _| fig16_18(cfg, Combo::S1S2)),
    (&["fig17"], |cfg, _, _| fig16_18(cfg, Combo::R1S1)),
    (&["fig18"], |cfg, _, _| fig16_18(cfg, Combo::R2R1)),
    (&["table5"], |cfg, _, _| table5(cfg)),
    (&["table6"], |cfg, _, _| table6(cfg)),
    (&["table7"], |cfg, _, _| table7(cfg)),
    (&["a1", "kernels", "ablation-kernels"], |cfg, _, _| {
        ablation_kernels(cfg)
    }),
    (&["a2", "edgeorder"], |cfg, _, _| {
        Ok(vec![ablation_edge_order(cfg)])
    }),
    (&["ext", "extensions"], |cfg, _, _| extensions(cfg)),
    (&["faults", "fault-tolerance"], fault_tolerance),
    (&["memory", "memory-sweep", "budget-sweep"], |cfg, _, _| {
        Ok(memory::memory_sweep(cfg).tables())
    }),
    (&["multitenant", "multi-tenant", "jobs"], |cfg, _, _| {
        Ok(multitenant::multitenant_sweep(cfg).tables())
    }),
    (&["recovery", "crash-recovery"], |cfg, _, _| {
        Ok(recovery::recovery_sweep(cfg).tables())
    }),
];

/// The experiments `names` ask for, each once and in [`EXPERIMENTS`] order;
/// no name, or `all`, selects every one.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let named = |aliases: &[&str]| names.iter().any(|n| aliases.contains(&n.as_str()));
    if let Some(bad) = names.iter().find(|n| {
        *n != "all"
            && !EXPERIMENTS
                .iter()
                .any(|(aliases, _)| aliases.contains(&n.as_str()))
    }) {
        return Err(format!("unknown experiment {bad}"));
    }
    let all = names.is_empty() || names.iter().any(|n| n == "all");
    Ok(EXPERIMENTS
        .iter()
        .filter(|(aliases, _)| all || named(aliases))
        .collect())
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
        // Rows: A, B, C, D, total — columns: replicas R, cost R, replicas S, cost S.
        let want = [
            ("A", [4, 15, 3, 6]),
            ("B", [1, 4, 5, 18]),
            ("C", [3, 10, 3, 10]),
            ("D", [4, 12, 2, 8]),
            ("total", [12, 41, 13, 42]),
        ];
        assert_eq!(t.rows().len(), want.len());
        for (row, (name, counts)) in t.rows().iter().zip(want) {
            assert_eq!(row[0], Cell::label(name));
            assert_eq!(row[1..], counts.map(Cell::Count));
        }
    }

    /// Each experiment runs once however many of its names are given, in
    /// table order; `all` (or nothing) runs every one.
    #[test]
    fn names_select_each_experiment_once() {
        let canonical = |names: &[&str]| -> Vec<&str> {
            let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            let selected = select(&names).expect("known names");
            selected.iter().map(|(aliases, _)| aliases[0]).collect()
        };
        assert_eq!(canonical(&["fig10", "fig11", "fig12"]), ["fig10"]);
        assert_eq!(
            canonical(&["recovery", "fig12", "table1", "fig10"]),
            ["table1", "fig10", "recovery"]
        );
        assert_eq!(canonical(&[]).len(), EXPERIMENTS.len());
        assert_eq!(canonical(&["table1", "all"]).len(), EXPERIMENTS.len());
        assert_eq!(
            select(&["fig99".to_string()]).err().as_deref(),
            Some("unknown experiment fig99")
        );
        let mut names: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|(n, _)| n.iter().copied())
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name selects one experiment");
    }

    /// `repro all --quick`'s exact counters are committed in
    /// `results/repro-quick.json`. The experiments that fit a debug test run
    /// must reproduce their `counters` lines byte for byte; CI compares the
    /// whole record.
    #[test]
    fn quick_counters_match_the_committed_record() {
        let committed = include_str!("../../../results/repro-quick.json");
        let counters: Vec<&str> = committed
            .lines()
            .skip_while(|l| *l != "\"counters\": {")
            .take_while(|l| *l != "},")
            .collect();
        let (cfg, plan) = (ExpConfig::quick(), FaultPlan::chaos(7));
        let mut record = crate::Record::new(&cfg, &plan);
        assert!(
            committed
                .lines()
                .any(|l| l.strip_suffix(',') == Some(record.config())),
            "results/repro-quick.json is not `repro all --quick`'s record"
        );
        let names = ["table1", "fig1b", "fig10", "table4", "memory", "recovery"].map(String::from);
        for (_, run) in select(&names).expect("known experiments") {
            record.push(run(&cfg, &plan, RetryPolicy::default()).expect("quick runs succeed"));
        }
        for table in record.tables() {
            let Some(line) = table.json_line(true) else {
                continue;
            };
            let key = &line[..=line.find(":{").expect("a table line")];
            let committed_line = counters
                .iter()
                .find(|l| l.starts_with(key))
                .unwrap_or_else(|| panic!("'{}' is missing from the committed record", table.key));
            assert_eq!(
                line,
                committed_line.trim_end_matches(','),
                "the counters of '{}' moved from results/repro-quick.json",
                table.key
            );
        }
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
