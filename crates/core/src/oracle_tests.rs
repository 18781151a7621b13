//! Whole-pipeline validation of the adaptive-replication assignment against a
//! brute-force oracle.
//!
//! For any instantiation of the graph of agreements processed by Algorithm 1,
//! the assignment produced by Algorithms 2–4 must be
//!
//! * **correct** (Definition 3.2): every pair `(r, s)` with `d(r, s) ≤ ε` is
//!   co-assigned to at least one cell, and
//! * **duplicate-free** (Definition 3.3): to at most one cell,
//!
//! i.e. `|cells(r) ∩ cells(s)| = 1` for every result pair. These tests check
//! that invariant exhaustively for every one of the 2⁶ agreement-type
//! instantiations of a single quartet, and on randomized multi-quartet grids
//! with random agreement types, random edge weights and random point clouds.

use crate::{AgreementGraph, AgreementPolicy, GridSample, SetLabel};
use asj_geom::{Point, Rect};
use asj_grid::{CellCoord, Grid, GridSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All unordered adjacent cell pairs of a grid, in a stable order.
fn adjacent_pairs(grid: &Grid) -> Vec<(CellCoord, CellCoord)> {
    let mut pairs = Vec::new();
    for y in 0..grid.ny() {
        for x in 0..grid.nx() {
            let a = CellCoord { x, y };
            for (dx, dy) in [(1i64, 0i64), (0, 1), (1, 1), (-1, 1)] {
                let bx = x as i64 + dx;
                let by = y as i64 + dy;
                if bx < 0 || by < 0 || bx >= grid.nx() as i64 || by >= grid.ny() as i64 {
                    continue;
                }
                pairs.push((
                    a,
                    CellCoord {
                        x: bx as u32,
                        y: by as u32,
                    },
                ));
            }
        }
    }
    pairs
}

/// The unmarked graph whose pair `i` (in [`adjacent_pairs`] order) is of type
/// `S` iff bit `i` of `bits` is set.
fn unmarked_from_bits(grid: &Grid, bits: u64) -> AgreementGraph {
    let pairs = adjacent_pairs(grid);
    AgreementGraph::from_pair_types(grid, |a, b| {
        let key = if (a.y, a.x) <= (b.y, b.x) {
            (a, b)
        } else {
            (b, a)
        };
        let idx = pairs
            .iter()
            .position(|p| *p == key)
            .expect("pair must be adjacent");
        if bits >> idx & 1 == 0 {
            SetLabel::R
        } else {
            SetLabel::S
        }
    })
}

fn graph_from_bits(grid: &Grid, sample: &GridSample, bits: u64) -> AgreementGraph {
    let mut graph = unmarked_from_bits(grid, bits);
    crate::build_duplicate_free(&mut graph, sample);
    graph
}

/// `n` uniformly random sample points with random labels.
fn random_sample(rng: &mut StdRng, grid: &Grid, n: usize) -> GridSample {
    let bbox = grid.bbox();
    let mut sample = GridSample::new(grid);
    for _ in 0..n {
        let p = Point::new(
            rng.gen_range(bbox.min_x..bbox.max_x),
            rng.gen_range(bbox.min_y..bbox.max_y),
        );
        let label = if rng.gen_bool(0.5) {
            SetLabel::R
        } else {
            SetLabel::S
        };
        sample.add(grid, label, p);
    }
    sample
}

/// An unmarked graph with an independent random type on every pair.
fn random_typed_graph(rng: &mut StdRng, grid: &Grid) -> AgreementGraph {
    let pairs = adjacent_pairs(grid);
    let types: Vec<SetLabel> = (0..pairs.len())
        .map(|_| {
            if rng.gen_bool(0.5) {
                SetLabel::R
            } else {
                SetLabel::S
            }
        })
        .collect();
    AgreementGraph::from_pair_types(grid, |a, b| {
        let key = if (a.y, a.x) <= (b.y, b.x) {
            (a, b)
        } else {
            (b, a)
        };
        types[pairs.iter().position(|p| *p == key).unwrap()]
    })
}

/// Checks correctness and duplicate-freeness of `graph` for the given point
/// sets; panics with a descriptive message on the first violation.
fn check_assignment(graph: &AgreementGraph, r_pts: &[Point], s_pts: &[Point], ctx: &str) {
    let assign_all = |label: SetLabel, pts: &[Point]| -> Vec<Vec<CellCoord>> {
        let mut out = Vec::with_capacity(4);
        pts.iter()
            .map(|&p| {
                graph.assign(p, label, &mut out);
                out.clone()
            })
            .collect()
    };
    let r_cells = assign_all(SetLabel::R, r_pts);
    let s_cells = assign_all(SetLabel::S, s_pts);
    let eps2 = graph.grid().eps() * graph.grid().eps();
    for (ri, r) in r_pts.iter().enumerate() {
        for (si, s) in s_pts.iter().enumerate() {
            if r.dist2(*s) > eps2 {
                continue;
            }
            let common = r_cells[ri]
                .iter()
                .filter(|c| s_cells[si].contains(c))
                .count();
            assert_eq!(
                common, 1,
                "{ctx}: pair r={r:?} (cells {:?}) s={s:?} (cells {:?}) \
                 co-assigned to {common} cells (want exactly 1)",
                r_cells[ri], s_cells[si]
            );
        }
    }
}

/// A lattice of points covering the quartet around corner (2.5, 2.5) of the
/// 2×2 grid, concentrated where the interesting areas are.
fn lattice(offset_x: f64, offset_y: f64) -> Vec<Point> {
    let mut pts = Vec::new();
    let mut x = 0.05 + offset_x;
    while x < 5.0 {
        let mut y = 0.05 + offset_y;
        while y < 5.0 {
            pts.push(Point::new(x, y));
            y += 1.0 / 3.0;
        }
        x += 1.0 / 3.0;
    }
    pts
}

fn quartet_grid() -> Grid {
    Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 5.0, 5.0), 1.0))
}

/// Exhaustive sweep over all 2⁶ agreement instantiations of a single quartet
/// with zero edge weights.
#[test]
fn exhaustive_single_quartet_all_type_assignments() {
    let grid = quartet_grid();
    let sample = GridSample::new(&grid);
    let r_pts = lattice(0.0, 0.0);
    let s_pts = lattice(0.151, 0.087);
    assert_eq!(adjacent_pairs(&grid).len(), 6);
    for bits in 0..64u64 {
        let graph = graph_from_bits(&grid, &sample, bits);
        check_assignment(&graph, &r_pts, &s_pts, &format!("quartet bits={bits:#08b}"));
    }
}

/// Exhaustive type sweep again, but with randomized edge weights so that
/// Algorithm 1 explores different marking orders and triangle tie-breaks.
#[test]
fn exhaustive_single_quartet_random_weights() {
    let grid = quartet_grid();
    let r_pts = lattice(0.0, 0.0);
    let s_pts = lattice(0.151, 0.087);
    let mut rng = StdRng::seed_from_u64(0xDECAF);
    for round in 0..4 {
        // Random sample points induce random border counts and totals.
        let mut sample = GridSample::new(&grid);
        for _ in 0..200 {
            let p = Point::new(rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0));
            let label = if rng.gen_bool(0.5) {
                SetLabel::R
            } else {
                SetLabel::S
            };
            sample.add(&grid, label, p);
        }
        for bits in 0..64u64 {
            let graph = graph_from_bits(&grid, &sample, bits);
            check_assignment(
                &graph,
                &r_pts,
                &s_pts,
                &format!("quartet round={round} bits={bits:#08b}"),
            );
        }
    }
}

/// Randomized multi-quartet grids: random pair types, random weights, random
/// clustered points. Quartet interactions (edge locking across triangles,
/// side pairs shared by two subgraphs) only arise here.
#[test]
fn randomized_multi_quartet_grids() {
    let mut rng = StdRng::seed_from_u64(7_654_321);
    for round in 0..30 {
        // 3×3 .. 5×4 cells; keep the world small so border areas dominate.
        let nx = rng.gen_range(3..=5) as f64;
        let ny = rng.gen_range(3..=4) as f64;
        let side = rng.gen_range(2.05..3.0);
        let grid = Grid::new(GridSpec::new(
            Rect::new(0.0, 0.0, nx * side, ny * side),
            1.0,
        ));
        let sample = random_sample(&mut rng, &grid, 100);
        let mut graph = random_typed_graph(&mut rng, &grid);
        crate::build_duplicate_free(&mut graph, &sample);

        let gen_points = |rng: &mut StdRng, n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| {
                    Point::new(
                        rng.gen_range(0.0..grid.bbox().max_x),
                        rng.gen_range(0.0..grid.bbox().max_y),
                    )
                })
                .collect()
        };
        let r_pts = gen_points(&mut rng, 150);
        let s_pts = gen_points(&mut rng, 150);
        check_assignment(
            &graph,
            &r_pts,
            &s_pts,
            &format!("multi-quartet round={round}"),
        );
    }
}

/// The policy-driven graphs (LPiB, DIFF) must also satisfy the invariant on
/// skewed inputs — this is the configuration the paper actually runs.
#[test]
fn policy_graphs_on_skewed_data() {
    let mut rng = StdRng::seed_from_u64(42);
    let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 13.0, 9.0), 1.0)); // 6×4 cells
                                                                              // Skew: R clusters bottom-left, S clusters top-right, overlapping band in
                                                                              // the middle.
    let cluster = |rng: &mut StdRng, cx: f64, cy: f64, spread: f64, n: usize| -> Vec<Point> {
        (0..n)
            .map(|_| {
                Point::new(
                    (cx + rng.gen_range(-spread..spread)).clamp(0.0, 13.0),
                    (cy + rng.gen_range(-spread..spread)).clamp(0.0, 9.0),
                )
            })
            .collect()
    };
    let mut r_pts = cluster(&mut rng, 3.0, 2.5, 3.0, 250);
    r_pts.extend(cluster(&mut rng, 6.5, 4.5, 2.0, 100));
    let mut s_pts = cluster(&mut rng, 10.0, 6.5, 3.0, 250);
    s_pts.extend(cluster(&mut rng, 6.5, 4.5, 2.0, 100));

    let sample = GridSample::from_points(
        &grid,
        r_pts.iter().step_by(3).copied(),
        s_pts.iter().step_by(3).copied(),
    );
    for policy in [
        AgreementPolicy::Lpib,
        AgreementPolicy::Diff,
        AgreementPolicy::UniformR,
        AgreementPolicy::UniformS,
    ] {
        let graph = AgreementGraph::build(&grid, &sample, policy);
        check_assignment(&graph, &r_pts, &s_pts, policy.name());
    }
}

/// Under a uniform policy the adaptive assignment must coincide exactly with
/// textbook PBSM replication (replicate every point of the chosen set to all
/// cells within ε; never replicate the other set).
#[test]
fn uniform_policy_equals_pbsm_replication() {
    let mut rng = StdRng::seed_from_u64(99);
    let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 11.0, 11.0), 1.0));
    let graph = AgreementGraph::build(&grid, &GridSample::new(&grid), AgreementPolicy::UniformR);
    let mut out = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..2000 {
        let p = Point::new(rng.gen_range(0.0..11.0), rng.gen_range(0.0..11.0));
        graph.assign(p, SetLabel::R, &mut out);
        expected.clear();
        expected.push(grid.cell_of(p));
        grid.push_cells_within_eps(p, &mut expected);
        out.sort();
        expected.sort();
        assert_eq!(out, expected, "R assignment must equal PBSM for {p:?}");
        graph.assign(p, SetLabel::S, &mut out);
        assert_eq!(
            out,
            vec![grid.cell_of(p)],
            "S must never replicate under UNI(R)"
        );
    }
}

/// Adaptive replication never assigns a point to more than 4 cells and always
/// keeps the native cell first.
#[test]
fn assignment_shape_invariants() {
    let mut rng = StdRng::seed_from_u64(4242);
    let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 9.0, 9.0), 1.0));
    let pairs = adjacent_pairs(&grid);
    let types: Vec<SetLabel> = (0..pairs.len())
        .map(|_| {
            if rng.gen_bool(0.5) {
                SetLabel::R
            } else {
                SetLabel::S
            }
        })
        .collect();
    let mut graph = AgreementGraph::from_pair_types(&grid, |a, b| {
        let key = if (a.y, a.x) <= (b.y, b.x) {
            (a, b)
        } else {
            (b, a)
        };
        types[pairs.iter().position(|p| *p == key).unwrap()]
    });
    crate::build_duplicate_free(&mut graph, &GridSample::new(&grid));
    let mut out = Vec::new();
    for _ in 0..5000 {
        let p = Point::new(rng.gen_range(0.0..9.0), rng.gen_range(0.0..9.0));
        for label in SetLabel::BOTH {
            graph.assign(p, label, &mut out);
            assert!(!out.is_empty() && out.len() <= 4, "bad cell count: {out:?}");
            assert_eq!(out[0], grid.cell_of(p), "native cell must come first");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property test: arbitrary quartet instantiation (types and weights from
    /// the seed) with focused random point clouds near the reference point.
    #[test]
    fn prop_quartet_pairs_coassigned_exactly_once(
        bits in 0u64..64,
        seed in 0u64..1_000_000,
    ) {
        let grid = quartet_grid();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sample = GridSample::new(&grid);
        for _ in 0..64 {
            let p = Point::new(rng.gen_range(1.0..4.0), rng.gen_range(1.0..4.0));
            let label = if rng.gen_bool(0.5) { SetLabel::R } else { SetLabel::S };
            sample.add(&grid, label, p);
        }
        let graph = graph_from_bits(&grid, &sample, bits);
        // Points concentrated around the reference point (2.5, 2.5) so most
        // pairs exercise the corner machinery.
        let gen = |rng: &mut StdRng, n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.gen_range(1.0..4.0), rng.gen_range(1.0..4.0)))
                .collect()
        };
        let r_pts = gen(&mut rng, 60);
        let s_pts = gen(&mut rng, 60);
        check_assignment(&graph, &r_pts, &s_pts, &format!("prop bits={bits} seed={seed}"));
    }
}

/// The WeightOnly ablation order must still yield a correct, duplicate-free
/// assignment — the ordering affects replication volume, not safety.
#[test]
fn weight_only_order_is_still_correct() {
    let grid = quartet_grid();
    let r_pts = lattice(0.0, 0.0);
    let s_pts = lattice(0.151, 0.087);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut sample = GridSample::new(&grid);
    for _ in 0..128 {
        let p = Point::new(rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0));
        let label = if rng.gen_bool(0.5) {
            SetLabel::R
        } else {
            SetLabel::S
        };
        sample.add(&grid, label, p);
    }
    let pairs = adjacent_pairs(&grid);
    for bits in 0..64u64 {
        let mut graph = AgreementGraph::from_pair_types(&grid, |a, b| {
            let key = if (a.y, a.x) <= (b.y, b.x) {
                (a, b)
            } else {
                (b, a)
            };
            let idx = pairs.iter().position(|p| *p == key).unwrap();
            if bits >> idx & 1 == 0 {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        crate::build_duplicate_free_with_order(&mut graph, &sample, crate::EdgeOrder::WeightOnly);
        assert_eq!(graph.validate().unresolved_hazards, 0, "bits={bits:#08b}");
        check_assignment(
            &graph,
            &r_pts,
            &s_pts,
            &format!("weight-only bits={bits:#08b}"),
        );
    }
}

/// `AgreementGraph::validate` reports zero unresolved hazards after
/// Algorithm 1 on policy-built graphs, and detects hazards on unmarked mixed
/// graphs.
#[test]
fn validate_detects_and_clears_hazards() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 11.0, 9.0), 1.0));
    let mut sample = GridSample::new(&grid);
    for _ in 0..400 {
        let p = Point::new(rng.gen_range(0.0..11.0), rng.gen_range(0.0..9.0));
        let label = if rng.gen_bool(0.5) {
            SetLabel::R
        } else {
            SetLabel::S
        };
        sample.add(&grid, label, p);
    }
    // Unmarked graph with mixed types: hazards must exist (overwhelmingly
    // likely with this many quartets and random types).
    let unmarked = AgreementGraph::build_unmarked(&grid, &sample, AgreementPolicy::Lpib);
    let before = unmarked.validate();
    assert_eq!(before.marked_edges, 0);
    assert!(
        before.unresolved_hazards > 0,
        "expected hazards in the unmarked graph"
    );
    // After Algorithm 1: none.
    let marked = AgreementGraph::build(&grid, &sample, AgreementPolicy::Lpib);
    let after = marked.validate();
    assert_eq!(after.unresolved_hazards, 0);
    assert!(after.marked_edges > 0);
    assert!(after.locked_edges >= after.marked_edges);
    // Uniform graphs have nothing to resolve.
    let uni = AgreementGraph::build(&grid, &sample, AgreementPolicy::UniformR);
    assert_eq!(
        uni.validate(),
        crate::GraphValidation {
            unresolved_hazards: 0,
            marked_edges: 0,
            locked_edges: 0
        }
    );
}

/// The paper's diagonal-first order should not replicate more than the
/// naive weight-only order in aggregate (its purpose is avoiding the extra
/// supplementary-area replication of side-edge markings).
#[test]
fn diagonal_first_replicates_no_more_in_aggregate() {
    let mut rng = StdRng::seed_from_u64(0x0DDB);
    let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 9.0, 9.0), 1.0));
    let mut total = [0u64; 2]; // [diagonal-first, weight-only]
    for round in 0..12 {
        let mut sample = GridSample::new(&grid);
        for _ in 0..300 {
            let p = Point::new(rng.gen_range(0.0..9.0), rng.gen_range(0.0..9.0));
            let label = if rng.gen_bool(0.5) {
                SetLabel::R
            } else {
                SetLabel::S
            };
            sample.add(&grid, label, p);
        }
        let points: Vec<(Point, SetLabel)> = (0..2000)
            .map(|_| {
                let p = Point::new(rng.gen_range(0.0..9.0), rng.gen_range(0.0..9.0));
                let l = if rng.gen_bool(0.5) {
                    SetLabel::R
                } else {
                    SetLabel::S
                };
                (p, l)
            })
            .collect();
        for (idx, order) in [
            crate::EdgeOrder::DiagonalFirst,
            crate::EdgeOrder::WeightOnly,
        ]
        .iter()
        .enumerate()
        {
            let mut graph = AgreementGraph::build_unmarked(&grid, &sample, AgreementPolicy::Lpib);
            crate::build_duplicate_free_with_order(&mut graph, &sample, *order);
            let mut cells = Vec::with_capacity(4);
            for &(p, l) in &points {
                graph.assign(p, l, &mut cells);
                total[idx] += cells.len() as u64 - 1;
            }
        }
        let _ = round;
    }
    assert!(
        total[0] <= total[1],
        "diagonal-first {} must not exceed weight-only {}",
        total[0],
        total[1]
    );
}

/// Counts pairs violating the exactly-once property (0 = correct +
/// duplicate-free) — the non-panicking probe used by the mutation tests.
fn count_violations(graph: &AgreementGraph, r_pts: &[Point], s_pts: &[Point]) -> usize {
    let assign_all = |label: SetLabel, pts: &[Point]| -> Vec<Vec<CellCoord>> {
        let mut out = Vec::with_capacity(4);
        pts.iter()
            .map(|&p| {
                graph.assign(p, label, &mut out);
                out.clone()
            })
            .collect()
    };
    let r_cells = assign_all(SetLabel::R, r_pts);
    let s_cells = assign_all(SetLabel::S, s_pts);
    let eps2 = graph.grid().eps() * graph.grid().eps();
    let mut violations = 0usize;
    for (ri, r) in r_pts.iter().enumerate() {
        for (si, s) in s_pts.iter().enumerate() {
            if r.dist2(*s) > eps2 {
                continue;
            }
            let common = r_cells[ri]
                .iter()
                .filter(|c| s_cells[si].contains(c))
                .count();
            if common != 1 {
                violations += 1;
            }
        }
    }
    violations
}

/// Mutation test: the oracle harness itself must be able to detect broken
/// graphs — otherwise the green correctness suite proves nothing. An
/// *unmarked* graph with mixed agreement types must produce duplicates, and
/// a graph with one spurious extra marking must lose pairs.
#[test]
fn oracle_detects_corrupted_graphs() {
    let grid = quartet_grid();
    let sample = GridSample::new(&grid);
    let r_pts = lattice(0.0, 0.0);
    let s_pts = lattice(0.151, 0.087);

    // A mixed instantiation known to need markings: SW sends S to both SE
    // and NE while SE–NE carries R (the Figure-4 hazard).
    let sw = CellCoord { x: 0, y: 0 };
    let se = CellCoord { x: 1, y: 0 };
    let ne = CellCoord { x: 1, y: 1 };
    let types = move |a: CellCoord, b: CellCoord| {
        let pair = |p: CellCoord, q: CellCoord| (a == p && b == q) || (a == q && b == p);
        if pair(sw, se) || pair(sw, ne) {
            SetLabel::S
        } else {
            SetLabel::R
        }
    };

    // (1) Correct pipeline: zero violations.
    let mut good = AgreementGraph::from_pair_types(&grid, types);
    crate::build_duplicate_free(&mut good, &sample);
    assert_eq!(count_violations(&good, &r_pts, &s_pts), 0);

    // (2) Skipping Algorithm 1 leaves the duplicate hazard in place.
    let unmarked = AgreementGraph::from_pair_types(&grid, types);
    assert!(
        count_violations(&unmarked, &r_pts, &s_pts) > 0,
        "unmarked mixed graph must produce duplicates"
    );

    // (3) A spurious extra marking on the good graph severs replication the
    // assignment relies on: pairs go missing.
    let mut corrupted = good.clone();
    let q = asj_grid::QuartetId { x: 1, y: 1 };
    let mut broke_something = false;
    for from in asj_grid::Quadrant::ALL {
        for to in [from.horizontal(), from.vertical(), from.diagonal()] {
            if !corrupted.is_marked(q, from, to) {
                let mut mutant = corrupted.clone();
                mutant.mark(q, from, to);
                if count_violations(&mutant, &r_pts, &s_pts) > 0 {
                    broke_something = true;
                }
            }
        }
    }
    assert!(
        broke_something,
        "at least one spurious marking must be detectable"
    );
    let _ = &mut corrupted;
}

/// Exhaustive sweep over all 2^11 agreement instantiations of a 3×2 grid
/// (two quartets sharing a side pair): the cross-quartet interactions —
/// shared side-pair types with independent per-quartet markings — are only
/// reachable here. Points are concentrated around the two reference points
/// to keep the sweep fast while exercising every corner area.
#[test]
fn exhaustive_two_quartets_all_type_assignments() {
    let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 6.3, 4.2), 1.0));
    assert_eq!((grid.nx(), grid.ny()), (3, 2));
    let pairs = adjacent_pairs(&grid);
    assert_eq!(pairs.len(), 11);
    let sample = GridSample::new(&grid);

    // Points clustered around both reference points (2.1, 2.1), (4.2, 2.1).
    let mut r_pts = Vec::new();
    let mut s_pts = Vec::new();
    for &(cx, cy) in &[(2.1f64, 2.1f64), (4.2, 2.1)] {
        let mut dx = -1.3f64;
        while dx <= 1.3 {
            let mut dy = -1.3f64;
            while dy <= 1.3 {
                let rp = Point::new((cx + dx).clamp(0.01, 6.29), (cy + dy).clamp(0.01, 4.19));
                r_pts.push(rp);
                s_pts.push(Point::new(
                    (cx + dx + 0.17).clamp(0.01, 6.29),
                    (cy + dy + 0.11).clamp(0.01, 4.19),
                ));
                dy += 0.65;
            }
            dx += 0.65;
        }
    }

    for bits in 0..(1u64 << 11) {
        let mut graph = AgreementGraph::from_pair_types(&grid, |a, b| {
            let key = if (a.y, a.x) <= (b.y, b.x) {
                (a, b)
            } else {
                (b, a)
            };
            let idx = pairs.iter().position(|p| *p == key).unwrap();
            if bits >> idx & 1 == 0 {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        crate::build_duplicate_free(&mut graph, &sample);
        assert_eq!(graph.validate().unresolved_hazards, 0, "bits={bits:#013b}");
        check_assignment(
            &graph,
            &r_pts,
            &s_pts,
            &format!("two-quartet bits={bits:#013b}"),
        );
    }
}

/// `assign` (plan-driven) against `assign_reference` (Algorithms 2–4 edge by
/// edge) for both labels: identical cells in identical order.
fn assert_plan_matches_reference(graph: &AgreementGraph, pts: &[Point], ctx: &str) {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for &p in pts {
        for label in SetLabel::BOTH {
            graph.assign(p, label, &mut got);
            graph.assign_reference(p, label, &mut want);
            assert_eq!(got, want, "{ctx}: {label} point {p:?}");
        }
    }
}

/// Every one of the 2⁶ instantiations of one quartet, with zero and random
/// weights and both edge orders.
#[test]
fn plan_equals_reference_on_every_quartet_instantiation() {
    let grid = quartet_grid();
    let mut pts = lattice(0.0, 0.0);
    pts.extend(lattice(0.151, 0.087));
    let mut rng = StdRng::seed_from_u64(0x91A4);
    let mut samples = vec![GridSample::new(&grid)];
    samples.extend((0..3).map(|_| random_sample(&mut rng, &grid, 200)));
    for (round, sample) in samples.iter().enumerate() {
        for bits in 0..64u64 {
            for order in [
                crate::EdgeOrder::DiagonalFirst,
                crate::EdgeOrder::WeightOnly,
            ] {
                let mut graph = unmarked_from_bits(&grid, bits);
                crate::build_duplicate_free_with_order(&mut graph, sample, order);
                let ctx = format!("sample {round} bits={bits:#08b} {order:?}");
                assert_plan_matches_reference(&graph, &pts, &ctx);
            }
        }
    }
}

/// Random multi-quartet grids at grid factors 2, 2.5, 3 and 5, so interior,
/// strip and corner points all occur; the points include every crossing of
/// the lines on, ε and 2ε off a cell border (bbox edges and corners among
/// them) and points outside the bbox, which are clamped into the grid.
#[test]
fn plan_equals_reference_on_random_grids() {
    use asj_grid::{AreaClass, Quadrant};
    let mut rng = StdRng::seed_from_u64(0x6E1D);
    let eps = 0.37;
    let mut areas = [0usize; 3];
    let mut sup_words = 0;
    for factor in [2.0, 2.5, 3.0, 5.0] {
        for round in 0..6 {
            let (nx, ny) = (rng.gen_range(3..=6), rng.gen_range(3..=5));
            let side = factor * eps * rng.gen_range(1.02..1.25);
            let (x0, y0) = (-3.1, 7.7);
            let bbox = Rect::new(x0, y0, x0 + nx as f64 * side, y0 + ny as f64 * side);
            let grid = Grid::new(GridSpec::with_factor(bbox, eps, factor));
            let sample = random_sample(&mut rng, &grid, 100);
            let mut graph = random_typed_graph(&mut rng, &grid);
            crate::build_duplicate_free(&mut graph, &sample);

            let mut pts: Vec<Point> = (0..600)
                .map(|_| {
                    Point::new(
                        rng.gen_range(bbox.min_x - eps..bbox.max_x + eps),
                        rng.gen_range(bbox.min_y - eps..bbox.max_y + eps),
                    )
                })
                .collect();
            let lines = |borders: Vec<f64>| -> Vec<f64> {
                borders
                    .iter()
                    .flat_map(|b| [-2.0, -1.0, 0.0, 1.0, 2.0].map(|k| b + k * eps))
                    .collect()
            };
            let cell = |x, y| grid.cell_rect(CellCoord { x, y });
            let mut xs: Vec<f64> = (0..grid.nx()).map(|x| cell(x, 0).min_x).collect();
            let mut ys: Vec<f64> = (0..grid.ny()).map(|y| cell(0, y).min_y).collect();
            xs.push(bbox.max_x);
            ys.push(bbox.max_y);
            let (xs, ys) = (lines(xs), lines(ys));
            pts.extend(
                xs.iter()
                    .flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y))),
            );

            assert_plan_matches_reference(&graph, &pts, &format!("factor {factor} round {round}"));
            for &p in &pts {
                areas[match grid.classify(p) {
                    AreaClass::Interior => 0,
                    AreaClass::PlainStrip { .. } => 1,
                    AreaClass::CornerSquare { .. } => 2,
                }] += 1;
            }
            for q in grid.quartets() {
                for me in Quadrant::ALL {
                    for label in SetLabel::BOTH {
                        sup_words += (graph.plan(q, me, label) >> 4 != 0) as usize;
                    }
                }
            }
        }
    }
    assert!(areas.iter().all(|&n| n > 1000), "areas hit: {areas:?}");
    assert!(sup_words > 100, "only {sup_words} SupAr words");
}
