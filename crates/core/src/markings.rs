use crate::{AgreementGraph, Dir8, GridSample};
use asj_grid::{Quadrant, QuartetId};

/// Algorithm 1 of the paper: *Duplicate-free Graph Generation*.
///
/// For every quartet subgraph, edges are visited in the prescribed order —
/// first the edges whose cells share only the reference point (diagonals),
/// then the side edges, each group in descending weight — and an unlocked
/// edge `e_ij` is **marked** when some triangle `{i, j, k}` satisfies
///
/// * `τ(e_ik) = τ(e_ij)` and `τ(e_jk) ≠ τ(e_ij)` (vertex `i` replicates the
///   same dataset to both `j` and `k`, the duplicate hazard of Lemma 4.8),
/// * neither `e_jk` nor `e_ik` is already marked.
///
/// Marking `e_ij` **locks** `e_ik` and `e_jk` (the edges into the meeting
/// cell `k`), so later iterations cannot sever the cell where the excluded
/// duplicate-prone points will meet their partners. When both triangles of an
/// edge qualify, the one whose to-be-locked edges have the larger weight sum
/// wins (§5.2).
///
/// The edge *weight* `w(i→j)` estimates the comparisons induced by the
/// replication: sampled replication candidates of the agreement's dataset in
/// `i` toward `j`, times sampled points of the other dataset in `j`
/// (Example 4.4).
pub fn build_duplicate_free(graph: &mut AgreementGraph, sample: &GridSample) {
    build_duplicate_free_with_order(graph, sample, EdgeOrder::DiagonalFirst);
}

/// The order in which Algorithm 1 visits a subgraph's edges.
///
/// The paper argues for visiting the diagonal edges (cells sharing only the
/// reference point) first: marking them never creates supplementary areas
/// (Corollary 4.9), so prioritizing them avoids the extra replication that
/// side-edge markings can induce. [`EdgeOrder::WeightOnly`] is the naive
/// strictly-descending-weight order, kept for the ablation benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOrder {
    /// Diagonal edges first, then side edges; descending weight within each
    /// group (the paper's order, §5.2).
    DiagonalFirst,
    /// Descending weight across all 12 edges.
    WeightOnly,
}

/// [`build_duplicate_free`] with an explicit edge-visit order (ablation A2).
pub fn build_duplicate_free_with_order(
    graph: &mut AgreementGraph,
    sample: &GridSample,
    order: EdgeOrder,
) {
    let quartets: Vec<QuartetId> = graph.grid().quartets().collect();
    for q in quartets {
        process_quartet(graph, sample, q, order);
    }
}

/// Weight of the directed edge `from → to` in quartet `q` (Example 4.4).
pub(crate) fn edge_weight(
    graph: &AgreementGraph,
    sample: &GridSample,
    q: QuartetId,
    from: Quadrant,
    to: Quadrant,
) -> u64 {
    let grid = graph.grid();
    let cf = graph.quartet_cell(q, from);
    let ct = graph.quartet_cell(q, to);
    let tau = graph.pair_type(cf, ct);
    let replicated = sample.border_count(grid.cell_index(cf), Dir8::between(cf, ct), tau);
    let partners = sample.total(grid.cell_index(ct), tau.other());
    replicated * partners
}

pub(crate) fn process_quartet(
    graph: &mut AgreementGraph,
    sample: &GridSample,
    q: QuartetId,
    order: EdgeOrder,
) {
    // With one agreement type on all six pairs no triangle can satisfy
    // `τ(e_jk) ≠ τ(e_ij)`: nothing is marked or locked, and the plan words
    // `from_pair_types` wrote stand.
    if !graph.quartet_is_uniform(q) {
        process_mixed_quartet(graph, sample, q, order);
    }
}

pub(crate) fn process_mixed_quartet(
    graph: &mut AgreementGraph,
    sample: &GridSample,
    q: QuartetId,
    order: EdgeOrder,
) {
    // The 12 directed edges of the subgraph, ordered per `order`; index
    // order as the final deterministic tie-break.
    let mut edges: [(bool, u64, Quadrant, Quadrant); 12] = std::array::from_fn(|n| {
        let from = Quadrant::ALL[n / 3];
        let to = [from.horizontal(), from.vertical(), from.diagonal()][n % 3];
        let w = edge_weight(graph, sample, q, from, to);
        (from.side_adjacent(to), w, from, to)
    });
    // The key is total (no two edges share `(from, to)`), so the unstable,
    // allocation-free sort yields the one order.
    edges.sort_unstable_by(|a, b| {
        let group = match order {
            // Diagonals (false) before sides (true).
            EdgeOrder::DiagonalFirst => a.0.cmp(&b.0),
            EdgeOrder::WeightOnly => std::cmp::Ordering::Equal,
        };
        group
            .then(b.1.cmp(&a.1)) // descending weight
            .then((a.2.index(), a.3.index()).cmp(&(b.2.index(), b.3.index())))
    });

    for (_, _, i, j) in edges {
        if graph.edge_state(q, i, j).locked {
            continue;
        }
        let tau = graph.edge_type(q, i, j);
        // The two triangles containing edge (i, j).
        let mut best: Option<(u64, Quadrant)> = None;
        for k in Quadrant::ALL {
            if k == i || k == j {
                continue;
            }
            if graph.edge_type(q, i, k) != tau || graph.edge_type(q, j, k) == tau {
                continue;
            }
            if graph.is_marked(q, j, k) || graph.is_marked(q, i, k) {
                continue;
            }
            let w = edge_weight(graph, sample, q, j, k) + edge_weight(graph, sample, q, i, k);
            // Prefer the triangle whose locked edges weigh more; ties go to
            // the lower quadrant index for determinism.
            let better = match best {
                None => true,
                Some((bw, bk)) => w > bw || (w == bw && k.index() < bk.index()),
            };
            if better {
                best = Some((w, k));
            }
        }
        if let Some((_, k)) = best {
            graph.mark(q, i, j);
            graph.lock(q, j, k);
            graph.lock(q, i, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgreementPolicy, SetLabel};
    use asj_geom::Rect;
    use asj_grid::{CellCoord, Grid, GridSpec};

    fn quartet_grid() -> Grid {
        // Exactly one quartet: 2×2 cells of side 2.5, ε = 1.
        Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 5.0, 5.0), 1.0))
    }

    #[test]
    fn uniform_graph_marks_nothing() {
        let g = quartet_grid();
        let sample = GridSample::new(&g);
        let graph = AgreementGraph::build(&g, &sample, AgreementPolicy::UniformR);
        assert_eq!(graph.marked_edge_count(), 0);
        assert_eq!(graph.locked_edge_count(), 0);
    }

    /// The Figure-4 instance: cell C replicates S to both A and B while A–B
    /// exchanges R — a triangle with both agreement types must get a marked
    /// edge, and the other two edges of that triangle must be locked.
    #[test]
    fn mixed_triangle_gets_marked_and_locked() {
        let g = quartet_grid();
        let sample = GridSample::new(&g);
        // C = SW, A = NE (diagonal from C), B = SE. Types: C–A = S, C–B = S,
        // A–B = R; everything else R.
        let c = CellCoord { x: 0, y: 0 };
        let a = CellCoord { x: 1, y: 1 };
        let b = CellCoord { x: 1, y: 0 };
        let mut graph = AgreementGraph::from_pair_types(&g, |u, v| {
            let pair = |p: CellCoord, r: CellCoord| (u == p && v == r) || (u == r && v == p);
            if pair(c, a) || pair(c, b) {
                SetLabel::S
            } else {
                SetLabel::R
            }
        });
        build_duplicate_free(&mut graph, &sample);
        let q = QuartetId { x: 1, y: 1 };
        // One of e(C→A), e(C→B) must be marked (the two candidates of
        // §4.5.1); its triangle partners must be locked.
        let ca = graph.edge_state(q, Quadrant::Sw, Quadrant::Ne).marked;
        let cb = graph.edge_state(q, Quadrant::Sw, Quadrant::Se).marked;
        assert!(
            ca ^ cb,
            "exactly one candidate edge must be marked: ca={ca} cb={cb}"
        );
        assert!(graph.marked_edge_count() >= 1);
        assert!(graph.locked_edge_count() >= 2);
        if ca {
            // Marked C→A in triangle {C, A, B}: locks A→B and C→B.
            assert!(graph.edge_state(q, Quadrant::Ne, Quadrant::Se).locked);
            assert!(graph.edge_state(q, Quadrant::Sw, Quadrant::Se).locked);
        }
    }

    #[test]
    fn diagonal_edges_processed_before_side_edges() {
        // With zero weights everywhere, ordering falls back to the
        // diagonal-first rule; verify via a configuration where marking a
        // diagonal edge is possible and side candidates exist too.
        let g = quartet_grid();
        let sample = GridSample::new(&g);
        // SW–NE = R, SW–SE = R, everything else S: triangle {SW, NE, SE} has
        // tail SW with two R edges and a mixed third edge (NE–SE = S).
        let mut graph = AgreementGraph::from_pair_types(&g, |u, v| {
            let sw = CellCoord { x: 0, y: 0 };
            let ne = CellCoord { x: 1, y: 1 };
            let se = CellCoord { x: 1, y: 0 };
            let pair = |p: CellCoord, r: CellCoord| (u == p && v == r) || (u == r && v == p);
            if pair(sw, ne) || pair(sw, se) {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        build_duplicate_free(&mut graph, &sample);
        let q = QuartetId { x: 1, y: 1 };
        // The diagonal candidate SW→NE is visited first and must be marked.
        assert!(graph.edge_state(q, Quadrant::Sw, Quadrant::Ne).marked);
    }

    #[test]
    fn locked_edges_are_never_marked() {
        let g = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 12.5, 12.5), 1.0));
        let sample = GridSample::new(&g);
        // Pseudo-random mixed types over a 5×5 grid.
        let mut graph = AgreementGraph::from_pair_types(&g, |u, v| {
            if (u.x.wrapping_mul(31) ^ u.y.wrapping_mul(17) ^ v.x.wrapping_mul(7) ^ v.y) % 3 == 0 {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        build_duplicate_free(&mut graph, &sample);
        for q in g.quartets() {
            for from in Quadrant::ALL {
                for to in [from.horizontal(), from.vertical(), from.diagonal()] {
                    let st = graph.edge_state(q, from, to);
                    assert!(
                        !(st.marked && st.locked),
                        "edge both marked and locked at {q:?}"
                    );
                }
            }
        }
    }

    /// After Algorithm 1, every mixed triangle must contain a marked edge
    /// with the hazard orientation resolved: for every vertex `i` that sends
    /// the same dataset to both other vertices of a mixed triangle, one of
    /// its two outgoing edges is marked.
    #[test]
    fn mixed_triangles_resolved_on_random_grids() {
        for seed in 0..20u32 {
            let g = quartet_grid();
            let sample = GridSample::new(&g);
            let mut graph = AgreementGraph::from_pair_types(&g, |u, v| {
                let h = seed
                    .wrapping_mul(0x9E37)
                    .wrapping_add(u.x * 64 + u.y * 16 + v.x * 4 + v.y)
                    .wrapping_mul(0x85EB_CA6B);
                if h & 4 == 0 {
                    SetLabel::R
                } else {
                    SetLabel::S
                }
            });
            build_duplicate_free(&mut graph, &sample);
            let q = QuartetId { x: 1, y: 1 };
            for i in Quadrant::ALL {
                for j in Quadrant::ALL {
                    for k in Quadrant::ALL {
                        if i == j || j == k || i == k {
                            continue;
                        }
                        let tau = graph.edge_type(q, i, j);
                        if graph.edge_type(q, i, k) == tau && graph.edge_type(q, j, k) != tau {
                            // Hazard: i replicates τ to both j and k.
                            let m_ij = graph.is_marked(q, i, j);
                            let m_ik = graph.is_marked(q, i, k);
                            assert!(
                                m_ij || m_ik,
                                "unresolved hazard seed={seed} i={i:?} j={j:?} k={k:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod example_5_1 {
    use super::*;
    use crate::{AgreementGraph, GridSample, SetLabel};
    use asj_geom::{Point, Rect};
    use asj_grid::{CellCoord, Grid, GridSpec, Quadrant, QuartetId};

    /// Example 5.1 / Figure 8 of the paper: a quartet instance where
    /// Algorithm 1 marks e(B→D), e(C→A) and e(C→D) and locks e(B→A),
    /// e(D→A), e(C→B), e(A→B) and e(D→B).
    ///
    /// Layout (diagonals A–C and B–D as in the figure): A = NW, B = NE,
    /// C = SE, D = SW. Agreement types: A–B = R, B–D = R, everything else S.
    /// The sampled points below induce edge weights that reproduce the
    /// example's traversal order: diagonals AC(8) ≥ BD(8) ≥ CA(5) ≥ DB(1),
    /// then sides CB(20) ≥ BA(16) ≥ CD(15) ≥ rest.
    #[test]
    fn figure8_marking_sequence() {
        let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 5.0, 5.0), 1.0));
        let a = CellCoord { x: 0, y: 1 }; // NW
        let b = CellCoord { x: 1, y: 1 }; // NE
        let _c = CellCoord { x: 1, y: 0 }; // SE (only diagonals A-C, B-D named below)
        let d = CellCoord { x: 0, y: 0 }; // SW
        let mut sample = GridSample::new(&grid);
        let fill = |s: &mut GridSample, label, p: Point, n: usize| {
            for _ in 0..n {
                s.add(&grid, label, p);
            }
        };
        // Corner-square points (within eps of all three neighbors).
        fill(&mut sample, SetLabel::R, Point::new(2.3, 2.7), 1); // A
        fill(&mut sample, SetLabel::S, Point::new(2.3, 2.7), 4);
        fill(&mut sample, SetLabel::R, Point::new(2.7, 2.7), 4); // B
        fill(&mut sample, SetLabel::S, Point::new(2.7, 2.7), 1);
        fill(&mut sample, SetLabel::S, Point::new(2.7, 2.3), 5); // C
        fill(&mut sample, SetLabel::R, Point::new(2.3, 2.3), 1); // D
        fill(&mut sample, SetLabel::S, Point::new(2.3, 2.3), 1);
        // Interior points (no replication, only cell totals).
        fill(&mut sample, SetLabel::R, Point::new(4.0, 1.0), 2); // C
        fill(&mut sample, SetLabel::R, Point::new(1.0, 1.0), 2); // D
        fill(&mut sample, SetLabel::S, Point::new(1.0, 1.0), 1); // D

        let mut graph = AgreementGraph::from_pair_types(&grid, |u, v| {
            let pair = |p: CellCoord, q: CellCoord| (u == p && v == q) || (u == q && v == p);
            if pair(a, b) || pair(b, d) {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        build_duplicate_free(&mut graph, &sample);

        let q = QuartetId { x: 1, y: 1 };
        let marked = |from, to| graph.edge_state(q, from, to).marked;
        let locked = |from, to| graph.edge_state(q, from, to).locked;
        use Quadrant::{Ne, Nw, Se, Sw};
        // Markings of Figure 8b.
        assert!(marked(Ne, Sw), "e(B->D) must be marked");
        assert!(marked(Se, Nw), "e(C->A) must be marked");
        assert!(marked(Se, Sw), "e(C->D) must be marked");
        assert_eq!(graph.marked_edge_count(), 3, "exactly the three markings");
        // Locks of Figure 8b.
        assert!(locked(Ne, Nw), "e(B->A) locked");
        assert!(locked(Sw, Nw), "e(D->A) locked");
        assert!(locked(Se, Ne), "e(C->B) locked");
        assert!(locked(Nw, Ne), "e(A->B) locked");
        assert!(locked(Sw, Ne), "e(D->B) locked");
        // The result is hazard-free.
        assert_eq!(graph.validate().unresolved_hazards, 0);
    }
}
