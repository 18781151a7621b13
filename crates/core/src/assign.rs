use crate::graph::{
    PLAN_DIAG_ALWAYS, PLAN_DIAG_NEAR, PLAN_DIAG_SHIFT, PLAN_H, PLAN_SUP_SHIFT, PLAN_V,
};
use crate::{AgreementGraph, SetLabel};
use asj_geom::Point;
use asj_grid::{AreaClass, CellCoord, Quadrant, QuartetId};

/// Aggregate statistics over a stream of point assignments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Points assigned.
    pub points: u64,
    /// Extra copies beyond the native cell (the paper's *replicated objects*
    /// metric).
    pub replicas: u64,
    /// Largest number of cells any single point was assigned to.
    pub max_cells: usize,
}

impl AssignStats {
    /// Records one assignment result (`cells` includes the native cell).
    pub fn record(&mut self, cells: &[CellCoord]) {
        self.points += 1;
        self.replicas += (cells.len() - 1) as u64;
        self.max_cells = self.max_cells.max(cells.len());
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &AssignStats) {
        self.points += other.points;
        self.replicas += other.replicas;
        self.max_cells = self.max_cells.max(other.max_cells);
    }
}

impl AgreementGraph {
    /// Algorithms 2–4 of the paper: assigns point `o` of dataset `label` to
    /// its native cell plus every cell it must be replicated to under the
    /// adaptive-replication rules. Cell ids are appended to `out` (cleared
    /// first); the native cell always comes first.
    ///
    /// Dispatch follows Figure 9:
    ///
    /// 1. *No-replication area* — native cell only.
    /// 2. *Merged duplicate-prone area* of quartet `q` — `MeDuPAr`
    ///    (Algorithm 3) for `q`, then `SupAr` (Algorithm 4) for `q` and the
    ///    two adjacent quartets `q'`, `q''`.
    /// 3. *Plain replication area* — replicate across the single border when
    ///    the agreement type matches, then `SupAr` for the two quartets at
    ///    the ends of that border.
    ///
    /// What Algorithms 3–4 would look up edge by edge is read from the
    /// graph's replication plan, one byte per quartet consulted; only the
    /// geometric tests that byte leaves open are evaluated.
    pub fn assign(&self, o: Point, label: SetLabel, out: &mut Vec<CellCoord>) {
        out.clear();
        let grid = self.grid();
        let c = grid.cell_of(o);
        out.push(c);
        // The boundaries of the native cell within ε that have a neighbor
        // behind them, exactly as `Grid::classify_in_cell` decides it.
        let eps = grid.eps();
        let rect = grid.cell_rect(c);
        let near_w = c.x > 0 && (o.x - rect.min_x) <= eps;
        let near_e = c.x + 1 < grid.nx() && (rect.max_x - o.x) <= eps;
        let near_s = c.y > 0 && (o.y - rect.min_y) <= eps;
        let near_n = c.y + 1 < grid.ny() && (rect.max_y - o.y) <= eps;
        let (near_h, near_v) = (near_w || near_e, near_s || near_n);
        if !near_h && !near_v {
            return;
        }
        // The quartet at the near end of both axes, where the native cell is
        // east of the corner iff the near boundary is its western one, and
        // the quartets at the far end of the near boundaries.
        let (qx, qy) = (c.x + !near_w as u32, c.y + !near_s as u32);
        let (far_x, far_y) = (c.x + near_w as u32, c.y + near_s as u32);
        let q = QuartetId { x: qx, y: qy };
        let me = Quadrant::from_bits(near_w, near_s);
        let along_v = (QuartetId { x: qx, y: far_y }, me.vertical());
        let along_h = (QuartetId { x: far_x, y: qy }, me.horizontal());
        let horizontal = CellCoord {
            x: if near_w { c.x - 1 } else { c.x + 1 },
            y: c.y,
        };
        let vertical = CellCoord {
            x: c.x,
            y: if near_s { c.y - 1 } else { c.y + 1 },
        };
        let sup_quartets = match (near_h, near_v) {
            (true, true) => {
                // MeDuPAr (Algorithm 3) from the corner quartet's word.
                let word = self.plan(q, me, label);
                if word & PLAN_H != 0 {
                    out.push(horizontal);
                }
                if word & PLAN_V != 0 {
                    out.push(vertical);
                }
                let diagonal = word >> PLAN_DIAG_SHIFT & 3;
                if diagonal == PLAN_DIAG_ALWAYS
                    || diagonal == PLAN_DIAG_NEAR && o.dist2(grid.corner_point(q)) <= eps * eps
                {
                    out.push(CellCoord {
                        x: horizontal.x,
                        y: vertical.y,
                    });
                }
                // A merged-square point may sit in a supplementary area of
                // its *own* quartet (Figure 6: the part of the square beyond
                // ε of the reference point): when a neighbor's marked edge
                // excluded that neighbor's duplicate-prone partners from the
                // native cell, the point must follow them to the meeting
                // cell. Algorithm 2 as printed only probes the adjacent
                // quartets q' and q''; probing q as well is required for
                // correctness (see DESIGN.md, faithfulness notes).
                self.sup_ar(q, me, o, label, out);
                [along_v, along_h]
            }
            (true, false) => {
                if self.pair_type(c, horizontal) == label {
                    out.push(horizontal);
                }
                [along_v, (q, me)]
            }
            _ => {
                if self.pair_type(c, vertical) == label {
                    out.push(vertical);
                }
                [along_h, (q, me)]
            }
        };
        for (q, me) in sup_quartets {
            self.sup_ar(q, me, o, label, out);
        }
        debug_assert!(
            {
                let mut sorted = out.clone();
                sorted.sort();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "assignment produced duplicate cells: {out:?}"
        );
    }

    /// Algorithm 4 (`SupAr`) for a point native to quadrant `me` of quartet
    /// `q` (which may lie outside the grid): for each side neighbor `j` whose
    /// marked, other-typed `e(j→me)` excluded `j`'s duplicate-prone points
    /// from the native cell, the point follows them to the meeting cell the
    /// plan names — if it is in `q`'s supplementary area (Definition 4.10:
    /// reference point within 2ε, `j` within ε).
    #[inline]
    fn sup_ar(
        &self,
        q: QuartetId,
        me: Quadrant,
        o: Point,
        label: SetLabel,
        out: &mut Vec<CellCoord>,
    ) {
        let grid = self.grid();
        if !grid.quartet_in_bounds(q) {
            return;
        }
        let sup = self.plan(q, me, label) >> PLAN_SUP_SHIFT;
        if sup == 0 {
            return;
        }
        let (eps, two_eps) = (grid.eps(), 2.0 * grid.eps());
        if o.dist2(grid.corner_point(q)) > two_eps * two_eps {
            return;
        }
        let cells = grid.quartet_cells(q);
        for (slot, j) in [me.horizontal(), me.vertical()].into_iter().enumerate() {
            let k = match sup >> (2 * slot) & 3 {
                0 => continue,
                1 => j.diagonal(),
                _ => me.diagonal(),
            };
            if grid.cell_rect(cells[j.index()]).mindist2(o) > eps * eps {
                continue;
            }
            // MeDuPAr may already have replicated the point here (its push
            // conditions on e(me→k) are identical).
            if !out.contains(&cells[k.index()]) {
                out.push(cells[k.index()]);
            }
        }
    }

    /// The *simplified, non-duplicate-free* assignment evaluated in Table 6
    /// of the paper: agreement-based replication that ignores edge marking,
    /// locking and supplementary areas. Correct (Corollary 4.6) but produces
    /// duplicate results in mixed triangles (Lemma 4.8), so callers must pair
    /// it with an explicit deduplication operator after the join.
    pub fn assign_naive(&self, o: Point, label: SetLabel, out: &mut Vec<CellCoord>) {
        out.clear();
        let grid = self.grid();
        let native = grid.cell_of(o);
        out.push(native);
        match grid.classify_in_cell(o, native) {
            AreaClass::Interior => {}
            AreaClass::PlainStrip { neighbor, .. } => {
                if self.pair_type(native, neighbor) == label {
                    out.push(neighbor);
                }
            }
            AreaClass::CornerSquare { quartet, .. } => {
                let me = grid
                    .quadrant_of(native, quartet)
                    .expect("native cell must belong to quartet");
                for other in [me.horizontal(), me.vertical()] {
                    if self.edge_type(quartet, me, other) == label {
                        out.push(self.quartet_cell(quartet, other));
                    }
                }
                let diag = me.diagonal();
                let eps = grid.eps();
                if self.edge_type(quartet, me, diag) == label
                    && o.dist2(grid.corner_point(quartet)) <= eps * eps
                {
                    out.push(self.quartet_cell(quartet, diag));
                }
            }
        }
    }
}

/// The transcription of Algorithms 2–4 that consults the graph edge by edge —
/// the oracle [`AgreementGraph::assign`]'s plan-driven decisions are tested
/// against.
#[cfg(test)]
impl AgreementGraph {
    pub(crate) fn assign_reference(&self, o: Point, label: SetLabel, out: &mut Vec<CellCoord>) {
        out.clear();
        let grid = self.grid();
        let native = grid.cell_of(o);
        out.push(native);
        match grid.classify_in_cell(o, native) {
            AreaClass::Interior => {}
            AreaClass::PlainStrip {
                neighbor,
                sup_quartets,
                ..
            } => {
                if self.pair_type(native, neighbor) == label {
                    out.push(neighbor);
                }
                for q in sup_quartets.into_iter().flatten() {
                    self.sup_ar_reference(q, o, label, native, out);
                }
            }
            AreaClass::CornerSquare {
                quartet,
                sup_quartets,
            } => {
                self.me_du_par_reference(quartet, o, label, native, out);
                self.sup_ar_reference(quartet, o, label, native, out);
                for q in sup_quartets.into_iter().flatten() {
                    self.sup_ar_reference(q, o, label, native, out);
                }
            }
        }
    }

    /// Algorithm 3 (`MeDuPAr`): replication of a point located in the merged
    /// duplicate-prone area of quartet `q`.
    ///
    /// * Each side neighbor receives the point when the edge type matches and
    ///   the edge is not marked.
    /// * The diagonal cell receives the point when its edge matches and is
    ///   unmarked, and either the point is genuinely within ε of the
    ///   reference point, or one of the matching side edges is marked — the
    ///   *redirect* that sends excluded duplicate-prone points to the cell
    ///   where their partners will meet them (§4.5.2, Figure 6).
    fn me_du_par_reference(
        &self,
        q: QuartetId,
        o: Point,
        label: SetLabel,
        native: CellCoord,
        out: &mut Vec<CellCoord>,
    ) {
        let grid = self.grid();
        let me = grid
            .quadrant_of(native, q)
            .expect("native cell must belong to quartet");
        let sides = [me.horizontal(), me.vertical()];
        for j in sides {
            if self.edge_type(q, me, j) == label && !self.is_marked(q, me, j) {
                out.push(self.quartet_cell(q, j));
            }
        }
        let diag = me.diagonal();
        if self.edge_type(q, me, diag) == label && !self.is_marked(q, me, diag) {
            let eps = grid.eps();
            let within_ref = o.dist2(grid.corner_point(q)) <= eps * eps;
            let side_marked = sides
                .iter()
                .any(|&j| self.edge_type(q, me, j) == label && self.is_marked(q, me, j));
            if within_ref || side_marked {
                out.push(self.quartet_cell(q, diag));
            }
        }
    }

    /// Algorithm 4 (`SupAr`): replication of a point located in a
    /// *supplementary area* of quartet `q` (Definition 4.10).
    ///
    /// For each side neighbor `j` of the native cell within ε of the point
    /// (with the reference point within 2ε): if the `j → native` edge carries
    /// the *other* dataset and is marked, the duplicate-prone points of `j`
    /// that this point pairs with were excluded from the native cell; the
    /// point must follow them to the meeting cell — the quartet cell whose
    /// edges from both the native cell (matching type, unmarked) and from `j`
    /// (other type, unmarked) are intact. Candidates are probed in the
    /// paper's order: the remaining side neighbor of the native cell first,
    /// then its diagonal.
    fn sup_ar_reference(
        &self,
        q: QuartetId,
        o: Point,
        label: SetLabel,
        native: CellCoord,
        out: &mut Vec<CellCoord>,
    ) {
        let grid = self.grid();
        let eps = grid.eps();
        let two_eps = 2.0 * eps;
        if o.dist2(grid.corner_point(q)) > two_eps * two_eps {
            return;
        }
        let me = grid
            .quadrant_of(native, q)
            .expect("native cell must belong to quartet");
        for j in [me.horizontal(), me.vertical()] {
            let cj = self.quartet_cell(q, j);
            if grid.cell_rect(cj).mindist2(o) > eps * eps {
                continue;
            }
            if self.edge_type(q, j, me) == label || !self.is_marked(q, j, me) {
                continue;
            }
            for k in [j.diagonal(), me.diagonal()] {
                if self.edge_type(q, me, k) == label
                    && !self.is_marked(q, me, k)
                    && self.edge_type(q, j, k) != label
                    && !self.is_marked(q, j, k)
                {
                    let ck = self.quartet_cell(q, k);
                    // MeDuPAr may already have replicated the point here
                    // (its push conditions on e(me→k) are identical).
                    if !out.contains(&ck) {
                        out.push(ck);
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgreementPolicy, GridSample};
    use asj_geom::Rect;
    use asj_grid::{Grid, GridSpec};

    fn grid() -> Grid {
        Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0))
    }

    fn uni_r(g: &Grid) -> AgreementGraph {
        AgreementGraph::build(g, &GridSample::new(g), AgreementPolicy::UniformR)
    }

    #[test]
    fn interior_point_native_only() {
        let g = grid();
        let graph = uni_r(&g);
        let mut out = Vec::new();
        graph.assign(Point::new(3.75, 3.75), SetLabel::R, &mut out);
        assert_eq!(out, vec![CellCoord { x: 1, y: 1 }]);
    }

    #[test]
    fn uniform_r_replicates_r_like_pbsm() {
        let g = grid();
        let graph = uni_r(&g);
        let mut out = Vec::new();
        // Near interior corner (2.5, 2.5) within ε of E, N and NE cells.
        let p = Point::new(2.4, 2.4);
        graph.assign(p, SetLabel::R, &mut out);
        let mut expected = vec![CellCoord { x: 0, y: 0 }];
        g.push_cells_within_eps(p, &mut expected);
        out.sort();
        expected.sort();
        assert_eq!(out, expected);
    }

    #[test]
    fn uniform_r_never_replicates_s() {
        let g = grid();
        let graph = uni_r(&g);
        let mut out = Vec::new();
        for p in [
            Point::new(2.4, 2.4),
            Point::new(2.6, 1.0),
            Point::new(4.9, 4.9),
            Point::new(7.4, 2.6),
        ] {
            graph.assign(p, SetLabel::S, &mut out);
            assert_eq!(out.len(), 1, "S point must stay native under UNI(R): {p:?}");
        }
    }

    #[test]
    fn corner_point_far_from_reference_skips_diagonal() {
        let g = grid();
        let graph = uni_r(&g);
        let mut out = Vec::new();
        // In the corner square of (2.5, 2.5) (both axis gaps ≤ ε) but the
        // straight-line distance to the corner exceeds ε.
        let p = Point::new(1.6, 1.8);
        assert!(p.dist(Point::new(2.5, 2.5)) > 1.0);
        graph.assign(p, SetLabel::R, &mut out);
        out.sort();
        assert_eq!(
            out,
            vec![
                CellCoord { x: 0, y: 0 },
                CellCoord { x: 0, y: 1 },
                CellCoord { x: 1, y: 0 }
            ]
        );
    }

    #[test]
    fn assign_stats_accumulates() {
        let mut st = AssignStats::default();
        st.record(&[CellCoord { x: 0, y: 0 }]);
        st.record(&[
            CellCoord { x: 0, y: 0 },
            CellCoord { x: 1, y: 0 },
            CellCoord { x: 1, y: 1 },
        ]);
        assert_eq!(st.points, 2);
        assert_eq!(st.replicas, 2);
        assert_eq!(st.max_cells, 3);
        let mut other = AssignStats::default();
        other.record(&[CellCoord { x: 5, y: 5 }]);
        st.merge(&other);
        assert_eq!(st.points, 3);
        assert_eq!(st.replicas, 2);
    }
}
