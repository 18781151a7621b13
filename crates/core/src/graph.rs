use crate::{AgreementPolicy, GridSample, SetLabel};
use asj_grid::{CellCoord, Grid, Quadrant, QuartetId};

/// Result of [`AgreementGraph::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphValidation {
    /// Duplicate-producing triangles left unresolved (must be 0 after
    /// Algorithm 1).
    pub unresolved_hazards: usize,
    pub marked_edges: usize,
    pub locked_edges: usize,
}

/// Marking/locking state of one directed edge inside one quartet subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeState {
    /// Marked edges exclude the tail cell's duplicate-prone points from
    /// replication to the head cell (§4.5.1).
    pub marked: bool,
    /// Locked edges may never be marked; they carry replication that an
    /// earlier marking relies on for correctness (§4.5.3).
    pub locked: bool,
}

/// The paper's *graph of agreements* (Definition 4.2).
///
/// * Vertices are grid cells.
/// * Every pair of adjacent cells carries an **agreement type** — the dataset
///   (`R` or `S`) whose points are replicated across that border. The type is
///   shared by both directed edges of the pair and, for side-adjacent cells,
///   by both quartet subgraphs the pair participates in ("the edges that link
///   two vertices are always of the same type").
/// * Each interior grid corner defines a *quartet* subgraph of 12 directed
///   edges (6 cell pairs × 2 directions). Marking and locking state is kept
///   **per quartet**, because a marking refers to the duplicate-prone area at
///   that quartet's reference point.
///
/// Storage is dense (indexed by the grid's cell/quartet indices), which makes
/// the per-point lookups of Algorithms 2–4 cache-friendly: the paper's two
/// dictionaries (§5.1) become three type arrays plus one `u32` of edge bits
/// per quartet, and — derived from those, never shipped — the *replication
/// plan*: one byte per (quartet, quadrant, set) holding what Algorithms 3–4
/// would decide there.
///
/// # Example
///
/// ```
/// use asj_core::{AgreementGraph, AgreementPolicy, GridSample, SetLabel};
/// use asj_geom::{Point, Rect};
/// use asj_grid::{Grid, GridSpec};
///
/// let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0));
/// let sample = GridSample::from_points(
///     &grid,
///     vec![Point::new(2.4, 2.4)],          // R sample
///     vec![Point::new(2.6, 2.6)],          // S sample
/// );
/// let graph = AgreementGraph::build(&grid, &sample, AgreementPolicy::Lpib);
/// assert_eq!(graph.validate().unresolved_hazards, 0);
///
/// // Assign a point: its native cell always comes first, replicas follow.
/// let mut cells = Vec::new();
/// graph.assign(Point::new(2.4, 2.4), SetLabel::R, &mut cells);
/// assert_eq!(cells[0], grid.cell_of(Point::new(2.4, 2.4)));
/// assert!(cells.len() <= 4);
/// ```
#[derive(Debug, Clone)]
pub struct AgreementGraph {
    grid: Grid,
    /// Type of the horizontal pair `(x,y)–(x+1,y)`; index `y·(nx−1)+x`.
    h_type: Vec<SetLabel>,
    /// Type of the vertical pair `(x,y)–(x,y+1)`; index `y·nx+x`.
    v_type: Vec<SetLabel>,
    /// Types of the two diagonal pairs of each quartet: `[SW–NE, SE–NW]`.
    d_type: Vec<[SetLabel; 2]>,
    /// Per-quartet edge bits: bit `from·4+to` = marked,
    /// bit `16+from·4+to` = locked.
    state: Vec<u32>,
    /// The replication plan: [`plan_word`] of every (quartet, quadrant `me`,
    /// set label) at `quartet_index·8 + me·2 + label`. Derived state — filled
    /// by [`AgreementGraph::from_pair_types`], refreshed by
    /// [`AgreementGraph::mark`] — so it always equals a recompile from the
    /// types and edge bits.
    plan: Vec<u8>,
}

/// [`plan_word`] bits 0–1: replicate to the horizontal / vertical neighbor.
pub(crate) const PLAN_H: u8 = 1;
pub(crate) const PLAN_V: u8 = 2;
/// Bits 2–3, the diagonal cell: 0 never, [`PLAN_DIAG_NEAR`] iff the point is
/// within ε of the reference point, [`PLAN_DIAG_ALWAYS`] the marked-side
/// redirect of §4.5.2.
pub(crate) const PLAN_DIAG_SHIFT: u32 = 2;
pub(crate) const PLAN_DIAG_NEAR: u8 = 1;
pub(crate) const PLAN_DIAG_ALWAYS: u8 = 2;
/// Bits 4–5 (`j` = horizontal neighbor) and 6–7 (`j` = vertical neighbor),
/// Algorithm 4's verdict on `e(j→me)`: 0 nothing to follow, 1 the meeting
/// cell is `j.diagonal()` (the other side neighbor), 2 it is `me.diagonal()`.
pub(crate) const PLAN_SUP_SHIFT: u32 = 4;

/// Slot of the quadrant pair `{a, b}` in a quartet's 6-bit type mask
/// ([`AgreementGraph::quartet_types`]): south, north (horizontal pairs),
/// west, east (vertical pairs), SW–NE, SE–NW.
#[inline]
fn pair_slot(a: Quadrant, b: Quadrant) -> u32 {
    let lo = a.index().min(b.index()) as u32;
    match a.index() ^ b.index() {
        1 => lo >> 1,
        2 => 2 + lo,
        _ => 4 + lo,
    }
}

/// Type mask of a quartet whose six pairs all carry `S` (all `R` is 0).
const ALL_S: u8 = 0b11_1111;

/// Everything Algorithms 3–4 read from the graph for a `label` point whose
/// native cell is quadrant `me` of a quartet with type mask `types` and
/// marked-edge bits `marked`, pre-joined into one byte (layout: `PLAN_*`).
fn plan_word(types: u8, marked: u32, me: Quadrant, label: SetLabel) -> u8 {
    let matches = |a, b| (types >> pair_slot(a, b)) as usize & 1 == label.index();
    let is_marked = |a, b| marked & AgreementGraph::bit(a, b) != 0;
    // `a → b` carries `label` points: the type matches and the edge is intact.
    let open = |a, b| matches(a, b) && !is_marked(a, b);
    let (h, v, d) = (me.horizontal(), me.vertical(), me.diagonal());
    let mut word = (open(me, h) as u8 * PLAN_H) | (open(me, v) as u8 * PLAN_V);
    if open(me, d) {
        let redirect = [h, v].iter().any(|&j| matches(me, j) && is_marked(me, j));
        let mode = if redirect {
            PLAN_DIAG_ALWAYS
        } else {
            PLAN_DIAG_NEAR
        };
        word |= mode << PLAN_DIAG_SHIFT;
    }
    for (slot, j) in [h, v].into_iter().enumerate() {
        if matches(j, me) || !is_marked(j, me) {
            continue;
        }
        // The meeting cell, probed in the paper's order.
        for (code, k) in [(1u8, j.diagonal()), (2, d)] {
            if open(me, k) && !matches(j, k) && !is_marked(j, k) {
                word |= code << (PLAN_SUP_SHIFT + 2 * slot as u32);
                break;
            }
        }
    }
    word
}

/// The 8 [`plan_word`]s of a quartet, at `me·2 + label`.
fn plan_words(types: u8, marked: u32) -> [u8; 8] {
    std::array::from_fn(|i| {
        let (me, label) = (Quadrant::from_index(i / 2), SetLabel::from_index(i % 2));
        plan_word(types, marked, me, label)
    })
}

impl AgreementGraph {
    /// Builds the graph for `grid`: agreement types are chosen by `policy`
    /// from the sampled statistics, then Algorithm 1 removes all
    /// duplicate-producing triangles (edge marking + locking).
    ///
    /// # Panics
    /// Panics if the grid does not satisfy the `l > 2ε` precondition
    /// ([`Grid::supports_agreements`]).
    pub fn build(grid: &Grid, sample: &GridSample, policy: AgreementPolicy) -> Self {
        let mut g = Self::from_pair_types(grid, |a, b| policy.agreement_type(grid, sample, a, b));
        crate::markings::build_duplicate_free(&mut g, sample);
        g
    }

    /// Builds the graph with policy-chosen agreement types but **without**
    /// running Algorithm 1 — the "simplified" variant of Table 6 whose
    /// assignment produces duplicates and needs a deduplication operator.
    pub fn build_unmarked(grid: &Grid, sample: &GridSample, policy: AgreementPolicy) -> Self {
        Self::from_pair_types(grid, |a, b| policy.agreement_type(grid, sample, a, b))
    }

    /// Builds an *unmarked* graph with explicitly given pair types. Exposed
    /// so tests and ablations can instantiate arbitrary graphs; run
    /// [`crate::build_duplicate_free`] afterwards to restore the
    /// duplicate-free property.
    pub fn from_pair_types<F>(grid: &Grid, mut pair_type: F) -> Self
    where
        F: FnMut(CellCoord, CellCoord) -> SetLabel,
    {
        assert!(
            grid.supports_agreements(),
            "agreement graphs require cell side > 2*eps on every multi-cell axis"
        );
        let nx = grid.nx() as usize;
        let ny = grid.ny() as usize;
        let mut h_type = Vec::with_capacity(nx.saturating_sub(1) * ny);
        for y in 0..ny as u32 {
            for x in 0..nx.saturating_sub(1) as u32 {
                let a = CellCoord { x, y };
                let b = CellCoord { x: x + 1, y };
                h_type.push(pair_type(a, b));
            }
        }
        let mut v_type = Vec::with_capacity(nx * ny.saturating_sub(1));
        for y in 0..ny.saturating_sub(1) as u32 {
            for x in 0..nx as u32 {
                let a = CellCoord { x, y };
                let b = CellCoord { x, y: y + 1 };
                v_type.push(pair_type(a, b));
            }
        }
        let mut d_type = Vec::with_capacity(grid.num_quartets());
        for q in grid.quartets() {
            let cells = grid.quartet_cells(q);
            d_type.push([
                pair_type(cells[Quadrant::Sw.index()], cells[Quadrant::Ne.index()]),
                pair_type(cells[Quadrant::Se.index()], cells[Quadrant::Nw.index()]),
            ]);
        }
        let mut g = AgreementGraph {
            grid: grid.clone(),
            h_type,
            v_type,
            d_type,
            state: vec![0u32; grid.num_quartets()],
            plan: vec![0u8; 8 * grid.num_quartets()],
        };
        // Nothing is marked yet, so a quartet's words follow from its types.
        let unmarked: [[u8; 8]; 64] = std::array::from_fn(|types| plan_words(types as u8, 0));
        for qi in 0..g.state.len() {
            let words = &unmarked[g.quartet_types(qi) as usize];
            g.plan[qi * 8..][..8].copy_from_slice(words);
        }
        g
    }

    /// The six pair types of quartet `qi` as a bit mask (bit set = `S`),
    /// indexed by [`pair_slot`].
    #[inline]
    fn quartet_types(&self, qi: usize) -> u8 {
        let nx = self.grid.nx() as usize;
        // `qi` is also the index of the quartet's south horizontal pair.
        let west = qi + qi / (nx - 1);
        let [sw_ne, se_nw] = self.d_type[qi];
        [
            self.h_type[qi],
            self.h_type[qi + nx - 1],
            self.v_type[west],
            self.v_type[west + 1],
            sw_ne,
            se_nw,
        ]
        .iter()
        .enumerate()
        .fold(0, |mask, (slot, t)| mask | (t.index() as u8) << slot)
    }

    /// Whether the six pairs of quartet `q` carry one agreement type:
    /// Algorithm 1 has nothing to do there (no triangle is mixed).
    #[inline]
    pub(crate) fn quartet_is_uniform(&self, q: QuartetId) -> bool {
        matches!(self.quartet_types(self.grid.quartet_index(q)), 0 | ALL_S)
    }

    /// Number of quartets with one agreement type on all six pairs.
    pub fn uniform_quartet_count(&self) -> usize {
        let uniform = |&q: &QuartetId| self.quartet_is_uniform(q);
        self.grid.quartets().filter(uniform).count()
    }

    /// Recompiles the 8 plan words of quartet `qi` from its types and marks.
    fn refresh_plan(&mut self, qi: usize) {
        let words = plan_words(self.quartet_types(qi), self.state[qi] & 0xFFFF);
        self.plan[qi * 8..][..8].copy_from_slice(&words);
    }

    /// The plan word of a `label` point native to quadrant `me` of quartet `q`.
    #[inline]
    pub(crate) fn plan(&self, q: QuartetId, me: Quadrant, label: SetLabel) -> u8 {
        self.plan[self.grid.quartet_index(q) * 8 + me.index() * 2 + label.index()]
    }

    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Agreement type of the pair of adjacent cells `(a, b)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the cells are not 8-adjacent.
    #[inline]
    pub fn pair_type(&self, a: CellCoord, b: CellCoord) -> SetLabel {
        let nx = self.grid.nx() as usize;
        let dx = b.x as i64 - a.x as i64;
        let dy = b.y as i64 - a.y as i64;
        debug_assert!(dx.abs() <= 1 && dy.abs() <= 1 && (dx, dy) != (0, 0));
        match (dx, dy) {
            (_, 0) => {
                let x = a.x.min(b.x) as usize;
                self.h_type[a.y as usize * (nx - 1) + x]
            }
            (0, _) => {
                let y = a.y.min(b.y) as usize;
                self.v_type[y * nx + a.x as usize]
            }
            _ => {
                let q = QuartetId {
                    x: a.x.max(b.x),
                    y: a.y.max(b.y),
                };
                // SW–NE runs "/" upward-right; SE–NW runs "\" upward-left.
                let idx = if dx == dy { 0 } else { 1 };
                self.d_type[self.grid.quartet_index(q)][idx]
            }
        }
    }

    /// The cell occupying `quadrant` in quartet `q`.
    #[inline]
    pub fn quartet_cell(&self, q: QuartetId, quadrant: Quadrant) -> CellCoord {
        self.grid.quartet_cells(q)[quadrant.index()]
    }

    /// Agreement type of the directed edge `from → to` inside quartet `q`
    /// (identical for both directions and, for side pairs, both subgraphs).
    #[inline]
    pub fn edge_type(&self, q: QuartetId, from: Quadrant, to: Quadrant) -> SetLabel {
        self.pair_type(self.quartet_cell(q, from), self.quartet_cell(q, to))
    }

    #[inline]
    fn bit(from: Quadrant, to: Quadrant) -> u32 {
        debug_assert_ne!(from, to);
        1 << (from.index() * 4 + to.index())
    }

    /// Marking/locking state of the directed edge `from → to` in quartet `q`.
    #[inline]
    pub fn edge_state(&self, q: QuartetId, from: Quadrant, to: Quadrant) -> EdgeState {
        let bits = self.state[self.grid.quartet_index(q)];
        let b = Self::bit(from, to);
        EdgeState {
            marked: bits & b != 0,
            locked: bits & (b << 16) != 0,
        }
    }

    #[inline]
    pub fn is_marked(&self, q: QuartetId, from: Quadrant, to: Quadrant) -> bool {
        self.state[self.grid.quartet_index(q)] & Self::bit(from, to) != 0
    }

    pub(crate) fn mark(&mut self, q: QuartetId, from: Quadrant, to: Quadrant) {
        let qi = self.grid.quartet_index(q);
        self.state[qi] |= Self::bit(from, to);
        self.refresh_plan(qi);
    }

    pub(crate) fn lock(&mut self, q: QuartetId, from: Quadrant, to: Quadrant) {
        let qi = self.grid.quartet_index(q);
        self.state[qi] |= Self::bit(from, to) << 16;
    }

    /// Serialized footprint of the graph when broadcast to the executors
    /// (Algorithm 5, line 6): grid header, one byte per side-pair agreement
    /// type, two per quartet for the diagonals, and the 4-byte edge-state
    /// word per quartet. The replication plan is not shipped: every executor
    /// compiles it from these bytes.
    pub fn broadcast_bytes(&self) -> u64 {
        (40 + self.h_type.len() + self.v_type.len() + 2 * self.d_type.len() + 4 * self.state.len())
            as u64
    }

    /// Number of marked edges over all quartets (diagnostics).
    pub fn marked_edge_count(&self) -> usize {
        self.state
            .iter()
            .map(|s| (s & 0xFFFF).count_ones() as usize)
            .sum()
    }

    /// Number of locked edges over all quartets (diagnostics).
    pub fn locked_edge_count(&self) -> usize {
        self.state
            .iter()
            .map(|s| (s >> 16).count_ones() as usize)
            .sum()
    }

    /// Structural validation of the duplicate-free property (Lemma 4.8 +
    /// §4.5): counts *unresolved hazards* — triangles where a vertex still
    /// replicates the same dataset to two other vertices with neither edge
    /// marked. A graph produced by Algorithm 1 must report zero.
    pub fn validate(&self) -> GraphValidation {
        let mut v = GraphValidation {
            unresolved_hazards: 0,
            marked_edges: self.marked_edge_count(),
            locked_edges: self.locked_edge_count(),
        };
        for q in self.grid.quartets() {
            for i in Quadrant::ALL {
                for j in Quadrant::ALL {
                    for k in Quadrant::ALL {
                        if i == j || j == k || i == k || j.index() > k.index() {
                            continue;
                        }
                        let tau = self.edge_type(q, i, j);
                        if self.edge_type(q, i, k) == tau
                            && self.edge_type(q, j, k) != tau
                            && !self.is_marked(q, i, j)
                            && !self.is_marked(q, i, k)
                        {
                            v.unresolved_hazards += 1;
                        }
                    }
                }
            }
        }
        v
    }

    /// Count of agreements of each type (`[α_R, α_S]`) over all cell pairs.
    pub fn agreement_histogram(&self) -> [usize; 2] {
        let mut h = [0usize; 2];
        for t in self.h_type.iter().chain(&self.v_type) {
            h[t.index()] += 1;
        }
        for [a, b] in &self.d_type {
            h[a.index()] += 1;
            h[b.index()] += 1;
        }
        h
    }
}

#[cfg(test)]
impl AgreementGraph {
    /// The whole plan recompiled through the public per-edge lookups
    /// (`edge_type`, `is_marked`) instead of the dense type mask.
    pub(crate) fn compile_plan_from_scratch(&self) -> Vec<u8> {
        let mut plan = Vec::with_capacity(self.plan.len());
        for q in self.grid.quartets() {
            let (mut types, mut marked) = (0u8, 0u32);
            for a in Quadrant::ALL {
                for b in [a.horizontal(), a.vertical(), a.diagonal()] {
                    types |= (self.edge_type(q, a, b).index() as u8) << pair_slot(a, b);
                    marked |= Self::bit(a, b) * self.is_marked(q, a, b) as u32;
                }
            }
            plan.extend(plan_words(types, marked));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markings::{process_mixed_quartet, process_quartet};
    use crate::EdgeOrder;
    use asj_geom::{Point, Rect};
    use asj_grid::GridSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random sample and an unmarked graph whose types are uniform over
    /// blocks of `block × block` cells and random where blocks meet, so
    /// uniform and mixed quartets both occur.
    fn blocky_graph(rng: &mut StdRng, block: u32) -> (AgreementGraph, GridSample) {
        let (nx, ny) = (rng.gen_range(3..=9) as f64, rng.gen_range(3..=8) as f64);
        let g = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, nx * 2.3, ny * 2.3), 1.0));
        let mut sample = GridSample::new(&g);
        for _ in 0..150 {
            let p = Point::new(rng.gen_range(0.0..nx * 2.3), rng.gen_range(0.0..ny * 2.3));
            sample.add(&g, SetLabel::from_index(rng.gen_range(0..2)), p);
        }
        let block_type: Vec<SetLabel> = (0..100)
            .map(|_| SetLabel::from_index(rng.gen_range(0..2)))
            .collect();
        let of = |c: CellCoord| block_type[(c.y / block * 10 + c.x / block) as usize];
        let graph = AgreementGraph::from_pair_types(&g, |a, b| {
            if of(a) == of(b) {
                of(a)
            } else {
                SetLabel::from_index(rng.gen_range(0..2))
            }
        });
        (graph, sample)
    }

    /// The plan is derived state: right after `from_pair_types` and after
    /// every quartet Algorithm 1 processes, it equals a recompile.
    #[test]
    fn plan_equals_a_recompile_after_every_quartet() {
        let mut rng = StdRng::seed_from_u64(0x9_1A17);
        let mut marked = 0;
        for round in 0..12 {
            let (mut graph, sample) = blocky_graph(&mut rng, 1 + round % 3);
            assert_eq!(graph.plan, graph.compile_plan_from_scratch());
            let order = [EdgeOrder::DiagonalFirst, EdgeOrder::WeightOnly][round as usize % 2];
            let quartets: Vec<QuartetId> = graph.grid().quartets().collect();
            for q in quartets {
                process_quartet(&mut graph, &sample, q, order);
                assert_eq!(
                    graph.plan,
                    graph.compile_plan_from_scratch(),
                    "round {round} {q:?}"
                );
            }
            marked += graph.marked_edge_count();
        }
        assert!(marked > 100, "only {marked} edges marked");
    }

    /// Skipping uniform quartets changes no edge bit and no plan word: the
    /// loop without the fast path arrives at the same graph.
    #[test]
    fn uniform_fast_path_changes_nothing() {
        let mut rng = StdRng::seed_from_u64(0xFA57);
        let (mut uniform, mut mixed) = (0, 0);
        for round in 0..20 {
            let (mut fast, sample) = blocky_graph(&mut rng, 1 + round % 4);
            let mut slow = fast.clone();
            let order = [EdgeOrder::DiagonalFirst, EdgeOrder::WeightOnly][round as usize % 2];
            crate::build_duplicate_free_with_order(&mut fast, &sample, order);
            let quartets: Vec<QuartetId> = slow.grid().quartets().collect();
            for q in quartets {
                process_mixed_quartet(&mut slow, &sample, q, order);
            }
            assert_eq!(fast.state, slow.state, "round {round}");
            assert_eq!(fast.plan, slow.plan, "round {round}");
            uniform += fast.uniform_quartet_count();
            mixed += fast.grid().num_quartets() - fast.uniform_quartet_count();
        }
        assert!(
            uniform > 50 && mixed > 50,
            "{uniform} uniform, {mixed} mixed"
        );
    }

    fn grid(n: f64) -> Grid {
        Grid::new(GridSpec::new(Rect::new(0.0, 0.0, n, n), 1.0))
    }

    fn uniform_r(g: &Grid) -> AgreementGraph {
        AgreementGraph::from_pair_types(g, |_, _| SetLabel::R)
    }

    #[test]
    fn pair_type_symmetric_lookup() {
        let g = grid(10.0);
        let gr = AgreementGraph::from_pair_types(&g, |a, b| {
            // Deterministic but varied assignment.
            if (a.x + a.y + b.x + b.y) % 2 == 0 {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        for y in 0..g.ny() {
            for x in 0..g.nx() {
                let a = CellCoord { x, y };
                for (dx, dy) in [(1i64, 0i64), (0, 1), (1, 1), (1, -1)] {
                    let bx = x as i64 + dx;
                    let by = y as i64 + dy;
                    if bx < 0 || by < 0 || bx >= g.nx() as i64 || by >= g.ny() as i64 {
                        continue;
                    }
                    let b = CellCoord {
                        x: bx as u32,
                        y: by as u32,
                    };
                    assert_eq!(gr.pair_type(a, b), gr.pair_type(b, a), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn edge_type_matches_pair_type() {
        let g = grid(10.0);
        let gr = AgreementGraph::from_pair_types(&g, |a, b| {
            if a.x.min(b.x) % 2 == 0 {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        for q in g.quartets() {
            for from in Quadrant::ALL {
                for to in Quadrant::ALL {
                    if from == to {
                        continue;
                    }
                    let a = gr.quartet_cell(q, from);
                    let b = gr.quartet_cell(q, to);
                    assert_eq!(gr.edge_type(q, from, to), gr.pair_type(a, b));
                }
            }
        }
    }

    #[test]
    fn mark_and_lock_are_per_quartet() {
        let g = grid(10.0);
        let mut gr = uniform_r(&g);
        let q1 = QuartetId { x: 1, y: 1 };
        let q2 = QuartetId { x: 2, y: 1 };
        gr.mark(q1, Quadrant::Sw, Quadrant::Se);
        gr.lock(q1, Quadrant::Se, Quadrant::Ne);
        assert!(gr.edge_state(q1, Quadrant::Sw, Quadrant::Se).marked);
        assert!(gr.edge_state(q1, Quadrant::Se, Quadrant::Ne).locked);
        // The reverse direction and other quartets are untouched.
        assert!(!gr.edge_state(q1, Quadrant::Se, Quadrant::Sw).marked);
        assert!(!gr.edge_state(q2, Quadrant::Sw, Quadrant::Se).marked);
        assert_eq!(gr.marked_edge_count(), 1);
        assert_eq!(gr.locked_edge_count(), 1);
    }

    #[test]
    fn histogram_counts_all_pairs() {
        let g = grid(10.0); // 4×4 cells
        let gr = uniform_r(&g);
        let [r, s] = gr.agreement_histogram();
        // Side pairs: 2·4·3 = 24; diagonal pairs: 2 per quartet · 9 = 18.
        assert_eq!(r, 42);
        assert_eq!(s, 0);
    }

    #[test]
    #[should_panic(expected = "agreement graphs require")]
    fn rejects_eps_grid() {
        let g = Grid::new(GridSpec::with_factor(
            Rect::new(0.0, 0.0, 10.0, 10.0),
            1.0,
            1.0,
        ));
        let _ = uniform_r(&g);
    }
}
