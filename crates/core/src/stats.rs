use crate::SetLabel;
use asj_geom::Point;
use asj_grid::{CellCoord, Grid};

/// One of the eight neighbor directions of a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Dir8 {
    W = 0,
    E = 1,
    S = 2,
    N = 3,
    Sw = 4,
    Se = 5,
    Nw = 6,
    Ne = 7,
}

impl Dir8 {
    pub const ALL: [Dir8; 8] = [
        Dir8::W,
        Dir8::E,
        Dir8::S,
        Dir8::N,
        Dir8::Sw,
        Dir8::Se,
        Dir8::Nw,
        Dir8::Ne,
    ];

    /// Direction from cell `a` to adjacent cell `b`.
    ///
    /// # Panics
    /// Panics if the cells are identical or not 8-adjacent.
    pub fn between(a: CellCoord, b: CellCoord) -> Dir8 {
        let dx = b.x as i64 - a.x as i64;
        let dy = b.y as i64 - a.y as i64;
        match (dx, dy) {
            (-1, 0) => Dir8::W,
            (1, 0) => Dir8::E,
            (0, -1) => Dir8::S,
            (0, 1) => Dir8::N,
            (-1, -1) => Dir8::Sw,
            (1, -1) => Dir8::Se,
            (-1, 1) => Dir8::Nw,
            (1, 1) => Dir8::Ne,
            _ => panic!("cells are not adjacent: {a:?} -> {b:?}"),
        }
    }

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Sampled per-cell statistics driving agreement selection, edge weights and
/// load balancing (§5.1, first dictionary; §6.2).
///
/// For every cell the sample touched we track, per dataset:
///
/// * the total number of sampled points, and
/// * for each of the 8 neighbor directions, how many sampled points are
///   **replication candidates** toward that neighbor (`MINDIST ≤ ε`).
///
/// In the paper this dictionary is filled on the Spark driver from a small
/// sample (3 % by default) of both inputs before the grid is broadcast. Like
/// that dictionary, it holds only the cells the sample touched: a `u32` slot
/// per grid cell indexes one stats record per occupied cell, and every
/// count of an unoccupied cell is 0.
#[derive(Debug, Clone)]
pub struct GridSample {
    /// Per grid cell, the index of its record in `stats`, or `EMPTY`.
    slots: Vec<u32>,
    /// One record per occupied cell, in the order the sample reached them.
    stats: Vec<CellStats>,
    sampled: [u64; 2],
}

/// The slot of a cell no sampled point fell into.
const EMPTY: u32 = u32::MAX;

/// The counts of one occupied cell, indexed by `SetLabel::index`.
#[derive(Debug, Clone, Default)]
struct CellStats {
    total: [u64; 2],
    border: [[u64; 2]; 8],
}

impl GridSample {
    /// An empty sample sized for `grid`.
    pub fn new(grid: &Grid) -> Self {
        GridSample {
            slots: vec![EMPTY; grid.num_cells()],
            stats: Vec::new(),
            sampled: [0; 2],
        }
    }

    /// Builds a sample from two point iterators.
    pub fn from_points<IR, IS>(grid: &Grid, r: IR, s: IS) -> Self
    where
        IR: IntoIterator<Item = Point>,
        IS: IntoIterator<Item = Point>,
    {
        let mut sample = GridSample::new(grid);
        let mut neighbors = Vec::with_capacity(4);
        for p in r {
            sample.add_with(grid, SetLabel::R, p, &mut neighbors);
        }
        for p in s {
            sample.add_with(grid, SetLabel::S, p, &mut neighbors);
        }
        sample
    }

    /// Records one sampled point.
    pub fn add(&mut self, grid: &Grid, label: SetLabel, p: Point) {
        self.add_with(grid, label, p, &mut Vec::with_capacity(4));
    }

    /// [`GridSample::add`] with the caller's scratch vector for the cells
    /// within ε, so a loop over many points allocates once.
    fn add_with(&mut self, grid: &Grid, label: SetLabel, p: Point, neighbors: &mut Vec<CellCoord>) {
        let cell = grid.cell_of(p);
        let slot = &mut self.slots[grid.cell_index(cell)];
        if *slot == EMPTY {
            *slot = u32::try_from(self.stats.len()).expect("fewer occupied cells than u32::MAX");
            self.stats.push(CellStats::default());
        }
        let stats = &mut self.stats[*slot as usize];
        let li = label.index();
        stats.total[li] += 1;
        self.sampled[li] += 1;
        neighbors.clear();
        grid.push_cells_within_eps(p, neighbors);
        for &n in neighbors.iter() {
            stats.border[Dir8::between(cell, n).index()][li] += 1;
        }
    }

    /// The record of `cell_index`, if a sampled point fell into it.
    #[inline]
    fn cell(&self, cell_index: usize) -> Option<&CellStats> {
        match self.slots[cell_index] {
            EMPTY => None,
            slot => Some(&self.stats[slot as usize]),
        }
    }

    /// Total sampled points of `label` in `cell`.
    #[inline]
    pub fn total(&self, cell_index: usize, label: SetLabel) -> u64 {
        self.cell(cell_index).map_or(0, |c| c.total[label.index()])
    }

    /// Sampled points of `label` in `cell` that are replication candidates
    /// toward the neighbor in direction `d`.
    #[inline]
    pub fn border_count(&self, cell_index: usize, d: Dir8, label: SetLabel) -> u64 {
        self.cell(cell_index)
            .map_or(0, |c| c.border[d.index()][label.index()])
    }

    /// Total points sampled from each input set (`[R, S]`).
    #[inline]
    pub fn sampled(&self) -> [u64; 2] {
        self.sampled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_geom::Rect;
    use asj_grid::GridSpec;

    fn grid() -> Grid {
        Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0))
    }

    #[test]
    fn dir8_between_all_neighbors() {
        let c = CellCoord { x: 1, y: 1 };
        assert_eq!(Dir8::between(c, CellCoord { x: 0, y: 1 }), Dir8::W);
        assert_eq!(Dir8::between(c, CellCoord { x: 2, y: 1 }), Dir8::E);
        assert_eq!(Dir8::between(c, CellCoord { x: 1, y: 0 }), Dir8::S);
        assert_eq!(Dir8::between(c, CellCoord { x: 1, y: 2 }), Dir8::N);
        assert_eq!(Dir8::between(c, CellCoord { x: 0, y: 0 }), Dir8::Sw);
        assert_eq!(Dir8::between(c, CellCoord { x: 2, y: 0 }), Dir8::Se);
        assert_eq!(Dir8::between(c, CellCoord { x: 0, y: 2 }), Dir8::Nw);
        assert_eq!(Dir8::between(c, CellCoord { x: 2, y: 2 }), Dir8::Ne);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn dir8_rejects_same_cell() {
        let c = CellCoord { x: 1, y: 1 };
        Dir8::between(c, c);
    }

    #[test]
    fn interior_point_counts_only_total() {
        let g = grid();
        let mut s = GridSample::new(&g);
        s.add(&g, SetLabel::R, Point::new(3.75, 3.75)); // center of cell (1,1)
        let ci = g.cell_index(CellCoord { x: 1, y: 1 });
        assert_eq!(s.total(ci, SetLabel::R), 1);
        assert_eq!(s.total(ci, SetLabel::S), 0);
        for d in Dir8::ALL {
            assert_eq!(s.border_count(ci, d, SetLabel::R), 0);
        }
        assert_eq!(s.sampled(), [1, 0]);
    }

    #[test]
    fn corner_point_counts_three_directions() {
        let g = grid();
        let mut s = GridSample::new(&g);
        // Cell (0,0) near the interior corner (2.5, 2.5): candidate for E, N
        // and NE neighbors.
        s.add(&g, SetLabel::S, Point::new(2.4, 2.4));
        let ci = g.cell_index(CellCoord { x: 0, y: 0 });
        assert_eq!(s.border_count(ci, Dir8::E, SetLabel::S), 1);
        assert_eq!(s.border_count(ci, Dir8::N, SetLabel::S), 1);
        assert_eq!(s.border_count(ci, Dir8::Ne, SetLabel::S), 1);
        assert_eq!(s.border_count(ci, Dir8::W, SetLabel::S), 0);
        assert_eq!(s.border_count(ci, Dir8::E, SetLabel::R), 0);
    }

    /// Per cell, the sampled points of each set, and per direction the ones
    /// whose `MINDIST` to that neighbor is at most ε — counted point by point
    /// from the cell rectangles, without `GridSample`.
    fn brute_force(g: &Grid, points: &[(SetLabel, Point)]) -> Vec<([u64; 2], [[u64; 2]; 8])> {
        let mut cells = vec![([0; 2], [[0; 2]; 8]); g.num_cells()];
        let e2 = g.eps() * g.eps();
        for &(label, p) in points {
            let c = g.cell_of(p);
            let (total, border) = &mut cells[g.cell_index(c)];
            total[label.index()] += 1;
            for (dx, dy) in (-1i64..=1).flat_map(|dx| (-1i64..=1).map(move |dy| (dx, dy))) {
                let (x, y) = (c.x as i64 + dx, c.y as i64 + dy);
                let inside = (0..g.nx() as i64).contains(&x) && (0..g.ny() as i64).contains(&y);
                if (dx, dy) == (0, 0) || !inside {
                    continue;
                }
                let n = CellCoord {
                    x: x as u32,
                    y: y as u32,
                };
                if g.cell_rect(n).mindist2(p) <= e2 {
                    border[Dir8::between(c, n).index()][label.index()] += 1;
                }
            }
        }
        cells
    }

    mod sparse {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Points gathered around a few hot spots of a grid of up to
            /// 40 000 cells, so most cells are empty: every count of every
            /// cell, direction and set is the brute-force count.
            #[test]
            fn counts_equal_brute_force_on_mostly_empty_grids(
                eps in 0.025f64..0.5,
                spots in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..1.5), 1..4),
                draws in prop::collection::vec((0usize..4, 0.0f64..1.0, 0.0f64..1.0, any::<bool>()), 0..300),
            ) {
                let g = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), eps));
                let points: Vec<(SetLabel, Point)> = draws
                    .iter()
                    .map(|&(spot, u, v, is_r)| {
                        let (x, y, spread) = spots[spot % spots.len()];
                        let at = |c: f64, t: f64| (c + (t - 0.5) * spread).clamp(0.0, 9.999);
                        let label = if is_r { SetLabel::R } else { SetLabel::S };
                        (label, Point::new(at(x, u), at(y, v)))
                    })
                    .collect();
                let on = |label: SetLabel| {
                    points.iter().filter(move |(l, _)| *l == label).map(|&(_, p)| p)
                };
                let sample = GridSample::from_points(&g, on(SetLabel::R), on(SetLabel::S));
                let n_r = on(SetLabel::R).count() as u64;
                prop_assert_eq!(sample.sampled(), [n_r, points.len() as u64 - n_r]);
                for (ci, (total, border)) in brute_force(&g, &points).iter().enumerate() {
                    for label in [SetLabel::R, SetLabel::S] {
                        let li = label.index();
                        prop_assert_eq!(sample.total(ci, label), total[li], "cell {}", ci);
                        for d in Dir8::ALL {
                            let got = sample.border_count(ci, d, label);
                            prop_assert_eq!(got, border[d.index()][li], "cell {} {:?}", ci, d);
                        }
                    }
                }
            }
        }
    }
}
