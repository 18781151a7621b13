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
/// For every cell we track, per dataset:
///
/// * the total number of sampled points, and
/// * for each of the 8 neighbor directions, how many sampled points are
///   **replication candidates** toward that neighbor (`MINDIST ≤ ε`).
///
/// In the paper this dictionary is filled on the Spark driver from a small
/// sample (3 % by default) of both inputs before the grid is broadcast.
#[derive(Debug, Clone)]
pub struct GridSample {
    totals: Vec<[u64; 2]>,
    border: Vec<[[u64; 2]; 8]>,
    sampled: [u64; 2],
}

impl GridSample {
    /// An empty sample sized for `grid`.
    pub fn new(grid: &Grid) -> Self {
        GridSample {
            totals: vec![[0; 2]; grid.num_cells()],
            border: vec![[[0; 2]; 8]; grid.num_cells()],
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
        let ci = grid.cell_index(cell);
        let li = label.index();
        self.totals[ci][li] += 1;
        self.sampled[li] += 1;
        neighbors.clear();
        grid.push_cells_within_eps(p, neighbors);
        for &n in neighbors.iter() {
            self.border[ci][Dir8::between(cell, n).index()][li] += 1;
        }
    }

    /// Merges another sample (built over the same grid) into this one.
    pub fn merge(&mut self, other: &GridSample) {
        assert_eq!(
            self.totals.len(),
            other.totals.len(),
            "samples cover different grids"
        );
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            a[0] += b[0];
            a[1] += b[1];
        }
        for (a, b) in self.border.iter_mut().zip(&other.border) {
            for d in 0..8 {
                a[d][0] += b[d][0];
                a[d][1] += b[d][1];
            }
        }
        self.sampled[0] += other.sampled[0];
        self.sampled[1] += other.sampled[1];
    }

    /// Total sampled points of `label` in `cell`.
    #[inline]
    pub fn total(&self, cell_index: usize, label: SetLabel) -> u64 {
        self.totals[cell_index][label.index()]
    }

    /// Sampled points of `label` in `cell` that are replication candidates
    /// toward the neighbor in direction `d`.
    #[inline]
    pub fn border_count(&self, cell_index: usize, d: Dir8, label: SetLabel) -> u64 {
        self.border[cell_index][d.index()][label.index()]
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

    #[test]
    fn merge_adds_counts() {
        let g = grid();
        let mut a = GridSample::new(&g);
        let mut b = GridSample::new(&g);
        a.add(&g, SetLabel::R, Point::new(2.4, 2.4));
        b.add(&g, SetLabel::R, Point::new(2.4, 2.4));
        b.add(&g, SetLabel::S, Point::new(7.0, 7.0));
        a.merge(&b);
        let ci = g.cell_index(CellCoord { x: 0, y: 0 });
        assert_eq!(a.total(ci, SetLabel::R), 2);
        assert_eq!(a.border_count(ci, Dir8::Ne, SetLabel::R), 2);
        assert_eq!(a.sampled(), [2, 1]);
    }
}
