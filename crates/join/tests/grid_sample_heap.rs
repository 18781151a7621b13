//! The driver's grid sample holds only the cells its sample touched: on a
//! grid of a million cells, sampling a thousand points allocates a `u32` slot
//! per cell and a record per occupied cell, not 144 bytes per cell. Its own
//! binary, so the counting allocator observes this one test.

mod heap;

use asj_core::{GridSample, SetLabel};
use asj_geom::{Point, Rect};
use asj_grid::{Grid, GridSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn a_sparse_sample_of_a_million_cell_grid_allocates_little() {
    let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 1010.0, 1010.0), 0.5));
    assert!(grid.num_cells() >= 1_000_000, "{} cells", grid.num_cells());
    let mut rng = StdRng::seed_from_u64(29);
    let mut points = |n: usize| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1010.0), rng.gen_range(0.0..1010.0)))
            .collect()
    };
    let (r, s) = (points(500), points(500));
    let (sample, peak) =
        heap::peak_during(|| GridSample::from_points(&grid, r.iter().copied(), s.iter().copied()));
    assert_eq!(sample.sampled(), [500, 500]);
    let occupied = (0..grid.num_cells())
        .filter(|&ci| sample.total(ci, SetLabel::R) + sample.total(ci, SetLabel::S) > 0)
        .count();
    assert!(occupied > 900, "{occupied} occupied cells");
    assert!(peak < 8_000_000, "from_points allocated {peak} B");
}
