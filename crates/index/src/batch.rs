//! Columnar (SoA) record batches for the local-join kernels.
//!
//! The shuffle delivers partitions as `(cell_id, record)` tuples. The
//! kernels, however, only ever touch three fields — `x`, `y` and the record
//! id — so walking the tuple array makes every comparison a pointer chase
//! through a 40-plus-byte stride. A [`PointBatch`] is built **once per
//! partition at shuffle-receive time**: records are permuted into
//! `(cell, x)` order and their coordinates gathered into flat `xs`/`ys`/
//! `ids` arrays, with one `(key, range)` entry per cell group. The
//! plane-sweep and ε-bucket kernels then stream contiguous `f64` lanes
//! ([`PointsView`]) instead of re-extracting positions per group.
//!
//! Group views come out **sorted by `x`**, which is exactly the
//! precondition the sweep kernel needs — the per-cell sort the kernels
//! would otherwise pay is folded into the single batch build.

use asj_geom::Point;

/// A borrowed SoA slice of points: parallel `x` and `y` lanes.
///
/// Views produced by [`PointBatch::group`] are in ascending-`x` order.
#[derive(Debug, Clone, Copy)]
pub struct PointsView<'a> {
    pub xs: &'a [f64],
    pub ys: &'a [f64],
}

impl<'a> PointsView<'a> {
    pub fn new(xs: &'a [f64], ys: &'a [f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "SoA lanes must be parallel");
        PointsView { xs, ys }
    }

    pub fn empty() -> PointsView<'static> {
        PointsView { xs: &[], ys: &[] }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// A partition's records in columnar form, grouped by cell key.
///
/// Invariants: `keys` is strictly ascending; group `g` occupies
/// `starts[g]..starts[g + 1]` of the `xs`/`ys`/`ids` lanes; within a group
/// the lanes are sorted by `x`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointBatch {
    keys: Vec<u64>,
    starts: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u64>,
}

impl PointBatch {
    /// Builds a batch from one shuffled partition. `pos`/`id` extract the
    /// coordinate and identity of a record; the records themselves are not
    /// kept. The sort runs over a light 24-byte permutation entry rather
    /// than the full records, then gathers each lane once.
    pub fn from_keyed<T>(
        part: &[(u64, T)],
        pos: impl Fn(&T) -> Point,
        id: impl Fn(&T) -> u64,
    ) -> PointBatch {
        PointBatch::from_blocks(&[part], pos, id)
    }

    /// [`PointBatch::from_keyed`] over a partition held as several blocks —
    /// e.g. a shuffled partition read in place, block by block. The rows of
    /// the blocks in order build the same batch as one slice of them would.
    pub fn from_blocks<T>(
        blocks: &[impl AsRef<[(u64, T)]>],
        pos: impl Fn(&T) -> Point,
        id: impl Fn(&T) -> u64,
    ) -> PointBatch {
        let n = blocks.iter().map(|block| block.as_ref().len()).sum();
        // Each permutation entry points at its record: 24 bytes, like a
        // (key, x, index) triple, with no index to resolve across blocks.
        let mut order: Vec<(u64, f64, &T)> = Vec::with_capacity(n);
        let rows = blocks.iter().flat_map(|block| block.as_ref());
        order.extend(rows.map(|(k, v)| (*k, pos(v).x, v)));
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));

        let mut batch = PointBatch {
            keys: Vec::new(),
            starts: vec![0],
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
        };
        for &(k, x, rec) in &order {
            if batch.keys.last() != Some(&k) {
                if !batch.keys.is_empty() {
                    batch.starts.push(batch.xs.len() as u32);
                }
                batch.keys.push(k);
            }
            batch.xs.push(x);
            batch.ys.push(pos(rec).y);
            batch.ids.push(id(rec));
        }
        batch.starts.push(batch.xs.len() as u32);
        batch
    }

    /// Distinct cell keys, ascending.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Number of cell groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Total points across groups.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.xs.len()
    }

    #[inline]
    fn range(&self, g: usize) -> std::ops::Range<usize> {
        self.starts[g] as usize..self.starts[g + 1] as usize
    }

    /// The SoA view of group `g`, sorted by `x`.
    #[inline]
    pub fn group(&self, g: usize) -> PointsView<'_> {
        let r = self.range(g);
        PointsView {
            xs: &self.xs[r.clone()],
            ys: &self.ys[r],
        }
    }

    /// The record ids of group `g`, parallel to [`PointBatch::group`].
    #[inline]
    pub fn group_ids(&self, g: usize) -> &[u64] {
        &self.ids[self.range(g)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(rows: &[(u64, f64, f64, u64)]) -> Vec<(u64, (Point, u64))> {
        rows.iter()
            .map(|&(k, x, y, id)| (k, (Point::new(x, y), id)))
            .collect()
    }

    fn build(part: &[(u64, (Point, u64))]) -> PointBatch {
        PointBatch::from_keyed(part, |v| v.0, |v| v.1)
    }

    #[test]
    fn groups_by_key_and_sorts_by_x() {
        let part = keyed(&[
            (2, 5.0, 1.0, 100),
            (1, 9.0, 2.0, 101),
            (2, 3.0, 4.0, 102),
            (1, 0.5, 8.0, 103),
            (2, 4.0, 0.0, 104),
        ]);
        let b = build(&part);
        assert_eq!(b.keys(), &[1, 2]);
        assert_eq!(b.num_groups(), 2);
        assert_eq!(b.num_points(), 5);
        let g1 = b.group(0);
        assert_eq!(g1.xs, &[0.5, 9.0]);
        assert_eq!(g1.ys, &[8.0, 2.0]);
        assert_eq!(b.group_ids(0), &[103, 101]);
        let g2 = b.group(1);
        assert_eq!(g2.xs, &[3.0, 4.0, 5.0]);
        assert_eq!(g2.ys, &[4.0, 0.0, 1.0]);
        assert_eq!(b.group_ids(1), &[102, 104, 100]);
    }

    #[test]
    fn rows_split_across_blocks_build_the_same_batch() {
        let part = keyed(&[
            (2, 5.0, 1.0, 100),
            (1, 9.0, 2.0, 101),
            (2, 5.0, 4.0, 102),
            (1, 0.5, 8.0, 103),
            (2, 4.0, 0.0, 104),
        ]);
        let (head, tail) = part.split_at(2);
        assert_eq!(
            PointBatch::from_blocks(&[head, tail], |v| v.0, |v| v.1),
            build(&part)
        );
    }

    #[test]
    fn empty_partition_yields_empty_batch() {
        let b = build(&[]);
        assert_eq!(b.num_groups(), 0);
        assert_eq!(b.num_points(), 0);
        assert!(b.keys().is_empty());
    }

    #[test]
    fn single_group_spans_everything() {
        let part = keyed(&[(7, 2.0, 0.0, 1), (7, 1.0, 0.0, 2)]);
        let b = build(&part);
        assert_eq!(b.keys(), &[7]);
        assert_eq!(b.group(0).len(), 2);
        assert_eq!(b.group_ids(0), &[2, 1]);
    }

    #[test]
    fn view_lanes_stay_parallel() {
        let part = keyed(&[(1, 1.0, 10.0, 5), (1, 2.0, 20.0, 6), (2, 3.0, 30.0, 7)]);
        let b = build(&part);
        for g in 0..b.num_groups() {
            let v = b.group(g);
            assert_eq!(v.xs.len(), v.ys.len());
            assert_eq!(v.len(), b.group_ids(g).len());
            assert!(v.xs.windows(2).all(|w| w[0] <= w[1]), "group {g} unsorted");
        }
    }

    #[test]
    #[should_panic(expected = "SoA lanes must be parallel")]
    fn mismatched_lanes_rejected() {
        let _ = PointsView::new(&[1.0, 2.0], &[1.0]);
    }
}
