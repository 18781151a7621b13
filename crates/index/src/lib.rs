//! Spatial-index substrates used by the join baselines.
//!
//! The paper's evaluation compares against Apache Sedona, whose distance join
//! runs in three phases: **quadtree space partitioning** (built from a sample
//! of the replicated side), **per-partition R-tree indexing** of the larger
//! side, and index-probed join computation. This crate provides those two
//! structures plus the partition-local join kernels shared by all algorithms
//! (the Sedona-like baseline included: it partitions by quadtree leaf and
//! joins each leaf with these kernels, not with an R-tree probe):
//!
//! * [`RTree`] — STR (sort-tile-recursive) bulk-loaded R-tree with
//!   rectangle and ε-disk queries (the independent oracle of the join
//!   correctness tests).
//! * [`QuadTreePartitioner`] — sample-driven recursive space partitioner
//!   with point→leaf and ε-disk→leaves lookups.
//! * [`batch`] — [`PointBatch`]: a shuffled partition as flat, cell-grouped,
//!   x-ascending coordinate lanes, the layout the kernels stream.
//! * [`kernels`] — the shared partition-local join layer every distributed
//!   algorithm routes through ([`kernels::local_join_view`] and
//!   [`kernels::local_self_join`] over lanes, [`kernels::local_join_rects`]
//!   over envelopes): the paper's nested-loop semantics (§6.1), a
//!   plane-sweep kernel and an ε-bucket grid kernel — all three one
//!   branch-free chunked ε-filter behind different window finders — plus
//!   `Auto` resolution, a per-cell-group pick driven by the committed
//!   constants of [`asj_core::KernelCostModel`].

pub mod batch;
pub mod kernels;
mod quadtree;
mod rtree;

pub use batch::{PointBatch, PointsView};
pub use quadtree::QuadTreePartitioner;
pub use rtree::RTree;
