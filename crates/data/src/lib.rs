//! Workload generators and the dataset catalog for the evaluation.
//!
//! The paper evaluates on two real datasets obtained from the SpatialHadoop
//! repository — TIGER/Area Hydrography (94.1 M points, `R1`) and OSM/Parks
//! (42.7 M points, `R2`) — plus synthetic Gaussian datasets (`S1`, `S2`,
//! 100 M points each: 30 clustered areas with per-cluster standard deviation
//! drawn from [0.1, 0.8], generated inside the same minimum bounding
//! rectangle as the real data).
//!
//! The real files are not redistributable here, so this crate generates
//! *skew-equivalent* substitutes in the same bounding box (see DESIGN.md):
//!
//! * [`GenKind::GaussianClusters`] — the paper's synthetic generator,
//!   parameterized exactly as described.
//! * [`GenKind::Hydrography`] — river-polyline random walks plus lake blobs,
//!   mimicking the linear, strongly clustered skew of TIGER hydrography.
//! * [`GenKind::Parks`] — power-law-sized urban clusters over a sparse
//!   background, mimicking OSM parks.
//! * [`GenKind::Uniform`] — uniform background, used by tests and ablations.
//!
//! Generation is deterministic in the seed and made of **blocks**: point
//! `i` is drawn from the RNG of block `⌊i / 1024⌋`, seeded by the dataset
//! seed and the block, so [`DatasetSpec::block_stream`] makes any range of
//! points on any thread, as a stream a caller can lay out where the points
//! end up, and the points do not depend on the thread or the range.

mod catalog;
mod generators;
mod io;
mod payload;
mod shapes;

pub use catalog::{Catalog, DatasetSpec, GenKind, PointStream, PAPER_BBOX};
pub use io::{read_points_csv, read_points_csv_partitions, write_points_csv};
pub use payload::TupleSizeFactor;
pub use shapes::{random_boxes, random_polylines};
