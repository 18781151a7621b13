//! # adaptive-spatial-join
//!
//! A parallel ε-distance spatial-join library with **adaptive replication**,
//! reproducing the EDBT 2025 paper *"Parallel Spatial Join Processing with
//! Adaptive Replication"* (Koutroumanis, Doulkeridis, Vlachou).
//!
//! Instead of universally replicating one of the two datasets across grid-cell
//! borders (as PBSM and its descendants do), neighboring cells form local
//! *agreements* about which dataset to replicate, minimizing replication on
//! skewed data while a marking/locking discipline on the *graph of agreements*
//! keeps the join correct and duplicate-free.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`geom`] — points, rectangles, MINDIST.
//! * [`grid`] — the regular grid, quartets and replication-area classification.
//! * [`core`] — the graph of agreements, LPiB/DIFF instantiation,
//!   Algorithm 1 (marking + locking) and Algorithms 2–4 (point assignment).
//! * [`engine`] — the data-parallel substrate (datasets, shuffle with byte
//!   metering, LPT/hash scheduling, metrics) standing in for Apache Spark.
//! * [`index`] — R-tree, quadtree partitioner and local join kernels.
//! * [`data`] — synthetic workload generators matching the paper's datasets.
//! * [`join`] — end-to-end distributed join algorithms: adaptive (LPiB/DIFF),
//!   PBSM UNI(R)/UNI(S), ε-grid, and a Sedona-like baseline.
//! * [`serve`] — the multi-tenant job-server front end: tenant queue files,
//!   working-set admission estimates, fair-share runs and isolation oracles.
//!
//! ## Quick start
//!
//! ```
//! use adaptive_spatial_join::prelude::*;
//!
//! // Two tiny point sets in a shared bounding box.
//! let bbox = Rect::new(0.0, 0.0, 10.0, 10.0);
//! let r: Vec<Point> = vec![Point::new(1.0, 1.0), Point::new(5.0, 5.0)];
//! let s: Vec<Point> = vec![Point::new(1.2, 1.1), Point::new(9.0, 9.0)];
//!
//! let cluster = Cluster::new(ClusterConfig::new(4));
//! let spec = JoinSpec::new(bbox, 0.5);
//! let out = adaptive_join(&cluster, &spec, AgreementPolicy::Lpib,
//!                         to_records(&r, 0), to_records(&s, 0))?;
//! assert_eq!(out.pairs.len(), 1); // only (1,1)-(1.2,1.1) is within ε=0.5
//! # Ok::<(), JoinError>(())
//! ```
//!
//! Every join entry point returns `Result<_, JoinError>`: a spec no join can
//! run, a grid too fine for agreements, or a stage whose task ran out of
//! attempts comes back as a value; the driver never unwinds.

pub use asj_core as core;
pub use asj_data as data;
pub use asj_engine as engine;
pub use asj_engine::obs;
pub use asj_geom as geom;
pub use asj_grid as grid;
pub use asj_index as index;
pub use asj_join as join;
pub use asj_serve as serve;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use asj_core::{AgreementGraph, AgreementPolicy, GridSample};
    pub use asj_data::{Catalog, DatasetSpec, TupleSizeFactor};
    pub use asj_engine::{
        Cluster, ClusterConfig, ExecStats, FaultPlan, JobError, JobMetrics, Placement, Recorder,
        RetryPolicy, Trace, TraceFormat,
    };
    pub use asj_geom::{Point, Rect};
    pub use asj_grid::{Grid, GridSpec};
    pub use asj_join::{
        adaptive_join, eps_grid_join, extent_join, knn_join, pbsm_join, pbsm_refpoint_join,
        sedona_like_join, self_join, to_records, Algorithm, ExtentRecord, JoinError, JoinOutput,
        JoinSpec, LocalKernel, PairFile, PairSink, PartitionedPoints, ReplicateSide,
    };
}
