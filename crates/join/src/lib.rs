//! End-to-end parallel ε-distance spatial joins on the [`asj_engine`]
//! substrate — the distributed layer of the paper (§6) plus every baseline
//! of its evaluation (§7):
//!
//! | Algorithm | Entry point | Paper name |
//! |---|---|---|
//! | Adaptive replication, LPiB or DIFF instantiation | [`adaptive_join`] | LPiB / DIFF |
//! | PBSM with universal replication of one input | [`pbsm_join`] | UNI(R) / UNI(S) |
//! | ε×ε grid replicating the smaller input | [`eps_grid_join`] | ε-grid |
//! | QuadTree-leaf partitions, smaller input replicated, joined by the shared kernels | [`sedona_like_join`] | Sedona |
//!
//! Every algorithm is a *plan* — two assigners, a cell partitioner, an
//! optional pair filter — run by the same Algorithm-5 pipeline: (optional)
//! sampling and construction on the driver, broadcast, spatial mapping of
//! each record to one or more cell keys (`flatMapToPair`), a metered keyed
//! shuffle, and a partition-local join with immediate distance refinement. They return a
//! [`JoinOutput`] carrying the paper's three metrics — replicated objects,
//! shuffle remote reads and (simulated + wall) execution time — plus result
//! counts, so the benchmark harness can regenerate each figure.
//!
//! Supporting variants used by individual experiments:
//!
//! * [`adaptive_join_dedup`] — the non-duplicate-free assignment with an
//!   explicit distributed `distinct` operator (Table 6),
//! * [`adaptive_join_post_fetch`] — attributes fetched by id-joins after the
//!   spatial join instead of travelling with the tuples (Table 5); the
//!   id-joins run the pipeline's shuffle and co-group stages,
//! * [`pbsm_refpoint_join`] — the classic MASJ alternative: both inputs
//!   replicated, duplicates avoided with the reference-point technique of
//!   Dittrich & Seeger (related-work baseline / ablation),
//! * [`self_join`] — the ε-distance self-join (MR-DSJ setting), one input
//!   shuffled once with reference-point duplicate avoidance,
//! * [`extent_join`] — ε-distance join over polylines/polygons (the paper's
//!   §8 future-work direction), MASJ with envelope-based assignment and
//!   reference-point deduplication — a plan whose records are shapes,
//! * [`knn_join`] — expanding-ring k-nearest-neighbor join on the same grid
//!   substrate (the companion operation of Simba/LocationSpark/\[9\]),
//! * [`PartitionedPoints`] — a grid-partitioned table serving distributed
//!   rectangle and circle range queries with cell pruning,
//! * [`oracle`] — brute-force and R-tree reference implementations used by
//!   the correctness tests.

mod adaptive;
mod dedup;
mod extent;
mod knn;
pub mod oracle;
mod pairs;
mod pbsm;
mod pipeline;
mod post_fetch;
mod range;
mod record;
mod refpoint;
mod sedona;
mod selfjoin;
mod sink;
mod spec;

pub use adaptive::adaptive_join;
pub use dedup::adaptive_join_dedup;
pub use extent::{brute_force_extent_pairs, extent_join, ExtentRecord};
pub use knn::{brute_force_knn, knn_join, KnnOutput};
pub use pairs::Pairs;
pub use pbsm::{eps_grid_join, pbsm_join, ReplicateSide};
pub use pipeline::Algorithm;
pub use post_fetch::adaptive_join_post_fetch;
pub use range::PartitionedPoints;
pub use record::{
    to_record_partitions, to_records, NoPayload, Payload, Record, RecordPayload, MAX_PAYLOAD_BYTES,
};
pub use refpoint::pbsm_refpoint_join;
pub use sedona::sedona_like_join;
pub use selfjoin::{brute_force_self_pairs, self_join};
pub use sink::{PairFile, PairSink};
pub use spec::{JoinError, JoinInput, JoinOutput, JoinSpec, LocalKernel};

#[cfg(test)]
mod empty_input_tests {
    use crate::{to_records, Algorithm, JoinSpec};
    use asj_engine::{Cluster, ClusterConfig};
    use asj_geom::{Point, Rect};

    /// Empty inputs on either side must yield empty results for every
    /// algorithm, without panicking anywhere in the pipeline.
    #[test]
    fn empty_inputs_produce_empty_results() {
        let c = Cluster::new(ClusterConfig::with_threads(2, 2));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0).with_partitions(4);
        let some = to_records(&[Point::new(1.0, 1.0), Point::new(5.0, 5.0)], 0);
        for algo in Algorithm::ALL {
            for (r, s) in [
                (Vec::new(), some.clone()),
                (some.clone(), Vec::new()),
                (Vec::new(), Vec::new()),
            ] {
                let out = algo.try_run(&c, &spec, r, s).expect("join runs");
                assert_eq!(out.result_count, 0, "{}", algo.name());
                assert!(out.pairs.is_empty());
            }
        }
    }
}
