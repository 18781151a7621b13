//! The paper's core contribution: **agreement-based adaptive replication**
//! for parallel ε-distance spatial joins.
//!
//! PBSM-style algorithms pick *one* of the two datasets globally and
//! replicate its points into every cell within distance ε. On skewed data
//! this is wasteful: near a border where R is dense and S is sparse it would
//! be far cheaper to replicate S, and vice versa a few cells away. The paper
//! therefore lets every pair of adjacent cells strike a local *agreement*
//! (§4.2) about which dataset crosses their border, modelled as a directed,
//! weighted multigraph — the [`AgreementGraph`].
//!
//! Mixing agreement types re-introduces two hazards that PBSM never faces:
//!
//! * **duplicates** — a result pair can materialize in two cells when a cell
//!   replicates the same point to two neighbors of a *triad* with both
//!   agreement types (Lemma 4.8). The fix is *edge marking* (§4.5.1): points
//!   in the *duplicate-prone area* of the marked edge's tail are excluded
//!   from that replication.
//! * **lost results** — marking can orphan pairs whose partner sits in a
//!   *supplementary area* (Definition 4.10); those points are re-routed to
//!   the cell where both sides of the pair still meet, and *edge locking*
//!   (§4.5.3) keeps later markings from severing that meeting cell.
//!
//! [`build_duplicate_free`] is the paper's Algorithm 1; [`AgreementGraph::assign`]
//! implements Algorithms 2 (point replication), 3 (`MeDuPAr`) and 4 (`SupAr`),
//! reading what the latter two would look up edge by edge from a plan the
//! graph precompiles per quartet corner.
//! The property-test suite in this crate checks, against a brute-force
//! oracle, that the resulting assignment is *correct* (Definition 3.2) and
//! *duplicate-free* (Definition 3.3) for randomized grids, policies and point
//! sets.

mod assign;
mod cost;
mod graph;
mod label;
mod markings;
mod policy;
mod stats;

pub use assign::AssignStats;
pub use cost::{
    cell_costs, estimate_candidates, CellCost, KernelCostModel, KernelKind, LocalKernel,
};
pub use graph::{AgreementGraph, EdgeState, GraphValidation};
pub use label::SetLabel;
pub use markings::{build_duplicate_free, build_duplicate_free_with_order, EdgeOrder};
pub use policy::AgreementPolicy;
pub use stats::{Dir8, GridSample};

#[cfg(test)]
mod oracle_tests;
