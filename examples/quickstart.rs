//! Quickstart: run an adaptive-replication ε-distance join and compare its
//! replication/shuffle footprint against PBSM on the same data.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adaptive_spatial_join::prelude::*;

fn main() -> Result<(), JoinError> {
    // Two synthetic point sets with different skew, in the paper's bounding
    // box (continental US).
    let catalog = Catalog::new(50_000);
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    println!("|R| = {}, |S| = {}", r.len(), s.len());

    // A simulated 12-node cluster and a join with ε chosen so that grid
    // cells hold a realistic number of points.
    let cluster = Cluster::new(ClusterConfig::new(12));
    let spec = JoinSpec::new(catalog.s1.bbox, 0.34).counting_only();

    println!(
        "{:<8} {:>12} {:>16} {:>12} {:>10}",
        "algo", "replicated", "shuffle remote", "results", "sim time"
    );
    for (name, out) in [
        (
            "LPiB",
            adaptive_join(&cluster, &spec, AgreementPolicy::Lpib, r.clone(), s.clone())?,
        ),
        (
            "DIFF",
            adaptive_join(&cluster, &spec, AgreementPolicy::Diff, r.clone(), s.clone())?,
        ),
        (
            "UNI(R)",
            pbsm_join(&cluster, &spec, ReplicateSide::R, r.clone(), s.clone())?,
        ),
        (
            "UNI(S)",
            pbsm_join(&cluster, &spec, ReplicateSide::S, r.clone(), s.clone())?,
        ),
    ] {
        println!(
            "{:<8} {:>12} {:>13} KiB {:>12} {:>8.3}s",
            name,
            out.replicated_total(),
            out.metrics.shuffle.remote_bytes / 1024,
            out.result_count,
            out.metrics.simulated_time().as_secs_f64(),
        );
    }
    println!("\nAll four algorithms return identical result sets; adaptive");
    println!("replication just moves (and compares) far fewer copies.");
    Ok(())
}
