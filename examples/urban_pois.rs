//! Urban analytics scenario: match park-like points of interest against a
//! hydrography network — "which water features lie within ε of a park?" —
//! the kind of cross-dataset proximity question the paper's introduction
//! motivates (urban planning, cartography).
//!
//! Demonstrates:
//! * heavily skewed *real-data-like* inputs (power-law urban clusters vs
//!   river polylines),
//! * carrying non-spatial attributes (names) through the join,
//! * why the adaptive agreement graph helps exactly here: in river-dense
//!   regions it replicates parks, in park-dense regions it replicates water.
//!
//! ```sh
//! cargo run --release --example urban_pois
//! ```

use adaptive_spatial_join::prelude::*;

fn main() -> Result<(), JoinError> {
    let catalog = Catalog::new(60_000);
    // R2 = parks-like clusters, R1 = hydrography-like river network.
    let parks = to_records(&catalog.r2.points(), 24); // 24-byte name payload
    let water = to_records(&catalog.r1.points(), 24);
    println!(
        "parks: {} points, water features: {} points",
        parks.len(),
        water.len()
    );

    let cluster = Cluster::new(ClusterConfig::new(12));
    let eps = 0.31; // ~34 km at these latitudes
    let spec = JoinSpec::new(catalog.r1.bbox, eps);

    let adaptive = adaptive_join(
        &cluster,
        &spec,
        AgreementPolicy::Lpib,
        parks.clone(),
        water.clone(),
    )?;
    let pbsm_r = pbsm_join(
        &cluster,
        &spec,
        ReplicateSide::R,
        parks.clone(),
        water.clone(),
    )?;
    let pbsm_s = pbsm_join(&cluster, &spec, ReplicateSide::S, parks, water)?;

    println!("\npairs within {eps}°: {}", adaptive.result_count);
    println!(
        "(identical across algorithms: {} / {})",
        pbsm_r.result_count, pbsm_s.result_count
    );
    assert_eq!(adaptive.result_count, pbsm_r.result_count);
    assert_eq!(adaptive.result_count, pbsm_s.result_count);

    let [ar, as_] = adaptive.replicated;
    println!("\nadaptive replication per side: {ar} park copies, {as_} water copies");
    println!("  -> the graph of agreements replicated BOTH sides, each where it is cheaper");
    println!(
        "adaptive total {} vs UNI(parks) {} vs UNI(water) {}",
        adaptive.replicated_total(),
        pbsm_r.replicated_total(),
        pbsm_s.replicated_total()
    );
    println!(
        "shuffle remote reads: adaptive {} KiB, UNI(parks) {} KiB, UNI(water) {} KiB",
        adaptive.metrics.shuffle.remote_bytes / 1024,
        pbsm_r.metrics.shuffle.remote_bytes / 1024,
        pbsm_s.metrics.shuffle.remote_bytes / 1024
    );

    // A few sample matches, with their ids (payloads carry the attributes).
    for (rid, sid) in adaptive.pairs.iter().take(5) {
        println!("  park #{rid} is within eps of water feature #{sid}");
    }
    Ok(())
}
