//! Objects with extent: join river polylines against park polygons —
//! "which parks lie within ε of a river?" — the paper's §8 future-work
//! direction, on the provided MASJ + reference-point substrate.
//!
//! ```sh
//! cargo run --release --example extent_join
//! ```

use adaptive_spatial_join::data::{random_boxes, random_polylines};
use adaptive_spatial_join::geom::{Rect, Shape};
use adaptive_spatial_join::join::{brute_force_extent_pairs, extent_join, ExtentRecord, JoinSpec};
use adaptive_spatial_join::prelude::*;

fn main() -> Result<(), JoinError> {
    let bbox = Rect::new(0.0, 0.0, 100.0, 60.0);
    let rivers: Vec<ExtentRecord> = random_polylines(bbox, 600, 12, 1)
        .into_iter()
        .enumerate()
        .map(|(i, l)| ExtentRecord::new(i as u64, Shape::Polyline(l)))
        .collect();
    let parks: Vec<ExtentRecord> = random_boxes(bbox, 900, 2.5, 2)
        .into_iter()
        .enumerate()
        .map(|(i, g)| ExtentRecord::new(i as u64, Shape::Polygon(g)))
        .collect();
    println!(
        "{} rivers (polylines) x {} parks (polygons)",
        rivers.len(),
        parks.len()
    );

    let cluster = Cluster::new(ClusterConfig::new(8));
    let eps = 0.8;
    let spec = JoinSpec::new(bbox, eps).with_partitions(32);
    let out = extent_join(&cluster, &spec, rivers.clone(), parks.clone())?;

    println!(
        "\nparks within {eps} of a river: {} pairs",
        out.result_count
    );
    println!(
        "replicated copies: {} river, {} park",
        out.replicated[0], out.replicated[1]
    );
    println!(
        "shuffle: {} KiB total ({} KiB remote), peak partition {} KiB",
        out.metrics.shuffle.total_bytes() / 1024,
        out.metrics.shuffle.remote_bytes / 1024,
        out.metrics.shuffle.peak_partition_bytes() / 1024,
    );
    println!(
        "simulated time: {:.3} s",
        out.metrics.simulated_time().as_secs_f64()
    );

    // Cross-check against the brute-force oracle (small enough here).
    let expected = brute_force_extent_pairs(&rivers, &parks, eps);
    assert_eq!(out.result_count as usize, expected.len());
    println!("verified against the brute-force oracle: OK");
    for (river, park) in out.pairs.iter().take(5) {
        println!("  river #{river} flows within eps of park #{park}");
    }
    Ok(())
}
