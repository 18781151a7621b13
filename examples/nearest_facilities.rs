//! k-nearest-neighbor join: for every dwelling, the 3 nearest facilities —
//! the companion query of the distance join in the engines the paper
//! compares against (Simba, LocationSpark).
//!
//! ```sh
//! cargo run --release --example nearest_facilities
//! ```

use adaptive_spatial_join::data::{Catalog, DatasetSpec, GenKind, PAPER_BBOX};
use adaptive_spatial_join::join::{knn_join, to_records, JoinSpec};
use adaptive_spatial_join::prelude::*;

fn main() -> Result<(), JoinError> {
    // Dwellings follow population clusters; facilities are sparser and
    // follow a different layout.
    let catalog = Catalog::new(30_000);
    let dwellings = to_records(&catalog.s1.points(), 0);
    let facilities_spec = DatasetSpec {
        name: "facilities",
        kind: GenKind::Parks,
        cardinality: 3_000,
        seed: 777,
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    };
    let facilities = to_records(&facilities_spec.points(), 0);
    println!(
        "{} dwellings, {} facilities",
        dwellings.len(),
        facilities.len()
    );

    let cluster = Cluster::new(ClusterConfig::new(8));
    let spec = JoinSpec::new(PAPER_BBOX, 0.4).with_partitions(48);
    let k = 3;
    let out = knn_join(&cluster, &spec, k, dwellings, facilities)?;

    println!(
        "kNN join finished in {} expanding-ring rounds, {} KiB shuffled",
        out.rounds,
        out.shuffle.total_bytes() / 1024
    );
    let mut hist = [0usize; 4];
    let mut far = (0u64, 0.0f64);
    for (q, ns) in &out.neighbors {
        hist[ns.len().min(3)] += 1;
        if let Some(&(_, d)) = ns.first() {
            if d > far.1 {
                far = (*q, d);
            }
        }
    }
    println!("queries with full k answers: {}", hist[3]);
    println!(
        "most isolated dwelling: #{} — nearest facility {:.3} degrees away",
        far.0, far.1
    );
    for (q, ns) in out.neighbors.iter().take(3) {
        let pretty: Vec<String> = ns.iter().map(|(id, d)| format!("#{id} ({d:.3})")).collect();
        println!("  dwelling #{q} -> {}", pretty.join(", "));
    }
    Ok(())
}
