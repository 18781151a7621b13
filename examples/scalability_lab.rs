//! Scalability lab: sweep data sizes and cluster widths in one sitting and
//! watch how adaptive replication's advantage grows with scale (the Fig. 13
//! and Fig. 14 behaviours, as a library-API walkthrough).
//!
//! ```sh
//! cargo run --release --example scalability_lab
//! ```

use adaptive_spatial_join::prelude::*;

fn run(
    cluster: &Cluster,
    spec: &JoinSpec,
    policy: AgreementPolicy,
    base: usize,
) -> Result<JoinOutput, JoinError> {
    let catalog = Catalog::new(base);
    let r = to_records(&catalog.s1.points(), 0);
    let s = to_records(&catalog.s2.points(), 0);
    adaptive_join(cluster, spec, policy, r, s)
}

fn main() -> Result<(), JoinError> {
    let catalog = Catalog::new(1);
    let eps = 0.38;
    let spec = JoinSpec::new(catalog.s1.bbox, eps).counting_only();

    println!("--- data-size sweep (12 simulated nodes) ---");
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>12}",
        "points", "replicated", "shuffle (KiB)", "results", "join (s)"
    );
    let cluster = Cluster::new(ClusterConfig::new(12));
    for base in [20_000usize, 40_000, 80_000] {
        let out = run(&cluster, &spec, AgreementPolicy::Lpib, base)?;
        println!(
            "{:>8} {:>12} {:>14} {:>12} {:>12.3}",
            base * 2,
            out.replicated_total(),
            out.metrics.shuffle.remote_bytes / 1024,
            out.result_count,
            out.metrics.join.makespan().as_secs_f64()
        );
    }

    println!("\n--- node sweep (80k x 80k points) ---");
    println!(
        "{:>6} {:>14} {:>14} {:>12}",
        "nodes", "shuffle (KiB)", "sim time (s)", "imbalance"
    );
    for nodes in [2usize, 4, 8, 12] {
        let cluster = Cluster::new(ClusterConfig::new(nodes));
        let out = run(&cluster, &spec, AgreementPolicy::Lpib, 40_000)?;
        println!(
            "{:>6} {:>14} {:>14.3} {:>12.2}",
            nodes,
            out.metrics.shuffle.remote_bytes / 1024,
            out.metrics.simulated_time().as_secs_f64(),
            out.metrics.join.imbalance()
        );
    }
    println!("\nMore nodes: lower makespan, slightly more remote shuffle —");
    println!("the same trade Fig. 14 of the paper shows.");
    Ok(())
}
