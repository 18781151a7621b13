//! Load-balancing demo (§6.2 / Table 7): on skewed data, Spark's default
//! hash placement can leave one worker with most of the join work. The LPT
//! greedy uses the sampled per-cell cost estimates to even the load.
//!
//! Prints an ASCII per-node busy-time chart for both placements.
//!
//! ```sh
//! cargo run --release --example load_balancing
//! ```

use adaptive_spatial_join::data::{DatasetSpec, GenKind, PAPER_BBOX};
use adaptive_spatial_join::prelude::*;

fn busy_chart(label: &str, out: &JoinOutput) {
    println!(
        "\n{label}: simulated join makespan {:.3}s",
        out.metrics.join.makespan().as_secs_f64()
    );
    let max = out
        .metrics
        .join
        .per_node_busy
        .iter()
        .map(|d| d.as_secs_f64())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for (node, busy) in out.metrics.join.per_node_busy.iter().enumerate() {
        let secs = busy.as_secs_f64();
        let bar = "#".repeat((secs / max * 50.0).round() as usize);
        println!("  node {node:>2} {secs:>8.4}s {bar}");
    }
    println!("  imbalance (max/avg): {:.2}", out.metrics.join.imbalance());
}

fn main() -> Result<(), JoinError> {
    // Strongly clustered synthetic data (tight clusters, sigma_scale < 1):
    // a handful of grid cells carry most of the candidate pairs, which is
    // exactly when hash placement leaves some workers idle.
    let tight = |name: &'static str, seed: u64| DatasetSpec {
        name,
        kind: GenKind::GaussianClusters,
        cardinality: 250_000,
        seed,
        bbox: PAPER_BBOX,
        sigma_scale: 0.6,
    };
    let r = to_records(&tight("R", 303).points(), 0);
    let s = to_records(&tight("S", 404).points(), 0);

    let cluster = Cluster::new(ClusterConfig::new(8));
    let eps = 0.5;
    let base = JoinSpec::new(PAPER_BBOX, eps)
        .with_sample_fraction(0.2)
        .counting_only();

    let hash = adaptive_join(
        &cluster,
        &base.clone().with_placement(Placement::Hash),
        AgreementPolicy::Lpib,
        r.clone(),
        s.clone(),
    )?;
    let lpt = adaptive_join(
        &cluster,
        &base.with_placement(Placement::Lpt),
        AgreementPolicy::Lpib,
        r,
        s,
    )?;
    assert_eq!(hash.result_count, lpt.result_count);

    busy_chart("hash placement", &hash);
    busy_chart("LPT placement", &lpt);

    let h = hash.metrics.join.makespan().as_secs_f64();
    let l = lpt.metrics.join.makespan().as_secs_f64();
    if l <= h {
        println!(
            "\nLPT lowers the join makespan by {:.1}% on this workload.",
            (h - l) / h * 100.0
        );
    } else {
        println!(
            "\nLPT raises the join makespan by {:.1}% on this workload \
                  (estimates too noisy at this scale).",
            (l - h) / h * 100.0
        );
    }
    Ok(())
}
