//! The shape of the generated inputs on the join's own grid: for each
//! generator kind, at the quick tier and at x1, how many cells of side 2ε
//! (ε = the tier's default) hold points and how full they are. A change to
//! the generators that moves these numbers changes the distribution, not
//! just the sample.
//!
//! ```text
//! cargo test --release -p asj-bench --test distribution -- --ignored --nocapture
//! ```

use asj_bench::ExpConfig;
use asj_data::{Catalog, DatasetSpec, GenKind, PAPER_BBOX};
use std::collections::HashMap;

/// Upper bounds (inclusive) of the per-cell point-count bins.
const BINS: [u64; 8] = [1, 3, 7, 15, 31, 63, 127, 255];

/// One dataset per kind, as the catalog builds them at `base`.
fn datasets(base: usize) -> Vec<DatasetSpec> {
    let c = Catalog::new(base);
    let uniform = DatasetSpec {
        name: "U",
        kind: GenKind::Uniform,
        cardinality: base,
        seed: 505,
        ..c.s1.clone()
    };
    vec![c.s1, c.r1, c.r2, uniform]
}

/// `| tier | kind (name) | points | occupied | max | mean | bins… |`.
fn row(tier: &str, spec: &DatasetSpec, eps: f64) -> String {
    let side = 2.0 * eps;
    let mut cells: HashMap<(i64, i64), u64> = HashMap::new();
    for p in spec.stream() {
        let key = (
            ((p.x - PAPER_BBOX.min_x) / side).floor() as i64,
            ((p.y - PAPER_BBOX.min_y) / side).floor() as i64,
        );
        *cells.entry(key).or_default() += 1;
    }
    let mut bins = [0u64; BINS.len() + 1];
    for &count in cells.values() {
        bins[BINS.iter().position(|&b| count <= b).unwrap_or(BINS.len())] += 1;
    }
    let max = cells.values().copied().max().unwrap_or(0);
    let mean = spec.cardinality as f64 / cells.len().max(1) as f64;
    let bins: Vec<String> = bins.iter().map(u64::to_string).collect();
    format!(
        "| {tier} | {} ({}) | {} | {} | {max} | {mean:.1} | {} |",
        spec.kind.name(),
        spec.name,
        spec.cardinality,
        cells.len(),
        bins.join(" | ")
    )
}

#[test]
#[ignore = "prints a table; run by hand"]
fn cell_occupancy_on_the_two_eps_grid() {
    println!(
        "| tier | kind | points | occupied | max | mean | 1 | 2–3 | 4–7 | 8–15 | 16–31 | 32–63 | \
         64–127 | 128–255 | ≥ 256 |"
    );
    for (tier, cfg) in [("quick", ExpConfig::quick()), ("x1", ExpConfig::full())] {
        for spec in datasets(cfg.base) {
            println!("{}", row(tier, &spec, cfg.default_eps));
        }
    }
}
