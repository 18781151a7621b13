//! `cargo bench --bench figures` — regenerates every table and figure of the
//! paper at reduced (`quick`) scale, printing the same rows/series the paper
//! reports. The `repro` binary runs the identical suite at full scale.

use asj_bench::{experiments, ExpConfig};

fn main() {
    // Criterion-style --bench flag may be passed by cargo; ignore all args.
    let cfg = ExpConfig::quick();
    let start = std::time::Instant::now();
    experiments::run_all(&cfg).expect("every figure's joins run");
    println!(
        "\nAll tables and figures regenerated (quick scale, base={} points) in {:.1}s.",
        cfg.base,
        start.elapsed().as_secs_f64()
    );
    println!("Run `cargo run --release -p asj-bench --bin repro` for the full-scale suite.");
}
