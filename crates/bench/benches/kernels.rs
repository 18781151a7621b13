//! Ablation A1: partition-local join kernels — the paper-faithful
//! nested-loop-with-refinement versus the PBSM-style plane sweep and the
//! ε-bucket probe, across cell populations. Benches the columnar view
//! kernels over `PointBatch` lanes, in counting mode (no-op sink) — the code
//! an ε-grid/LPiB run executes.

use asj_geom::Point;
use asj_index::kernels::{bucket_probe_view, nested_loop_view, sweep_view};
use asj_index::PointBatch;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 0.24;

/// `n` uniform points of one `side × side` cell as a single-group batch.
fn cell_batch(n: usize, side: f64, seed: u64) -> PointBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let keyed: Vec<(u64, Point)> = (0..n)
        .map(|_| {
            let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            (0, p)
        })
        .collect();
    PointBatch::from_keyed(&keyed, |p| *p, |_| 0)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_join_kernel");
    // Grid cells of side 2ε (the default experiment scale), then the
    // `join_dense` shape: a 4ε cell crowded enough that every sweep window
    // spans many filter chunks.
    for (n, side) in [
        (64usize, 2.0 * EPS),
        (256, 2.0 * EPS),
        (1024, 2.0 * EPS),
        (4096, 4.0 * EPS),
    ] {
        let (a, b) = (cell_batch(n, side, 1), cell_batch(n, side, 2));
        let (va, vb) = (a.group(0), b.group(0));
        group.bench_with_input(BenchmarkId::new("nested_loop", n), &n, |bch, _| {
            bch.iter(|| black_box(nested_loop_view(va, vb, EPS, |_, _| {})))
        });
        group.bench_with_input(BenchmarkId::new("plane_sweep", n), &n, |bch, _| {
            bch.iter(|| black_box(sweep_view(va, vb, EPS, |_, _| {})))
        });
        group.bench_with_input(BenchmarkId::new("grid_bucket", n), &n, |bch, _| {
            bch.iter(|| black_box(bucket_probe_view(va, vb, EPS, |_, _| {})))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
