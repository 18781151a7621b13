//! Micro-benchmarks of the engine substrate: shuffle throughput with and
//! without payloads, and the co-grouped join's grouping overhead.

use asj_engine::{Cluster, ClusterConfig, HashPartitioner, KeyedDataset};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn keyed(n: usize, payload: usize, parts: usize) -> KeyedDataset<u64, Vec<u8>> {
    let per = n / parts;
    KeyedDataset::from_partitions(
        (0..parts)
            .map(|p| {
                (0..per)
                    .map(|i| (((p * per + i) % 977) as u64, vec![0u8; payload]))
                    .collect()
            })
            .collect(),
    )
}

fn bench_engine(c: &mut Criterion) {
    let cluster = Cluster::new(ClusterConfig::new(12));
    let partitioner = HashPartitioner::new(96);

    let mut group = c.benchmark_group("shuffle_200k_records");
    for payload in [0usize, 64, 256] {
        group.bench_with_input(
            BenchmarkId::new("payload", payload),
            &payload,
            |b, &payload| {
                b.iter_batched(
                    || keyed(200_000, payload, 16),
                    |kd| black_box(kd.shuffle_stage(&cluster, &partitioner, "shuffle")),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("cogroup_join_100k");
    group.bench_function("group_and_count", |b| {
        b.iter_batched(
            || {
                let a = keyed(100_000, 0, 8);
                let b = keyed(100_000, 0, 8);
                let shuffled = |kd: KeyedDataset<u64, Vec<u8>>| {
                    kd.shuffle_stage(&cluster, &partitioner, "shuffle")
                        .expect("shuffle runs")
                        .0
                };
                (shuffled(a), shuffled(b))
            },
            |(a, b)| {
                let (out, _, _) = a
                    .cogroup_join_fold(&cluster, b, |_, va, vb, out, _: &mut ()| {
                        out.push(va.len() as u64 * vb.len() as u64);
                    })
                    .expect("join runs");
                black_box(out.collect().iter().sum::<u64>())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine
}
criterion_main!(benches);
