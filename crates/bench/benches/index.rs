//! Step-2/6 benchmarks: the two Hamming radius-query engines.
//!
//! This is the reproduction's counterpart of §7's performance
//! discussion (73 images/sec on two Titan Xp GPUs against 12K medoids):
//! radius-8 queries of a stream of hashes against a medoid set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use meme_index::{BruteForceIndex, HammingIndex, MihIndex};
use meme_phash::PHash;
use meme_stats::seeded_rng;
use rand::RngExt;
use std::hint::black_box;

fn clustered_hashes(n: usize, seed: u64) -> Vec<PHash> {
    // Realistic workload: clusters of near-duplicates + random mass.
    let mut rng = seeded_rng(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let center = PHash(rng.random());
        let family = rng.random_range(1..12usize).min(n - out.len());
        for _ in 0..family {
            let flips: Vec<u8> = (0..rng.random_range(0..5u8))
                .map(|_| rng.random_range(0..64u8))
                .collect();
            out.push(center.with_flipped_bits(&flips));
        }
    }
    out
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("radius_query_r8");
    for &n in &[1_000usize, 10_000, 50_000] {
        let hashes = clustered_hashes(n, 42);
        let queries = clustered_hashes(256, 43);
        group.throughput(Throughput::Elements(queries.len() as u64));

        let brute = BruteForceIndex::new(hashes.clone());
        group.bench_with_input(BenchmarkId::new("brute", n), &n, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    total += brute.radius_query(q, 8).len();
                }
                black_box(total)
            })
        });

        let mih = MihIndex::new(hashes.clone(), 8);
        group.bench_with_input(BenchmarkId::new("mih", n), &n, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    total += mih.radius_query(q, 8).len();
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let hashes = clustered_hashes(20_000, 44);
    let mut group = c.benchmark_group("index_build_20k");
    group.bench_function("mih", |b| {
        b.iter(|| black_box(MihIndex::new(hashes.clone(), 8)))
    });
    group.finish();
}

criterion_group!(benches, bench_engines, bench_build);
criterion_main!(benches);
