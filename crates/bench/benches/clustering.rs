//! Distance computation and agglomerative clustering scaling.
//!
//! The agglomeration group compares the retained naive quadratic-scan
//! reference against the nn-chain fast path over the *same* shared
//! [`DistanceMatrix`], so the measured gap is purely algorithmic. The
//! naive loop recomputes cluster distances from leaf members every
//! round (O(n³) and beyond), which is why it is only benchmarked at
//! small sizes; the chain runs comfortably at n = 2000.

use cluster::{
    agglomerate_matrix, agglomerate_naive, usage_dist, usage_distance_matrix, DistanceMatrix,
    Linkage,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use usagegraph::{FeaturePath, UsageChange};

fn synthetic_changes(n: usize) -> Vec<UsageChange> {
    let modes = ["AES/ECB", "AES/CBC", "AES/GCM", "DES", "RSA", "Blowfish"];
    (0..n)
        .map(|i| {
            let from = modes[i % modes.len()];
            let to = modes[(i + 1 + i / modes.len()) % modes.len()];
            UsageChange {
                class: "Cipher".to_owned(),
                removed: vec![FeaturePath(vec![
                    "Cipher".into(),
                    "getInstance".into(),
                    format!("arg1:{from}").into(),
                ])],
                added: vec![FeaturePath(vec![
                    "Cipher".into(),
                    "getInstance".into(),
                    format!("arg1:{to}").into(),
                ])],
            }
        })
        .collect()
}

/// A cheap synthetic matrix in generic position, so large-n benches
/// measure agglomeration itself rather than `usage_dist`.
fn synthetic_matrix(n: usize) -> DistanceMatrix {
    DistanceMatrix::from_fn(n, |i, j| {
        let x = ((i * 2654435761) ^ (j * 40503)) % 100_003;
        0.5 + x as f64 / 100_003.0
    })
}

fn bench_usage_dist(c: &mut Criterion) {
    let changes = synthetic_changes(2);
    c.bench_function("distance/usage_dist", |b| {
        b.iter(|| usage_dist(black_box(&changes[0]), black_box(&changes[1])));
    });
}

/// The shared-matrix build: parallel pairwise `usage_dist` with the
/// memoizing label cache.
fn bench_matrix_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_matrix");
    group.sample_size(10);
    for n in [40usize, 160] {
        let changes = synthetic_changes(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &changes, |b, changes| {
            b.iter(|| usage_distance_matrix(black_box(changes)).len());
        });
    }
    group.finish();
}

fn bench_agglomerate(c: &mut Criterion) {
    let mut group = c.benchmark_group("agglomerate");
    group.sample_size(20);
    for n in [10usize, 40, 80, 160] {
        let matrix = synthetic_matrix(n);
        group.bench_with_input(BenchmarkId::new("naive", n), &matrix, |b, m| {
            b.iter(|| {
                agglomerate_naive(m.len(), |i, j| m.get(i, j), Linkage::Complete)
                    .merges
                    .len()
            });
        });
        group.bench_with_input(BenchmarkId::new("nn_chain", n), &matrix, |b, m| {
            b.iter(|| agglomerate_matrix(m, Linkage::Complete).merges.len());
        });
    }
    group.finish();
}

/// The nn-chain at corpus scale — the size the naive loop cannot reach.
fn bench_nn_chain_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_chain_large");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let matrix = synthetic_matrix(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &matrix, |b, m| {
            b.iter(|| agglomerate_matrix(m, Linkage::Complete).merges.len());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_usage_dist,
    bench_matrix_build,
    bench_agglomerate,
    bench_nn_chain_large
);
criterion_main!(benches);
