//! Criterion bench for E4–E6: the Figure 6 granularity sweep and the
//! schedule simulation behind Proposition 1 / Theorem 1.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_core::dnc;
use sdp_systolic::scheduler::TreeScheduler;
use sdp_trace::NullSink;

fn bench_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("dnc_granularity");
    group.sample_size(20);
    group.bench_function("fig6_sweep_n4096_k1024", |b| {
        b.iter(|| black_box(dnc::try_granularity_sweep(4096, 1024).unwrap().len()));
    });
    group.bench_function("optimal_granularity_n4096", |b| {
        b.iter(|| black_box(dnc::optimal_granularity(4096, 1024)));
    });
    for &k in &[64u64, 399, 4096] {
        group.bench_with_input(BenchmarkId::new("tree_schedule_n65536", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    TreeScheduler
                        .try_simulate(65536, k, &mut NullSink)
                        .unwrap()
                        .rounds,
                )
            });
        });
    }
    group.bench_function("pu_asymptotic_n2e20_c1", |b| {
        b.iter(|| black_box(dnc::try_pu_asymptotic(1 << 20, 1.0).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_granularity);
criterion_main!(benches);
