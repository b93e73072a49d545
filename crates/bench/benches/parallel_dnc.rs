//! Criterion bench for E12: the real-thread divide-and-conquer executor
//! versus the single-thread tree reduction (speedup vs K).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_core::dnc::ParallelExecutor;
use sdp_multistage::generate;

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_dnc");
    group.sample_size(10);
    let g = generate::random_uniform(17, 129, 64, 0, 1000);
    let mats = g.matrix_string().to_vec();
    for &k in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("tree_reduce", k), &k, |b, &k| {
            let ex = ParallelExecutor::new(k);
            b.iter(|| black_box(ex.try_multiply_string(&mats, None).unwrap().1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
