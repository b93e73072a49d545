//! Criterion bench for E22: the throughput engine.
//!
//! Three groups mirror the three tentpole layers:
//! `kernel` (naive vs blocked vs row-parallel (min,+) matmul),
//! `batch` (B pipelined instances through one array vs B sequential
//! runs), and `fastpath` (the plain monomorphized step loop vs the
//! generic fault/trace loop with `NoFaults` + `NullSink`, which should
//! cost nothing).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_core::design1::Design1Array;
use sdp_core::matmul_array::MatmulArray;
use sdp_fault::NoFaults;
use sdp_multistage::generate;
use sdp_semiring::{Matrix, MinPlus};
use sdp_trace::NullSink;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);
    let n = 128;
    let g = generate::random_uniform(29, 3, n, 0, 1000);
    let a = g.matrix_string()[0].clone();
    let b = g.matrix_string()[1].clone();
    group.bench_function("naive_ijk", |bch| {
        bch.iter(|| black_box(a.mul_naive(&b)));
    });
    group.bench_function("blocked_ikj", |bch| {
        bch.iter(|| black_box(a.mul(&b)));
    });
    group.bench_function("blocked_into_scratch", |bch| {
        let mut scratch = Matrix::<MinPlus>::zeros(1, 1);
        bch.iter(|| {
            a.mul_blocked_into(&b, &mut scratch);
            black_box(scratch.get(0, 0));
        });
    });
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    for &threads in &[2usize, cores.max(2)] {
        group.bench_with_input(
            BenchmarkId::new("row_parallel", threads),
            &threads,
            |bch, &t| {
                bch.iter(|| black_box(a.mul_parallel(&b, t)));
            },
        );
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch");
    group.sample_size(10);
    let (stages, m, b) = (6usize, 8usize, 8u64);
    let strings: Vec<Vec<Matrix<MinPlus>>> = (0..b)
        .map(|s| {
            generate::random_single_source_sink(200 + s, stages, m, 0, 50)
                .matrix_string()
                .to_vec()
        })
        .collect();
    let refs: Vec<&[Matrix<MinPlus>]> = strings.iter().map(|s| s.as_slice()).collect();
    let d1 = Design1Array::new(m);
    group.bench_function("design1_sequential_x8", |bch| {
        bch.iter(|| {
            for s in &strings {
                black_box(d1.try_run(s, &mut NoFaults, &mut NullSink).unwrap());
            }
        });
    });
    group.bench_function("design1_pipelined_b8", |bch| {
        bch.iter(|| black_box(d1.run_batch(&refs).unwrap()));
    });
    let pairs: Vec<(Matrix<MinPlus>, Matrix<MinPlus>)> = (0..b)
        .map(|s| {
            let g = generate::random_uniform(500 + s, 3, m, 0, 1000);
            (g.matrix_string()[0].clone(), g.matrix_string()[1].clone())
        })
        .collect();
    group.bench_function("matmul_mesh_sequential_x8", |bch| {
        bch.iter(|| {
            for (a, bb) in &pairs {
                black_box(MatmulArray::try_multiply(a, bb, &mut NoFaults, &mut NullSink).unwrap());
            }
        });
    });
    group.bench_function("matmul_mesh_pipelined_b8", |bch| {
        bch.iter(|| black_box(MatmulArray::multiply_batch(&pairs).unwrap()));
    });
    group.finish();
}

fn bench_fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath");
    group.sample_size(10);
    let g = generate::random_single_source_sink(31, 24, 6, 0, 50);
    let mats = g.matrix_string().to_vec();
    let d1 = Design1Array::new(6);
    group.bench_function("plain_run", |bch| {
        bch.iter(|| black_box(d1.try_run(&mats, &mut NoFaults, &mut NullSink).unwrap()));
    });
    group.bench_function("generic_nofaults_nullsink", |bch| {
        bch.iter(|| black_box(d1.try_run(&mats, &mut NoFaults, &mut NullSink).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_batch, bench_fastpath);
criterion_main!(benches);
