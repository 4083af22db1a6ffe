//! Criterion micro-benchmarks of the numerical kernels underlying the
//! quantization pipeline: matmul, Cholesky/inverse factorization, the
//! OBQ layer update, attention-aware Hessian construction, and the
//! transformer forward pass.

use aptq_core::engine::{quantize_layer_obq, quantize_layer_rtn};
use aptq_core::grid::{GridConfig, QuantGrid};
use aptq_core::hessian::HessianAccumulator;
use aptq_lm::{Model, ModelConfig};
use aptq_tensor::{init, linalg};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 96, 128, 256] {
        let a = init::normal(n, n, 1.0, &mut init::rng(1));
        let b = init::normal(n, n, 1.0, &mut init::rng(2));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("inverse_cholesky_upper");
    for &n in &[48usize, 96, 128] {
        let g = init::normal(n, n + 4, 1.0, &mut init::rng(3));
        let mut a = g.matmul(&g.transpose());
        linalg::damp_diagonal(&mut a, 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(linalg::inverse_cholesky_upper(&a).unwrap()));
        });
    }
    group.finish();
}

fn bench_obq_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantize_layer");
    for &d in &[96usize, 128] {
        let x = init::normal(256, d, 1.0, &mut init::rng(4));
        let w = init::normal(d, d, 0.3, &mut init::rng(5));
        let mut acc = HessianAccumulator::new(d);
        acc.update(&x);
        let h = acc.finish();
        let cfg = GridConfig::default();
        group.bench_with_input(BenchmarkId::new("obq4", d), &d, |bench, _| {
            bench.iter(|| {
                black_box(
                    quantize_layer_obq("bench", &w, &h, QuantGrid::int(4, true), &cfg).unwrap(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("rtn4", d), &d, |bench, _| {
            bench.iter(|| black_box(quantize_layer_rtn(&w, QuantGrid::int(4, true), &cfg)));
        });
    }
    group.finish();
}

fn bench_hessian_collection(c: &mut Criterion) {
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 6);
    let segs: Vec<Vec<u32>> = (0..4)
        .map(|k| (0..48).map(|i| ((i * 3 + k) % 100) as u32).collect())
        .collect();
    let mut group = c.benchmark_group("collect_hessians");
    group.sample_size(10);
    group.bench_function("gptq_mode", |b| {
        b.iter(|| {
            black_box(
                aptq_core::collect_hessians(&model, &segs, aptq_core::HessianMode::LayerInput)
                    .unwrap(),
            )
        });
    });
    group.bench_function("aptq_mode", |b| {
        b.iter(|| {
            black_box(
                aptq_core::collect_hessians(&model, &segs, aptq_core::HessianMode::AttentionAware)
                    .unwrap(),
            )
        });
    });
    group.finish();
}

fn bench_forward(c: &mut Criterion) {
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 7);
    let tokens: Vec<u32> = (0..64).map(|i| (i % 100) as u32).collect();
    let mut group = c.benchmark_group("transformer");
    group.bench_function("forward_64tok", |b| {
        b.iter(|| black_box(model.forward(&tokens)));
    });
    group.bench_function("forward_capture_64tok", |b| {
        b.iter(|| black_box(model.forward_capture(&tokens)));
    });
    group.bench_function("sequence_grads_64tok", |b| {
        b.iter(|| black_box(model.sequence_grads(&tokens)));
    });
    // KV-cache generation: 32 prompt tokens plus 7 generated ones fed
    // (the 8th is emitted, never fed), amortized per-token cost.
    group.bench_function("generate_32_plus_8", |b| {
        b.iter(|| {
            let mut session = aptq_lm::decode::BatchDecodeSession::new(&model);
            let prompt = [&tokens[..32]];
            let greedy = aptq_lm::generate::Sampler::Greedy;
            black_box(aptq_lm::generate::generate(&mut session, &prompt, 8, greedy).unwrap())
        });
    });
    group.finish();
}

fn bench_quantized_decode(c: &mut Criterion) {
    // Steady-state decode from packed storage vs the float path above:
    // same generic decode core, projections executed by the
    // group-streaming QuantizedLinear instead of fp32 matmul.
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 7);
    let tokens: Vec<u32> = (0..64).map(|i| (i % 100) as u32).collect();
    let calib: Vec<Vec<u32>> = (0..4)
        .map(|k| (0..48).map(|i| ((i * 3 + k) % 100) as u32).collect())
        .collect();
    let hs = aptq_core::collect_hessians(&model, &calib, aptq_core::HessianMode::AttentionAware)
        .unwrap();
    let plan = aptq_core::QuantPlan::uniform(&model, 4);
    let q = aptq_qmodel::QuantizedModel::quantize_from(&model, &plan, &hs, &GridConfig::default())
        .unwrap();
    let mut group = c.benchmark_group("quantized");
    group.bench_function("forward_64tok", |b| {
        b.iter(|| black_box(q.forward(&tokens).unwrap()));
    });
    group.bench_function("generate_32_plus_8", |b| {
        b.iter(|| black_box(q.generate_greedy(&tokens[..32], 8).unwrap()));
    });
    group.finish();
}

fn bench_packing(c: &mut Criterion) {
    let codes: Vec<u8> = (0..96 * 96).map(|i| (i % 16) as u8).collect();
    let mut group = c.benchmark_group("packing");
    for bits in [2u8, 4] {
        let masked: Vec<u8> = codes.iter().map(|&v| v & ((1 << bits) - 1)).collect();
        group.bench_with_input(BenchmarkId::new("pack", bits), &bits, |b, &bits| {
            b.iter(|| black_box(aptq_core::pack::pack_codes(&masked, bits)));
        });
        let packed = aptq_core::pack::pack_codes(&masked, bits);
        group.bench_with_input(BenchmarkId::new("unpack", bits), &bits, |b, &bits| {
            b.iter(|| black_box(aptq_core::pack::unpack_codes(&packed, bits, masked.len())));
        });
    }
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = bench_matmul, bench_cholesky, bench_obq_layer, bench_hessian_collection,
        bench_forward, bench_quantized_decode, bench_packing
);
criterion_main!(kernels);
