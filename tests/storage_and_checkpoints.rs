//! Integration tests for the deployment story: packed storage sizes,
//! checkpoint round-trips, and cross-crate plumbing.

use aptq::lm::decode::BatchDecodeSession;
use aptq::lm::generate::{generate, Sampler};
use aptq::lm::{Model, ModelConfig};
use aptq::quant::engine::{quantize_layer_obq, quantize_layer_rtn};
use aptq::quant::grid::{GridConfig, QuantGrid};
use aptq::quant::hessian::HessianAccumulator;
use aptq::quant::pack::PackedTensor;
use aptq::quant::QuantSession;
use aptq::tensor::init;
use aptq::textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq::textgen::{Grammar, Tokenizer};

#[test]
fn packed_model_is_roughly_four_times_smaller_at_4bit() {
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 3);
    let cfg = GridConfig::default();
    let grid = QuantGrid::int(4, true);
    let mut packed_total = 0usize;
    let mut fp16_total = 0usize;
    for layer in model.layer_refs() {
        let w = model.layer_weight(layer);
        let res = quantize_layer_rtn(w, grid, &cfg);
        packed_total += res.packed.storage_bytes();
        fp16_total += w.len() * 2;
    }
    let ratio = fp16_total as f32 / packed_total as f32;
    assert!(
        ratio > 3.0 && ratio < 4.0,
        "4-bit + metadata should give ~3.5x: {ratio}"
    );
}

#[test]
fn packed_mixed_precision_model_hits_eq18_storage() {
    // Half the layers at 4 bits, half at 2: storage should land near the
    // 3-bit point of Eq. (18).
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 4);
    let cfg = GridConfig::default();
    let refs = model.layer_refs();
    let mut packed_total = 0usize;
    let mut weights_total = 0usize;
    for (i, layer) in refs.iter().enumerate() {
        let bits = if i % 2 == 0 { 4 } else { 2 };
        let w = model.layer_weight(*layer);
        let res = quantize_layer_rtn(w, QuantGrid::int(bits, true), &cfg);
        packed_total += res.packed.data.len(); // codes only, no metadata
        weights_total += w.len();
    }
    let bits_per_weight = packed_total as f32 * 8.0 / weights_total as f32;
    assert!(
        (bits_per_weight - 3.0).abs() < 0.35,
        "mixed 2/4 codes should average ~3 bits: {bits_per_weight}"
    );
}

#[test]
fn packed_tensor_survives_serde_and_reinstall() {
    // Quantize one layer, serialize its packed form, reload, install the
    // dequantized weights, and confirm the model computes identically.
    let mut model = Model::new(&ModelConfig::test_tiny(16), 5);
    let layer = model.layer_refs()[3];
    let x = init::normal(40, 16, 1.0, &mut init::rng(1));
    let mut acc = HessianAccumulator::new(16);
    acc.update(&x);
    let h = acc.finish();
    let w = model.layer_weight(layer).clone();
    let res = quantize_layer_obq(
        "test",
        &w,
        &h,
        QuantGrid::int(4, true),
        &GridConfig {
            group_size: 8,
            ..GridConfig::default()
        },
    )
    .unwrap();

    let json = serde_json::to_string(&res.packed).unwrap();
    let restored: PackedTensor = serde_json::from_str(&json).unwrap();
    *model.layer_weight_mut(layer) = restored.dequantize();
    let out_restored = model.forward(&[1, 2, 3, 4]);

    *model.layer_weight_mut(layer) = res.dequantized;
    let out_direct = model.forward(&[1, 2, 3, 4]);
    assert_eq!(out_restored, out_direct);
}

#[test]
fn quantized_model_checkpoint_roundtrip() {
    // Full pipeline: quantize a model, save to JSON, reload, compare
    // generation.
    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let mut model = Model::new(&ModelConfig::test_tiny(tok.vocab_size()), 6);
    let calib = CorpusGenerator::new(&grammar, &tok, CorpusStyle::WebC4, 11).segments(4, 24);
    aptq::quant::methods::gptq::quantize(
        &mut model,
        &mut QuantSession::new(calib),
        4,
        &GridConfig::default(),
    )
    .unwrap();

    let json = model.to_json().unwrap();
    let restored = Model::from_json(&json).unwrap();
    let greedy = |m| {
        generate(
            &mut BatchDecodeSession::new(m),
            &[[1, 2]],
            8,
            Sampler::Greedy,
        )
    };
    let a = greedy(&model).unwrap();
    let b = greedy(&restored).unwrap();
    assert_eq!(a, b);
}

#[test]
fn umbrella_crate_reexports_work() {
    // The `aptq` facade must expose the full stack.
    let _ = aptq::tensor::Matrix::zeros(2, 2);
    let _ = aptq::textgen::Grammar::standard();
    let _ = aptq::quant::grid::QuantGrid::int(4, true);
    let cfg = aptq::lm::ModelConfig::test_tiny(8);
    assert!(cfg.validate().is_ok());
}
