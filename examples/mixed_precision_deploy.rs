//! Mixed-precision deployment walk-through.
//!
//! Quantizes a trained model with APTQ-75% (avg 3.5 bits), packs every
//! layer into the 2/4-bit storage format, reports the edge-device memory
//! footprint vs fp16, round-trips the packed tensors through
//! serialization, and generates text from the quantized model.
//!
//! ```text
//! cargo run --example mixed_precision_deploy --release
//! ```

use aptq::eval::zoo::{load_or_train, ModelSize, PretrainBudget};
use aptq::lm::decode::BatchDecodeSession;
use aptq::lm::generate::{generate, Sampler};
use aptq::quant::grid::GridConfig;
use aptq::quant::methods::solve_plan;
use aptq::quant::mixed::{AllocationPolicy, MixedPrecisionAllocator};
use aptq::quant::pack::PackedTensor;
use aptq::quant::trace::SensitivityReport;
use aptq::quant::{collect_hessians, HessianMode};
use aptq::tensor::parallel::thread_count;
use aptq::textgen::corpus::{CorpusGenerator, CorpusStyle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("pretraining TinyLlama-S (quick budget)…");
    let stack = load_or_train(ModelSize::Small, PretrainBudget::quick(), None)?;
    let mut model = stack.model.clone();
    let mut calib_gen =
        CorpusGenerator::new(&stack.grammar, &stack.tokenizer, CorpusStyle::WebC4, 7);
    let calibration = calib_gen.segments(24, 48);

    // Plan: 75% of weights at 4 bits by Hessian trace.
    let hessians = collect_hessians(&model, &calibration, HessianMode::AttentionAware)?;
    let sensitivity = SensitivityReport::from_hessians(&hessians);
    let plan = MixedPrecisionAllocator::two_four(0.75)?.allocate(
        &model,
        &sensitivity,
        AllocationPolicy::HessianTrace,
    );

    // Solve every layer of the plan, keeping the packed tensors — this
    // is what an edge deployment would ship.
    let cfg = GridConfig::default();
    let solved = solve_plan(&model, &plan, &hessians, &cfg, thread_count())?;
    let mut packed_layers: Vec<(String, PackedTensor)> = Vec::new();
    let mut fp16_bytes = 0usize;
    for ((layer, _), res) in plan.iter().zip(solved) {
        fp16_bytes += res.dequantized.len() * 2;
        *model.layer_weight_mut(layer) = res.dequantized;
        packed_layers.push((layer.to_string(), res.packed));
    }

    let packed_bytes: usize = packed_layers.iter().map(|(_, p)| p.storage_bytes()).sum();
    println!(
        "\npacked model: {packed_bytes} bytes vs fp16 {fp16_bytes} bytes ({:.2}x smaller)",
        fp16_bytes as f32 / packed_bytes as f32
    );
    println!(
        "achieved average bits (plan): {:.2}",
        plan.avg_bits(&stack.model)
    );

    // Serialization round-trip of one packed layer (the storage format is
    // plain serde).
    let (name, tensor) = &packed_layers[0];
    let json = serde_json::to_string(tensor)?;
    let restored: PackedTensor = serde_json::from_str(&json)?;
    assert_eq!(&restored.dequantize(), &tensor.dequantize());
    println!(
        "serde round-trip of {name}: OK ({} bytes of JSON)",
        json.len()
    );

    // Generation from the quantized model.
    let prompt = stack.tokenizer.encode("<bos> the wild");
    let greedy = |m| {
        generate(
            &mut BatchDecodeSession::new(m),
            &[&prompt],
            10,
            Sampler::Greedy,
        )
    };
    let fp = greedy(&stack.model)?;
    let q = greedy(&model)?;
    println!(
        "\nfp16 continuation:      {}",
        stack.tokenizer.decode(&fp[0])
    );
    println!("quantized continuation: {}", stack.tokenizer.decode(&q[0]));
    Ok(())
}
