//! Packed-weight inference — the edge-deployment execution path.
//!
//! Builds a deployable [`aptq::qmodel::QuantizedModel`] (APTQ-75% mixed
//! 2/4-bit plan, packed codes + group parameters), verifies it is
//! bit-identical to the simulated-quantization reference, reports the
//! memory budget, and generates text straight from packed storage
//! through the KV-cached incremental decoder (O(T) per token, not a
//! full re-forward).
//!
//! ```text
//! cargo run --example packed_inference --release
//! ```

use aptq::eval::zoo::{load_or_train, ModelSize, PretrainBudget};
use aptq::qmodel::QuantizedModel;
use aptq::quant::grid::GridConfig;
use aptq::quant::methods::apply_plan_obq;
use aptq::quant::mixed::{AllocationPolicy, MixedPrecisionAllocator};
use aptq::quant::{HessianMode, QuantSession};
use aptq::tensor::parallel::thread_count;
use aptq::textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq_obs::Recorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("pretraining TinyLlama-S (quick budget)…");
    let stack = load_or_train(ModelSize::Small, PretrainBudget::quick(), None)?;
    let mut calib_gen =
        CorpusGenerator::new(&stack.grammar, &stack.tokenizer, CorpusStyle::WebC4, 99);
    let mut session = QuantSession::new(calib_gen.segments(24, 48));
    let cfg = GridConfig::default();

    // APTQ-75% plan: attention-aware Hessians, captured once and cached
    // by the session, and allocation by their mean trace (§3.3).
    let hessians = session.hessians(&stack.model, HessianMode::AttentionAware)?;
    let sensitivity = session.sensitivity(&stack.model, 2, &cfg)?;
    let plan = MixedPrecisionAllocator::two_four(0.75)?.allocate(
        &stack.model,
        &sensitivity,
        AllocationPolicy::HessianTrace,
    );

    // The deployable artifact.
    let qmodel = QuantizedModel::quantize_from(&stack.model, &plan, &hessians, &cfg)?;
    println!("\nmemory: {}", qmodel.memory());

    // Bit-exactness vs the simulated-quantization reference.
    let mut reference = stack.model.clone();
    apply_plan_obq(
        "ref",
        &mut reference,
        &plan,
        &hessians,
        &cfg,
        thread_count(),
        &mut Recorder::new(),
    )?;
    let probe = stack.tokenizer.encode("the wild crow");
    let a = qmodel.forward(&probe)?;
    let b = reference.forward(&probe);
    let max_diff = a.sub(&b).abs_max();
    println!("packed vs simulated forward, max |Δlogit|: {max_diff:.2e}");
    assert!(
        max_diff < 1e-4,
        "packed execution must match simulated quantization"
    );

    // Generate directly from packed storage.
    let mut prompt = vec![aptq::textgen::tokenizer::BOS];
    prompt.extend(stack.tokenizer.encode("the sharp saw"));
    let out = qmodel.generate_greedy(&prompt, 10)?;
    println!(
        "\npacked-model continuation: {}",
        stack.tokenizer.decode(&out)
    );
    Ok(())
}
