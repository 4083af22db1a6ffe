//! Quickstart: the smallest end-to-end APTQ run.
//!
//! Trains a small LLaMA-style model on the synthetic corpus for a few
//! seconds, quantizes it with APTQ at an average of 3.5 bits (75% of
//! weights at 4-bit, the rest at 2-bit, allocated by Hessian trace), and
//! compares perplexity before and after.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use aptq::eval::perplexity;
use aptq::eval::pipeline::{quantize_clone, Method};
use aptq::eval::zoo::{load_or_train, ModelSize, PretrainBudget};
use aptq::quant::grid::GridConfig;
use aptq::quant::QuantSession;
use aptq::textgen::corpus::{CorpusGenerator, CorpusStyle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A pretrained model (trains in-process on first call; the paper
    //    starts from LLaMA checkpoints — see DESIGN.md for the
    //    substitution).
    println!("pretraining TinyLlama-S on the synthetic corpus…");
    let stack = load_or_train(ModelSize::Small, PretrainBudget::quick(), None)?;
    println!(
        "  done (final training loss {:.3} nats/token)",
        stack.final_loss
    );

    // 2. Calibration data: fresh segments from the training distribution,
    //    as the paper samples 128 segments of C4.
    let mut calib_gen =
        CorpusGenerator::new(&stack.grammar, &stack.tokenizer, CorpusStyle::WebC4, 1234);
    //    One session serves every method below, so methods that share a
    //    Hessian mode share one activation-capture pass.
    let mut session = QuantSession::new(calib_gen.segments(24, 48));

    // 3. Held-out evaluation segments.
    let mut eval_gen =
        CorpusGenerator::new(&stack.grammar, &stack.tokenizer, CorpusStyle::WebC4, 5678);
    let eval_segments = eval_gen.segments(12, 48);

    let fp16_ppl = perplexity(&stack.model, &eval_segments)?;
    println!("fp16 perplexity: {fp16_ppl:.3}");

    // 4. Quantize with APTQ at R = 75% (avg 3.5 bits, Eq. 18) and with
    //    GPTQ-4bit for comparison.
    let cfg = GridConfig::default();
    for method in [
        Method::Gptq { bits: 4 },
        Method::AptqUniform { bits: 4 },
        Method::AptqMixed { ratio: 0.75 },
    ] {
        let (quantized, measured_bits) = quantize_clone(&stack.model, method, &mut session, &cfg)?;
        let ppl = perplexity(&quantized, &eval_segments)?;
        println!(
            "{:<24} avg {:.2} bits → perplexity {ppl:.3} (Δ {:+.3})",
            method.label(),
            measured_bits,
            ppl - fp16_ppl
        );
    }
    Ok(())
}
