//! Zero-shot evaluation — a miniature of the paper's Table 2.
//!
//! Evaluates the fp16 model and two quantized variants on the five
//! synthetic common-sense suites (stand-ins for PIQA, HellaSwag, ARC-E,
//! ARC-C and WinoGrande), scoring by length-normalized log-likelihood
//! like the lm-eval-harness.
//!
//! ```text
//! cargo run --example zero_shot_eval --release
//! ```

use aptq::eval::evaluate_suites;
use aptq::eval::pipeline::{quantize_clone, Method};
use aptq::eval::zoo::{load_or_train, ModelSize, PretrainBudget};
use aptq::quant::grid::GridConfig;
use aptq::quant::QuantSession;
use aptq::textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq::textgen::{TaskSuite, ZeroShotTask};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("pretraining TinyLlama-S (quick budget)…");
    let stack = load_or_train(ModelSize::Small, PretrainBudget::quick(), None)?;
    let mut calib_gen =
        CorpusGenerator::new(&stack.grammar, &stack.tokenizer, CorpusStyle::WebC4, 314);
    let mut session = QuantSession::new(calib_gen.segments(24, 48));

    let suites: Vec<TaskSuite> = ZeroShotTask::ALL
        .iter()
        .map(|&t| TaskSuite::generate(t, &stack.grammar, &stack.tokenizer, 80, 2718))
        .collect();

    let methods = [
        Method::Fp16,
        Method::AptqMixed { ratio: 0.9 },
        Method::Rtn { bits: 2 },
    ];

    println!(
        "\n| Method | {} | Mean |",
        ZeroShotTask::ALL.map(|t| t.paper_name()).join(" | ")
    );
    println!("|---|---|---|---|---|---|---|");
    for method in methods {
        let (model, _) =
            quantize_clone(&stack.model, method, &mut session, &GridConfig::default())?;
        let results = evaluate_suites(&model, &suites)?;
        let cells: Vec<String> = results
            .iter()
            .map(|r| format!("{:.1}", r.accuracy * 100.0))
            .collect();
        println!("| {} | {} |", method.label(), cells.join(" | "));
    }
    println!("\n(chance: 25.0 for the four 4-way suites, 50.0 for WinoGrande)");
    Ok(())
}
