//! Regenerates **Table 1**: perplexity of the quantized LLaMA-7B
//! stand-in on the C4 and WikiText-2 stand-ins, across FP16, GPTQ, OWQ,
//! LLM-QAT, PB-LLM-20%, APTQ(4.0), APTQ-75% and APTQ-50%.

use aptq_bench::{emit, Experiment, ExperimentScale};
use aptq_eval::pipeline::Method;
use aptq_eval::tables::render_markdown;
use aptq_eval::zoo::ModelSize;

fn main() {
    let scale = if std::env::args().any(|a| a == "--smoke") {
        ExperimentScale::smoke()
    } else {
        ExperimentScale::full()
    };
    eprintln!("[table1] preparing experiment (pretraining TinyLlama-S if not cached)…");
    let mut exp = Experiment::prepare(ModelSize::Small, scale, true).expect("experiment setup");

    let rows = [
        Method::Fp16,
        Method::Gptq { bits: 4 },
        Method::Owq {
            bits: 4,
            outlier_dims: 1,
        },
        Method::LlmQat { bits: 4 },
        Method::PbLlm { salient_ratio: 0.2 },
        Method::AptqUniform { bits: 4 },
        Method::AptqMixed { ratio: 0.75 },
        Method::AptqMixed { ratio: 0.5 },
    ];

    let mut outcomes = Vec::new();
    for m in rows {
        eprintln!("[table1] running {m}…");
        match exp.perplexity_row(m) {
            Ok(row) => outcomes.push(row),
            Err(e) => eprintln!("[table1] {m} failed: {e}"),
        }
    }

    // The session must have captured activations exactly once per
    // Hessian mode (LayerInput for GPTQ/OWQ/PB-LLM, AttentionAware for
    // the APTQ rows) — the whole point of sharing it across rows.
    assert_eq!(
        exp.session.capture_passes(),
        2,
        "expected one capture pass per Hessian mode"
    );
    eprintln!(
        "[table1] session reuse: {} capture passes across {} rows",
        exp.session.capture_passes(),
        rows.len()
    );

    let md = render_markdown(
        "Table 1: Perplexity of quantized LLaMa models on C4 and WikiText-2 (synthetic stand-ins)",
        &outcomes,
    );
    emit("table1.md", &md).expect("write results");
}
