//! End-to-end integration tests: pretrain a small model on the synthetic
//! corpus, quantize it with every method, and check that the *shapes* of
//! the paper's results hold (who wins, and in which direction quality
//! moves as bits shrink).

use std::sync::OnceLock;

use aptq::eval::pipeline::{quantize_clone, Method};
use aptq::eval::zoo::{load_or_train, ModelSize, PretrainBudget, TrainedStack};
use aptq::eval::{evaluate_suites, perplexity};
use aptq::quant::grid::GridConfig;
use aptq::quant::QuantSession;
use aptq::textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq::textgen::{TaskSuite, ZeroShotTask};

/// One shared trained stack for the whole test binary (training is the
/// expensive part; quantization runs are cheap).
fn stack() -> &'static TrainedStack {
    static STACK: OnceLock<TrainedStack> = OnceLock::new();
    STACK.get_or_init(|| {
        // Same budget as the experiment harness so the shapes asserted
        // here are the shapes EXPERIMENTS.md reports.
        load_or_train(ModelSize::Small, PretrainBudget::full(), None)
            .expect("pretraining must succeed")
    })
}

fn calibration() -> Vec<Vec<u32>> {
    let s = stack();
    CorpusGenerator::new(&s.grammar, &s.tokenizer, CorpusStyle::WebC4, 9001).segments(24, 48)
}

fn eval_c4() -> Vec<Vec<u32>> {
    let s = stack();
    CorpusGenerator::new(&s.grammar, &s.tokenizer, CorpusStyle::WebC4, 9002).segments(16, 48)
}

fn eval_wiki() -> Vec<Vec<u32>> {
    let s = stack();
    CorpusGenerator::new(&s.grammar, &s.tokenizer, CorpusStyle::Wiki, 9003).segments(16, 48)
}

fn ppl_of(method: Method) -> f32 {
    let (model, _) = quantize_clone(
        &stack().model,
        method,
        &mut QuantSession::new(calibration()),
        &GridConfig::default(),
    )
    .unwrap();
    perplexity(&model, &eval_c4()).unwrap()
}

#[test]
fn trained_model_beats_uniform_on_both_corpora() {
    let s = stack();
    let vocab = s.tokenizer.vocab_size() as f32;
    let c4 = perplexity(&s.model, &eval_c4()).unwrap();
    let wiki = perplexity(&s.model, &eval_wiki()).unwrap();
    assert!(
        c4 < vocab * 0.25,
        "C4 PPL {c4} should be far below |V| {vocab}"
    );
    assert!(
        wiki < vocab * 0.5,
        "Wiki PPL {wiki} should be far below |V| {vocab}"
    );
}

#[test]
fn gptq_beats_rtn_at_low_bits_on_trained_model() {
    // The founding GPTQ result, reproduced on our substrate at 2 bits
    // where error compensation matters most.
    let rtn = ppl_of(Method::Rtn { bits: 2 });
    let gptq = ppl_of(Method::Gptq { bits: 2 });
    assert!(
        gptq < rtn,
        "GPTQ-2bit ({gptq}) must beat RTN-2bit ({rtn}) on a trained model"
    );
}

#[test]
fn four_bit_quantization_is_nearly_lossless() {
    // Table 1 shape: at avg 4 bits the best PTQ methods sit within a few
    // percent of fp16.
    let fp16 = ppl_of(Method::Fp16);
    for method in [Method::Gptq { bits: 4 }, Method::AptqUniform { bits: 4 }] {
        let q = ppl_of(method);
        assert!(
            q < fp16 * 1.35,
            "{}: PPL {q} should be near fp16 {fp16}",
            method.label()
        );
        assert!(
            q >= fp16 * 0.90,
            "{}: quantization cannot beat fp16 by much",
            method.label()
        );
    }
}

#[test]
fn aptq_mixed_degrades_gracefully_with_ratio() {
    // Figure 2 shape: PPL is monotone-ish in the 4-bit ratio.
    let p90 = ppl_of(Method::AptqMixed { ratio: 0.9 });
    let p50 = ppl_of(Method::AptqMixed { ratio: 0.5 });
    let fp16 = ppl_of(Method::Fp16);
    assert!(
        p90 < p50,
        "more 4-bit weights must help: R=0.9 {p90} vs R=0.5 {p50}"
    );
    assert!(
        p90 < fp16 * 2.0,
        "APTQ-90% should stay near fp16: {p90} vs {fp16}"
    );
}

#[test]
fn sensitivity_allocation_is_competitive_with_manual_blockwise() {
    // Table 3 shape. On the paper's 32-block LLaMA the trace-informed
    // allocation clearly wins; on our 6-block models front-to-back
    // block allocation is a near-optimal heuristic (early-layer errors
    // dominate via compounding), so the honest assertion at this scale
    // is *parity within noise*, not a win — EXPERIMENTS.md discusses
    // this, and results/ablations.md §E compares all allocation signals.
    let mut total_trace = 0.0f32;
    let mut total_block = 0.0f32;
    for ratio in [0.75f32, 0.5] {
        total_trace += ppl_of(Method::AptqMixed { ratio });
        total_block += ppl_of(Method::ManualBlockwise { ratio });
    }
    assert!(
        total_trace < total_block * 1.03,
        "sensitivity allocation must stay within 3% of manual blockwise \
         (trace sum {total_trace}, blockwise sum {total_block})"
    );
    // And both mixed schemes must beat naive uniform 2-bit RTN by a mile.
    let rtn2 = ppl_of(Method::Rtn { bits: 2 });
    assert!(
        total_trace / 2.0 < rtn2,
        "mixed 2/4 must beat uniform 2-bit RTN"
    );
}

#[test]
fn pbllm_low_ratio_is_much_worse_than_aptq_mixed() {
    // Table 1 shape: PB-LLM-20% (mostly binary) is far worse than
    // APTQ-50% despite similar storage.
    let pb = ppl_of(Method::PbLlm { salient_ratio: 0.1 });
    let aptq = ppl_of(Method::AptqMixed { ratio: 0.5 });
    assert!(
        pb > aptq,
        "partial binarization ({pb}) should trail APTQ mixed 2/4 ({aptq})"
    );
}

#[test]
fn trained_model_zero_shot_above_chance_and_quantization_degrades() {
    let s = stack();
    let suites: Vec<TaskSuite> = ZeroShotTask::ALL
        .iter()
        .map(|&t| TaskSuite::generate(t, &s.grammar, &s.tokenizer, 60, 777))
        .collect();
    let fp = evaluate_suites(&s.model, &suites).unwrap();
    let fp_mean = fp.last().unwrap().accuracy;
    // Chance mean over the 5 suites = (0.25*4 + 0.5)/5 = 0.3.
    assert!(
        fp_mean > 0.40,
        "trained fp16 mean accuracy {fp_mean} should beat chance 0.30"
    );

    let (q2, _) = quantize_clone(
        &s.model,
        Method::Rtn { bits: 2 },
        &mut QuantSession::new(calibration()),
        &GridConfig::default(),
    )
    .unwrap();
    let q2_res = evaluate_suites(&q2, &suites).unwrap();
    let q2_mean = q2_res.last().unwrap().accuracy;
    assert!(
        q2_mean < fp_mean + 0.02,
        "2-bit RTN accuracy {q2_mean} should not beat fp16 {fp_mean}"
    );
}

#[test]
fn agreement_task_is_easiest_for_trained_model() {
    // Construction check on the task ladder: adjacent-token agreement is
    // learned earliest.
    let s = stack();
    let agreement = TaskSuite::generate(ZeroShotTask::Agreement, &s.grammar, &s.tokenizer, 80, 5);
    let res = aptq::eval::evaluate_suite(&s.model, &agreement).unwrap();
    assert!(
        res.accuracy > 0.6,
        "agreement accuracy {} should be well above the 0.5 chance",
        res.accuracy
    );
}

#[test]
fn wiki_distribution_shift_shows_up_in_ppl() {
    // Calibration/training is C4-style; Wiki is shifted. On the fp16
    // model Wiki PPL should differ from C4 PPL (the Table 1 columns are
    // genuinely different distributions). Uses a larger eval sample than
    // the shared 16-segment helpers: at 16 segments the gap estimate is
    // noisy enough to dip below threshold on unlucky seeds.
    let s = stack();
    let c4_corpus =
        CorpusGenerator::new(&s.grammar, &s.tokenizer, CorpusStyle::WebC4, 9002).segments(48, 48);
    let wiki_corpus =
        CorpusGenerator::new(&s.grammar, &s.tokenizer, CorpusStyle::Wiki, 9003).segments(48, 48);
    let c4 = perplexity(&s.model, &c4_corpus).unwrap();
    let wiki = perplexity(&s.model, &wiki_corpus).unwrap();
    assert!(
        (c4 - wiki).abs() / c4 > 0.02,
        "C4 {c4} and Wiki {wiki} should differ"
    );
}
