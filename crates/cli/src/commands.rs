//! The CLI subcommand implementations.

use aptq_core::grid::GridConfig;
use aptq_core::mixed::{AllocationPolicy, MixedPrecisionAllocator};
use aptq_core::trace::{empirical_sensitivity, SensitivityMetric, SensitivityReport};
use aptq_core::{HessianMode, QuantSession};
use aptq_eval::pipeline::Method;
use aptq_eval::zoo::{load_or_train, ModelSize, PretrainBudget};
use aptq_eval::{evaluate_suites, perplexity};
use aptq_lm::Model;
use aptq_qmodel::QuantizedModel;
use aptq_tensor::parallel::thread_count;
use aptq_textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq_textgen::{Grammar, TaskSuite, Tokenizer, ZeroShotTask};

use aptq_lm::LmError;
use aptq_qmodel::QModelError;

use crate::args::{get_bool, get_f32, get_or, get_usize, require};
use crate::error::CliError;
use crate::Flags;

/// Standard calibration set used by all quantizing subcommands; segment
/// length is clamped to the model's maximum context.
fn calibration(grammar: &Grammar, tok: &Tokenizer, n: usize, max_seq: usize) -> Vec<Vec<u32>> {
    CorpusGenerator::new(grammar, tok, CorpusStyle::WebC4, 40_001).segments(n, max_seq.min(64))
}

/// Maps LM-stack errors onto exit-code classes: checkpoint/envelope
/// failures are integrity errors, everything else is runtime.
fn lm_err(e: LmError) -> CliError {
    match e {
        LmError::Checkpoint(a) => CliError::Integrity(a),
        other => CliError::Runtime(other.to_string()),
    }
}

/// Same partition for the packed-model stack.
fn qm_err(e: QModelError) -> CliError {
    match e {
        QModelError::Integrity(a) => CliError::Integrity(a),
        other => CliError::Runtime(other.to_string()),
    }
}

/// Loads a model from either a checksummed artifact envelope (the
/// format every `aptq` save now emits) or a bare `Model::to_json`
/// checkpoint (accepted for older files).
fn load_model(path: &str) -> Result<Model, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::io(format!("reading {path}"), e))?;
    if aptq_artifact::is_envelope(&text) {
        Model::from_envelope_json(&text).map_err(lm_err)
    } else {
        Model::from_json(&text).map_err(lm_err)
    }
}

fn save(path: &str, content: &str) -> Result<(), CliError> {
    std::fs::write(path, content).map_err(|e| CliError::io(format!("writing {path}"), e))
}

/// `aptq pretrain --size s|m [--steps N] [--out FILE]`
///
/// # Determinism
///
/// Bit-identical output at any `APTQ_THREADS` value: all heavy math
/// runs on the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn pretrain(flags: &Flags) -> Result<(), CliError> {
    let size = match get_or(flags, "size", "s") {
        "s" => ModelSize::Small,
        "m" => ModelSize::Medium,
        other => {
            return Err(CliError::Usage(format!(
                "--size must be s or m, got `{other}`"
            )))
        }
    };
    let mut budget = PretrainBudget::full();
    budget.steps = get_usize(flags, "steps", budget.steps).map_err(CliError::Usage)?;
    let out = get_or(flags, "out", "model.json");
    eprintln!(
        "pretraining {} for {} steps…",
        size.paper_name(),
        budget.steps
    );
    let stack = load_or_train(size, budget, None).map_err(|e| CliError::Runtime(e.to_string()))?;
    save(out, &stack.model.to_envelope_json().map_err(lm_err)?)?;
    eprintln!("saved {out} (final loss {:.4})", stack.final_loss);
    Ok(())
}

/// Parses a method name like `aptq-75` or `gptq4`.
pub fn parse_method(name: &str) -> Result<Method, String> {
    let m = match name {
        "fp16" => Method::Fp16,
        "rtn2" => Method::Rtn { bits: 2 },
        "rtn3" => Method::Rtn { bits: 3 },
        "rtn4" => Method::Rtn { bits: 4 },
        "gptq2" => Method::Gptq { bits: 2 },
        "gptq3" => Method::Gptq { bits: 3 },
        "gptq4" => Method::Gptq { bits: 4 },
        "owq" => Method::Owq {
            bits: 4,
            outlier_dims: 1,
        },
        "smoothquant" => Method::SmoothQuant { bits: 4 },
        "fpq" => Method::Fpq,
        "qat" => Method::LlmQat { bits: 4 },
        "aptq4" => Method::AptqUniform { bits: 4 },
        other => {
            let parse_pct = |prefix: &str| -> Option<Result<f32, String>> {
                other.strip_prefix(prefix).map(|pct| {
                    pct.parse::<f32>()
                        .map(|p| p / 100.0)
                        .map_err(|_| format!("bad percentage in `{other}`"))
                })
            };
            if let Some(p) = parse_pct("aptq-") {
                Method::AptqMixed { ratio: p? }
            } else if let Some(p) = parse_pct("blockwise-") {
                Method::ManualBlockwise { ratio: p? }
            } else if let Some(p) = parse_pct("pbllm-") {
                Method::PbLlm { salient_ratio: p? }
            } else {
                return Err(format!("unknown method `{other}`"));
            }
        }
    };
    Ok(m)
}

/// `aptq quantize --model FILE --method METHOD [--out FILE]`
///
/// # Determinism
///
/// Bit-identical output at any `APTQ_THREADS` value: all heavy math
/// runs on the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn quantize(flags: &Flags) -> Result<(), CliError> {
    let mut model = load_model(require(flags, "model").map_err(CliError::Usage)?)?;
    let method = parse_method(require(flags, "method").map_err(CliError::Usage)?)
        .map_err(CliError::Usage)?;
    let out = get_or(flags, "out", "quantized.json");
    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let mut session = QuantSession::new(calibration(
        &grammar,
        &tok,
        get_usize(flags, "segments", 64).map_err(CliError::Usage)?,
        model.config().max_seq_len,
    ));
    let report = method
        .apply(&mut model, &mut session, &GridConfig::default())
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    if let Some(r) = &report {
        eprintln!("{}", r.summary());
    }
    save(out, &model.to_envelope_json().map_err(lm_err)?)?;
    eprintln!("saved {out}");
    Ok(())
}

/// `aptq pack --model FILE [--ratio R] [--out FILE]` — build a deployable
/// packed artifact (APTQ mixed 2/4 at the given 4-bit ratio).
///
/// # Determinism
///
/// Bit-identical output at any `APTQ_THREADS` value: all heavy math
/// runs on the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn pack(flags: &Flags) -> Result<(), CliError> {
    let model = load_model(require(flags, "model").map_err(CliError::Usage)?)?;
    let ratio = get_f32(flags, "ratio", 0.75).map_err(CliError::Usage)?;
    let out = get_or(flags, "out", "packed.json");
    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let mut session = QuantSession::new(calibration(
        &grammar,
        &tok,
        get_usize(flags, "segments", 64).map_err(CliError::Usage)?,
        model.config().max_seq_len,
    ));
    let cfg = GridConfig::default();

    let hessians = session
        .hessians(&model, HessianMode::AttentionAware)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let sensitivity = session
        .sensitivity(&model, 2, &cfg)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let allocator =
        MixedPrecisionAllocator::two_four(ratio).map_err(|e| CliError::Usage(e.to_string()))?;
    let plan = allocator.allocate(&model, &sensitivity, AllocationPolicy::HessianTrace);
    let qmodel = QuantizedModel::quantize_from(&model, &plan, &hessians, &cfg).map_err(qm_err)?;
    eprintln!("{}", qmodel.memory());
    save(out, &qmodel.to_envelope_json().map_err(qm_err)?)?;
    eprintln!("saved {out}");
    Ok(())
}

/// `aptq eval-ppl --model FILE [--corpus c4|wiki] [--segments N]`
///
/// # Determinism
///
/// Bit-identical output at any `APTQ_THREADS` value: all heavy math
/// runs on the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn eval_ppl(flags: &Flags) -> Result<(), CliError> {
    let model = load_model(require(flags, "model").map_err(CliError::Usage)?)?;
    let style = match get_or(flags, "corpus", "c4") {
        "c4" => CorpusStyle::WebC4,
        "wiki" => CorpusStyle::Wiki,
        other => {
            return Err(CliError::Usage(format!(
                "--corpus must be c4 or wiki, got `{other}`"
            )))
        }
    };
    let n = get_usize(flags, "segments", 40).map_err(CliError::Usage)?;
    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let segs = CorpusGenerator::new(&grammar, &tok, style, 50_002)
        .segments(n, model.config().max_seq_len.min(64));
    let ppl = perplexity(&model, &segs).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!("perplexity: {ppl:.4}");
    Ok(())
}

/// `aptq eval-zs --model FILE [--items N]`
///
/// # Determinism
///
/// Bit-identical output at any `APTQ_THREADS` value: all heavy math
/// runs on the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn eval_zs(flags: &Flags) -> Result<(), CliError> {
    let model = load_model(require(flags, "model").map_err(CliError::Usage)?)?;
    let n = get_usize(flags, "items", 150).map_err(CliError::Usage)?;
    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let suites: Vec<TaskSuite> = ZeroShotTask::ALL
        .iter()
        .map(|&t| TaskSuite::generate(t, &grammar, &tok, n, 70_004))
        .collect();
    let results = evaluate_suites(&model, &suites).map_err(|e| CliError::Runtime(e.to_string()))?;
    for r in results {
        println!("{:<12} {:.1}%", r.name, r.accuracy * 100.0);
    }
    Ok(())
}

/// `aptq sensitivity --model FILE [--metric trace|weighted|empirical]`
///
/// `trace` (the default) is the mean Hessian trace that `aptq pack`
/// allocates by; `weighted` scales it by each layer's 2-bit RTN error;
/// `empirical` runs the 2-bit loss probe.
///
/// # Determinism
///
/// Bit-identical output at any `APTQ_THREADS` value: all heavy math
/// runs on the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn sensitivity(flags: &Flags) -> Result<(), CliError> {
    let model = load_model(require(flags, "model").map_err(CliError::Usage)?)?;
    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let mut session = QuantSession::new(calibration(
        &grammar,
        &tok,
        get_usize(flags, "segments", 32).map_err(CliError::Usage)?,
        model.config().max_seq_len,
    ));
    let cfg = GridConfig::default();
    let report = match get_or(flags, "metric", "trace") {
        "empirical" => {
            empirical_sensitivity(&model, session.calibration(), 2, &cfg, thread_count())
        }
        metric @ ("trace" | "weighted") => {
            let m = if metric == "trace" {
                SensitivityMetric::MeanTrace
            } else {
                SensitivityMetric::TraceTimesPerturbation
            };
            session
                .hessians(&model, HessianMode::AttentionAware)
                .map(|hessians| SensitivityReport::with_metric(&hessians, &model, m, 2, &cfg))
        }
        other => {
            return Err(CliError::Usage(format!(
                "--metric must be trace|weighted|empirical, got `{other}`"
            )))
        }
    }
    .map_err(|e| CliError::Runtime(e.to_string()))?;
    println!("{}", report.to_markdown());
    Ok(())
}

/// `aptq generate --model FILE --prompt TEXT [--tokens N] [--batch]`
///
/// Greedy generation through [`aptq_lm::generate::generate`]. With
/// `--batch`, `--prompt` is split on `|` into one prompt per sequence
/// and all sequences decode together in one
/// [`aptq_lm::decode::BatchDecodeSession`] (one projection call per
/// layer per step for the whole batch); each completion prints on its
/// own line, identical to running the prompts one at a time. Non-finite
/// logits in any sequence fail the command (exit code 1) before
/// anything is printed.
///
/// # Determinism
///
/// Bit-identical output at any `APTQ_THREADS` value: all heavy math
/// runs on the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn generate(flags: &Flags) -> Result<(), CliError> {
    let model = load_model(require(flags, "model").map_err(CliError::Usage)?)?;
    let prompt_text = require(flags, "prompt").map_err(CliError::Usage)?;
    let n = get_usize(flags, "tokens", 16).map_err(CliError::Usage)?;
    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let encode = |text: &str| {
        let mut prompt = vec![aptq_textgen::tokenizer::BOS];
        prompt.extend(tok.encode(text));
        prompt
    };
    let prompts: Vec<Vec<u32>> = if get_bool(flags, "batch") {
        prompt_text.split('|').map(encode).collect()
    } else {
        vec![encode(prompt_text)]
    };
    let outs = aptq_lm::generate::generate(
        &mut aptq_lm::decode::BatchDecodeSession::new(&model),
        &prompts,
        n,
        aptq_lm::generate::Sampler::Greedy,
    )
    .map_err(lm_err)?;
    for out in &outs {
        println!("{}", tok.decode(out));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parser_covers_table_rows() {
        assert_eq!(parse_method("fp16").unwrap(), Method::Fp16);
        assert_eq!(parse_method("gptq4").unwrap(), Method::Gptq { bits: 4 });
        assert_eq!(
            parse_method("aptq4").unwrap(),
            Method::AptqUniform { bits: 4 }
        );
        assert_eq!(
            parse_method("aptq-75").unwrap(),
            Method::AptqMixed { ratio: 0.75 }
        );
        assert_eq!(
            parse_method("blockwise-50").unwrap(),
            Method::ManualBlockwise { ratio: 0.5 }
        );
        assert_eq!(
            parse_method("pbllm-20").unwrap(),
            Method::PbLlm { salient_ratio: 0.2 }
        );
        assert!(parse_method("nope").is_err());
        assert!(parse_method("aptq-xx").is_err());
    }

    #[test]
    fn end_to_end_quantize_roundtrip_via_files() {
        let dir = std::env::temp_dir().join(format!("aptq-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.json");
        let out_path = dir.join("q.json");

        // Tiny model written directly (pretrain would be slow here).
        let grammar = Grammar::standard();
        let tok = Tokenizer::from_grammar(&grammar);
        let model = Model::new(&aptq_lm::ModelConfig::test_tiny(tok.vocab_size()), 1);
        std::fs::write(&model_path, model.to_json().unwrap()).unwrap();

        let mut flags = Flags::new();
        flags.insert("model".into(), model_path.to_string_lossy().into_owned());
        flags.insert("method".into(), "rtn4".into());
        flags.insert("out".into(), out_path.to_string_lossy().into_owned());
        flags.insert("segments".into(), "4".into());
        quantize(&flags).unwrap();
        // Saves now emit checksummed artifact envelopes…
        let saved = std::fs::read_to_string(&out_path).unwrap();
        assert!(aptq_artifact::is_envelope(&saved));
        let loaded = load_model(out_path.to_str().unwrap()).unwrap();
        assert!(loaded.forward(&[1, 2, 3]).all_finite());
        // …while bare `Model::to_json` checkpoints still load.
        let bare = load_model(model_path.to_str().unwrap()).unwrap();
        assert!(bare.forward(&[1, 2, 3]).all_finite());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_and_generate_run_on_files() {
        let dir = std::env::temp_dir().join(format!("aptq-cli-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.json");
        let grammar = Grammar::standard();
        let tok = Tokenizer::from_grammar(&grammar);
        let model = Model::new(&aptq_lm::ModelConfig::test_tiny(tok.vocab_size()), 2);
        std::fs::write(&model_path, model.to_json().unwrap()).unwrap();

        let mut flags = Flags::new();
        flags.insert("model".into(), model_path.to_string_lossy().into_owned());
        flags.insert("segments".into(), "4".into());
        eval_ppl(&flags).unwrap();

        flags.insert("items".into(), "5".into());
        eval_zs(&flags).unwrap();

        flags.insert("prompt".into(), "the crow".into());
        flags.insert("tokens".into(), "4".into());
        generate(&flags).unwrap();

        // Batched path: several prompts, '|'-separated.
        flags.insert("prompt".into(), "the crow|a fox runs".into());
        flags.insert("batch".into(), "true".into());
        generate(&flags).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_fails_with_exit_1_on_non_finite_logits() {
        let dir = std::env::temp_dir().join(format!("aptq-cli-test4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.json");
        let grammar = Grammar::standard();
        let tok = Tokenizer::from_grammar(&grammar);
        let mut model = Model::new(&aptq_lm::ModelConfig::test_tiny(tok.vocab_size()), 4);
        // Finite weights that overflow: the final norm scales some
        // hidden entry past 1 in magnitude, and f32::MAX times it is
        // ±inf, so every logit is non-finite (JSON cannot carry a NaN).
        model.final_norm_gain_mut().fill(4.0);
        model.lm_head_mut().as_mut_slice().fill(f32::MAX);
        std::fs::write(&model_path, model.to_json().unwrap()).unwrap();

        let mut flags = Flags::new();
        flags.insert("model".into(), model_path.to_string_lossy().into_owned());
        flags.insert("prompt".into(), "the crow|a fox runs".into());
        flags.insert("tokens".into(), "4".into());
        for batch in ["false", "true"] {
            flags.insert("batch".into(), batch.into());
            let err = generate(&flags).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
            assert_eq!(err.exit_code(), 1, "--batch {batch}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_inputs_are_reported() {
        let flags = Flags::new();
        assert!(quantize(&flags).is_err());
        assert!(eval_ppl(&flags).is_err());
        let mut flags = Flags::new();
        flags.insert("model".into(), "/nonexistent/x.json".into());
        let err = eval_ppl(&flags).unwrap_err();
        assert!(err.to_string().contains("reading"));
        assert_eq!(err.exit_code(), 3, "missing file is an I/O error");
    }

    #[test]
    fn error_classes_map_to_distinct_exit_codes() {
        // Usage: missing required flag.
        assert_eq!(eval_ppl(&Flags::new()).unwrap_err().exit_code(), 2);

        let dir = std::env::temp_dir().join(format!("aptq-cli-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tampered.json");
        let model = Model::new(&aptq_lm::ModelConfig::test_tiny(16), 3);
        let envelope = model.to_envelope_json().unwrap();
        // Corrupt one payload digit so the checksum fails.
        let body = envelope.find('\n').unwrap() + 1;
        let mid = body + (envelope.len() - body) / 2;
        let bytes: String = envelope
            .char_indices()
            .map(|(i, c)| {
                if i >= mid && i < mid + 60 && c.is_ascii_digit() {
                    if c == '1' {
                        '2'
                    } else {
                        '1'
                    }
                } else {
                    c
                }
            })
            .collect();
        assert_ne!(bytes, envelope);
        std::fs::write(&path, bytes).unwrap();
        let mut flags = Flags::new();
        flags.insert("model".into(), path.to_string_lossy().into_owned());
        let err = eval_ppl(&flags).unwrap_err();
        assert_eq!(err.exit_code(), 4, "tampered artifact: {err}");
        assert!(matches!(err, CliError::Integrity(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
