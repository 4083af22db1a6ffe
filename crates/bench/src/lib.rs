//! # aptq-bench
//!
//! Experiment harness regenerating every table and figure of the APTQ
//! paper. Wall-clock timing lives in the standalone `benchmark/`
//! package, which runs with noise control and archives its results.
//!
//! Full-scale regeneration binaries (see `DESIGN.md` §4 for the mapping):
//!
//! ```text
//! cargo run -p aptq-bench --bin table1 --release   # Table 1: PPL on C4 + WikiText-2
//! cargo run -p aptq-bench --bin table2 --release   # Table 2: zero-shot accuracy, both models
//! cargo run -p aptq-bench --bin table3 --release   # Table 3: APTQ vs manual block-wise
//! cargo run -p aptq-bench --bin fig2   --release   # Figure 2: PPL vs 4-bit ratio sweep
//! ```
//!
//! Each binary prints a markdown table (and, for fig2, an ASCII chart)
//! and writes the same content under `results/`.

use std::path::PathBuf;

use aptq_core::grid::GridConfig;
use aptq_core::QuantSession;
use aptq_eval::pipeline::{quantize_clone, EvalOutcome, Method};
use aptq_eval::zoo::{load_or_train, ModelSize, PretrainBudget, TrainedStack};
use aptq_eval::{evaluate_suites, perplexity, EvalError};
use aptq_textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq_textgen::{TaskSuite, ZeroShotTask};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Pretraining budget.
    pub budget: PretrainBudget,
    /// Calibration segments (paper: 128).
    pub n_calib: usize,
    /// Tokens per calibration segment (paper: 2048).
    pub calib_len: usize,
    /// Held-out evaluation segments per corpus.
    pub n_eval: usize,
    /// Tokens per evaluation segment.
    pub eval_len: usize,
    /// Items per zero-shot suite.
    pub n_task_items: usize,
}

impl ExperimentScale {
    /// The scale used for the reported experiments.
    pub fn full() -> Self {
        ExperimentScale {
            budget: PretrainBudget::full(),
            n_calib: 64,
            calib_len: 64,
            n_eval: 40,
            eval_len: 64,
            n_task_items: 150,
        }
    }

    /// A smoke-test scale: the binaries' `--smoke` flag, and tests.
    pub fn smoke() -> Self {
        ExperimentScale {
            budget: PretrainBudget::quick(),
            n_calib: 8,
            calib_len: 32,
            n_eval: 6,
            eval_len: 32,
            n_task_items: 20,
        }
    }
}

/// A fully prepared experiment: trained model, calibration set, held-out
/// eval corpora and task suites.
pub struct Experiment {
    /// Trained model + language stack.
    pub stack: TrainedStack,
    /// Shared quantization session: owns the calibration snapshot and
    /// caches Hessians/sensitivities across every method row, so a
    /// multi-method table performs one capture pass per [`aptq_core::HessianMode`].
    pub session: QuantSession,
    /// Held-out SyntheticC4 eval segments.
    pub eval_c4: Vec<Vec<u32>>,
    /// Held-out SyntheticWiki eval segments.
    pub eval_wiki: Vec<Vec<u32>>,
    /// The five zero-shot suites.
    pub suites: Vec<TaskSuite>,
    /// Grid configuration shared by all methods.
    pub grid: GridConfig,
}

impl Experiment {
    /// Prepares an experiment for one model size, caching the pretrained
    /// checkpoint under `assets/` when `cache` is true.
    ///
    /// # Errors
    ///
    /// Propagates training/checkpoint errors.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: training, capture and
    /// evaluation all run on the deterministic threadpool
    /// ([`aptq_tensor::parallel`]) from fixed seeds.
    pub fn prepare(
        size: ModelSize,
        scale: ExperimentScale,
        cache: bool,
    ) -> Result<Self, EvalError> {
        let cache_dir = cache.then(aptq_eval::zoo::default_cache_dir);
        let stack = load_or_train(size, scale.budget, cache_dir.as_deref())?;

        // Calibration from the training distribution (seed differs from
        // training so segments are fresh), eval from held-out seeds.
        let session = stack.calibration_session(scale.n_calib, scale.calib_len);
        let mut c4_gen =
            CorpusGenerator::new(&stack.grammar, &stack.tokenizer, CorpusStyle::WebC4, 50_002);
        let eval_c4 = c4_gen.segments(scale.n_eval, scale.eval_len);
        let mut wiki_gen =
            CorpusGenerator::new(&stack.grammar, &stack.tokenizer, CorpusStyle::Wiki, 60_003);
        let eval_wiki = wiki_gen.segments(scale.n_eval, scale.eval_len);

        let suites = ZeroShotTask::ALL
            .iter()
            .map(|&t| {
                TaskSuite::generate(
                    t,
                    &stack.grammar,
                    &stack.tokenizer,
                    scale.n_task_items,
                    70_004,
                )
            })
            .collect();

        Ok(Experiment {
            stack,
            session,
            eval_c4,
            eval_wiki,
            suites,
            grid: GridConfig::default(),
        })
    }

    /// Quantizes a clone with `method` and measures perplexity on both
    /// corpora (one Table 1 / Figure 2 row).
    ///
    /// # Errors
    ///
    /// Propagates quantization/evaluation failures.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: training, capture and
    /// evaluation all run on the deterministic threadpool
    /// ([`aptq_tensor::parallel`]) from fixed seeds.
    pub fn perplexity_row(&mut self, method: Method) -> Result<EvalOutcome, EvalError> {
        let (model, measured) =
            quantize_clone(&self.stack.model, method, &mut self.session, &self.grid)?;
        let c4 = perplexity(&model, &self.eval_c4)?;
        let wiki = perplexity(&model, &self.eval_wiki)?;
        Ok(EvalOutcome {
            method: method.label(),
            avg_bits: method.nominal_avg_bits_for(&self.stack.model),
            measured_bits: measured,
            metrics: vec![("C4".to_string(), c4), ("WikiText-2".to_string(), wiki)],
        })
    }

    /// Quantizes a clone with `method` and measures zero-shot accuracy
    /// on all suites plus the mean (one Table 2 row; accuracies in %).
    ///
    /// # Errors
    ///
    /// Propagates quantization/evaluation failures.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: training, capture and
    /// evaluation all run on the deterministic threadpool
    /// ([`aptq_tensor::parallel`]) from fixed seeds.
    pub fn zeroshot_row(&mut self, method: Method) -> Result<EvalOutcome, EvalError> {
        let (model, measured) =
            quantize_clone(&self.stack.model, method, &mut self.session, &self.grid)?;
        let results = evaluate_suites(&model, &self.suites)?;
        Ok(EvalOutcome {
            method: method.label(),
            avg_bits: method.nominal_avg_bits_for(&self.stack.model),
            measured_bits: measured,
            metrics: results
                .into_iter()
                .map(|r| (r.name, r.accuracy * 100.0))
                .collect(),
        })
    }
}

/// Writes experiment output both to stdout and `results/<name>`.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn emit(name: &str, content: &str) -> Result<(), EvalError> {
    println!("{content}");
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(name), content)?;
    Ok(())
}

/// `results/` under the workspace root.
pub fn results_dir() -> PathBuf {
    // audit:allow(env): CARGO_MANIFEST_DIR is a cargo-injected build constant, not runtime config
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        p.ancestors()
            .nth(2)
            .map(|r| r.join("results"))
            .unwrap_or_else(|| p.join("results"))
    } else {
        PathBuf::from("results")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_experiment_prepares_and_runs_one_row() {
        let mut exp =
            Experiment::prepare(ModelSize::Small, ExperimentScale::smoke(), false).unwrap();
        assert_eq!(exp.suites.len(), 5);
        let fp16 = exp.perplexity_row(Method::Fp16).unwrap();
        assert_eq!(fp16.metrics.len(), 2);
        assert!(fp16.metrics[0].1 > 1.0, "PPL must exceed 1");
        let rtn = exp.perplexity_row(Method::Rtn { bits: 4 }).unwrap();
        assert!(
            rtn.metrics[0].1 >= fp16.metrics[0].1 * 0.8,
            "4-bit RTN should not be wildly better than fp16"
        );
    }

    #[test]
    fn zeroshot_row_has_six_columns() {
        let mut exp =
            Experiment::prepare(ModelSize::Small, ExperimentScale::smoke(), false).unwrap();
        let row = exp.zeroshot_row(Method::Fp16).unwrap();
        assert_eq!(row.metrics.len(), 6); // 5 suites + mean
        assert_eq!(row.metrics.last().unwrap().0, "Mean");
    }
}
