//! # aptq-eval
//!
//! Evaluation harness for the APTQ reproduction: exactly the two metrics
//! the paper reports, plus the plumbing to run every method end-to-end.
//!
//! - [`perplexity`](mod@perplexity): corpus perplexity (the paper's Table 1 / Figure 2
//!   metric) on the synthetic C4 and WikiText-2 stand-ins.
//! - [`zeroshot`]: multiple-choice accuracy by length-normalized
//!   log-likelihood — the lm-eval-harness scoring rule used by Table 2.
//! - [`pipeline`]: one enum over every method in the paper
//!   ([`pipeline::Method`]) and the quantize-then-evaluate driver.
//! - [`zoo`]: pretraining + checkpoint caching for the TinyLlama-S/M
//!   stand-ins (the paper's LLaMA-7B/13B).
//! - [`tables`]: markdown renderers for the regenerated tables.

pub mod perplexity;
pub mod pipeline;
pub mod tables;
pub mod zeroshot;
pub mod zoo;

pub use perplexity::{perplexity, perplexity_recorded};
pub use pipeline::{EvalOutcome, Method};
pub use zeroshot::{evaluate_suite, evaluate_suites, SuiteResult};

/// Errors surfaced by the evaluation harness.
#[derive(Debug)]
pub enum EvalError {
    /// Quantization failed.
    Quant(aptq_core::QuantError),
    /// Model inference failed.
    Lm(aptq_lm::LmError),
    /// Evaluation input was empty.
    EmptyInput(&'static str),
    /// Checkpoint I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Quant(e) => write!(f, "quantization failed: {e}"),
            EvalError::Lm(e) => write!(f, "model error: {e}"),
            EvalError::EmptyInput(what) => write!(f, "empty evaluation input: {what}"),
            EvalError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Quant(e) => Some(e),
            EvalError::Lm(e) => Some(e),
            EvalError::Io(e) => Some(e),
            EvalError::EmptyInput(_) => None,
        }
    }
}

impl From<aptq_core::QuantError> for EvalError {
    fn from(e: aptq_core::QuantError) -> Self {
        EvalError::Quant(e)
    }
}

impl From<aptq_lm::LmError> for EvalError {
    fn from(e: aptq_lm::LmError) -> Self {
        EvalError::Lm(e)
    }
}

impl From<std::io::Error> for EvalError {
    fn from(e: std::io::Error) -> Self {
        EvalError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_and_chain() {
        use std::error::Error;
        let e = EvalError::Quant(aptq_core::QuantError::EmptyCalibration);
        assert!(e.to_string().contains("quantization"));
        assert!(e.source().is_some());
        assert!(EvalError::EmptyInput("segments")
            .to_string()
            .contains("segments"));
    }
}
