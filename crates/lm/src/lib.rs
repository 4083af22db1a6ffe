//! # aptq-lm
//!
//! LLaMA-family transformer substrate for the APTQ reproduction.
//!
//! The APTQ paper quantizes LLaMA-7B/13B checkpoints. Those checkpoints
//! (and the GPUs to run them) are not available in this environment, so —
//! per the substitution policy in `DESIGN.md` — this crate implements the
//! same architecture family at laptop scale and pretrains it from scratch
//! on the synthetic corpus from `aptq-textgen`:
//!
//! - token embedding, **RMSNorm**, **rotary position embeddings (RoPE)**,
//!   multi-head **causal attention**, **SwiGLU** feed-forward, untied LM
//!   head — the LLaMA block structure;
//! - one forward, the inference core, which decoding, evaluation,
//!   calibration and training all run;
//! - **activation capture** ([`ModelOf::forward_blocks`]) exposing
//!   exactly the intermediate quantities APTQ's attention-aware Hessians
//!   need: per-layer inputs, per-head attention probabilities, head outputs;
//! - a complete, hand-written **backward pass** for every module, reading
//!   that capture, enabling in-repo pretraining (Adam) and the
//!   LLM-QAT-style baseline;
//! - deterministic generation and serde checkpointing.
//!
//! # Example
//!
//! ```
//! use aptq_lm::{Model, ModelConfig};
//!
//! let cfg = ModelConfig::test_tiny(32);
//! let model = Model::new(&cfg, 42);
//! let tokens = vec![1u32, 2, 3, 4];
//! let logits = model.forward(&tokens);
//! assert_eq!(logits.shape(), (4, cfg.vocab_size));
//! ```

pub mod adam;
pub mod attention;
pub mod block;
pub mod capture;
pub mod config;
pub mod decode;
pub mod ffn;
pub mod generate;
pub mod linear;
pub mod model;
pub mod rmsnorm;
pub mod rope;
pub mod train;

pub use capture::{BlockCapture, CaptureSink};
pub use config::ModelConfig;
pub use linear::{Linear, LinearOp};
pub use model::{LayerKind, LayerRef, Model, ModelOf};
pub use train::{TrainReport, Trainer, TrainerConfig};

/// Errors surfaced by model construction, checkpointing and inference.
#[derive(Debug)]
pub enum LmError {
    /// A token id was outside the configured vocabulary.
    TokenOutOfRange {
        /// Offending token id.
        token: u32,
        /// Configured vocabulary size.
        vocab: usize,
    },
    /// Input sequence was empty where at least one token is required.
    EmptyInput,
    /// Checkpoint (de)serialization or integrity validation failed.
    /// Carries the structured [`aptq_artifact::ArtifactError`] so
    /// callers can distinguish a parse failure from a checksum
    /// mismatch through `source()`.
    Checkpoint(aptq_artifact::ArtifactError),
    /// A decode step produced non-finite logits; the sequence is
    /// quarantined (solo sessions refuse further tokens, batched
    /// sessions evict the row).
    NonFiniteLogits {
        /// Decode position at which the non-finite row appeared.
        pos: usize,
    },
    /// A configuration invariant was violated.
    InvalidConfig(String),
    /// A decode session consumed all `max_seq_len` positions.
    SequenceFull {
        /// Position the rejected token would have occupied.
        pos: usize,
        /// The configured sequence capacity.
        max_seq_len: usize,
    },
    /// A batched decode step referenced a sequence id that was never
    /// joined or has already left.
    UnknownSeq {
        /// The offending sequence id.
        seq: usize,
    },
    /// The same sequence id appeared more than once in one batched step.
    DuplicateSeq {
        /// The repeated sequence id.
        seq: usize,
    },
}

impl std::fmt::Display for LmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LmError::TokenOutOfRange { token, vocab } => {
                write!(f, "token id {token} out of range for vocabulary of {vocab}")
            }
            LmError::EmptyInput => write!(f, "input sequence must contain at least one token"),
            LmError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            LmError::NonFiniteLogits { pos } => {
                write!(
                    f,
                    "non-finite logits at decode position {pos}: sequence quarantined"
                )
            }
            LmError::InvalidConfig(msg) => write!(f, "invalid model config: {msg}"),
            LmError::SequenceFull { pos, max_seq_len } => {
                write!(f, "decode position {pos} exceeds max_seq_len {max_seq_len}")
            }
            LmError::UnknownSeq { seq } => {
                write!(f, "sequence {seq} is not active in this batch session")
            }
            LmError::DuplicateSeq { seq } => {
                write!(
                    f,
                    "sequence {seq} appears more than once in one batched step"
                )
            }
        }
    }
}

impl std::error::Error for LmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LmError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aptq_artifact::ArtifactError> for LmError {
    fn from(e: aptq_artifact::ArtifactError) -> Self {
        LmError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format() {
        assert!(LmError::TokenOutOfRange { token: 9, vocab: 4 }
            .to_string()
            .contains('9'));
        assert!(!LmError::EmptyInput.to_string().is_empty());
        let ck = LmError::Checkpoint(aptq_artifact::ArtifactError::Malformed("x".into()));
        assert!(ck.to_string().contains('x'));
        assert!(std::error::Error::source(&ck).is_some());
        assert!(LmError::InvalidConfig("y".into()).to_string().contains('y'));
        assert!(LmError::NonFiniteLogits { pos: 3 }
            .to_string()
            .contains('3'));
        let full = LmError::SequenceFull {
            pos: 32,
            max_seq_len: 32,
        };
        assert!(full.to_string().contains("32"));
        assert!(LmError::UnknownSeq { seq: 4 }.to_string().contains('4'));
        assert!(LmError::DuplicateSeq { seq: 2 }.to_string().contains('2'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LmError>();
    }
}
