//! # aptq-core
//!
//! The quantization library of the APTQ reproduction — the paper's
//! primary contribution plus every baseline it compares against.
//!
//! ## What the paper proposes (and where it lives here)
//!
//! 1. **Attention-aware Hessian quantization** (§3.2, Eqs. 5–17).
//!    GPTQ minimizes `‖WX − ŴX‖²` per layer with Hessian `H = 2XXᵀ`.
//!    APTQ minimizes `‖F(W) − F(Ŵ)‖²` where `F` is the whole attention
//!    output — including the softmax — and takes the Levenberg–Marquardt
//!    Hessian `H = 2·F′F′ᵀ` (Eq. 7). Module [`attn`] builds those
//!    Hessians from the per-projection Jacobians of Eqs. (9)–(15);
//!    module [`engine`] runs the shared OBQ/GPTQ column-update machinery
//!    (Eqs. 16–17, Cholesky form) under whichever Hessian it is given.
//! 2. **Hessian-trace mixed precision** (§3.3, Eq. 18). Module [`trace`]
//!    computes the average-trace sensitivity per layer; module [`mixed`]
//!    allocates 4-bit vs 2-bit layer budgets for a target 4-bit ratio
//!    `R`, against the manual block-wise baseline of the Table 3
//!    ablation.
//!
//! ## Baselines
//!
//! [`methods`] implements every comparator in Tables 1–2: RTN, GPTQ,
//! OWQ-style outlier-kept quantization, PB-LLM-style partial
//! binarization, SmoothQuant-style scale migration, FPQ-style 4-bit
//! floats, and an LLM-QAT-style data-free quantization-aware finetune.
//!
//! ## Example
//!
//! ```
//! use aptq_core::grid::{GridConfig, QuantGrid};
//!
//! let grid = QuantGrid::int(4, true);
//! let w = [0.31f32, -0.77, 0.02, 0.55];
//! let (codes, deq, params) = grid.quantize_group(&w);
//! assert_eq!(codes.len(), 4);
//! // Round-trip error is bounded by half a step.
//! let step = params.scale;
//! for (orig, back) in w.iter().zip(deq.iter()) {
//!     assert!((orig - back).abs() <= step * 0.5 + 1e-6);
//! }
//! # let _ = GridConfig::default();
//! ```

pub mod attn;
pub mod calib;
pub mod engine;
pub mod grid;
pub mod hessian;
pub mod invariants;
pub mod methods;
pub mod mixed;
pub mod pack;
pub mod plan;
pub mod report;
pub mod session;
pub mod trace;

pub use calib::collect_hessians;
pub use hessian::{HessianMode, LayerHessian};
pub use mixed::{AllocationPolicy, MixedPrecisionAllocator};
pub use plan::QuantPlan;
pub use report::QuantReport;
pub use session::QuantSession;

/// Errors surfaced by the quantization pipelines.
#[derive(Debug)]
pub enum QuantError {
    /// The Hessian could not be factorized even after damping escalation.
    HessianNotInvertible {
        /// Display name of the offending layer.
        layer: String,
    },
    /// Calibration data was empty or produced no tokens.
    EmptyCalibration,
    /// A plan referenced a layer that does not exist in the model.
    UnknownLayer {
        /// Display name of the missing layer.
        layer: String,
    },
    /// Requested bit-width is unsupported.
    UnsupportedBits {
        /// The requested width.
        bits: u8,
    },
    /// A ratio parameter was outside `[0, 1]`.
    InvalidRatio {
        /// The offending value.
        ratio: f32,
    },
    /// The sensitivity probe measured a non-finite loss, which cannot be
    /// ranked.
    NonFiniteLoss {
        /// The first offending layer, or `unperturbed model` for the
        /// base loss.
        layer: String,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::HessianNotInvertible { layer } => {
                write!(
                    f,
                    "hessian for layer {layer} is not invertible even after damping"
                )
            }
            QuantError::EmptyCalibration => {
                write!(f, "calibration set is empty")
            }
            QuantError::UnknownLayer { layer } => {
                write!(f, "plan references unknown layer {layer}")
            }
            QuantError::UnsupportedBits { bits } => {
                write!(f, "unsupported bit-width {bits} (expected 1..=8)")
            }
            QuantError::InvalidRatio { ratio } => {
                write!(f, "ratio {ratio} outside [0, 1]")
            }
            QuantError::NonFiniteLoss { layer } => {
                write!(f, "sensitivity probe loss for {layer} is not finite")
            }
        }
    }
}

impl std::error::Error for QuantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format() {
        let e = QuantError::HessianNotInvertible {
            layer: "layers.0.self_attn.q_proj".into(),
        };
        assert!(e.to_string().contains("q_proj"));
        assert!(QuantError::EmptyCalibration.to_string().contains("empty"));
        assert!(QuantError::UnsupportedBits { bits: 9 }
            .to_string()
            .contains('9'));
        assert!(QuantError::InvalidRatio { ratio: 1.5 }
            .to_string()
            .contains("1.5"));
        assert!(QuantError::UnknownLayer { layer: "x".into() }
            .to_string()
            .contains('x'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantError>();
    }
}
