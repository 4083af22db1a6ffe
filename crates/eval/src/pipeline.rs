//! The quantize-then-evaluate driver: one [`Method`] value per row of
//! the paper's tables.

use aptq_core::grid::GridConfig;
use aptq_core::methods;
use aptq_core::methods::qat::QatConfig;
use aptq_core::mixed::AllocationPolicy;
use aptq_core::{QuantReport, QuantSession};
use aptq_lm::Model;
use serde::{Deserialize, Serialize};

use crate::EvalError;

/// Every quantization method appearing in Tables 1–3 and Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Method {
    /// Full-precision reference (no quantization).
    Fp16,
    /// Round-to-nearest at `bits`.
    Rtn {
        /// Bit-width.
        bits: u8,
    },
    /// GPTQ at `bits`.
    Gptq {
        /// Bit-width.
        bits: u8,
    },
    /// OWQ: GPTQ at `bits` with fp16 outlier input dims.
    Owq {
        /// Bit-width of the quantized portion.
        bits: u8,
        /// Outlier input dimensions kept fp16 per layer.
        outlier_dims: usize,
    },
    /// SmoothQuant-style migration then RTN at `bits`.
    SmoothQuant {
        /// Bit-width.
        bits: u8,
    },
    /// FPQ (E2M1 4-bit float).
    Fpq,
    /// LLM-QAT-style data-free QAT then RTN at `bits`.
    LlmQat {
        /// Bit-width.
        bits: u8,
    },
    /// PB-LLM partial binarization with this salient fp16 fraction.
    PbLlm {
        /// Fraction of weights kept fp16.
        salient_ratio: f32,
    },
    /// APTQ at uniform `bits` (attention-aware Hessians).
    AptqUniform {
        /// Bit-width.
        bits: u8,
    },
    /// APTQ mixed 2/4-bit at 4-bit weight ratio `ratio` (Eq. 18).
    AptqMixed {
        /// 4-bit weight fraction `R`.
        ratio: f32,
    },
    /// The Table 3 ablation: mixed 2/4-bit with block-order allocation.
    ManualBlockwise {
        /// 4-bit weight fraction `R`.
        ratio: f32,
    },
}

impl Method {
    /// Paper-facing row label.
    pub fn label(&self) -> String {
        match self {
            Method::Fp16 => "FP16".to_string(),
            Method::Rtn { bits } => format!("RTN ({bits}-bit)"),
            Method::Gptq { bits } => format!("GPTQ ({bits}-bit)"),
            Method::Owq { bits, .. } => format!("OWQ ({bits}-bit+outliers)"),
            Method::SmoothQuant { bits } => format!("SmoothQuant ({bits}-bit)"),
            Method::Fpq => "FPQ (4-bit float)".to_string(),
            Method::LlmQat { bits } => format!("LLM-QAT ({bits}-bit)"),
            Method::PbLlm { salient_ratio } => {
                format!("PB-LLM-{:.0}%", salient_ratio * 100.0)
            }
            Method::AptqUniform { bits } => format!("APTQ ({bits}-bit)"),
            Method::AptqMixed { ratio } => format!("APTQ-{:.0}%", ratio * 100.0),
            Method::ManualBlockwise { ratio } => {
                format!("Manual Block-wise-{:.0}%", ratio * 100.0)
            }
        }
    }

    /// Applies the method to `model` in place, drawing calibration data,
    /// Hessians and sensitivity rankings from `session` so consecutive
    /// method rows over the same model share one activation-capture pass
    /// per [`aptq_core::HessianMode`].
    ///
    /// Returns the quantization report (`None` for [`Method::Fp16`]).
    ///
    /// Scheduler and cache telemetry accumulates in the session's
    /// [`aptq_obs::Recorder`] (see [`QuantSession::metrics`]).
    ///
    /// # Determinism
    ///
    /// Every method routes through index-ordered schedulers on the
    /// shared threadpool ([`aptq_tensor::parallel`]); reports, weights
    /// and counters are bit-identical at any `APTQ_THREADS` value.
    ///
    /// # Errors
    ///
    /// Propagates quantization failures.
    pub fn apply(
        &self,
        model: &mut Model,
        session: &mut QuantSession,
        cfg: &GridConfig,
    ) -> Result<Option<QuantReport>, EvalError> {
        let report = match *self {
            Method::Fp16 => None,
            Method::Rtn { bits } => Some(methods::rtn::quantize(model, bits, cfg)?),
            Method::Gptq { bits } => Some(methods::gptq::quantize(model, session, bits, cfg)?),
            Method::Owq { bits, outlier_dims } => Some(methods::owq::quantize(
                model,
                session,
                bits,
                outlier_dims,
                cfg,
            )?),
            Method::SmoothQuant { bits } => Some(methods::smoothquant::quantize(
                model,
                session.calibration(),
                bits,
                0.5,
                cfg,
            )?),
            Method::Fpq => Some(methods::fpq::quantize(model, cfg)?),
            Method::LlmQat { bits } => Some(methods::qat::quantize(
                model,
                bits,
                &QatConfig::default(),
                cfg,
            )?),
            Method::PbLlm { salient_ratio } => Some(methods::pbllm::quantize(
                model,
                session,
                salient_ratio,
                cfg,
            )?),
            Method::AptqUniform { bits } => {
                Some(methods::aptq::quantize_uniform(model, session, bits, cfg)?)
            }
            Method::AptqMixed { ratio } => Some(
                methods::aptq::quantize_mixed(
                    model,
                    session,
                    ratio,
                    AllocationPolicy::HessianTrace,
                    cfg,
                )?
                .0,
            ),
            Method::ManualBlockwise { ratio } => Some(
                methods::aptq::quantize_mixed(
                    model,
                    session,
                    ratio,
                    AllocationPolicy::ManualBlockwise,
                    cfg,
                )?
                .0,
            ),
        };
        Ok(report)
    }

    /// Nominal average bit-width (the "Avg bit" table column; fp16 = 16).
    ///
    /// For [`Method::Owq`] the fp16 outlier overhead depends on the model
    /// shape — this model-free variant reports the base width; use
    /// [`nominal_avg_bits_for`](Method::nominal_avg_bits_for) where a
    /// model is available.
    pub fn nominal_avg_bits(&self) -> f32 {
        match *self {
            Method::Fp16 => 16.0,
            Method::Rtn { bits }
            | Method::Gptq { bits }
            | Method::SmoothQuant { bits }
            | Method::LlmQat { bits }
            | Method::AptqUniform { bits }
            | Method::Owq { bits, .. } => bits as f32,
            Method::Fpq => 4.0,
            Method::PbLlm { salient_ratio } => methods::pbllm::average_bits(salient_ratio),
            Method::AptqMixed { ratio } | Method::ManualBlockwise { ratio } => {
                aptq_core::plan::eq18_average_bits(ratio)
            }
        }
    }

    /// Nominal average bit-width including model-shape-dependent
    /// overheads: for [`Method::Owq`] the true fp16 outlier-row storage
    /// (`(16 − bits) · exempted/total`), matching what
    /// `QuantReport::avg_bits` measures after quantization.
    pub fn nominal_avg_bits_for(&self, model: &Model) -> f32 {
        match *self {
            Method::Owq { bits, outlier_dims } => {
                bits as f32 + methods::owq::extra_avg_bits(model, outlier_dims, bits)
            }
            _ => self.nominal_avg_bits(),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Outcome of applying a method and measuring it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// The method row label.
    pub method: String,
    /// Nominal average bits.
    pub avg_bits: f32,
    /// Measured average bits from the quantization report (fp16 = 16).
    pub measured_bits: f32,
    /// Metric values keyed by metric name (e.g. `"C4"`, `"PIQA"`).
    pub metrics: Vec<(String, f32)>,
}

/// Applies `method` to a clone of `model` and returns the quantized
/// clone plus its measured average bits (16 for [`Method::Fp16`]),
/// drawing shared state from `session`. Because the base model is
/// cloned before quantization, its fingerprint — and thus the session's
/// Hessian cache — stays valid across any number of rows.
///
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS`; see [`Method::apply`].
///
/// # Errors
///
/// Propagates quantization failures.
pub fn quantize_clone(
    model: &Model,
    method: Method,
    session: &mut QuantSession,
    cfg: &GridConfig,
) -> Result<(Model, f32), EvalError> {
    let mut m = model.clone();
    let report = method.apply(&mut m, session, cfg)?;
    let measured = report.as_ref().map(|r| r.avg_bits).unwrap_or(16.0);
    Ok((m, measured))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_lm::ModelConfig;

    fn calib() -> Vec<Vec<u32>> {
        (0..4)
            .map(|k| (0..12).map(|i| ((i * 3 + k) % 16) as u32).collect())
            .collect()
    }

    #[test]
    fn all_methods_apply_cleanly() {
        let base = Model::new(&ModelConfig::test_tiny(16), 31);
        let cfg = GridConfig::default();
        let methods = [
            Method::Fp16,
            Method::Rtn { bits: 4 },
            Method::Gptq { bits: 4 },
            Method::Owq {
                bits: 4,
                outlier_dims: 1,
            },
            Method::SmoothQuant { bits: 4 },
            Method::Fpq,
            Method::PbLlm { salient_ratio: 0.2 },
            Method::AptqUniform { bits: 4 },
            Method::AptqMixed { ratio: 0.75 },
            Method::ManualBlockwise { ratio: 0.75 },
        ];
        for m in methods {
            let (quantized, bits) =
                quantize_clone(&base, m, &mut QuantSession::new(calib()), &cfg).unwrap();
            assert!(quantized.forward(&[1, 2, 3]).all_finite(), "{m}");
            assert!(bits > 0.0, "{m}");
            assert!(!m.label().is_empty());
            assert!(m.nominal_avg_bits() > 0.0);
        }
    }

    #[test]
    fn fp16_leaves_model_untouched() {
        let base = Model::new(&ModelConfig::test_tiny(16), 32);
        let (same, bits) = quantize_clone(
            &base,
            Method::Fp16,
            &mut QuantSession::new(calib()),
            &GridConfig::default(),
        )
        .unwrap();
        assert_eq!(base.forward(&[1, 2]), same.forward(&[1, 2]));
        assert_eq!(bits, 16.0);
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Method::AptqMixed { ratio: 0.75 }.label(), "APTQ-75%");
        assert_eq!(Method::Fp16.label(), "FP16");
        assert!(Method::PbLlm { salient_ratio: 0.2 }
            .label()
            .contains("PB-LLM-20%"));
    }

    #[test]
    fn nominal_bits_follow_eq18() {
        assert_eq!(Method::AptqMixed { ratio: 1.0 }.nominal_avg_bits(), 4.0);
        assert_eq!(Method::AptqMixed { ratio: 0.5 }.nominal_avg_bits(), 3.0);
        assert!((Method::AptqMixed { ratio: 0.75 }.nominal_avg_bits() - 3.5).abs() < 1e-6);
    }

    #[test]
    fn owq_nominal_bits_match_measured_storage() {
        let base = Model::new(&ModelConfig::test_tiny(16), 33);
        for outlier_dims in [1usize, 3] {
            let method = Method::Owq {
                bits: 4,
                outlier_dims,
            };
            let (_, measured) = quantize_clone(
                &base,
                method,
                &mut QuantSession::new(calib()),
                &GridConfig::default(),
            )
            .unwrap();
            let nominal = method.nominal_avg_bits_for(&base);
            assert!(
                (nominal - measured).abs() < 1e-3,
                "outlier_dims={outlier_dims}: nominal {nominal} vs measured {measured}"
            );
            assert!(nominal > 4.0, "fp16 rows must add storage");
        }
        // Model-free variant stays at the base width.
        assert_eq!(
            Method::Owq {
                bits: 4,
                outlier_dims: 1
            }
            .nominal_avg_bits(),
            4.0
        );
    }

    #[test]
    fn one_capture_pass_per_hessian_mode_across_methods() {
        let base = Model::new(&ModelConfig::test_tiny(16), 34);
        let cfg = GridConfig::default();
        let mut session = QuantSession::new(calib());
        // A Table-1-style multi-method sweep: three LayerInput consumers,
        // three AttentionAware consumers, plus methods needing neither.
        let rows = [
            Method::Fp16,
            Method::Gptq { bits: 4 },
            Method::Owq {
                bits: 4,
                outlier_dims: 1,
            },
            Method::PbLlm { salient_ratio: 0.2 },
            Method::AptqUniform { bits: 4 },
            Method::AptqMixed { ratio: 0.75 },
            Method::AptqMixed { ratio: 0.5 },
            Method::ManualBlockwise { ratio: 0.5 },
        ];
        for m in rows {
            quantize_clone(&base, m, &mut session, &cfg).unwrap();
        }
        assert_eq!(
            session.capture_passes(),
            2,
            "exactly one activation-capture pass per HessianMode"
        );
    }
}
