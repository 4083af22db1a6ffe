//! LLM-QAT-style data-free quantization-aware finetuning
//! [Liu et al., 2023].
//!
//! LLM-QAT's two defining ideas, reproduced at our scale:
//!
//! 1. **Data-free**: training sequences are *sampled from the
//!    full-precision model itself*, so no external corpus is needed.
//! 2. **Quantization-aware training** with a straight-through estimator:
//!    each step evaluates loss/gradients at the RTN-quantized weights and
//!    applies the update to the full-precision master weights.
//!
//! After the finetune the master weights are RTN-quantized one final
//! time. As in the paper's tables, this QAT point is *worse* than good
//! PTQ at 4 bits when the budget is small — QAT needs far more compute
//! to pay off, which is exactly the paper's argument for PTQ.

use aptq_lm::adam::{Adam, AdamConfig};
use aptq_lm::decode::BatchDecodeSession;
use aptq_lm::generate::{generate, SampleConfig, Sampler};
use aptq_lm::train::batch_grads;
use aptq_lm::Model;
use aptq_tensor::init;

use crate::grid::GridConfig;
use crate::methods::rtn;
use crate::report::QuantReport;
use crate::QuantError;

/// QAT hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QatConfig {
    /// Finetune steps.
    pub steps: usize,
    /// Self-generated sequences per step.
    pub batch_size: usize,
    /// Length of each self-generated sequence.
    pub seq_len: usize,
    /// Sampling temperature for data generation.
    pub temperature: f32,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed for data generation.
    pub seed: u64,
}

impl Default for QatConfig {
    fn default() -> Self {
        QatConfig {
            steps: 30,
            batch_size: 8,
            seq_len: 24,
            temperature: 1.0,
            lr: 1e-4,
            seed: 77,
        }
    }
}

/// Runs the data-free QAT finetune, then RTN-quantizes to `bits`.
///
/// # Errors
///
/// Propagates grid errors from the final quantization step.
///
/// # Determinism
///
/// Bit-identical across `APTQ_THREADS`: the fine-tuning loop is seeded
/// and every matmul routes through `aptq_tensor::parallel`, which keeps
/// the sequential accumulation order.
pub fn quantize(
    model: &mut Model,
    bits: u8,
    qat: &QatConfig,
    cfg: &GridConfig,
) -> Result<QuantReport, QuantError> {
    let mut rng = init::rng(qat.seed);
    let teacher = model.clone();
    let mut adam = Adam::new(
        model,
        AdamConfig {
            lr: qat.lr,
            ..AdamConfig::default()
        },
    );

    for _ in 0..qat.steps {
        // 1. Self-generate a batch from the fp teacher (data-free). One
        //    prompt per call: sampling them in one call would interleave
        //    their RNG draws and so change the generated data.
        let batch: Vec<Vec<u32>> = (0..qat.batch_size)
            .map(|i| {
                let prompt = [(i as u32) % teacher.config().vocab_size as u32];
                let sampler = Sampler::Sample {
                    cfg: SampleConfig {
                        temperature: qat.temperature,
                        top_k: 0,
                    },
                    rng: &mut rng,
                };
                generate(
                    &mut BatchDecodeSession::new(&teacher),
                    &[prompt],
                    qat.seq_len,
                    sampler,
                )
                .expect("teacher generation cannot fail on valid prompts")
                .swap_remove(0)
            })
            .collect();

        // 2. STE: evaluate gradients at the quantized point.
        let mut shadow = model.clone();
        rtn::quantize(&mut shadow, bits, cfg)?;
        let (_, mut grads) = batch_grads(&shadow, &batch);
        grads.scale_assign(1.0 / qat.batch_size as f32);

        // 3. Update the full-precision master weights.
        adam.step(model, &grads);
    }

    // Final quantization of the adapted master weights.
    let mut report = rtn::quantize(model, bits, cfg)?;
    report.method = format!("LLM-QAT-{bits}bit");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_lm::ModelConfig;

    #[test]
    fn qat_runs_and_produces_finite_model() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 28);
        let qat = QatConfig {
            steps: 3,
            batch_size: 2,
            seq_len: 8,
            ..QatConfig::default()
        };
        let report = quantize(&mut model, 4, &qat, &GridConfig::default()).unwrap();
        assert!(report.method.contains("QAT"));
        assert_eq!(report.avg_bits, 4.0);
        assert!(model.forward(&[1, 2, 3]).all_finite());
    }

    #[test]
    fn qat_is_deterministic_for_fixed_seed() {
        let cfg = GridConfig::default();
        let qat = QatConfig {
            steps: 2,
            batch_size: 2,
            seq_len: 8,
            ..QatConfig::default()
        };
        let mut a = Model::new(&ModelConfig::test_tiny(16), 29);
        let mut b = a.clone();
        quantize(&mut a, 4, &qat, &cfg).unwrap();
        quantize(&mut b, 4, &qat, &cfg).unwrap();
        assert_eq!(a.forward(&[1, 2]), b.forward(&[1, 2]));
    }

    #[test]
    fn qat_improves_quantized_loss_on_teacher_data() {
        // After STE finetuning, the quantized model should fit the
        // teacher's distribution at least as well as naive RTN.
        let base = Model::new(&ModelConfig::test_tiny(16), 30);
        let cfg = GridConfig::default();
        let probe: Vec<Vec<u32>> = (0..4)
            .map(|i| {
                let sampler = Sampler::Sample {
                    cfg: SampleConfig {
                        temperature: 1.0,
                        top_k: 0,
                    },
                    rng: &mut init::rng(123),
                };
                generate(
                    &mut BatchDecodeSession::new(&base),
                    &[[i as u32]],
                    12,
                    sampler,
                )
                .unwrap()
                .swap_remove(0)
            })
            .collect();
        let loss = |m: &Model| probe.iter().map(|s| m.sequence_loss(s)).sum::<f32>();

        let mut rtn_m = base.clone();
        rtn::quantize(&mut rtn_m, 2, &cfg).unwrap();
        let mut qat_m = base.clone();
        let qat = QatConfig {
            steps: 12,
            batch_size: 4,
            seq_len: 12,
            lr: 3e-4,
            ..QatConfig::default()
        };
        quantize(&mut qat_m, 2, &qat, &cfg).unwrap();

        let (lr_, lq) = (loss(&rtn_m), loss(&qat_m));
        assert!(
            lq < lr_ * 1.1,
            "QAT should not be much worse than RTN: {lq} vs {lr_}"
        );
    }
}
