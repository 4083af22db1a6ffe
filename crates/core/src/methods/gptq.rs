//! GPTQ [Frantar et al., ICLR 2023] — the method APTQ extends.
//!
//! Layer-input Hessians (`H = 2XXᵀ`) drive the shared OBQ update engine
//! at a uniform bit-width.

use aptq_lm::Model;
use aptq_tensor::parallel::thread_count;

use crate::grid::GridConfig;
use crate::hessian::HessianMode;
use crate::methods::apply_plan_obq;
use crate::plan::QuantPlan;
use crate::report::QuantReport;
use crate::session::QuantSession;
use crate::QuantError;

/// Quantizes the model with GPTQ at a uniform bit-width, drawing the
/// layer-input Hessians from `session` and recording the scheduler's
/// `quant/obq/…` counters into its metrics.
///
/// # Errors
///
/// Propagates calibration and engine errors.
///
/// # Determinism
///
/// Bit-identical across `APTQ_THREADS`: calibration and the solver
/// parallelize only through `aptq_tensor::parallel`, which fixes the
/// floating-point accumulation order.
pub fn quantize(
    model: &mut Model,
    session: &mut QuantSession,
    bits: u8,
    cfg: &GridConfig,
) -> Result<QuantReport, QuantError> {
    let hessians = session.hessians(model, HessianMode::LayerInput)?;
    let plan = QuantPlan::uniform(model, bits);
    apply_plan_obq(
        &format!("GPTQ-{bits}bit"),
        model,
        &plan,
        &hessians,
        cfg,
        thread_count(),
        session.metrics_mut(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_lm::ModelConfig;

    fn calib() -> Vec<Vec<u32>> {
        (0..6)
            .map(|k| (0..16).map(|i| ((i * 3 + k) % 16) as u32).collect())
            .collect()
    }

    #[test]
    fn gptq_runs_and_reports() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 10);
        let report = quantize(
            &mut model,
            &mut QuantSession::new(calib()),
            4,
            &GridConfig::default(),
        )
        .unwrap();
        assert_eq!(report.avg_bits, 4.0);
        assert!(report.method.contains("GPTQ"));
        assert!(model.forward(&[1, 2, 3]).all_finite());
    }

    #[test]
    fn gptq_empty_calibration_fails() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 10);
        assert!(matches!(
            quantize(
                &mut model,
                &mut QuantSession::new(Vec::new()),
                4,
                &GridConfig::default()
            ),
            Err(QuantError::EmptyCalibration)
        ));
    }

    #[test]
    fn gptq_preserves_outputs_better_than_rtn_at_low_bits() {
        // The headline GPTQ property, on a *trained-ish* signal: compare
        // output drift on the calibration distribution.
        let base = Model::new(&ModelConfig::test_tiny(16), 11);
        let probe: Vec<u32> = (0..14).map(|i| ((i * 3) % 16) as u32).collect();
        let ref_logits = base.forward(&probe);

        let cfg = GridConfig {
            group_size: 16,
            ..GridConfig::default()
        };
        let mut gptq_model = base.clone();
        quantize(&mut gptq_model, &mut QuantSession::new(calib()), 3, &cfg).unwrap();
        let mut rtn_model = base.clone();
        crate::methods::rtn::quantize(&mut rtn_model, 3, &cfg).unwrap();

        let drift = |m: &Model| m.forward(&probe).sub(&ref_logits).frobenius_norm();
        let (dg, dr) = (drift(&gptq_model), drift(&rtn_model));
        assert!(
            dg < dr,
            "GPTQ drift {dg} should be below RTN drift {dr} at 3 bits"
        );
    }
}
