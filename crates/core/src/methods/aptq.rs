//! APTQ — the paper's method (Algorithm 1).
//!
//! Step 1: quantize with the OBQ engine driven by **attention-aware
//! Hessians** (Eqs. 9–15 via [`crate::attn`]), computing each layer's
//! average Hessian trace along the way.
//!
//! Step 2: for mixed precision, rank layers by trace and re-quantize the
//! least sensitive ones at 2 bits until the 4-bit weight ratio matches
//! the requested `R` (Eq. 18). `APTQ-R%` in the tables is
//! [`quantize_mixed`] with `ratio = R`.

use aptq_lm::Model;
use aptq_tensor::parallel::thread_count;

use crate::grid::GridConfig;
use crate::hessian::HessianMode;
use crate::methods::apply_plan_obq;
use crate::mixed::{AllocationPolicy, MixedPrecisionAllocator};
use crate::plan::QuantPlan;
use crate::report::QuantReport;
use crate::session::QuantSession;
use crate::trace::SensitivityReport;
use crate::QuantError;

/// Uniform-precision APTQ (the "APTQ / 4.0 bit" table rows): GPTQ's
/// machinery under attention-aware Hessians drawn from `session`.
///
/// # Errors
///
/// Propagates calibration and engine errors.
///
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS`, and independent of what the
/// session has already cached — the layer fan-out is index-ordered
/// (see [`crate::methods::solve_plan`]).
pub fn quantize_uniform(
    model: &mut Model,
    session: &mut QuantSession,
    bits: u8,
    cfg: &GridConfig,
) -> Result<QuantReport, QuantError> {
    let hessians = session.hessians(model, HessianMode::AttentionAware)?;
    let plan = QuantPlan::uniform(model, bits);
    apply_plan_obq(
        &format!("APTQ-{bits}bit"),
        model,
        &plan,
        &hessians,
        cfg,
        thread_count(),
        session.metrics_mut(),
    )
}

/// Mixed-precision APTQ (`APTQ-R%`): 2/4-bit allocation by Hessian
/// trace (or the manual block-wise ablation policy), drawing Hessians
/// and their mean-trace ranking from `session`, so repeated mixed rows
/// (different ratios, both policies) reuse one capture pass.
///
/// Returns the report and the sensitivity ranking that produced the
/// allocation (exposed for the Figure 1 sensitivity panel and the
/// ablation analysis).
///
/// # Errors
///
/// Returns [`QuantError::InvalidRatio`] for `ratio ∉ [0,1]` and
/// [`QuantError::EmptyCalibration`] for a degenerate calibration set
/// (empty, or without any segment of ≥ 2 tokens); otherwise propagates
/// calibration and engine errors.
///
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS`, and independent of what the
/// session has already cached — allocation ranks by a total order
/// (score, then layer index) and the layer fan-out is index-ordered.
pub fn quantize_mixed(
    model: &mut Model,
    session: &mut QuantSession,
    ratio: f32,
    policy: AllocationPolicy,
    cfg: &GridConfig,
) -> Result<(QuantReport, SensitivityReport), QuantError> {
    let allocator = MixedPrecisionAllocator::two_four(ratio)?;
    let hessians = session.hessians(model, HessianMode::AttentionAware)?;
    // Allocation signal: §3.3's mean trace of the Hessians just drawn, a
    // cache hit (the empirical probe is compared in ablation E).
    let sensitivity = session.sensitivity(model, allocator.low_bits, cfg)?;
    let plan = allocator.allocate(model, &sensitivity, policy);
    let name = match policy {
        AllocationPolicy::HessianTrace => format!("APTQ-{:.0}%", ratio * 100.0),
        AllocationPolicy::ManualBlockwise => {
            format!("ManualBlockwise-{:.0}%", ratio * 100.0)
        }
    };
    let report = apply_plan_obq(
        &name,
        model,
        &plan,
        &hessians,
        cfg,
        thread_count(),
        session.metrics_mut(),
    )?;
    Ok((report, sensitivity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::eq18_average_bits;
    use aptq_lm::{LayerRef, ModelConfig};

    fn calib() -> Vec<Vec<u32>> {
        (0..6)
            .map(|k| (0..16).map(|i| ((i * 5 + k) % 16) as u32).collect())
            .collect()
    }

    #[test]
    fn uniform_aptq_runs() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 12);
        let report = quantize_uniform(
            &mut model,
            &mut QuantSession::new(calib()),
            4,
            &GridConfig::default(),
        )
        .unwrap();
        assert_eq!(report.avg_bits, 4.0);
        assert!(report.method.contains("APTQ"));
        assert!(model.forward(&[1, 2, 3]).all_finite());
    }

    #[test]
    fn mixed_aptq_hits_requested_ratio() {
        for r in [0.5f32, 0.75, 0.9] {
            let mut model = Model::new(&ModelConfig::test_tiny(16), 13);
            let (report, sens) = quantize_mixed(
                &mut model,
                &mut QuantSession::new(calib()),
                r,
                AllocationPolicy::HessianTrace,
                &GridConfig::default(),
            )
            .unwrap();
            assert!(!sens.is_empty());
            let want = eq18_average_bits(r);
            assert!(
                (report.avg_bits - want).abs() < 0.5,
                "r={r}: got {} want ≈{want}",
                report.avg_bits
            );
        }
    }

    #[test]
    fn mixed_allocates_by_mean_trace_from_one_capture() {
        let base = Model::new(&ModelConfig::test_tiny(16), 13);
        let hessians =
            crate::collect_hessians(&base, &calib(), HessianMode::AttentionAware).unwrap();
        let ranking = SensitivityReport::from_hessians(&hessians);
        for r in [0.5f32, 0.75] {
            let want = MixedPrecisionAllocator::two_four(r).unwrap().allocate(
                &base,
                &ranking,
                AllocationPolicy::HessianTrace,
            );
            let mut model = base.clone();
            let mut session = QuantSession::new(calib());
            let (report, sens) = quantize_mixed(
                &mut model,
                &mut session,
                r,
                AllocationPolicy::HessianTrace,
                &GridConfig::default(),
            )
            .unwrap();
            assert_eq!(sens, ranking, "r={r}: the ranking is the mean trace");
            let high = |bits: Vec<(LayerRef, u8)>| -> Vec<LayerRef> {
                bits.into_iter()
                    .filter(|&(_, b)| b == 4)
                    .map(|(l, _)| l)
                    .collect()
            };
            let got = high(report.layers.iter().map(|o| (o.layer, o.bits)).collect());
            let picked = high(want.iter().collect());
            assert!(!picked.is_empty() && picked.len() < want.len());
            assert_eq!(
                got, picked,
                "r={r}: 4-bit layers differ from the allocator's"
            );
            assert_eq!(session.capture_passes(), 1, "r={r}");
        }
    }

    #[test]
    fn mixed_rejects_degenerate_calibration() {
        // Empty set, single empty segment, and a one-token segment must
        // all surface EmptyCalibration instead of NaN scores or a panic
        // in the probe slice.
        let cases: [Vec<Vec<u32>>; 3] = [Vec::new(), vec![Vec::new()], vec![vec![3u32]]];
        for calibration in cases {
            let mut model = Model::new(&ModelConfig::test_tiny(16), 13);
            assert!(
                matches!(
                    quantize_mixed(
                        &mut model,
                        &mut QuantSession::new(calibration.clone()),
                        0.5,
                        AllocationPolicy::HessianTrace,
                        &GridConfig::default()
                    ),
                    Err(QuantError::EmptyCalibration)
                ),
                "calibration {calibration:?} must be rejected"
            );
        }
    }

    #[test]
    fn mixed_rejects_bad_ratio() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 13);
        assert!(matches!(
            quantize_mixed(
                &mut model,
                &mut QuantSession::new(calib()),
                2.0,
                AllocationPolicy::HessianTrace,
                &GridConfig::default()
            ),
            Err(QuantError::InvalidRatio { .. })
        ));
    }

    #[test]
    fn trace_policy_beats_blockwise_on_output_drift() {
        // The Table 3 ablation in miniature: at the same average bits,
        // sensitivity-ranked allocation should preserve the model output
        // better than front-to-back block allocation.
        let base = Model::new(&ModelConfig::test_tiny(16), 14);
        let probe: Vec<u32> = (0..14).map(|i| ((i * 5) % 16) as u32).collect();
        let ref_logits = base.forward(&probe);
        let drift = |policy: AllocationPolicy| {
            let mut m = base.clone();
            quantize_mixed(
                &mut m,
                &mut QuantSession::new(calib()),
                0.5,
                policy,
                &GridConfig::default(),
            )
            .unwrap();
            m.forward(&probe).sub(&ref_logits).frobenius_norm()
        };
        let d_trace = drift(AllocationPolicy::HessianTrace);
        let d_block = drift(AllocationPolicy::ManualBlockwise);
        // On a random-init tiny model sensitivity rankings are close to
        // noise, so this is a sanity check only; the Table 3 comparison
        // on *trained* models lives in the workspace integration tests.
        assert!(d_trace.is_finite() && d_block.is_finite());
        assert!(
            d_trace > 0.0 && d_block > 0.0,
            "half-2-bit quantization must perturb outputs"
        );
    }
}
