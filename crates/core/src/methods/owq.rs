//! OWQ-style outlier-aware weight quantization [Lee et al., 2023].
//!
//! Activation outliers make some input dimensions disproportionately
//! important. OWQ keeps the weight rows of the top-k outlier input
//! dimensions (ranked by Hessian diagonal × row norm) in fp16 and
//! GPTQ-quantizes the rest at the base width — landing at ~4.01 average
//! bits in the paper's Table 1.

use std::collections::BTreeMap;

use aptq_lm::{LayerRef, Model};
use aptq_tensor::parallel::thread_count;

use crate::grid::GridConfig;
use crate::hessian::{HessianMode, LayerHessian};
use crate::methods::solve_plan;
use crate::plan::QuantPlan;
use crate::report::{LayerOutcome, QuantReport};
use crate::session::QuantSession;
use crate::QuantError;

/// Quantizes the model OWQ-style: `outlier_dims` input dimensions per
/// layer stay fp16, the rest get GPTQ at `bits` under the layer-input
/// Hessians drawn from `session`.
///
/// The outlier rows are picked from the pre-quantization weights, the
/// whole model is solved by [`crate::methods::solve_plan`], and the
/// rows are then restored to their original values. (Restoring after
/// the solve keeps the error-compensation of the quantized rows intact;
/// the outlier rows contribute no quantization error to compensate.)
///
/// # Errors
///
/// Propagates calibration and engine errors.
///
/// # Determinism
///
/// Bit-identical across `APTQ_THREADS`: outlier selection is a
/// deterministic sort over scores computed via `aptq_tensor::parallel`'s
/// order-preserving kernels, and the solves are index-ordered.
pub fn quantize(
    model: &mut Model,
    session: &mut QuantSession,
    bits: u8,
    outlier_dims: usize,
    cfg: &GridConfig,
) -> Result<QuantReport, QuantError> {
    let hessians = session.hessians(model, HessianMode::LayerInput)?;
    let plan = QuantPlan::uniform(model, bits);
    let results = solve_plan(model, &plan, &hessians, cfg, thread_count())?;
    let mut outcomes = Vec::with_capacity(results.len());
    for ((layer, _), res) in plan.iter().zip(results) {
        let w = model.layer_weight(layer);
        let (d_in, d_out) = w.shape();
        let keep = outlier_rows(w, &hessians[&layer], outlier_dims.min(d_in));
        let mut deq = res.dequantized;
        for &r in &keep {
            deq.row_mut(r).copy_from_slice(w.row(r));
        }
        let storage = res.packed.storage_bytes() + keep.len() * d_out * 2;
        session.metrics_mut().incr("quant/owq/layers_solved");
        session
            .metrics_mut()
            .add("quant/owq/outlier_rows_kept", keep.len() as u64);
        *model.layer_weight_mut(layer) = deq;
        outcomes.push(LayerOutcome {
            layer,
            bits,
            recon_error: res.recon_error,
            storage_bytes: storage,
        });
    }

    let mut report = QuantReport::new(format!("OWQ-{bits}bit"), model, outcomes);
    // Account for the fp16 outlier rows in the average bit-width.
    report.avg_bits += extra_avg_bits(model, outlier_dims, bits);
    Ok(report)
}

/// Extra average bits contributed by keeping `outlier_dims` fp16 rows
/// per layer: each exempted weight stores 16 bits where the report has
/// already counted the `bits`-wide base grid, so the overhead per
/// exempted weight is `16 − bits`, averaged over all layer weights.
///
/// This is the true storage overhead behind the paper's "~4.01 bit" OWQ
/// row; [`quantize`] folds it into `QuantReport::avg_bits` and the eval
/// pipeline uses it for the nominal "Avg bit" column.
pub fn extra_avg_bits(model: &Model, outlier_dims: usize, bits: u8) -> f32 {
    let mut extra_weights = 0usize;
    let mut total = 0usize;
    for r in model.layer_refs() {
        let w = model.layer_weight(r);
        extra_weights += outlier_dims.min(w.rows()) * w.cols();
        total += w.len();
    }
    if total == 0 {
        return 0.0;
    }
    extra_weights as f32 * f32::from(16u8.saturating_sub(bits)) / total as f32
}

/// Ranks input dimensions by `diag(H)ᵢ · ‖wᵢ‖²` and returns the top-k.
fn outlier_rows(w: &aptq_tensor::Matrix, lh: &LayerHessian, k: usize) -> Vec<usize> {
    let d_in = w.rows();
    let diag = lh.h.diag();
    let mut scored: Vec<(usize, f32)> = (0..d_in)
        .map(|i| {
            let row_norm: f32 = w.row(i).iter().map(|&v| v * v).sum();
            (i, diag[i] * row_norm)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(k).map(|(i, _)| i).collect()
}

/// Exposed for tests and analysis: which rows would OWQ keep?
pub fn outlier_rows_for(
    model: &Model,
    hessians: &BTreeMap<LayerRef, LayerHessian>,
    layer: LayerRef,
    k: usize,
) -> Vec<usize> {
    outlier_rows(model.layer_weight(layer), &hessians[&layer], k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::collect_hessians;
    use aptq_lm::ModelConfig;

    fn calib() -> Vec<Vec<u32>> {
        (0..4)
            .map(|k| (0..12).map(|i| ((i * 3 + k) % 16) as u32).collect())
            .collect()
    }

    #[test]
    fn extra_avg_bits_uses_fp16_minus_base_width() {
        let model = Model::new(&ModelConfig::test_tiny(16), 18);
        // Doubling the exempted dims doubles the overhead; a wider base
        // grid shrinks it (16-bits replaces fewer already-counted bits).
        let one = extra_avg_bits(&model, 1, 4);
        assert!(one > 0.0);
        assert!((extra_avg_bits(&model, 2, 4) - 2.0 * one).abs() < 1e-6);
        assert!(extra_avg_bits(&model, 1, 2) > one);
        assert_eq!(extra_avg_bits(&model, 0, 4), 0.0);
    }

    #[test]
    fn owq_runs_and_costs_slightly_more_than_base() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 18);
        let report = quantize(
            &mut model,
            &mut QuantSession::new(calib()),
            4,
            1,
            &GridConfig::default(),
        )
        .unwrap();
        assert!(
            report.avg_bits > 4.0,
            "outlier rows add storage: {}",
            report.avg_bits
        );
        assert!(
            report.avg_bits < 5.0,
            "one outlier dim is cheap: {}",
            report.avg_bits
        );
        assert!(model.forward(&[1, 2, 3]).all_finite());
    }

    #[test]
    fn owq_with_zero_outliers_is_gptq() {
        let base = Model::new(&ModelConfig::test_tiny(16), 19);
        let cfg = GridConfig::default();
        let mut a = base.clone();
        quantize(&mut a, &mut QuantSession::new(calib()), 4, 0, &cfg).unwrap();
        let mut b = base.clone();
        crate::methods::gptq::quantize(&mut b, &mut QuantSession::new(calib()), 4, &cfg).unwrap();
        let r = base.layer_refs()[0];
        assert_eq!(a.layer_weight(r), b.layer_weight(r));
    }

    #[test]
    fn outlier_rows_pick_high_energy_dims() {
        let model = Model::new(&ModelConfig::test_tiny(16), 20);
        let hs = collect_hessians(&model, &calib(), HessianMode::LayerInput).unwrap();
        let layer = model.layer_refs()[0];
        let rows = outlier_rows_for(&model, &hs, layer, 3);
        assert_eq!(rows.len(), 3);
        // Scores of chosen rows dominate a random other row.
        let diag = hs[&layer].h.diag();
        let w = model.layer_weight(layer);
        let score = |i: usize| diag[i] * w.row(i).iter().map(|&v| v * v).sum::<f32>();
        let min_kept = rows.iter().map(|&i| score(i)).fold(f32::INFINITY, f32::min);
        let others_max = (0..w.rows())
            .filter(|i| !rows.contains(i))
            .map(score)
            .fold(0.0f32, f32::max);
        assert!(min_kept >= others_max);
    }

    #[test]
    fn more_outliers_preserve_output_better() {
        // Plant genuine activation outliers (huge embedding channels) so
        // the OWQ criterion has a real signal, then check that exempting
        // half the input dims reduces 2-bit drift.
        let mut base = Model::new(&ModelConfig::test_tiny(16), 21);
        for r in 0..16 {
            base.embed_mut()[(r, 2)] *= 10.0;
            base.embed_mut()[(r, 9)] *= 10.0;
        }
        let probe: Vec<u32> = (0..12).map(|i| ((i * 3) % 16) as u32).collect();
        let ref_logits = base.forward(&probe);
        let drift = |k: usize| {
            let mut m = base.clone();
            quantize(
                &mut m,
                &mut QuantSession::new(calib()),
                2,
                k,
                &GridConfig::default(),
            )
            .unwrap();
            m.forward(&probe).sub(&ref_logits).frobenius_norm()
        };
        assert!(
            drift(8) < drift(0),
            "outlier rows should reduce 2-bit drift"
        );
    }
}
