//! The quantization methods evaluated in the paper's tables.
//!
//! | Module | Paper row | Idea |
//! |---|---|---|
//! | [`rtn`] | RTN | per-group round-to-nearest, no second-order info |
//! | [`gptq`] | GPTQ \[4\] | layer-input Hessian + OBQ updates |
//! | [`aptq`] | **APTQ (ours)** | attention-aware Hessians + trace-ranked 2/4-bit mixing |
//! | [`owq`] | OWQ \[9\] | keep activation-outlier input dims in fp16 |
//! | [`pbllm`] | PB-LLM \[15\] | binarize non-salient weights, keep salient fp16 |
//! | [`smoothquant`] | SmoothQuant \[17\] | per-channel scale migration, then RTN |
//! | [`fpq`] | FPQ \[10\] | 4-bit float (E2M1) grids |
//! | [`qat`] | LLM-QAT \[11\] | data-free quantization-aware finetune (STE) |

pub mod aptq;
pub mod fpq;
pub mod gptq;
pub mod owq;
pub mod pbllm;
pub mod qat;
pub mod rtn;
pub mod smoothquant;

use std::collections::BTreeMap;

use aptq_lm::{LayerRef, Model};
use aptq_obs::Recorder;

use crate::engine;
use crate::engine::LayerQuantResult;
use crate::grid::{GridConfig, QuantGrid};
use crate::hessian::LayerHessian;
use crate::plan::QuantPlan;
use crate::report::{LayerOutcome, QuantReport};
use crate::QuantError;

/// Solves every layer of `plan` with the OBQ engine under the given
/// Hessians, returning one result per plan entry in plan order. The
/// model is only read.
///
/// This is the one place a plan is solved: GPTQ and APTQ install the
/// results ([`apply_plan_obq`]), OWQ exempts its outlier rows around
/// them, and `QuantizedModel::quantize_from` packs them. The methods
/// differ only in the Hessians, the plan and (for OWQ) which rows are
/// restored afterwards.
///
/// # Determinism
///
/// Every plan entry is validated before any solve starts. Each layer's
/// OBQ solve depends only on its own weight and Hessian, so the solves
/// fan out across `threads` workers
/// ([`aptq_tensor::parallel::run_indexed`]) and land in plan order.
/// Results are bit-identical for every `threads` value, including 1,
/// and on failure the error of the earliest plan entry is returned,
/// independent of thread count.
///
/// # Errors
///
/// Returns [`QuantError::UnknownLayer`] if the Hessian map is missing a
/// planned layer and [`QuantError::UnsupportedBits`] for a width the
/// integer grid cannot hold (both checked for every entry before any
/// solve); otherwise propagates engine failures.
pub fn solve_plan(
    model: &Model,
    plan: &QuantPlan,
    hessians: &BTreeMap<LayerRef, LayerHessian>,
    cfg: &GridConfig,
    threads: usize,
) -> Result<Vec<LayerQuantResult>, QuantError> {
    let mut jobs = Vec::with_capacity(plan.len());
    for (layer, bits) in plan.iter() {
        let Some(lh) = hessians.get(&layer) else {
            return Err(QuantError::UnknownLayer {
                layer: layer.to_string(),
            });
        };
        jobs.push((layer, lh, QuantGrid::try_int(bits, cfg.asymmetric)?));
    }
    aptq_tensor::parallel::run_indexed(jobs.len(), threads, |i| {
        let (layer, lh, grid) = jobs[i];
        engine::quantize_layer_obq(&layer.to_string(), model.layer_weight(layer), lh, grid, cfg)
    })
    .into_iter()
    .collect()
}

/// Quantizes every layer of `plan` with [`solve_plan`] on `threads`
/// workers and installs the dequantized weights into the model in
/// place. This is GPTQ and APTQ; the two differ only in the Hessians
/// and the plan.
///
/// Scheduler work is recorded into `rec` under `quant/obq/…`: layer
/// solves, column updates (one per input dimension of each solved
/// layer), quantized weights and packed storage bytes.
///
/// # Determinism
///
/// Weights are installed, and counters accumulated, sequentially in
/// plan order after the solves return, so the recorder never crosses a
/// thread boundary. Reports, installed weights and counters are
/// bit-identical for every `threads` value (see [`solve_plan`]).
///
/// # Errors
///
/// As [`solve_plan`]. On failure the model and `rec` are left
/// unmodified.
pub fn apply_plan_obq(
    method: &str,
    model: &mut Model,
    plan: &QuantPlan,
    hessians: &BTreeMap<LayerRef, LayerHessian>,
    cfg: &GridConfig,
    threads: usize,
    rec: &mut Recorder,
) -> Result<QuantReport, QuantError> {
    let results = solve_plan(model, plan, hessians, cfg, threads)?;
    let mut outcomes = Vec::with_capacity(results.len());
    for ((layer, bits), res) in plan.iter().zip(results) {
        let storage = res.packed.storage_bytes();
        let (d_in, d_out) = (res.packed.d_in, res.packed.d_out);
        rec.incr("quant/obq/layers_solved");
        rec.add("quant/obq/column_updates", d_in as u64);
        rec.add("quant/obq/weights_quantized", (d_in * d_out) as u64);
        rec.add("quant/obq/packed_bytes", storage as u64);
        *model.layer_weight_mut(layer) = res.dequantized;
        outcomes.push(LayerOutcome {
            layer,
            bits,
            recon_error: res.recon_error,
            storage_bytes: storage,
        });
    }
    Ok(QuantReport::new(method, model, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hessian::HessianMode;
    use aptq_lm::ModelConfig;

    #[test]
    fn apply_plan_installs_weights() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 6);
        let segs = vec![(0..12).map(|i| (i % 16) as u32).collect::<Vec<u32>>()];
        let hs = crate::collect_hessians(&model, &segs, HessianMode::LayerInput).unwrap();
        let plan = QuantPlan::uniform(&model, 4);
        let before = model.layer_weight(model.layer_refs()[0]).clone();
        let report = apply_plan_obq(
            "GPTQ",
            &mut model,
            &plan,
            &hs,
            &GridConfig::default(),
            aptq_tensor::parallel::thread_count(),
            &mut Recorder::new(),
        )
        .unwrap();
        let after = model.layer_weight(model.layer_refs()[0]).clone();
        assert_ne!(before, after, "weights must change");
        assert_eq!(report.avg_bits, 4.0);
        assert_eq!(report.layers.len(), model.layer_refs().len());
    }

    #[test]
    fn missing_hessian_is_unknown_layer() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 6);
        let plan = QuantPlan::uniform(&model, 4);
        let empty = BTreeMap::new();
        assert!(matches!(
            apply_plan_obq(
                "x",
                &mut model,
                &plan,
                &empty,
                &GridConfig::default(),
                aptq_tensor::parallel::thread_count(),
                &mut Recorder::new(),
            ),
            Err(QuantError::UnknownLayer { .. })
        ));
    }
}
