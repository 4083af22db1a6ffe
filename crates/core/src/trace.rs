//! Hessian-trace layer sensitivity (§3.3 of the paper).
//!
//! "By computing the average trace of the Hessian matrix, the method
//! determines the appropriate level of precision for the quantization of
//! each layer. Layers with higher Hessian Trace values […] require
//! higher bit precision."
//!
//! APTQ-R% allocates by that mean trace
//! ([`SensitivityReport::from_hessians`], served by
//! [`crate::QuantSession::sensitivity`]). The allocation-signal ablation
//! compares it with the HAWQ-V2 weighting of [`SensitivityMetric`] and
//! with the empirical 2-bit loss probe, [`empirical_sensitivity`].

use std::collections::BTreeMap;

use aptq_lm::{LayerKind, LayerRef, Model};
use aptq_tensor::parallel::run_indexed;
use aptq_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::grid::{GridConfig, QuantGrid};
use crate::hessian::LayerHessian;
use crate::QuantError;

/// How layer sensitivity is scored from the Hessian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensitivityMetric {
    /// The paper's literal statement: the average Hessian trace alone,
    /// the signal APTQ-R% allocates by.
    MeanTrace,
    /// HAWQ-V2-style trace-weighted perturbation:
    /// `mean_trace · E[(W − Q₂(W))²]`, where `Q₂` is low-bit RTN.
    ///
    /// §3.3 builds on HAWQ-V2 \[3\], whose criterion is
    /// `Tr(H)·‖ΔW‖²` — the expected second-order loss increase under
    /// the layer-local quadratic model.
    TraceTimesPerturbation,
}

/// One layer's sensitivity entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerSensitivity {
    /// The layer.
    pub layer: LayerRef,
    /// Average Hessian trace (per dimension, per calibration token).
    pub mean_trace: f32,
}

/// Per-layer sensitivity ranking derived from calibration Hessians.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityReport {
    entries: Vec<LayerSensitivity>,
}

impl SensitivityReport {
    /// Builds a report from collected Hessians using the raw
    /// [`SensitivityMetric::MeanTrace`] statistic, sorted by descending
    /// sensitivity (ties broken by canonical layer order).
    pub fn from_hessians(hessians: &BTreeMap<LayerRef, LayerHessian>) -> Self {
        let entries = hessians
            .iter()
            .map(|(&layer, lh)| LayerSensitivity {
                layer,
                mean_trace: lh.mean_trace,
            })
            .collect();
        Self::sorted(entries)
    }

    /// Builds a report with an explicit metric.
    ///
    /// For [`SensitivityMetric::TraceTimesPerturbation`] the trace is
    /// weighted by the layer's expected low-bit quantization
    /// perturbation `E[(W − Q(W))²]` under `low_bits` RTN (the
    /// `recon_error` of [`crate::engine::quantize_layer_rtn`]) — the
    /// HAWQ-V2 criterion `Tr(H)·‖ΔW‖²` that §3.3 builds on. A width
    /// outside `1..=8` weighs every layer by `0`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`: trace and perturbation are
    /// per-layer sequential reductions over fixed-order weights.
    pub fn with_metric(
        hessians: &BTreeMap<LayerRef, LayerHessian>,
        model: &Model,
        metric: SensitivityMetric,
        low_bits: u8,
        cfg: &GridConfig,
    ) -> Self {
        let entries = hessians
            .iter()
            .map(|(&layer, lh)| {
                let score = match metric {
                    SensitivityMetric::MeanTrace => lh.mean_trace,
                    SensitivityMetric::TraceTimesPerturbation => {
                        match QuantGrid::try_int(low_bits, cfg.asymmetric) {
                            Ok(grid) => {
                                let w = model.layer_weight(layer);
                                lh.mean_trace
                                    * crate::engine::quantize_layer_rtn(w, grid, cfg).recon_error
                            }
                            Err(_) => 0.0,
                        }
                    }
                };
                LayerSensitivity {
                    layer,
                    mean_trace: score,
                }
            })
            .collect();
        Self::sorted(entries)
    }

    fn sorted(mut entries: Vec<LayerSensitivity>) -> Self {
        entries.sort_by(|a, b| {
            b.mean_trace
                .total_cmp(&a.mean_trace)
                .then_with(|| a.layer.cmp(&b.layer))
        });
        SensitivityReport { entries }
    }

    /// Entries in descending-sensitivity order.
    pub fn entries(&self) -> &[LayerSensitivity] {
        &self.entries
    }

    /// Number of ranked layers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The trace value for one layer, if ranked.
    pub fn trace_for(&self, layer: LayerRef) -> Option<f32> {
        self.entries
            .iter()
            .find(|e| e.layer == layer)
            .map(|e| e.mean_trace)
    }

    /// Plain mean of the entries' scores (`mean_trace`), `0.0` when the
    /// report is empty.
    pub fn mean_score(&self) -> f32 {
        if self.entries.is_empty() {
            return 0.0;
        }
        // audit:allow(accum): short per-layer list; f32 sum keeps reported scores bit-stable
        self.entries.iter().map(|e| e.mean_trace).sum::<f32>() / self.entries.len() as f32
    }

    /// Renders a small markdown table (used by the sensitivity example
    /// and the reports in `EXPERIMENTS.md`).
    pub fn to_markdown(&self) -> String {
        let mut s = String::from("| rank | layer | avg Hessian trace |\n|---|---|---|\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "| {} | {} | {:.6} |\n",
                i + 1,
                e.layer,
                e.mean_trace
            ));
        }
        s
    }
}

/// Empirical end-to-end sensitivity: for each layer, the increase in
/// calibration cross-entropy when *only this layer* is RTN-quantized at
/// `low_bits` (the cheap proxy; only the *ranking* matters), averaged
/// over the `probe` segments.
///
/// The two Hessian statistics of [`SensitivityMetric`] are layer-local:
/// they cannot see that an early layer's error compounds through every
/// downstream block, which this end-to-end score can. But it costs one
/// perturbed forward per layer and probe segment, where the mean trace
/// comes free with the Hessians, and in a calibration-seed sweep the
/// mean trace's allocations fell inside the range of this probe's
/// (DESIGN.md §3). So APTQ-R% allocates by the paper's mean trace, and
/// this probe is a row of ablation E in the `ablations` bench.
///
/// The probe should be a small slice of the calibration set (the
/// session probes 16 segments) and is segment-major: one job per probe
/// segment walks the unperturbed forward once and, at each block,
/// branches once per layer of that block. A branch swaps the layer's
/// RTN weight into a clone of that block only, runs it from the block's
/// input (q/k/v/o) or from its post-attention residual (gate/up/down),
/// then runs the untouched later blocks and the head. Blocks before the
/// perturbed one see unchanged weights, so their outputs are taken from
/// the unperturbed walk instead of being recomputed. Each layer's RTN
/// solve runs once and is shared by every segment. Segments are spread
/// across `threads` workers.
///
/// # Determinism
///
/// Results are bit-identical for every `threads` value, and to probing
/// each layer with a full forward: every branch runs the same float ops
/// on the same inputs as the full forward of the perturbed model, and
/// per-layer losses are folded in segment order after
/// [`aptq_tensor::parallel::run_indexed`] returns them in index order.
///
/// # Errors
///
/// Returns [`QuantError::EmptyCalibration`] when no probe segment has at
/// least two tokens (a shorter segment yields no next-token targets, so
/// the loss signal would be vacuous), and [`QuantError::NonFiniteLoss`]
/// when the unperturbed loss or a layer's perturbed loss is not finite.
pub fn empirical_sensitivity(
    model: &Model,
    probe: &[Vec<u32>],
    low_bits: u8,
    cfg: &GridConfig,
    threads: usize,
) -> Result<SensitivityReport, QuantError> {
    let segments: Vec<&[u32]> = probe
        .iter()
        .filter(|s| s.len() >= 2)
        .map(Vec::as_slice)
        .collect();
    if segments.is_empty() {
        return Err(QuantError::EmptyCalibration);
    }
    let layers = model.layer_refs();
    let grid = QuantGrid::int(low_bits, cfg.asymmetric);
    let perturbed: Vec<Matrix> = run_indexed(layers.len(), threads, |i| {
        crate::engine::quantize_layer_rtn(model.layer_weight(layers[i]), grid, cfg).dequantized
    });
    let losses: Vec<SegmentLosses> = run_indexed(segments.len(), threads, |s| {
        segment_losses(model, segments[s], &perturbed)
    });

    let base = token_mean(&segments, losses.iter().map(|l| l.base));
    if !base.is_finite() {
        return Err(QuantError::NonFiniteLoss {
            layer: "unperturbed model".to_string(),
        });
    }
    let mut entries = Vec::with_capacity(layers.len());
    for (i, &layer) in layers.iter().enumerate() {
        let score = token_mean(&segments, losses.iter().map(|l| l.per_layer[i])) - base;
        if !score.is_finite() {
            return Err(QuantError::NonFiniteLoss {
                layer: layer.to_string(),
            });
        }
        entries.push(LayerSensitivity {
            layer,
            mean_trace: score,
        });
    }
    Ok(SensitivityReport::sorted(entries))
}

/// Mean loss per predicted token over `segments` (each of at least two
/// tokens), folding the segments' `losses` in segment order.
fn token_mean(segments: &[&[u32]], losses: impl Iterator<Item = f32>) -> f32 {
    let mut total = 0.0f64;
    let mut n = 0usize;
    for (seg, loss) in segments.iter().zip(losses) {
        total += loss as f64 * (seg.len() - 1) as f64;
        n += seg.len() - 1;
    }
    // audit:allow(div): callers pass at least one segment of ≥ 2 tokens, so n ≥ 1
    (total / n as f64) as f32
}

/// One probe segment's losses.
struct SegmentLosses {
    /// Loss of the unperturbed model.
    base: f32,
    /// Loss with one layer RTN-perturbed, in canonical layer order.
    per_layer: Vec<f32>,
}

/// Probes one segment: the unperturbed forward, branching at each block
/// once per layer with `perturbed[i]` (indexed like
/// [`Model::layer_refs`]) swapped into a clone of that block.
fn segment_losses(model: &Model, seg: &[u32], perturbed: &[Matrix]) -> SegmentLosses {
    let rope = model.rope();
    let mut per_layer = Vec::with_capacity(perturbed.len());
    let mut x = model.embed_tokens(seg);
    for (b, block) in model.blocks().iter().enumerate() {
        let h = block.attn_half(&x, rope);
        for (k, kind) in LayerKind::ALL.into_iter().enumerate() {
            let mut branch = block.clone();
            *branch.weight_mut(kind) = perturbed[b * LayerKind::ALL.len() + k].clone();
            let y = if kind.is_attention() {
                branch.ffn_half(&branch.attn_half(&x, rope))
            } else {
                branch.ffn_half(&h)
            };
            per_layer.push(model.loss_from(b + 1, y, seg));
        }
        x = block.ffn_half(&h);
    }
    SegmentLosses {
        base: model.loss_from(model.blocks().len(), x, seg),
        per_layer,
    }
}

/// Hutchinson stochastic trace estimator: `tr(H) ≈ mean(zᵀHz)` over
/// Rademacher probe vectors `z ∈ {−1,+1}ⁿ`.
///
/// HAWQ-V2 (the paper's reference \[3\]) uses this because CNN/LLM
/// Hessians are too large to materialize. Our calibration Hessians are
/// explicit, so the estimator serves as a cross-check — the
/// `hutchinson` ablation bench compares it against the exact trace and
/// measures its convergence.
///
/// # Panics
///
/// Panics if `h` is not square or `n_probes == 0`.
pub fn hutchinson_trace(h: &aptq_tensor::Matrix, n_probes: usize, seed: u64) -> f32 {
    assert_eq!(
        h.rows(),
        h.cols(),
        "hutchinson_trace: square matrix required"
    );
    assert!(n_probes > 0, "hutchinson_trace: need at least one probe");
    use rand::Rng;
    let mut rng = aptq_tensor::init::rng(seed);
    let n = h.rows();
    let mut acc = 0.0f64;
    for _ in 0..n_probes {
        let z: Vec<f32> = (0..n)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let hz = h.matvec(&z);
        acc +=
            aptq_tensor::stats::kahan_sum(z.iter().zip(hz.iter()).map(|(&a, &b)| (a * b) as f64));
    }
    (acc / n_probes as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hessian::HessianMode;
    use aptq_lm::{LayerKind, Model, ModelConfig};
    use aptq_tensor::parallel::thread_count;

    #[test]
    fn ranking_is_descending_and_complete() {
        let model = Model::new(&ModelConfig::test_tiny(16), 2);
        let segs: Vec<Vec<u32>> = (0..3)
            .map(|k| (0..12).map(|i| ((i + k) % 16) as u32).collect())
            .collect();
        let hs = crate::collect_hessians(&model, &segs, HessianMode::AttentionAware).unwrap();
        let report = SensitivityReport::from_hessians(&hs);
        assert_eq!(report.len(), model.layer_refs().len());
        for w in report.entries().windows(2) {
            assert!(w[0].mean_trace >= w[1].mean_trace);
        }
        // Every layer looked up by ref resolves.
        for r in model.layer_refs() {
            assert!(report.trace_for(r).is_some());
        }
    }

    #[test]
    fn traces_vary_across_layers() {
        // If every layer had the same sensitivity the mixed-precision
        // allocator would be meaningless.
        let model = Model::new(&ModelConfig::test_tiny(16), 3);
        let segs: Vec<Vec<u32>> = (0..3)
            .map(|k| (0..12).map(|i| ((i * 2 + k) % 16) as u32).collect())
            .collect();
        let hs = crate::collect_hessians(&model, &segs, HessianMode::AttentionAware).unwrap();
        let report = SensitivityReport::from_hessians(&hs);
        let hi = report.entries().first().unwrap().mean_trace;
        let lo = report.entries().last().unwrap().mean_trace;
        assert!(hi > lo * 1.2, "sensitivities too uniform: {hi} vs {lo}");
    }

    #[test]
    fn trace_times_perturbation_differs_from_raw_trace() {
        let model = Model::new(&ModelConfig::test_tiny(16), 6);
        let segs = vec![(0..12).map(|i| (i % 16) as u32).collect::<Vec<u32>>()];
        let hs = crate::collect_hessians(&model, &segs, HessianMode::AttentionAware).unwrap();
        let cfg = GridConfig::default();
        let raw =
            SensitivityReport::with_metric(&hs, &model, SensitivityMetric::MeanTrace, 2, &cfg);
        let weighted = SensitivityReport::with_metric(
            &hs,
            &model,
            SensitivityMetric::TraceTimesPerturbation,
            2,
            &cfg,
        );
        assert_eq!(raw.len(), weighted.len());
        // Rankings generally differ because weight magnitudes vary.
        let raw_order: Vec<_> = raw.entries().iter().map(|e| e.layer).collect();
        let weighted_order: Vec<_> = weighted.entries().iter().map(|e| e.layer).collect();
        assert_ne!(
            raw_order, weighted_order,
            "weighting should reshuffle at least one layer"
        );
        assert!(weighted.mean_score() > 0.0);
        // Raw metric must agree with from_hessians.
        let legacy = SensitivityReport::from_hessians(&hs);
        assert_eq!(raw, legacy);
    }

    #[test]
    fn hutchinson_converges_to_exact_trace() {
        let g = aptq_tensor::init::normal(12, 12, 1.0, &mut aptq_tensor::init::rng(1));
        let h = g.matmul(&g.transpose()); // SPD-ish, nontrivial trace
        let exact = h.trace();
        let est = hutchinson_trace(&h, 2000, 7);
        assert!(
            (est - exact).abs() / exact.abs() < 0.15,
            "hutchinson {est} vs exact {exact}"
        );
        // More probes should not be wildly worse than few.
        let rough = hutchinson_trace(&h, 4, 7);
        assert!(rough.is_finite());
    }

    #[test]
    fn empirical_sensitivity_ranks_all_layers() {
        let model = Model::new(&ModelConfig::test_tiny(16), 8);
        let probe: Vec<Vec<u32>> = (0..3)
            .map(|k| (0..10).map(|i| ((i + k) % 16) as u32).collect())
            .collect();
        let report =
            empirical_sensitivity(&model, &probe, 2, &GridConfig::default(), thread_count())
                .unwrap();
        assert_eq!(report.len(), model.layer_refs().len());
        // Entries are finite and sorted descending.
        for w in report.entries().windows(2) {
            assert!(w[0].mean_trace >= w[1].mean_trace);
            assert!(w[0].mean_trace.is_finite());
        }
    }

    #[test]
    fn empirical_sensitivity_rejects_degenerate_probes() {
        let model = Model::new(&ModelConfig::test_tiny(16), 8);
        let cases: [Vec<Vec<u32>>; 3] = [
            Vec::new(),       // empty probe set
            vec![Vec::new()], // single empty segment
            vec![vec![3u32]], // one-token segment: no next-token target
        ];
        for probe in cases {
            assert!(
                matches!(
                    empirical_sensitivity(
                        &model,
                        &probe,
                        2,
                        &GridConfig::default(),
                        thread_count()
                    ),
                    Err(QuantError::EmptyCalibration)
                ),
                "probe {probe:?} must be rejected"
            );
        }
    }

    #[test]
    fn empirical_sensitivity_rejects_non_finite_losses() {
        let probe: Vec<Vec<u32>> = (0..3)
            .map(|k| (0..10).map(|i| ((i + k) % 16) as u32).collect())
            .collect();
        let cfg = GridConfig::default();
        let q0 = LayerRef {
            block: 0,
            kind: LayerKind::Q,
        };

        // One weight at f32::MAX overflows the float forward itself.
        let mut model = Model::new(&ModelConfig::test_tiny(16), 8);
        model.layer_weight_mut(q0)[(0, 0)] = f32::MAX;
        match empirical_sensitivity(&model, &probe, 2, &cfg, thread_count()) {
            Err(QuantError::NonFiniteLoss { layer }) => assert_eq!(layer, "unperturbed model"),
            other => panic!("expected a non-finite base loss, got {other:?}"),
        }

        // ±f32::MAX on input rows the block's norm zeroes: the float
        // forward never reads them, but their group's RTN range
        // overflows, so only the perturbed `q0` loss is non-finite.
        let mut model = Model::new(&ModelConfig::test_tiny(16), 8);
        model.blocks_mut()[0].norm1.gain_mut()[..2].fill(0.0);
        model.layer_weight_mut(q0)[(0, 0)] = f32::MAX;
        model.layer_weight_mut(q0)[(1, 0)] = -f32::MAX;
        match empirical_sensitivity(&model, &probe, 2, &cfg, thread_count()) {
            Err(QuantError::NonFiniteLoss { layer }) => assert_eq!(layer, q0.to_string()),
            other => panic!("expected a non-finite loss for {q0}, got {other:?}"),
        }
    }

    #[test]
    fn empirical_sensitivity_is_thread_count_invariant() {
        let model = Model::new(&ModelConfig::test_tiny(16), 9);
        let probe: Vec<Vec<u32>> = (0..4)
            .map(|k| (0..12).map(|i| ((i * 3 + k) % 16) as u32).collect())
            .collect();
        let cfg = GridConfig::default();
        let seq = empirical_sensitivity(&model, &probe, 2, &cfg, 1).unwrap();
        for threads in [2usize, 4] {
            let par = empirical_sensitivity(&model, &probe, 2, &cfg, threads).unwrap();
            assert_eq!(seq, par, "{threads}-thread probe must be bit-identical");
        }
    }

    #[test]
    fn markdown_render_contains_all_layers() {
        let model = Model::new(&ModelConfig::test_tiny(16), 4);
        let segs = vec![(0..10).map(|i| (i % 16) as u32).collect::<Vec<u32>>()];
        let hs = crate::collect_hessians(&model, &segs, HessianMode::LayerInput).unwrap();
        let report = SensitivityReport::from_hessians(&hs);
        let md = report.to_markdown();
        assert!(md.contains("self_attn.q_proj"));
        assert!(md.contains("mlp.down_proj"));
        assert_eq!(md.lines().count(), 2 + report.len());
        let _ = LayerKind::ALL;
    }
}
