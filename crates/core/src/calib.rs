//! Calibration: running the model over calibration segments and
//! accumulating per-layer Hessians in either GPTQ or APTQ mode.

use std::collections::BTreeMap;

use aptq_lm::{BlockCapture, CaptureSink, LayerKind, LayerRef, Model};
use aptq_tensor::parallel::{run_indexed, thread_count};
use aptq_tensor::Matrix;

use crate::attn;
use crate::hessian::{gram, HessianAccumulator, HessianMode, LayerHessian};
use crate::QuantError;

/// Collects per-layer Hessians over a calibration set.
///
/// - [`HessianMode::LayerInput`]: every projection's Hessian is
///   `2·Σ XᵀX` with `X` its raw input (GPTQ).
/// - [`HessianMode::AttentionAware`]: `q/k/v/o_proj` use the
///   attention-aware effective inputs of [`crate::attn`] (Eqs. 9–15);
///   the feed-forward projections use their raw inputs, exactly as the
///   paper prescribes for "the Feed-Forward layer".
///
/// Segments run in windows of [`aptq_tensor::parallel::thread_count`]
/// at once. Each job walks one segment block by block and turns each
/// block's capture into that block's Grams before the next block runs;
/// the window's Grams are then folded into the accumulators in segment
/// order, then layer order, then head order.
///
/// # Errors
///
/// Returns [`QuantError::EmptyCalibration`] if `segments` is empty or
/// all segments are shorter than 1 token.
///
/// # Determinism
///
/// Bit-identical at every `APTQ_THREADS`: a Gram depends only on its
/// segment, and every accumulator folds its Grams in segment order, as
/// a one-segment-at-a-time loop would; all other parallelism routes
/// through `aptq_tensor::parallel`, whose kernels keep the
/// floating-point reduction order of the sequential path.
pub fn collect_hessians(
    model: &Model,
    segments: &[Vec<u32>],
    mode: HessianMode,
) -> Result<BTreeMap<LayerRef, LayerHessian>, QuantError> {
    let segments: Vec<&[u32]> = segments
        .iter()
        .filter(|s| !s.is_empty())
        .map(Vec::as_slice)
        .collect();
    if segments.is_empty() {
        return Err(QuantError::EmptyCalibration);
    }
    let d_model = model.config().d_model;
    let d_ff = model.config().d_ff;
    let layers = model.layer_refs();
    let mut accs: Vec<HessianAccumulator> = layers
        .iter()
        .map(|r| {
            HessianAccumulator::new(if r.kind == LayerKind::Down {
                d_ff
            } else {
                d_model
            })
        })
        .collect();

    let window = thread_count();
    for chunk in segments.chunks(window) {
        let grams = run_indexed(chunk.len(), window, |i| {
            segment_grams(model, chunk[i], mode)
        });
        for segment in grams {
            for (b, block) in segment.into_iter().enumerate() {
                for &(kind, g, weight, tokens) in &block.terms {
                    let layer = b * LayerKind::ALL.len() + kind as usize;
                    accs[layer].add_gram(&block.grams[g], weight, tokens);
                }
            }
        }
    }

    Ok(layers
        .into_iter()
        .zip(accs)
        .map(|(r, a)| (r, a.finish()))
        .collect())
}

/// One block's Grams for one segment.
struct BlockGrams {
    grams: Vec<Matrix>,
    /// `(kind, index into grams, weight, tokens counted)` in fold order:
    /// layer order, then head order.
    terms: Vec<(LayerKind, usize, f32, usize)>,
}

impl BlockGrams {
    /// Adds `x`'s Gram, returning its index.
    fn push_gram(&mut self, x: &Matrix) -> usize {
        self.grams.push(gram(x));
        self.grams.len() - 1
    }
}

/// Runs one segment through the inference core
/// ([`Model::forward_blocks`]), turning each block's capture into that
/// block's Grams before the next block reuses the capture's buffers.
fn segment_grams(model: &Model, seg: &[u32], mode: HessianMode) -> Vec<BlockGrams> {
    let blocks = model.blocks();
    let mut out = Vec::with_capacity(blocks.len());
    let each = &mut |b: usize, cap: &BlockCapture| {
        out.push(block_grams(cap, blocks[b].weight(LayerKind::O), mode));
    };
    let capture = &mut BlockCapture::default();
    let sink = Some(CaptureSink { capture, each });
    model.forward_blocks(0..blocks.len(), &mut model.embed_tokens(seg), sink);
    out
}

/// Every Gram one block's capture contributes, for each layer of the
/// block. Layers fed the same input share one Gram: q/k/v under
/// [`HessianMode::LayerInput`], and gate/up in both modes.
fn block_grams(cap: &BlockCapture, wo: &Matrix, mode: HessianMode) -> BlockGrams {
    let t = cap.attn_input.rows();
    let mut g = BlockGrams {
        grams: Vec::new(),
        terms: Vec::new(),
    };
    match mode {
        HessianMode::AttentionAware => {
            let (xq, xk) = attn::effective_inputs_qk(cap, wo);
            let q = g.push_gram(&xq);
            g.terms.push((LayerKind::Q, q, 1.0, t));
            let k = g.push_gram(&xk);
            g.terms.push((LayerKind::K, k, 1.0, t));
            // Per-head terms all describe the same tokens; count them
            // once so the trace normalization stays comparable across
            // layers.
            for (i, (s, x)) in attn::effective_inputs_v(cap, wo).into_iter().enumerate() {
                let v = g.push_gram(&x);
                g.terms
                    .push((LayerKind::V, v, s, if i == 0 { t } else { 0 }));
            }
        }
        HessianMode::LayerInput => {
            let x = g.push_gram(&cap.attn_input);
            for kind in [LayerKind::Q, LayerKind::K, LayerKind::V] {
                g.terms.push((kind, x, 1.0, t));
            }
        }
    }
    let o = g.push_gram(&attn::effective_input_o(cap));
    g.terms.push((LayerKind::O, o, 1.0, t));
    let ffn = g.push_gram(&cap.ffn_input);
    g.terms.push((LayerKind::Gate, ffn, 1.0, t));
    g.terms.push((LayerKind::Up, ffn, 1.0, t));
    let down = g.push_gram(&cap.ffn_hidden);
    g.terms.push((LayerKind::Down, down, 1.0, t));
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_lm::ModelConfig;

    fn model_and_segments() -> (Model, Vec<Vec<u32>>) {
        let model = Model::new(&ModelConfig::test_tiny(16), 9);
        let segments: Vec<Vec<u32>> = (0..4)
            .map(|k| (0..10).map(|i| ((i * 3 + k) % 16) as u32).collect())
            .collect();
        (model, segments)
    }

    #[test]
    fn collects_hessian_for_every_layer() {
        let (model, segs) = model_and_segments();
        for mode in [HessianMode::LayerInput, HessianMode::AttentionAware] {
            let hs = collect_hessians(&model, &segs, mode).unwrap();
            assert_eq!(hs.len(), model.layer_refs().len());
            for (r, lh) in &hs {
                let want = if r.kind == LayerKind::Down { 32 } else { 16 };
                assert_eq!(lh.h.shape(), (want, want), "{r}");
                assert!(lh.mean_trace > 0.0, "{r} has zero sensitivity");
                assert_eq!(lh.n_tokens % 10, 0);
            }
        }
    }

    #[test]
    fn modes_agree_on_ffn_and_o_but_differ_on_qkv() {
        let (model, segs) = model_and_segments();
        let gptq = collect_hessians(&model, &segs, HessianMode::LayerInput).unwrap();
        let aptq = collect_hessians(&model, &segs, HessianMode::AttentionAware).unwrap();
        for r in model.layer_refs() {
            let a = &gptq[&r].h;
            let b = &aptq[&r].h;
            let same = a.sub(b).frobenius_norm() < 1e-4 * a.frobenius_norm().max(1.0);
            match r.kind {
                LayerKind::O | LayerKind::Gate | LayerKind::Up | LayerKind::Down => {
                    assert!(same, "{r}: modes must agree");
                }
                LayerKind::Q | LayerKind::K | LayerKind::V => {
                    assert!(
                        !same,
                        "{r}: attention-aware Hessian must differ from GPTQ's"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_calibration_is_an_error() {
        let (model, _) = model_and_segments();
        assert!(matches!(
            collect_hessians(&model, &[], HessianMode::LayerInput),
            Err(QuantError::EmptyCalibration)
        ));
        assert!(matches!(
            collect_hessians(&model, &[vec![], vec![]], HessianMode::LayerInput),
            Err(QuantError::EmptyCalibration)
        ));
    }

    #[test]
    fn empty_segments_are_skipped_not_fatal() {
        let (model, mut segs) = model_and_segments();
        segs.push(vec![]);
        let hs = collect_hessians(&model, &segs, HessianMode::LayerInput).unwrap();
        assert!(!hs.is_empty());
    }

    #[test]
    fn more_data_scales_hessian_not_trace() {
        let (model, segs) = model_and_segments();
        let h1 = collect_hessians(&model, &segs[..2], HessianMode::LayerInput).unwrap();
        let h2 = collect_hessians(&model, &segs, HessianMode::LayerInput).unwrap();
        let r = model.layer_refs()[0];
        assert!(h2[&r].n_tokens > h1[&r].n_tokens);
        // Trace statistic is token-normalized; same distribution → same
        // order of magnitude.
        let ratio = h2[&r].mean_trace / h1[&r].mean_trace;
        assert!(ratio > 0.3 && ratio < 3.0, "trace not normalized: {ratio}");
    }
}
