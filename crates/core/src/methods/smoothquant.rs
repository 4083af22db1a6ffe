//! SmoothQuant-style scale migration [Xiao et al., ICML 2023].
//!
//! SmoothQuant moves quantization difficulty from activations to weights
//! with a per-input-channel scale `sⱼ = max|Xⱼ|^α / max|Wⱼ|^(1−α)`:
//! `Y = (X·diag(s)⁻¹)·(diag(s)·W)`. In deployment the activation-side
//! scale is folded into the *previous* op; here that is the preceding
//! RMSNorm gain, exactly as in the reference implementation. Projections
//! whose inputs are not produced by a norm (`o_proj`, `down_proj`) are
//! quantized without smoothing.
//!
//! After migration, weights are quantized with per-group RTN at the base
//! width — reproducing SmoothQuant's role in Table 2 as a
//! calibration-light 4-bit comparator.

use aptq_lm::{BlockCapture, CaptureSink, LayerKind, LayerRef, Model};

use crate::engine;
use crate::grid::{GridConfig, QuantGrid};
use crate::report::{LayerOutcome, QuantReport};
use crate::QuantError;

/// Per-channel absolute maxima of the inputs feeding each block's two
/// norm-fed projection families.
struct BlockActStats {
    /// `max|x|` per channel of the attention input (post-norm1).
    attn: Vec<f32>,
    /// `max|x|` per channel of the FFN input (post-norm2).
    ffn: Vec<f32>,
}

/// Quantizes the model SmoothQuant-style: scale migration with strength
/// `alpha` (0.5 in the paper), then per-group RTN at `bits`.
///
/// # Errors
///
/// Returns [`QuantError::EmptyCalibration`] without calibration data,
/// [`QuantError::InvalidRatio`] for `alpha ∉ [0,1]`, and propagates grid
/// errors.
///
/// # Determinism
///
/// Bit-identical across `APTQ_THREADS`: scale migration is elementwise
/// over statistics computed via `aptq_tensor::parallel`'s
/// order-preserving kernels.
pub fn quantize(
    model: &mut Model,
    calibration: &[Vec<u32>],
    bits: u8,
    alpha: f32,
    cfg: &GridConfig,
) -> Result<QuantReport, QuantError> {
    if calibration.iter().all(|s| s.is_empty()) {
        return Err(QuantError::EmptyCalibration);
    }
    if !(0.0..=1.0).contains(&alpha) {
        return Err(QuantError::InvalidRatio { ratio: alpha });
    }
    let grid = QuantGrid::try_int(bits, cfg.asymmetric)?;

    // Pass 1: activation statistics.
    let stats = collect_act_stats(model, calibration);

    // Pass 2: fold scales into (norm gain, weights), then RTN.
    let mut outcomes = Vec::new();
    for (b, block_stats) in stats.iter().enumerate() {
        // Attention family: q/k/v read the norm1 output.
        apply_family(
            model,
            b,
            &[LayerKind::Q, LayerKind::K, LayerKind::V],
            &block_stats.attn,
            alpha,
            true,
        );
        // FFN family: gate/up read the norm2 output.
        apply_family(
            model,
            b,
            &[LayerKind::Gate, LayerKind::Up],
            &block_stats.ffn,
            alpha,
            false,
        );
        for kind in LayerKind::ALL {
            let layer = LayerRef { block: b, kind };
            let w = model.layer_weight(layer).clone();
            let res = engine::quantize_layer_rtn(&w, grid, cfg);
            let storage = res.packed.storage_bytes();
            *model.layer_weight_mut(layer) = res.dequantized;
            outcomes.push(LayerOutcome {
                layer,
                bits,
                recon_error: res.recon_error,
                storage_bytes: storage,
            });
        }
    }
    Ok(QuantReport::new(
        format!("SmoothQuant-{bits}bit"),
        model,
        outcomes,
    ))
}

/// Computes `s`, folds `1/s` into the norm gain and `s` into the family's
/// weight rows.
fn apply_family(
    model: &mut Model,
    block: usize,
    kinds: &[LayerKind],
    act_max: &[f32],
    alpha: f32,
    is_attn: bool,
) {
    let d = act_max.len();
    // Per-channel weight maxima across the family.
    let mut w_max = vec![1e-8f32; d];
    for &kind in kinds {
        let w = model.layer_weight(LayerRef { block, kind });
        for (i, wm) in w_max.iter_mut().enumerate() {
            for &v in w.row(i) {
                *wm = wm.max(v.abs());
            }
        }
    }
    let s: Vec<f32> = (0..d)
        .map(|i| {
            let a = act_max[i].max(1e-8).powf(alpha);
            let b = w_max[i].powf(1.0 - alpha);
            (a / b).clamp(1e-4, 1e4)
        })
        .collect();
    // Fold into weights: W ← diag(s)·W.
    for &kind in kinds {
        let w = model.layer_weight_mut(LayerRef { block, kind });
        for (i, &si) in s.iter().enumerate() {
            for v in w.row_mut(i) {
                *v *= si;
            }
        }
    }
    // Fold into the producing norm: gain ← gain / s.
    let blk = &mut model.blocks_mut()[block];
    let gain = if is_attn {
        blk.norm1.gain_mut()
    } else {
        blk.norm2.gain_mut()
    };
    for (g, &si) in gain.iter_mut().zip(s.iter()) {
        *g /= si;
    }
}

fn collect_act_stats(model: &Model, calibration: &[Vec<u32>]) -> Vec<BlockActStats> {
    let d = model.config().d_model;
    let mut stats: Vec<BlockActStats> = (0..model.config().n_layers)
        .map(|_| BlockActStats {
            attn: vec![0.0; d],
            ffn: vec![0.0; d],
        })
        .collect();
    let n_blocks = stats.len();
    let each = &mut |b: usize, bc: &BlockCapture| {
        let s = &mut stats[b];
        for (acc, x) in [(&mut s.attn, &bc.attn_input), (&mut s.ffn, &bc.ffn_input)] {
            for row in x.as_slice().chunks_exact(d) {
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a = a.max(v.abs());
                }
            }
        }
    };
    let capture = &mut BlockCapture::default();
    for seg in calibration.iter().filter(|s| !s.is_empty()) {
        let sink = Some(CaptureSink { capture, each });
        model.forward_blocks(0..n_blocks, &mut model.embed_tokens(seg), sink);
    }
    stats
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

    /// The statistics before they ran through the inference core: the
    /// training forward block by block, `max|x|` over its cache's norm
    /// outputs, as bits.
    fn oracle_act_stats(model: &Model, calibration: &[Vec<u32>]) -> Vec<[Vec<u32>; 2]> {
        let d = model.config().d_model;
        let mut stats = vec![[vec![0.0f32; d], vec![0.0f32; d]]; model.blocks().len()];
        for seg in calibration.iter().filter(|s| !s.is_empty()) {
            let mut x = model.embed_tokens(seg);
            for (block, [attn, ffn]) in model.blocks().iter().zip(&mut stats) {
                let (y, c) = block.forward(&x, model.rope());
                for (acc, m) in [(attn, &c.attn.x), (ffn, &c.ffn.x)] {
                    for i in 0..m.rows() {
                        for (a, &v) in acc.iter_mut().zip(m.row(i)) {
                            *a = a.max(v.abs());
                        }
                    }
                }
                x = y;
            }
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect();
        stats.iter().map(|[a, f]| [bits(a), bits(f)]).collect()
    }

    /// `n` segments of the given lengths, cycled, over `vocab` tokens.
    fn segments(lengths: &[usize], n: usize, vocab: u32) -> Vec<Vec<u32>> {
        let mut state = 0x9e37_79b9_u64;
        (0..n)
            .map(|k| {
                (0..lengths[k % lengths.len()])
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        ((state >> 33) % u64::from(vocab)) as u32
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn act_stats_match_training_forward_oracle() {
        // Ragged `test_tiny` calibration, and the benchmark's shape on
        // the committed TinyLlama-M checkpoint: 64 segments of 64 tokens.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../assets/ckpt-s800b12l44-v134-tinyllama_m.json"
        );
        let json = std::fs::read_to_string(path).expect("committed TinyLlama-M checkpoint");
        let tinyllama_m = Model::from_json(&json).expect("checkpoint parses");
        let vocab = tinyllama_m.config().vocab_size as u32;
        let cases = [
            (
                Model::new(&ModelConfig::test_tiny(16), 26),
                segments(&[12, 0, 1, 7], 9, 16),
            ),
            (tinyllama_m, segments(&[64], 64, vocab)),
        ];
        for (model, calib) in &cases {
            let got: Vec<[Vec<u32>; 2]> = collect_act_stats(model, calib)
                .iter()
                .map(|s| [&s.attn, &s.ffn].map(|v| v.iter().map(|f| f.to_bits()).collect()))
                .collect();
            assert_eq!(got, oracle_act_stats(model, calib));
        }
    }

    #[test]
    fn smoothing_preserves_function_before_quantization() {
        // Fold s into weights and 1/s into norms with 16-bit "quantization"
        // (bits=8 is closest we can do; instead check the folding alone by
        // comparing outputs after folding but before RTN).
        let base = Model::new(&ModelConfig::test_tiny(16), 22);
        let mut folded = base.clone();
        let stats = collect_act_stats(&base, &calib());
        for (b, block_stats) in stats.iter().enumerate() {
            apply_family(
                &mut folded,
                b,
                &[LayerKind::Q, LayerKind::K, LayerKind::V],
                &block_stats.attn,
                0.5,
                true,
            );
            apply_family(
                &mut folded,
                b,
                &[LayerKind::Gate, LayerKind::Up],
                &block_stats.ffn,
                0.5,
                false,
            );
        }
        let probe = [1u32, 5, 9, 13];
        let a = base.forward(&probe);
        let b = folded.forward(&probe);
        let rel = a.sub(&b).frobenius_norm() / a.frobenius_norm();
        assert!(
            rel < 1e-3,
            "scale folding must be function-preserving: {rel}"
        );
    }

    #[test]
    fn smoothquant_runs_and_reports() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 23);
        let report = quantize(&mut model, &calib(), 4, 0.5, &GridConfig::default()).unwrap();
        assert!(report.method.contains("SmoothQuant"));
        assert_eq!(report.avg_bits, 4.0);
        assert!(model.forward(&[1, 2, 3]).all_finite());
    }

    #[test]
    fn rejects_bad_alpha_and_empty_calibration() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 24);
        assert!(matches!(
            quantize(&mut model, &calib(), 4, 1.5, &GridConfig::default()),
            Err(QuantError::InvalidRatio { .. })
        ));
        assert!(matches!(
            quantize(&mut model, &[], 4, 0.5, &GridConfig::default()),
            Err(QuantError::EmptyCalibration)
        ));
    }

    #[test]
    fn smoothing_helps_when_activations_have_outliers() {
        // Construct a model whose first block sees a huge activation on
        // one channel by scaling an embedding column; smoothing should
        // reduce quantization drift relative to plain RTN.
        let mut base = Model::new(&ModelConfig::test_tiny(16), 25);
        for r in 0..16 {
            base.embed_mut()[(r, 3)] *= 8.0;
        }
        let probe: Vec<u32> = (0..12).map(|i| ((i * 3) % 16) as u32).collect();
        let ref_logits = base.forward(&probe);
        let cfg = GridConfig::default();

        let mut sq = base.clone();
        quantize(&mut sq, &calib(), 3, 0.5, &cfg).unwrap();
        let mut rtn = base.clone();
        crate::methods::rtn::quantize(&mut rtn, 3, &cfg).unwrap();

        let drift = |m: &Model| m.forward(&probe).sub(&ref_logits).frobenius_norm();
        let (ds, dr) = (drift(&sq), drift(&rtn));
        // Weight-only RTN is not hurt by activation outliers, so parity is
        // acceptable; what must not happen is smoothing blowing up.
        assert!(
            ds < dr * 2.0,
            "smoothing must stay in RTN's ballpark: {ds} vs {dr}"
        );
    }
}
