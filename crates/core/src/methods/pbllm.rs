//! PB-LLM-style partial binarization [Shang et al., 2023].
//!
//! A fraction `salient_ratio` of each layer's weights — chosen by
//! Hessian-diagonal-weighted magnitude, PB-LLM's salience criterion —
//! stays in fp16; the rest is binarized to sign × per-group mean
//! magnitude. `PB-LLM r%` in the tables is this method with
//! `salient_ratio = r`.

use aptq_lm::Model;
use aptq_tensor::Matrix;

use crate::grid::{GridConfig, QuantGrid};
use crate::hessian::HessianMode;
use crate::report::{LayerOutcome, QuantReport};
use crate::session::QuantSession;
use crate::QuantError;

/// Quantizes the model PB-LLM style, ranking salience by the
/// layer-input Hessians drawn from `session`.
///
/// # Errors
///
/// Returns [`QuantError::InvalidRatio`] for a salient ratio outside
/// `[0, 1]`; propagates calibration errors.
///
/// # Determinism
///
/// Bit-identical across `APTQ_THREADS`: salience ranking and the binary
/// residual both run on `aptq_tensor::parallel`'s order-preserving
/// kernels.
pub fn quantize(
    model: &mut Model,
    session: &mut QuantSession,
    salient_ratio: f32,
    cfg: &GridConfig,
) -> Result<QuantReport, QuantError> {
    if !(0.0..=1.0).contains(&salient_ratio) {
        return Err(QuantError::InvalidRatio {
            ratio: salient_ratio,
        });
    }
    let hessians = session.hessians(model, HessianMode::LayerInput)?;
    let grid = QuantGrid::binary();
    let mut outcomes = Vec::new();

    for layer in model.layer_refs() {
        let w = model.layer_weight(layer).clone();
        let (d_in, d_out) = w.shape();
        let keep = salient_mask(&w, &hessians[&layer].h.diag(), salient_ratio);
        let n_salient = keep.iter().filter(|&&k| k).count();

        // Binarize the rest per input-group (keeping salient weights
        // exact), group scale from the binarized portion only.
        let group = cfg.group_size.min(d_in).max(1);
        let mut deq = w.clone();
        let mut err = 0.0f64;
        for g0 in (0..d_in).step_by(group) {
            let g1 = (g0 + group).min(d_in);
            for c in 0..d_out {
                let vals: Vec<f32> = (g0..g1)
                    .filter(|&r| !keep[r * d_out + c])
                    .map(|r| w[(r, c)])
                    .collect();
                if vals.is_empty() {
                    continue;
                }
                let p = grid.fit_params(&vals);
                for r in g0..g1 {
                    if keep[r * d_out + c] {
                        continue;
                    }
                    let (_, d) = grid.quantize(w[(r, c)], p);
                    err += ((w[(r, c)] - d) as f64).powi(2);
                    deq[(r, c)] = d;
                }
            }
        }

        // Storage: 1 bit per binarized weight + 2 bytes per salient
        // weight + index overhead (2 bytes per salient index) + group scales.
        session.metrics_mut().incr("quant/pbllm/layers_binarized");
        session
            .metrics_mut()
            .add("quant/pbllm/salient_weights", n_salient as u64);
        let n_bin = d_in * d_out - n_salient;
        let storage = n_bin.div_ceil(8) + n_salient * 4 + d_in.div_ceil(group) * d_out * 2;
        let eff_bits = (storage * 8) as f32 / (d_in * d_out) as f32;
        *model.layer_weight_mut(layer) = deq;
        outcomes.push(LayerOutcome {
            layer,
            bits: eff_bits.round().clamp(1.0, 16.0) as u8,
            recon_error: (err / (d_in * d_out) as f64) as f32,
            storage_bytes: storage,
        });
    }
    Ok(QuantReport::new(
        format!("PB-LLM-{:.0}%", salient_ratio * 100.0),
        model,
        outcomes,
    ))
}

/// Nominal average bits of a PB-LLM configuration: salient weights in
/// fp16, the rest binarized to 1 bit (index/metadata overhead excluded,
/// as in the paper's "Avg bit" column).
pub fn average_bits(salient_ratio: f32) -> f32 {
    salient_ratio * 16.0 + (1.0 - salient_ratio) * 1.0
}

/// The per-layer salient mask [`quantize`] keeps in fp16: the
/// `round(ratio · d_in · d_out)` weights of largest Hessian-weighted
/// squared magnitude `h_diag[i] · w[i][j]²`.
pub fn salient_mask(w: &Matrix, h_diag: &[f32], ratio: f32) -> Vec<bool> {
    let (d_in, d_out) = w.shape();
    let mut salience: Vec<(usize, f32)> = (0..d_in * d_out)
        .map(|idx| {
            // audit:allow(div): the 0..d_in*d_out range is empty when d_out is 0
            let (i, j) = (idx / d_out, idx % d_out);
            (idx, h_diag[i] * w[(i, j)] * w[(i, j)])
        })
        .collect();
    salience.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let n = ((d_in * d_out) as f32 * ratio).round() as usize;
    let mut keep = vec![false; d_in * d_out];
    for &(idx, _) in salience.iter().take(n) {
        keep[idx] = true;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_lm::ModelConfig;

    fn calib() -> Vec<Vec<u32>> {
        (0..4)
            .map(|k| (0..12).map(|i| ((i * 7 + k) % 16) as u32).collect())
            .collect()
    }

    #[test]
    fn pbllm_runs_and_binarizes_majority() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 15);
        let report = quantize(
            &mut model,
            &mut QuantSession::new(calib()),
            0.2,
            &GridConfig::default(),
        )
        .unwrap();
        assert!(report.method.contains("PB-LLM"));
        // Most weights are 1-bit → far below 4-bit storage.
        assert!(report.avg_bits < 16.0);
        assert!(model.forward(&[1, 2, 3]).all_finite());
    }

    #[test]
    fn higher_salient_ratio_less_error() {
        let base = Model::new(&ModelConfig::test_tiny(16), 16);
        let err = |r: f32| {
            let mut m = base.clone();
            quantize(
                &mut m,
                &mut QuantSession::new(calib()),
                r,
                &GridConfig::default(),
            )
            .unwrap()
            .total_recon_error()
        };
        assert!(err(0.3) < err(0.1));
        assert!(err(0.1) < err(0.0) + 1e-9);
    }

    #[test]
    fn salient_mask_selects_requested_fraction() {
        let w = Matrix::from_fn(8, 4, |i, j| (i as f32 - 4.0) * 0.1 + j as f32 * 0.01);
        let h = vec![1.0f32; 8];
        let mask = salient_mask(&w, &h, 0.25);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 8);
        // The largest |w| entries must be kept.
        let kept_mags: Vec<f32> = mask
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(idx, _)| w[(idx / 4, idx % 4)].abs())
            .collect();
        let dropped_max = mask
            .iter()
            .enumerate()
            .filter(|(_, &b)| !b)
            .map(|(idx, _)| w[(idx / 4, idx % 4)].abs())
            .fold(0.0f32, f32::max);
        assert!(kept_mags.iter().all(|&m| m >= dropped_max - 1e-6));
    }

    #[test]
    fn invalid_ratio_rejected() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 17);
        assert!(matches!(
            quantize(
                &mut model,
                &mut QuantSession::new(calib()),
                1.5,
                &GridConfig::default()
            ),
            Err(QuantError::InvalidRatio { .. })
        ));
    }

    #[test]
    fn average_bits_formula() {
        assert!((average_bits(0.0) - 1.0).abs() < 1e-6);
        assert!(average_bits(0.3) > average_bits(0.1));
    }
}
