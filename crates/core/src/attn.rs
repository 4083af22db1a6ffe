//! Attention-aware effective inputs — the heart of APTQ (§3.2).
//!
//! The paper replaces GPTQ's per-layer objective `‖WX − ŴX‖²` with the
//! attention-block objective `‖F(W) − F(Ŵ)‖²` (Eq. 5) and takes the
//! Levenberg–Marquardt Hessian `H = 2·F′(Ŵ)F′(Ŵ)ᵀ` (Eq. 7), with
//! per-projection Jacobians given by Eqs. (9), (10), (12), (13).
//!
//! The GPTQ update machinery needs one `d_in × d_in` Hessian shared
//! across output rows, i.e. a Kronecker factorization `JᵀJ ≈ R ⊗ H_in`.
//! This module therefore reduces each Jacobian to an **effective input**
//! whose Gram matrix is that input-side factor (see `DESIGN.md` §3 for
//! the full derivation and the approximations taken):
//!
//! - **`o_proj`** (Eq. 9): the Jacobian w.r.t. `W^O` is exactly
//!   `Concat(head₁..head_H)ᵀ·∂F/∂X`; with `F` the attention output,
//!   `∂F/∂X = I`, so the effective input is the concatenated heads —
//!   identical to GPTQ's input for this layer.
//! - **`v_proj`** (Eqs. 10–11): the Jacobian routes through the
//!   softmax-probability mixing `M = P·X` and the output projection
//!   `W^O`. Effective input per head: `P_h·X`, weighted by
//!   `s_h = ‖W^O_h‖²_F / d_head` (diagonal approximation of the
//!   output-side factor `W^O_h·W^O_hᵀ`); Hessians summed over heads.
//! - **`q_proj` / `k_proj`** (Eqs. 12–14): the Jacobian passes through
//!   the per-row softmax Jacobian `diag(p) − p·pᵀ`. We keep the exact
//!   per-token softmax sensitivity (`Σⱼ pᵢⱼ(1−pᵢⱼ)`, the Jacobian's
//!   trace) and fold the `K`/`Q` and `V·W^O` factors in as mean-field
//!   scales, giving a token-reweighted effective input
//!   `X̃ = diag(√w)·X`. Queries are weighted by their row sensitivity
//!   (Eq. 12); keys by their column sensitivity — how much probability
//!   mass flows *through* that key across all queries (Eq. 13).
//!
//! The net effect matches the paper's qualitative claim: tokens whose
//! attention distributions are sharp (softmax near one-hot: low
//! sensitivity) contribute less curvature, diffuse rows contribute more,
//! and value vectors are weighted by how much attention actually mixes
//! them — none of which plain GPTQ sees.

use aptq_lm::capture::BlockCapture;
use aptq_tensor::Matrix;

/// Scale factors derived from a head's downstream path, used by the Q/K
/// mean-field weights.
#[derive(Debug, Clone, Copy)]
struct HeadScales {
    /// `‖V_h·W^O_h‖²_F / (T·d_model)` — mean-square downstream map.
    downstream: f32,
    /// `1/d_k` score scaling (squared in the Hessian).
    inv_dk: f32,
}

/// Builds the effective input for `q_proj` (Eq. 12): the raw attention
/// input with per-**query**-token √weights from the softmax Jacobian.
///
/// `wo` is the block's output projection (`d_model × d_model`).
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
/// the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn effective_input_q(cap: &BlockCapture, wo: &Matrix) -> Matrix {
    let weights = query_weights(cap, &head_scales(cap, wo));
    reweight_rows(&cap.attn_input, &weights)
}

/// Builds the effective input for `k_proj` (Eq. 13): the raw attention
/// input with per-**key**-token √weights (probability mass routed through
/// each key, softmax-Jacobian weighted).
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
/// the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn effective_input_k(cap: &BlockCapture, wo: &Matrix) -> Matrix {
    let weights = key_weights(cap, &head_scales(cap, wo));
    reweight_rows(&cap.attn_input, &weights)
}

/// [`effective_input_q`] and [`effective_input_k`] together, computing
/// each head's `V_h·W^O_h` scales once for both; each result equals its
/// single-layer builder's bit for bit.
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
/// the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn effective_inputs_qk(cap: &BlockCapture, wo: &Matrix) -> (Matrix, Matrix) {
    let scales = head_scales(cap, wo);
    (
        reweight_rows(&cap.attn_input, &query_weights(cap, &scales)),
        reweight_rows(&cap.attn_input, &key_weights(cap, &scales)),
    )
}

/// Builds the per-head effective inputs for `v_proj` (Eqs. 10–11):
/// `(s_h, P_h·X)` pairs whose weighted Grams sum to the value Hessian.
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
/// the deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn effective_inputs_v(cap: &BlockCapture, wo: &Matrix) -> Vec<(f32, Matrix)> {
    let n_heads = cap.probs.len();
    let d_model = cap.attn_input.cols();
    // audit:allow(div): a capture always holds at least one attention head
    let d_head = d_model / n_heads;
    let mut out = Vec::with_capacity(n_heads);
    for (h, p) in cap.probs.iter().enumerate() {
        // s_h = ‖W^O_h‖²_F / d_head  (rows h·d_head.. of W^O).
        let wo_h = wo.slice_rows(h * d_head, (h + 1) * d_head);
        // audit:allow(div): d_head ≥ 1 — d_model is a positive multiple of n_heads
        let s_h = wo_h.frobenius_norm_sq() / d_head as f32;
        let mixed = p.matmul(&cap.attn_input); // P_h·X, T×d_model
        out.push((s_h, mixed));
    }
    out
}

/// Effective input for `o_proj` (Eq. 9): exactly the concatenated heads.
pub fn effective_input_o(cap: &BlockCapture) -> &Matrix {
    &cap.concat
}

/// Per-query-token weights for the Q Hessian.
///
/// `w[i] = Σ_h sens_h(i) · downstream_h · kscale_h / d_k` where
/// `sens_h(i) = Σ_j p_ij(1−p_ij)` is the trace of the softmax Jacobian
/// at query row `i`.
fn query_weights(cap: &BlockCapture, scales: &[HeadScales]) -> Vec<f32> {
    let t = cap.attn_input.rows();
    let n_heads = cap.probs.len();
    let d_model = cap.attn_input.cols();
    // audit:allow(div): a capture always holds at least one attention head
    let d_head = d_model / n_heads;
    let mut w = vec![0.0f32; t];
    for (h, scales) in scales.iter().enumerate() {
        let kscale = slice_mean_sq(&cap.k_rot, h, d_head);
        let p = &cap.probs[h];
        for (i, wi) in w.iter_mut().enumerate() {
            let sens: f32 = p.row(i).iter().map(|&pp| pp * (1.0 - pp)).sum();
            *wi += sens * scales.downstream * kscale * scales.inv_dk;
        }
    }
    w
}

/// Per-key-token weights for the K Hessian: probability-Jacobian mass
/// arriving at key `j` summed over queries.
fn key_weights(cap: &BlockCapture, scales: &[HeadScales]) -> Vec<f32> {
    let t = cap.attn_input.rows();
    let n_heads = cap.probs.len();
    let d_model = cap.attn_input.cols();
    // audit:allow(div): a capture always holds at least one attention head
    let d_head = d_model / n_heads;
    let mut w = vec![0.0f32; t];
    for (h, scales) in scales.iter().enumerate() {
        let qscale = slice_mean_sq(&cap.q_rot, h, d_head);
        let p = &cap.probs[h];
        for i in 0..t {
            for (j, &pij) in p.row(i).iter().enumerate() {
                w[j] += pij * (1.0 - pij) * scales.downstream * qscale * scales.inv_dk;
            }
        }
    }
    w
}

/// Every head's [`HeadScales`], in head order.
fn head_scales(cap: &BlockCapture, wo: &Matrix) -> Vec<HeadScales> {
    let n_heads = cap.probs.len();
    let d_model = cap.attn_input.cols();
    // audit:allow(div): a capture always holds at least one attention head
    let d_head = d_model / n_heads;
    let t = cap.attn_input.rows();
    (0..n_heads)
        .map(|h| {
            let vh = cap.v.slice_cols(h * d_head, (h + 1) * d_head);
            let wo_h = wo.slice_rows(h * d_head, (h + 1) * d_head);
            let vo = vh.matmul(&wo_h); // T × d_model
            HeadScales {
                downstream: vo.frobenius_norm_sq() / (t * d_model) as f32,
                // audit:allow(div): d_head ≥ 1 — d_model is a positive multiple of n_heads
                inv_dk: 1.0 / d_head as f32,
            }
        })
        .collect()
}

/// Mean squared entry of one head's slice of a `T × d_model` matrix.
fn slice_mean_sq(m: &Matrix, h: usize, d_head: usize) -> f32 {
    let s = m.slice_cols(h * d_head, (h + 1) * d_head);
    s.frobenius_norm_sq() / s.len().max(1) as f32
}

/// Returns `diag(√w)·X` (rows scaled by the square roots of `w`).
///
/// Weights are floored at a small positive value so no token is erased
/// entirely (a zero row would remove its curvature information and can
/// make the Hessian singular).
fn reweight_rows(x: &Matrix, weights: &[f32]) -> Matrix {
    assert_eq!(x.rows(), weights.len(), "reweight: row count mismatch");
    // Normalize so the average weight is 1: keeps Hessian magnitude (and
    // therefore trace sensitivity) comparable with the unweighted case.
    // audit:allow(accum): switching to f64 would change packed outputs bitwise
    let mean = weights.iter().sum::<f32>() / weights.len().max(1) as f32;
    let mean = if mean > 0.0 { mean } else { 1.0 };
    let mut out = x.clone();
    for (i, &w) in weights.iter().enumerate() {
        let scaled = ((w / mean).max(1e-4)).sqrt();
        for v in out.row_mut(i) {
            *v *= scaled;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_lm::{CaptureSink, Model, ModelConfig};

    /// Block 0's capture of a 7-token sequence, and its `W^O`.
    fn capture() -> (BlockCapture, Matrix) {
        let cfg = ModelConfig::test_tiny(16);
        let model = Model::new(&cfg, 3);
        let mut cap = BlockCapture::default();
        model.forward_blocks(
            0..1,
            &mut model.embed_tokens(&[1, 2, 3, 4, 5, 6, 7]),
            Some(CaptureSink {
                capture: &mut cap,
                each: &mut |_, _| {},
            }),
        );
        let wo = model
            .layer_weight(aptq_lm::LayerRef {
                block: 0,
                kind: aptq_lm::LayerKind::O,
            })
            .clone();
        (cap, wo)
    }

    #[test]
    fn effective_inputs_have_right_shapes() {
        let (cap, wo) = capture();
        let t = cap.attn_input.rows();
        let d = cap.attn_input.cols();
        assert_eq!(effective_input_q(&cap, &wo).shape(), (t, d));
        assert_eq!(effective_input_k(&cap, &wo).shape(), (t, d));
        assert_eq!(effective_input_o(&cap).shape(), (t, d));
        let vs = effective_inputs_v(&cap, &wo);
        assert_eq!(vs.len(), cap.probs.len());
        for (s, m) in &vs {
            assert!(*s > 0.0);
            assert_eq!(m.shape(), (t, d));
        }
    }

    #[test]
    fn o_effective_input_is_gptq_input() {
        // Eq. 9 reduces to the concat-heads input — identical to GPTQ.
        let (cap, _) = capture();
        assert_eq!(effective_input_o(&cap), &cap.concat);
    }

    #[test]
    fn q_weights_differ_across_tokens() {
        // The whole point: tokens are weighted unequally by their softmax
        // sensitivity, unlike GPTQ's uniform weighting.
        let (cap, wo) = capture();
        let w = query_weights(&cap, &head_scales(&cap, &wo));
        let (lo, hi) = w
            .iter()
            .fold((f32::INFINITY, 0.0f32), |(l, h), &v| (l.min(v), h.max(v)));
        assert!(hi > lo * 1.01, "weights should vary: {w:?}");
        assert!(w.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn first_token_has_zero_query_sensitivity() {
        // Token 0 attends only to itself: p = [1, 0, ...] → p(1−p) = 0.
        let (cap, wo) = capture();
        let w = query_weights(&cap, &head_scales(&cap, &wo));
        assert!(
            w[0].abs() < 1e-6,
            "one-hot softmax row has zero Jacobian trace"
        );
        // Later tokens have positive sensitivity.
        assert!(w[1..].iter().any(|&v| v > 0.0));
    }

    #[test]
    fn key_weights_concentrate_on_attended_tokens() {
        let (cap, wo) = capture();
        let w = key_weights(&cap, &head_scales(&cap, &wo));
        // The last key can only be attended by the last query; it should
        // typically carry less routed mass than early keys.
        assert!(w.iter().all(|&v| v >= 0.0));
        let total: f32 = w.iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn v_effective_input_mixes_tokens() {
        // P·X differs from X because attention mixes rows.
        let (cap, wo) = capture();
        let vs = effective_inputs_v(&cap, &wo);
        let (_, mixed) = &vs[0];
        assert_ne!(mixed, &cap.attn_input);
        // Row 0 attends only to itself: P[0,:] = e₀ → mixed row 0 == X row 0.
        for (a, b) in mixed.row(0).iter().zip(cap.attn_input.row(0)) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn reweighting_preserves_average_scale() {
        let (cap, wo) = capture();
        let xq = effective_input_q(&cap, &wo);
        let ratio = xq.frobenius_norm_sq() / cap.attn_input.frobenius_norm_sq();
        // Normalized weights keep the overall energy within an order of
        // magnitude of the raw input.
        assert!(ratio > 0.05 && ratio < 20.0, "ratio {ratio}");
    }
}
