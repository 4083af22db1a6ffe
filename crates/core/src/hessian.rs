//! Hessian accumulation for layer-wise quantization.
//!
//! Both GPTQ and APTQ drive the same OBQ update machinery with a
//! `d_in × d_in` Hessian `H = 2·Σ X̃ᵀX̃` accumulated over calibration
//! samples. For GPTQ the effective input `X̃` is the raw layer input
//! (`H_F = 2X_FX_Fᵀ`, §3.2 of the paper); for APTQ it is the
//! attention-transformed effective input built in [`crate::attn`].

use aptq_tensor::{linalg, Matrix};
use serde::{Deserialize, Serialize};

/// Which Hessian family a pipeline collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HessianMode {
    /// GPTQ: `H = 2XXᵀ` with `X` the raw layer input.
    LayerInput,
    /// APTQ: attention-aware Hessians (Eqs. 9–15) for `q/k/v/o_proj`,
    /// layer-input Hessians for the feed-forward projections.
    AttentionAware,
}

impl std::fmt::Display for HessianMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HessianMode::LayerInput => f.write_str("layer-input (GPTQ)"),
            HessianMode::AttentionAware => f.write_str("attention-aware (APTQ)"),
        }
    }
}

/// Accumulates `H = 2·Σ X̃ᵀX̃` sample by sample.
#[derive(Debug, Clone)]
pub struct HessianAccumulator {
    h: Matrix,
    n_tokens: usize,
}

impl HessianAccumulator {
    /// Creates an accumulator for a `dim`-dimensional input space.
    pub fn new(dim: usize) -> Self {
        HessianAccumulator {
            h: Matrix::zeros(dim, dim),
            n_tokens: 0,
        }
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.h.rows()
    }

    /// Accumulates one sample's effective input (`T × dim`).
    ///
    /// Equal bit for bit to `add_gram(&gram(x), 1.0, x.rows())`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: the Gram runs on the
    /// deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn update(&mut self, x: &Matrix) {
        self.update_weighted(x, 1.0);
    }

    /// Accumulates with a scalar weight (used by per-head sums).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: the Gram runs on the
    /// deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn update_weighted(&mut self, x: &Matrix, weight: f32) {
        assert_eq!(x.cols(), self.h.rows(), "hessian update: width mismatch");
        self.add_gram(&gram(x), weight, x.rows());
    }

    /// Like [`update_weighted`] but does **not** advance the token
    /// counter — for contributions that re-view tokens already counted
    /// (e.g. the per-head terms of the APTQ value Hessian, which all
    /// describe the same calibration tokens). Keeping the counter honest
    /// keeps the trace sensitivity comparable across layers.
    ///
    /// [`update_weighted`]: HessianAccumulator::update_weighted
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: the Gram runs on the
    /// deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn update_weighted_uncounted(&mut self, x: &Matrix, weight: f32) {
        assert_eq!(x.cols(), self.h.rows(), "hessian update: width mismatch");
        self.add_gram(&gram(x), weight, 0);
    }

    /// Folds in a precomputed Gram `XᵀX` ([`gram`]) with weight
    /// `weight`, counting `tokens` more calibration tokens:
    /// `H += 2·weight·XᵀX`.
    ///
    /// Taking the Gram apart from the fold lets the capture pass build
    /// Grams on worker threads and fold them in a fixed order.
    ///
    /// # Panics
    ///
    /// Panics if `gram` is not `dim × dim`.
    pub fn add_gram(&mut self, gram: &Matrix, weight: f32, tokens: usize) {
        assert_eq!(
            gram.shape(),
            self.h.shape(),
            "hessian update: width mismatch"
        );
        self.h.axpy(2.0 * weight, gram);
        self.n_tokens += tokens;
    }

    /// Finalizes into a [`LayerHessian`].
    ///
    /// The sensitivity statistic (mean diagonal, the paper's "average
    /// Hessian trace") is taken **before** damping and normalized by the
    /// token count so layers are comparable.
    pub fn finish(self) -> LayerHessian {
        crate::invariants::hessian_well_formed(&self.h, "HessianAccumulator::finish");
        let dim = self.h.rows();
        let mean_trace = if dim == 0 || self.n_tokens == 0 {
            0.0
        } else {
            linalg::mean_diagonal(&self.h) / self.n_tokens as f32
        };
        LayerHessian {
            h: self.h,
            n_tokens: self.n_tokens,
            mean_trace,
        }
    }
}

/// The Gram matrix `XᵀX` of one effective input `X` (`T × dim`): the
/// per-sample term [`HessianAccumulator::add_gram`] folds in.
///
/// # Determinism
///
/// Bit-identical at any `APTQ_THREADS` value: the matmul runs on the
/// deterministic threadpool ([`aptq_tensor::parallel`]).
pub fn gram(x: &Matrix) -> Matrix {
    x.matmul_tn(x)
}

/// A finalized per-layer Hessian plus its sensitivity statistic.
#[derive(Debug, Clone)]
pub struct LayerHessian {
    /// The (undamped) Hessian `2·Σ X̃ᵀX̃`.
    pub h: Matrix,
    /// Total calibration tokens accumulated.
    pub n_tokens: usize,
    /// Average Hessian trace per dimension per token — APTQ's layer
    /// sensitivity metric (§3.3).
    pub mean_trace: f32,
}

impl LayerHessian {
    /// A damped copy of the Hessian: `H + λ·mean(diag H)·I`, the
    /// Levenberg–Marquardt-style regularization GPTQ uses (`λ = damp`,
    /// typically 0.01).
    ///
    /// Degenerate all-zero Hessians receive an absolute floor so the
    /// Cholesky factorization always has a path to succeed.
    pub fn damped(&self, damp: f32) -> Matrix {
        let mut h = self.h.clone();
        let mean_diag = if h.rows() == 0 {
            0.0
        } else {
            linalg::mean_diagonal(&h)
        };
        let lambda = (damp * mean_diag).max(1e-6);
        linalg::damp_diagonal(&mut h, lambda);
        crate::invariants::hessian_well_formed(&h, "LayerHessian::damped");
        crate::invariants::damped_diagonal_positive(&h, "LayerHessian::damped");
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_tensor::init;

    #[test]
    fn accumulator_matches_direct_formula() {
        let mut acc = HessianAccumulator::new(4);
        let x1 = init::normal(5, 4, 1.0, &mut init::rng(0));
        let x2 = init::normal(3, 4, 1.0, &mut init::rng(1));
        acc.update(&x1);
        acc.update(&x2);
        let lh = acc.finish();
        let direct = x1.matmul_tn(&x1).add(&x2.matmul_tn(&x2)).scale(2.0);
        for (a, b) in lh.h.as_slice().iter().zip(direct.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(lh.n_tokens, 8);
    }

    #[test]
    fn hessian_is_symmetric_psd() {
        let mut acc = HessianAccumulator::new(6);
        acc.update(&init::normal(20, 6, 1.0, &mut init::rng(2)));
        let lh = acc.finish();
        for i in 0..6 {
            for j in 0..6 {
                assert!((lh.h[(i, j)] - lh.h[(j, i)]).abs() < 1e-4);
            }
            assert!(lh.h[(i, i)] >= 0.0);
        }
        // Damped version must be Cholesky-factorizable.
        assert!(linalg::cholesky(&lh.damped(0.01)).is_ok());
    }

    #[test]
    fn weighted_update_scales_contribution() {
        let x = init::normal(4, 3, 1.0, &mut init::rng(3));
        let mut a = HessianAccumulator::new(3);
        a.update_weighted(&x, 2.0);
        let mut b = HessianAccumulator::new(3);
        b.update(&x);
        b.update(&x);
        let (ha, hb) = (a.finish(), b.finish());
        for (x, y) in ha.h.as_slice().iter().zip(hb.h.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn mean_trace_is_token_normalized() {
        let x = init::normal(10, 4, 1.0, &mut init::rng(4));
        let mut a = HessianAccumulator::new(4);
        a.update(&x);
        let ta = a.finish().mean_trace;
        // Accumulating the same data twice must not change the statistic.
        let mut b = HessianAccumulator::new(4);
        b.update(&x);
        b.update(&x);
        let tb = b.finish().mean_trace;
        assert!((ta - tb).abs() < 1e-5, "{ta} vs {tb}");
        assert!(ta > 0.0);
    }

    #[test]
    fn zero_hessian_damping_still_invertible() {
        let acc = HessianAccumulator::new(3);
        let lh = acc.finish();
        assert_eq!(lh.mean_trace, 0.0);
        let damped = lh.damped(0.01);
        assert!(
            linalg::cholesky(&damped).is_ok(),
            "floor damping must rescue zero Hessian"
        );
    }

    #[test]
    fn mode_display() {
        assert!(HessianMode::LayerInput.to_string().contains("GPTQ"));
        assert!(HessianMode::AttentionAware.to_string().contains("APTQ"));
    }
}
