//! Root-mean-square layer normalization (the LLaMA norm) with backward.

use aptq_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// RMSNorm: `y = g ⊙ x / rms(x)` with `rms(x) = sqrt(mean(x²) + ε)`.
///
/// # Example
///
/// ```
/// use aptq_lm::rmsnorm::RmsNorm;
/// use aptq_tensor::Matrix;
///
/// let norm = RmsNorm::new(4, 1e-5);
/// let x = Matrix::from_rows(&[&[2.0, -2.0, 2.0, -2.0]]);
/// let (y, _) = norm.forward(&x);
/// // rms = 2, gain = 1 → all entries ±1.
/// assert!((y[(0, 0)] - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RmsNorm {
    gain: Vec<f32>,
    eps: f32,
}

/// Cached forward quantities needed by [`RmsNorm::backward`].
#[derive(Debug, Clone)]
pub struct RmsNormCache {
    /// Input of the forward pass.
    pub x: Matrix,
    /// Per-row reciprocal RMS values.
    pub inv_rms: Vec<f32>,
}

impl RmsNorm {
    /// Creates an RMSNorm over `dim` features with unit gain.
    pub fn new(dim: usize, eps: f32) -> Self {
        RmsNorm {
            gain: vec![1.0; dim],
            eps,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.gain.len()
    }

    /// Immutable gain vector.
    pub fn gain(&self) -> &[f32] {
        &self.gain
    }

    /// Mutable gain vector (trained parameter).
    pub fn gain_mut(&mut self) -> &mut [f32] {
        &mut self.gain
    }

    /// Forward pass over a `(tokens × dim)` activation matrix.
    ///
    /// Returns the normalized output and the cache for [`backward`].
    ///
    /// [`backward`]: RmsNorm::backward
    ///
    /// # HotPath
    ///
    /// Allocation budget: one output matrix and one per-row scale
    /// vector per call.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, RmsNormCache) {
        assert_eq!(x.cols(), self.gain.len(), "RmsNorm: dimension mismatch");
        // audit:allow(alloc): output matrix, one per call (the budgeted scratch)
        let mut out = x.clone();
        // audit:allow(alloc): per-row scale vector, one per call (the budgeted scratch)
        let mut inv_rms = Vec::with_capacity(x.rows());
        for i in 0..x.rows() {
            // audit:allow(alloc): appends into the preallocated per-call vector
            inv_rms.push(self.normalize_row(out.row_mut(i)));
        }
        (
            out,
            RmsNormCache {
                // audit:allow(alloc): the cache owns its input copy for backward
                x: x.clone(),
                inv_rms,
            },
        )
    }

    /// Inference-only forward into the caller buffer `out`
    /// (overwritten): the same values as [`RmsNorm::forward`], without
    /// building a backward cache.
    ///
    /// # HotPath
    ///
    /// Allocation budget: zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim` or `out`'s shape differs from `x`'s.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.gain.len(), "RmsNorm: dimension mismatch");
        assert_eq!(out.shape(), x.shape(), "RmsNorm: output shape mismatch");
        out.as_mut_slice().copy_from_slice(x.as_slice());
        for i in 0..x.rows() {
            self.normalize_row(out.row_mut(i));
        }
    }

    /// Normalizes one row in place and returns its reciprocal RMS.
    fn normalize_row(&self, row: &mut [f32]) -> f32 {
        let n = row.len() as f32;
        let ms: f32 = row.iter().map(|&v| v * v).sum::<f32>() / n;
        let inv = 1.0 / (ms + self.eps).sqrt();
        for (v, &g) in row.iter_mut().zip(self.gain.iter()) {
            *v = *v * inv * g;
        }
        inv
    }

    /// Backward pass.
    ///
    /// Returns `(dx, dgain)` for upstream gradient `dy`.
    ///
    /// With `r = inv_rms`, `x̂ = x·r`: `y = g ⊙ x̂`, and
    /// `dx = r·(g⊙dy − x̂ · mean(x̂ ⊙ g ⊙ dy))`.
    ///
    /// # Panics
    ///
    /// Panics if `dy`'s shape does not match the cached input shape.
    pub fn backward(&self, cache: &RmsNormCache, dy: &Matrix) -> (Matrix, Vec<f32>) {
        assert_eq!(
            dy.shape(),
            cache.x.shape(),
            "RmsNorm backward: shape mismatch"
        );
        let n = self.gain.len() as f32;
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());
        let mut dgain = vec![0.0f32; self.gain.len()];
        for i in 0..dy.rows() {
            let r = cache.inv_rms[i];
            let x_row = cache.x.row(i);
            let dy_row = dy.row(i);
            // mean over features of x̂ ⊙ g ⊙ dy
            let mut dot = 0.0f32;
            for j in 0..x_row.len() {
                let xhat = x_row[j] * r;
                dot += xhat * self.gain[j] * dy_row[j];
                dgain[j] += xhat * dy_row[j];
            }
            dot /= n;
            let dx_row = dx.row_mut(i);
            for j in 0..x_row.len() {
                let xhat = x_row[j] * r;
                dx_row[j] = r * (self.gain[j] * dy_row[j] - xhat * dot);
            }
        }
        (dx, dgain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_tensor::init;

    #[test]
    fn output_has_unit_rms_with_unit_gain() {
        let norm = RmsNorm::new(8, 1e-6);
        let x = init::normal(3, 8, 3.0, &mut init::rng(0));
        let (y, _) = norm.forward(&x);
        for i in 0..3 {
            let ms: f32 = y.row(i).iter().map(|&v| v * v).sum::<f32>() / 8.0;
            assert!((ms - 1.0).abs() < 1e-3, "row {i}: rms² = {ms}");
        }
    }

    #[test]
    fn gain_scales_output() {
        let mut norm = RmsNorm::new(4, 1e-6);
        norm.gain_mut()[2] = 5.0;
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]);
        let (y, _) = norm.forward(&x);
        assert!((y[(0, 2)] / y[(0, 0)] - 5.0).abs() < 1e-4);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut norm = RmsNorm::new(5, 1e-5);
        for (j, g) in norm.gain_mut().iter_mut().enumerate() {
            *g = 1.0 + 0.1 * j as f32;
        }
        let x = init::normal(2, 5, 1.0, &mut init::rng(1));
        let (_, cache) = norm.forward(&x);
        let dy = init::normal(2, 5, 1.0, &mut init::rng(2));
        let (dx, dgain) = norm.backward(&cache, &dy);

        let loss = |norm: &RmsNorm, x: &Matrix| -> f32 {
            let (y, _) = norm.forward(x);
            y.hadamard(&dy).sum()
        };
        let eps = 1e-3f32;
        // dx check.
        for (i, j) in [(0, 0), (1, 3), (0, 4)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let fd = (loss(&norm, &xp) - loss(&norm, &xm)) / (2.0 * eps);
            assert!(
                (dx[(i, j)] - fd).abs() < 1e-2,
                "dx({i},{j}): {} vs {fd}",
                dx[(i, j)]
            );
        }
        // dgain check.
        for (j, &dg) in dgain.iter().enumerate() {
            let orig = norm.gain()[j];
            norm.gain_mut()[j] = orig + eps;
            let lp = loss(&norm, &x);
            norm.gain_mut()[j] = orig - eps;
            let lm = loss(&norm, &x);
            norm.gain_mut()[j] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((dg - fd).abs() < 1e-2, "dgain[{j}]: {dg} vs {fd}");
        }
    }

    #[test]
    fn forward_into_matches_forward_bit_for_bit() {
        let mut norm = RmsNorm::new(6, 1e-5);
        for (j, g) in norm.gain_mut().iter_mut().enumerate() {
            *g = 0.5 + 0.3 * j as f32;
        }
        let x = init::normal(4, 6, 2.0, &mut init::rng(3));
        let (want, _) = norm.forward(&x);
        let mut out = Matrix::filled(4, 6, f32::NAN);
        norm.forward_into(&x, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn handles_zero_rows() {
        let norm = RmsNorm::new(3, 1e-5);
        let x = Matrix::zeros(1, 3);
        let (y, _) = norm.forward(&x);
        assert!(y.all_finite());
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0]);
    }
}
