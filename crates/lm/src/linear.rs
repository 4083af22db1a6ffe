//! Bias-free linear projection (LLaMA-style) with manual backward, and
//! the [`LinearOp`] abstraction that lets the whole transformer stack
//! run over any weight representation.

use aptq_obs::Recorder;
use aptq_tensor::{init, Matrix};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A linear operator `y = x · W` with `W: d_in × d_out`, independent of
/// how the weight is stored.
///
/// This is the seam between the float and quantized transformer stacks:
/// [`Linear`] (fp32 matmul) and `aptq_qmodel::QuantizedLinear` (packed
/// sub-byte streaming) both implement it, so one generic forward path —
/// attention, FFN, block, model, decode session — serves both
/// precisions and can never drift apart.
///
/// Implementations must be **row-independent**: the output row for an
/// input row must not depend on how many other rows are in the batch.
/// That property is what makes KV-cache incremental decoding (1-row
/// batches) bit-identical to the full-sequence forward.
pub trait LinearOp {
    /// Input width.
    fn d_in(&self) -> usize;

    /// Output width.
    fn d_out(&self) -> usize;

    /// Forward one row-batch `x` (`T × d_in`) into the caller buffer
    /// `out` (`T × d_out`), overwriting its prior contents.
    ///
    /// `rec` is the observability hook: implementations with work worth
    /// counting (e.g. packed-code unpacking) record it there;
    /// [`Linear`] ignores it. Counters must be deterministic — a pure
    /// function of the input shapes, never of timing or thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in()` or `out` is not
    /// `(x.rows(), d_out())`.
    ///
    /// # Determinism
    ///
    /// Implementations are bit-identical at any `APTQ_THREADS` value
    /// (fp32 path: deterministic threadpool in
    /// [`aptq_tensor::parallel`]; packed path: sequential loops over the
    /// same multiply-accumulate kernel).
    fn forward_into(&self, x: &Matrix, out: &mut Matrix, rec: Option<&mut Recorder>);

    /// Allocating convenience wrapper around
    /// [`forward_into`](LinearOp::forward_into).
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value; see
    /// [`forward_into`](LinearOp::forward_into).
    fn forward_op(&self, x: &Matrix, rec: Option<&mut Recorder>) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.d_out());
        self.forward_into(x, &mut out, rec);
        out
    }
}

/// A bias-free linear layer computing `y = x · W` with `W: d_in × d_out`.
///
/// Activations are `(tokens × d_in)` matrices; the weight is stored
/// input-major so quantizers that walk "one input dimension at a time"
/// (GPTQ column order) process one **row** of `W` per step.
///
/// # Example
///
/// ```
/// use aptq_lm::linear::{Linear, LinearOp};
/// use aptq_tensor::{init, Matrix};
///
/// let lin = Linear::new(4, 3, &mut init::rng(0));
/// let x = Matrix::zeros(2, 4);
/// assert_eq!(lin.forward_op(&x, None).shape(), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: Matrix,
}

impl Linear {
    /// Creates a layer with Kaiming-scaled random weights.
    pub fn new(d_in: usize, d_out: usize, rng: &mut StdRng) -> Self {
        Linear {
            weight: init::kaiming(d_in, d_out, rng),
        }
    }

    /// Wraps an existing weight matrix (`d_in × d_out`).
    pub fn from_weight(weight: Matrix) -> Self {
        Linear { weight }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.weight.rows()
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.weight.cols()
    }

    /// Immutable weight access (`d_in × d_out`).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Mutable weight access, used by optimizers and quantizers.
    pub fn weight_mut(&mut self) -> &mut Matrix {
        &mut self.weight
    }

    /// Backward pass.
    ///
    /// Given the upstream gradient `dy` (`tokens × d_out`) and the cached
    /// input `x`, returns `(dx, dw)` where `dx = dy · Wᵀ` and
    /// `dw = xᵀ · dy`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn backward(&self, x: &Matrix, dy: &Matrix) -> (Matrix, Matrix) {
        let dx = dy.matmul_nt(&self.weight);
        let dw = x.matmul_tn(dy);
        (dx, dw)
    }
}

impl LinearOp for Linear {
    fn d_in(&self) -> usize {
        Linear::d_in(self)
    }

    fn d_out(&self) -> usize {
        Linear::d_out(self)
    }

    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: the matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]). The
    /// recorder hook is a no-op — fp32 matmuls have no unpacking work
    /// to count.
    fn forward_into(&self, x: &Matrix, out: &mut Matrix, _rec: Option<&mut Recorder>) {
        x.matmul_into(&self.weight, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_tensor::init::rng;

    #[test]
    fn forward_shape_and_linearity() {
        let lin = Linear::new(5, 3, &mut rng(0));
        let x = init::normal(4, 5, 1.0, &mut rng(1));
        let y = lin.forward_op(&x, None);
        assert_eq!(y.shape(), (4, 3));
        // Linearity: f(2x) == 2 f(x).
        let y2 = lin.forward_op(&x.scale(2.0), None);
        for (a, b) in y2.as_slice().iter().zip(y.as_slice()) {
            assert!((a - 2.0 * b).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut lin = Linear::new(3, 2, &mut rng(2));
        let x = init::normal(2, 3, 1.0, &mut rng(3));
        let y = lin.forward_op(&x, None);
        // Loss = sum(y); dy = ones.
        let dy = Matrix::filled(2, 2, 1.0);
        let (dx, dw) = lin.backward(&x, &dy);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dw.shape(), lin.weight().shape());

        let eps = 1e-3f32;
        // Check dw entries.
        for (i, j) in [(0, 0), (1, 1), (2, 0)] {
            let orig = lin.weight()[(i, j)];
            lin.weight_mut()[(i, j)] = orig + eps;
            let lp = lin.forward_op(&x, None).sum();
            lin.weight_mut()[(i, j)] = orig - eps;
            let lm = lin.forward_op(&x, None).sum();
            lin.weight_mut()[(i, j)] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (dw[(i, j)] - fd).abs() < 1e-2,
                "dw({i},{j}): {} vs {fd}",
                dw[(i, j)]
            );
        }
        // Check dx entries.
        for (i, j) in [(0, 0), (1, 2)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let lp = lin.forward_op(&xp, None).sum();
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let lm = lin.forward_op(&xm, None).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((dx[(i, j)] - fd).abs() < 1e-2);
        }
        let _ = y;
    }

    #[test]
    fn from_weight_preserves_matrix() {
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lin = Linear::from_weight(w.clone());
        assert_eq!(lin.weight(), &w);
        assert_eq!(lin.d_in(), 2);
        assert_eq!(lin.d_out(), 2);
    }

    #[test]
    fn linear_op_matches_matmul() {
        let lin = Linear::new(6, 4, &mut rng(4));
        let x = init::normal(3, 6, 1.0, &mut rng(5));
        let want = x.matmul(lin.weight());
        // Both trait entry points agree bit for bit with `x · W`.
        let via_op = LinearOp::forward_op(&lin, &x, None);
        assert_eq!(via_op, want);
        let mut out = Matrix::filled(3, 4, f32::NAN);
        lin.forward_into(&x, &mut out, None);
        assert_eq!(out, want);
        assert_eq!(LinearOp::d_in(&lin), 6);
        assert_eq!(LinearOp::d_out(&lin), 4);
    }

    #[test]
    fn serde_roundtrip() {
        let lin = Linear::new(3, 3, &mut rng(9));
        let json = serde_json::to_string(&lin).unwrap();
        let back: Linear = serde_json::from_str(&json).unwrap();
        assert_eq!(lin, back);
    }
}
