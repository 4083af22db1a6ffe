//! SwiGLU feed-forward network (the LLaMA FFN) with manual backward.

use aptq_tensor::activation::{silu, silu_grad};
use aptq_tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::capture::BlockCapture;
use crate::linear::{Linear, LinearOp};

/// SwiGLU feed-forward: `y = (silu(x·W_gate) ⊙ (x·W_up)) · W_down`,
/// generic over the linear operator `L` (fp32 [`Linear`] by default,
/// packed projections in `aptq_qmodel`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwiGlu<L = Linear> {
    gate: L,
    up: L,
    down: L,
}

/// Gradients of the three projection weights.
#[derive(Debug, Clone)]
pub struct SwiGluGrads {
    /// Gradient of the gate projection.
    pub dgate: Matrix,
    /// Gradient of the up projection.
    pub dup: Matrix,
    /// Gradient of the down projection.
    pub ddown: Matrix,
}

impl<L: LinearOp> SwiGlu<L> {
    /// Assembles a SwiGLU FFN from prebuilt projections (the
    /// weight-install path used by the quantized stack).
    ///
    /// # Panics
    ///
    /// Panics if the projection shapes are inconsistent
    /// (`gate`/`up`: `d_model × d_ff`, `down`: `d_ff × d_model`).
    pub fn from_parts(gate: L, up: L, down: L) -> Self {
        let (d_model, d_ff) = (gate.d_in(), gate.d_out());
        assert!(
            up.d_in() == d_model && up.d_out() == d_ff,
            "SwiGlu: up projection shape mismatch"
        );
        assert!(
            down.d_in() == d_ff && down.d_out() == d_model,
            "SwiGlu: down projection shape mismatch"
        );
        SwiGlu { gate, up, down }
    }

    /// Mutable gate projection (optimizer / quantizer /
    /// fault-injection access).
    pub fn gate_mut(&mut self) -> &mut L {
        &mut self.gate
    }
    /// Mutable up projection.
    pub fn up_mut(&mut self) -> &mut L {
        &mut self.up
    }
    /// Mutable down projection.
    pub fn down_mut(&mut self) -> &mut L {
        &mut self.down
    }

    /// Gate projection.
    pub fn gate(&self) -> &L {
        &self.gate
    }
    /// Up projection.
    pub fn up(&self) -> &L {
        &self.up
    }
    /// Down projection.
    pub fn down(&self) -> &L {
        &self.down
    }
}

impl SwiGlu {
    /// Creates a SwiGLU FFN with random weights.
    pub fn new(d_model: usize, d_ff: usize, rng: &mut StdRng) -> Self {
        SwiGlu {
            gate: Linear::new(d_model, d_ff, rng),
            up: Linear::new(d_model, d_ff, rng),
            down: Linear::new(d_ff, d_model, rng),
        }
    }

    /// Backward pass; returns `(dx, grads)`.
    ///
    /// Reads the capture's FFN fields: the input `ffn_input` and the
    /// hidden activations `ffn_hidden`. The pre-activations `x·W_gate`
    /// and `x·W_up` are recomputed from `ffn_input` by the forward's own
    /// projections, so they carry the forward's bits.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn backward(&self, cap: &BlockCapture, dy: &Matrix) -> (Matrix, SwiGluGrads) {
        let x = &cap.ffn_input;
        let g = self.gate.forward_op(x, None);
        let u = self.up.forward_op(x, None);
        let (dhidden, ddown) = self.down.backward(&cap.ffn_hidden, dy);
        // hidden = silu(g) ⊙ u
        let mut dg = Matrix::zeros(dhidden.rows(), dhidden.cols());
        let mut du = Matrix::zeros(dhidden.rows(), dhidden.cols());
        for idx in 0..dhidden.len() {
            let gh = g.as_slice()[idx];
            let uh = u.as_slice()[idx];
            let d = dhidden.as_slice()[idx];
            dg.as_mut_slice()[idx] = d * uh * silu_grad(gh);
            du.as_mut_slice()[idx] = d * silu(gh);
        }
        let (dx_g, dgate) = self.gate.backward(x, &dg);
        let (dx_u, dup) = self.up.backward(x, &du);
        let mut dx = dx_g;
        dx.add_assign(&dx_u);
        (dx, SwiGluGrads { dgate, dup, ddown })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_tensor::activation::silu_mul_into;
    use aptq_tensor::init;

    /// `ffn` over the normed rows `x` as the core's feed-forward half runs
    /// it (gate, up, `silu(g)·u` in place, down), with the capture's FFN
    /// fields.
    fn forward(ffn: &SwiGlu, x: &Matrix) -> (Matrix, BlockCapture) {
        let mut hidden = ffn.gate().forward_op(x, None);
        silu_mul_into(
            hidden.as_mut_slice(),
            ffn.up().forward_op(x, None).as_slice(),
        );
        let y = ffn.down().forward_op(&hidden, None);
        let cap = BlockCapture {
            ffn_input: x.clone(),
            ffn_hidden: hidden,
            ..BlockCapture::default()
        };
        (y, cap)
    }

    #[test]
    fn forward_shapes() {
        let ffn = SwiGlu::new(8, 16, &mut init::rng(0));
        let x = init::normal(3, 8, 1.0, &mut init::rng(1));
        let (y, cache) = forward(&ffn, &x);
        assert_eq!(y.shape(), (3, 8));
        assert_eq!(cache.ffn_hidden.shape(), (3, 16));
        assert!(y.all_finite());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let ffn = SwiGlu::new(4, 8, &mut init::rng(2));
        let x = Matrix::zeros(2, 4);
        let (y, _) = forward(&ffn, &x);
        assert!(y.as_slice().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut ffn = SwiGlu::new(6, 10, &mut init::rng(3));
        let x = init::normal(2, 6, 1.0, &mut init::rng(4));
        let dy = init::normal(2, 6, 1.0, &mut init::rng(5));
        let (_, cache) = forward(&ffn, &x);
        let (dx, grads) = ffn.backward(&cache, &dy);
        let eps = 1e-2f32;

        // Input gradient.
        for (i, j) in [(0, 0), (1, 5), (0, 3)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let fd = (forward(&ffn, &xp).0.hadamard(&dy).sum()
                - forward(&ffn, &xm).0.hadamard(&dy).sum())
                / (2.0 * eps);
            assert!((dx[(i, j)] - fd).abs() < 2e-2 * (1.0 + fd.abs()));
        }

        // Weight gradients: one entry per projection.
        for which in ["gate", "up", "down"] {
            let (i, j) = (1, 2);
            let grad = match which {
                "gate" => grads.dgate[(i, j)],
                "up" => grads.dup[(i, j)],
                _ => grads.ddown[(i, j)],
            };
            fn w<'a>(f: &'a mut SwiGlu, which: &str) -> &'a mut Matrix {
                match which {
                    "gate" => f.gate_mut().weight_mut(),
                    "up" => f.up_mut().weight_mut(),
                    _ => f.down_mut().weight_mut(),
                }
            }
            let orig = w(&mut ffn, which)[(i, j)];
            w(&mut ffn, which)[(i, j)] = orig + eps;
            let lp = forward(&ffn, &x).0.hadamard(&dy).sum();
            w(&mut ffn, which)[(i, j)] = orig - eps;
            let lm = forward(&ffn, &x).0.hadamard(&dy).sum();
            w(&mut ffn, which)[(i, j)] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "{which}({i},{j}): {grad} vs {fd}"
            );
        }
    }
}
