//! SwiGLU feed-forward network (the LLaMA FFN) with manual backward.

use aptq_tensor::activation::{silu, silu_grad, silu_mul_into};
use aptq_tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

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

/// Forward cache for [`SwiGlu::backward`].
#[derive(Debug, Clone)]
pub struct SwiGluCache {
    /// Block input (post-RMSNorm), `T × d_model`.
    pub x: Matrix,
    /// Pre-activation gate values `x·W_gate`, `T × d_ff`.
    pub g: Matrix,
    /// Up-projection values `x·W_up`, `T × d_ff`.
    pub u: Matrix,
    /// Hidden activations `silu(g) ⊙ u` — the input to the down
    /// projection, `T × d_ff`.
    pub hidden: Matrix,
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

    /// Forward pass; returns `(output, cache)`. The training path, and
    /// the capture's; inference runs the block's cache-free
    /// `ffn_rows`.
    ///
    /// # HotPath
    ///
    /// Allocation budget: gate/up/hidden/output matrices sized by the
    /// input, allocated once per call; the elementwise SwiGLU loop is
    /// heap-free.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn forward(&self, x: &Matrix) -> (Matrix, SwiGluCache) {
        let g = self.gate.forward_op(x, None);
        let u = self.up.forward_op(x, None);
        // audit:allow(alloc): the cache keeps `g`; `hidden` is its own buffer
        let mut hidden = g.clone();
        silu_mul_into(hidden.as_mut_slice(), u.as_slice());
        let y = self.down.forward_op(&hidden, None);
        (
            y,
            SwiGluCache {
                // audit:allow(alloc): the cache owns its input copy for backward
                x: x.clone(),
                g,
                u,
                hidden,
            },
        )
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
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn backward(&self, cache: &SwiGluCache, dy: &Matrix) -> (Matrix, SwiGluGrads) {
        let (dhidden, ddown) = self.down.backward(&cache.hidden, dy);
        // hidden = silu(g) ⊙ u
        let mut dg = Matrix::zeros(dhidden.rows(), dhidden.cols());
        let mut du = Matrix::zeros(dhidden.rows(), dhidden.cols());
        for idx in 0..dhidden.len() {
            let gh = cache.g.as_slice()[idx];
            let uh = cache.u.as_slice()[idx];
            let d = dhidden.as_slice()[idx];
            dg.as_mut_slice()[idx] = d * uh * silu_grad(gh);
            du.as_mut_slice()[idx] = d * silu(gh);
        }
        let (dx_g, dgate) = self.gate.backward(&cache.x, &dg);
        let (dx_u, dup) = self.up.backward(&cache.x, &du);
        let mut dx = dx_g;
        dx.add_assign(&dx_u);
        (dx, SwiGluGrads { dgate, dup, ddown })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_tensor::init;

    #[test]
    fn forward_shapes() {
        let ffn = SwiGlu::new(8, 16, &mut init::rng(0));
        let x = init::normal(3, 8, 1.0, &mut init::rng(1));
        let (y, cache) = ffn.forward(&x);
        assert_eq!(y.shape(), (3, 8));
        assert_eq!(cache.hidden.shape(), (3, 16));
        assert!(y.all_finite());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let ffn = SwiGlu::new(4, 8, &mut init::rng(2));
        let x = Matrix::zeros(2, 4);
        let (y, _) = ffn.forward(&x);
        assert!(y.as_slice().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut ffn = SwiGlu::new(6, 10, &mut init::rng(3));
        let x = init::normal(2, 6, 1.0, &mut init::rng(4));
        let dy = init::normal(2, 6, 1.0, &mut init::rng(5));
        let (_, cache) = ffn.forward(&x);
        let (dx, grads) = ffn.backward(&cache, &dy);
        let eps = 1e-2f32;

        // Input gradient.
        for (i, j) in [(0, 0), (1, 5), (0, 3)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let fd = (ffn.forward(&xp).0.hadamard(&dy).sum()
                - ffn.forward(&xm).0.hadamard(&dy).sum())
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
            let lp = ffn.forward(&x).0.hadamard(&dy).sum();
            w(&mut ffn, which)[(i, j)] = orig - eps;
            let lm = ffn.forward(&x).0.hadamard(&dy).sum();
            w(&mut ffn, which)[(i, j)] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "{which}({i},{j}): {grad} vs {fd}"
            );
        }
    }

    #[test]
    fn hidden_cache_matches_down_input() {
        // The quantizer uses cache.hidden as the calibration input of the
        // down projection; verify y == hidden · W_down exactly.
        let ffn = SwiGlu::new(4, 6, &mut init::rng(6));
        let x = init::normal(3, 4, 1.0, &mut init::rng(7));
        let (y, cache) = ffn.forward(&x);
        let y2 = ffn.down().forward(&cache.hidden);
        assert_eq!(y, y2);
    }
}
