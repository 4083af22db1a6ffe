//! A transformer block: pre-norm attention and SwiGLU with residuals.

use aptq_obs::Recorder;
use aptq_tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::attention::{AttentionCache, AttentionGrads, MultiHeadAttention};
use crate::config::ModelConfig;
use crate::ffn::{SwiGlu, SwiGluCache, SwiGluGrads};
use crate::linear::{Linear, LinearOp};
use crate::rmsnorm::{RmsNorm, RmsNormCache};
use crate::rope::RopeTable;

/// One pre-norm LLaMA block, generic over the linear operator `L`:
/// `h = x + Attn(RMSNorm(x))`, `y = h + FFN(RMSNorm(h))`.
///
/// Norms stay fp32 for every `L` (as in the paper's GPTQ-family
/// setting); only the seven projections go through [`LinearOp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformerBlock<L = Linear> {
    /// Attention sub-layer.
    pub attn: MultiHeadAttention<L>,
    /// Feed-forward sub-layer.
    pub ffn: SwiGlu<L>,
    /// Norm before attention.
    pub norm1: RmsNorm,
    /// Norm before the FFN.
    pub norm2: RmsNorm,
}

/// Forward cache for [`TransformerBlock::backward`].
#[derive(Debug, Clone)]
pub struct BlockForwardCache {
    /// Cache of the first RMSNorm.
    pub norm1: RmsNormCache,
    /// Cache of the attention sub-layer.
    pub attn: AttentionCache,
    /// Cache of the second RMSNorm.
    pub norm2: RmsNormCache,
    /// Cache of the FFN sub-layer.
    pub ffn: SwiGluCache,
}

/// Gradients of all block parameters.
#[derive(Debug, Clone)]
pub struct BlockGrads {
    /// Attention projection gradients.
    pub attn: AttentionGrads,
    /// FFN projection gradients.
    pub ffn: SwiGluGrads,
    /// Gradient of the first norm's gain.
    pub dnorm1: Vec<f32>,
    /// Gradient of the second norm's gain.
    pub dnorm2: Vec<f32>,
}

impl<L: LinearOp> TransformerBlock<L> {
    /// Assembles a block from prebuilt sub-layers (the weight-install
    /// path used by the quantized stack).
    pub fn from_parts(
        attn: MultiHeadAttention<L>,
        ffn: SwiGlu<L>,
        norm1: RmsNorm,
        norm2: RmsNorm,
    ) -> Self {
        TransformerBlock {
            attn,
            ffn,
            norm1,
            norm2,
        }
    }

    /// Forward pass; returns `(output, cache)`.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn forward(&self, x: &Matrix, rope: &RopeTable) -> (Matrix, BlockForwardCache) {
        self.forward_opt(x, rope, None)
    }

    /// [`forward`](TransformerBlock::forward) with an optional recorder
    /// threaded into every projection's [`LinearOp::forward_into`] hook.
    ///
    /// # HotPath
    ///
    /// Allocation budget: residual/norm/sub-layer buffers sized by the
    /// input, allocated once per call; inner loops are heap-free.
    ///
    /// # Determinism
    ///
    /// Outputs *and counters* are bit-identical at any `APTQ_THREADS`
    /// value: matmuls run on the deterministic threadpool
    /// ([`aptq_tensor::parallel`]) and counters depend only on shapes.
    pub fn forward_opt(
        &self,
        x: &Matrix,
        rope: &RopeTable,
        mut rec: Option<&mut Recorder>,
    ) -> (Matrix, BlockForwardCache) {
        let (normed1, c_norm1) = self.norm1.forward(x);
        let (attn_out, c_attn) = self.attn.forward_opt(&normed1, rope, rec.as_deref_mut());
        // audit:allow(alloc): residual buffer, one per call, sized by the input
        let mut h = x.clone();
        h.add_assign(&attn_out);
        let (normed2, c_norm2) = self.norm2.forward(&h);
        let (ffn_out, c_ffn) = self.ffn.forward_opt(&normed2, rec);
        let mut y = h;
        y.add_assign(&ffn_out);
        (
            y,
            BlockForwardCache {
                norm1: c_norm1,
                attn: c_attn,
                norm2: c_norm2,
                ffn: c_ffn,
            },
        )
    }
}

impl TransformerBlock {
    /// Creates a block with random weights per the config.
    pub fn new(cfg: &ModelConfig, rng: &mut StdRng) -> Self {
        TransformerBlock {
            attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, rng),
            ffn: SwiGlu::new(cfg.d_model, cfg.d_ff, rng),
            norm1: RmsNorm::new(cfg.d_model, cfg.norm_eps),
            norm2: RmsNorm::new(cfg.d_model, cfg.norm_eps),
        }
    }

    /// Backward pass; returns `(dx, grads)`.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn backward(
        &self,
        cache: &BlockForwardCache,
        dy: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, BlockGrads) {
        // y = h + ffn(norm2(h))
        let (dnormed2, ffn_grads) = self.ffn.backward(&cache.ffn, dy);
        let (dh_from_ffn, dnorm2) = self.norm2.backward(&cache.norm2, &dnormed2);
        let mut dh = dy.clone();
        dh.add_assign(&dh_from_ffn);

        // h = x + attn(norm1(x))
        let (dnormed1, attn_grads) = self.attn.backward(&cache.attn, &dh, rope);
        let (dx_from_attn, dnorm1) = self.norm1.backward(&cache.norm1, &dnormed1);
        let mut dx = dh;
        dx.add_assign(&dx_from_attn);

        (
            dx,
            BlockGrads {
                attn: attn_grads,
                ffn: ffn_grads,
                dnorm1,
                dnorm2,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_tensor::init;

    fn setup(seed: u64) -> (TransformerBlock, Matrix, RopeTable) {
        let cfg = ModelConfig::test_tiny(16);
        let mut rng = init::rng(seed);
        let block = TransformerBlock::new(&cfg, &mut rng);
        let x = init::normal(5, cfg.d_model, 1.0, &mut rng);
        let rope = RopeTable::new(cfg.d_head(), cfg.max_seq_len, cfg.rope_theta);
        (block, x, rope)
    }

    #[test]
    fn forward_preserves_shape() {
        let (block, x, rope) = setup(0);
        let (y, _) = block.forward(&x, &rope);
        assert_eq!(y.shape(), x.shape());
        assert!(y.all_finite());
    }

    #[test]
    fn residual_keeps_signal() {
        // Output should correlate with input thanks to the residual path.
        let (block, x, rope) = setup(1);
        let (y, _) = block.forward(&x, &rope);
        let diff = y.sub(&x);
        assert!(diff.frobenius_norm() > 0.0, "block must do something");
        assert!(
            diff.frobenius_norm() < 10.0 * x.frobenius_norm(),
            "block output should stay bounded at init"
        );
    }

    #[test]
    fn block_is_causal_end_to_end() {
        let (block, x, rope) = setup(2);
        let (y1, _) = block.forward(&x, &rope);
        let mut x2 = x.clone();
        for v in x2.row_mut(4) {
            *v = -*v + 0.5;
        }
        let (y2, _) = block.forward(&x2, &rope);
        for i in 0..4 {
            for j in 0..x.cols() {
                assert!((y1[(i, j)] - y2[(i, j)]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let (block, x, rope) = setup(3);
        let dy = init::normal(5, 16, 1.0, &mut init::rng(4));
        let (_, cache) = block.forward(&x, &rope);
        let (dx, _) = block.backward(&cache, &dy, &rope);
        let eps = 1e-2f32;
        for (i, j) in [(0, 0), (2, 7), (4, 15)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let fd = (block.forward(&xp, &rope).0.hadamard(&dy).sum()
                - block.forward(&xm, &rope).0.hadamard(&dy).sum())
                / (2.0 * eps);
            assert!(
                (dx[(i, j)] - fd).abs() < 3e-2 * (1.0 + fd.abs()),
                "dx({i},{j}): {} vs {fd}",
                dx[(i, j)]
            );
        }
    }

    #[test]
    fn grads_have_parameter_shapes() {
        let (block, x, rope) = setup(5);
        let dy = init::normal(5, 16, 1.0, &mut init::rng(6));
        let (_, cache) = block.forward(&x, &rope);
        let (_, grads) = block.backward(&cache, &dy, &rope);
        assert_eq!(grads.attn.dwq.shape(), block.attn.wq().weight().shape());
        assert_eq!(grads.ffn.ddown.shape(), block.ffn.down().weight().shape());
        assert_eq!(grads.dnorm1.len(), 16);
        assert_eq!(grads.dnorm2.len(), 16);
    }
}
