//! A transformer block: pre-norm attention and SwiGLU with residuals.

use aptq_obs::Recorder;
use aptq_tensor::activation::silu_mul_into;
use aptq_tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::attention::{AttentionGrads, MultiHeadAttention};
use crate::capture::BlockCapture;
use crate::config::ModelConfig;
use crate::decode::{KvRows, Workspace};
use crate::ffn::{SwiGlu, SwiGluGrads};
use crate::linear::{Linear, LinearOp};
use crate::model::LayerKind;
use crate::rmsnorm::RmsNorm;
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

    /// The attention half over a workspace, in place:
    /// `x += Attn(RMSNorm(x))`. The norm and each projection run once
    /// over all rows; then, rows in order, each row attends at the cache
    /// and position `kv` gives it in block `li` ([`LayerKv::attend`]),
    /// writing its probabilities into `probs` when given.
    ///
    /// # Panics
    ///
    /// Panics if the workspace does not match `x`'s rows, or a row's
    /// position is past its cache, the RoPE table or the rows of
    /// `probs`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attn_rows<K: KvRows>(
        &self,
        li: usize,
        x: &mut Matrix,
        ws: &mut Workspace,
        kv: &mut K,
        rope: &RopeTable,
        mut rec: Option<&mut Recorder>,
        mut probs: Option<&mut [Matrix]>,
    ) {
        self.norm1.forward_into(x, &mut ws.normed);
        let attn = &self.attn;
        attn.wq()
            .forward_into(&ws.normed, &mut ws.q, rec.as_deref_mut());
        attn.wk()
            .forward_into(&ws.normed, &mut ws.k, rec.as_deref_mut());
        attn.wv()
            .forward_into(&ws.normed, &mut ws.v, rec.as_deref_mut());
        // Attention accumulates into its row.
        ws.concat.as_mut_slice().fill(0.0);
        for r in 0..x.rows() {
            let (cache, pos) = kv.kv(li, r);
            cache.attend(rope, pos, ws, r, probs.as_deref_mut());
        }
        attn.wo().forward_into(&ws.concat, &mut ws.proj, rec);
        x.add_assign(&ws.proj);
    }

    /// The feed-forward half over a workspace, in place:
    /// `x += FFN(RMSNorm(x))`: gate and up, `silu(g)·u` in place in the
    /// gate buffer ([`silu_mul_into`]), then down.
    ///
    /// # Panics
    ///
    /// Panics if the workspace does not match `x`'s rows.
    pub(crate) fn ffn_rows(
        &self,
        x: &mut Matrix,
        ws: &mut Workspace,
        mut rec: Option<&mut Recorder>,
    ) {
        self.norm2.forward_into(x, &mut ws.normed);
        let ffn = &self.ffn;
        ffn.gate()
            .forward_into(&ws.normed, &mut ws.gate, rec.as_deref_mut());
        ffn.up()
            .forward_into(&ws.normed, &mut ws.up, rec.as_deref_mut());
        silu_mul_into(ws.gate.as_mut_slice(), ws.up.as_slice());
        ffn.down().forward_into(&ws.gate, &mut ws.proj, rec);
        x.add_assign(&ws.proj);
    }
}

impl TransformerBlock {
    /// Immutable access to one projection weight (`d_in × d_out`).
    pub fn weight(&self, kind: LayerKind) -> &Matrix {
        match kind {
            LayerKind::Q => self.attn.wq().weight(),
            LayerKind::K => self.attn.wk().weight(),
            LayerKind::V => self.attn.wv().weight(),
            LayerKind::O => self.attn.wo().weight(),
            LayerKind::Gate => self.ffn.gate().weight(),
            LayerKind::Up => self.ffn.up().weight(),
            LayerKind::Down => self.ffn.down().weight(),
        }
    }

    /// Mutable access to one projection weight.
    pub fn weight_mut(&mut self, kind: LayerKind) -> &mut Matrix {
        match kind {
            LayerKind::Q => self.attn.wq_mut().weight_mut(),
            LayerKind::K => self.attn.wk_mut().weight_mut(),
            LayerKind::V => self.attn.wv_mut().weight_mut(),
            LayerKind::O => self.attn.wo_mut().weight_mut(),
            LayerKind::Gate => self.ffn.gate_mut().weight_mut(),
            LayerKind::Up => self.ffn.up_mut().weight_mut(),
            LayerKind::Down => self.ffn.down_mut().weight_mut(),
        }
    }

    /// Creates a block with random weights per the config.
    pub fn new(cfg: &ModelConfig, rng: &mut StdRng) -> Self {
        TransformerBlock {
            attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, rng),
            ffn: SwiGlu::new(cfg.d_model, cfg.d_ff, rng),
            norm1: RmsNorm::new(cfg.d_model, cfg.norm_eps),
            norm2: RmsNorm::new(cfg.d_model, cfg.norm_eps),
        }
    }

    /// Backward pass from the block's input and the capture its forward
    /// wrote ([`ModelOf::forward_blocks`](crate::ModelOf::forward_blocks));
    /// returns `(dx, grads)`.
    ///
    /// What the capture lacks is recomputed by the forward's own
    /// arithmetic on the same inputs, so it carries the forward's bits:
    /// the residual `h = input + o_proj(concat)`, the norms' reciprocal
    /// RMS values (their backward caches, without a normed output), and
    /// (in [`SwiGlu::backward`]) the gate and up pre-activations.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn backward(
        &self,
        input: &Matrix,
        cap: &BlockCapture,
        dy: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, BlockGrads) {
        // y = h + ffn(norm2(h)), where h = input + attn(norm1(input))
        let mut h = input.clone();
        h.add_assign(&self.attn.wo().forward_op(&cap.concat, None));
        let c_norm2 = self.norm2.cache(h);
        let (dnormed2, ffn_grads) = self.ffn.backward(cap, dy);
        let (dh_from_ffn, dnorm2) = self.norm2.backward(&c_norm2, &dnormed2);
        let mut dh = dy.clone();
        dh.add_assign(&dh_from_ffn);

        let c_norm1 = self.norm1.cache(input.clone());
        let (dnormed1, attn_grads) = self.attn.backward(cap, &dh, rope);
        let (dx_from_attn, dnorm1) = self.norm1.backward(&c_norm1, &dnormed1);
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
    use crate::capture::CaptureSink;
    use crate::Model;
    use aptq_tensor::init;

    fn setup(seed: u64) -> (TransformerBlock, Matrix, RopeTable) {
        let cfg = ModelConfig::test_tiny(16);
        let mut rng = init::rng(seed);
        let block = TransformerBlock::new(&cfg, &mut rng);
        let x = init::normal(5, cfg.d_model, 1.0, &mut rng);
        let rope = RopeTable::new(cfg.d_head(), cfg.max_seq_len, cfg.rope_theta);
        (block, x, rope)
    }

    /// `block`'s output and capture through the inference core: the
    /// block as a one-block `test_tiny` model, run by `forward_blocks`
    /// (its RoPE table is [`setup`]'s).
    fn forward(block: &TransformerBlock, x: &Matrix) -> (Matrix, BlockCapture) {
        let cfg = ModelConfig {
            n_layers: 1,
            ..ModelConfig::test_tiny(16)
        };
        let (vocab, d) = (cfg.vocab_size, cfg.d_model);
        let norm = RmsNorm::new(d, cfg.norm_eps);
        let zeros = Matrix::zeros(vocab, d);
        let model = Model::from_parts(
            cfg,
            zeros,
            vec![block.clone()],
            norm,
            Matrix::zeros(d, vocab),
        );
        let (mut y, mut cap) = (x.clone(), BlockCapture::default());
        let sink = CaptureSink {
            capture: &mut cap,
            each: &mut |_, _| {},
        };
        model.forward_blocks(0..1, &mut y, Some(sink));
        (y, cap)
    }

    #[test]
    fn forward_preserves_shape() {
        let (block, x, _) = setup(0);
        let (y, _) = forward(&block, &x);
        assert_eq!(y.shape(), x.shape());
        assert!(y.all_finite());
    }

    #[test]
    fn residual_keeps_signal() {
        // Output should correlate with input thanks to the residual path.
        let (block, x, _) = setup(1);
        let (y, _) = forward(&block, &x);
        let diff = y.sub(&x);
        assert!(diff.frobenius_norm() > 0.0, "block must do something");
        assert!(
            diff.frobenius_norm() < 10.0 * x.frobenius_norm(),
            "block output should stay bounded at init"
        );
    }

    #[test]
    fn block_is_causal_end_to_end() {
        let (block, x, _) = setup(2);
        let (y1, _) = forward(&block, &x);
        let mut x2 = x.clone();
        for v in x2.row_mut(4) {
            *v = -*v + 0.5;
        }
        let (y2, _) = forward(&block, &x2);
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
        let (_, cache) = forward(&block, &x);
        let (dx, _) = block.backward(&x, &cache, &dy, &rope);
        let eps = 1e-2f32;
        for (i, j) in [(0, 0), (2, 7), (4, 15)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let fd = (forward(&block, &xp).0.hadamard(&dy).sum()
                - forward(&block, &xm).0.hadamard(&dy).sum())
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
        let (_, cache) = forward(&block, &x);
        let (_, grads) = block.backward(&x, &cache, &dy, &rope);
        assert_eq!(grads.attn.dwq.shape(), block.attn.wq().weight().shape());
        assert_eq!(grads.ffn.ddown.shape(), block.ffn.down().weight().shape());
        assert_eq!(grads.dnorm1.len(), 16);
        assert_eq!(grads.dnorm2.len(), 16);
    }

    #[test]
    fn capture_hidden_is_the_down_input() {
        // The Hessian of `down_proj` reads `ffn_hidden` as that
        // projection's input: the block output is `h + down(ffn_hidden)`
        // exactly, with `h` the post-attention residual.
        let (block, x, _) = setup(6);
        let (y, cap) = forward(&block, &x);
        let mut want = x.clone();
        want.add_assign(&block.attn.wo().forward_op(&cap.concat, None));
        want.add_assign(&block.ffn.down().forward_op(&cap.ffn_hidden, None));
        assert_eq!(y, want);
    }
}
