//! A transformer block: pre-norm attention and SwiGLU with residuals.

use aptq_obs::Recorder;
use aptq_tensor::activation::silu_mul_into;
use aptq_tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::attention::{AttentionCache, AttentionGrads, MultiHeadAttention};
use crate::config::ModelConfig;
use crate::decode::{KvRows, LayerKv, Workspace};
use crate::ffn::{SwiGlu, SwiGluCache, SwiGluGrads};
use crate::linear::{Linear, LinearOp};
use crate::model::LayerKind;
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

    /// Forward pass; returns `(output, cache)`. The training path only:
    /// inference and the calibration capture
    /// ([`ModelOf::forward_blocks`](crate::ModelOf::forward_blocks)) run
    /// the decode core's block halves, which build no cache.
    ///
    /// # HotPath
    ///
    /// Allocation budget: residual/norm/sub-layer buffers sized by the
    /// input, allocated once per call; inner loops are heap-free.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn forward(&self, x: &Matrix, rope: &RopeTable) -> (Matrix, BlockForwardCache) {
        let (normed1, c_norm1) = self.norm1.forward(x);
        let (attn_out, c_attn) = self.attn.forward(&normed1, rope);
        // audit:allow(alloc): residual buffer, one per call, sized by the input
        let mut h = x.clone();
        h.add_assign(&attn_out);
        let (normed2, c_norm2) = self.norm2.forward(&h);
        let (ffn_out, c_ffn) = self.ffn.forward(&normed2);
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

    /// The attention half of the block, inference only:
    /// `h = x + Attn(RMSNorm(x))`, as one chunk of `T` rows through the
    /// decode core's attention half over a `T`-row cache for this block
    /// alone. Row `i` sits at position `i`.
    ///
    /// Runs the same float ops on the same inputs as
    /// [`forward`](TransformerBlock::forward) up to its post-attention
    /// residual, but builds no cache, so
    /// `ffn_half(&attn_half(x))` equals `forward(x).0` bit for bit.
    ///
    /// # HotPath
    ///
    /// Allocation budget: the attention half's workspace buffers and one
    /// key/value cache, sized by the rows, and the residual copy of `x`;
    /// no feed-forward buffers, `RmsNormCache`, `AttentionCache` or
    /// `T × T` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `d_model` wide or has more rows than the
    /// RoPE table.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn attn_half(&self, x: &Matrix, rope: &RopeTable) -> Matrix {
        let (t, d_model) = x.shape();
        let mut ws = Workspace::for_attn(t, d_model, self.attn.n_heads(), t);
        // audit:allow(alloc): residual buffer, one per call, sized by the input
        let mut h = x.clone();
        let mut kv = LayerKv::empty(t, d_model);
        self.attn_rows(0, &mut h, &mut ws, &mut kv, rope, None, None);
        h
    }

    /// The feed-forward half of the block, inference only:
    /// `y = h + FFN(RMSNorm(h))`, where `h` is the post-attention
    /// residual [`attn_half`](TransformerBlock::attn_half) returns,
    /// through the decode core's feed-forward half.
    ///
    /// # HotPath
    ///
    /// Allocation budget: the feed-forward half's workspace buffers,
    /// sized by the rows, and the residual copy of `h`; no attention
    /// buffers, `RmsNormCache` or `SwiGluCache`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not `d_model` wide.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn ffn_half(&self, h: &Matrix) -> Matrix {
        let (t, d_model) = h.shape();
        let mut ws = Workspace::for_ffn(t, d_model, self.ffn.gate().d_out());
        // audit:allow(alloc): residual buffer, one per call, sized by the input
        let mut y = h.clone();
        self.ffn_rows(&mut y, &mut ws, None);
        y
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
    /// gate buffer ([`silu_mul_into`]), then down — [`SwiGlu::forward`]'s
    /// float ops without its cache.
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

    #[test]
    fn oracle_halves_match_forward_on_checkpoint() {
        // Every block of the committed TinyLlama-M checkpoint, fed its
        // real input: the cache-free halves equal the training forward
        // bit for bit.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../assets/ckpt-s800b12l44-v134-tinyllama_m.json"
        );
        let json = std::fs::read_to_string(path).expect("committed TinyLlama-M checkpoint");
        let model = crate::Model::from_json(&json).expect("checkpoint parses");
        let vocab = model.config().vocab_size as u32;
        for t in [1usize, 17, 64] {
            let tokens: Vec<u32> = (0..t as u32).map(|i| (i * 37 + 5) % vocab).collect();
            let mut x = model.embed_tokens(&tokens);
            for (b, block) in model.blocks().iter().enumerate() {
                let (y, _) = block.forward(&x, model.rope());
                let halves = block.ffn_half(&block.attn_half(&x, model.rope()));
                assert_eq!(halves.shape(), y.shape());
                for (i, (a, w)) in halves.as_slice().iter().zip(y.as_slice()).enumerate() {
                    assert_eq!(a.to_bits(), w.to_bits(), "T={t} block {b} element {i}");
                }
                x = y;
            }
        }
    }
}
