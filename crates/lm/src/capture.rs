//! Activation capture for calibration and the backward.
//!
//! Post-training quantization needs the intermediate activations of a
//! calibration run:
//!
//! - GPTQ consumes each linear layer's **input** (`H = 2XXᵀ`);
//! - APTQ additionally consumes the attention internals — per-head
//!   probability matrices, rotated queries/keys, values and the
//!   concatenated head outputs — to build the attention-aware Hessians
//!   of Eqs. (9)–(15).
//!
//! [`ModelOf::forward_blocks`](crate::ModelOf::forward_blocks) runs a
//! sequence through the inference core and, given a [`CaptureSink`],
//! copies each block's quantities into one reused [`BlockCapture`] and
//! hands it to a callback before the next block runs, so memory stays
//! proportional to one block of one sequence.
//!
//! Training reads the same quantities:
//! [`Model::sequence_grads`](crate::Model::sequence_grads) keeps one
//! capture per block, with the block's input, for
//! [`TransformerBlock::backward`](crate::block::TransformerBlock::backward).

use aptq_tensor::Matrix;

use crate::decode::Workspace;

/// Intermediate activations of one transformer block for one sequence.
#[derive(Debug, Clone, Default)]
pub struct BlockCapture {
    /// Input to the attention projections (post-RMSNorm), `T × d_model`.
    /// This is the GPTQ calibration input for `q/k/v_proj`.
    pub attn_input: Matrix,
    /// Rotated queries, `T × d_model`.
    pub q_rot: Matrix,
    /// Rotated keys, `T × d_model`.
    pub k_rot: Matrix,
    /// Values, `T × d_model`.
    pub v: Matrix,
    /// Per-head causal attention probabilities, each `T × T`; the upper
    /// triangle is exactly zero.
    pub probs: Vec<Matrix>,
    /// Concatenated head outputs — calibration input for `o_proj`,
    /// `T × d_model`.
    pub concat: Matrix,
    /// Input to the FFN projections (post-RMSNorm), `T × d_model`.
    /// Calibration input for `gate/up_proj`.
    pub ffn_input: Matrix,
    /// Hidden FFN activations `silu(g)·u` — calibration input for
    /// `down_proj`, `T × d_ff`.
    pub ffn_hidden: Matrix,
}

/// Where [`ModelOf::forward_blocks`](crate::ModelOf::forward_blocks)
/// hands each block's capture.
pub struct CaptureSink<'a> {
    /// The reused buffers each block's activations are copied into.
    pub capture: &'a mut BlockCapture,
    /// Called with `(block index, capture)` after each block, in order.
    pub each: &'a mut dyn FnMut(usize, &BlockCapture),
}

impl BlockCapture {
    /// `probs` as `n_heads` matrices of `t × t`. A matrix whose shape
    /// changes starts at zero; one that keeps its shape keeps its upper
    /// triangle, which no forward writes, at zero.
    pub(crate) fn fit_probs(&mut self, t: usize, n_heads: usize) -> &mut [Matrix] {
        self.probs.resize_with(n_heads, Matrix::default);
        for p in self.probs.iter_mut().filter(|p| p.shape() != (t, t)) {
            *p = Matrix::zeros(t, t);
        }
        &mut self.probs
    }

    /// Copies the attention half's activations out of `ws`: the normed
    /// input, the rotated q and k, v and concat.
    pub(crate) fn copy_attn(&mut self, ws: &Workspace) {
        copy_into(&mut self.attn_input, &ws.normed);
        copy_into(&mut self.q_rot, &ws.q);
        copy_into(&mut self.k_rot, &ws.k);
        copy_into(&mut self.v, &ws.v);
        copy_into(&mut self.concat, &ws.concat);
    }

    /// Copies the feed-forward half's activations out of `ws`: the
    /// normed input and `silu(g)·u`.
    pub(crate) fn copy_ffn(&mut self, ws: &Workspace) {
        copy_into(&mut self.ffn_input, &ws.normed);
        copy_into(&mut self.ffn_hidden, &ws.gate);
    }
}

/// Makes `dst` a copy of `src` in `dst`'s own allocation.
fn copy_into(dst: &mut Matrix, src: &Matrix) {
    let mut data = std::mem::take(dst).into_vec();
    data.clear();
    data.extend_from_slice(src.as_slice());
    *dst = Matrix::from_vec(src.rows(), src.cols(), data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::oracle;
    use crate::{Model, ModelConfig};

    /// The calibration capture before it ran through the inference core:
    /// the training forward block by block, its cache's fields copied.
    fn oracle_captures(model: &Model, tokens: &[u32]) -> (Matrix, Vec<BlockCapture>) {
        let mut x = model.embed_tokens(tokens);
        let mut caps = Vec::new();
        for block in model.blocks() {
            let (y, c) = oracle::block_forward(block, &x, model.rope());
            caps.push(BlockCapture {
                attn_input: c.attn.x,
                q_rot: c.attn.q_rot,
                k_rot: c.attn.k_rot,
                v: c.attn.v,
                probs: c.attn.probs,
                concat: c.attn.concat,
                ffn_input: c.ffn.x,
                ffn_hidden: c.ffn.hidden,
            });
            x = y;
        }
        (x, caps)
    }

    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), w.to_bits(), "{what}: element {i}");
        }
    }

    /// Every field of `got` against `want`, bit for bit, and every
    /// probability matrix's upper triangle exactly `+0.0`.
    fn assert_capture(got: &BlockCapture, want: &BlockCapture, what: &str) {
        assert_bits(
            &got.attn_input,
            &want.attn_input,
            &format!("{what} attn_input"),
        );
        assert_bits(&got.q_rot, &want.q_rot, &format!("{what} q_rot"));
        assert_bits(&got.k_rot, &want.k_rot, &format!("{what} k_rot"));
        assert_bits(&got.v, &want.v, &format!("{what} v"));
        assert_bits(&got.concat, &want.concat, &format!("{what} concat"));
        assert_bits(
            &got.ffn_input,
            &want.ffn_input,
            &format!("{what} ffn_input"),
        );
        assert_bits(
            &got.ffn_hidden,
            &want.ffn_hidden,
            &format!("{what} ffn_hidden"),
        );
        assert_eq!(got.probs.len(), want.probs.len(), "{what}: heads");
        for (h, (p, w)) in got.probs.iter().zip(&want.probs).enumerate() {
            assert_bits(p, w, &format!("{what} probs[{h}]"));
            for i in 0..p.rows() {
                for &v in &p.row(i)[i + 1..] {
                    assert_eq!(v.to_bits(), 0, "{what} probs[{h}] row {i}: upper triangle");
                }
            }
        }
    }

    #[test]
    fn oracle_reused_capture_matches_training_cache_on_checkpoint() {
        // The committed TinyLlama-M checkpoint, one capture reused across
        // lengths that shrink and grow again: every block's capture and
        // the output rows equal the training forward's bit for bit, and
        // a re-shaped `probs` buffer keeps its upper triangle at zero.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../assets/ckpt-s800b12l44-v134-tinyllama_m.json"
        );
        let json = std::fs::read_to_string(path).expect("committed TinyLlama-M checkpoint");
        let model = Model::from_json(&json).expect("checkpoint parses");
        let vocab = model.config().vocab_size as u32;
        let mut cap = BlockCapture::default();
        for (k, t) in [64usize, 17, 1, 17, 64, model.config().max_seq_len]
            .into_iter()
            .enumerate()
        {
            let tokens: Vec<u32> = (0..t as u32)
                .map(|i| (i * 37 + 5 + k as u32) % vocab)
                .collect();
            let (want_x, want) = oracle_captures(&model, &tokens);
            let mut x = model.embed_tokens(&tokens);
            let mut blocks = 0;
            model.forward_blocks(
                0..model.blocks().len(),
                &mut x,
                Some(CaptureSink {
                    capture: &mut cap,
                    each: &mut |b, got| {
                        assert_eq!(b, blocks, "blocks arrive in order");
                        assert_capture(got, &want[b], &format!("T={t} block {b}"));
                        blocks += 1;
                    },
                }),
            );
            assert_eq!(blocks, model.blocks().len());
            assert_bits(&x, &want_x, &format!("T={t} output rows"));
        }
    }

    #[test]
    fn forward_blocks_splits_at_any_block_and_feeds_the_head() {
        let model = Model::new(&ModelConfig::test_tiny(16), 7);
        let tokens = [1u32, 2, 3, 9, 4];
        let n = model.blocks().len();
        let mut whole = model.embed_tokens(&tokens);
        let mut seen = Vec::new();
        let mut cap = BlockCapture::default();
        model.forward_blocks(
            0..n,
            &mut whole,
            Some(CaptureSink {
                capture: &mut cap,
                each: &mut |b, c| seen.push((b, c.attn_input.rows(), c.probs.len())),
            }),
        );
        let heads = model.config().n_heads;
        assert_eq!(seen, (0..n).map(|b| (b, 5, heads)).collect::<Vec<_>>());
        for split in 0..=n {
            let mut x = model.embed_tokens(&tokens);
            model.forward_blocks(0..split, &mut x, None);
            model.forward_blocks(split..n, &mut x, None);
            assert_eq!(x, whole, "split at block {split}");
        }
        let logits = model.final_norm().forward(&whole).0.matmul(model.lm_head());
        assert_eq!(logits, model.forward(&tokens));
    }
}
