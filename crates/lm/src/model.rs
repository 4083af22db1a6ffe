//! The decoder-only transformer model: embedding, blocks, LM head,
//! loss/gradient computation, layer addressing and checkpointing.

use std::collections::BTreeMap;

use aptq_artifact::{ArtifactError, ArtifactKind, Fnv64};
use aptq_tensor::activation::{log_sum_exp, softmax};
use aptq_tensor::{init, Matrix};
use serde::{Deserialize, Serialize};

use crate::block::{BlockGrads, TransformerBlock};
use crate::capture::{BlockCapture, ModelCapture};
use crate::config::ModelConfig;
use crate::decode::{check_chunk, forward_rows, LayerKv};
use crate::linear::{Linear, LinearOp};
use crate::rmsnorm::RmsNorm;
use crate::rope::RopeTable;
use crate::LmError;

/// Which projection inside a block a [`LayerRef`] points at.
///
/// The ordering (`Q, K, V, O, Gate, Up, Down`) is the deterministic
/// iteration order used everywhere: quantization schedules, sensitivity
/// reports, mixed-precision allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LayerKind {
    /// Attention query projection (`self_attn.q_proj`).
    Q,
    /// Attention key projection (`self_attn.k_proj`).
    K,
    /// Attention value projection (`self_attn.v_proj`).
    V,
    /// Attention output projection (`self_attn.o_proj`).
    O,
    /// FFN gate projection (`mlp.gate_proj`).
    Gate,
    /// FFN up projection (`mlp.up_proj`).
    Up,
    /// FFN down projection (`mlp.down_proj`).
    Down,
}

impl LayerKind {
    /// All kinds in canonical order.
    pub const ALL: [LayerKind; 7] = [
        LayerKind::Q,
        LayerKind::K,
        LayerKind::V,
        LayerKind::O,
        LayerKind::Gate,
        LayerKind::Up,
        LayerKind::Down,
    ];

    /// Whether this projection lives in the attention sub-layer.
    pub fn is_attention(self) -> bool {
        matches!(
            self,
            LayerKind::Q | LayerKind::K | LayerKind::V | LayerKind::O
        )
    }

    /// The HuggingFace-style layer name used in reports (matches the
    /// `layerName` strings in the paper's Algorithm 1).
    pub fn hf_name(self) -> &'static str {
        match self {
            LayerKind::Q => "self_attn.q_proj",
            LayerKind::K => "self_attn.k_proj",
            LayerKind::V => "self_attn.v_proj",
            LayerKind::O => "self_attn.o_proj",
            LayerKind::Gate => "mlp.gate_proj",
            LayerKind::Up => "mlp.up_proj",
            LayerKind::Down => "mlp.down_proj",
        }
    }
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.hf_name())
    }
}

/// Address of one quantizable weight matrix: block index + projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerRef {
    /// Transformer block index.
    pub block: usize,
    /// Projection within the block.
    pub kind: LayerKind,
}

impl std::fmt::Display for LayerRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "layers.{}.{}", self.block, self.kind)
    }
}

/// Gradients of every model parameter, mirroring the model structure.
#[derive(Debug, Clone)]
pub struct ModelGrads {
    /// Embedding gradient (`vocab × d_model`).
    pub embed: Matrix,
    /// Per-block gradients.
    pub blocks: Vec<BlockGrads>,
    /// Final norm gain gradient.
    pub dfinal_norm: Vec<f32>,
    /// LM head gradient (`d_model × vocab`).
    pub lm_head: Matrix,
}

impl ModelGrads {
    /// Accumulates `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics on structural mismatch.
    pub fn add_assign(&mut self, other: &ModelGrads) {
        self.embed.add_assign(&other.embed);
        self.lm_head.add_assign(&other.lm_head);
        assert_eq!(
            self.blocks.len(),
            other.blocks.len(),
            "grad merge: block count"
        );
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            a.attn.dwq.add_assign(&b.attn.dwq);
            a.attn.dwk.add_assign(&b.attn.dwk);
            a.attn.dwv.add_assign(&b.attn.dwv);
            a.attn.dwo.add_assign(&b.attn.dwo);
            a.ffn.dgate.add_assign(&b.ffn.dgate);
            a.ffn.dup.add_assign(&b.ffn.dup);
            a.ffn.ddown.add_assign(&b.ffn.ddown);
            for (x, y) in a.dnorm1.iter_mut().zip(b.dnorm1.iter()) {
                *x += y;
            }
            for (x, y) in a.dnorm2.iter_mut().zip(b.dnorm2.iter()) {
                *x += y;
            }
        }
        for (x, y) in self.dfinal_norm.iter_mut().zip(other.dfinal_norm.iter()) {
            *x += y;
        }
    }

    /// Scales every gradient by `s` (e.g. `1/batch`).
    pub fn scale_assign(&mut self, s: f32) {
        self.embed.scale_assign(s);
        self.lm_head.scale_assign(s);
        for b in &mut self.blocks {
            b.attn.dwq.scale_assign(s);
            b.attn.dwk.scale_assign(s);
            b.attn.dwv.scale_assign(s);
            b.attn.dwo.scale_assign(s);
            b.ffn.dgate.scale_assign(s);
            b.ffn.dup.scale_assign(s);
            b.ffn.ddown.scale_assign(s);
            for x in &mut b.dnorm1 {
                *x *= s;
            }
            for x in &mut b.dnorm2 {
                *x *= s;
            }
        }
        for x in &mut self.dfinal_norm {
            *x *= s;
        }
    }

    /// Global L2 norm over all gradients (used for clipping).
    pub fn global_norm(&self) -> f32 {
        let mut s = self.embed.frobenius_norm_sq() as f64 + self.lm_head.frobenius_norm_sq() as f64;
        for b in &self.blocks {
            s += b.attn.dwq.frobenius_norm_sq() as f64;
            s += b.attn.dwk.frobenius_norm_sq() as f64;
            s += b.attn.dwv.frobenius_norm_sq() as f64;
            s += b.attn.dwo.frobenius_norm_sq() as f64;
            s += b.ffn.dgate.frobenius_norm_sq() as f64;
            s += b.ffn.dup.frobenius_norm_sq() as f64;
            s += b.ffn.ddown.frobenius_norm_sq() as f64;
            s += b
                .dnorm1
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>();
            s += b
                .dnorm2
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>();
        }
        s += self
            .dfinal_norm
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>();
        (s.sqrt()) as f32
    }
}

/// A decoder-only LLaMA-family transformer, generic over the linear
/// operator `L` executing its projections.
///
/// There is exactly **one** forward implementation: the fp32 training
/// stack ([`Model`] `= ModelOf<Linear>`) and the packed quantized stack
/// (`aptq_qmodel::QuantizedModel`, over `QuantizedLinear`) are both
/// instantiations of this type, so they cannot drift apart.
///
/// # Example
///
/// ```
/// use aptq_lm::{Model, ModelConfig};
///
/// let model = Model::new(&ModelConfig::test_tiny(16), 0);
/// let logits = model.forward(&[1, 2, 3]);
/// assert_eq!(logits.rows(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelOf<L = Linear> {
    cfg: ModelConfig,
    embed: Matrix,
    blocks: Vec<TransformerBlock<L>>,
    final_norm: RmsNorm,
    lm_head: Matrix,
    rope: RopeTable,
}

/// The fp32 training/reference model — [`ModelOf`] over [`Linear`].
pub type Model = ModelOf<Linear>;

impl<L: LinearOp> ModelOf<L> {
    /// Assembles a model from prebuilt blocks and float parts (the
    /// weight-install path used by the quantized stack; float models
    /// use [`Model::new`]).
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or the block count does not
    /// match `cfg.n_layers`.
    pub fn from_parts(
        cfg: ModelConfig,
        embed: Matrix,
        blocks: Vec<TransformerBlock<L>>,
        final_norm: RmsNorm,
        lm_head: Matrix,
    ) -> Self {
        cfg.validate().expect("invalid model config");
        assert_eq!(blocks.len(), cfg.n_layers, "from_parts: block count");
        assert_eq!(
            embed.shape(),
            (cfg.vocab_size, cfg.d_model),
            "from_parts: embedding shape"
        );
        assert_eq!(
            lm_head.shape(),
            (cfg.d_model, cfg.vocab_size),
            "from_parts: LM head shape"
        );
        let rope = RopeTable::new(cfg.d_head(), cfg.max_seq_len, cfg.rope_theta);
        ModelOf {
            cfg,
            embed,
            blocks,
            final_norm,
            lm_head,
            rope,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The RoPE table used by all blocks.
    pub fn rope(&self) -> &RopeTable {
        &self.rope
    }

    /// Immutable block access.
    pub fn blocks(&self) -> &[TransformerBlock<L>] {
        &self.blocks
    }

    /// Mutable block access (optimizer / quantizer / fault-injection).
    pub fn blocks_mut(&mut self) -> &mut [TransformerBlock<L>] {
        &mut self.blocks
    }

    /// Embedding matrix (`vocab × d_model`).
    pub fn embed(&self) -> &Matrix {
        &self.embed
    }

    /// LM head matrix (`d_model × vocab`).
    pub fn lm_head(&self) -> &Matrix {
        &self.lm_head
    }

    /// Final RMSNorm.
    pub fn final_norm(&self) -> &RmsNorm {
        &self.final_norm
    }

    /// All quantizable layer addresses in canonical order
    /// (block-major, then `Q,K,V,O,Gate,Up,Down`).
    ///
    /// Embeddings and LM head are excluded, matching the paper (GPTQ-family
    /// methods leave them in fp16).
    pub fn layer_refs(&self) -> Vec<LayerRef> {
        let mut v = Vec::with_capacity(self.blocks.len() * LayerKind::ALL.len());
        for block in 0..self.blocks.len() {
            for kind in LayerKind::ALL {
                v.push(LayerRef { block, kind });
            }
        }
        v
    }

    /// Embeds a token sequence into a `(T × d_model)` activation matrix.
    ///
    /// # Panics
    ///
    /// Panics if a token is out of range (use [`ModelOf::try_forward`]
    /// for a fallible path).
    pub fn embed_tokens(&self, tokens: &[u32]) -> Matrix {
        let mut x = Matrix::zeros(tokens.len(), self.cfg.d_model);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(
                (t as usize) < self.cfg.vocab_size,
                "token {t} out of range for vocab {}",
                self.cfg.vocab_size
            );
            x.row_mut(i).copy_from_slice(self.embed.row(t as usize));
        }
        x
    }

    /// Full forward pass returning next-token logits (`T × vocab`).
    ///
    /// Inference only: the sequence runs as one chunk through the decode
    /// core, row `i` at position `i`, over a `T`-row key/value cache
    /// every block reuses. Bit-identical to the training
    /// [`TransformerBlock::forward`] stack and to feeding the tokens one
    /// by one through a [`DecodeSession`](crate::decode::DecodeSession).
    ///
    /// # HotPath
    ///
    /// Allocation budget: the embedded rows, one workspace and one
    /// key/value cache sized by the sequence, and the logits; no
    /// backward cache and no `T × T` matrix. Inner loops are heap-free.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range tokens or sequences longer than
    /// `max_seq_len` (use [`ModelOf::try_forward`] for a fallible path).
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn forward(&self, tokens: &[u32]) -> Matrix {
        let mut kv = LayerKv::empty(tokens.len(), self.cfg.d_model);
        forward_rows(self, 0, self.embed_tokens(tokens), &mut kv, None)
    }

    /// Fallible forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::EmptyInput`] for an empty sequence,
    /// [`LmError::TokenOutOfRange`] for an invalid token id and
    /// [`LmError::SequenceFull`] for a sequence longer than
    /// `max_seq_len`, each for the first row that fails.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn try_forward(&self, tokens: &[u32]) -> Result<Matrix, LmError> {
        if tokens.is_empty() {
            return Err(LmError::EmptyInput);
        }
        check_chunk(tokens, 0, &self.cfg)?;
        Ok(self.forward(tokens))
    }
}

impl Model {
    /// Creates a model with seeded random initialization.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`ModelConfig::validate`]).
    pub fn new(cfg: &ModelConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid model config");
        let mut rng = init::rng(seed);
        let embed = init::normal(cfg.vocab_size, cfg.d_model, 0.02, &mut rng);
        let blocks = (0..cfg.n_layers)
            .map(|_| TransformerBlock::new(cfg, &mut rng))
            .collect();
        let final_norm = RmsNorm::new(cfg.d_model, cfg.norm_eps);
        let lm_head = init::kaiming(cfg.d_model, cfg.vocab_size, &mut rng);
        let rope = RopeTable::new(cfg.d_head(), cfg.max_seq_len, cfg.rope_theta);
        Model {
            cfg: cfg.clone(),
            embed,
            blocks,
            final_norm,
            lm_head,
            rope,
        }
    }

    /// Mutable embedding access (trainer use).
    pub fn embed_mut(&mut self) -> &mut Matrix {
        &mut self.embed
    }

    /// Mutable LM head access (trainer use).
    pub fn lm_head_mut(&mut self) -> &mut Matrix {
        &mut self.lm_head
    }

    /// Mutable final-norm gain (trainer use).
    pub fn final_norm_gain_mut(&mut self) -> &mut [f32] {
        self.final_norm.gain_mut()
    }

    /// Immutable access to one projection weight (`d_in × d_out`).
    ///
    /// # Panics
    ///
    /// Panics if the block index is out of range.
    pub fn layer_weight(&self, r: LayerRef) -> &Matrix {
        self.blocks[r.block].weight(r.kind)
    }

    /// Mutable access to one projection weight.
    ///
    /// # Panics
    ///
    /// Panics if the block index is out of range.
    pub fn layer_weight_mut(&mut self, r: LayerRef) -> &mut Matrix {
        self.blocks[r.block].weight_mut(r.kind)
    }

    /// Forward pass that records per-block calibration captures.
    ///
    /// Used by the quantization pipelines: the returned
    /// [`ModelCapture`] carries everything both GPTQ and APTQ need.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn forward_capture(&self, tokens: &[u32]) -> (Matrix, ModelCapture) {
        let mut x = self.embed_tokens(tokens);
        let mut captures = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (y, cache) = block.forward(&x, &self.rope);
            captures.push(BlockCapture::from(cache));
            x = y;
        }
        let (normed, _) = self.final_norm.forward(&x);
        let logits = normed.matmul(&self.lm_head);
        (logits, ModelCapture { blocks: captures })
    }

    /// Mean next-token cross-entropy of a sequence (nats/token).
    ///
    /// Positions `0..T−1` predict tokens `1..T`.
    ///
    /// # Panics
    ///
    /// Panics if the sequence has fewer than 2 tokens.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn sequence_loss(&self, tokens: &[u32]) -> f32 {
        assert!(tokens.len() >= 2, "sequence_loss: need at least 2 tokens");
        self.loss_from(0, self.embed_tokens(tokens), tokens)
    }

    /// [`sequence_loss`](Model::sequence_loss) resumed at block `start`
    /// from that block's input `x` (`T × d_model`): runs blocks
    /// `start..` as one chunk through the decode core, as
    /// [`ModelOf::forward`] does, then the cross-entropy.
    ///
    /// With `x` the input the unbroken forward feeds block `start`, the
    /// result equals `sequence_loss(tokens)` bit for bit; `start` equal
    /// to the block count runs the head alone.
    ///
    /// # Panics
    ///
    /// Panics if the sequence has fewer than 2 tokens, `x` has a row
    /// count other than `tokens.len()`, or `start` exceeds the block
    /// count.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn loss_from(&self, start: usize, x: Matrix, tokens: &[u32]) -> f32 {
        assert!(tokens.len() >= 2, "loss_from: need at least 2 tokens");
        assert_eq!(x.rows(), tokens.len(), "loss_from: one row per token");
        assert!(
            start <= self.blocks.len(),
            "loss_from: start past the last block"
        );
        let mut kv = LayerKv::empty(tokens.len(), self.cfg.d_model);
        let logits = forward_rows(self, start, x, &mut kv, None);
        let mut total = 0.0f64;
        for i in 0..tokens.len() - 1 {
            let row = logits.row(i);
            let target = tokens[i + 1] as usize;
            total += (log_sum_exp(row) - row[target]) as f64;
        }
        (total / (tokens.len() - 1) as f64) as f32
    }

    /// Loss and full parameter gradients for one sequence.
    ///
    /// Returns `(mean cross-entropy, gradients)`.
    ///
    /// # Panics
    ///
    /// Panics if the sequence has fewer than 2 tokens.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn sequence_grads(&self, tokens: &[u32]) -> (f32, ModelGrads) {
        assert!(tokens.len() >= 2, "sequence_grads: need at least 2 tokens");
        let t = tokens.len();
        let n_pred = (t - 1) as f32;

        // Forward with caches.
        let mut x = self.embed_tokens(tokens);
        let mut caches = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (y, cache) = block.forward(&x, &self.rope);
            caches.push(cache);
            x = y;
        }
        let (normed, final_cache) = self.final_norm.forward(&x);
        let logits = normed.matmul(&self.lm_head);

        // Loss and dlogits = (softmax − onehot)/n_pred on predicting rows.
        let probs = softmax(&logits);
        let mut loss = 0.0f64;
        let mut dlogits = Matrix::zeros(t, self.cfg.vocab_size);
        for i in 0..t - 1 {
            let target = tokens[i + 1] as usize;
            let row = logits.row(i);
            loss += (log_sum_exp(row) - row[target]) as f64;
            let drow = dlogits.row_mut(i);
            drow.copy_from_slice(probs.row(i));
            drow[target] -= 1.0;
            for v in drow.iter_mut() {
                *v /= n_pred;
            }
        }
        let loss = (loss / n_pred as f64) as f32;

        // Backward through LM head.
        let dnormed = dlogits.matmul_nt(&self.lm_head);
        // lm_head is d_model × vocab; dlm_head = normedᵀ · dlogits.
        let dlm_head = normed.matmul_tn(&dlogits);
        let (mut dx, dfinal_norm) = self.final_norm.backward(&final_cache, &dnormed);

        // Backward through blocks in reverse.
        let mut block_grads: Vec<Option<BlockGrads>> = vec![None; self.blocks.len()];
        for (idx, block) in self.blocks.iter().enumerate().rev() {
            let (dxi, grads) = block.backward(&caches[idx], &dx, &self.rope);
            block_grads[idx] = Some(grads);
            dx = dxi;
        }
        let block_grads: Vec<BlockGrads> = block_grads
            .into_iter()
            .map(|g| g.expect("grad missing"))
            .collect();

        // Embedding gradient: scatter rows.
        let mut dembed = Matrix::zeros(self.cfg.vocab_size, self.cfg.d_model);
        for (i, &tok) in tokens.iter().enumerate() {
            let src = dx.row(i).to_vec();
            let dst = dembed.row_mut(tok as usize);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }

        (
            loss,
            ModelGrads {
                embed: dembed,
                blocks: block_grads,
                dfinal_norm,
                lm_head: dlm_head,
            },
        )
    }

    /// Serializes the model to bare JSON (no integrity envelope; see
    /// [`Model::to_envelope_json`] for the checksummed artifact).
    ///
    /// # Errors
    ///
    /// Returns [`LmError::Checkpoint`] on serialization failure.
    pub fn to_json(&self) -> Result<String, LmError> {
        serde_json::to_string(self)
            .map_err(|e| LmError::Checkpoint(ArtifactError::Malformed(e.to_string())))
    }

    /// Restores a model from JSON produced by [`Model::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`LmError::Checkpoint`] on malformed input.
    pub fn from_json(json: &str) -> Result<Model, LmError> {
        serde_json::from_str(json)
            .map_err(|e| LmError::Checkpoint(ArtifactError::Malformed(e.to_string())))
    }

    /// Serializes the model into a checksummed
    /// [`aptq_artifact`] envelope: a header carrying the FNV-1a 64 of
    /// every payload byte plus per-tensor section checksums
    /// (`embed`, `lm_head`, and one per projection weight), followed
    /// by the [`Model::to_json`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::Checkpoint`] on serialization failure.
    pub fn to_envelope_json(&self) -> Result<String, LmError> {
        let payload = self.to_json()?;
        let text = aptq_artifact::seal(ArtifactKind::Model, &self.section_checksums(), &payload)?;
        Ok(text)
    }

    /// Restores a model from a [`Model::to_envelope_json`] artifact,
    /// validating the header version, the payload checksum, and every
    /// per-tensor section checksum against the decoded weights.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::Checkpoint`] wrapping the structured
    /// [`ArtifactError`]: `Malformed` for framing/JSON damage,
    /// `UnsupportedVersion`/`KindMismatch` for wrong headers, and
    /// `ChecksumMismatch` naming the corrupted section.
    pub fn from_envelope_json(text: &str) -> Result<Model, LmError> {
        let opened = aptq_artifact::open(ArtifactKind::Model, text)?;
        let model = Model::from_json(opened.payload)?;
        aptq_artifact::verify_sections(&opened.sections, &model.section_checksums())?;
        Ok(model)
    }

    /// Per-tensor FNV-1a 64 checksums: `embed`, `lm_head`, and every
    /// projection under its canonical `layers.{block}.{name}` key.
    fn section_checksums(&self) -> BTreeMap<String, u64> {
        let mut sections = BTreeMap::new();
        sections.insert("embed".to_string(), matrix_fnv(&self.embed));
        sections.insert("lm_head".to_string(), matrix_fnv(&self.lm_head));
        for r in self.layer_refs() {
            sections.insert(r.to_string(), matrix_fnv(self.layer_weight(r)));
        }
        sections
    }
}

/// FNV-1a 64 over a matrix: shape, then every value's f32 bit pattern
/// (the same per-word scheme `aptq_core::QuantSession` fingerprints
/// models with).
fn matrix_fnv(m: &Matrix) -> u64 {
    let mut h = Fnv64::new();
    h.eat_u64(m.rows() as u64);
    h.eat_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.eat_word(u64::from(v.to_bits()));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Model {
        Model::new(&ModelConfig::test_tiny(16), 7)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let m = tiny();
        let logits = m.forward(&[0, 1, 2, 3, 4]);
        assert_eq!(logits.shape(), (5, 16));
        assert!(logits.all_finite());
    }

    #[test]
    fn try_forward_validates() {
        let m = tiny();
        assert!(matches!(m.try_forward(&[]), Err(LmError::EmptyInput)));
        assert!(matches!(
            m.try_forward(&[99]),
            Err(LmError::TokenOutOfRange { token: 99, .. })
        ));
        assert!(m.try_forward(&[1, 2]).is_ok());
    }

    #[test]
    fn try_forward_rejects_sequences_past_max_seq_len() {
        // test_tiny holds 32 positions: the 33rd row is an error, not a
        // RoPE-table panic.
        let m = tiny();
        let tokens: Vec<u32> = (0..33).map(|i| i % 16).collect();
        assert!(matches!(
            m.try_forward(&tokens),
            Err(LmError::SequenceFull {
                pos: 32,
                max_seq_len: 32
            })
        ));
        assert!(m.try_forward(&tokens[..32]).is_ok());
    }

    #[test]
    fn oracle_chunked_forward_matches_training_path_on_checkpoint() {
        // The committed TinyLlama-M checkpoint: the chunked inference
        // forward equals the training stack (embed → block.forward →
        // final_norm.forward → head) bit for bit.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../assets/ckpt-s800b12l44-v134-tinyllama_m.json"
        );
        let json = std::fs::read_to_string(path).expect("committed TinyLlama-M checkpoint");
        let model = Model::from_json(&json).expect("checkpoint parses");
        let vocab = model.config().vocab_size as u32;
        for t in [1usize, 17, 64, model.config().max_seq_len] {
            let tokens: Vec<u32> = (0..t as u32).map(|i| (i * 37 + 5) % vocab).collect();
            let mut x = model.embed_tokens(&tokens);
            for block in model.blocks() {
                x = block.forward(&x, model.rope()).0;
            }
            let want = model.final_norm().forward(&x).0.matmul(model.lm_head());
            let got = model.forward(&tokens);
            assert_eq!(got.shape(), want.shape());
            for (i, (a, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), w.to_bits(), "T={t} element {i}");
            }
        }
    }

    #[test]
    fn layer_refs_canonical_order() {
        let m = tiny();
        let refs = m.layer_refs();
        assert_eq!(refs.len(), 2 * 7);
        assert_eq!(
            refs[0],
            LayerRef {
                block: 0,
                kind: LayerKind::Q
            }
        );
        assert_eq!(
            refs[7],
            LayerRef {
                block: 1,
                kind: LayerKind::Q
            }
        );
        assert_eq!(refs[6].kind, LayerKind::Down);
    }

    #[test]
    fn layer_weight_access_roundtrip() {
        let mut m = tiny();
        let r = LayerRef {
            block: 1,
            kind: LayerKind::Gate,
        };
        let before = m.layer_weight(r).clone();
        m.layer_weight_mut(r).scale_assign(0.0);
        assert_eq!(m.layer_weight(r).frobenius_norm(), 0.0);
        assert_ne!(before.frobenius_norm(), 0.0);
    }

    #[test]
    fn layer_kind_names_match_paper() {
        assert_eq!(LayerKind::K.hf_name(), "self_attn.k_proj");
        assert!(LayerKind::K.is_attention());
        assert!(!LayerKind::Down.is_attention());
        let r = LayerRef {
            block: 3,
            kind: LayerKind::V,
        };
        assert_eq!(r.to_string(), "layers.3.self_attn.v_proj");
    }

    #[test]
    fn capture_contains_all_blocks() {
        let m = tiny();
        let (logits, cap) = m.forward_capture(&[1, 2, 3]);
        assert_eq!(cap.n_blocks(), 2);
        assert_eq!(cap.seq_len(), 3);
        // The capture path runs the same ops as the plain forward.
        assert_eq!(logits, m.forward(&[1, 2, 3]));
    }

    #[test]
    fn sequence_loss_near_uniform_at_init() {
        let m = tiny();
        let loss = m.sequence_loss(&[1, 2, 3, 4, 5, 6]);
        let uniform = (16f32).ln();
        // Random logits push the CE a bit above ln(V); it must stay in the
        // same ballpark and never fall below the uniform floor minus noise.
        assert!(
            loss > uniform - 0.5 && loss < uniform + 2.5,
            "loss {loss} vs ln(V)={uniform}"
        );
    }

    #[test]
    fn sequence_grads_match_finite_difference() {
        let mut m = tiny();
        let tokens = [1u32, 5, 3, 2, 8];
        let (_, grads) = m.sequence_grads(&tokens);
        let eps = 1e-2f32;

        // Check an lm_head entry.
        {
            let (i, j) = (3, 7);
            let orig = m.lm_head[(i, j)];
            m.lm_head[(i, j)] = orig + eps;
            let lp = m.sequence_loss(&tokens);
            m.lm_head[(i, j)] = orig - eps;
            let lm = m.sequence_loss(&tokens);
            m.lm_head[(i, j)] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grads.lm_head[(i, j)] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "lm_head: {} vs {fd}",
                grads.lm_head[(i, j)]
            );
        }
        // Check an embedding entry (token 5 is in the sequence).
        {
            let (i, j) = (5, 2);
            let orig = m.embed[(i, j)];
            m.embed[(i, j)] = orig + eps;
            let lp = m.sequence_loss(&tokens);
            m.embed[(i, j)] = orig - eps;
            let lm = m.sequence_loss(&tokens);
            m.embed[(i, j)] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grads.embed[(i, j)] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "embed: {} vs {fd}",
                grads.embed[(i, j)]
            );
        }
        // Check one attention weight entry.
        {
            let r = LayerRef {
                block: 0,
                kind: LayerKind::Q,
            };
            let (i, j) = (2, 3);
            let grad = grads.blocks[0].attn.dwq[(i, j)];
            let orig = m.layer_weight(r)[(i, j)];
            m.layer_weight_mut(r)[(i, j)] = orig + eps;
            let lp = m.sequence_loss(&tokens);
            m.layer_weight_mut(r)[(i, j)] = orig - eps;
            let lm = m.sequence_loss(&tokens);
            m.layer_weight_mut(r)[(i, j)] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "wq: {grad} vs {fd}"
            );
        }
    }

    #[test]
    fn grads_merge_and_scale() {
        let m = tiny();
        let (_, mut g1) = m.sequence_grads(&[1, 2, 3]);
        let (_, g2) = m.sequence_grads(&[4, 5, 6]);
        let norm1 = g1.global_norm();
        g1.add_assign(&g2);
        g1.scale_assign(0.5);
        assert!(g1.global_norm() > 0.0);
        assert!(norm1 > 0.0);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_outputs() {
        let m = tiny();
        let json = m.to_json().unwrap();
        let m2 = Model::from_json(&json).unwrap();
        let a = m.forward(&[1, 2, 3]);
        let b = m2.forward(&[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            Model::from_json("not json"),
            Err(LmError::Checkpoint(_))
        ));
    }

    #[test]
    fn envelope_roundtrip_preserves_outputs() {
        let m = tiny();
        let text = m.to_envelope_json().unwrap();
        let m2 = Model::from_envelope_json(&text).unwrap();
        assert_eq!(m.forward(&[1, 2, 3]), m2.forward(&[1, 2, 3]));
    }

    #[test]
    fn envelope_detects_payload_corruption() {
        let m = tiny();
        let text = m.to_envelope_json().unwrap();
        // Flip one payload character (past the header line).
        let head_len = text.find('\n').unwrap();
        let idx = head_len + text.len() / 2;
        let mut bytes = text.into_bytes();
        bytes[idx] = if bytes[idx] == b'1' { b'2' } else { b'1' };
        let tampered = String::from_utf8(bytes).unwrap();
        match Model::from_envelope_json(&tampered) {
            Err(LmError::Checkpoint(_)) => {}
            other => panic!("tampered envelope must fail integrity: {other:?}"),
        }
    }

    #[test]
    fn envelope_rejects_wrong_kind_and_garbage() {
        assert!(matches!(
            Model::from_envelope_json("junk"),
            Err(LmError::Checkpoint(_))
        ));
        let sealed =
            aptq_artifact::seal(aptq_artifact::ArtifactKind::Plan, &BTreeMap::new(), "{}").unwrap();
        assert!(matches!(
            Model::from_envelope_json(&sealed),
            Err(LmError::Checkpoint(
                aptq_artifact::ArtifactError::KindMismatch { .. }
            ))
        ));
    }

    #[test]
    fn models_with_different_seeds_differ() {
        let cfg = ModelConfig::test_tiny(16);
        let a = Model::new(&cfg, 1);
        let b = Model::new(&cfg, 2);
        assert_ne!(a.forward(&[1, 2]), b.forward(&[1, 2]));
    }
}
