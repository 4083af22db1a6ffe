//! The decoder-only transformer model: embedding, blocks, LM head,
//! loss/gradient computation, layer addressing and checkpointing.

use std::collections::BTreeMap;
use std::ops::Range;

use aptq_artifact::{ArtifactError, ArtifactKind, Fnv64};
use aptq_tensor::activation::{log_sum_exp, softmax};
use aptq_tensor::{init, Matrix};
use serde::{Deserialize, Serialize};

use crate::block::{BlockGrads, TransformerBlock};
use crate::capture::{BlockCapture, CaptureSink};
use crate::config::ModelConfig;
use crate::decode::{check_row, forward_rows, LayerKv, Workspace};
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
    /// The sequence runs as one chunk through the decode core, row `i`
    /// at position `i`, over a `T`-row key/value cache every block
    /// reuses. Bit-identical to feeding the tokens one by one through a
    /// [`DecodeSession`](crate::decode::DecodeSession).
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
        self.forward_scratch(0, self.embed_tokens(tokens))
    }

    /// Runs the rows `x` from block `start` through the decode core over
    /// a workspace and a one-layer key/value cache sized by the rows.
    fn forward_scratch(&self, start: usize, mut x: Matrix) -> Matrix {
        let t = x.rows();
        let mut ws = Workspace::for_rows(t, &self.cfg);
        let mut kv = LayerKv::empty(t, self.cfg.d_model);
        let n = self.blocks.len();
        forward_rows(self, start..n, &mut x, &mut ws, &mut kv, None, None);
        self.final_norm.forward_into(&x, &mut ws.normed);
        ws.normed.matmul(&self.lm_head)
    }

    /// Runs the hidden rows `x` (block `blocks.start`'s input, row `i`
    /// at position `i`) in place through `blocks` as one chunk through
    /// the decode core's block halves, with no head. With a
    /// [`CaptureSink`], each block's activations go to `sink.capture`,
    /// and `sink.each` runs before the next block: the calibration
    /// capture, and the forward of
    /// [`sequence_grads`](Model::sequence_grads).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `d_model` wide or longer than `max_seq_len`,
    /// or `blocks` ends past the last block.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn forward_blocks(
        &self,
        blocks: Range<usize>,
        x: &mut Matrix,
        sink: Option<CaptureSink<'_>>,
    ) {
        let t = x.rows();
        let mut ws = Workspace::for_rows(t, &self.cfg);
        let mut kv = LayerKv::empty(t, self.cfg.d_model);
        forward_rows(self, blocks, x, &mut ws, &mut kv, None, sink);
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
        for (pos, &token) in tokens.iter().enumerate() {
            check_row(token, pos, &self.cfg)?;
        }
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
        let logits = self.forward_scratch(start, x);
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

        // Forward through the inference core, one block at a time: each
        // block's input and capture feed its backward.
        let mut x = self.embed_tokens(tokens);
        let mut saved = Vec::with_capacity(self.blocks.len());
        for b in 0..self.blocks.len() {
            let input = x.clone();
            let mut capture = BlockCapture::default();
            let sink = CaptureSink {
                capture: &mut capture,
                each: &mut |_, _| {},
            };
            self.forward_blocks(b..b + 1, &mut x, Some(sink));
            saved.push((input, capture));
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
        let mut block_grads = Vec::with_capacity(self.blocks.len());
        for (block, (input, capture)) in self.blocks.iter().zip(&saved).rev() {
            let (dxi, grads) = block.backward(input, capture, &dx, &self.rope);
            block_grads.push(grads);
            dx = dxi;
        }
        block_grads.reverse();

        // Embedding gradient: scatter rows.
        let mut dembed = Matrix::zeros(self.cfg.vocab_size, self.cfg.d_model);
        for (i, &tok) in tokens.iter().enumerate() {
            for (d, s) in dembed.row_mut(tok as usize).iter_mut().zip(dx.row(i)) {
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

/// The training stack before its forward ran through the inference core,
/// kept verbatim as the bit-exact oracle of [`Model::sequence_grads`],
/// the capture and the block halves: the cache-building forwards of the
/// attention, the SwiGLU FFN and the block, their caches, the backward
/// passes that read those caches, and `sequence_grads` itself.
#[cfg(test)]
pub(crate) mod oracle {
    use aptq_tensor::activation::{
        log_sum_exp, silu, silu_grad, silu_mul_into, softmax, softmax_vjp_row,
    };
    use aptq_tensor::Matrix;

    use crate::attention::{attend_row, AttentionGrads, MultiHeadAttention};
    use crate::block::{BlockGrads, TransformerBlock};
    use crate::ffn::{SwiGlu, SwiGluGrads};
    use crate::linear::LinearOp;
    use crate::model::{Model, ModelGrads};
    use crate::rmsnorm::RmsNormCache;
    use crate::rope::RopeTable;

    /// Everything the attention backward needs from one forward pass.
    pub(crate) struct AttentionCache {
        pub(crate) x: Matrix,
        pub(crate) q_rot: Matrix,
        pub(crate) k_rot: Matrix,
        pub(crate) v: Matrix,
        pub(crate) probs: Vec<Matrix>,
        pub(crate) concat: Matrix,
    }

    /// Forward cache of the SwiGLU backward.
    pub(crate) struct SwiGluCache {
        pub(crate) x: Matrix,
        pub(crate) g: Matrix,
        pub(crate) u: Matrix,
        pub(crate) hidden: Matrix,
    }

    /// Forward cache of the block backward.
    pub(crate) struct BlockForwardCache {
        pub(crate) norm1: RmsNormCache,
        pub(crate) attn: AttentionCache,
        pub(crate) norm2: RmsNormCache,
        pub(crate) ffn: SwiGluCache,
    }

    /// `MultiHeadAttention::forward`: every row through `attend_row`.
    pub(crate) fn attention_forward(
        attn: &MultiHeadAttention,
        x: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, AttentionCache) {
        let scale = 1.0 / (attn.d_head() as f32).sqrt();
        let t = x.rows();
        let d_model = attn.wq().d_in();
        assert_eq!(x.cols(), d_model, "attention: input width mismatch");

        let mut q = attn.wq().forward_op(x, None);
        let mut k = attn.wk().forward_op(x, None);
        let v = attn.wv().forward_op(x, None);
        for pos in 0..t {
            rope.apply_heads(q.row_mut(pos), pos);
            rope.apply_heads(k.row_mut(pos), pos);
        }

        let keys = k.transpose();
        let mut probs: Vec<Matrix> = (0..attn.n_heads()).map(|_| Matrix::zeros(t, t)).collect();
        let mut concat = Matrix::zeros(t, d_model);
        let mut scratch = vec![0.0f32; attn.n_heads() * (t + 1)];
        for i in 0..t {
            attend_row(
                q.row(i),
                &keys,
                &v,
                i + 1,
                attn.d_head(),
                scale,
                &mut scratch,
                Some(&mut probs[..]),
                concat.row_mut(i),
            );
        }
        let out = attn.wo().forward_op(&concat, None);
        let cache = AttentionCache {
            x: x.clone(),
            q_rot: q,
            k_rot: k,
            v,
            probs,
            concat,
        };
        (out, cache)
    }

    /// `MultiHeadAttention::backward` over its cache.
    fn attention_backward(
        attn: &MultiHeadAttention,
        cache: &AttentionCache,
        dy: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, AttentionGrads) {
        let (n_heads, d_head) = (attn.n_heads(), attn.d_head());
        let scale = 1.0 / (d_head as f32).sqrt();
        let t = cache.x.rows();
        let d_model = attn.wq().d_in();
        assert_eq!(
            dy.shape(),
            (t, d_model),
            "attention backward: dy shape mismatch"
        );

        // O projection.
        let (dconcat, dwo) = attn.wo().backward(&cache.concat, dy);

        let mut dq = Matrix::zeros(t, d_model);
        let mut dk = Matrix::zeros(t, d_model);
        let mut dv = Matrix::zeros(t, d_model);

        for h in 0..n_heads {
            let lo = h * d_head;
            let hi = lo + d_head;
            let p = &cache.probs[h];
            let qh = cache.q_rot.slice_cols(lo, hi);
            let kh = cache.k_rot.slice_cols(lo, hi);
            let vh = cache.v.slice_cols(lo, hi);
            let dhead = dconcat.slice_cols(lo, hi);

            // head = P · V
            let dp = dhead.matmul_nt(&vh); // T×T
            let dvh = p.matmul_tn(&dhead); // T×dh

            // softmax backward (row-wise VJP); masked entries have p=0 so
            // their gradient vanishes automatically.
            let mut dscores = Matrix::zeros(t, t);
            for i in 0..t {
                let g = softmax_vjp_row(p.row(i), dp.row(i));
                dscores.row_mut(i).copy_from_slice(&g);
            }
            dscores.scale_assign(scale);

            // scores = q kᵀ
            let dqh = dscores.matmul(&kh); // T×dh
            let dkh = dscores.matmul_tn(&qh); // T×dh

            dq.set_block(0, lo, &dqh);
            dk.set_block(0, lo, &dkh);
            dv.set_block(0, lo, &dvh);
        }

        // Undo RoPE on gradient (the rotation is orthogonal: Jᵀ = R(−θ)).
        for pos in 0..t {
            for h in 0..n_heads {
                let lo = h * d_head;
                let hi = lo + d_head;
                rope.apply_row_inverse(&mut dq.row_mut(pos)[lo..hi], pos);
                rope.apply_row_inverse(&mut dk.row_mut(pos)[lo..hi], pos);
            }
        }

        let (dx_q, dwq) = attn.wq().backward(&cache.x, &dq);
        let (dx_k, dwk) = attn.wk().backward(&cache.x, &dk);
        let (dx_v, dwv) = attn.wv().backward(&cache.x, &dv);

        let mut dx = dx_q;
        dx.add_assign(&dx_k);
        dx.add_assign(&dx_v);

        (dx, AttentionGrads { dwq, dwk, dwv, dwo })
    }

    /// `SwiGlu::forward`.
    fn swiglu_forward(ffn: &SwiGlu, x: &Matrix) -> (Matrix, SwiGluCache) {
        let g = ffn.gate().forward_op(x, None);
        let u = ffn.up().forward_op(x, None);
        let mut hidden = g.clone();
        silu_mul_into(hidden.as_mut_slice(), u.as_slice());
        let y = ffn.down().forward_op(&hidden, None);
        (
            y,
            SwiGluCache {
                x: x.clone(),
                g,
                u,
                hidden,
            },
        )
    }

    /// `SwiGlu::backward` over its cache.
    fn swiglu_backward(ffn: &SwiGlu, cache: &SwiGluCache, dy: &Matrix) -> (Matrix, SwiGluGrads) {
        let (dhidden, ddown) = ffn.down().backward(&cache.hidden, dy);
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
        let (dx_g, dgate) = ffn.gate().backward(&cache.x, &dg);
        let (dx_u, dup) = ffn.up().backward(&cache.x, &du);
        let mut dx = dx_g;
        dx.add_assign(&dx_u);
        (dx, SwiGluGrads { dgate, dup, ddown })
    }

    /// `TransformerBlock::forward`.
    pub(crate) fn block_forward(
        block: &TransformerBlock,
        x: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, BlockForwardCache) {
        let (normed1, c_norm1) = block.norm1.forward(x);
        let (attn_out, c_attn) = attention_forward(&block.attn, &normed1, rope);
        let mut h = x.clone();
        h.add_assign(&attn_out);
        let (normed2, c_norm2) = block.norm2.forward(&h);
        let (ffn_out, c_ffn) = swiglu_forward(&block.ffn, &normed2);
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

    /// `TransformerBlock::backward` over its cache.
    fn block_backward(
        block: &TransformerBlock,
        cache: &BlockForwardCache,
        dy: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, BlockGrads) {
        // y = h + ffn(norm2(h))
        let (dnormed2, ffn_grads) = swiglu_backward(&block.ffn, &cache.ffn, dy);
        let (dh_from_ffn, dnorm2) = block.norm2.backward(&cache.norm2, &dnormed2);
        let mut dh = dy.clone();
        dh.add_assign(&dh_from_ffn);

        // h = x + attn(norm1(x))
        let (dnormed1, attn_grads) = attention_backward(&block.attn, &cache.attn, &dh, rope);
        let (dx_from_attn, dnorm1) = block.norm1.backward(&cache.norm1, &dnormed1);
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

    /// `Model::sequence_grads` over the cache-building forward.
    pub(crate) fn sequence_grads(model: &Model, tokens: &[u32]) -> (f32, ModelGrads) {
        assert!(tokens.len() >= 2, "sequence_grads: need at least 2 tokens");
        let t = tokens.len();
        let n_pred = (t - 1) as f32;

        // Forward with caches.
        let mut x = model.embed_tokens(tokens);
        let mut caches = Vec::with_capacity(model.blocks().len());
        for block in model.blocks() {
            let (y, cache) = block_forward(block, &x, model.rope());
            caches.push(cache);
            x = y;
        }
        let (normed, final_cache) = model.final_norm().forward(&x);
        let logits = normed.matmul(model.lm_head());

        // Loss and dlogits = (softmax − onehot)/n_pred on predicting rows.
        let probs = softmax(&logits);
        let mut loss = 0.0f64;
        let mut dlogits = Matrix::zeros(t, model.config().vocab_size);
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
        let dnormed = dlogits.matmul_nt(model.lm_head());
        // lm_head is d_model × vocab; dlm_head = normedᵀ · dlogits.
        let dlm_head = normed.matmul_tn(&dlogits);
        let (mut dx, dfinal_norm) = model.final_norm().backward(&final_cache, &dnormed);

        // Backward through blocks in reverse.
        let mut block_grads: Vec<Option<BlockGrads>> = vec![None; model.blocks().len()];
        for (idx, block) in model.blocks().iter().enumerate().rev() {
            let (dxi, grads) = block_backward(block, &caches[idx], &dx, model.rope());
            block_grads[idx] = Some(grads);
            dx = dxi;
        }
        let block_grads: Vec<BlockGrads> = block_grads
            .into_iter()
            .map(|g| g.expect("grad missing"))
            .collect();

        // Embedding gradient: scatter rows.
        let mut dembed = Matrix::zeros(model.config().vocab_size, model.config().d_model);
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

    /// Every gradient element of `got` against `want`, by bits.
    pub(crate) fn assert_grads_bits(got: &ModelGrads, want: &ModelGrads, what: &str) {
        let bits = |a: &[f32], b: &[f32], name: &str| {
            assert_eq!(a.len(), b.len(), "{what} {name}: length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what} {name}[{i}]: {x} vs {y}");
            }
        };
        bits(got.embed.as_slice(), want.embed.as_slice(), "embed");
        bits(got.lm_head.as_slice(), want.lm_head.as_slice(), "lm_head");
        bits(&got.dfinal_norm, &want.dfinal_norm, "dfinal_norm");
        assert_eq!(got.blocks.len(), want.blocks.len(), "{what}: blocks");
        for (b, (g, w)) in got.blocks.iter().zip(&want.blocks).enumerate() {
            let pairs = [
                (&g.attn.dwq, &w.attn.dwq, "dwq"),
                (&g.attn.dwk, &w.attn.dwk, "dwk"),
                (&g.attn.dwv, &w.attn.dwv, "dwv"),
                (&g.attn.dwo, &w.attn.dwo, "dwo"),
                (&g.ffn.dgate, &w.ffn.dgate, "dgate"),
                (&g.ffn.dup, &w.ffn.dup, "dup"),
                (&g.ffn.ddown, &w.ffn.ddown, "ddown"),
            ];
            for (x, y, name) in pairs {
                assert_eq!(x.shape(), y.shape(), "{what} block {b} {name}: shape");
                bits(x.as_slice(), y.as_slice(), &format!("block {b} {name}"));
            }
            bits(&g.dnorm1, &w.dnorm1, &format!("block {b} dnorm1"));
            bits(&g.dnorm2, &w.dnorm2, &format!("block {b} dnorm2"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

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
        // forward equals the cache-building training stack in [`oracle`]
        // (embed → block forward → final_norm.forward → head) bit for bit.
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
                x = oracle::block_forward(block, &x, model.rope()).0;
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

    /// `sequence_grads` against the pre-change one kept in [`oracle`]:
    /// the loss and every gradient element, by bits.
    fn check_sequence_grads(model: &Model, tokens: &[u32], what: &str) {
        let (loss, grads) = model.sequence_grads(tokens);
        let (want_loss, want) = oracle::sequence_grads(model, tokens);
        assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what}: loss");
        oracle::assert_grads_bits(&grads, &want, what);
    }

    #[test]
    fn oracle_sequence_grads_match_cache_stack() {
        // `test_tiny` at three seeds, lengths from the shortest trainable
        // sequence to the full context. Tokens repeat, several times at
        // the longer lengths, so the embedding scatter's summation order
        // shows in the bits.
        let cfg = ModelConfig::test_tiny(16);
        for seed in [3u64, 7, 11] {
            let model = Model::new(&cfg, seed);
            let mut rng = init::rng(seed);
            for t in [2usize, 3, 17, cfg.max_seq_len] {
                let tokens: Vec<u32> = (0..t).map(|_| rng.gen_range(0..16u32)).collect();
                check_sequence_grads(&model, &tokens, &format!("seed {seed} T={t}"));
            }
        }
        // The committed TinyLlama-M checkpoint, each token at every 29th
        // position.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../assets/ckpt-s800b12l44-v134-tinyllama_m.json"
        );
        let json = std::fs::read_to_string(path).expect("committed TinyLlama-M checkpoint");
        let model = Model::from_json(&json).expect("checkpoint parses");
        for t in [2usize, 17, 64, 128] {
            let tokens: Vec<u32> = (0..t as u32).map(|i| (i * 37 + 5) % 29).collect();
            check_sequence_grads(&model, &tokens, &format!("TinyLlama-M T={t}"));
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
