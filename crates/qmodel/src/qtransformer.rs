//! The packed-weight transformer: full inference from 2/4-bit storage.
//!
//! There is no quantized forward implementation here. [`QuantizedModel`]
//! wraps [`ModelOf<QuantizedLinear>`] — the *same* generic transformer
//! stack the fp32 [`Model`] instantiates — so the packed path reuses
//! attention, FFN, block, model and KV-cache decode code verbatim and
//! can never drift from the reference. This module only quantizes and
//! installs the weights, checks their integrity, and reports the
//! deployable memory footprint; inference errors are the generic
//! stack's, wrapped as [`QModelError::Lm`].

use std::collections::BTreeMap;

use aptq_artifact::{ArtifactError, ArtifactKind};
use aptq_core::engine::quantize_layer_obq;
use aptq_core::grid::{GridConfig, QuantGrid};
use aptq_core::hessian::LayerHessian;
use aptq_core::plan::QuantPlan;
use aptq_lm::attention::MultiHeadAttention;
use aptq_lm::block::TransformerBlock;
use aptq_lm::decode::{BatchDecodeSession, DecodeSession};
use aptq_lm::ffn::SwiGlu;
use aptq_lm::generate::{generate, Sampler};
use aptq_lm::{LayerKind, LayerRef, Model, ModelConfig, ModelOf};
use aptq_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::memory::MemoryBreakdown;
use crate::qlinear::QuantizedLinear;
use crate::QModelError;

/// A deployable quantized transformer: every projection lives in packed
/// sub-byte storage; embeddings, norms and the LM head stay float (as in
/// the paper's GPTQ-family setting).
///
/// Forward-pass outputs are **bit-identical** to installing the
/// dequantized weights into the reference [`Model`] (tested), so every
/// accuracy number measured through simulated quantization transfers to
/// this execution path exactly. Because the forward *is* the generic
/// [`ModelOf`] path, the packed stack also inherits KV-cache incremental
/// decoding ([`QuantizedModel::decode_session`]) with per-token cost
/// independent of sequence position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedModel {
    inner: ModelOf<QuantizedLinear>,
    /// Per-layer FNV-1a fingerprints captured at quantization time
    /// (keys are [`LayerRef`] display strings); [`QuantizedModel::verify`]
    /// re-derives them from the packed storage.
    checksums: BTreeMap<String, u64>,
}

/// Fingerprints every packed projection, keyed by [`LayerRef`] display
/// string in canonical layer order.
fn layer_fingerprints(inner: &ModelOf<QuantizedLinear>) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (b, block) in inner.blocks().iter().enumerate() {
        let layers: [(LayerKind, &QuantizedLinear); 7] = [
            (LayerKind::Q, block.attn.wq()),
            (LayerKind::K, block.attn.wk()),
            (LayerKind::V, block.attn.wv()),
            (LayerKind::O, block.attn.wo()),
            (LayerKind::Gate, block.ffn.gate()),
            (LayerKind::Up, block.ffn.up()),
            (LayerKind::Down, block.ffn.down()),
        ];
        for (kind, lin) in layers {
            out.insert(LayerRef { block: b, kind }.to_string(), lin.fingerprint());
        }
    }
    out
}

impl QuantizedModel {
    /// Quantizes `model` per `plan` under `hessians` (the OBQ engine)
    /// and packs the result.
    ///
    /// # Determinism
    ///
    /// Layer solves run sequentially here; the engine's inner matmuls
    /// use the shared threadpool ([`aptq_tensor::parallel`]) and are
    /// bit-identical at any `APTQ_THREADS` value.
    ///
    /// # Errors
    ///
    /// Returns [`QModelError::MissingLayer`] if a layer lacks a plan or
    /// Hessian entry; propagates engine failures.
    pub fn quantize_from(
        model: &Model,
        plan: &QuantPlan,
        hessians: &BTreeMap<LayerRef, LayerHessian>,
        cfg: &GridConfig,
    ) -> Result<Self, QModelError> {
        let mcfg = model.config().clone();
        let mut blocks = Vec::with_capacity(mcfg.n_layers);
        for b in 0..mcfg.n_layers {
            let quantize_one = |kind: LayerKind| -> Result<QuantizedLinear, QModelError> {
                let layer = LayerRef { block: b, kind };
                let bits = plan
                    .bits_for(layer)
                    .ok_or_else(|| QModelError::MissingLayer(layer.to_string()))?;
                let lh = hessians
                    .get(&layer)
                    .ok_or_else(|| QModelError::MissingLayer(layer.to_string()))?;
                let grid = QuantGrid::try_int(bits, cfg.asymmetric)?;
                let res = quantize_layer_obq(
                    &layer.to_string(),
                    model.layer_weight(layer),
                    lh,
                    grid,
                    cfg,
                )?;
                Ok(QuantizedLinear::new(res.packed))
            };
            let src = &model.blocks()[b];
            let attn = MultiHeadAttention::from_parts(
                quantize_one(LayerKind::Q)?,
                quantize_one(LayerKind::K)?,
                quantize_one(LayerKind::V)?,
                quantize_one(LayerKind::O)?,
                mcfg.n_heads,
            );
            let ffn = SwiGlu::from_parts(
                quantize_one(LayerKind::Gate)?,
                quantize_one(LayerKind::Up)?,
                quantize_one(LayerKind::Down)?,
            );
            blocks.push(TransformerBlock::from_parts(
                attn,
                ffn,
                src.norm1.clone(),
                src.norm2.clone(),
            ));
        }
        let inner = ModelOf::from_parts(
            mcfg,
            model.embed().clone(),
            blocks,
            model.final_norm().clone(),
            model.lm_head().clone(),
        );
        let checksums = layer_fingerprints(&inner);
        Ok(QuantizedModel { inner, checksums })
    }

    /// Re-derives every packed layer's fingerprint and compares it to
    /// the checksum captured at quantization time. Detects any bit-level
    /// corruption of packed codes, group parameters or shapes since the
    /// model was built (or since [`QuantizedModel::from_envelope_json`]
    /// validated it).
    ///
    /// # Errors
    ///
    /// Returns [`QModelError::Integrity`] naming the first corrupted
    /// layer (canonical order), or a malformed-checksum-table error if
    /// the layer sets diverge.
    pub fn verify(&self) -> Result<(), QModelError> {
        let derived = layer_fingerprints(&self.inner);
        aptq_artifact::verify_sections(&self.checksums, &derived)?;
        Ok(())
    }

    /// Fault-injection hook: XORs `mask` into one packed code byte of
    /// the given layer (see [`QuantizedLinear::corrupt_packed_byte`]).
    /// The stored checksum is deliberately left untouched, so
    /// [`QuantizedModel::verify`] reports the layer. Returns `true` if a
    /// byte actually changed; `false` (never a panic) for an
    /// out-of-range block, a zero mask, or an empty code stream.
    pub fn corrupt_layer(&mut self, layer: LayerRef, byte_index: usize, mask: u8) -> bool {
        let Some(block) = self.inner.blocks_mut().get_mut(layer.block) else {
            return false;
        };
        let lin = match layer.kind {
            LayerKind::Q => block.attn.wq_mut(),
            LayerKind::K => block.attn.wk_mut(),
            LayerKind::V => block.attn.wv_mut(),
            LayerKind::O => block.attn.wo_mut(),
            LayerKind::Gate => block.ffn.gate_mut(),
            LayerKind::Up => block.ffn.up_mut(),
            LayerKind::Down => block.ffn.down_mut(),
        };
        lin.corrupt_packed_byte(byte_index, mask)
    }

    /// Serializes the packed model into a checksummed
    /// [`aptq_artifact`] envelope (kind `packed-model`); the header
    /// carries the per-layer fingerprints as sections.
    ///
    /// # Errors
    ///
    /// Returns [`QModelError::Integrity`] on serialization failure.
    pub fn to_envelope_json(&self) -> Result<String, QModelError> {
        let payload = serde_json::to_string(self)
            .map_err(|e| QModelError::Integrity(ArtifactError::Malformed(e.to_string())))?;
        let text = aptq_artifact::seal(ArtifactKind::PackedModel, &self.checksums, &payload)?;
        Ok(text)
    }

    /// Restores a packed model from a
    /// [`QuantizedModel::to_envelope_json`] artifact, validating the
    /// header, the payload checksum, the header sections against the
    /// stored checksum table, and finally [`QuantizedModel::verify`]
    /// against the re-derived layer fingerprints.
    ///
    /// # Errors
    ///
    /// Returns [`QModelError::Integrity`] wrapping the structured
    /// [`ArtifactError`] — never panics, even on truncated or
    /// bit-flipped input.
    pub fn from_envelope_json(text: &str) -> Result<QuantizedModel, QModelError> {
        let opened = aptq_artifact::open(ArtifactKind::PackedModel, text)?;
        let model: QuantizedModel = serde_json::from_str(opened.payload)
            .map_err(|e| QModelError::Integrity(ArtifactError::Malformed(e.to_string())))?;
        aptq_artifact::verify_sections(&opened.sections, &model.checksums)?;
        model.verify()?;
        Ok(model)
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    /// The underlying generic transformer over packed operators.
    ///
    /// Everything generic over [`aptq_lm::LinearOp`] — evaluation
    /// harnesses, [`DecodeSession`], generation — accepts this directly.
    pub fn model(&self) -> &ModelOf<QuantizedLinear> {
        &self.inner
    }

    /// Starts a KV-cache incremental decode session over the packed
    /// weights.
    ///
    /// Per-token cost is independent of position (no re-running the
    /// prefix), and fed tokens produce logits bit-identical to the full
    /// [`QuantizedModel::forward`] — the row-independence contract of
    /// [`aptq_lm::LinearOp`] holds for the group-streamed packed
    /// operator.
    pub fn decode_session(&self) -> DecodeSession<'_, QuantizedLinear> {
        DecodeSession::new(&self.inner)
    }

    /// Starts a multi-sequence batched decode session over the packed
    /// weights.
    ///
    /// Each step stacks the active sequences' hidden rows into one
    /// matrix per projection, so every packed weight group is unpacked
    /// **once per layer per step** — not once per sequence — while
    /// every sequence's logits stay bit-identical to a solo
    /// [`QuantizedModel::decode_session`] (tested in
    /// `tests/batch_decode.rs`).
    pub fn batch_decode_session(&self) -> BatchDecodeSession<'_, QuantizedLinear> {
        BatchDecodeSession::new(&self.inner)
    }

    /// Memory footprint of the deployable artifact.
    pub fn memory(&self) -> MemoryBreakdown {
        let mut packed = 0usize;
        let mut fp16_proj = 0usize;
        for b in self.inner.blocks() {
            let attn = &b.attn;
            let ffn = &b.ffn;
            for l in [
                attn.wq(),
                attn.wk(),
                attn.wv(),
                attn.wo(),
                ffn.gate(),
                ffn.up(),
                ffn.down(),
            ] {
                packed += l.storage_bytes();
                fp16_proj += l.d_in() * l.d_out() * 2;
            }
        }
        let cfg = self.inner.config();
        let float = (self.inner.embed().len() + self.inner.lm_head().len()) * 2
            + self.inner.blocks().len() * 2 * cfg.d_model * 2
            + cfg.d_model * 2;
        MemoryBreakdown {
            packed_bytes: packed,
            float_bytes: float,
            fp16_projection_bytes: fp16_proj,
        }
    }

    /// Full forward pass from packed storage; returns `T × vocab`
    /// logits via the generic [`ModelOf`] path.
    ///
    /// # Determinism
    ///
    /// The LM-head matmul runs on the shared threadpool
    /// ([`aptq_tensor::parallel`]); logits are bit-identical at any
    /// `APTQ_THREADS` value.
    ///
    /// # Errors
    ///
    /// Returns [`QModelError::Lm`] with [`ModelOf::try_forward`]'s error
    /// for the first row that fails: [`aptq_lm::LmError::EmptyInput`] for an
    /// empty sequence, [`aptq_lm::LmError::TokenOutOfRange`] or
    /// [`aptq_lm::LmError::SequenceFull`].
    pub fn forward(&self, tokens: &[u32]) -> Result<Matrix, QModelError> {
        Ok(self.inner.try_forward(tokens)?)
    }

    /// Greedy generation from packed storage through
    /// [`aptq_lm::generate::generate`] — KV-cached steps, so per-token
    /// cost is independent of position.
    ///
    /// Token selection goes through [`aptq_tensor::select::argmax`]:
    /// NaN logits never win and ties break toward the lowest token id.
    /// Generation stops early once the sequence reaches `max_seq_len`.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value; see
    /// [`QuantizedModel::forward`].
    ///
    /// # Errors
    ///
    /// As [`QuantizedModel::generate_greedy_batched`].
    pub fn generate_greedy(&self, prompt: &[u32], n_new: usize) -> Result<Vec<u32>, QModelError> {
        let mut outs = self.generate_greedy_batched(&[prompt], n_new)?;
        Ok(outs.swap_remove(0))
    }

    /// Greedy generation over many prompts at once through a batched
    /// decode session (continuous batching: sequences leave as they
    /// finish). Output `i` is bit-identical to
    /// `generate_greedy(&prompts[i], n_new)`, but packed weight groups
    /// are unpacked once per step for the whole batch instead of once
    /// per sequence.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value; see
    /// [`QuantizedModel::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`QModelError::Lm`] with [`aptq_lm::generate::generate`]'s
    /// error: [`aptq_lm::LmError::EmptyInput`] if `prompts` is empty or any
    /// prompt is empty, [`aptq_lm::LmError::SequenceFull`] /
    /// [`aptq_lm::LmError::TokenOutOfRange`] on an invalid prompt, and
    /// [`aptq_lm::LmError::NonFiniteLogits`] if any sequence's logits go NaN/Inf.
    pub fn generate_greedy_batched<P: AsRef<[u32]>>(
        &self,
        prompts: &[P],
        n_new: usize,
    ) -> Result<Vec<Vec<u32>>, QModelError> {
        let mut session = self.batch_decode_session();
        Ok(generate(&mut session, prompts, n_new, Sampler::Greedy)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_core::hessian::HessianMode;
    use aptq_lm::LmError;

    fn setup() -> (Model, Vec<Vec<u32>>, BTreeMap<LayerRef, LayerHessian>) {
        let model = Model::new(&ModelConfig::test_tiny(16), 51);
        let calib: Vec<Vec<u32>> = (0..4)
            .map(|k| (0..12).map(|i| ((i * 3 + k) % 16) as u32).collect())
            .collect();
        let hs = aptq_core::collect_hessians(&model, &calib, HessianMode::AttentionAware).unwrap();
        (model, calib, hs)
    }

    #[test]
    fn packed_forward_matches_simulated_quantization() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let plan = QuantPlan::uniform(&model, 4);
        let qmodel = QuantizedModel::quantize_from(&model, &plan, &hs, &cfg).unwrap();

        // Simulated path: install dequantized weights into a clone.
        let mut simulated = model.clone();
        aptq_core::methods::apply_plan_obq("ref", &mut simulated, &plan, &hs, &cfg).unwrap();

        let tokens = [1u32, 5, 9, 2, 7];
        let a = qmodel.forward(&tokens).unwrap();
        let b = simulated.forward(&tokens);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn mixed_precision_plan_works_end_to_end() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let mut plan = QuantPlan::uniform(&model, 2);
        // Half the layers at 4 bits.
        for (i, layer) in model.layer_refs().into_iter().enumerate() {
            if i % 2 == 0 {
                plan.set_bits(layer, 4);
            }
        }
        let qmodel = QuantizedModel::quantize_from(&model, &plan, &hs, &cfg).unwrap();
        let logits = qmodel.forward(&[1, 2, 3]).unwrap();
        assert!(logits.all_finite());
        let mem = qmodel.memory();
        let bits = mem.projection_bits();
        assert!(bits > 2.0 && bits < 5.0, "mixed 2/4 + metadata: {bits}");
    }

    #[test]
    fn memory_shrinks_with_bits() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q4 = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 4), &hs, &cfg)
            .unwrap();
        let q2 = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 2), &hs, &cfg)
            .unwrap();
        assert!(q2.memory().packed_bytes < q4.memory().packed_bytes);
        // At d=16 group metadata is proportionally heavy; at real widths
        // (see tests/storage_and_checkpoints.rs) this exceeds 3x.
        assert!(q4.memory().projection_compression() > 2.5);
    }

    #[test]
    fn input_validation() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 4), &hs, &cfg)
            .unwrap();
        assert!(matches!(
            q.forward(&[99]),
            Err(QModelError::Lm(LmError::TokenOutOfRange { .. }))
        ));
        let long: Vec<u32> = (0..40).map(|i| (i % 16) as u32).collect();
        assert!(matches!(
            q.forward(&long),
            Err(QModelError::Lm(LmError::SequenceFull { .. }))
        ));
    }

    #[test]
    fn generation_from_packed_storage_is_deterministic() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 4), &hs, &cfg)
            .unwrap();
        let a = q.generate_greedy(&[1, 2], 6).unwrap();
        let b = q.generate_greedy(&[1, 2], 6).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn forward_rejects_empty_input() {
        // An empty sequence is an error, as `ModelOf::try_forward`
        // reports it, not a `0 × vocab` matrix.
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 4), &hs, &cfg)
            .unwrap();
        assert!(matches!(
            q.forward(&[]),
            Err(QModelError::Lm(LmError::EmptyInput))
        ));
        assert_eq!(q.forward(&[1, 2]).unwrap().rows(), 2);
    }

    #[test]
    fn generation_rejects_empty_prompts() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 4), &hs, &cfg)
            .unwrap();
        assert!(matches!(
            q.generate_greedy(&[], 3),
            Err(QModelError::Lm(LmError::EmptyInput))
        ));
        let none: &[Vec<u32>] = &[];
        assert!(matches!(
            q.generate_greedy_batched(none, 3),
            Err(QModelError::Lm(LmError::EmptyInput))
        ));
        assert!(matches!(
            q.generate_greedy_batched(&[vec![1], vec![]], 3),
            Err(QModelError::Lm(LmError::EmptyInput))
        ));
    }

    #[test]
    fn generation_reports_non_finite_logits() {
        // A NaN embedding row reaches the logits of any sequence that
        // feeds that token: generation must fail with its position, not
        // return a shortened output.
        let (mut model, _, hs) = setup();
        model.embed_mut().row_mut(5).fill(f32::NAN);
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 4), &hs, &cfg)
            .unwrap();
        assert!(matches!(
            q.generate_greedy(&[1, 5], 3),
            Err(QModelError::Lm(LmError::NonFiniteLogits { pos: 1 }))
        ));
        assert!(matches!(
            q.generate_greedy_batched(&[vec![1, 2], vec![5]], 3),
            Err(QModelError::Lm(LmError::NonFiniteLogits { pos: 0 }))
        ));
    }

    #[test]
    fn incremental_decode_matches_full_forward_bit_exactly() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 3), &hs, &cfg)
            .unwrap();
        let tokens = [1u32, 5, 9, 2, 7, 3];
        let full = q.forward(&tokens).unwrap();
        let mut session = q.decode_session();
        for (i, &t) in tokens.iter().enumerate() {
            let logits = session.feed(t).unwrap();
            assert_eq!(
                logits,
                full.row(i),
                "decode step {i} must match the full packed forward bit-for-bit"
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_outputs() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 3), &hs, &cfg)
            .unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantizedModel = serde_json::from_str(&json).unwrap();
        assert_eq!(
            q.forward(&[1, 2, 3]).unwrap(),
            back.forward(&[1, 2, 3]).unwrap()
        );
    }

    #[test]
    fn verify_passes_clean_and_detects_bit_flips() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let mut q =
            QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 4), &hs, &cfg)
                .unwrap();
        q.verify().unwrap();
        let target = LayerRef {
            block: 1,
            kind: LayerKind::Gate,
        };
        assert!(q.corrupt_layer(target, 7, 0x10));
        let err = q.verify().unwrap_err();
        match err {
            QModelError::Integrity(aptq_artifact::ArtifactError::ChecksumMismatch {
                section,
                ..
            }) => assert_eq!(section, target.to_string()),
            other => panic!("wrong error: {other}"),
        }
        // Reverting the flip restores integrity.
        assert!(q.corrupt_layer(target, 7, 0x10));
        q.verify().unwrap();
        // Out-of-range block and zero mask are harmless no-ops.
        assert!(!q.corrupt_layer(
            LayerRef {
                block: 99,
                kind: LayerKind::Q
            },
            0,
            0xFF
        ));
        assert!(!q.corrupt_layer(target, 0, 0));
        q.verify().unwrap();
    }

    #[test]
    fn envelope_roundtrip_preserves_outputs() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 3), &hs, &cfg)
            .unwrap();
        let text = q.to_envelope_json().unwrap();
        assert!(aptq_artifact::is_envelope(&text));
        let back = QuantizedModel::from_envelope_json(&text).unwrap();
        assert_eq!(
            q.forward(&[1, 2, 3]).unwrap(),
            back.forward(&[1, 2, 3]).unwrap()
        );
    }

    #[test]
    fn envelope_rejects_corruption_and_garbage() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let q = QuantizedModel::quantize_from(&model, &QuantPlan::uniform(&model, 4), &hs, &cfg)
            .unwrap();
        let text = q.to_envelope_json().unwrap();
        // Mutate one payload byte (digit swap keeps it UTF-8).
        let body = text.find('\n').unwrap() + 1;
        let mid = body + (text.len() - body) / 2;
        let mutated: String = text
            .char_indices()
            .map(|(i, c)| {
                if i >= mid && c.is_ascii_digit() && i < mid + 40 {
                    if c == '1' {
                        '2'
                    } else {
                        '1'
                    }
                } else {
                    c
                }
            })
            .collect();
        assert_ne!(mutated, text);
        assert!(matches!(
            QuantizedModel::from_envelope_json(&mutated),
            Err(QModelError::Integrity(_))
        ));
        assert!(QuantizedModel::from_envelope_json("junk").is_err());
        // Truncation never panics.
        assert!(QuantizedModel::from_envelope_json(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn missing_plan_entry_is_reported() {
        let (model, _, hs) = setup();
        let cfg = GridConfig::default();
        let empty_plan = QuantPlan::from_assignments(BTreeMap::new());
        assert!(matches!(
            QuantizedModel::quantize_from(&model, &empty_plan, &hs, &cfg),
            Err(QModelError::MissingLayer(_))
        ));
    }
}
