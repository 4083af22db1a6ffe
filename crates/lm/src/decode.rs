//! KV-cache incremental decoding.
//!
//! The paper motivates APTQ with LLM deployment on edge devices; the
//! inference loop that actually runs there is autoregressive decoding
//! with a key/value cache — O(T) attention work per new token instead of
//! re-running the full O(T²) prefill every step.
//!
//! One private step core runs that loop: it stacks B token rows (one
//! per sequence) into a single B×d matrix, runs every projection once
//! per layer over the stack, and attends each row against its own
//! sequence's cache at its own position. Both sessions are thin shells
//! around it:
//!
//! - [`DecodeSession`] owns one sequence and feeds one token at a time
//!   (B = 1), with a sticky non-finite quarantine;
//! - [`BatchDecodeSession`] owns many sequences that join and leave
//!   independently (continuous batching), evicting poisoned rows.
//!
//! Because both go through the same core, a batched row is bit-identical
//! to solo decoding, and both are verified (see tests) to produce logits
//! identical to the full forward pass.
//!
//! Each sequence's cache is **preallocated** at `max_seq_len` rows per
//! layer and written in place, one row per token. Growing it with
//! [`Matrix::vcat`] instead would copy the entire cache on every token —
//! O(T²) bytes moved over a T-token decode — which is exactly the kind
//! of regression the `decode/kv_bytes_moved` counter exists to catch:
//! it counts bytes *written into* the cache and must stay linear in T.

use aptq_obs::Recorder;
use aptq_tensor::Matrix;

use crate::config::ModelConfig;
use crate::linear::{Linear, LinearOp};
use crate::model::ModelOf;
use crate::rope::RopeTable;
use crate::LmError;

/// Per-layer key/value cache: rotated keys and raw values, preallocated
/// at `max_seq_len × d_model`; rows `[0, pos)` are valid.
#[derive(Debug, Clone)]
struct LayerKv {
    /// Rotated keys (heads concatenated).
    k_rot: Matrix,
    /// Values.
    v: Matrix,
}

/// One sequence's decode state: its private per-layer KV cache and its
/// own position counter.
#[derive(Debug)]
struct SeqSlot {
    layers: Vec<LayerKv>,
    pos: usize,
}

impl SeqSlot {
    /// An empty sequence with its full `max_seq_len`-row cache
    /// preallocated, so stepping never reallocates or copies cached rows.
    fn new(cfg: &ModelConfig) -> Self {
        let layers = (0..cfg.n_layers)
            .map(|_| LayerKv {
                k_rot: Matrix::zeros(cfg.max_seq_len, cfg.d_model),
                v: Matrix::zeros(cfg.max_seq_len, cfg.d_model),
            })
            .collect();
        SeqSlot { layers, pos: 0 }
    }

    /// Whether `token` may be fed next: a vocabulary id, and room left
    /// in the RoPE table (i.e. `max_seq_len`).
    fn check_token(&self, token: u32, cfg: &ModelConfig) -> Result<(), LmError> {
        if token as usize >= cfg.vocab_size {
            return Err(LmError::TokenOutOfRange {
                token,
                vocab: cfg.vocab_size,
            });
        }
        if self.pos >= cfg.max_seq_len {
            return Err(LmError::SequenceFull {
                pos: self.pos,
                max_seq_len: cfg.max_seq_len,
            });
        }
        Ok(())
    }

    /// Used cache bytes: written rows only, not preallocated capacity.
    fn cache_bytes(&self, cfg: &ModelConfig) -> usize {
        self.pos * kv_token_bytes(cfg)
    }

    /// Overwrites the most recently written layer-0 key-cache row with
    /// NaN. No-op before the first token (no row has been written yet).
    fn poison(&mut self) {
        if self.pos == 0 || self.layers.is_empty() {
            return;
        }
        for v in self.layers[0].k_rot.row_mut(self.pos - 1) {
            *v = f32::NAN;
        }
    }
}

/// KV-cache bytes one fed token writes: a key row and a value row of
/// `d_model` floats in every layer.
fn kv_token_bytes(cfg: &ModelConfig) -> usize {
    cfg.n_layers * 2 * cfg.d_model * std::mem::size_of::<f32>()
}

/// Where the step core finds the slot a row's sequence id names.
trait SlotTable {
    fn slot_mut(&mut self, seq: usize) -> Option<&mut SeqSlot>;
}

/// A solo session's single slot answers every id.
impl SlotTable for SeqSlot {
    fn slot_mut(&mut self, _seq: usize) -> Option<&mut SeqSlot> {
        Some(self)
    }
}

/// A batch session's slots, indexed by sequence id (`None` = retired).
impl SlotTable for Vec<Option<SeqSlot>> {
    fn slot_mut(&mut self, seq: usize) -> Option<&mut SeqSlot> {
        self.get_mut(seq).and_then(Option::as_mut)
    }
}

/// The decode core: feeds `tokens[r].1` into the slot named by
/// `tokens[r].0` for every row `r`, and returns the `B × vocab` logits.
///
/// The rows are stacked into one B×d matrix, so each
/// [`LinearOp::forward_into`] call runs once per layer over the whole
/// batch; attention runs per row through [`attend_cached_row`]. Each
/// slot's cache row at its position is written, but no position
/// advances: the caller decides from the logits (quarantine, eviction).
/// Only the operators' recorder hooks write into `rec`.
///
/// Callers validate first (see [`SeqSlot::check_token`]); a row whose
/// id names no slot is skipped.
fn step_rows<L: LinearOp, S: SlotTable>(
    model: &ModelOf<L>,
    slots: &mut S,
    tokens: &[(usize, u32)],
    rec: &mut Recorder,
) -> Matrix {
    let cfg = model.config();
    let b = tokens.len();
    let d_model = cfg.d_model;
    let n_heads = cfg.n_heads;
    let d_head = cfg.d_head();
    let rope = model.rope();

    // Stacked embedding rows, one per listed sequence.
    let mut x = Matrix::zeros(b, d_model);
    for (r, &(_, token)) in tokens.iter().enumerate() {
        x.row_mut(r)
            .copy_from_slice(model.embed().row(token as usize));
    }

    for (li, block) in model.blocks().iter().enumerate() {
        // One projection call covers every row — this is where a packed
        // operator's unpacking amortizes over the batch.
        let (normed, _) = block.norm1.forward(&x);
        let mut q = block.attn.wq().forward_op(&normed, Some(&mut *rec));
        let mut k = block.attn.wk().forward_op(&normed, Some(&mut *rec));
        let v = block.attn.wv().forward_op(&normed, Some(&mut *rec));
        let mut concat = Matrix::zeros(b, d_model);
        for (r, &(seq, _)) in tokens.iter().enumerate() {
            if let Some(slot) = slots.slot_mut(seq) {
                attend_cached_row(
                    &mut slot.layers[li],
                    rope,
                    n_heads,
                    d_head,
                    slot.pos,
                    q.row_mut(r),
                    k.row_mut(r),
                    v.row(r),
                    concat.row_mut(r),
                );
            }
        }
        let attn_out = block.attn.wo().forward_op(&concat, Some(&mut *rec));
        x.add_assign(&attn_out);

        let (normed2, _) = block.norm2.forward(&x);
        let (ffn_out, _) = block.ffn.forward_opt(&normed2, Some(&mut *rec));
        x.add_assign(&ffn_out);
    }

    let (normed, _) = model.final_norm().forward(&x);
    normed.matmul(model.lm_head())
}

/// One sequence's cached-attention step for one layer: rotates the
/// freshly projected `q`/`k` rows for position `pos`, appends `k`/`v`
/// in place at cache row `pos`, and accumulates the softmax-weighted
/// values over rows `[0, pos]` into `out`.
///
/// Called once per row by [`step_rows`], so a row's float operations and
/// their order never depend on how many other sequences share the step.
///
/// Dot-product order matches `Matrix::matmul_nt`; the softmax mirrors
/// `aptq_tensor::activation::softmax_rows`.
#[allow(clippy::too_many_arguments)]
fn attend_cached_row(
    kv: &mut LayerKv,
    rope: &RopeTable,
    n_heads: usize,
    d_head: usize,
    pos: usize,
    q: &mut [f32],
    k: &mut [f32],
    v: &[f32],
    out: &mut [f32],
) {
    for h in 0..n_heads {
        let lo = h * d_head;
        let hi = lo + d_head;
        rope.apply_row(&mut q[lo..hi], pos);
        rope.apply_row(&mut k[lo..hi], pos);
    }
    kv.k_rot.row_mut(pos).copy_from_slice(k);
    kv.v.row_mut(pos).copy_from_slice(v);

    let t = pos + 1;
    let scale = 1.0 / (d_head as f32).sqrt();
    for h in 0..n_heads {
        let lo = h * d_head;
        let hi = lo + d_head;
        let qh = &q[lo..hi];
        // Scores against the cached keys, read in place (no per-token
        // copy of the cache).
        let mut scores = vec![0.0f32; t];
        for (ti, s) in scores.iter_mut().enumerate() {
            let kh = &kv.k_rot.row(ti)[lo..hi];
            let mut acc = 0.0f32;
            for (a, b) in qh.iter().zip(kh) {
                acc += a * b;
            }
            *s = acc * scale;
        }
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for s in &mut scores {
            *s = (*s - max).exp();
            sum += *s;
        }
        let inv = 1.0 / sum;
        for s in &mut scores {
            *s *= inv;
        }
        let head = &mut out[lo..hi];
        for (ti, &s) in scores.iter().enumerate() {
            let vh = &kv.v.row(ti)[lo..hi];
            for (o, b) in head.iter_mut().zip(vh) {
                *o += s * b;
            }
        }
    }
}

/// An incremental decoding session over one sequence, generic over the
/// linear operator `L`.
///
/// Instantiated at `L = `[`Linear`] this is fp32 cached decoding;
/// instantiated at `aptq_qmodel::QuantizedLinear` the same loop decodes
/// straight from packed sub-byte storage, turning quantized generation
/// from O(T²) full re-forwards into O(T) cached steps.
///
/// # Example
///
/// ```
/// use aptq_lm::{decode::DecodeSession, Model, ModelConfig};
///
/// # fn main() -> Result<(), aptq_lm::LmError> {
/// let model = Model::new(&ModelConfig::test_tiny(16), 0);
/// let mut session = DecodeSession::new(&model);
/// let logits = session.feed(3)?;
/// assert_eq!(logits.len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DecodeSession<'m, L = Linear> {
    model: &'m ModelOf<L>,
    slot: SeqSlot,
    /// Position at which non-finite logits first appeared, if ever.
    /// A quarantined session refuses all further tokens.
    quarantined: Option<usize>,
    metrics: Recorder,
}

impl<'m, L: LinearOp> DecodeSession<'m, L> {
    /// Starts an empty session, preallocating the full
    /// `max_seq_len`-row KV cache so [`DecodeSession::feed`] never
    /// reallocates or copies previously cached rows.
    pub fn new(model: &'m ModelOf<L>) -> Self {
        DecodeSession {
            model,
            slot: SeqSlot::new(model.config()),
            quarantined: None,
            metrics: Recorder::new(),
        }
    }

    /// Number of tokens consumed so far.
    pub fn len(&self) -> usize {
        self.slot.pos
    }

    /// Whether no tokens have been consumed.
    pub fn is_empty(&self) -> bool {
        self.slot.pos == 0
    }

    /// Cache memory in **used** bytes (the edge-deployment statistic:
    /// 2 matrices × layers × T × d_model × 4 bytes). Preallocated but
    /// not-yet-written rows are capacity, not usage, so this grows
    /// linearly with the number of tokens fed.
    pub fn cache_bytes(&self) -> usize {
        self.slot.cache_bytes(self.model.config())
    }

    /// Telemetry recorded so far: `decode/tokens`,
    /// `decode/kv_bytes_moved`, plus whatever the operator's
    /// [`LinearOp::forward_into`] hook counts (packed operators record
    /// `qmodel/qlinear/…` unpacking work per fed token).
    pub fn metrics(&self) -> &Recorder {
        &self.metrics
    }

    /// Takes the accumulated telemetry, leaving an empty recorder (for
    /// merging into a pipeline-wide [`Recorder`]).
    pub fn take_metrics(&mut self) -> Recorder {
        std::mem::take(&mut self.metrics)
    }

    /// The position at which non-finite logits first appeared, if the
    /// session is quarantined. A quarantined session rejects every
    /// further [`DecodeSession::feed`] with
    /// [`LmError::NonFiniteLogits`].
    pub fn quarantined(&self) -> Option<usize> {
        self.quarantined
    }

    /// Fault-injection hook (chaos suite): overwrites the most
    /// recently written layer-0 key-cache row with NaN, so the next
    /// [`DecodeSession::feed`] attends over poisoned state and must
    /// detect the resulting non-finite logits. No-op before the first
    /// fed token (no cache row has been written yet).
    pub fn poison_kv_cache(&mut self) {
        self.slot.poison();
    }

    /// Feeds one token; returns the next-token logits.
    ///
    /// # Determinism
    ///
    /// Projections run on the shared matmul threadpool
    /// ([`aptq_tensor::parallel`]); logits and recorded counters are
    /// bit-identical at any `APTQ_THREADS` value.
    ///
    /// # HotPath
    ///
    /// Allocation budget: per-token scratch (projection rows, per-head
    /// score vector, logits row) sized by the model, never by the
    /// sequence; the KV cache is written in place, never regrown. The
    /// non-finite quarantine scan reads the logits row in place.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::TokenOutOfRange`] for invalid ids,
    /// [`LmError::SequenceFull`] when the RoPE table (i.e.
    /// `max_seq_len`) is exhausted, and [`LmError::NonFiniteLogits`]
    /// when the logits row contains NaN/Inf — the session is then
    /// quarantined (this and all later feeds fail, the position never
    /// advances) and `decode/quarantine/sessions` is recorded.
    pub fn feed(&mut self, token: u32) -> Result<Vec<f32>, LmError> {
        if let Some(pos) = self.quarantined {
            return Err(LmError::NonFiniteLogits { pos });
        }
        let cfg = self.model.config();
        self.slot.check_token(token, cfg)?;
        let logits = step_rows(self.model, &mut self.slot, &[(0, token)], &mut self.metrics);
        self.metrics
            .add("decode/kv_bytes_moved", kv_token_bytes(cfg) as u64);
        let pos = self.slot.pos;
        if !logits.row(0).iter().all(|v| v.is_finite()) {
            self.quarantined = Some(pos);
            self.metrics.incr("decode/quarantine/sessions");
            return Err(LmError::NonFiniteLogits { pos });
        }
        self.slot.pos += 1;
        self.metrics.incr("decode/tokens");
        // `logits` is 1 × vocab: moving it out is free, where
        // `row(0).to_vec()` would copy the row.
        Ok(logits.into_vec())
    }

    /// Feeds a whole prompt, returning the logits after its last token.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`; see [`DecodeSession::feed`].
    ///
    /// # Errors
    ///
    /// Returns [`LmError::EmptyInput`] for an empty prompt; propagates
    /// [`DecodeSession::feed`] errors.
    pub fn feed_all(&mut self, tokens: &[u32]) -> Result<Vec<f32>, LmError> {
        let mut last = None;
        for &t in tokens {
            last = Some(self.feed(t)?);
        }
        last.ok_or(LmError::EmptyInput)
    }
}

/// A multi-sequence KV-cached decode engine: one token per active
/// sequence per step, with the per-sequence hidden rows stacked into a
/// single B×d matrix so every projection runs **once per layer per
/// step** over the whole batch. For a packed operator
/// (`aptq_qmodel::QuantizedLinear`) that means each sub-byte weight
/// group is unpacked once for B sequences instead of B times — the
/// serving amortization APTQ targets.
///
/// Sequences join and leave independently (continuous batching): a
/// retired slot is reused by the next [`BatchDecodeSession::join`] and
/// never disturbs other sequences' caches or positions.
///
/// Every sequence's logits are bit-identical to decoding it alone in a
/// [`DecodeSession`] — both run the same step core, attention runs per
/// row against that sequence's own cache, and the batched projections
/// are row-independent by the [`LinearOp`] contract.
///
/// # Example
///
/// ```
/// use aptq_lm::{decode::BatchDecodeSession, Model, ModelConfig};
///
/// # fn main() -> Result<(), aptq_lm::LmError> {
/// let model = Model::new(&ModelConfig::test_tiny(16), 0);
/// let mut batch = BatchDecodeSession::new(&model);
/// let a = batch.join();
/// let b = batch.join();
/// let logits = batch.step(&[(a, 3), (b, 7)])?;
/// assert_eq!(logits.shape(), (2, 16));
/// batch.leave(a)?;
/// let logits = batch.step(&[(b, 1)])?; // `b` continues undisturbed
/// assert_eq!(logits.shape(), (1, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchDecodeSession<'m, L = Linear> {
    model: &'m ModelOf<L>,
    slots: Vec<Option<SeqSlot>>,
    /// Sequence ids evicted by the most recent
    /// [`BatchDecodeSession::step`] for non-finite logits.
    evicted: Vec<usize>,
    metrics: Recorder,
}

impl<'m, L: LinearOp> BatchDecodeSession<'m, L> {
    /// Starts a session with no active sequences.
    pub fn new(model: &'m ModelOf<L>) -> Self {
        BatchDecodeSession {
            model,
            slots: Vec::new(),
            evicted: Vec::new(),
            metrics: Recorder::new(),
        }
    }

    /// The model this session decodes.
    pub fn model(&self) -> &'m ModelOf<L> {
        self.model
    }

    /// Admits a new sequence and returns its id (used with
    /// [`BatchDecodeSession::step`] / [`BatchDecodeSession::leave`]).
    /// The lowest retired slot is reused if one exists; its
    /// `max_seq_len`-row KV cache is preallocated here so stepping
    /// never regrows it.
    pub fn join(&mut self) -> usize {
        let fresh = SeqSlot::new(self.model.config());
        self.metrics.incr("decode/batch/joins");
        if let Some(i) = self.slots.iter().position(|s| s.is_none()) {
            self.slots[i] = Some(fresh);
            i
        } else {
            self.slots.push(Some(fresh));
            self.slots.len() - 1
        }
    }

    /// Retires sequence `seq`, freeing its slot for a later
    /// [`BatchDecodeSession::join`]. Other sequences are undisturbed.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::UnknownSeq`] if `seq` is not active.
    pub fn leave(&mut self, seq: usize) -> Result<(), LmError> {
        if !self.is_active(seq) {
            return Err(LmError::UnknownSeq { seq });
        }
        self.slots[seq] = None;
        self.metrics.incr("decode/batch/leaves");
        Ok(())
    }

    /// Number of currently active sequences.
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether sequence `seq` is active.
    pub fn is_active(&self, seq: usize) -> bool {
        matches!(self.slots.get(seq), Some(Some(_)))
    }

    /// Tokens consumed so far by sequence `seq` (`None` if inactive).
    pub fn seq_len(&self, seq: usize) -> Option<usize> {
        match self.slots.get(seq) {
            Some(Some(slot)) => Some(slot.pos),
            _ => None,
        }
    }

    /// Cache memory in **used** bytes, summed over active sequences
    /// (same statistic as [`DecodeSession::cache_bytes`]). A sequence
    /// that leaves stops counting immediately.
    pub fn cache_bytes(&self) -> usize {
        let cfg = self.model.config();
        self.slots
            .iter()
            .flatten()
            .map(|slot| slot.cache_bytes(cfg))
            .sum()
    }

    /// Telemetry recorded so far: `decode/batch/steps`,
    /// `decode/batch/tokens`, `decode/batch/occupancy` (active
    /// sequences summed over steps), `decode/batch/joins`/`leaves`,
    /// `decode/batch/kv_bytes_moved`, plus whatever the operator's
    /// [`LinearOp::forward_into`] hook counts — for packed operators
    /// the `qmodel/qlinear/…` counters advance **once per layer per
    /// step**, not once per sequence.
    pub fn metrics(&self) -> &Recorder {
        &self.metrics
    }

    /// Takes the accumulated telemetry, leaving an empty recorder.
    pub fn take_metrics(&mut self) -> Recorder {
        std::mem::take(&mut self.metrics)
    }

    /// Sequence ids quarantined (evicted) by the most recent
    /// [`BatchDecodeSession::step`] because their logits row went
    /// non-finite. Empty after a fully healthy step. Evicted slots are
    /// free for reuse by [`BatchDecodeSession::join`].
    pub fn evicted_last_step(&self) -> &[usize] {
        &self.evicted
    }

    /// Fault-injection hook (chaos suite): overwrites sequence `seq`'s
    /// most recently written layer-0 key-cache row with NaN, so its
    /// next step attends over poisoned state and must be quarantined.
    /// No-op if the sequence has not consumed any token yet.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::UnknownSeq`] if `seq` is not active.
    pub fn poison_kv_cache(&mut self, seq: usize) -> Result<(), LmError> {
        let slot = self
            .slots
            .slot_mut(seq)
            .ok_or(LmError::UnknownSeq { seq })?;
        slot.poison();
        Ok(())
    }

    /// Feeds one token per listed sequence; returns the batch logits
    /// (`tokens.len() × vocab`, row `r` answering `tokens[r]`).
    ///
    /// The hidden rows of all listed sequences are stacked into one
    /// B×d matrix, so each [`LinearOp::forward_into`] call runs once
    /// per layer per step over the whole batch; attention then runs
    /// per row against that sequence's own cache at its own position,
    /// through the same step core as [`DecodeSession::feed`].
    ///
    /// # Determinism
    ///
    /// Projections run on the shared matmul threadpool
    /// ([`aptq_tensor::parallel`]); logits and recorded counters are
    /// bit-identical at any `APTQ_THREADS`, and every row is
    /// bit-identical to feeding that sequence alone in its own
    /// [`DecodeSession`].
    ///
    /// # Quarantine
    ///
    /// After the forward pass each logits row is scanned for
    /// NaN/Inf. A non-finite row **evicts** that sequence — its slot
    /// is freed, its position never advances, and its id is reported
    /// via [`BatchDecodeSession::evicted_last_step`] with one
    /// `decode/quarantine/evictions` count per eviction — while the
    /// step still returns `Ok` with every row. Surviving sequences
    /// are unaffected: attention is per-row against private caches
    /// and projections are row-independent ([`LinearOp`] contract),
    /// so peer logits are bit-identical to a batch that never
    /// contained the poisoned sequence (pinned in
    /// `tests/batch_decode.rs`).
    ///
    /// # HotPath
    ///
    /// Allocation budget: per-step scratch (stacked hidden rows,
    /// projection outputs, per-head score vector, logits, and a
    /// batch-sized eviction list) sized by batch × model, never by
    /// sequence length; per-sequence KV caches are preallocated at
    /// [`BatchDecodeSession::join`] and written in place, never
    /// regrown.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::EmptyInput`] for an empty batch,
    /// [`LmError::UnknownSeq`] for an inactive sequence id,
    /// [`LmError::DuplicateSeq`] if an id is listed twice, and
    /// [`LmError::TokenOutOfRange`] / [`LmError::SequenceFull`] per
    /// sequence as in [`DecodeSession::feed`]. No cache row or
    /// position advances unless the whole batch validates.
    pub fn step(&mut self, tokens: &[(usize, u32)]) -> Result<Matrix, LmError> {
        if tokens.is_empty() {
            return Err(LmError::EmptyInput);
        }
        let cfg = self.model.config();
        for (i, &(seq, token)) in tokens.iter().enumerate() {
            let Some(Some(slot)) = self.slots.get(seq) else {
                return Err(LmError::UnknownSeq { seq });
            };
            if tokens[..i].iter().any(|&(prev, _)| prev == seq) {
                return Err(LmError::DuplicateSeq { seq });
            }
            slot.check_token(token, cfg)?;
        }

        let b = tokens.len();
        let logits = step_rows(self.model, &mut self.slots, tokens, &mut self.metrics);
        self.metrics.add(
            "decode/batch/kv_bytes_moved",
            (b * kv_token_bytes(cfg)) as u64,
        );
        let occupancy = self.active() as u64;
        // Non-finite quarantine: evict poisoned rows before positions
        // advance. Batch-sized one-shot scratch, filled by index.
        let mut evicted = vec![usize::MAX; b];
        let mut n_evicted = 0usize;
        for (r, &(seq, _)) in tokens.iter().enumerate() {
            if !logits.row(r).iter().all(|v| v.is_finite()) {
                evicted[n_evicted] = seq;
                n_evicted += 1;
                self.slots[seq] = None;
                self.metrics.incr("decode/quarantine/evictions");
            }
        }
        evicted.truncate(n_evicted);
        self.evicted = evicted;
        for &(seq, _) in tokens {
            if let Some(slot) = self.slots.slot_mut(seq) {
                slot.pos += 1;
            }
        }
        self.metrics.incr("decode/batch/steps");
        self.metrics.add("decode/batch/tokens", b as u64);
        self.metrics.add("decode/batch/occupancy", occupancy);
        Ok(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, generate_greedy, Sampler};
    use crate::{Model, ModelConfig};

    fn model() -> Model {
        Model::new(&ModelConfig::test_tiny(16), 42)
    }

    #[test]
    fn incremental_matches_full_forward() {
        let m = model();
        let seq = [1u32, 5, 9, 2, 7, 11];
        let full = m.forward(&seq);
        let mut session = DecodeSession::new(&m);
        for (i, &t) in seq.iter().enumerate() {
            let logits = session.feed(t).unwrap();
            assert_eq!(logits, full.row(i), "position {i}");
        }
        assert_eq!(session.len(), seq.len());
    }

    #[test]
    fn cached_generation_matches_uncached() {
        let m = model();
        let a = generate_greedy(&m, &[1, 2, 3], 8).unwrap();
        let b = generate(
            &mut BatchDecodeSession::new(&m),
            &[[1, 2, 3]],
            8,
            Sampler::Greedy,
        )
        .unwrap();
        assert_eq!(b, [a]);
    }

    #[test]
    fn feed_rejects_bad_tokens_and_overflow() {
        let m = model();
        let mut s = DecodeSession::new(&m);
        assert!(matches!(s.feed(99), Err(LmError::TokenOutOfRange { .. })));
        // Exhaust max_seq_len (32 for test_tiny).
        for i in 0..32 {
            s.feed((i % 16) as u32).unwrap();
        }
        assert!(matches!(s.feed(0), Err(LmError::SequenceFull { .. })));
    }

    #[test]
    fn cache_grows_linearly() {
        let m = model();
        let mut s = DecodeSession::new(&m);
        assert!(s.is_empty());
        assert_eq!(s.cache_bytes(), 0);
        s.feed(1).unwrap();
        let one = s.cache_bytes();
        s.feed(2).unwrap();
        assert_eq!(s.cache_bytes(), 2 * one);
        // 2 matrices × n_layers × d_model × 4 bytes per token.
        assert_eq!(one, 2 * 2 * 16 * 4);
    }

    #[test]
    fn kv_write_traffic_is_linear_in_tokens() {
        // The whole point of the preallocated cache: each fed token
        // writes exactly one new row per matrix per layer, so write
        // traffic equals used bytes — no O(T²) regrowth copies.
        let m = model();
        let mut s = DecodeSession::new(&m);
        for i in 0..16 {
            s.feed((i % 16) as u32).unwrap();
        }
        assert_eq!(s.metrics().get("decode/tokens"), 16);
        assert_eq!(
            s.metrics().get("decode/kv_bytes_moved"),
            s.cache_bytes() as u64
        );
        let drained = s.take_metrics();
        assert_eq!(drained.get("decode/tokens"), 16);
        assert!(s.metrics().is_empty());
    }

    #[test]
    fn long_sequence_incremental_matches_full_forward() {
        // 256 tokens through the preallocated cache must agree with the
        // one-shot forward pass and keep write traffic linear.
        let cfg = ModelConfig {
            max_seq_len: 256,
            ..ModelConfig::test_tiny(16)
        };
        let m = Model::new(&cfg, 7);
        let seq: Vec<u32> = (0..256).map(|i| (i * 11 % 16) as u32).collect();
        let full = m.forward(&seq);
        let mut s = DecodeSession::new(&m);
        for (i, &t) in seq.iter().enumerate() {
            let logits = s.feed(t).unwrap();
            assert_eq!(logits, full.row(i), "position {i}");
        }
        assert_eq!(s.metrics().get("decode/tokens"), 256);
        assert_eq!(
            s.metrics().get("decode/kv_bytes_moved"),
            s.cache_bytes() as u64
        );
    }

    #[test]
    fn feed_all_returns_last_logits() {
        let m = model();
        let mut s = DecodeSession::new(&m);
        let logits = s.feed_all(&[3, 4, 5]).unwrap();
        let full = m.forward(&[3, 4, 5]);
        for (a, b) in logits.iter().zip(full.row(2)) {
            assert!((a - b).abs() < 1e-4);
        }
        let mut empty = DecodeSession::new(&m);
        assert!(matches!(empty.feed_all(&[]), Err(LmError::EmptyInput)));
    }
}
