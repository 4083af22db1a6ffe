//! KV-cache incremental decoding, and the one inference layer loop.
//!
//! The paper motivates APTQ with LLM deployment on edge devices; the
//! inference loop that actually runs there is autoregressive decoding
//! with a key/value cache — O(T) attention work per new token instead of
//! re-running the full O(T²) prefill every step.
//!
//! One private core runs every inference forward in the workspace. It
//! stacks hidden rows into one matrix, runs every projection once per
//! layer over the stack, and attends each row against its own cache at
//! its own position. What the rows are says which cache and position
//! each one has:
//!
//! - a batch step: one row per sequence, each at its sequence's next
//!   position ([`BatchDecodeSession::step`]);
//! - a chunk of one sequence: row `r` at position `pos + r`, attending
//!   over the rows before it — a prefill ([`DecodeSession::feed_all`],
//!   of which [`DecodeSession::feed`] is the one-row case);
//! - a one-layer scratch cache reused by every layer: the full-sequence
//!   forward ([`ModelOf::forward`], `Model::loss_from` and the block
//!   halves), whose cache nobody reads afterwards.
//!
//! Projections are row-independent under the [`LinearOp`] contract and
//! each row's attention reads only its own cache positions `[0, pos]`, so a
//! row's logits never depend on which other rows share the call: a
//! batched row equals solo decoding, and a chunk equals feeding its
//! tokens one by one and the full forward, bit for bit (see tests).
//!
//! Each layer's cache holds the rotated keys coordinate-major
//! (`d_model × max_seq_len`, one column per position, so each head
//! coordinate is a contiguous row for the attention kernel's score
//! passes) and the values row-major (one row per position).
//!
//! Each session sequence's cache is **preallocated** at `max_seq_len`
//! positions per layer and written in place, one key column and one
//! value row per token. Growing it with [`Matrix::vcat`] instead would
//! copy the entire cache on every token — O(T²) bytes moved over a
//! T-token decode — which is exactly the kind of regression the
//! `decode/kv_bytes_moved` counter exists to catch: it counts bytes
//! *written into* the cache and must stay linear in T.

use aptq_obs::Recorder;
use aptq_tensor::Matrix;

use crate::attention::attend_row;
use crate::config::ModelConfig;
use crate::linear::{Linear, LinearOp};
use crate::model::ModelOf;
use crate::rope::RopeTable;
use crate::LmError;

/// One layer's key/value cache: rotated keys coordinate-major
/// (`d_model × capacity`, position `p`'s key in column `p`, so each head
/// coordinate is one contiguous row for the score passes of
/// [`attend_row`]), and raw values row-major (`capacity × d_model`, one
/// row per position).
#[derive(Debug, Clone)]
pub(crate) struct LayerKv {
    /// Rotated keys (heads concatenated), one column per position.
    keys: Matrix,
    /// Values, one row per position.
    v: Matrix,
}

impl LayerKv {
    /// An empty cache of `rows` positions.
    pub(crate) fn empty(rows: usize, d_model: usize) -> Self {
        LayerKv {
            keys: Matrix::zeros(d_model, rows),
            v: Matrix::zeros(rows, d_model),
        }
    }

    /// Workspace row `r`'s attention in one layer: rotates its query and
    /// key for position `pos`, writes its key into cache column `pos`
    /// and its value into cache row `pos`, and accumulates the attention
    /// over positions `[0, pos]` into its concat row ([`attend_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the cache, the RoPE table or the
    /// workspace's score buffer.
    pub(crate) fn attend(&mut self, rope: &RopeTable, pos: usize, ws: &mut Workspace, r: usize) {
        let (q, k) = (ws.q.row_mut(r), ws.k.row_mut(r));
        rope.apply_heads(q, pos);
        rope.apply_heads(k, pos);
        let cap = self.keys.cols();
        assert!(pos < cap, "attend: position {pos} past the cache");
        for (coord, &kc) in self.keys.as_mut_slice().chunks_exact_mut(cap).zip(k.iter()) {
            coord[pos] = kc;
        }
        self.v.row_mut(pos).copy_from_slice(ws.v.row(r));
        let d_head = rope.d_head();
        let scale = 1.0 / (d_head as f32).sqrt();
        let out = ws.concat.row_mut(r);
        attend_row(
            q,
            &self.keys,
            &self.v,
            pos + 1,
            d_head,
            scale,
            &mut ws.scores,
            None,
            out,
        );
    }
}

/// Which cache and position each row of a [`forward_rows`] call uses.
pub(crate) trait KvRows {
    /// Layer `li`'s cache for row `r` and the position row `r` sits at,
    /// or `None` to skip the row (its attention output stays zero).
    fn kv(&mut self, li: usize, r: usize) -> Option<(&mut LayerKv, usize)>;
}

/// A one-layer scratch cache every layer reuses, row `r` at position
/// `r`: for a forward whose cache nobody reads afterwards.
impl KvRows for LayerKv {
    fn kv(&mut self, _li: usize, r: usize) -> Option<(&mut LayerKv, usize)> {
        Some((self, r))
    }
}

/// One sequence's decode state: its private per-layer KV cache and its
/// own position counter.
#[derive(Debug)]
struct SeqSlot {
    layers: Vec<LayerKv>,
    pos: usize,
}

/// A chunk of one sequence: row `r` sits at position `pos + r`.
impl KvRows for SeqSlot {
    fn kv(&mut self, li: usize, r: usize) -> Option<(&mut LayerKv, usize)> {
        Some((&mut self.layers[li], self.pos + r))
    }
}

impl SeqSlot {
    /// An empty sequence with its full `max_seq_len`-row cache
    /// preallocated, so stepping never reallocates or copies cached rows.
    fn new(cfg: &ModelConfig) -> Self {
        let layers = (0..cfg.n_layers)
            .map(|_| LayerKv::empty(cfg.max_seq_len, cfg.d_model))
            .collect();
        SeqSlot { layers, pos: 0 }
    }

    /// Used cache bytes: written rows only, not preallocated capacity.
    fn cache_bytes(&self, cfg: &ModelConfig) -> usize {
        self.pos * kv_token_bytes(cfg)
    }

    /// Overwrites the most recently written layer-0 key (every
    /// coordinate of column `pos − 1`) with NaN. No-op before the first
    /// token (no key has been written yet).
    fn poison(&mut self) {
        if self.pos == 0 || self.layers.is_empty() {
            return;
        }
        let keys = &mut self.layers[0].keys;
        let cap = keys.cols();
        for coord in keys.as_mut_slice().chunks_exact_mut(cap) {
            coord[self.pos - 1] = f32::NAN;
        }
    }
}

/// A batch step: row `r` is sequence `tokens[r].0`'s next token, at that
/// sequence's position. A row whose id names no slot is skipped.
struct BatchRows<'a> {
    slots: &'a mut [Option<SeqSlot>],
    tokens: &'a [(usize, u32)],
}

impl KvRows for BatchRows<'_> {
    fn kv(&mut self, li: usize, r: usize) -> Option<(&mut LayerKv, usize)> {
        let slot = self.slots.get_mut(self.tokens[r].0)?.as_mut()?;
        Some((&mut slot.layers[li], slot.pos))
    }
}

/// Checks that every token of a chunk starting at position `pos` is a
/// vocabulary id with room left in the RoPE table (i.e. `max_seq_len`).
///
/// # Errors
///
/// The first failing row's [`LmError::TokenOutOfRange`] or
/// [`LmError::SequenceFull`].
pub(crate) fn check_chunk(tokens: &[u32], pos: usize, cfg: &ModelConfig) -> Result<(), LmError> {
    for (r, &token) in tokens.iter().enumerate() {
        if token as usize >= cfg.vocab_size {
            return Err(LmError::TokenOutOfRange {
                token,
                vocab: cfg.vocab_size,
            });
        }
        if pos + r >= cfg.max_seq_len {
            return Err(LmError::SequenceFull {
                pos: pos + r,
                max_seq_len: cfg.max_seq_len,
            });
        }
    }
    Ok(())
}

/// KV-cache bytes one fed token writes: a key row and a value row of
/// `d_model` floats in every layer.
fn kv_token_bytes(cfg: &ModelConfig) -> usize {
    cfg.n_layers * 2 * cfg.d_model * std::mem::size_of::<f32>()
}

/// The buffers every layer of one [`forward_rows`] call writes into,
/// sized by its rows: their norm and one `d_model`-wide projection
/// output, shared by both halves; the attention half's q/k/v, concat and
/// score scratch; the feed-forward half's gate and up activations.
///
/// A workspace for one half alone leaves the other half's buffers
/// empty (zero columns, no allocation).
#[derive(Debug)]
pub(crate) struct Workspace {
    pub(crate) normed: Matrix,
    pub(crate) proj: Matrix,
    pub(crate) q: Matrix,
    pub(crate) k: Matrix,
    pub(crate) v: Matrix,
    pub(crate) concat: Matrix,
    pub(crate) scores: Vec<f32>,
    pub(crate) gate: Matrix,
    pub(crate) up: Matrix,
}

impl Workspace {
    /// Both halves' buffers for `rows` rows of a model shaped like `cfg`
    /// whose positions stay below `span`.
    pub(crate) fn for_rows(rows: usize, cfg: &ModelConfig, span: usize) -> Self {
        Workspace {
            gate: Matrix::zeros(rows, cfg.d_ff),
            up: Matrix::zeros(rows, cfg.d_ff),
            ..Workspace::for_attn(rows, cfg.d_model, cfg.n_heads, span)
        }
    }

    /// The attention half's buffers alone, for `rows` rows of `n_heads`
    /// heads whose positions stay below `span`.
    pub(crate) fn for_attn(rows: usize, d_model: usize, n_heads: usize, span: usize) -> Self {
        Workspace {
            q: Matrix::zeros(rows, d_model),
            k: Matrix::zeros(rows, d_model),
            v: Matrix::zeros(rows, d_model),
            concat: Matrix::zeros(rows, d_model),
            // Per head: `span` scores and one `1 / sum` (see `attend_row`).
            scores: vec![0.0; n_heads * (span + 1)],
            ..Workspace::for_ffn(rows, d_model, 0)
        }
    }

    /// The feed-forward half's buffers alone, for `rows` rows.
    pub(crate) fn for_ffn(rows: usize, d_model: usize, d_ff: usize) -> Self {
        Workspace {
            normed: Matrix::zeros(rows, d_model),
            proj: Matrix::zeros(rows, d_model),
            q: Matrix::zeros(rows, 0),
            k: Matrix::zeros(rows, 0),
            v: Matrix::zeros(rows, 0),
            concat: Matrix::zeros(rows, 0),
            scores: vec![],
            gate: Matrix::zeros(rows, d_ff),
            up: Matrix::zeros(rows, d_ff),
        }
    }
}

/// The inference core: runs the hidden rows `x` (block `start`'s input)
/// through blocks `start..` ([`TransformerBlock::attn_rows`],
/// [`TransformerBlock::ffn_rows`]), the final norm and the LM head, and
/// returns the `rows × vocab` logits.
///
/// Row `r` writes its keys and values and attends where `kv` places it.
/// Rows run in order within each layer, so a chunk row sees the rows
/// before it. The cache rows are written, but no position advances:
/// the caller decides from the logits (quarantine, eviction). Only the
/// operators' recorder hooks write into `rec`.
///
/// Every layer writes into one [`Workspace`] built per call.
///
/// [`TransformerBlock::attn_rows`]: crate::block::TransformerBlock::attn_rows
/// [`TransformerBlock::ffn_rows`]: crate::block::TransformerBlock::ffn_rows
///
/// # Panics
///
/// Panics if `x` is not `d_model` wide or a row's position is past its
/// cache or the RoPE table.
pub(crate) fn forward_rows<L: LinearOp, K: KvRows>(
    model: &ModelOf<L>,
    start: usize,
    mut x: Matrix,
    kv: &mut K,
    mut rec: Option<&mut Recorder>,
) -> Matrix {
    let cfg = model.config();
    let mut ws = Workspace::for_rows(x.rows(), cfg, cfg.max_seq_len);
    for (li, block) in model.blocks().iter().enumerate().skip(start) {
        // One projection call covers every row — this is where a packed
        // operator's unpacking amortizes over the batch or chunk.
        block.attn_rows(li, &mut x, &mut ws, kv, model.rope(), rec.as_deref_mut());
        block.ffn_rows(&mut x, &mut ws, rec.as_deref_mut());
    }
    model.final_norm().forward_into(&x, &mut ws.normed);
    ws.normed.matmul(model.lm_head())
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

    /// Feeds one token; returns the next-token logits. The one-row case
    /// of [`DecodeSession::feed_all`].
    ///
    /// # Determinism
    ///
    /// Projections run on the shared matmul threadpool
    /// ([`aptq_tensor::parallel`]); logits and recorded counters are
    /// bit-identical at any `APTQ_THREADS` value.
    ///
    /// # HotPath
    ///
    /// Allocation budget: one workspace per token (hidden, norm,
    /// projection and FFN rows plus one `n_heads · (max_seq_len + 1)`
    /// score buffer) and the logits row — a fixed set whatever the
    /// layer or head count; the KV cache is written in place, never
    /// regrown. The non-finite quarantine scan reads the logits row in
    /// place.
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
        self.feed_all(std::slice::from_ref(&token))
    }

    /// Feeds a whole prompt as one chunk (a prefill), returning the
    /// logits after its last token.
    ///
    /// Row `r` of the chunk sits at position `len() + r` and attends
    /// over the cache rows before it, so the logits, the session state
    /// and the `decode/…` counters equal feeding the tokens one by one
    /// with [`DecodeSession::feed`], bit for bit. Each projection runs
    /// once per layer over the whole chunk, so a packed operator's
    /// `qmodel/qlinear/…` counters advance once per chunk, not once per
    /// token.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`; see [`DecodeSession::feed`].
    ///
    /// # HotPath
    ///
    /// Allocation budget: the chunk's embedded rows, one workspace
    /// sized by the chunk's rows (plus one `n_heads · (max_seq_len + 1)`
    /// score buffer) and the chunk's logits, whose last row is returned
    /// in place; the KV cache is written in place, never regrown.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::EmptyInput`] for an empty prompt, and
    /// [`LmError::TokenOutOfRange`] / [`LmError::SequenceFull`] for the
    /// first token that does not fit; no row is fed unless the whole
    /// chunk validates. Returns [`LmError::NonFiniteLogits`] at the
    /// position of the first row whose logits contain NaN/Inf: the rows
    /// before it are fed, and the session is quarantined there as
    /// [`DecodeSession::feed`] describes.
    pub fn feed_all(&mut self, tokens: &[u32]) -> Result<Vec<f32>, LmError> {
        if tokens.is_empty() {
            return Err(LmError::EmptyInput);
        }
        if let Some(pos) = self.quarantined {
            return Err(LmError::NonFiniteLogits { pos });
        }
        let cfg = self.model.config();
        check_chunk(tokens, self.slot.pos, cfg)?;
        let x = self.model.embed_tokens(tokens);
        let logits = forward_rows(self.model, 0, x, &mut self.slot, Some(&mut self.metrics));
        for r in 0..tokens.len() {
            self.metrics
                .add("decode/kv_bytes_moved", kv_token_bytes(cfg) as u64);
            if !logits.row(r).iter().all(|v| v.is_finite()) {
                let pos = self.slot.pos;
                self.quarantined = Some(pos);
                self.metrics.incr("decode/quarantine/sessions");
                return Err(LmError::NonFiniteLogits { pos });
            }
            self.slot.pos += 1;
            self.metrics.incr("decode/tokens");
        }
        // Keep the last `vocab` floats: no copy of the row into a new
        // buffer, and free for a one-token chunk.
        let mut last = logits.into_vec();
        last.drain(..(tokens.len() - 1) * cfg.vocab_size);
        Ok(last)
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
/// [`DecodeSession`] — both run the same core, attention runs per
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
            .get_mut(seq)
            .and_then(Option::as_mut)
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
    /// through the same core as [`DecodeSession::feed`].
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
    /// Allocation budget: one workspace per step (stacked hidden,
    /// norm, projection and FFN rows plus one
    /// `n_heads · (max_seq_len + 1)` score buffer), the logits and a
    /// batch-sized eviction list — a fixed set whatever the layer count,
    /// head count or batch size, and never sized by sequence length;
    /// per-sequence KV caches are
    /// preallocated at [`BatchDecodeSession::join`] and written in
    /// place, never regrown.
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
            check_chunk(std::slice::from_ref(&token), slot.pos, cfg)?;
        }

        let b = tokens.len();
        // Stacked embedding rows, one per listed sequence.
        let mut x = Matrix::zeros(b, cfg.d_model);
        for (r, &(_, token)) in tokens.iter().enumerate() {
            x.row_mut(r)
                .copy_from_slice(self.model.embed().row(token as usize));
        }
        let mut rows = BatchRows {
            slots: &mut self.slots,
            tokens,
        };
        let logits = forward_rows(self.model, 0, x, &mut rows, Some(&mut self.metrics));
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
            if let Some(Some(slot)) = self.slots.get_mut(seq) {
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

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn oracle_feed_all_chunk_matches_token_by_token_and_forward() {
        // One chunk, the same tokens fed one by one, and the full
        // forward: the same logits bit for bit, and the same session
        // state and counters. Also a chunk resumed after a fed prefix,
        // whose rows sit at `len() + r`.
        let cfg = ModelConfig {
            max_seq_len: 96,
            ..ModelConfig::test_tiny(16)
        };
        let m = Model::new(&cfg, 9);
        for t in [1usize, 17, 64, cfg.max_seq_len] {
            let seq: Vec<u32> = (0..t).map(|i| ((i * 7 + 3) % 16) as u32).collect();
            let full = m.forward(&seq);
            let mut chunk = DecodeSession::new(&m);
            let last = chunk.feed_all(&seq).unwrap();
            let mut solo = DecodeSession::new(&m);
            for (i, &tok) in seq.iter().enumerate() {
                let logits = solo.feed(tok).unwrap();
                assert_bits(&logits, full.row(i), &format!("T={t} token {i}"));
            }
            assert_bits(&last, full.row(t - 1), &format!("T={t} chunk"));
            assert_eq!(chunk.len(), solo.len());
            assert_eq!(chunk.cache_bytes(), solo.cache_bytes());
            assert_eq!(chunk.metrics(), solo.metrics(), "T={t} counters");

            let split = t / 2;
            let mut resumed = DecodeSession::new(&m);
            for &tok in &seq[..split] {
                resumed.feed(tok).unwrap();
            }
            let last = resumed.feed_all(&seq[split..]).unwrap();
            assert_bits(&last, full.row(t - 1), &format!("T={t} resumed at {split}"));
            assert_eq!(resumed.metrics(), solo.metrics(), "T={t} resumed counters");
        }
    }

    #[test]
    fn oracle_feed_all_nan_row_quarantines_like_token_by_token() {
        // Token 5's embedding is NaN: its row and every row after it go
        // non-finite. The chunk quarantines at that row's position and
        // counts exactly what feeding the tokens one by one counts.
        let mut m = model();
        m.embed_mut().row_mut(5).fill(f32::NAN);
        let seq = [1u32, 2, 3, 5, 4, 6];
        let mut chunk = DecodeSession::new(&m);
        assert!(matches!(
            chunk.feed_all(&seq),
            Err(LmError::NonFiniteLogits { pos: 3 })
        ));
        let mut solo = DecodeSession::new(&m);
        let err = seq.iter().find_map(|&t| solo.feed(t).err());
        assert!(matches!(err, Some(LmError::NonFiniteLogits { pos: 3 })));
        assert_eq!(chunk.quarantined(), Some(3));
        assert_eq!(chunk.quarantined(), solo.quarantined());
        assert_eq!(chunk.len(), 3);
        assert_eq!(chunk.len(), solo.len());
        assert_eq!(chunk.metrics(), solo.metrics());
        assert_eq!(
            chunk.metrics().get("decode/kv_bytes_moved"),
            4 * kv_token_bytes(m.config()) as u64
        );
        assert_eq!(chunk.metrics().get("decode/tokens"), 3);
        assert_eq!(chunk.metrics().get("decode/quarantine/sessions"), 1);
        // Quarantined: every later chunk fails at the same position.
        assert!(matches!(
            chunk.feed_all(&[1, 2]),
            Err(LmError::NonFiniteLogits { pos: 3 })
        ));
    }

    #[test]
    fn feed_all_validates_the_whole_chunk_first() {
        // A bad token or an overflowing row rejects the chunk before any
        // row is fed.
        let m = model();
        let mut s = DecodeSession::new(&m);
        assert!(matches!(
            s.feed_all(&[1, 2, 99]),
            Err(LmError::TokenOutOfRange { token: 99, .. })
        ));
        s.feed_all(&[1; 30]).unwrap();
        assert!(matches!(
            s.feed_all(&[1, 2, 3]),
            Err(LmError::SequenceFull {
                pos: 32,
                max_seq_len: 32
            })
        ));
        assert_eq!(s.len(), 30);
        assert_eq!(s.cache_bytes(), 30 * kv_token_bytes(m.config()));
    }

    #[test]
    fn poison_writes_nan_to_the_last_key_column_only() {
        // The keys are coordinate-major: poisoning after three tokens
        // turns every coordinate of position 2's layer-0 key to NaN and
        // nothing else, in any layer's keys or values.
        let m = model();
        let mut s = DecodeSession::new(&m);
        s.poison_kv_cache();
        s.feed_all(&[1, 2, 3]).unwrap();
        let before = s.slot.layers.clone();
        s.poison_kv_cache();
        let (d_model, cap) = (m.config().d_model, m.config().max_seq_len);
        for (li, (layer, old)) in s.slot.layers.iter().zip(&before).enumerate() {
            assert_eq!(layer.keys.shape(), (d_model, cap));
            for c in 0..d_model {
                for p in 0..cap {
                    let (got, was) = (layer.keys[(c, p)], old.keys[(c, p)]);
                    if li == 0 && p == 2 {
                        assert!(got.is_nan(), "layer 0 ({c}, {p}) not poisoned");
                    } else {
                        assert_eq!(got.to_bits(), was.to_bits(), "layer {li} ({c}, {p})");
                    }
                }
            }
            assert_eq!(layer.v, old.v, "layer {li} values");
        }
        assert!(matches!(
            s.feed(4),
            Err(LmError::NonFiniteLogits { pos: 3 })
        ));
    }

    #[test]
    fn feed_all_returns_last_logits() {
        let m = model();
        let mut s = DecodeSession::new(&m);
        let logits = s.feed_all(&[3, 4, 5]).unwrap();
        let full = m.forward(&[3, 4, 5]);
        assert_eq!(logits, full.row(2));
        let mut empty = DecodeSession::new(&m);
        assert!(matches!(empty.feed_all(&[]), Err(LmError::EmptyInput)));
    }
}
