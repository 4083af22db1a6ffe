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
//! - a session's row table, each row a `(slot, position)`: one row per
//!   sequence in a batch step ([`BatchDecodeSession::step`]), or a chunk
//!   of one sequence, row `r` at position `pos + r` — a prefill
//!   ([`DecodeSession::feed_all`], of which [`DecodeSession::feed`] is
//!   the one-row case);
//! - a one-layer scratch cache reused by every layer: the full-sequence
//!   forward ([`ModelOf::forward`], `Model::loss_from` and the
//!   calibration capture [`ModelOf::forward_blocks`]), whose cache
//!   nobody reads afterwards.
//!
//! Projections are row-independent under the [`LinearOp`] contract and
//! each row's attention reads only its own cache positions `[0, pos]`, so a
//! row's logits never depend on which other rows share the call: a
//! batched row equals solo decoding, and a chunk equals feeding its
//! tokens one by one and the full forward, bit for bit (see tests).
//!
//! Both sessions run one private engine, which owns the slots, a
//! workspace grown to the largest call, validation and the non-finite
//! scan. [`DecodeSession`] is its one-slot case and keeps a faulted slot
//! (quarantine); [`BatchDecodeSession`] evicts it.
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

use std::ops::Range;

use aptq_obs::Recorder;
use aptq_tensor::Matrix;

use crate::attention::attend_row;
use crate::capture::CaptureSink;
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
    /// over positions `[0, pos]` into its concat row ([`attend_row`]),
    /// and with `probs`, its probabilities into row `pos` of each head's.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the cache, the RoPE table, the
    /// workspace's score buffer or the rows of `probs`.
    pub(crate) fn attend(
        &mut self,
        rope: &RopeTable,
        pos: usize,
        ws: &mut Workspace,
        r: usize,
        probs: Option<&mut [Matrix]>,
    ) {
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
            probs,
            out,
        );
    }
}

/// Which cache and position each row of a [`forward_rows`] call uses.
pub(crate) trait KvRows {
    /// Layer `li`'s cache for row `r` and the position row `r` sits at.
    fn kv(&mut self, li: usize, r: usize) -> (&mut LayerKv, usize);
}

/// A one-layer scratch cache every layer reuses, row `r` at position
/// `r`: for a forward whose cache nobody reads afterwards.
impl KvRows for LayerKv {
    fn kv(&mut self, _li: usize, r: usize) -> (&mut LayerKv, usize) {
        (self, r)
    }
}

/// One sequence slot: its per-layer KV cache, preallocated at
/// `max_seq_len` positions, and its state.
#[derive(Debug)]
struct SeqSlot {
    layers: Vec<LayerKv>,
    /// Tokens consumed so far.
    pos: usize,
    /// Whether a sequence holds the slot. A retired slot keeps its cache
    /// for the next sequence, which attends only over positions it wrote.
    live: bool,
    /// The position whose logits first went non-finite; a faulted slot
    /// takes no further row.
    fault: Option<usize>,
}

/// A row of an engine call: the slot it feeds, its position and token.
#[derive(Debug, Clone, Copy)]
struct Row {
    slot: usize,
    pos: usize,
    token: u32,
}

/// An engine call's slots and row table: row `r` attends in its slot's
/// cache at its position.
impl KvRows for (&mut [SeqSlot], &[Row]) {
    fn kv(&mut self, li: usize, r: usize) -> (&mut LayerKv, usize) {
        let row = self.1[r];
        (&mut self.0[row.slot].layers[li], row.pos)
    }
}

/// Checks that `token` is a vocabulary id and that position `pos` has
/// room in the RoPE table (i.e. `max_seq_len`).
///
/// # Errors
///
/// [`LmError::TokenOutOfRange`], then [`LmError::SequenceFull`].
pub(crate) fn check_row(token: u32, pos: usize, cfg: &ModelConfig) -> Result<(), LmError> {
    if token as usize >= cfg.vocab_size {
        return Err(LmError::TokenOutOfRange {
            token,
            vocab: cfg.vocab_size,
        });
    }
    if pos >= cfg.max_seq_len {
        return Err(LmError::SequenceFull {
            pos,
            max_seq_len: cfg.max_seq_len,
        });
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
    /// The buffers for `rows` rows of a model shaped like `cfg`.
    pub(crate) fn for_rows(rows: usize, cfg: &ModelConfig) -> Self {
        let model_wide = || Matrix::zeros(rows, cfg.d_model);
        Workspace {
            normed: model_wide(),
            proj: model_wide(),
            q: model_wide(),
            k: model_wide(),
            v: model_wide(),
            concat: model_wide(),
            // Per head: `max_seq_len` scores and one `1 / sum` (see
            // `attend_row`).
            scores: vec![0.0; cfg.n_heads * (cfg.max_seq_len + 1)],
            gate: Matrix::zeros(rows, cfg.d_ff),
            up: Matrix::zeros(rows, cfg.d_ff),
        }
    }

    /// Re-shapes the hidden rows `x` and every buffer to `rows` rows of
    /// its width, in its own allocation, which grows only past the most
    /// rows it has held. Stale values are never read: each buffer is
    /// written first (concat per layer).
    fn fit(&mut self, x: &mut Matrix, rows: usize) {
        for m in [
            x,
            &mut self.normed,
            &mut self.proj,
            &mut self.q,
            &mut self.k,
            &mut self.v,
            &mut self.concat,
            &mut self.gate,
            &mut self.up,
        ] {
            let cols = m.cols();
            let mut data = std::mem::take(m).into_vec();
            data.resize(rows * cols, 0.0);
            *m = Matrix::from_vec(rows, cols, data);
        }
    }
}

/// The inference core: runs the hidden rows `x` (block `blocks.start`'s
/// input) in place through `blocks` ([`TransformerBlock::attn_rows`],
/// [`TransformerBlock::ffn_rows`]).
///
/// Row `r` writes its keys and values and attends where `kv` places it.
/// Rows run in order within each layer, so a chunk row sees the rows
/// before it. The cache rows are written, but no position advances:
/// the caller decides from the logits (quarantine, eviction). Only the
/// operators' recorder hooks write into `rec`.
///
/// With a `sink` (the calibration capture; every decode path passes
/// none), each block's probabilities and workspace buffers go to its
/// capture, and its callback runs before the next block.
///
/// Every layer writes into `ws`, which must be sized for `x`'s rows.
///
/// [`TransformerBlock::attn_rows`]: crate::block::TransformerBlock::attn_rows
/// [`TransformerBlock::ffn_rows`]: crate::block::TransformerBlock::ffn_rows
///
/// # Panics
///
/// Panics if `x` is not `d_model` wide, `ws` does not match its rows,
/// `blocks` ends past the last block, or a row's position is past its
/// cache or the RoPE table.
pub(crate) fn forward_rows<L: LinearOp, K: KvRows>(
    model: &ModelOf<L>,
    blocks: Range<usize>,
    x: &mut Matrix,
    ws: &mut Workspace,
    kv: &mut K,
    mut rec: Option<&mut Recorder>,
    mut sink: Option<CaptureSink<'_>>,
) {
    let (t, heads) = (x.rows(), model.config().n_heads);
    for li in blocks {
        let block = &model.blocks()[li];
        // One projection call covers every row — this is where a packed
        // operator's unpacking amortizes over the batch or chunk.
        let probs = sink.as_mut().map(|s| s.capture.fit_probs(t, heads));
        block.attn_rows(li, x, ws, kv, model.rope(), rec.as_deref_mut(), probs);
        if let Some(s) = sink.as_mut() {
            s.capture.copy_attn(ws);
        }
        block.ffn_rows(x, ws, rec.as_deref_mut());
        if let Some(s) = sink.as_mut() {
            s.capture.copy_ffn(ws);
            (s.each)(li, s.capture);
        }
    }
}

/// The decode engine both sessions run: the sequence slots, the row
/// table, the hidden rows and a workspace, each grown to the largest
/// call and reused after that.
#[derive(Debug)]
struct Engine<'m, L> {
    model: &'m ModelOf<L>,
    slots: Vec<SeqSlot>,
    rows: Vec<Row>,
    x: Matrix,
    ws: Workspace,
}

impl<'m, L: LinearOp> Engine<'m, L> {
    /// An engine with no slots.
    fn new(model: &'m ModelOf<L>) -> Self {
        let cfg = model.config();
        Engine {
            model,
            slots: Vec::new(),
            rows: Vec::new(),
            x: Matrix::zeros(0, cfg.d_model),
            ws: Workspace::for_rows(0, cfg),
        }
    }

    /// The live slot `seq`, or [`LmError::UnknownSeq`].
    fn slot(&self, seq: usize) -> Result<&SeqSlot, LmError> {
        let slot = self.slots.get(seq).filter(|s| s.live);
        slot.ok_or(LmError::UnknownSeq { seq })
    }

    /// Gives a new sequence the lowest retired slot, or else a new slot
    /// with its cache preallocated; returns the slot's index.
    fn join(&mut self) -> usize {
        if let Some(i) = self.slots.iter().position(|s| !s.live) {
            let slot = &mut self.slots[i];
            (slot.pos, slot.live, slot.fault) = (0, true, None);
            return i;
        }
        let cfg = self.model.config();
        let layers = (0..cfg.n_layers)
            .map(|_| LayerKv::empty(cfg.max_seq_len, cfg.d_model))
            .collect();
        self.slots.push(SeqSlot {
            layers,
            pos: 0,
            live: true,
            fault: None,
        });
        self.slots.len() - 1
    }

    /// [`Engine::slot`], to change.
    fn slot_mut(&mut self, seq: usize) -> Result<&mut SeqSlot, LmError> {
        let slot = self.slots.get_mut(seq).filter(|s| s.live);
        slot.ok_or(LmError::UnknownSeq { seq })
    }

    /// Overwrites live slot `seq`'s most recently written layer-0 key
    /// (every coordinate of key column `pos − 1`) with NaN, or returns
    /// [`LmError::UnknownSeq`]. No-op before the slot's first token.
    fn poison(&mut self, seq: usize) -> Result<(), LmError> {
        let slot = self.slot_mut(seq)?;
        if let (Some(last), Some(layer)) = (slot.pos.checked_sub(1), slot.layers.first_mut()) {
            let cap = layer.keys.cols();
            for coord in layer.keys.as_mut_slice().chunks_exact_mut(cap) {
                coord[last] = f32::NAN;
            }
        }
        Ok(())
    }

    /// Used cache bytes, written rows only, summed over live slots.
    fn cache_bytes(&self) -> usize {
        let live = self.slots.iter().filter(|s| s.live);
        live.map(|s| s.pos).sum::<usize>() * kv_token_bytes(self.model.config())
    }

    /// Runs one call's rows, each `(slot, token)`, and returns their
    /// logits. With `chunks`, consecutive rows of a slot are a chunk at
    /// positions `pos, pos + 1, …`; without, a slot listed twice is an
    /// error. No slot changes unless every row validates; then each slot
    /// advances up to its first row with non-finite logits, whose
    /// position becomes the slot's fault.
    ///
    /// # Errors
    ///
    /// [`LmError::EmptyInput`] for no rows, else the first failing row's
    /// [`LmError::UnknownSeq`], [`LmError::NonFiniteLogits`] (a faulted
    /// slot), [`LmError::DuplicateSeq`], [`LmError::TokenOutOfRange`] or
    /// [`LmError::SequenceFull`], checked in that order.
    fn feed_rows(
        &mut self,
        rows: impl IntoIterator<Item = (usize, u32)>,
        chunks: bool,
        rec: &mut Recorder,
    ) -> Result<Matrix, LmError> {
        self.rows.clear();
        self.rows.extend(rows.into_iter().map(|(slot, token)| Row {
            slot,
            pos: 0,
            token,
        }));
        if self.rows.is_empty() {
            return Err(LmError::EmptyInput);
        }
        let (model, n) = (self.model, self.rows.len());
        self.ws.fit(&mut self.x, n);
        for r in 0..n {
            let (seq, token) = (self.rows[r].slot, self.rows[r].token);
            let slot = self.slot(seq)?;
            if let Some(pos) = slot.fault {
                return Err(LmError::NonFiniteLogits { pos });
            }
            let earlier = &self.rows[..r];
            let pos = match earlier.last() {
                Some(prev) if chunks && prev.slot == seq => prev.pos + 1,
                _ if earlier.iter().any(|row| row.slot == seq) => {
                    return Err(LmError::DuplicateSeq { seq });
                }
                _ => slot.pos,
            };
            check_row(token, pos, model.config())?;
            self.rows[r].pos = pos;
            let embedded = model.embed().row(token as usize);
            self.x.row_mut(r).copy_from_slice(embedded);
        }
        let mut table = (&mut self.slots[..], &self.rows[..]);
        let (n, x, ws) = (model.blocks().len(), &mut self.x, &mut self.ws);
        forward_rows(model, 0..n, x, ws, &mut table, Some(rec), None);
        model.final_norm().forward_into(x, &mut ws.normed);
        let logits = ws.normed.matmul(model.lm_head());
        for (r, row) in self.rows.iter().enumerate() {
            let slot = &mut self.slots[row.slot];
            if slot.fault.is_none() {
                if logits.row(r).iter().all(|v| v.is_finite()) {
                    slot.pos = row.pos + 1;
                } else {
                    slot.fault = Some(row.pos);
                }
            }
        }
        Ok(logits)
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
    /// The one-slot engine; slot 0 is this session's sequence.
    engine: Engine<'m, L>,
    metrics: Recorder,
}

impl<'m, L: LinearOp> DecodeSession<'m, L> {
    /// Starts an empty session, preallocating the full
    /// `max_seq_len`-row KV cache so [`DecodeSession::feed`] never
    /// reallocates or copies previously cached rows.
    pub fn new(model: &'m ModelOf<L>) -> Self {
        let mut engine = Engine::new(model);
        engine.join();
        DecodeSession {
            engine,
            metrics: Recorder::new(),
        }
    }

    /// Number of tokens consumed so far.
    pub fn len(&self) -> usize {
        self.engine.slots[0].pos
    }

    /// Whether no tokens have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache memory in **used** bytes (the edge-deployment statistic:
    /// 2 matrices × layers × T × d_model × 4 bytes). Preallocated but
    /// not-yet-written rows are capacity, not usage, so this grows
    /// linearly with the number of tokens fed.
    pub fn cache_bytes(&self) -> usize {
        self.engine.cache_bytes()
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
        self.engine.slots[0].fault
    }

    /// Fault-injection hook (chaos suite): overwrites the most
    /// recently written layer-0 key (every coordinate of key column
    /// `len() − 1`) with NaN, so the next [`DecodeSession::feed`]
    /// attends over poisoned state and must detect the resulting
    /// non-finite logits. No-op before the first fed token (no key has
    /// been written yet).
    pub fn poison_kv_cache(&mut self) {
        // Slot 0 is always live, so this cannot fail.
        let _ = self.engine.poison(0);
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
    /// Allocation budget: the logits row. The session's workspace, hidden
    /// rows and row table hold their buffers from earlier calls (the
    /// first call sizes them; the score buffer is sized once, at
    /// `n_heads · (max_seq_len + 1)`), and the KV cache is written in
    /// place, never regrown. The non-finite quarantine scan reads the
    /// logits row in place.
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
    /// Allocation budget: the chunk's logits, whose last row is returned
    /// in place. The session's workspace, hidden rows and row table grow
    /// only when a chunk is longer than any before it; the KV cache is
    /// written in place, never regrown.
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
        let before = self.len();
        let rows = tokens.iter().map(|&token| (0, token));
        let logits = self.engine.feed_rows(rows, true, &mut self.metrics)?;
        let cfg = self.engine.model.config();
        let (fed, fault) = (self.len() - before, self.quarantined());
        // The faulted row wrote its cache row too.
        let written = fed + usize::from(fault.is_some());
        self.metrics.add(
            "decode/kv_bytes_moved",
            (written * kv_token_bytes(cfg)) as u64,
        );
        if fed > 0 {
            self.metrics.add("decode/tokens", fed as u64);
        }
        if let Some(pos) = fault {
            self.metrics.incr("decode/quarantine/sessions");
            return Err(LmError::NonFiniteLogits { pos });
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
/// [`DecodeSession`] — both run the same engine, attention runs per
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
    /// The engine; a sequence id is its slot index.
    engine: Engine<'m, L>,
    /// Sequence ids evicted by the most recent
    /// [`BatchDecodeSession::step`] for non-finite logits.
    evicted: Vec<usize>,
    metrics: Recorder,
}

impl<'m, L: LinearOp> BatchDecodeSession<'m, L> {
    /// Starts a session with no active sequences.
    pub fn new(model: &'m ModelOf<L>) -> Self {
        BatchDecodeSession {
            engine: Engine::new(model),
            evicted: Vec::new(),
            metrics: Recorder::new(),
        }
    }

    /// The model this session decodes.
    pub fn model(&self) -> &'m ModelOf<L> {
        self.engine.model
    }

    /// Admits a new sequence and returns its id (used with
    /// [`BatchDecodeSession::step`] / [`BatchDecodeSession::leave`]).
    /// The lowest retired slot is reused if one exists, with the
    /// `max_seq_len`-row KV cache it already holds; a new slot's cache
    /// is preallocated here, so stepping never regrows it.
    pub fn join(&mut self) -> usize {
        self.metrics.incr("decode/batch/joins");
        self.engine.join()
    }

    /// Retires sequence `seq`, freeing its slot for a later
    /// [`BatchDecodeSession::join`]. Other sequences are undisturbed.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::UnknownSeq`] if `seq` is not active.
    pub fn leave(&mut self, seq: usize) -> Result<(), LmError> {
        self.engine.slot_mut(seq)?.live = false;
        self.metrics.incr("decode/batch/leaves");
        Ok(())
    }

    /// Number of currently active sequences.
    pub fn active(&self) -> usize {
        self.engine.slots.iter().filter(|s| s.live).count()
    }

    /// Whether sequence `seq` is active.
    pub fn is_active(&self, seq: usize) -> bool {
        self.engine.slot(seq).is_ok()
    }

    /// Tokens consumed so far by sequence `seq` (`None` if inactive).
    pub fn seq_len(&self, seq: usize) -> Option<usize> {
        self.engine.slot(seq).ok().map(|s| s.pos)
    }

    /// Cache memory in **used** bytes, summed over active sequences
    /// (same statistic as [`DecodeSession::cache_bytes`]). A sequence
    /// that leaves stops counting immediately.
    pub fn cache_bytes(&self) -> usize {
        self.engine.cache_bytes()
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
    /// most recently written layer-0 key (every coordinate of key
    /// column `seq_len − 1`) with NaN, so its next step attends over
    /// poisoned state and must be quarantined. No-op if the sequence
    /// has not consumed any token yet.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::UnknownSeq`] if `seq` is not active.
    pub fn poison_kv_cache(&mut self, seq: usize) -> Result<(), LmError> {
        self.engine.poison(seq)
    }

    /// Feeds one token per listed sequence; returns the batch logits
    /// (`tokens.len() × vocab`, row `r` answering `tokens[r]`).
    ///
    /// The hidden rows of all listed sequences are stacked into one
    /// B×d matrix, so each [`LinearOp::forward_into`] call runs once
    /// per layer per step over the whole batch; attention then runs
    /// per row against that sequence's own cache at its own position,
    /// through the same engine as [`DecodeSession::feed`].
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
    /// Allocation budget: the returned logits. The session's workspace,
    /// stacked hidden rows, row table and eviction list hold their
    /// buffers from earlier steps and grow only when a step lists more
    /// sequences than any before it (the score buffer is sized once, at
    /// `n_heads · (max_seq_len + 1)`); nothing is sized by sequence
    /// length. Per-sequence KV caches are preallocated at
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
        let logits = self
            .engine
            .feed_rows(tokens.iter().copied(), false, &mut self.metrics)?;
        let b = tokens.len();
        let cfg = self.engine.model.config();
        self.metrics.add(
            "decode/batch/kv_bytes_moved",
            (b * kv_token_bytes(cfg)) as u64,
        );
        let occupancy = self.active() as u64;
        // Non-finite quarantine: evict every faulted sequence.
        self.evicted.clear();
        let faulted = |&(seq, _): &(usize, u32)| self.engine.slot(seq).ok()?.fault.map(|_| seq);
        self.evicted.extend(tokens.iter().filter_map(faulted));
        for &seq in &self.evicted {
            self.engine.slot_mut(seq)?.live = false;
            self.metrics.incr("decode/quarantine/evictions");
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
        let before = s.engine.slots[0].layers.clone();
        s.poison_kv_cache();
        let (d_model, cap) = (m.config().d_model, m.config().max_seq_len);
        for (li, (layer, old)) in s.engine.slots[0].layers.iter().zip(&before).enumerate() {
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

    #[test]
    fn oracle_mixed_rows_match_rows_fed_separately() {
        // One engine call mixes a 3-row chunk of slot 0 with single rows
        // of slots 1 and 2, each slot resuming its own prefix. It equals
        // the same rows fed one call each, bit for bit: logits,
        // positions and every cache value.
        let m = model();
        let prefixes: [&[u32]; 3] = [&[1, 2], &[3], &[4, 5, 6, 7]];
        let start = || {
            let mut engine = Engine::new(&m);
            for prefix in prefixes {
                let seq = engine.join();
                let rows = prefix.iter().map(|&t| (seq, t));
                engine.feed_rows(rows, true, &mut Recorder::new()).unwrap();
            }
            engine
        };
        let rows = [(0, 8), (0, 9), (0, 10), (1, 11), (2, 12)];
        let (mut mixed, mut apart) = (start(), start());
        let logits = mixed.feed_rows(rows, true, &mut Recorder::new()).unwrap();
        for (r, &row) in rows.iter().enumerate() {
            let one = apart.feed_rows([row], true, &mut Recorder::new()).unwrap();
            assert_bits(logits.row(r), one.row(0), &format!("row {r}"));
        }
        for (i, (a, b)) in mixed.slots.iter().zip(&apart.slots).enumerate() {
            assert_eq!(a.pos, prefixes[i].len() + if i == 0 { 3 } else { 1 });
            assert_eq!((a.pos, a.fault), (b.pos, b.fault), "slot {i}");
            for (la, lb) in a.layers.iter().zip(&b.layers) {
                assert_bits(la.keys.as_slice(), lb.keys.as_slice(), "keys");
                assert_bits(la.v.as_slice(), lb.v.as_slice(), "values");
            }
        }
        // Only consecutive rows form a chunk.
        assert!(matches!(
            mixed.feed_rows([(0, 1), (1, 2), (0, 3)], true, &mut Recorder::new()),
            Err(LmError::DuplicateSeq { seq: 0 })
        ));
    }

    #[test]
    fn join_into_an_evicted_slot_decodes_like_a_fresh_session() {
        // The evicted slot keeps its cache, poisoned key column included;
        // the sequence that rejoins it overwrites each position before
        // attending over it.
        let m = model();
        let mut batch = BatchDecodeSession::new(&m);
        let (a, b) = (batch.join(), batch.join());
        batch.step(&[(a, 1), (b, 2)]).unwrap();
        batch.step(&[(a, 3), (b, 4)]).unwrap();
        batch.poison_kv_cache(a).unwrap();
        batch.step(&[(a, 5), (b, 6)]).unwrap();
        assert_eq!(batch.evicted_last_step(), [a]);
        let c = batch.join();
        assert_eq!(c, a, "the evicted slot is reused");
        let mut fresh = DecodeSession::new(&m);
        for (i, t) in [7u32, 8, 9, 10].into_iter().enumerate() {
            let got = batch.step(&[(c, t)]).unwrap();
            assert_bits(got.row(0), &fresh.feed(t).unwrap(), &format!("token {i}"));
        }
        assert_eq!(batch.seq_len(c), Some(fresh.len()));
        assert_eq!(batch.cache_bytes(), 7 * kv_token_bytes(m.config()));
    }
}
