//! Multi-head causal self-attention with RoPE, full manual backward, and
//! the causal row kernel every attention evaluation runs, which also
//! writes the per-head probabilities APTQ's attention-aware Hessians
//! consume.

use aptq_tensor::activation::softmax_vjp_row;
use aptq_tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::capture::BlockCapture;
use crate::linear::{Linear, LinearOp};
use crate::rope::RopeTable;

/// Multi-head causal self-attention (`Q`, `K`, `V`, `O` projections),
/// generic over the linear operator `L`.
///
/// Shapes: activations are `(T × d_model)`; each projection is a
/// bias-free [`LinearOp`] of `d_model × d_model`; heads are contiguous
/// column blocks of width `d_head`. The default `L = `[`Linear`] is the
/// trainable fp32 stack; `aptq_qmodel` instantiates the same forward
/// with packed projections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiHeadAttention<L = Linear> {
    wq: L,
    wk: L,
    wv: L,
    wo: L,
    n_heads: usize,
    d_head: usize,
    scale: f32,
}

/// Gradients of the four projection weights.
#[derive(Debug, Clone)]
pub struct AttentionGrads {
    /// Gradient of the query projection.
    pub dwq: Matrix,
    /// Gradient of the key projection.
    pub dwk: Matrix,
    /// Gradient of the value projection.
    pub dwv: Matrix,
    /// Gradient of the output projection.
    pub dwo: Matrix,
}

impl<L: LinearOp> MultiHeadAttention<L> {
    /// Assembles an attention block from four prebuilt projections
    /// (the weight-install path used by the quantized stack).
    ///
    /// # Panics
    ///
    /// Panics if the projections are not square with a common width
    /// divisible by `n_heads`.
    pub fn from_parts(wq: L, wk: L, wv: L, wo: L, n_heads: usize) -> Self {
        let d_model = wq.d_in();
        for p in [&wq, &wk, &wv, &wo] {
            assert!(
                p.d_in() == d_model && p.d_out() == d_model,
                "attention projections must all be {d_model}×{d_model}"
            );
        }
        assert!(
            n_heads > 0 && d_model.is_multiple_of(n_heads),
            "n_heads must divide d_model"
        );
        let d_head = d_model / n_heads;
        MultiHeadAttention {
            wq,
            wk,
            wv,
            wo,
            n_heads,
            d_head,
            scale: 1.0 / (d_head as f32).sqrt(),
        }
    }

    /// Number of heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Per-head dimension.
    pub fn d_head(&self) -> usize {
        self.d_head
    }

    /// Mutable query projection (optimizer / quantizer /
    /// fault-injection access).
    pub fn wq_mut(&mut self) -> &mut L {
        &mut self.wq
    }
    /// Mutable key projection.
    pub fn wk_mut(&mut self) -> &mut L {
        &mut self.wk
    }
    /// Mutable value projection.
    pub fn wv_mut(&mut self) -> &mut L {
        &mut self.wv
    }
    /// Mutable output projection.
    pub fn wo_mut(&mut self) -> &mut L {
        &mut self.wo
    }

    /// Query projection.
    pub fn wq(&self) -> &L {
        &self.wq
    }
    /// Key projection.
    pub fn wk(&self) -> &L {
        &self.wk
    }
    /// Value projection.
    pub fn wv(&self) -> &L {
        &self.wv
    }
    /// Output projection.
    pub fn wo(&self) -> &L {
        &self.wo
    }
}

/// Causal attention of one rotated query row `q` (heads concatenated,
/// `d_model` wide) over the first `t` positions of the coordinate-major
/// `keys` (`d_model × capacity`: coordinate `c` of position `j` at
/// `(c, j)`) and the row-major `values` (`capacity × d_model`),
/// accumulated into the concat row `out`. `scratch` holds at least
/// `n_heads · (t + 1)` floats.
///
/// Per head: scores `q·k · scale` (each dot product from `0.0`,
/// coordinates ascending), the `f32::max` fold, `exp(s − max)` with a
/// running sum, `· (1 / sum)`, then `P·V` with keys ascending, skipping
/// probabilities that are exactly zero. These are the float operations,
/// in order, of a full `Q·Kᵀ` → causal `−∞` mask → row softmax → `P·V`
/// matmul: a masked entry adds `exp(−∞) = 0` to the sum after every
/// unmasked one and is skipped in `P·V`, so leaving it out changes no
/// bit for finite scores. A row with a NaN score still comes out NaN.
///
/// The loops are arranged so they vectorize without reordering any of
/// those operations:
///
/// - the scores start at `0.0` and take `d_head` passes over the head's
///   `t` keys, one per coordinate, each reading one contiguous key row
///   and adding `q_c·k`; the last also scales and folds the maximum lane
///   by lane ([`last_pass`]);
/// - `exp` is one libm call per score, the sum running in order;
/// - `P·V` ([`weigh_values`]) folds `1 / sum` into each probability and
///   sweeps several heads per pass over the keys, each head with its own
///   accumulators.
///
/// With `probs` given, head `h`'s probabilities are written to
/// `probs[h].row(t − 1)[..t]`.
///
/// Every forward calls it once per row with `t = pos + 1` against that
/// row's KV cache (`LayerKv::attend`); the capture that
/// calibration and the backward read passes `probs`.
///
/// # HotPath
///
/// Allocation budget: zero allocations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend_row(
    q: &[f32],
    keys: &Matrix,
    values: &Matrix,
    t: usize,
    d_head: usize,
    scale: f32,
    scratch: &mut [f32],
    mut probs: Option<&mut [Matrix]>,
    out: &mut [f32],
) {
    let n_heads = q.len() / d_head;
    let (inv, scores) = scratch.split_at_mut(n_heads);
    let scores = &mut scores[..n_heads * t];
    let (kt, cap) = (keys.as_slice(), keys.cols());
    let last = d_head - 1;
    for (h, (s, qh)) in scores
        .chunks_exact_mut(t)
        .zip(q.chunks_exact(d_head))
        .enumerate()
    {
        let key = |c: usize| &kt[(h * d_head + c) * cap..][..t];
        s.fill(0.0);
        for (c, &qc) in qh[..last].iter().enumerate() {
            for (s, &k) in s.iter_mut().zip(key(c)) {
                *s += qc * k;
            }
        }
        let max = last_pass(s, key(last), qh[last], scale);
        let mut sum = 0.0f32;
        for s in s.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        inv[h] = 1.0 / sum;
        if let Some(probs) = probs.as_deref_mut() {
            for (p, &e) in probs[h].row_mut(t - 1)[..t].iter_mut().zip(s.iter()) {
                *p = e * inv[h];
            }
        }
    }
    let values = values.as_slice();
    // The shipped head widths are 6 (TinyLlama-M) and 8 (TinyLlama-S).
    // Any other width runs one column per group: the same sums in the
    // same order, only slower.
    match d_head {
        6 => weigh_values::<6>(d_head, scores, inv, t, values, out),
        d if d % 8 == 0 => weigh_values::<8>(d_head, scores, inv, t, values, out),
        _ => weigh_values::<1>(d_head, scores, inv, t, values, out),
    }
}

/// Lanes of [`last_pass`]'s running maximum.
const MAX_LANES: usize = 8;

/// The last score pass: `s = (s + q_c·k) · scale`, returning the
/// maximum of the scores.
///
/// The maximum is folded lane by lane, then across the lanes: any
/// grouping of `f32::max` picks the same value, since `max` ignores NaN
/// in every grouping, and it can differ only in the sign of a zero
/// maximum, which no `exp(s − max)` can see (`s − (±0)` is `s` for
/// `s ≠ 0`, and `±0` otherwise).
fn last_pass(s: &mut [f32], k: &[f32], qc: f32, scale: f32) -> f32 {
    let mut m = [f32::NEG_INFINITY; MAX_LANES];
    let mut s_lanes = s.chunks_exact_mut(MAX_LANES);
    let mut k_lanes = k.chunks_exact(MAX_LANES);
    for (sl, kl) in (&mut s_lanes).zip(&mut k_lanes) {
        for ((m, s), &k) in m.iter_mut().zip(sl).zip(kl) {
            *s = (*s + qc * k) * scale;
            *m = m.max(*s);
        }
    }
    for (s, &k) in s_lanes.into_remainder().iter_mut().zip(k_lanes.remainder()) {
        *s = (*s + qc * k) * scale;
        m[0] = m[0].max(*s);
    }
    m.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Heads [`weigh_values`] sweeps per pass over the keys.
const HEAD_GROUP: usize = 4;

/// `out += P·V` for every head: each probability is its head's score
/// times `inv[h]`, and exact zeros are skipped.
///
/// `out` is cut into column groups of `D` floats, `HEAD_GROUP` groups per
/// pass over the `t` value rows, each with its own accumulators, so a
/// pass runs `HEAD_GROUP` independent add chains instead of one. `D`
/// divides `d_head`, so each group lies in one head and reads that
/// head's probability (a group is the whole head when `D = d_head`).
/// Each output float adds its terms in key order.
fn weigh_values<const D: usize>(
    d_head: usize,
    scores: &[f32],
    inv: &[f32],
    t: usize,
    values: &[f32],
    out: &mut [f32],
) {
    let d_model = out.len();
    let cols_per_head = d_head / D;
    for (gi, o) in out.chunks_mut(HEAD_GROUP * D).enumerate() {
        let c0 = gi * HEAD_GROUP * D;
        let mut acc = [[0.0f32; D]; HEAD_GROUP];
        // Each group's score row offset and `1 / sum`, hoisted out of the
        // key loop.
        let mut heads = [(0usize, 0.0f32); HEAD_GROUP];
        for (i, ((a, o), head)) in acc
            .iter_mut()
            .zip(o.chunks_exact(D))
            .zip(&mut heads)
            .enumerate()
        {
            a.copy_from_slice(o);
            let h = (gi * HEAD_GROUP + i) / cols_per_head;
            *head = (h * t, inv[h]);
        }
        let n = o.len() / D;
        // A full group's sweep unrolls over the whole group: with four
        // full groups per row it read 8–21% faster than one
        // `sweep_keys(n, ..)` call at head widths 8 to 128.
        if n == HEAD_GROUP {
            sweep_keys(HEAD_GROUP, &heads, scores, t, values, d_model, c0, &mut acc);
        } else {
            sweep_keys(n, &heads, scores, t, values, d_model, c0, &mut acc);
        }
        for (a, o) in acc.iter().zip(o.chunks_exact_mut(D)) {
            o.copy_from_slice(a);
        }
    }
}

/// One pass of [`weigh_values`] over the keys for the first `n` column
/// groups of `acc`, which start at column `c0`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_keys<const D: usize>(
    n: usize,
    heads: &[(usize, f32); HEAD_GROUP],
    scores: &[f32],
    t: usize,
    values: &[f32],
    d_model: usize,
    c0: usize,
    acc: &mut [[f32; D]; HEAD_GROUP],
) {
    for (j, row) in values.chunks_exact(d_model).take(t).enumerate() {
        let row = &row[c0..c0 + n * D];
        for ((a, v), &(base, inv)) in acc[..n]
            .iter_mut()
            .zip(row.chunks_exact(D))
            .zip(&heads[..n])
        {
            let p = scores[base + j] * inv;
            // Exact-zero skip, as the matmul kernel's.
            // audit:allow(fpeq): exact-zero skip; no tolerance intended
            if p != 0.0 {
                for (a, &v) in a.iter_mut().zip(v) {
                    *a += p * v;
                }
            }
        }
    }
}

impl MultiHeadAttention {
    /// Creates an attention block with random weights.
    ///
    /// # Panics
    ///
    /// Panics if `n_heads` does not divide `d_model`.
    pub fn new(d_model: usize, n_heads: usize, rng: &mut StdRng) -> Self {
        assert!(
            n_heads > 0 && d_model.is_multiple_of(n_heads),
            "n_heads must divide d_model"
        );
        MultiHeadAttention::from_parts(
            Linear::new(d_model, d_model, rng),
            Linear::new(d_model, d_model, rng),
            Linear::new(d_model, d_model, rng),
            Linear::new(d_model, d_model, rng),
            n_heads,
        )
    }

    /// Backward pass.
    ///
    /// Given the upstream gradient `dy` (`T × d_model`) and the capture of
    /// the forward (its attention fields: `attn_input`, `q_rot`, `k_rot`,
    /// `v`, `probs` and `concat`), returns `(dx, grads)`.
    ///
    /// # Panics
    ///
    /// Panics if `dy`'s shape does not match the captured activation
    /// shape `(T, d_model)`.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn backward(
        &self,
        cap: &BlockCapture,
        dy: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, AttentionGrads) {
        let t = cap.attn_input.rows();
        let d_model = self.wq.d_in();
        assert_eq!(
            dy.shape(),
            (t, d_model),
            "attention backward: dy shape mismatch"
        );

        // O projection.
        let (dconcat, dwo) = self.wo.backward(&cap.concat, dy);

        let mut dq = Matrix::zeros(t, d_model);
        let mut dk = Matrix::zeros(t, d_model);
        let mut dv = Matrix::zeros(t, d_model);

        for h in 0..self.n_heads {
            let lo = h * self.d_head;
            let hi = lo + self.d_head;
            let p = &cap.probs[h];
            let qh = cap.q_rot.slice_cols(lo, hi);
            let kh = cap.k_rot.slice_cols(lo, hi);
            let vh = cap.v.slice_cols(lo, hi);
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
            dscores.scale_assign(self.scale);

            // scores = q kᵀ
            let dqh = dscores.matmul(&kh); // T×dh
            let dkh = dscores.matmul_tn(&qh); // T×dh

            dq.set_block(0, lo, &dqh);
            dk.set_block(0, lo, &dkh);
            dv.set_block(0, lo, &dvh);
        }

        // Undo RoPE on gradient (the rotation is orthogonal: Jᵀ = R(−θ)).
        for pos in 0..t {
            for h in 0..self.n_heads {
                let lo = h * self.d_head;
                let hi = lo + self.d_head;
                rope.apply_row_inverse(&mut dq.row_mut(pos)[lo..hi], pos);
                rope.apply_row_inverse(&mut dk.row_mut(pos)[lo..hi], pos);
            }
        }

        let (dx_q, dwq) = self.wq.backward(&cap.attn_input, &dq);
        let (dx_k, dwk) = self.wk.backward(&cap.attn_input, &dk);
        let (dx_v, dwv) = self.wv.backward(&cap.attn_input, &dv);

        let mut dx = dx_q;
        dx.add_assign(&dx_k);
        dx.add_assign(&dx_v);

        (dx, AttentionGrads { dwq, dwk, dwv, dwo })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{LayerKv, Workspace};
    use aptq_tensor::activation::softmax_rows;
    use aptq_tensor::init;

    fn setup(
        t: usize,
        d: usize,
        heads: usize,
        seed: u64,
    ) -> (MultiHeadAttention, Matrix, RopeTable) {
        let mut rng = init::rng(seed);
        let attn = MultiHeadAttention::new(d, heads, &mut rng);
        let x = init::normal(t, d, 1.0, &mut rng);
        let rope = RopeTable::new(d / heads, 64, 10_000.0);
        (attn, x, rope)
    }

    /// `attn` over the normed rows `x` through the inference core's
    /// attention: the projections, then each row attending at its own
    /// position in a `T`-row cache ([`LayerKv::attend`]), then `o_proj` —
    /// `TransformerBlock::attn_rows` without the norm and the residual.
    /// Returns the output and the capture's attention fields.
    fn core_forward(
        attn: &MultiHeadAttention,
        x: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, BlockCapture) {
        let (t, d_model) = x.shape();
        let mut ws = Workspace::for_attn(t, d_model, attn.n_heads, t);
        ws.normed.as_mut_slice().copy_from_slice(x.as_slice());
        attn.wq.forward_into(x, &mut ws.q, None);
        attn.wk.forward_into(x, &mut ws.k, None);
        attn.wv.forward_into(x, &mut ws.v, None);
        let mut cap = BlockCapture::default();
        let probs = cap.fit_probs(t, attn.n_heads);
        let mut kv = LayerKv::empty(t, d_model);
        for r in 0..t {
            kv.attend(rope, r, &mut ws, r, Some(&mut probs[..]));
        }
        cap.copy_attn(&ws);
        (attn.wo.forward_op(&ws.concat, None), cap)
    }

    /// The per-head full-matrix forward the causal row kernel replaced,
    /// kept verbatim as its bit-exact oracle; its cache is the capture's
    /// attention fields.
    fn forward_oracle(
        attn: &MultiHeadAttention,
        x: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, BlockCapture) {
        let t = x.rows();
        let d_model = attn.wq.d_in();
        let mut q = attn.wq.forward_op(x, None);
        let mut k = attn.wk.forward_op(x, None);
        let v = attn.wv.forward_op(x, None);
        for pos in 0..t {
            for h in 0..attn.n_heads {
                let lo = h * attn.d_head;
                let hi = lo + attn.d_head;
                rope.apply_row(&mut q.row_mut(pos)[lo..hi], pos);
                rope.apply_row(&mut k.row_mut(pos)[lo..hi], pos);
            }
        }
        let mut probs = Vec::with_capacity(attn.n_heads);
        let mut concat = Matrix::zeros(t, d_model);
        for h in 0..attn.n_heads {
            let lo = h * attn.d_head;
            let hi = lo + attn.d_head;
            let qh = q.slice_cols(lo, hi);
            let kh = k.slice_cols(lo, hi);
            let vh = v.slice_cols(lo, hi);
            let mut scores = qh.matmul_nt(&kh);
            scores.scale_assign(attn.scale);
            for i in 0..t {
                let row = scores.row_mut(i);
                for val in row.iter_mut().skip(i + 1) {
                    *val = f32::NEG_INFINITY;
                }
            }
            softmax_rows(&mut scores);
            let head = scores.matmul(&vh);
            concat.set_block(0, lo, &head);
            probs.push(scores);
        }
        let out = attn.wo.forward_op(&concat, None);
        let cache = BlockCapture {
            attn_input: x.clone(),
            q_rot: q,
            k_rot: k,
            v,
            probs,
            concat,
            ..BlockCapture::default()
        };
        (out, cache)
    }

    /// The per-head row kernel the vectorized [`attend_row`] replaced,
    /// kept verbatim (row-major keys) as its bit-exact oracle.
    #[allow(clippy::too_many_arguments)]
    fn attend_row_oracle(
        q: &[f32],
        keys: &[f32],
        values: &[f32],
        t: usize,
        d_head: usize,
        scale: f32,
        scores: &mut [f32],
        mut probs: Option<&mut [Matrix]>,
        out: &mut [f32],
    ) {
        let d_model = q.len();
        let scores = &mut scores[..t];
        for (h, (qh, head)) in q
            .chunks_exact(d_head)
            .zip(out.chunks_exact_mut(d_head))
            .enumerate()
        {
            let lo = h * d_head;
            for (s, key) in scores.iter_mut().zip(keys.chunks_exact(d_model)) {
                let kh = &key[lo..lo + d_head];
                let mut acc = 0.0f32;
                for (a, b) in qh.iter().zip(kh) {
                    acc += a * b;
                }
                *s = acc * scale;
            }
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                sum += *s;
            }
            let inv = 1.0 / sum;
            for s in scores.iter_mut() {
                *s *= inv;
            }
            for (&p, value) in scores.iter().zip(values.chunks_exact(d_model)) {
                if p != 0.0 {
                    let vh = &value[lo..lo + d_head];
                    for (o, &b) in head.iter_mut().zip(vh) {
                        *o += p * b;
                    }
                }
            }
            if let Some(probs) = probs.as_deref_mut() {
                probs[h].row_mut(t - 1)[..t].copy_from_slice(scores);
            }
        }
    }

    /// Floats that stress the kernel's float ops: signed zeros,
    /// subnormals, infinities and NaN.
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        1.0e-40,
        -3.0e-41,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];

    /// Equal bits, or both NaN: Rust leaves the payload and sign of a NaN
    /// an operation returns unspecified.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// One `attend_row` call against the oracle on the same inputs, with
    /// and without `probs`, compared bit for bit (see [`same_bits`]): the
    /// concat row and, with `probs`, every head's probability row.
    /// Returns how many of those probabilities are exactly zero.
    #[allow(clippy::too_many_arguments)]
    fn check_row(
        q: &[f32],
        keys: &Matrix,
        values: &Matrix,
        t: usize,
        d_head: usize,
        out0: &[f32],
        what: &str,
    ) -> usize {
        let (cap, d_model) = keys.shape();
        let n_heads = d_model / d_head;
        let scale = 1.0 / (d_head as f32).sqrt();
        let keys_t = keys.transpose();
        let mut scratch = vec![f32::NAN; n_heads * (cap + 1)];
        let mut want = out0.to_vec();
        let mut want_p: Vec<Matrix> = (0..n_heads).map(|_| Matrix::zeros(t, t)).collect();
        attend_row_oracle(
            q,
            keys.as_slice(),
            values.as_slice(),
            t,
            d_head,
            scale,
            &mut scratch,
            Some(&mut want_p[..]),
            &mut want,
        );
        let mut zeros = 0;
        for with_probs in [true, false] {
            let mut got = out0.to_vec();
            let mut got_p: Vec<Matrix> = (0..n_heads).map(|_| Matrix::zeros(t, t)).collect();
            let probs = with_probs.then_some(&mut got_p[..]);
            attend_row(
                q,
                &keys_t,
                values,
                t,
                d_head,
                scale,
                &mut scratch,
                probs,
                &mut got,
            );
            for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    same_bits(a, b),
                    "{what} probs={with_probs}: out[{i}] {a} vs {b}"
                );
            }
            if with_probs {
                for (h, (p, wp)) in got_p.iter().zip(&want_p).enumerate() {
                    for (j, (&a, &b)) in p.row(t - 1).iter().zip(wp.row(t - 1)).enumerate() {
                        assert!(same_bits(a, b), "{what}: probs[{h}][{j}] {a} vs {b}");
                    }
                    zeros += p.row(t - 1).iter().filter(|&&v| v == 0.0).count();
                }
            }
        }
        zeros
    }

    #[test]
    fn oracle_attend_row_matches_per_head_kernel() {
        // Every dispatch arm: 6, multiples of 8 (16 at two groups per
        // head), 4, 2 and odd widths (1, 3); five heads, so one full
        // group of whole heads and a partial one;
        // a cache three positions larger than `t`; a nonzero starting
        // concat row, since the kernel accumulates into it.
        let mut rng = init::rng(2024);
        let mut zeros = 0;
        for d_head in [1usize, 2, 3, 4, 6, 8, 16] {
            let d_model = 5 * d_head;
            for t in [1usize, 2, 7, 8, 9, 17, 61, 64, 128] {
                let cap = t + 3;
                let what = format!("d_head={d_head} t={t}");
                let q = init::normal(1, d_model, 1.0, &mut rng);
                let keys = init::normal(cap, d_model, 1.0, &mut rng);
                let values = init::normal(cap, d_model, 1.0, &mut rng);
                let out0 = init::normal(1, d_model, 0.5, &mut rng);
                check_row(q.row(0), &keys, &values, t, d_head, out0.row(0), &what);

                // Amplified scores: most probabilities underflow to 0.
                let big_q = q.scale(40.0);
                let big_k = keys.scale(40.0);
                zeros += check_row(
                    big_q.row(0),
                    &big_k,
                    &values,
                    t,
                    d_head,
                    out0.row(0),
                    &format!("{what} amplified"),
                );

                // Specials in q, k and v, one seeded pattern per kind.
                for (si, &special) in SPECIALS.iter().enumerate() {
                    let (mut q, mut keys, mut values) = (q.clone(), keys.clone(), values.clone());
                    let stride = 3 + si;
                    for m in [&mut keys, &mut values] {
                        for v in m.as_mut_slice().iter_mut().skip(si).step_by(stride * 7) {
                            *v = special;
                        }
                    }
                    q.as_mut_slice()[si % d_model] = special;
                    check_row(
                        q.row(0),
                        &keys,
                        &values,
                        t,
                        d_head,
                        out0.row(0),
                        &format!("{what} special {special:e}"),
                    );
                }
            }
        }
        assert!(
            zeros > 0,
            "amplified scores must underflow some probabilities to 0"
        );
    }

    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// The core's output and every capture field against the oracle, bit
    /// for bit, at `T ∈ {1, 2, 3, 17, 64, max_seq_len}`. `amp` scales
    /// the input (large values drive probabilities to exactly zero) and
    /// every seventh entry is `+0.0` or `−0.0`. Returns how many
    /// probabilities inside the causal triangle were exactly zero.
    fn check_against_oracle(d_model: usize, n_heads: usize, max_seq_len: usize, amp: f32) -> usize {
        let mut rng = init::rng(d_model as u64 * 31 + n_heads as u64);
        let attn = MultiHeadAttention::new(d_model, n_heads, &mut rng);
        let rope = RopeTable::new(d_model / n_heads, max_seq_len.max(64), 10_000.0);
        let mut exact_zeros = 0;
        for t in [1usize, 2, 3, 17, 64, max_seq_len] {
            let mut x = init::normal(t, d_model, amp, &mut rng);
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                if i % 7 == 0 {
                    *v = if i % 14 == 0 { 0.0 } else { -0.0 };
                }
            }
            let (y, cache) = core_forward(&attn, &x, &rope);
            let (want_y, want) = forward_oracle(&attn, &x, &rope);
            let what = format!("d={d_model} heads={n_heads} T={t} amp={amp}");
            assert_bits(&y, &want_y, &format!("{what}: output"));
            assert_bits(&cache.attn_input, &want.attn_input, &format!("{what}: x"));
            assert_bits(&cache.q_rot, &want.q_rot, &format!("{what}: q_rot"));
            assert_bits(&cache.k_rot, &want.k_rot, &format!("{what}: k_rot"));
            assert_bits(&cache.v, &want.v, &format!("{what}: v"));
            assert_bits(&cache.concat, &want.concat, &format!("{what}: concat"));
            assert_eq!(cache.probs.len(), want.probs.len());
            for (h, (p, wp)) in cache.probs.iter().zip(&want.probs).enumerate() {
                assert_bits(p, wp, &format!("{what}: probs[{h}]"));
                exact_zeros += (0..t)
                    .map(|i| p.row(i)[..=i].iter().filter(|&&v| v == 0.0).count())
                    .sum::<usize>();
            }
        }
        exact_zeros
    }

    #[test]
    fn oracle_forward_bits_test_tiny_heads() {
        let cfg = crate::ModelConfig::test_tiny(16);
        check_against_oracle(cfg.d_model, cfg.n_heads, cfg.max_seq_len, 1.0);
        let zeros = check_against_oracle(cfg.d_model, cfg.n_heads, cfg.max_seq_len, 40.0);
        assert!(
            zeros > 0,
            "large inputs must underflow some probabilities to 0"
        );
    }

    #[test]
    fn oracle_forward_bits_tinyllama_m_heads() {
        let cfg = crate::ModelConfig::tiny_llama_m(134);
        check_against_oracle(cfg.d_model, cfg.n_heads, cfg.max_seq_len, 1.0);
        let zeros = check_against_oracle(cfg.d_model, cfg.n_heads, cfg.max_seq_len, 40.0);
        assert!(
            zeros > 0,
            "large inputs must underflow some probabilities to 0"
        );
    }

    #[test]
    fn forward_shapes() {
        let (attn, x, rope) = setup(5, 8, 2, 0);
        let (y, cache) = core_forward(&attn, &x, &rope);
        assert_eq!(y.shape(), (5, 8));
        assert_eq!(cache.probs.len(), 2);
        assert_eq!(cache.probs[0].shape(), (5, 5));
        assert_eq!(cache.concat.shape(), (5, 8));
        assert!(y.all_finite());
    }

    #[test]
    fn attention_is_causal() {
        // Changing a future token must not affect earlier outputs.
        let (attn, x, rope) = setup(6, 8, 2, 1);
        let (y1, _) = core_forward(&attn, &x, &rope);
        let mut x2 = x.clone();
        for v in x2.row_mut(5) {
            *v += 10.0;
        }
        let (y2, _) = core_forward(&attn, &x2, &rope);
        for i in 0..5 {
            for j in 0..8 {
                assert!(
                    (y1[(i, j)] - y2[(i, j)]).abs() < 1e-5,
                    "position {i} changed when future token was perturbed"
                );
            }
        }
        // Last position must change.
        assert!((0..8).any(|j| (y1[(5, j)] - y2[(5, j)]).abs() > 1e-4));
    }

    #[test]
    fn prob_rows_are_causal_distributions() {
        let (attn, x, rope) = setup(5, 8, 2, 2);
        let (_, cache) = core_forward(&attn, &x, &rope);
        for p in &cache.probs {
            for i in 0..5 {
                let sum: f32 = p.row(i).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5);
                for j in i + 1..5 {
                    assert_eq!(p[(i, j)], 0.0, "future attention at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn first_token_attends_only_to_itself() {
        let (attn, x, rope) = setup(4, 8, 2, 3);
        let (_, cache) = core_forward(&attn, &x, &rope);
        for p in &cache.probs {
            assert!((p[(0, 0)] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_input() {
        let (attn, x, rope) = setup(4, 8, 2, 4);
        let dy = init::normal(4, 8, 1.0, &mut init::rng(5));
        let (_, cache) = core_forward(&attn, &x, &rope);
        let (dx, _) = attn.backward(&cache, &dy, &rope);
        let loss = |x: &Matrix| core_forward(&attn, x, &rope).0.hadamard(&dy).sum();
        let eps = 1e-2f32;
        for (i, j) in [(0, 0), (1, 3), (3, 7), (2, 5)] {
            let mut xp = x.clone();
            xp[(i, j)] += eps;
            let mut xm = x.clone();
            xm[(i, j)] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (dx[(i, j)] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "dx({i},{j}): {} vs {fd}",
                dx[(i, j)]
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_weights() {
        let (mut attn, x, rope) = setup(3, 8, 2, 6);
        let dy = init::normal(3, 8, 1.0, &mut init::rng(7));
        let (_, cache) = core_forward(&attn, &x, &rope);
        let (_, grads) = attn.backward(&cache, &dy, &rope);
        let eps = 1e-2f32;

        // One entry from each projection.
        let checks: [(&str, (usize, usize)); 4] =
            [("q", (1, 2)), ("k", (3, 4)), ("v", (0, 5)), ("o", (6, 1))];
        for (which, (i, j)) in checks {
            let grad = match which {
                "q" => grads.dwq[(i, j)],
                "k" => grads.dwk[(i, j)],
                "v" => grads.dwv[(i, j)],
                _ => grads.dwo[(i, j)],
            };
            fn weight_mut<'a>(attn: &'a mut MultiHeadAttention, which: &str) -> &'a mut Matrix {
                match which {
                    "q" => attn.wq_mut().weight_mut(),
                    "k" => attn.wk_mut().weight_mut(),
                    "v" => attn.wv_mut().weight_mut(),
                    _ => attn.wo_mut().weight_mut(),
                }
            }
            let orig = weight_mut(&mut attn, which)[(i, j)];
            weight_mut(&mut attn, which)[(i, j)] = orig + eps;
            let lp = core_forward(&attn, &x, &rope).0.hadamard(&dy).sum();
            weight_mut(&mut attn, which)[(i, j)] = orig - eps;
            let lm = core_forward(&attn, &x, &rope).0.hadamard(&dy).sum();
            weight_mut(&mut attn, which)[(i, j)] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "dw{which}({i},{j}): {grad} vs {fd}"
            );
        }
    }

    #[test]
    fn single_token_sequence_works() {
        let (attn, _, rope) = setup(1, 8, 2, 8);
        let x = init::normal(1, 8, 1.0, &mut init::rng(9));
        let (y, cache) = core_forward(&attn, &x, &rope);
        assert_eq!(y.shape(), (1, 8));
        assert!((cache.probs[0][(0, 0)] - 1.0).abs() < 1e-6);
    }
}
