//! Multi-head causal self-attention with RoPE, full manual backward, and
//! the internal captures APTQ's attention-aware Hessians consume.

use aptq_tensor::activation::softmax_vjp_row;
use aptq_tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

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

/// Everything the backward pass and the APTQ Hessian builders need from
/// one attention forward pass.
#[derive(Debug, Clone)]
pub struct AttentionCache {
    /// Input to the attention block (post-RMSNorm), `T × d_model`.
    pub x: Matrix,
    /// Rotated queries, `T × d_model` (heads concatenated).
    pub q_rot: Matrix,
    /// Rotated keys, `T × d_model`.
    pub k_rot: Matrix,
    /// Values (no rotation), `T × d_model`.
    pub v: Matrix,
    /// Per-head attention probability matrices, each `T × T`, causal.
    pub probs: Vec<Matrix>,
    /// Concatenated head outputs — the input to the `O` projection,
    /// `T × d_model`.
    pub concat: Matrix,
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

    /// Forward pass over a `(T × d_model)` activation matrix with causal
    /// masking and RoPE: the training path, and the capture's.
    ///
    /// Returns `(output, cache)`; the cache feeds both [`backward`] and
    /// the APTQ attention-Hessian builders. Row `i` attends to keys
    /// `[0, i]` only, through the same row kernel as cached decoding,
    /// which writes `probs[h].row(i)[..=i]`.
    ///
    /// [`backward`]: MultiHeadAttention::backward
    ///
    /// # HotPath
    ///
    /// Allocation budget: Q/K/V/concat/output matrices sized by the
    /// sequence, the cache's per-head `T × T` `probs` (upper triangles
    /// left zero) and one `T`-float score buffer, allocated once per
    /// call; no per-head score matrix beyond `probs`. Inner loops are
    /// heap-free.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_model` or the sequence exceeds the RoPE
    /// table.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn forward(&self, x: &Matrix, rope: &RopeTable) -> (Matrix, AttentionCache) {
        let t = x.rows();
        let d_model = self.wq.d_in();
        assert_eq!(x.cols(), d_model, "attention: input width mismatch");

        let mut q = self.wq.forward_op(x, None);
        let mut k = self.wk.forward_op(x, None);
        let v = self.wv.forward_op(x, None);
        for pos in 0..t {
            rope.apply_heads(q.row_mut(pos), pos);
            rope.apply_heads(k.row_mut(pos), pos);
        }

        let mut probs: Vec<Matrix> = (0..self.n_heads).map(|_| Matrix::zeros(t, t)).collect();
        let mut concat = Matrix::zeros(t, d_model);
        let mut scores = vec![0.0f32; t];
        for i in 0..t {
            attend_row(
                q.row(i),
                k.as_slice(),
                v.as_slice(),
                i + 1,
                self.d_head,
                self.scale,
                &mut scores,
                Some(&mut probs[..]),
                concat.row_mut(i),
            );
        }
        let out = self.wo.forward_op(&concat, None);
        let cache = AttentionCache {
            // audit:allow(alloc): the cache owns its input copy for backward
            x: x.clone(),
            q_rot: q,
            k_rot: k,
            v,
            probs,
            concat,
        };
        (out, cache)
    }
}

/// Causal attention of one rotated query row `q` (heads concatenated,
/// `d_model` wide) over the first `t` rows of the row-major `keys` and
/// `values` (`d_model` floats per row), accumulated into the concat
/// row `out`. `scores` is scratch of at least `t` floats.
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
/// With `probs` given, head `h`'s probabilities are written to
/// `probs[h].row(t − 1)[..t]`.
///
/// The training forward calls this once per row `i` with `t = i + 1`;
/// every inference forward calls it once per row with `t = pos + 1`
/// against that row's KV cache.
///
/// # HotPath
///
/// Allocation budget: zero allocations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend_row(
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
            // Exact-zero skip, as the matmul kernel's. A guard, not an
            // early `continue`: that form compiled to a slower loop.
            // audit:allow(fpeq): exact-zero skip; no tolerance intended
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
    /// Given the upstream gradient `dy` (`T × d_model`) and the forward
    /// cache, returns `(dx, grads)`.
    ///
    /// # Panics
    ///
    /// Panics if `dy`'s shape does not match the cached activation
    /// shape `(T, d_model)`.
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS` value: every matmul runs on
    /// the deterministic threadpool ([`aptq_tensor::parallel`]).
    pub fn backward(
        &self,
        cache: &AttentionCache,
        dy: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, AttentionGrads) {
        let t = cache.x.rows();
        let d_model = self.wq.d_in();
        assert_eq!(
            dy.shape(),
            (t, d_model),
            "attention backward: dy shape mismatch"
        );

        // O projection.
        let (dconcat, dwo) = self.wo.backward(&cache.concat, dy);

        let mut dq = Matrix::zeros(t, d_model);
        let mut dk = Matrix::zeros(t, d_model);
        let mut dv = Matrix::zeros(t, d_model);

        for h in 0..self.n_heads {
            let lo = h * self.d_head;
            let hi = lo + self.d_head;
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

        let (dx_q, dwq) = self.wq.backward(&cache.x, &dq);
        let (dx_k, dwk) = self.wk.backward(&cache.x, &dk);
        let (dx_v, dwv) = self.wv.backward(&cache.x, &dv);

        let mut dx = dx_q;
        dx.add_assign(&dx_k);
        dx.add_assign(&dx_v);

        (dx, AttentionGrads { dwq, dwk, dwv, dwo })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The per-head full-matrix forward the causal row kernel replaced,
    /// kept verbatim as its bit-exact oracle.
    fn forward_oracle(
        attn: &MultiHeadAttention,
        x: &Matrix,
        rope: &RopeTable,
    ) -> (Matrix, AttentionCache) {
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

    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// `forward`'s output and every cache field against the oracle, bit
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
            let (y, cache) = attn.forward(&x, &rope);
            let (want_y, want) = forward_oracle(&attn, &x, &rope);
            let what = format!("d={d_model} heads={n_heads} T={t} amp={amp}");
            assert_bits(&y, &want_y, &format!("{what}: output"));
            assert_bits(&cache.x, &want.x, &format!("{what}: x"));
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
        let (y, cache) = attn.forward(&x, &rope);
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
        let (y1, _) = attn.forward(&x, &rope);
        let mut x2 = x.clone();
        for v in x2.row_mut(5) {
            *v += 10.0;
        }
        let (y2, _) = attn.forward(&x2, &rope);
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
        let (_, cache) = attn.forward(&x, &rope);
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
        let (_, cache) = attn.forward(&x, &rope);
        for p in &cache.probs {
            assert!((p[(0, 0)] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_input() {
        let (attn, x, rope) = setup(4, 8, 2, 4);
        let dy = init::normal(4, 8, 1.0, &mut init::rng(5));
        let (_, cache) = attn.forward(&x, &rope);
        let (dx, _) = attn.backward(&cache, &dy, &rope);
        let loss = |x: &Matrix| attn.forward(x, &rope).0.hadamard(&dy).sum();
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
        let (_, cache) = attn.forward(&x, &rope);
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
            let lp = attn.forward(&x, &rope).0.hadamard(&dy).sum();
            weight_mut(&mut attn, which)[(i, j)] = orig - eps;
            let lm = attn.forward(&x, &rope).0.hadamard(&dy).sum();
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
        let (y, cache) = attn.forward(&x, &rope);
        assert_eq!(y.shape(), (1, 8));
        assert!((cache.probs[0][(0, 0)] - 1.0).abs() < 1e-6);
    }
}
