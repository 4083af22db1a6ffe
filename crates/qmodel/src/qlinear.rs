//! A linear layer executing directly from packed sub-byte storage.

use aptq_artifact::Fnv64;
use aptq_core::grid::GridKind;
use aptq_core::pack::{unpack_codes_at_into, PackedTensor};
use aptq_lm::LinearOp;
use aptq_obs::Recorder;
use aptq_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A bias-free linear layer whose weights live in a [`PackedTensor`].
///
/// The forward ([`LinearOp::forward_into`]) never materializes the full
/// fp32 weight matrix: it streams
/// one input-dimension group at a time — unpack the group's codes,
/// dequantize into a `group_size × d_out` scratch, accumulate the
/// partial product — so peak extra memory is one group's worth of f32,
/// matching how an edge runtime would execute.
///
/// # Example
///
/// ```
/// use aptq_core::engine::quantize_layer_rtn;
/// use aptq_core::grid::{GridConfig, QuantGrid};
/// use aptq_lm::LinearOp;
/// use aptq_qmodel::QuantizedLinear;
/// use aptq_tensor::Matrix;
///
/// let w = Matrix::from_fn(8, 4, |i, j| (i as f32 - j as f32) * 0.1);
/// let res = quantize_layer_rtn(&w, QuantGrid::int(4, true), &GridConfig::default());
/// let qlin = QuantizedLinear::new(res.packed);
/// let x = Matrix::from_fn(3, 8, |i, j| (i + j) as f32 * 0.05);
/// let y = qlin.forward_op(&x, None);
/// // Identical to multiplying by the dequantized weights.
/// let want = x.matmul(&res.dequantized);
/// assert_eq!(y, want);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedLinear {
    packed: PackedTensor,
}

impl QuantizedLinear {
    /// Wraps a packed tensor.
    pub fn new(packed: PackedTensor) -> Self {
        QuantizedLinear { packed }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.packed.d_in
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.packed.d_out
    }

    /// Storage bytes (codes + group metadata).
    pub fn storage_bytes(&self) -> usize {
        self.packed.storage_bytes()
    }

    /// Nominal code bits per weight.
    pub fn bits(&self) -> u8 {
        self.packed.grid.bits()
    }

    /// The underlying packed tensor.
    pub fn packed(&self) -> &PackedTensor {
        &self.packed
    }

    /// FNV-1a fingerprint over everything that determines this layer's
    /// forward: shape, group size, grid bit-width, packed code bytes and
    /// per-group dequantization parameters. Any single-bit corruption of
    /// the packed storage changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.eat_u64(self.packed.d_in as u64);
        h.eat_u64(self.packed.d_out as u64);
        h.eat_u64(self.packed.group_size as u64);
        h.eat_u64(u64::from(self.packed.grid.bits()));
        h.eat_bytes(&self.packed.data);
        for p in &self.packed.params {
            h.eat_word(u64::from(p.scale.to_bits()));
            h.eat_u64(p.zero as u64);
        }
        h.finish()
    }

    /// Fault-injection hook: XORs `mask` into one packed code byte
    /// (index taken modulo the code-stream length, so any index is
    /// safe). Returns `true` if a byte actually changed — `false` for an
    /// empty code stream or a zero mask. Never panics.
    pub fn corrupt_packed_byte(&mut self, byte_index: usize, mask: u8) -> bool {
        if self.packed.data.is_empty() || mask == 0 {
            return false;
        }
        let idx = byte_index % self.packed.data.len();
        self.packed.data[idx] ^= mask;
        true
    }

    /// Whether the grid is one of the integer families (sanity queries
    /// for reports).
    pub fn is_integer_grid(&self) -> bool {
        matches!(self.packed.grid.kind(), GridKind::Int { .. })
    }
}

impl LinearOp for QuantizedLinear {
    fn d_in(&self) -> usize {
        QuantizedLinear::d_in(self)
    }

    fn d_out(&self) -> usize {
        QuantizedLinear::d_out(self)
    }

    /// Group-streamed packed forward into the caller buffer: zero
    /// `out`, then for each input-dimension group unpack its codes,
    /// dequantize them into a `group_size × d_out` scratch and
    /// accumulate the partial product.
    ///
    /// Records under `qmodel/qlinear/…`: forward calls, groups and codes
    /// unpacked, multiply-accumulates, and `fallback_entries` — the
    /// count of groups that had to re-unpack the whole code stream.
    /// Since the bit-offset unpacker ([`unpack_codes_at_into`]) removed
    /// that path, the counter is materialized at 0 so telemetry
    /// consumers can assert its absence rather than infer it.
    ///
    /// Row-independent by construction: each output row accumulates its
    /// own group partials in the same (g ascending, ri ascending) order
    /// regardless of batch size, so 1-row incremental decode is
    /// bit-identical to the full-sequence forward.
    ///
    /// # Determinism
    ///
    /// Single-threaded scalar loops: output and counters are
    /// bit-identical at any `APTQ_THREADS` value.
    ///
    /// # HotPath
    ///
    /// Allocation budget: one group-sized dequantization scratch and
    /// one group-sized code buffer per call; the streaming group loop
    /// is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in` or `out` is not `(x.rows(), d_out)`.
    fn forward_into(&self, x: &Matrix, out: &mut Matrix, mut rec: Option<&mut Recorder>) {
        let d_in = self.packed.d_in;
        let d_out = self.packed.d_out;
        assert_eq!(x.cols(), d_in, "QuantizedLinear: input width mismatch");
        assert_eq!(
            out.shape(),
            (x.rows(), d_out),
            "QuantizedLinear: output buffer shape mismatch"
        );
        let t = x.rows();
        let group = self.packed.group_size;
        let grid = self.packed.grid;
        out.as_mut_slice().fill(0.0);
        // Group-sized one-shot scratch — the documented budget.
        let mut scratch = vec![0.0f32; group * d_out];
        let mut code_buf = vec![0u8; group * d_out];

        let n_groups = self.packed.n_groups();
        for g in 0..n_groups {
            let r0 = g * group;
            let r1 = (r0 + group).min(d_in);
            let rows = r1 - r0;
            // Unpack this group's code rows directly from their bit
            // offset into the reused buffer. Codes are packed row-major
            // over the whole matrix and rows are byte-aligned only when
            // (d_out × bits) % 8 == 0; `unpack_codes_at_into` handles
            // the misaligned case without re-unpacking the stream from
            // the start, and without a per-group allocation.
            let codes = &mut code_buf[..rows * d_out];
            unpack_codes_at_into(&self.packed.data, grid.bits(), r0 * d_out, codes);
            if let Some(r) = rec.as_deref_mut() {
                r.incr("qmodel/qlinear/groups_unpacked");
                r.add("qmodel/qlinear/codes_unpacked", (rows * d_out) as u64);
            }
            // Dequantize into scratch.
            for (ri, chunk) in codes.chunks(d_out).enumerate() {
                for (c, &code) in chunk.iter().enumerate() {
                    let p = self.packed.params[g * d_out + c];
                    scratch[ri * d_out + c] = grid.dequantize(code, p);
                }
            }
            // Accumulate x[:, r0..r1] × scratch.
            for row in 0..t {
                let x_row = &x.row(row)[r0..r1];
                let y_row = out.row_mut(row);
                for (ri, &xv) in x_row.iter().enumerate() {
                    // audit:allow(fpeq): exact-zero sparsity skip; no tolerance intended
                    if xv == 0.0 {
                        continue;
                    }
                    let w_row = &scratch[ri * d_out..(ri + 1) * d_out];
                    for (yv, &wv) in y_row.iter_mut().zip(w_row.iter()) {
                        *yv += xv * wv;
                    }
                }
            }
        }
        if let Some(r) = rec {
            r.incr("qmodel/qlinear/forward_calls");
            r.add("qmodel/qlinear/macs", (t * d_in * d_out) as u64);
            r.add("qmodel/qlinear/fallback_entries", 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_core::engine::{quantize_layer_obq, quantize_layer_rtn};
    use aptq_core::grid::{GridConfig, QuantGrid};
    use aptq_core::hessian::HessianAccumulator;
    use aptq_tensor::init;

    #[test]
    fn forward_matches_dequantized_matmul_exactly() {
        for bits in [2u8, 3, 4] {
            let mut rng = init::rng(bits as u64);
            let w = init::normal(24, 10, 0.5, &mut rng);
            let cfg = GridConfig {
                group_size: 8,
                ..GridConfig::default()
            };
            let res = quantize_layer_rtn(&w, QuantGrid::int(bits, true), &cfg);
            let qlin = QuantizedLinear::new(res.packed);
            let x = init::normal(5, 24, 1.0, &mut rng);
            let y = qlin.forward_op(&x, None);
            let want = x.matmul(&res.dequantized);
            for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-4, "bits={bits}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_matches_for_obq_quantized_layers() {
        let mut rng = init::rng(9);
        let x_cal = init::normal(40, 16, 1.0, &mut rng);
        let mut acc = HessianAccumulator::new(16);
        acc.update(&x_cal);
        let w = init::normal(16, 12, 0.4, &mut rng);
        let cfg = GridConfig {
            group_size: 8,
            ..GridConfig::default()
        };
        let res =
            quantize_layer_obq("t", &w, &acc.finish(), QuantGrid::int(4, true), &cfg).unwrap();
        let qlin = QuantizedLinear::new(res.packed);
        let x = init::normal(3, 16, 1.0, &mut rng);
        let y = qlin.forward_op(&x, None);
        let want = x.matmul(&res.dequantized);
        for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn odd_group_boundaries_still_correct() {
        // d_out=5, bits=2 → group rows are not byte-aligned; exercises
        // the bit-offset unpacker.
        let mut rng = init::rng(11);
        let w = init::normal(12, 5, 0.5, &mut rng);
        let cfg = GridConfig {
            group_size: 4,
            ..GridConfig::default()
        };
        let res = quantize_layer_rtn(&w, QuantGrid::int(2, true), &cfg);
        let qlin = QuantizedLinear::new(res.packed);
        let x = init::normal(2, 12, 1.0, &mut rng);
        let y = qlin.forward_op(&x, None);
        let want = x.matmul(&res.dequantized);
        for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn misaligned_groups_match_dequantized_matmul_and_never_fall_back() {
        // Odd d_out at every sub-byte width: group rows land at bit
        // offsets that straddle bytes ((r0·d_out·bits) % 8 ≠ 0 for most
        // groups). The forward must agree with the dequantized matmul,
        // touch each code exactly once, and never take a re-unpack
        // fallback (the counter exists so this stays asserted, not
        // assumed).
        for bits in [2u8, 3, 4] {
            let (d_in, d_out) = (20, 7);
            let mut rng = init::rng(100 + bits as u64);
            let w = init::normal(d_in, d_out, 0.5, &mut rng);
            let cfg = GridConfig {
                group_size: 4,
                ..GridConfig::default()
            };
            let res = quantize_layer_rtn(&w, QuantGrid::int(bits, true), &cfg);
            let qlin = QuantizedLinear::new(res.packed);
            let x = init::normal(3, d_in, 1.0, &mut rng);
            let mut rec = Recorder::new();
            let y = qlin.forward_op(&x, Some(&mut rec));
            let want = x.matmul(&res.dequantized);
            for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-4, "bits={bits}: {a} vs {b}");
            }
            assert_eq!(rec.get("qmodel/qlinear/fallback_entries"), 0);
            assert_eq!(
                rec.get("qmodel/qlinear/codes_unpacked"),
                (d_in * d_out) as u64,
                "bits={bits}: each code must be unpacked exactly once"
            );
            assert_eq!(rec.get("qmodel/qlinear/groups_unpacked"), 5);
            assert_eq!(rec.get("qmodel/qlinear/forward_calls"), 1);
        }
    }

    #[test]
    fn metadata_accessors() {
        let w = Matrix::from_fn(8, 4, |i, j| (i * 4 + j) as f32 * 0.01);
        let res = quantize_layer_rtn(&w, QuantGrid::int(4, true), &GridConfig::default());
        let qlin = QuantizedLinear::new(res.packed);
        assert_eq!(qlin.d_in(), 8);
        assert_eq!(qlin.d_out(), 4);
        assert_eq!(qlin.bits(), 4);
        assert!(qlin.is_integer_grid());
        assert!(qlin.storage_bytes() > 0);
    }
}
