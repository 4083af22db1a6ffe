//! A linear layer executing directly from packed sub-byte storage.

use aptq_artifact::Fnv64;
use aptq_core::grid::GridKind;
use aptq_core::pack::{unpack_codes_at_into, PackedTensor};
use aptq_lm::LinearOp;
use aptq_obs::Recorder;
use aptq_tensor::num::small_i32_f32;
use aptq_tensor::parallel::matmul_acc;
use aptq_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A bias-free linear layer whose weights live in a [`PackedTensor`].
///
/// The forward ([`LinearOp::forward_into`]) never materializes the full
/// fp32 weight matrix: it streams one stack-resident tile at a time —
/// unpack at most 32 rows × 128 columns of one group's codes, dequantize
/// them, accumulate the partial product — so it allocates nothing on the
/// heap, matching how an edge runtime would execute.
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

    /// Unpacks `out.len()` codes starting at code index `start`. A
    /// byte-aligned segment at 2 or 4 bits decodes whole bytes;
    /// anything else goes through the bit-offset unpacker.
    fn unpack_segment(&self, start: usize, out: &mut [u8]) {
        let data = &self.packed.data;
        match self.packed.grid.bits() {
            2 if start.is_multiple_of(4) => {
                decode_bytes::<2>(&data[start / 4..(start + out.len()).div_ceil(4)], out);
            }
            4 if start.is_multiple_of(2) => {
                decode_bytes::<4>(&data[start / 2..(start + out.len()).div_ceil(2)], out);
            }
            bits => unpack_codes_at_into(data, bits, start, out),
        }
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

    /// Tile-streamed packed forward into the caller buffer: zero
    /// `out`, then walk column tiles × groups × row chunks. Each tile's
    /// codes are unpacked and dequantized into a stack tile of at most
    /// `TILE_ROWS × TILE_COLS` weights, which the shared register-tiled
    /// kernel ([`aptq_tensor::parallel::matmul_acc`]) accumulates into
    /// the tile's output columns.
    ///
    /// Records under `qmodel/qlinear/…`: forward calls, groups and codes
    /// unpacked, multiply-accumulates, and `fallback_entries` — the
    /// count of groups that had to re-unpack the whole code stream.
    /// Since the bit-offset unpacker ([`unpack_codes_at_into`]) removed
    /// that path, the counter is materialized at 0 so telemetry
    /// consumers can assert its absence rather than infer it.
    ///
    /// Bit-identical to `x.matmul(&packed.dequantize())`: each weight
    /// dequantizes to the same float, and each output element
    /// accumulates its terms in input-row order (groups ascending, rows
    /// ascending) with the same exact-zero skip. The result is also
    /// row-independent, so 1-row incremental decode matches the
    /// full-sequence forward.
    ///
    /// # Determinism
    ///
    /// Single-threaded: output and counters are bit-identical at any
    /// `APTQ_THREADS` value.
    ///
    /// # HotPath
    ///
    /// Allocation budget: zero heap allocations; the weight tile, its
    /// codes and the hoisted group parameters live on the stack.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in` or `out` is not `(x.rows(), d_out)`.
    fn forward_into(&self, x: &Matrix, out: &mut Matrix, rec: Option<&mut Recorder>) {
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
        let is_int = matches!(grid.kind(), GridKind::Int { .. });
        let n_groups = self.packed.n_groups();
        out.as_mut_slice().fill(0.0);

        let mut codes = [0u8; TILE_ROWS * TILE_COLS];
        let mut weights = [0.0f32; TILE_ROWS * TILE_COLS];
        let mut zero = [0i32; TILE_COLS];
        let mut scale = [0.0f32; TILE_COLS];
        // With no input rows there is nothing to accumulate (and no row
        // to offset into).
        let col_tiles = if t == 0 { 0 } else { d_out };
        for c0 in (0..col_tiles).step_by(TILE_COLS) {
            let w = TILE_COLS.min(d_out - c0);
            for g in 0..n_groups {
                let params = &self.packed.params[g * d_out + c0..g * d_out + c0 + w];
                for (c, p) in params.iter().enumerate() {
                    zero[c] = p.zero;
                    scale[c] = p.scale;
                }
                let g_end = ((g + 1) * group).min(d_in);
                for r0 in (g * group..g_end).step_by(TILE_ROWS) {
                    let rows = TILE_ROWS.min(g_end - r0);
                    let codes = &mut codes[..rows * w];
                    if w == d_out {
                        // Full-width rows are contiguous in the stream.
                        self.unpack_segment(r0 * d_out, codes);
                    } else {
                        for (ri, code_row) in codes.chunks_exact_mut(w).enumerate() {
                            self.unpack_segment((r0 + ri) * d_out + c0, code_row);
                        }
                    }
                    let rows_iter = weights.chunks_exact_mut(w).zip(codes.chunks_exact(w));
                    if is_int {
                        for (w_row, code_row) in rows_iter {
                            for (((wv, &code), &z), &s) in
                                w_row.iter_mut().zip(code_row).zip(&zero).zip(&scale)
                            {
                                *wv = small_i32_f32(i32::from(code) - z) * s;
                            }
                        }
                    } else {
                        for (w_row, code_row) in rows_iter {
                            for ((wv, &code), &p) in w_row.iter_mut().zip(code_row).zip(params) {
                                *wv = grid.dequantize(code, p);
                            }
                        }
                    }
                    matmul_acc(
                        &x.as_slice()[r0..],
                        d_in,
                        &weights[..rows * w],
                        w,
                        t,
                        &mut out.as_mut_slice()[c0..],
                        d_out,
                    );
                }
            }
        }
        if let Some(r) = rec {
            r.add("qmodel/qlinear/groups_unpacked", n_groups as u64);
            r.add("qmodel/qlinear/codes_unpacked", (d_in * d_out) as u64);
            r.incr("qmodel/qlinear/forward_calls");
            r.add("qmodel/qlinear/macs", (t * d_in * d_out) as u64);
            r.add("qmodel/qlinear/fallback_entries", 0);
        }
    }
}

/// Input rows per dequantized weight tile.
const TILE_ROWS: usize = 32;
/// Output columns per dequantized weight tile.
const TILE_COLS: usize = 128;

/// Decodes `out.len()` `BITS`-wide codes from whole bytes, least
/// significant code first (the [`aptq_core::pack`] layout). `bytes`
/// starts at the segment's first code and ends at the byte holding its
/// last one.
fn decode_bytes<const BITS: usize>(bytes: &[u8], out: &mut [u8]) {
    let split = |byte: u8, codes: &mut [u8]| {
        for (i, code) in codes.iter_mut().enumerate() {
            *code = (byte >> (i * BITS)) & ((1u8 << BITS) - 1);
        }
    };
    let mut chunks = out.chunks_exact_mut(8 / BITS);
    for (chunk, &byte) in (&mut chunks).zip(bytes) {
        split(byte, chunk);
    }
    // A segment that ends mid-byte takes that byte's low codes only.
    let tail = chunks.into_remainder();
    if let Some(&byte) = bytes.last().filter(|_| !tail.is_empty()) {
        split(byte, tail);
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
            assert_eq!(y, want, "bits={bits}");
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
        assert_eq!(y, want);
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
        assert_eq!(y, want);
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
            assert_eq!(y, want, "bits={bits}");
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
