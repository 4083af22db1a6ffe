//! Seeded differential test of the packed forward: for every grid,
//! width, group size and batch height below, `QuantizedLinear`'s
//! tile-streamed forward must equal `x · dequantize()` bit for bit, and
//! its unpacking counters must equal one pass over the code stream.
//!
//! The shapes straddle the forward's tiles on purpose: `d_out = 130`
//! is wider than one column tile, group 48 spans two row chunks, and
//! `d_in = 53` leaves a short last group at every group size. Odd
//! `d_out` puts most rows at bit offsets inside a byte, so the aligned
//! byte decoder and the bit-offset unpacker both run.
//!
//! Runs in the CI determinism loop in release as well as debug, since
//! the tiled loops only auto-vectorize in optimized builds.

use aptq_core::engine::quantize_layer_rtn;
use aptq_core::grid::{GridConfig, QuantGrid};
use aptq_lm::LinearOp;
use aptq_obs::Recorder;
use aptq_qmodel::QuantizedLinear;
use aptq_tensor::{init, Matrix};

const D_IN: usize = 53;

fn grids() -> Vec<QuantGrid> {
    let mut grids = Vec::new();
    for bits in [2u8, 3, 4, 8] {
        grids.push(QuantGrid::int(bits, false));
        grids.push(QuantGrid::int(bits, true));
    }
    grids.push(QuantGrid::binary());
    grids.push(QuantGrid::fp4());
    grids
}

/// A seeded `t × D_IN` input in which every fifth entry is an exact
/// zero, alternating sign, so the kernel's zero skip runs.
fn input(t: usize, seed: u64) -> Matrix {
    let mut x = init::normal(t, D_IN, 1.0, &mut init::rng(seed));
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        if i % 5 == 0 {
            *v = if (i / 5).is_multiple_of(2) { 0.0 } else { -0.0 };
        }
    }
    x
}

#[test]
fn packed_forward_is_bit_identical_to_dequantized_matmul() {
    let mut seed = 0u64;
    for grid in grids() {
        for d_out in [7usize, 37, 81, 130] {
            for group_size in [1usize, 4, 32, 48] {
                seed += 1;
                let w = init::normal(D_IN, d_out, 0.4, &mut init::rng(seed));
                let cfg = GridConfig {
                    group_size,
                    ..GridConfig::default()
                };
                let res = quantize_layer_rtn(&w, grid, &cfg);
                let dense = res.packed.dequantize();
                let n_groups = res.packed.n_groups();
                let qlin = QuantizedLinear::new(res.packed);
                for t in [1usize, 3, 8, 17] {
                    let x = input(t, seed * 31 + t as u64);
                    let want = x.matmul(&dense);
                    let mut got = Matrix::filled(t, d_out, f32::NAN);
                    let mut rec = Recorder::new();
                    qlin.forward_into(&x, &mut got, Some(&mut rec));
                    let case = format!("{grid:?} d_out={d_out} group={group_size} t={t}");
                    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{case}: element {i}: {a} vs {b}");
                    }
                    assert_eq!(
                        rec.get("qmodel/qlinear/groups_unpacked"),
                        n_groups as u64,
                        "{case}"
                    );
                    assert_eq!(
                        rec.get("qmodel/qlinear/codes_unpacked"),
                        (D_IN * d_out) as u64,
                        "{case}"
                    );
                    assert_eq!(rec.get("qmodel/qlinear/macs"), (t * D_IN * d_out) as u64);
                    assert_eq!(rec.get("qmodel/qlinear/forward_calls"), 1);
                }
            }
        }
    }
}

#[test]
fn packed_forward_of_zero_rows_leaves_an_empty_output() {
    let w = init::normal(D_IN, 9, 0.4, &mut init::rng(5));
    let res = quantize_layer_rtn(&w, QuantGrid::int(4, true), &GridConfig::default());
    let qlin = QuantizedLinear::new(res.packed);
    let y = qlin.forward_op(&Matrix::zeros(0, D_IN), None);
    assert_eq!(y.shape(), (0, 9));
}
