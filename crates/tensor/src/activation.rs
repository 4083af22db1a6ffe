//! Numerically stable nonlinearities and their derivatives.
//!
//! The softmax here is the nonlinearity the APTQ paper singles out: the
//! attention-aware Hessians of §3.2 route gradients through the per-row
//! softmax Jacobian `diag(p) − p·pᵀ`, which [`softmax_jvp_row`]
//! implements.

use crate::Matrix;

/// In-place row-wise softmax with max-subtraction for stability.
///
/// Each row of `m` is replaced by `exp(x − max)/Σexp(x − max)`.
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for i in 0..m.rows() {
        let row = m.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        // audit:allow(div): max-shifted exp sum ≥ 1 (the max element contributes exp(0))
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Returns the row-wise softmax of `m` without modifying it.
pub fn softmax(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows(&mut out);
    out
}

/// Jacobian-vector product of softmax for one row.
///
/// Given probabilities `p = softmax(z)` and a perturbation `dz`, returns
/// `J·dz` where `J = diag(p) − p·pᵀ`:
/// `(J·dz)ᵢ = pᵢ·(dzᵢ − Σⱼ pⱼ·dzⱼ)`.
///
/// # Panics
///
/// Panics if `p.len() != dz.len()`.
pub fn softmax_jvp_row(p: &[f32], dz: &[f32]) -> Vec<f32> {
    assert_eq!(p.len(), dz.len(), "softmax_jvp_row: length mismatch");
    let dot: f32 = p.iter().zip(dz.iter()).map(|(&a, &b)| a * b).sum();
    p.iter()
        .zip(dz.iter())
        .map(|(&pi, &di)| pi * (di - dot))
        .collect()
}

/// Vector-Jacobian product of softmax for one row.
///
/// Softmax's Jacobian is symmetric, so this equals [`softmax_jvp_row`];
/// provided under both names so call sites read naturally.
pub fn softmax_vjp_row(p: &[f32], dy: &[f32]) -> Vec<f32> {
    softmax_jvp_row(p, dy)
}

/// SiLU (swish) activation `x·σ(x)` applied element-wise.
pub fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// Elements of [`silu_mul_into`]'s exponent buffer, on the stack.
const SILU_CHUNK: usize = 64;

/// `gate[i] = silu(gate[i]) · up[i]`, bit for bit as [`silu`] then the
/// product, in two passes per chunk of [`SILU_CHUNK`] elements.
///
/// [`sigmoid`] branches on the sign of `x`: `1 / (1 + e)` with
/// `e = exp(−x)` for `x ≥ 0`, `e / (1 + e)` with `e = exp(x)` otherwise.
/// The first pass makes every `e` with one libm `exp` call each, of
/// `−x` or `x` picked by the same test; the second forms
/// `(x ≥ 0 ? 1 : e) / (1 + e)`, `x ·` that and `· up` without a branch,
/// so it vectorizes and a sign-mixed gate row costs no mispredictions.
/// The float operations and their operands are [`silu`]'s.
///
/// # Panics
///
/// Panics if `gate` and `up` differ in length.
///
/// # HotPath
///
/// Allocation budget: zero allocations.
pub fn silu_mul_into(gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len(), "silu_mul_into: length mismatch");
    let mut e = [0.0f32; SILU_CHUNK];
    for (g, u) in gate.chunks_mut(SILU_CHUNK).zip(up.chunks(SILU_CHUNK)) {
        let e = &mut e[..g.len()];
        for (e, &x) in e.iter_mut().zip(g.iter()) {
            *e = (if x >= 0.0 { -x } else { x }).exp();
        }
        for ((x, &e), &u) in g.iter_mut().zip(e.iter()).zip(u) {
            let num = if *x >= 0.0 { 1.0 } else { e };
            *x = *x * (num / (1.0 + e)) * u;
        }
    }
}

/// Derivative of SiLU: `σ(x)·(1 + x·(1 − σ(x)))`.
pub fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

/// Logistic sigmoid `1/(1+e⁻ˣ)`, stable for large |x|.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// GELU activation (tanh approximation).
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Log-sum-exp of a slice with max subtraction.
///
/// Returns `-inf` for an empty slice.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f32 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Row-wise log-softmax, numerically stable.
pub fn log_softmax(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let lse = log_sum_exp(row);
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
    out
}

/// Cross-entropy loss for one row of logits against a target index.
///
/// Returns `−log softmax(logits)[target]`.
///
/// # Panics
///
/// Panics if `target >= logits.len()`.
pub fn cross_entropy_row(logits: &[f32], target: usize) -> f32 {
    assert!(
        target < logits.len(),
        "cross_entropy_row: target out of range"
    );
    log_sum_exp(logits) - logits[target]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        softmax_rows(&mut m);
        for i in 0..2 {
            let s: f32 = m.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(m.row(i).iter().all(|&p| p > 0.0 && p < 1.0));
        }
        // Monotone in the logits.
        assert!(m[(0, 2)] > m[(0, 1)] && m[(0, 1)] > m[(0, 0)]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = softmax(&Matrix::from_rows(&[&[1001.0, 1002.0]]));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(b.all_finite());
    }

    #[test]
    fn softmax_jvp_matches_finite_difference() {
        let z = [0.3f32, -1.2, 0.8, 2.0];
        let dz = [0.11f32, -0.07, 0.23, -0.05];
        let p = softmax(&Matrix::from_rows(&[&z]));
        let jvp = softmax_jvp_row(p.row(0), &dz);
        let eps = 1e-3f32;
        let zp: Vec<f32> = z.iter().zip(dz.iter()).map(|(a, d)| a + eps * d).collect();
        let zm: Vec<f32> = z.iter().zip(dz.iter()).map(|(a, d)| a - eps * d).collect();
        let pp = softmax(&Matrix::from_rows(&[&zp]));
        let pm = softmax(&Matrix::from_rows(&[&zm]));
        for k in 0..4 {
            let fd = (pp[(0, k)] - pm[(0, k)]) / (2.0 * eps);
            assert!((jvp[k] - fd).abs() < 1e-3, "k={k}: {} vs {fd}", jvp[k]);
        }
    }

    #[test]
    fn softmax_jvp_output_sums_to_zero() {
        // J·dz lives in the tangent space of the simplex.
        let p = [0.1f32, 0.2, 0.3, 0.4];
        let dz = [1.0f32, -2.0, 0.5, 3.0];
        let out = softmax_jvp_row(&p, &dz);
        let s: f32 = out.iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn sigmoid_silu_sane() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!(sigmoid(-1000.0).is_finite());
        assert!((silu(0.0)).abs() < 1e-6);
        assert!(silu(5.0) > 4.9);
    }

    #[test]
    fn oracle_silu_mul_into_matches_silu() {
        // Every 65 521st bit pattern of `g` (all exponents and signs,
        // NaNs included) plus specials, each against several `u`: the
        // two-pass kernel equals `silu(g) * u` bit for bit. Lengths cut
        // the chunks unevenly. A NaN result need only be NaN: Rust leaves
        // the payload and sign of a NaN an operation returns unspecified
        // (with two NaN operands, x86 returns whichever the compiler
        // placed first).
        let mut gs: Vec<f32> = (0..=u32::MAX / 65_521)
            .map(|i| f32::from_bits(i * 65_521))
            .collect();
        gs.extend([
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fa0_0001),
            f32::from_bits(0xffc0_1234),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 3.0,
            -f32::MIN_POSITIVE / 7.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            88.7,
            -88.7,
            104.0,
            -104.0,
        ]);
        let us = [1.0f32, -0.75, 3.0e5, -2.0e-38, 0.0, f32::NAN];
        for (ui, &u0) in us.iter().enumerate() {
            let u: Vec<f32> = (0..gs.len())
                .map(|i| if i % 3 == 0 { u0 } else { u0 * (i % 11) as f32 })
                .collect();
            let len = gs.len() - ui * 13;
            let mut got = gs[..len].to_vec();
            silu_mul_into(&mut got, &u[..len]);
            for ((&g, &u), &y) in gs.iter().zip(&u).zip(&got) {
                let want = silu(g) * u;
                assert!(
                    y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
                    "g={g:e} ({:#x}) u={u:e}: {y:e} vs {want:e}",
                    g.to_bits()
                );
            }
        }
    }

    #[test]
    fn silu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -0.5, 0.0, 0.7, 2.5] {
            let eps = 1e-3;
            let fd = (silu(x + eps) - silu(x - eps)) / (2.0 * eps);
            assert!((silu_grad(x) - fd).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn gelu_limits() {
        assert!(gelu(10.0) > 9.99);
        assert!(gelu(-10.0).abs() < 1e-3);
        assert!(gelu(0.0).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_stable() {
        assert!((log_sum_exp(&[0.0, 0.0]) - std::f32::consts::LN_2).abs() < 1e-6);
        let big = log_sum_exp(&[1000.0, 1000.0]);
        assert!((big - (1000.0 + std::f32::consts::LN_2)).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let m = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
        let ls = log_softmax(&m);
        let s = softmax(&m);
        for j in 0..3 {
            assert!((ls[(0, j)].exp() - s[(0, j)]).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let logits = [2.0f32, 0.0, -1.0];
        let l0 = cross_entropy_row(&logits, 0);
        let l2 = cross_entropy_row(&logits, 2);
        assert!(l0 < l2);
        assert!(l0 > 0.0);
    }
}
