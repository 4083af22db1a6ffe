//! Debug-build numerical invariants — the runtime side of the audit.
//!
//! The static pass (`aptq-audit`) keeps panics and lossy casts out of
//! the source; this module keeps the *numbers* honest while tests and
//! debug binaries run. Every check compiles to nothing in release
//! builds (`cfg!(debug_assertions)`), so the quantization hot paths pay
//! zero cost in `--release`.
//!
//! Invariant catalog (paper references in parentheses):
//!
//! | # | Invariant | Where wired | Why it must hold |
//! |---|-----------|-------------|------------------|
//! | I1 | Hessian symmetry `H = Hᵀ` | [`crate::hessian::HessianAccumulator::finish`], [`crate::hessian::LayerHessian::damped`] | `H = 2·ΣX̃ᵀX̃` (Eq. 7) is a sum of Gram matrices |
//! | I2 | Hessian finiteness | same | a single NaN token poisons every OBQ update downstream |
//! | I3 | Damped diagonal positivity | [`crate::hessian::LayerHessian::damped`] | `H + λ·mean(diag H)·I` must be Cholesky-factorizable (§3.2 dampening) |
//! | I4 | Budget conservation (Eq. 18) | [`crate::mixed::MixedPrecisionAllocator::allocate`] | achieved average bits must sit in `[b̄, b̄ + Δb·s_max]` for target `b̄ = 4R + 2(1−R)` and largest layer share `s_max` |
//! | I5 | Allocation monotonicity | same | under the Hessian-trace policy, every high-bit layer must be at least as sensitive as every low-bit layer (§3.3) |
//! | I6 | Pack round-trip identity | [`crate::pack::PackedTensor::from_codes`] | `unpack(pack(codes)) == codes` — storage must be lossless over codes |

use aptq_tensor::Matrix;

use crate::plan::QuantPlan;
use crate::trace::SensitivityReport;

/// True when invariant checks are active (debug builds and tests).
pub const ENABLED: bool = cfg!(debug_assertions);

/// Relative tolerance for symmetry: the Gram accumulation is exact in
/// exact arithmetic; blocked f32 kernels reorder sums, so entries can
/// drift by a few ulps of the largest entry.
const SYMMETRY_RTOL: f32 = 1e-4;

/// I1 + I2: the Hessian must be finite and symmetric.
///
/// # Panics
///
/// In debug builds, panics if any entry is non-finite or the matrix is
/// asymmetric beyond `SYMMETRY_RTOL` of its largest entry. No-op in
/// release builds.
pub fn hessian_well_formed(h: &Matrix, ctx: &str) {
    if !ENABLED {
        return;
    }
    let n = h.rows();
    let tol = SYMMETRY_RTOL * h.abs_max().max(1.0);
    for i in 0..n {
        for j in 0..=i {
            let v = h[(i, j)];
            assert!(
                v.is_finite(),
                "{ctx}: H[{i},{j}] = {v} is not finite (invariant I2)"
            );
            let d = (v - h[(j, i)]).abs();
            assert!(
                d <= tol,
                "{ctx}: H[{i},{j}] = {v} vs H[{j},{i}] = {} breaks symmetry by {d} (invariant I1)",
                h[(j, i)]
            );
        }
    }
}

/// I3: after Levenberg–Marquardt dampening the diagonal must be
/// strictly positive — otherwise the Cholesky factorization the OBQ
/// update relies on cannot succeed.
///
/// # Panics
///
/// In debug builds, panics if any diagonal entry is not strictly
/// positive or not finite. No-op in release builds.
pub fn damped_diagonal_positive(h: &Matrix, ctx: &str) {
    if !ENABLED {
        return;
    }
    for i in 0..h.rows() {
        let d = h[(i, i)];
        assert!(
            d.is_finite() && d > 0.0,
            "{ctx}: damped diagonal H[{i},{i}] = {d} must be strictly positive (invariant I3)"
        );
    }
}

/// I4: Eq. 18 budget conservation. For a target high-bit ratio `R` the
/// paper's average is `b̄ = high·R + low·(1−R)`; the greedy layer-wise
/// cover can only overshoot by the share of its last-added layer, so
/// the achieved average must land in `[b̄ − ε, b̄ + (high−low)·s_max + ε]`
/// where `s_max` is the largest single layer's weight share.
///
/// # Panics
///
/// In debug builds, panics if `avg_bits` falls outside the band. No-op
/// in release builds.
pub fn budget_conserved(
    avg_bits: f32,
    high_bits: u8,
    low_bits: u8,
    ratio: f32,
    max_layer_share: f32,
    ctx: &str,
) {
    if !ENABLED {
        return;
    }
    let target = f32::from(high_bits) * ratio + f32::from(low_bits) * (1.0 - ratio);
    let overshoot = f32::from(high_bits - low_bits) * max_layer_share;
    assert!(
        avg_bits >= target - 1e-4,
        "{ctx}: avg bits {avg_bits} below Eq.18 target {target} (invariant I4)"
    );
    assert!(
        avg_bits <= target + overshoot + 1e-4,
        "{ctx}: avg bits {avg_bits} exceeds Eq.18 target {target} + one-layer overshoot \
         {overshoot} (invariant I4)"
    );
}

/// I5: under the Hessian-trace policy the high-bit set must be a prefix
/// of the sensitivity ranking — equivalently, the assignment is monotone
/// in Hessian trace: no low-bit layer may out-rank a high-bit layer.
///
/// # Panics
///
/// In debug builds, panics if a high-bit layer appears after a low-bit
/// layer in the descending-trace order. No-op in release builds.
pub fn allocation_monotone(
    plan: &QuantPlan,
    sensitivity: &SensitivityReport,
    high_bits: u8,
    ctx: &str,
) {
    if !ENABLED {
        return;
    }
    let mut seen_low = false;
    for e in sensitivity.entries() {
        let high = plan.bits_for(e.layer) == Some(high_bits);
        if high {
            assert!(
                !seen_low,
                "{ctx}: layer {:?} is high-bit but a more sensitive layer was low-bit \
                 (invariant I5)",
                e.layer
            );
        } else {
            seen_low = true;
        }
    }
}

/// I6: packed storage must be lossless over codes.
///
/// # Panics
///
/// In debug builds, panics if unpacking `data` does not reproduce
/// `codes` exactly. No-op in release builds.
pub fn pack_roundtrip(codes: &[u8], data: &[u8], bits: u8, ctx: &str) {
    if !ENABLED {
        return;
    }
    let back = crate::pack::unpack_codes(data, bits, codes.len());
    assert!(
        back == codes,
        "{ctx}: unpack(pack(codes)) != codes at {bits} bits (invariant I6)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack_codes;

    /// Reached only when a violating call returned instead of
    /// panicking, which the module contract allows in release builds
    /// alone, where every check compiles out. The assertion is constant
    /// per build profile by design.
    #[allow(clippy::assertions_on_constants)]
    fn assert_compiled_out() {
        assert!(
            !ENABLED,
            "an enabled invariant check let a violation through"
        );
    }

    #[test]
    fn symmetric_finite_hessian_passes() {
        let h = Matrix::from_fn(3, 3, |i, j| (i + j) as f32);
        hessian_well_formed(&h, "test");
        damped_diagonal_positive(
            &Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 }),
            "test",
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant I1"))]
    fn asymmetry_is_caught() {
        let mut h = Matrix::zeros(2, 2);
        h[(0, 1)] = 1.0;
        h[(1, 0)] = -1.0;
        hessian_well_formed(&h, "test");
        assert_compiled_out();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant I2"))]
    fn nan_is_caught() {
        let mut h = Matrix::zeros(2, 2);
        h[(1, 0)] = f32::NAN;
        hessian_well_formed(&h, "test");
        assert_compiled_out();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant I3"))]
    fn zero_diagonal_after_damping_is_caught() {
        damped_diagonal_positive(&Matrix::zeros(2, 2), "test");
        assert_compiled_out();
    }

    #[test]
    fn budget_band_is_exact_for_clean_ratios() {
        // Target 3.0 at R = 0.5 for 2/4 bits; share 0.1 allows up to 3.2.
        budget_conserved(3.0, 4, 2, 0.5, 0.1, "test");
        budget_conserved(3.15, 4, 2, 0.5, 0.1, "test");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant I4"))]
    fn budget_undershoot_is_caught() {
        budget_conserved(2.8, 4, 2, 0.5, 0.1, "test");
        assert_compiled_out();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant I4"))]
    fn budget_overshoot_is_caught() {
        budget_conserved(3.5, 4, 2, 0.5, 0.1, "test");
        assert_compiled_out();
    }

    #[test]
    fn pack_roundtrip_check_passes_on_real_packing() {
        let codes: Vec<u8> = (0..33).map(|i| i % 4).collect();
        let data = pack_codes(&codes, 2);
        pack_roundtrip(&codes, &data, 2, "test");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant I6"))]
    fn corrupted_packing_is_caught() {
        let codes: Vec<u8> = (0..16).map(|i| i % 4).collect();
        let mut data = pack_codes(&codes, 2);
        data[0] ^= 0xFF;
        pack_roundtrip(&codes, &data, 2, "test");
        assert_compiled_out();
    }
}
