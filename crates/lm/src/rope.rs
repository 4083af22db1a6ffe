//! Rotary position embeddings (RoPE) with exact backward.
//!
//! RoPE rotates each consecutive coordinate pair `(x₂ᵢ, x₂ᵢ₊₁)` of a
//! query/key head vector by a position-dependent angle
//! `θᵢ(pos) = pos · base^(−2i/d_head)`. The rotation is orthogonal, so the
//! backward pass is a rotation by the opposite angle.

use serde::{Deserialize, Serialize};

/// Precomputed cos/sin tables for rotary position embeddings.
///
/// # Example
///
/// ```
/// use aptq_lm::rope::RopeTable;
///
/// let rope = RopeTable::new(8, 32, 10_000.0);
/// let mut v = vec![1.0f32; 8];
/// rope.apply_row(&mut v, 0); // position 0 rotates by zero
/// assert!((v[0] - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RopeTable {
    d_head: usize,
    max_seq: usize,
    /// `cos[pos * d_head/2 + i]`
    cos: Vec<f32>,
    /// `sin[pos * d_head/2 + i]`
    sin: Vec<f32>,
}

impl RopeTable {
    /// Builds tables for head dimension `d_head` (must be even) and
    /// positions `0..max_seq`.
    ///
    /// # Panics
    ///
    /// Panics if `d_head` is odd or zero.
    pub fn new(d_head: usize, max_seq: usize, theta: f32) -> Self {
        assert!(
            d_head > 0 && d_head.is_multiple_of(2),
            "RoPE requires even, positive d_head"
        );
        let half = d_head / 2;
        let mut cos = Vec::with_capacity(max_seq * half);
        let mut sin = Vec::with_capacity(max_seq * half);
        for pos in 0..max_seq {
            for i in 0..half {
                let freq = theta.powf(-2.0 * i as f32 / d_head as f32);
                let angle = pos as f32 * freq;
                cos.push(angle.cos());
                sin.push(angle.sin());
            }
        }
        RopeTable {
            d_head,
            max_seq,
            cos,
            sin,
        }
    }

    /// Head dimension the table was built for.
    pub fn d_head(&self) -> usize {
        self.d_head
    }

    /// Maximum position (exclusive).
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// Rotates one head vector in place for the given position.
    ///
    /// # HotPath
    ///
    /// Allocation budget: zero — rotation is in place from the
    /// precomputed table.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != d_head` or `pos >= max_seq`.
    pub fn apply_row(&self, row: &mut [f32], pos: usize) {
        assert_eq!(row.len(), self.d_head, "RoPE: row length mismatch");
        assert!(
            pos < self.max_seq,
            "RoPE: position {pos} beyond table {}",
            self.max_seq
        );
        let half = self.d_head / 2;
        let base = pos * half;
        for i in 0..half {
            let c = self.cos[base + i];
            let s = self.sin[base + i];
            let a = row[2 * i];
            let b = row[2 * i + 1];
            row[2 * i] = a * c - b * s;
            row[2 * i + 1] = a * s + b * c;
        }
    }

    /// Rotates every head of a heads-concatenated row (`n · d_head`
    /// wide) in place for the given position.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= max_seq`.
    pub(crate) fn apply_heads(&self, row: &mut [f32], pos: usize) {
        for head in row.chunks_exact_mut(self.d_head) {
            self.apply_row(head, pos);
        }
    }

    /// Inverse rotation (used by the backward pass): rotates by `−θ`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != d_head` or `pos >= max_seq`.
    pub fn apply_row_inverse(&self, row: &mut [f32], pos: usize) {
        assert_eq!(row.len(), self.d_head, "RoPE: row length mismatch");
        assert!(
            pos < self.max_seq,
            "RoPE: position {pos} beyond table {}",
            self.max_seq
        );
        let half = self.d_head / 2;
        let base = pos * half;
        for i in 0..half {
            let c = self.cos[base + i];
            let s = self.sin[base + i];
            let a = row[2 * i];
            let b = row[2 * i + 1];
            row[2 * i] = a * c + b * s;
            row[2 * i + 1] = -a * s + b * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_zero_is_identity() {
        let rope = RopeTable::new(6, 16, 10_000.0);
        let orig = [0.3f32, -0.7, 1.2, 0.4, -0.1, 0.9];
        let mut v = orig;
        rope.apply_row(&mut v, 0);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let rope = RopeTable::new(8, 32, 10_000.0);
        let orig = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let norm0: f32 = orig.iter().map(|v| v * v).sum();
        for pos in [1, 7, 31] {
            let mut v = orig;
            rope.apply_row(&mut v, pos);
            let norm: f32 = v.iter().map(|x| x * x).sum();
            assert!((norm - norm0).abs() < 1e-3, "pos {pos}");
        }
    }

    #[test]
    fn inverse_undoes_rotation() {
        let rope = RopeTable::new(4, 16, 10_000.0);
        let orig = [0.5f32, -1.5, 2.5, 0.1];
        let mut v = orig;
        rope.apply_row(&mut v, 9);
        rope.apply_row_inverse(&mut v, 9);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn relative_position_property() {
        // The defining RoPE property: ⟨R(p)q, R(p+k)x⟩ depends only on k.
        let rope = RopeTable::new(4, 64, 10_000.0);
        let q = [0.8f32, -0.2, 0.5, 1.1];
        let k = [0.3f32, 0.9, -0.4, 0.6];
        let dot_at = |p1: usize, p2: usize| {
            let mut a = q;
            let mut b = k;
            rope.apply_row(&mut a, p1);
            rope.apply_row(&mut b, p2);
            a.iter().zip(b.iter()).map(|(x, y)| x * y).sum::<f32>()
        };
        let d1 = dot_at(0, 5);
        let d2 = dot_at(10, 15);
        let d3 = dot_at(37, 42);
        assert!((d1 - d2).abs() < 1e-4);
        assert!((d2 - d3).abs() < 1e-4);
    }

    #[test]
    fn different_positions_rotate_differently() {
        let rope = RopeTable::new(4, 16, 10_000.0);
        let orig = [1.0f32, 0.0, 1.0, 0.0];
        let mut a = orig;
        let mut b = orig;
        rope.apply_row(&mut a, 1);
        rope.apply_row(&mut b, 2);
        assert!(a.iter().zip(b.iter()).any(|(x, y)| (x - y).abs() > 1e-4));
    }

    #[test]
    #[should_panic(expected = "beyond table")]
    fn position_out_of_range_panics() {
        let rope = RopeTable::new(4, 4, 10_000.0);
        let mut v = [0.0f32; 4];
        rope.apply_row(&mut v, 4);
    }
}
