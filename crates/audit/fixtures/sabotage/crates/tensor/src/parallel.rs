//! The fixture's parallel module: every item defined here seeds D006's
//! reachability, exactly as `aptq_tensor::parallel` does in the real
//! workspace.

/// # Determinism
///
/// Index-ordered: results come back in job order.
pub fn run_indexed(n: usize) -> usize {
    n
}
