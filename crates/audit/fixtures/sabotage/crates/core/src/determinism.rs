//! Seeded determinism violations (D001-D006) and the E002 contract
//! breach. Never compiled.

use std::collections::HashMap;

// D001: a thread spawn outside the parallel module.
fn fan_out() {
    std::thread::spawn(|| {});
}

// D002: an environment read outside the config module.
fn knob() -> Option<String> {
    std::env::var("APTQ_KNOB").ok()
}

// D003: an order-randomized collection in library code.
fn counts() -> usize {
    let m: HashMap<u32, u32> = Default::default();
    m.len()
}

// D004: a wall-clock read in library code.
fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

// D005: mutable global state.
static mut HITS: u64 = 0;

/// E002: the contract promises determinism, the callee reads the clock.
///
/// # Determinism
///
/// Bit-identical, allegedly.
pub fn seeded() -> u64 {
    stamp();
    0
}

// D006: a public function reaching the parallel module with no
// determinism section in its doc comment.
pub fn undocumented_parallel(n: usize) -> usize {
    aptq_tensor::parallel::run_indexed(n)
}
