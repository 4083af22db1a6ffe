//! Seeded hygiene violations (A003, A004, H003). Never compiled.

// A003: a public function asserts, and its doc comment has no panic
// section.
pub fn checked(n: usize) -> usize {
    assert!(n > 0);
    n
}

// A004: `unsafe` outside the allowlist.
pub fn deref(p: *const u8) -> u8 {
    unsafe { *p }
}

/// H003: a lock/I-O site inside a hot closure.
///
/// # HotPath
/// budget: zero allocations on the steady-state path.
pub fn logging_hot_root() {
    println!("token");
}
