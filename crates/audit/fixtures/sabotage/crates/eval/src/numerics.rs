//! Seeded numerical-safety violations (N001-N004). Never compiled.

// N001: bare float equality.
fn is_half(x: f32) -> bool {
    x == 0.5
}

// N002: a naive float reduction.
fn total(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>()
}

// N003: an unguarded division.
fn ratio(a: f32, b: f32) -> f32 {
    a / b
}

// N004: an unclamped transcendental.
fn grow(x: f32) -> f32 {
    x.exp()
}
