//! A002: a bare float cast in a hot-path file.

fn code_to_f32(code: u8) -> f32 {
    code as f32
}
