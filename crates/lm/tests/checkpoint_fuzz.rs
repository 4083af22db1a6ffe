//! Seeded fuzzing of checkpoint deserialization: `Model::from_json`
//! and `Model::from_envelope_json` must never panic on truncated,
//! bit-flipped or type-mutated input — every corruption surfaces as a
//! structured `Err(LmError::Checkpoint(..))`.
//!
//! Mutations stay within printable ASCII so the input remains a valid
//! `&str` (byte-level corruption of the file is the chaos suite's
//! job); every fault site derives from one `StdRng` seed, so a failure
//! reproduces exactly.

use aptq_lm::{LmError, Model, ModelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRINTABLE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789{}[]\",:.-+eE ";

fn fixture_jsons() -> (String, String) {
    let model = Model::new(&ModelConfig::test_tiny(16), 17);
    (
        model.to_json().expect("serialize"),
        model.to_envelope_json().expect("seal"),
    )
}

/// Applies one seeded mutation; returns `None` if it happened to be an
/// identity transformation.
fn mutate(text: &str, rng: &mut StdRng) -> Option<String> {
    let bytes = text.as_bytes();
    match rng.gen_range(0..4u32) {
        // Truncate at a random char boundary.
        0 => {
            let mut cut = rng.gen_range(0..bytes.len());
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            (cut < bytes.len()).then(|| text[..cut].to_string())
        }
        // Overwrite one byte with a printable ASCII byte.
        1 => {
            let i = rng.gen_range(0..bytes.len());
            if !bytes[i].is_ascii() {
                return None;
            }
            let replacement = PRINTABLE[rng.gen_range(0..PRINTABLE.len())];
            if replacement == bytes[i] {
                return None;
            }
            let mut out = bytes.to_vec();
            out[i] = replacement;
            String::from_utf8(out).ok()
        }
        // Delete one ASCII byte (structural corruption).
        2 => {
            let i = rng.gen_range(0..bytes.len());
            if !bytes[i].is_ascii() {
                return None;
            }
            let mut out = bytes.to_vec();
            out.remove(i);
            String::from_utf8(out).ok()
        }
        // Type mutation: turn a number into a string/bool/null.
        _ => {
            let start = rng.gen_range(0..bytes.len());
            let hit = (start..bytes.len()).find(|&i| bytes[i].is_ascii_digit())?;
            let end = (hit..bytes.len())
                .find(|&i| !matches!(bytes[i], b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
                .unwrap_or(bytes.len());
            let replacement = ["\"oops\"", "true", "null", "[]"][rng.gen_range(0..4usize)];
            Some(format!("{}{}{}", &text[..hit], replacement, &text[end..]))
        }
    }
}

#[test]
fn envelope_load_never_panics_and_always_rejects_corruption() {
    let (_, envelope) = fixture_jsons();
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let mut rejected = 0usize;
    for _ in 0..300 {
        let Some(mutated) = mutate(&envelope, &mut rng) else {
            continue;
        };
        if mutated == envelope {
            continue;
        }
        match Model::from_envelope_json(&mutated) {
            Err(LmError::Checkpoint(_)) => rejected += 1,
            Err(e) => panic!("wrong error class: {e}"),
            Ok(_) => panic!("corrupted envelope loaded cleanly"),
        }
    }
    assert!(rejected > 200, "only {rejected} mutations exercised");
}

#[test]
fn raw_checkpoint_load_never_panics() {
    let (raw, _) = fixture_jsons();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut rejected = 0usize;
    for _ in 0..300 {
        let Some(mutated) = mutate(&raw, &mut rng) else {
            continue;
        };
        if mutated == raw {
            continue;
        }
        // A raw checkpoint has no checksum: a digit tweak may still
        // decode. The contract is weaker but absolute: Ok or
        // Err(Checkpoint), never a panic, never another error class.
        match Model::from_json(&mutated) {
            Ok(_) => {}
            Err(LmError::Checkpoint(_)) => rejected += 1,
            Err(e) => panic!("wrong error class: {e}"),
        }
    }
    assert!(rejected > 100, "only {rejected} mutations rejected");
}

#[test]
fn garbage_inputs_are_rejected_not_panicked() {
    // Nesting deep enough to overflow a recursive parser's stack: the
    // JSON reader must stop at its depth limit, for a raw checkpoint and
    // for an envelope header line alike.
    let deep_arrays = "[".repeat(200_000);
    let deep_objects = "{\"a\":".repeat(100_000);
    let deep_header = format!("{deep_arrays}\n{{}}");
    for junk in [
        "",
        "\n",
        "{",
        "{\"magic\":\"aptq-artifact\"",
        "{\"magic\":\"aptq-artifact\"}\n",
        "{\"magic\":\"aptq-artifact\",\"version\":999}\n{}",
        "null",
        "[1,2,3]",
        "{\"embed\":null}",
        &deep_arrays,
        &deep_objects,
        &deep_header,
    ] {
        assert!(
            matches!(Model::from_envelope_json(junk), Err(LmError::Checkpoint(_))),
            "envelope: {junk:.40?}"
        );
        assert!(
            matches!(Model::from_json(junk), Err(LmError::Checkpoint(_))),
            "raw: {junk:.40?}"
        );
    }
}
