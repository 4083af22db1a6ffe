//! Batched decode correctness: every sequence in a
//! [`BatchDecodeSession`] must produce logits **bit-identical**
//! (`assert_eq!`, not approximately) to running it alone in its own
//! [`DecodeSession`], for any batch size and any join/leave schedule.
//!
//! These tests run in the CI determinism loop at `APTQ_THREADS=1` and
//! `4` (see `ci/check.sh`): the batched projections stack B rows into
//! one matmul on the shared threadpool, and the row-band k-blocked
//! accumulation order makes each row independent of how many others
//! share the call.

use aptq_lm::decode::{BatchDecodeSession, DecodeSession};
use aptq_lm::generate::{generate, Sampler};
use aptq_lm::{LmError, Model, ModelConfig};

fn model() -> Model {
    let cfg = ModelConfig {
        max_seq_len: 64,
        ..ModelConfig::test_tiny(16)
    };
    Model::new(&cfg, 42)
}

/// Greedy generation of every prompt together through one fresh batch
/// session.
fn greedy_batch(m: &Model, prompts: &[Vec<u32>], n_new: usize) -> Result<Vec<Vec<u32>>, LmError> {
    generate(
        &mut BatchDecodeSession::new(m),
        prompts,
        n_new,
        Sampler::Greedy,
    )
}

/// Greedy generation of one prompt alone through a fresh session.
fn greedy_solo(m: &Model, prompt: &[u32], n_new: usize) -> Result<Vec<u32>, LmError> {
    let mut outs = generate(
        &mut BatchDecodeSession::new(m),
        &[prompt],
        n_new,
        Sampler::Greedy,
    )?;
    Ok(outs.remove(0))
}

/// Deterministic per-sequence token stream `s`.
fn stream(s: usize, i: usize) -> u32 {
    ((i * 7 + s * 5 + 3) % 16) as u32
}

#[test]
fn batched_logits_bit_identical_to_solo_sessions() {
    let m = model();
    for &bsize in &[1usize, 3, 8] {
        let mut batch = BatchDecodeSession::new(&m);
        let slots: Vec<usize> = (0..bsize).map(|_| batch.join()).collect();
        let mut solos: Vec<DecodeSession<'_>> =
            (0..bsize).map(|_| DecodeSession::new(&m)).collect();
        for i in 0..20 {
            let tokens: Vec<(usize, u32)> = slots
                .iter()
                .enumerate()
                .map(|(s, &id)| (id, stream(s, i)))
                .collect();
            let logits = batch.step(&tokens).unwrap();
            for (s, solo) in solos.iter_mut().enumerate() {
                let alone = solo.feed(stream(s, i)).unwrap();
                assert_eq!(
                    logits.row(s),
                    &alone[..],
                    "batch size {bsize}, step {i}, sequence {s}: batched logits \
                     must be bit-identical to the solo session"
                );
            }
        }
        assert_eq!(batch.metrics().get("decode/batch/steps"), 20);
        assert_eq!(
            batch.metrics().get("decode/batch/tokens"),
            20 * bsize as u64
        );
        assert_eq!(
            batch.metrics().get("decode/batch/occupancy"),
            20 * bsize as u64
        );
    }
}

#[test]
fn ragged_join_leave_schedule_matches_solo_sessions() {
    // Sequences join and leave mid-flight; survivors must stay
    // bit-identical to their solo runs throughout, and a freed slot
    // reused by a new sequence must start from a clean cache.
    let m = model();
    let mut batch = BatchDecodeSession::new(&m);

    let a = batch.join();
    let b = batch.join();
    let c = batch.join();
    let mut solo_a = DecodeSession::new(&m);
    let mut solo_b = DecodeSession::new(&m);
    let mut solo_c = DecodeSession::new(&m);

    // Phase 1: all three decode together.
    for i in 0..6 {
        let logits = batch
            .step(&[(a, stream(0, i)), (b, stream(1, i)), (c, stream(2, i))])
            .unwrap();
        assert_eq!(logits.row(0), &solo_a.feed(stream(0, i)).unwrap()[..]);
        assert_eq!(logits.row(1), &solo_b.feed(stream(1, i)).unwrap()[..]);
        assert_eq!(logits.row(2), &solo_c.feed(stream(2, i)).unwrap()[..]);
    }

    // Phase 2: b leaves; a and c continue from their own positions.
    batch.leave(b).unwrap();
    assert_eq!(batch.active(), 2);
    for i in 6..11 {
        let logits = batch.step(&[(a, stream(0, i)), (c, stream(2, i))]).unwrap();
        assert_eq!(logits.row(0), &solo_a.feed(stream(0, i)).unwrap()[..]);
        assert_eq!(logits.row(1), &solo_c.feed(stream(2, i)).unwrap()[..]);
    }

    // Phase 3: a new sequence joins, reusing b's slot, and must decode
    // from position 0 as if the slot had never been used.
    let d = batch.join();
    assert_eq!(d, b, "lowest retired slot is reused");
    let mut solo_d = DecodeSession::new(&m);
    for i in 0..7 {
        let logits = batch
            .step(&[
                (a, stream(0, 11 + i)),
                (c, stream(2, 11 + i)),
                (d, stream(3, i)),
            ])
            .unwrap();
        assert_eq!(logits.row(0), &solo_a.feed(stream(0, 11 + i)).unwrap()[..]);
        assert_eq!(logits.row(1), &solo_c.feed(stream(2, 11 + i)).unwrap()[..]);
        assert_eq!(logits.row(2), &solo_d.feed(stream(3, i)).unwrap()[..]);
    }

    assert_eq!(batch.seq_len(a), Some(18));
    assert_eq!(batch.seq_len(c), Some(18));
    assert_eq!(batch.seq_len(d), Some(7));
    assert_eq!(batch.seq_len(b), Some(7), "d reused b's id");
    assert_eq!(batch.metrics().get("decode/batch/joins"), 4);
    assert_eq!(batch.metrics().get("decode/batch/leaves"), 1);
    // Occupancy: 6 steps × 3 + 5 steps × 2 + 7 steps × 3.
    assert_eq!(batch.metrics().get("decode/batch/occupancy"), 49);
}

#[test]
fn batch_row_order_does_not_change_logits() {
    // The same sequences listed in a different row order must get the
    // same (bit-identical) logits — rows are independent.
    let m = model();
    let mut fwd = BatchDecodeSession::new(&m);
    let mut rev = BatchDecodeSession::new(&m);
    let f: Vec<usize> = (0..3).map(|_| fwd.join()).collect();
    let r: Vec<usize> = (0..3).map(|_| rev.join()).collect();
    for i in 0..10 {
        let a = fwd
            .step(&[
                (f[0], stream(0, i)),
                (f[1], stream(1, i)),
                (f[2], stream(2, i)),
            ])
            .unwrap();
        let b = rev
            .step(&[
                (r[2], stream(2, i)),
                (r[1], stream(1, i)),
                (r[0], stream(0, i)),
            ])
            .unwrap();
        for s in 0..3 {
            assert_eq!(a.row(s), b.row(2 - s), "step {i}, sequence {s}");
        }
    }
}

#[test]
fn step_validates_the_whole_batch_before_touching_state() {
    let m = model();
    let mut batch = BatchDecodeSession::new(&m);
    let a = batch.join();

    assert!(matches!(batch.step(&[]), Err(LmError::EmptyInput)));
    assert!(matches!(
        batch.step(&[(a + 1, 0)]),
        Err(LmError::UnknownSeq { .. })
    ));
    assert!(matches!(
        batch.step(&[(a, 1), (a, 2)]),
        Err(LmError::DuplicateSeq { .. })
    ));
    assert!(matches!(
        batch.step(&[(a, 99)]),
        Err(LmError::TokenOutOfRange { .. })
    ));
    // A failed step must not have advanced the sequence.
    assert_eq!(batch.seq_len(a), Some(0));
    let mut solo = DecodeSession::new(&m);
    let logits = batch.step(&[(a, 5)]).unwrap();
    assert_eq!(logits.row(0), &solo.feed(5).unwrap()[..]);

    // Leaving twice is an error; stepping a retired id is an error.
    batch.leave(a).unwrap();
    assert!(matches!(batch.leave(a), Err(LmError::UnknownSeq { .. })));
    assert!(matches!(
        batch.step(&[(a, 1)]),
        Err(LmError::UnknownSeq { .. })
    ));
    assert_eq!(batch.active(), 0);
}

#[test]
fn step_rejects_full_sequences() {
    let cfg = ModelConfig::test_tiny(16); // max_seq_len = 32
    let m = Model::new(&cfg, 7);
    let mut batch = BatchDecodeSession::new(&m);
    let a = batch.join();
    for i in 0..32 {
        batch.step(&[(a, (i % 16) as u32)]).unwrap();
    }
    assert!(matches!(
        batch.step(&[(a, 0)]),
        Err(LmError::SequenceFull { .. })
    ));
}

#[test]
fn batch_cache_bytes_track_active_sequences() {
    let m = model();
    let mut batch = BatchDecodeSession::new(&m);
    let a = batch.join();
    let b = batch.join();
    assert_eq!(batch.cache_bytes(), 0);
    batch.step(&[(a, 1), (b, 2)]).unwrap();
    let per_row = 2 * 2 * 16 * 4; // layers × 2 matrices × d_model × 4B
    assert_eq!(batch.cache_bytes(), 2 * per_row);
    batch.step(&[(a, 3)]).unwrap();
    assert_eq!(batch.cache_bytes(), 3 * per_row);
    assert_eq!(
        batch.metrics().get("decode/batch/kv_bytes_moved"),
        batch.cache_bytes() as u64
    );
    batch.leave(b).unwrap();
    assert_eq!(batch.cache_bytes(), 2 * per_row, "b's rows stop counting");
}

#[test]
fn batched_greedy_generation_matches_solo_cached_generation() {
    let m = model();
    let prompts: Vec<Vec<u32>> = vec![
        vec![1, 2, 3],
        vec![5],
        vec![9, 8, 7, 6, 5, 4],
        vec![2, 2, 2, 2],
    ];
    // Unequal prompt lengths exercise the ragged prefill; unequal
    // completion times exercise mid-flight leave.
    let batched = greedy_batch(&m, &prompts, 12).unwrap();
    for (i, prompt) in prompts.iter().enumerate() {
        let solo = greedy_solo(&m, prompt, 12).unwrap();
        assert_eq!(batched[i], solo, "prompt {i}");
    }
}

#[test]
fn batched_greedy_generation_validates_inputs() {
    let m = model();
    assert!(matches!(greedy_batch(&m, &[], 4), Err(LmError::EmptyInput)));
    assert!(matches!(
        greedy_batch(&m, &[vec![1], vec![]], 4),
        Err(LmError::EmptyInput)
    ));
    let long: Vec<u32> = (0..65).map(|i| (i % 16) as u32).collect();
    assert!(matches!(
        greedy_batch(&m, &[vec![1], long], 4),
        Err(LmError::SequenceFull { .. })
    ));
}

#[test]
fn batched_greedy_generation_caps_at_context_boundary() {
    let m = model(); // max_seq_len = 64
    let exactly: Vec<u32> = (0..64).map(|i| (i % 16) as u32).collect();
    let nearly: Vec<u32> = (0..62).map(|i| (i % 16) as u32).collect();
    let prompts = vec![exactly.clone(), nearly.clone(), vec![3, 1]];
    let batched = greedy_batch(&m, &prompts, 8).unwrap();
    assert_eq!(batched[0].len(), 65, "full context still predicts once");
    assert_eq!(batched[1].len(), 65, "capped at max_seq_len + 1");
    assert_eq!(batched[2].len(), 10);
    for (i, prompt) in prompts.iter().enumerate() {
        assert_eq!(batched[i], greedy_solo(&m, prompt, 8).unwrap());
    }
}

/// Drives a poisoned batch of `bsize` sequences (victim poisoned after
/// `poison_after` steps) alongside a clean batch holding only the
/// survivors, asserting eviction, structured status, and bit-identical
/// peer logits at every step.
fn quarantine_isolation_case(bsize: usize, victim: usize, poison_after: usize) {
    let m = model();
    let mut chaos = BatchDecodeSession::new(&m);
    let ids: Vec<usize> = (0..bsize).map(|_| chaos.join()).collect();
    let mut clean = BatchDecodeSession::new(&m);
    let clean_ids: Vec<usize> = (0..bsize - 1).map(|_| clean.join()).collect();
    // Peer s (s != victim) maps onto clean sequence index…
    let peer_index = |s: usize| if s < victim { s } else { s - 1 };

    let mut evicted_at = None;
    for i in 0..12 {
        let mut toks: Vec<(usize, u32)> = Vec::new();
        for (s, &id) in ids.iter().enumerate() {
            if s == victim && evicted_at.is_some() {
                continue;
            }
            toks.push((id, stream(s, i)));
        }
        let chaos_logits = chaos.step(&toks).unwrap();
        let clean_toks: Vec<(usize, u32)> = (0..bsize)
            .filter(|&s| s != victim)
            .map(|s| (clean_ids[peer_index(s)], stream(s, i)))
            .collect();
        let clean_logits = clean.step(&clean_toks).unwrap();

        // Row r of each output answers toks[r]; map each surviving peer
        // to its row in both sessions and demand bit-identity.
        for (clean_row, &(_, _)) in clean_toks.iter().enumerate() {
            let s = (0..bsize).filter(|&s| s != victim).nth(clean_row).unwrap();
            let chaos_row = toks.iter().position(|&(id, _)| id == ids[s]).unwrap();
            assert_eq!(
                chaos_logits.row(chaos_row),
                clean_logits.row(clean_row),
                "B={bsize} step {i} seq {s}: peer logits must be bit-identical \
                 to a batch that never contained the poisoned sequence"
            );
        }

        if chaos.evicted_last_step().contains(&ids[victim]) {
            assert!(evicted_at.is_none(), "victim evicted twice");
            evicted_at = Some(i);
            assert!(!chaos.is_active(ids[victim]));
        }
        if i == poison_after && evicted_at.is_none() {
            chaos.poison_kv_cache(ids[victim]).unwrap();
        }
    }
    assert_eq!(
        evicted_at,
        Some(poison_after + 1),
        "poisoned cache must evict on the next step"
    );
    assert_eq!(
        chaos.metrics().get("decode/quarantine/evictions"),
        1,
        "one eviction, one counter"
    );
    assert_eq!(clean.metrics().get("decode/quarantine/evictions"), 0);
    assert_eq!(chaos.active(), bsize - 1);
}

#[test]
fn quarantine_isolates_peers_b3() {
    quarantine_isolation_case(3, 1, 2);
}

#[test]
fn quarantine_isolates_peers_b8() {
    quarantine_isolation_case(8, 5, 3);
}

#[test]
fn quarantined_slot_is_reused_cleanly() {
    let m = model();
    let mut batch = BatchDecodeSession::new(&m);
    let ids: Vec<usize> = (0..3).map(|_| batch.join()).collect();
    // Warm everyone up, then poison the middle sequence.
    for i in 0..3 {
        let toks: Vec<(usize, u32)> = ids
            .iter()
            .enumerate()
            .map(|(s, &id)| (id, stream(s, i)))
            .collect();
        batch.step(&toks).unwrap();
    }
    batch.poison_kv_cache(ids[1]).unwrap();
    let toks: Vec<(usize, u32)> = ids
        .iter()
        .enumerate()
        .map(|(s, &id)| (id, stream(s, 3)))
        .collect();
    batch.step(&toks).unwrap();
    assert_eq!(batch.evicted_last_step(), &[ids[1]]);

    // The freed slot is handed to the next join and decodes from a
    // clean cache: bit-identical to a fresh solo session.
    let fresh = batch.join();
    assert_eq!(fresh, ids[1], "lowest retired slot is reused");
    let mut solo = DecodeSession::new(&m);
    for i in 0..6 {
        let toks: Vec<(usize, u32)> = vec![(ids[0], stream(0, 4 + i)), (fresh, stream(9, i))];
        let logits = batch.step(&toks).unwrap();
        assert!(batch.evicted_last_step().is_empty());
        let alone = solo.feed(stream(9, i)).unwrap();
        assert_eq!(
            logits.row(1),
            &alone[..],
            "step {i}: reused slot must behave like a fresh session"
        );
    }
    assert_eq!(batch.metrics().get("decode/quarantine/evictions"), 1);
}

#[test]
fn solo_session_quarantines_and_stays_quarantined() {
    let m = model();
    let mut s = DecodeSession::new(&m);
    for i in 0..4 {
        s.feed(stream(0, i)).unwrap();
    }
    assert_eq!(s.quarantined(), None);
    s.poison_kv_cache();
    let err = s.feed(stream(0, 4)).unwrap_err();
    let LmError::NonFiniteLogits { pos } = err else {
        panic!("wrong error: {err}");
    };
    assert_eq!(pos, 4);
    assert_eq!(s.quarantined(), Some(4));
    // Sticky: every later feed refuses with the same position.
    assert!(matches!(
        s.feed(0),
        Err(LmError::NonFiniteLogits { pos: 4 })
    ));
    assert_eq!(s.metrics().get("decode/quarantine/sessions"), 1);
}
