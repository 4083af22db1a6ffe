//! Batched decode over packed storage: the serving-side claim of the
//! APTQ deployment story. Two properties are pinned here, bit-exactly:
//!
//! 1. **Correctness** — every sequence in a batched session produces
//!    logits `assert_eq!`-identical to decoding it alone in its own
//!    solo session, for uniform 2/3/4-bit and mixed plans, batch sizes
//!    1/3/8, and ragged join/leave schedules.
//! 2. **Amortization** — the packed operator unpacks each sub-byte
//!    weight group once per layer per *step*, so
//!    `qmodel/qlinear/codes_unpacked` per step is independent of the
//!    batch size (only `macs` scales with B).
//!
//! These tests run in the CI determinism loop at `APTQ_THREADS=1` and
//! `4` (see `ci/check.sh`).

use std::collections::BTreeMap;

use aptq_core::grid::GridConfig;
use aptq_core::hessian::{HessianMode, LayerHessian};
use aptq_core::plan::QuantPlan;
use aptq_lm::{LayerRef, Model, ModelConfig};
use aptq_qmodel::QuantizedModel;

/// A 2-layer model whose RoPE table covers 64 decode positions.
fn setup() -> (Model, BTreeMap<LayerRef, LayerHessian>) {
    let cfg = ModelConfig {
        max_seq_len: 64,
        ..ModelConfig::test_tiny(16)
    };
    let model = Model::new(&cfg, 77);
    let calib: Vec<Vec<u32>> = (0..4)
        .map(|k| (0..24).map(|i| ((i * 5 + k) % 16) as u32).collect())
        .collect();
    let hs = aptq_core::collect_hessians(&model, &calib, HessianMode::AttentionAware).unwrap();
    (model, hs)
}

/// Cycles 2/3/4 bits over the canonical layer order.
fn mixed_plan(model: &Model) -> QuantPlan {
    let mut plan = QuantPlan::uniform(model, 4);
    for (i, layer) in model.layer_refs().into_iter().enumerate() {
        plan.set_bits(layer, [2u8, 3, 4][i % 3]);
    }
    plan
}

fn quantize(
    model: &Model,
    hs: &BTreeMap<LayerRef, LayerHessian>,
    plan: &QuantPlan,
) -> QuantizedModel {
    QuantizedModel::quantize_from(model, plan, hs, &GridConfig::default()).unwrap()
}

/// Deterministic per-sequence token stream `s`.
fn stream(s: usize, i: usize) -> u32 {
    ((i * 7 + s * 5 + 3) % 16) as u32
}

#[test]
fn batched_packed_logits_bit_identical_to_solo_sessions() {
    let (model, hs) = setup();
    let mut plans = vec![mixed_plan(&model)];
    for bits in [2u8, 3, 4] {
        plans.push(QuantPlan::uniform(&model, bits));
    }
    for plan in &plans {
        let q = quantize(&model, &hs, plan);
        for &bsize in &[1usize, 3, 8] {
            let mut batch = q.batch_decode_session();
            let slots: Vec<usize> = (0..bsize).map(|_| batch.join()).collect();
            let mut solos: Vec<_> = (0..bsize).map(|_| q.decode_session()).collect();
            for i in 0..12 {
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
                        "batch size {bsize}, step {i}, sequence {s}: batched packed \
                         decode must match the solo session bit-for-bit"
                    );
                }
            }
        }
    }
}

#[test]
fn ragged_join_leave_schedule_matches_solo_packed_sessions() {
    let (model, hs) = setup();
    let q = quantize(&model, &hs, &mixed_plan(&model));
    let mut batch = q.batch_decode_session();

    let a = batch.join();
    let b = batch.join();
    let mut solo_a = q.decode_session();
    let mut solo_b = q.decode_session();
    for i in 0..5 {
        let logits = batch.step(&[(a, stream(0, i)), (b, stream(1, i))]).unwrap();
        assert_eq!(logits.row(0), &solo_a.feed(stream(0, i)).unwrap()[..]);
        assert_eq!(logits.row(1), &solo_b.feed(stream(1, i)).unwrap()[..]);
    }
    // a leaves mid-flight; b continues; c joins into a's old slot.
    batch.leave(a).unwrap();
    let c = batch.join();
    assert_eq!(c, a, "retired slot is reused");
    let mut solo_c = q.decode_session();
    for i in 0..8 {
        let logits = batch
            .step(&[(b, stream(1, 5 + i)), (c, stream(2, i))])
            .unwrap();
        assert_eq!(
            logits.row(0),
            &solo_b.feed(stream(1, 5 + i)).unwrap()[..],
            "survivor must be undisturbed by leave/join around it"
        );
        assert_eq!(
            logits.row(1),
            &solo_c.feed(stream(2, i)).unwrap()[..],
            "a reused slot must decode from a clean cache"
        );
    }
    assert_eq!(batch.seq_len(b), Some(13));
    assert_eq!(batch.seq_len(c), Some(8));
}

#[test]
fn codes_unpacked_per_step_is_independent_of_batch_size() {
    // The point of batching packed inference: one step of a B-sequence
    // batch unpacks exactly as many codes as one step of a single
    // sequence — the projections run once per layer per step — while
    // MAC work scales with B.
    let (model, hs) = setup();
    let q = quantize(&model, &hs, &mixed_plan(&model));

    let mut per_step_codes = Vec::new();
    let mut per_step_macs = Vec::new();
    for &bsize in &[1usize, 3, 8] {
        let mut batch = q.batch_decode_session();
        let slots: Vec<usize> = (0..bsize).map(|_| batch.join()).collect();
        let mut prev = (0u64, 0u64);
        let mut first = None;
        for i in 0..10 {
            let tokens: Vec<(usize, u32)> = slots
                .iter()
                .enumerate()
                .map(|(s, &id)| (id, stream(s, i)))
                .collect();
            batch.step(&tokens).unwrap();
            let now = (
                batch.metrics().get("qmodel/qlinear/codes_unpacked"),
                batch.metrics().get("qmodel/qlinear/macs"),
            );
            let delta = (now.0 - prev.0, now.1 - prev.1);
            prev = now;
            match first {
                None => first = Some(delta),
                Some(f) => assert_eq!(
                    delta, f,
                    "batch size {bsize}, step {i}: per-step unpacking must be flat"
                ),
            }
        }
        let (codes, macs) = first.unwrap();
        assert!(codes > 0 && macs > 0, "counters must actually advance");
        per_step_codes.push(codes);
        per_step_macs.push(macs);
        assert_eq!(batch.metrics().get("qmodel/qlinear/fallback_entries"), 0);
    }
    assert_eq!(
        per_step_codes[0], per_step_codes[1],
        "codes unpacked per step must not scale with batch size (B=1 vs B=3)"
    );
    assert_eq!(
        per_step_codes[0], per_step_codes[2],
        "codes unpacked per step must not scale with batch size (B=1 vs B=8)"
    );
    // MACs do scale: B rows of real work per projection.
    assert_eq!(per_step_macs[1], 3 * per_step_macs[0]);
    assert_eq!(per_step_macs[2], 8 * per_step_macs[0]);
}

#[test]
fn batched_greedy_generation_matches_solo_generation() {
    let (model, hs) = setup();
    let q = quantize(&model, &hs, &mixed_plan(&model));
    let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![5], vec![9, 8, 7, 6, 5]];
    let batched = q.generate_greedy_batched(&prompts, 10).unwrap();
    for (i, prompt) in prompts.iter().enumerate() {
        assert_eq!(
            batched[i],
            q.generate_greedy(prompt, 10).unwrap(),
            "prompt {i}"
        );
    }
}

#[test]
fn batched_generation_validates_inputs() {
    use aptq_qmodel::QModelError;

    let (model, hs) = setup();
    let q = quantize(&model, &hs, &QuantPlan::uniform(&model, 4));
    assert!(matches!(
        q.generate_greedy_batched(&[vec![1], vec![99]], 4),
        Err(QModelError::Lm(aptq_lm::LmError::TokenOutOfRange { .. }))
    ));
    let long: Vec<u32> = (0..65).map(|i| (i % 16) as u32).collect();
    assert!(matches!(
        q.generate_greedy_batched(&[vec![1], long], 4),
        Err(QModelError::Lm(aptq_lm::LmError::SequenceFull { .. }))
    ));
}

#[test]
fn sampled_generation_per_token_cost_is_flat_on_packed_storage() {
    // Satellite regression: sampled generation used to re-run the full
    // forward per emitted token — O(T²) unpacking on packed storage.
    // Routed through cached decode steps, the per-fed-token unpacking
    // work must be flat (each step is one 1-row projection per layer).
    use aptq_lm::generate::{generate, SampleConfig, Sampler};
    use aptq_tensor::init;

    let (model, hs) = setup();
    let q = quantize(&model, &hs, &mixed_plan(&model));
    let cfg = SampleConfig {
        temperature: 0.9,
        top_k: 5,
    };
    let mut session = q.batch_decode_session();
    let rng = &mut init::rng(9);
    let out = generate(&mut session, &[[1, 2, 3]], 20, Sampler::Sample { cfg, rng })
        .map_err(|e| e.to_string())
        .unwrap();
    assert_eq!(out[0].len(), 23);
    let fed = session.metrics().get("decode/batch/tokens");
    // 3 prompt tokens + 19 of the 20 sampled ones: the last is
    // emitted but never fed, since nothing would read its logits.
    assert_eq!(fed, 22, "each token is fed at most once — no re-forwards");
    let codes = session.metrics().get("qmodel/qlinear/codes_unpacked");
    // Flat per-token cost: total unpacking divides evenly by tokens
    // fed, and equals what a single fed token costs.
    assert_eq!(codes % fed, 0);
    let mut probe = q.decode_session();
    probe.feed(1).unwrap();
    assert_eq!(
        codes / fed,
        probe.metrics().get("qmodel/qlinear/codes_unpacked")
    );
}

#[test]
fn quarantine_isolates_peers_on_packed_path() {
    let (model, hs) = setup();
    let q = quantize(&model, &hs, &mixed_plan(&model));
    let mut chaos = q.batch_decode_session();
    let ids: Vec<usize> = (0..3).map(|_| chaos.join()).collect();
    let mut clean = q.batch_decode_session();
    let clean_ids: Vec<usize> = (0..2).map(|_| clean.join()).collect();

    let mut evicted = false;
    for i in 0..8 {
        let mut toks: Vec<(usize, u32)> = Vec::new();
        for (s, &id) in ids.iter().enumerate() {
            if s == 1 && evicted {
                continue;
            }
            toks.push((id, stream(s, i)));
        }
        let chaos_logits = chaos.step(&toks).unwrap();
        let clean_toks = [(clean_ids[0], stream(0, i)), (clean_ids[1], stream(2, i))];
        let clean_logits = clean.step(&clean_toks).unwrap();
        let peer_rows: [usize; 2] = if evicted { [0, 1] } else { [0, 2] };
        for (clean_row, &chaos_row) in peer_rows.iter().enumerate() {
            assert_eq!(
                chaos_logits.row(chaos_row),
                clean_logits.row(clean_row),
                "step {i}: packed-path peers must be bit-identical to a \
                 batch that never contained the poisoned sequence"
            );
        }
        if chaos.evicted_last_step().contains(&ids[1]) {
            evicted = true;
        }
        if i == 2 && !evicted {
            chaos.poison_kv_cache(ids[1]).unwrap();
        }
    }
    assert!(evicted, "poisoned sequence must be evicted");
    assert_eq!(chaos.metrics().get("decode/quarantine/evictions"), 1);
}
