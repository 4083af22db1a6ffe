//! Regression tests for the unified generic forward path: quantized
//! KV-cache incremental decode must be **bit-identical** to the full
//! packed forward (with per-token cost independent of position), and
//! evaluation metrics routed through the generic `aptq_eval` entry
//! points must match scoring `QuantizedModel::forward` by hand.
//!
//! The decode parity tests run in the CI determinism loop at
//! `APTQ_THREADS=1` and `4` (see `ci/check.sh`): the packed operator is
//! scalar, but the float norms/attention tails share the threadpool.

use std::collections::BTreeMap;

use aptq_core::grid::GridConfig;
use aptq_core::hessian::{HessianMode, LayerHessian};
use aptq_core::plan::QuantPlan;
use aptq_lm::{LayerRef, Model, ModelConfig};
use aptq_qmodel::QuantizedModel;
use aptq_tensor::activation::log_sum_exp;

/// A 2-layer model whose RoPE table covers 256 decode positions.
fn long_context_setup() -> (Model, BTreeMap<LayerRef, LayerHessian>) {
    let cfg = ModelConfig {
        max_seq_len: 256,
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

#[test]
fn decode_256_tokens_bit_identical_to_full_packed_forward() {
    let (model, hs) = long_context_setup();
    let cfg = GridConfig::default();
    let tokens: Vec<u32> = (0..256).map(|i| ((i * 7 + 3) % 16) as u32).collect();

    let mut plans = vec![mixed_plan(&model)];
    for bits in [2u8, 3, 4] {
        plans.push(QuantPlan::uniform(&model, bits));
    }
    for plan in &plans {
        let q = QuantizedModel::quantize_from(&model, plan, &hs, &cfg).unwrap();
        let full = q.forward(&tokens).unwrap();
        let mut session = q.decode_session();
        for (i, &t) in tokens.iter().enumerate() {
            let logits = session.feed(t).unwrap();
            assert_eq!(
                logits,
                full.row(i),
                "step {i}: incremental decode must match the full packed \
                 forward bit-for-bit"
            );
        }
    }
}

#[test]
fn decode_per_token_cost_is_flat_across_256_positions() {
    // The acceptance criterion for O(T) decode: the packed-operator work
    // counters advance by the same amount at position 255 as at
    // position 0 — no prefix re-execution anywhere in the stack.
    let (model, hs) = long_context_setup();
    let cfg = GridConfig::default();
    let q = QuantizedModel::quantize_from(&model, &mixed_plan(&model), &hs, &cfg).unwrap();

    let mut session = q.decode_session();
    let mut prev = (0u64, 0u64);
    let mut deltas = Vec::with_capacity(256);
    for i in 0..256u32 {
        session.feed((i * 7 + 3) % 16).unwrap();
        let now = (
            session.metrics().get("qmodel/qlinear/codes_unpacked"),
            session.metrics().get("qmodel/qlinear/macs"),
        );
        deltas.push((now.0 - prev.0, now.1 - prev.1));
        prev = now;
    }
    let first = deltas[0];
    assert!(first.0 > 0 && first.1 > 0, "counters must actually advance");
    for (i, d) in deltas.iter().enumerate() {
        assert_eq!(
            *d, first,
            "step {i}: per-token codes_unpacked/macs must not grow with \
             sequence position"
        );
    }
    assert_eq!(session.metrics().get("qmodel/qlinear/fallback_entries"), 0);
}

#[test]
fn quantized_perplexity_identical_to_manual_forward_scoring() {
    // Satellite regression: evaluating a quantized model through the
    // generic `aptq_eval::perplexity` must equal the pre-refactor
    // recipe — score each segment with `QuantizedModel::forward` and
    // reduce by hand. Bit-equal, not approximately.
    let (model, hs) = long_context_setup();
    let cfg = GridConfig::default();
    let q = QuantizedModel::quantize_from(&model, &mixed_plan(&model), &hs, &cfg).unwrap();
    let segs: Vec<Vec<u32>> = (0..5)
        .map(|k| (0..20).map(|i| ((i * 3 + k) % 16) as u32).collect())
        .collect();

    let unified = aptq_eval::perplexity(q.model(), &segs).unwrap();

    let mut total_nll = 0.0f64;
    let mut total_tokens = 0usize;
    for seg in &segs {
        let logits = q.forward(seg).unwrap();
        for i in 0..seg.len() - 1 {
            let row = logits.row(i);
            total_nll += (log_sum_exp(row) - row[seg[i + 1] as usize]) as f64;
        }
        total_tokens += seg.len() - 1;
    }
    let manual = (total_nll / total_tokens as f64).exp() as f32;
    assert_eq!(unified, manual);
    assert!(unified.is_finite() && unified > 1.0);
}

#[test]
fn quantized_zeroshot_identical_to_manual_forward_scoring() {
    use aptq_textgen::{Grammar, TaskSuite, Tokenizer, ZeroShotTask};

    let grammar = Grammar::standard();
    let tok = Tokenizer::from_grammar(&grammar);
    let cfg = ModelConfig {
        max_seq_len: 256,
        ..ModelConfig::test_tiny(tok.vocab_size())
    };
    let model = Model::new(&cfg, 13);
    let calib: Vec<Vec<u32>> = (0..4)
        .map(|k| {
            (0..24)
                .map(|i| ((i * 5 + k) % tok.vocab_size()) as u32)
                .collect()
        })
        .collect();
    let hs = aptq_core::collect_hessians(&model, &calib, HessianMode::AttentionAware).unwrap();
    let q = QuantizedModel::quantize_from(&model, &mixed_plan(&model), &hs, &GridConfig::default())
        .unwrap();

    let suite = TaskSuite::generate(ZeroShotTask::Affordance, &grammar, &tok, 20, 9);
    let unified = aptq_eval::evaluate_suite(q.model(), &suite).unwrap();

    // Manual scoring via QuantizedModel::forward, replicating the
    // harness recipe (length-normalized continuation log-likelihood).
    let mut correct = 0usize;
    for item in &suite.items {
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for (ci, choice) in item.choices.iter().enumerate() {
            let mut seq = item.prompt.clone();
            seq.extend_from_slice(choice);
            let logits = q.forward(&seq).unwrap();
            let mut ll = 0.0f64;
            for (k, &t) in choice.iter().enumerate() {
                let row = logits.row(item.prompt.len() + k - 1);
                ll += (row[t as usize] - log_sum_exp(row)) as f64;
            }
            let score = (ll / choice.len() as f64) as f32;
            if score > best_score {
                best_score = score;
                best = ci;
            }
        }
        if best == item.correct {
            correct += 1;
        }
    }
    let manual_acc = correct as f32 / suite.len() as f32;
    assert_eq!(unified.accuracy, manual_acc);
    assert_eq!(unified.n_items, suite.len());
}

#[test]
fn oracle_packed_feed_all_chunk_matches_token_by_token_and_forward() {
    // A packed prompt fed as one chunk, fed token by token, and run
    // through the full packed forward: the same logits bit for bit. The
    // decode counters match; the packed operator's work counters advance
    // once per chunk instead of once per token, with the same MACs.
    let (model, hs) = long_context_setup();
    let cfg = GridConfig::default();
    let q = QuantizedModel::quantize_from(&model, &mixed_plan(&model), &hs, &cfg).unwrap();
    let one_token = {
        let mut s = q.decode_session();
        s.feed(3).unwrap();
        s.metrics().get("qmodel/qlinear/codes_unpacked")
    };
    for t in [1usize, 17, 64, q.config().max_seq_len] {
        let tokens: Vec<u32> = (0..t).map(|i| ((i * 7 + 3) % 16) as u32).collect();
        let full = q.forward(&tokens).unwrap();
        let mut chunk = q.decode_session();
        let last = chunk.feed_all(&tokens).unwrap();
        let mut solo = q.decode_session();
        for (i, &tok) in tokens.iter().enumerate() {
            let logits = solo.feed(tok).unwrap();
            for (k, (a, b)) in logits.iter().zip(full.row(i)).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "T={t} token {i} logit {k}");
            }
        }
        for (k, (a, b)) in last.iter().zip(full.row(t - 1)).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "T={t} chunk logit {k}");
        }
        assert_eq!(last.len(), full.cols());
        assert_eq!(chunk.len(), solo.len());
        for key in [
            "decode/tokens",
            "decode/kv_bytes_moved",
            "qmodel/qlinear/macs",
        ] {
            assert_eq!(
                chunk.metrics().get(key),
                solo.metrics().get(key),
                "T={t} {key}"
            );
        }
        assert_eq!(
            chunk.metrics().get("qmodel/qlinear/codes_unpacked"),
            one_token,
            "T={t}: one unpack per chunk"
        );
    }
}
