//! Property-based tests for the transformer substrate.

use aptq_lm::{BlockCapture, CaptureSink, Model, ModelConfig};
use proptest::prelude::*;

fn tokens(vocab: usize, min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..vocab as u32, min_len..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forward_always_finite(seq in tokens(16, 1, 20), seed in 0u64..50) {
        let model = Model::new(&ModelConfig::test_tiny(16), seed);
        let logits = model.forward(&seq);
        prop_assert_eq!(logits.shape(), (seq.len(), 16));
        prop_assert!(logits.all_finite());
    }

    #[test]
    fn causality_holds_for_any_suffix_perturbation(
        seq in tokens(16, 3, 16),
        cut in 1usize..10,
    ) {
        let model = Model::new(&ModelConfig::test_tiny(16), 3);
        let cut = cut.min(seq.len() - 1);
        let logits_full = model.forward(&seq);
        // Change every token after `cut`.
        let mut altered = seq.clone();
        for t in altered.iter_mut().skip(cut) {
            *t = (*t + 7) % 16;
        }
        let logits_alt = model.forward(&altered);
        for i in 0..cut {
            for j in 0..16 {
                prop_assert!(
                    (logits_full[(i, j)] - logits_alt[(i, j)]).abs() < 1e-4,
                    "position {i} leaked future information"
                );
            }
        }
    }

    #[test]
    fn loss_is_positive_and_finite(seq in tokens(16, 2, 16)) {
        let model = Model::new(&ModelConfig::test_tiny(16), 5);
        let loss = model.sequence_loss(&seq);
        prop_assert!(loss.is_finite());
        prop_assert!(loss > 0.0);
    }

    #[test]
    fn grads_shapes_match_weights(seq in tokens(16, 2, 10)) {
        let model = Model::new(&ModelConfig::test_tiny(16), 6);
        let (_, grads) = model.sequence_grads(&seq);
        prop_assert_eq!(grads.embed.shape(), model.embed().shape());
        prop_assert_eq!(grads.lm_head.shape(), model.lm_head().shape());
        prop_assert_eq!(grads.blocks.len(), model.blocks().len());
        prop_assert!(grads.global_norm().is_finite());
    }

    #[test]
    fn capture_path_matches_plain_forward(seq in tokens(16, 1, 12)) {
        let model = Model::new(&ModelConfig::test_tiny(16), 7);
        let plain = model.forward(&seq);
        let mut x = model.embed_tokens(&seq);
        let mut blocks = 0;
        model.forward_blocks(
            0..model.blocks().len(),
            &mut x,
            Some(CaptureSink { capture: &mut BlockCapture::default(), each: &mut |_, _| blocks += 1 }),
        );
        prop_assert_eq!(blocks, model.blocks().len());
        // Both paths run the same float ops: equal bit for bit.
        let captured = model.final_norm().forward(&x).0.matmul(model.lm_head());
        prop_assert_eq!(plain, captured);
    }

    #[test]
    fn resuming_at_any_block_reproduces_sequence_loss(
        seq in tokens(16, 2, 12),
        seed in 0u64..20,
    ) {
        let model = Model::new(&ModelConfig::test_tiny(16), seed);
        let want = model.sequence_loss(&seq);
        // Walk the forward one block at a time and resume the loss from
        // each block's input, including the head-only resume.
        let n = model.blocks().len();
        let mut x = model.embed_tokens(&seq);
        for start in 0..=n {
            let got = model.loss_from(start, x.clone(), &seq);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "resumed at block {}", start);
            if start < n {
                model.forward_blocks(start..start + 1, &mut x, None);
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_is_exact(seq in tokens(16, 1, 8), seed in 0u64..20) {
        let model = Model::new(&ModelConfig::test_tiny(16), seed);
        let restored = Model::from_json(&model.to_json().unwrap()).unwrap();
        prop_assert_eq!(model.forward(&seq), restored.forward(&seq));
    }

    #[test]
    fn attention_probs_are_causal_distributions(seq in tokens(16, 2, 12)) {
        let model = Model::new(&ModelConfig::test_tiny(16), 8);
        let mut x = model.embed_tokens(&seq);
        let mut probs = Vec::new();
        model.forward_blocks(
            0..model.blocks().len(),
            &mut x,
            Some(CaptureSink {
                capture: &mut BlockCapture::default(),
                each: &mut |_, cap| probs.extend(cap.probs.iter().cloned()),
            }),
        );
        prop_assert_eq!(probs.len(), model.blocks().len() * model.config().n_heads);
        for p in &probs {
            for i in 0..seq.len() {
                let row_sum: f32 = p.row(i).iter().sum();
                prop_assert!((row_sum - 1.0).abs() < 1e-4);
                for j in i + 1..seq.len() {
                    prop_assert_eq!(p[(i, j)], 0.0);
                }
            }
        }
    }
}
