//! Deterministic and sampled text generation.
//!
//! [`generate`] is the one generation entry point: it drives a
//! [`BatchDecodeSession`] (O(T) cached steps) over one or more prompts
//! and picks each new token with a [`Sampler`]. Its tests compare it
//! against an uncached O(T²) reference that re-runs the full forward
//! per token. Both share one contract:
//!
//! - an empty prompt is [`LmError::EmptyInput`];
//! - a prompt longer than `max_seq_len` is [`LmError::SequenceFull`]
//!   (the model cannot attend over more positions than its RoPE table
//!   covers — silently sliding a window over the prompt would score
//!   different tokens than the caller supplied);
//! - generation stops early once the context is full, so at most
//!   `max_seq_len + 1` total tokens are ever returned (the final token
//!   is predicted from a full context but never fed back).

use aptq_tensor::activation::softmax;
use rand::rngs::StdRng;
use rand::Rng;

use crate::decode::{check_row, BatchDecodeSession};
use crate::linear::LinearOp;
use crate::LmError;

/// Sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Softmax temperature; `0.0` selects greedy decoding.
    pub temperature: f32,
    /// Keep only the `top_k` most likely tokens (0 = all).
    pub top_k: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            temperature: 1.0,
            top_k: 0,
        }
    }
}

/// How [`generate`] picks each new token from a logits row.
#[derive(Debug)]
pub enum Sampler<'r> {
    /// [`aptq_tensor::select::argmax`]: NaN logits never win and ties
    /// break toward the lowest token id.
    Greedy,
    /// Temperature / top-k sampling with exactly one draw from `rng`
    /// per emitted token; `temperature <= 0` is greedy with no draws.
    ///
    /// The top-k filter keeps **exactly** `min(k, vocab)` candidates
    /// via [`aptq_tensor::select::top_k_indices`] — boundary ties
    /// resolve by token id instead of widening the candidate set, and
    /// NaN logits are never sampled. When floating-point rounding
    /// leaves the CDF short of the drawn `r`, the fallback is the
    /// **highest-probability kept** index, never a top-k-masked
    /// (zero-probability) token.
    Sample {
        /// Temperature and top-k.
        cfg: SampleConfig,
        /// The caller's generator, advanced once per emitted token.
        rng: &'r mut StdRng,
    },
}

impl Sampler<'_> {
    /// The next token for one logits row.
    fn pick(&mut self, logits: &[f32]) -> u32 {
        let next = match self {
            Sampler::Sample { cfg, .. } if cfg.temperature <= 0.0 => {
                aptq_tensor::select::argmax(logits)
            }
            Sampler::Sample { cfg, rng } => sample_step(logits, *cfg, rng),
            Sampler::Greedy => aptq_tensor::select::argmax(logits),
        };
        next as u32
    }
}

/// Extends every prompt by `n_new` tokens through `session`, one
/// sequence per prompt, picking tokens with `sampler`. Returns one
/// output per prompt (the prompt followed by its new tokens).
///
/// Continuous batching: every sequence prefills and generates at its
/// own pace, leaving the session as soon as it has `n_new` new tokens
/// (or fills the context), and each step's projections run once for
/// all sequences still active. Output `i` is bit-identical to
/// generating prompt `i` alone, and the session's
/// [`metrics`](BatchDecodeSession::metrics) stay readable afterwards.
///
/// A [`Sampler::Sample`] draws in row order — prompt 0's token before
/// prompt 1's within a step — so a single prompt consumes the RNG
/// exactly as sequential sampling would.
///
/// A sequence quarantined mid-generation (non-finite logits — see
/// [`BatchDecodeSession::step`]'s quarantine contract) fails the whole
/// call: every other sequence of the call leaves the session too, and
/// the session counts the eviction under `decode/quarantine/evictions`.
///
/// # Determinism
///
/// Bit-identical (for a fixed RNG seed) at any `APTQ_THREADS` value;
/// see [`BatchDecodeSession::step`].
///
/// # Errors
///
/// Returns [`LmError::EmptyInput`] if `prompts` is empty or any prompt
/// is empty, [`LmError::SequenceFull`] if a prompt exceeds
/// `max_seq_len` (see the module contract), and
/// [`LmError::TokenOutOfRange`] for a prompt token outside the
/// vocabulary. Every prompt is validated before any sequence joins the
/// session. Returns [`LmError::NonFiniteLogits`] at the position of
/// the first token whose logits were NaN/Inf.
pub fn generate<L: LinearOp, P: AsRef<[u32]>>(
    session: &mut BatchDecodeSession<'_, L>,
    prompts: &[P],
    n_new: usize,
    mut sampler: Sampler<'_>,
) -> Result<Vec<Vec<u32>>, LmError> {
    if prompts.is_empty() || prompts.iter().any(|p| p.as_ref().is_empty()) {
        return Err(LmError::EmptyInput);
    }
    let cfg = session.model().config();
    let max = cfg.max_seq_len;
    if prompts.iter().any(|p| p.as_ref().len() > max) {
        return Err(LmError::SequenceFull {
            pos: max,
            max_seq_len: max,
        });
    }
    // Every prompt fits, so only a token can fail `check_row` here.
    for &token in prompts.iter().flat_map(|p| p.as_ref()) {
        check_row(token, 0, cfg)?;
    }
    let slots: Vec<usize> = prompts.iter().map(|_| session.join()).collect();
    let mut outs: Vec<Vec<u32>> = prompts.iter().map(|p| p.as_ref().to_vec()).collect();
    let mut fed = vec![0usize; prompts.len()];
    let mut batch: Vec<(usize, u32)> = Vec::with_capacity(prompts.len());
    let mut rows: Vec<usize> = Vec::with_capacity(prompts.len());
    loop {
        batch.clear();
        rows.clear();
        for (i, out) in outs.iter().enumerate() {
            if session.is_active(slots[i]) {
                batch.push((slots[i], out[fed[i]]));
                rows.push(i);
            }
        }
        if batch.is_empty() {
            break;
        }
        let logits = session.step(&batch)?;
        let evicted = session.evicted_last_step();
        if let Some(&i) = rows.iter().find(|&&i| evicted.contains(&slots[i])) {
            // The quarantined sequence is already evicted; its peers
            // leave so the call holds no slot once it returns.
            for &slot in &slots {
                if session.is_active(slot) {
                    session.leave(slot)?;
                }
            }
            return Err(LmError::NonFiniteLogits { pos: fed[i] });
        }
        for (r, &i) in rows.iter().enumerate() {
            fed[i] += 1;
            let prompt_len = prompts[i].as_ref().len();
            let target = prompt_len + n_new;
            if fed[i] >= prompt_len && outs[i].len() < target {
                outs[i].push(sampler.pick(logits.row(r)));
            }
            if outs[i].len() >= target || fed[i] >= max {
                session.leave(slots[i])?;
            }
        }
    }
    Ok(outs)
}

/// Temperature-scales and top-k-masks one logit row, then samples from
/// its softmax with a single RNG draw.
fn sample_step(logits: &[f32], cfg: SampleConfig, rng: &mut StdRng) -> usize {
    let mut scaled: Vec<f32> = logits.to_vec();
    for v in &mut scaled {
        *v /= cfg.temperature;
    }
    if cfg.top_k > 0 && cfg.top_k < scaled.len() {
        let keep = aptq_tensor::select::top_k_indices(&scaled, cfg.top_k);
        let mut masked = vec![f32::NEG_INFINITY; scaled.len()];
        for &i in &keep {
            masked[i] = scaled[i];
        }
        scaled = masked;
    }
    let probs = softmax(&aptq_tensor::Matrix::from_vec(1, scaled.len(), scaled));
    let r: f32 = rng.gen_range(0.0..1.0);
    sample_from_cdf(probs.row(0), r)
}

/// Walks the CDF of `probs` and returns the first index whose
/// cumulative mass exceeds `r`.
///
/// When f32 rounding leaves the total cumulative mass below `r`
/// (possible since the summation order here differs from the softmax's
/// own normalization), the fallback is the **highest-probability**
/// index via [`aptq_tensor::select::argmax`] — never blindly the last
/// index, which top-k masking may have zeroed out entirely.
fn sample_from_cdf(probs: &[f32], r: f32) -> usize {
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    aptq_tensor::select::argmax(probs)
}

/// Greedily extends `prompt` by `n_new` tokens, re-running the full
/// forward pass every step — the O(T²) reference that [`generate`] and
/// the decode sessions are tested against. Token selection is
/// [`aptq_tensor::select::argmax`], as [`Sampler::Greedy`]'s.
#[cfg(test)]
pub(crate) fn generate_greedy<L: LinearOp>(
    model: &crate::model::ModelOf<L>,
    prompt: &[u32],
    n_new: usize,
) -> Result<Vec<u32>, LmError> {
    if prompt.is_empty() {
        return Err(LmError::EmptyInput);
    }
    let max = model.config().max_seq_len;
    if prompt.len() > max {
        return Err(LmError::SequenceFull {
            pos: max,
            max_seq_len: max,
        });
    }
    let mut tokens = prompt.to_vec();
    for _ in 0..n_new {
        if tokens.len() > max {
            break;
        }
        let logits = model.try_forward(&tokens)?;
        let last = logits.row(logits.rows() - 1);
        let next = aptq_tensor::select::argmax(last);
        tokens.push(next as u32);
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, ModelConfig};
    use aptq_tensor::init;

    fn model() -> Model {
        Model::new(&ModelConfig::test_tiny(16), 21)
    }

    /// One prompt through [`generate`] with a fresh session.
    fn gen(m: &Model, prompt: &[u32], n_new: usize, sampler: Sampler) -> Result<Vec<u32>, LmError> {
        let mut outs = generate(&mut BatchDecodeSession::new(m), &[prompt], n_new, sampler)?;
        Ok(outs.remove(0))
    }

    fn sampled(
        m: &Model,
        prompt: &[u32],
        n_new: usize,
        cfg: SampleConfig,
        rng: &mut StdRng,
    ) -> Result<Vec<u32>, LmError> {
        gen(m, prompt, n_new, Sampler::Sample { cfg, rng })
    }

    #[test]
    fn greedy_is_deterministic_and_extends() {
        let m = model();
        let a = generate_greedy(&m, &[1, 2, 3], 5).unwrap();
        let b = generate_greedy(&m, &[1, 2, 3], 5).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(&a[..3], &[1, 2, 3]);
        assert!(a.iter().all(|&t| (t as usize) < 16));
    }

    #[test]
    fn greedy_rejects_empty_prompt() {
        let m = model();
        assert!(matches!(
            generate_greedy(&m, &[], 3),
            Err(LmError::EmptyInput)
        ));
    }

    #[test]
    fn sampling_respects_vocab_and_seed() {
        let m = model();
        let cfg = SampleConfig {
            temperature: 1.2,
            top_k: 4,
        };
        let a = sampled(&m, &[1], 10, cfg, &mut init::rng(5)).unwrap();
        let b = sampled(&m, &[1], 10, cfg, &mut init::rng(5)).unwrap();
        assert_eq!(a, b, "same seed must give same sample");
        assert!(a.iter().all(|&t| (t as usize) < 16));
    }

    #[test]
    fn zero_temperature_falls_back_to_greedy() {
        let m = model();
        let cfg = SampleConfig {
            temperature: 0.0,
            top_k: 0,
        };
        let sampled = sampled(&m, &[2, 3], 4, cfg, &mut init::rng(1)).unwrap();
        let greedy = generate_greedy(&m, &[2, 3], 4).unwrap();
        assert_eq!(sampled, greedy);
    }

    #[test]
    fn sampled_matches_full_reforward_reference() {
        // Regression for the O(T²) sampled path: the cached rewrite
        // must emit the same tokens as the old implementation — a full
        // re-forward per step — for the same seed and config.
        let m = model();
        let cfg = SampleConfig {
            temperature: 0.9,
            top_k: 6,
        };
        let prompt = [1u32, 4, 2];
        let n_new = 12;
        let cached = sampled(&m, &prompt, n_new, cfg, &mut init::rng(11)).unwrap();

        let mut rng = init::rng(11);
        let mut tokens = prompt.to_vec();
        for _ in 0..n_new {
            let logits = m.try_forward(&tokens).unwrap();
            let next = sample_step(logits.row(logits.rows() - 1), cfg, &mut rng);
            tokens.push(next as u32);
        }
        assert_eq!(cached, tokens);
    }

    #[test]
    fn sampled_per_token_cost_is_flat() {
        // The cached sampled path must feed each token at most once:
        // total decode work equals prompt + generated-but-one tokens,
        // with KV write traffic linear in that count — not quadratic.
        let m = model();
        let cfg = SampleConfig {
            temperature: 1.1,
            top_k: 4,
        };
        let mut session = BatchDecodeSession::new(&m);
        let rng = &mut init::rng(3);
        let out = generate(&mut session, &[[1, 2, 3]], 10, Sampler::Sample { cfg, rng }).unwrap();
        assert_eq!(out[0].len(), 13);
        // 3 prompt tokens + the first 9 sampled tokens, each fed
        // exactly once (the 10th is emitted but never fed: nothing
        // would read its logits); a re-forwarding implementation would
        // score sequences of length 3, 4, ..., 12 — 75 token-forwards
        // instead of 12.
        assert_eq!(session.metrics().get("decode/batch/tokens"), 12);
        // The sequence has left, so its cache no longer counts as used:
        // compare against one token's KV bytes (2 layers × k and v rows
        // × d_model 16 × 4 B) times the tokens fed.
        assert_eq!(
            session.metrics().get("decode/batch/kv_bytes_moved"),
            12 * 2 * 2 * 16 * 4
        );
    }

    #[test]
    fn invalid_prompts_leave_the_session_untouched() {
        let m = model();
        let mut session = BatchDecodeSession::new(&m);
        assert!(matches!(
            generate(&mut session, &[vec![1, 2], vec![3, 99]], 4, Sampler::Greedy),
            Err(LmError::TokenOutOfRange {
                token: 99,
                vocab: 16
            })
        ));
        assert_eq!(session.active(), 0);
        assert!(session.metrics().is_empty(), "nothing joined or stepped");
    }

    #[test]
    fn non_finite_logits_fail_the_call_and_free_every_slot() {
        // A NaN embedding row poisons only the sequences that feed that
        // token: the call reports the first poisoned position instead of
        // returning a shortened output, and no sequence stays joined.
        let mut m = model();
        m.embed_mut().row_mut(5).fill(f32::NAN);
        let mut session = BatchDecodeSession::new(&m);
        assert!(matches!(
            generate(
                &mut session,
                &[vec![1, 2, 3], vec![4, 5, 6]],
                4,
                Sampler::Greedy
            ),
            Err(LmError::NonFiniteLogits { pos: 1 })
        ));
        assert_eq!(session.active(), 0);
        assert_eq!(session.metrics().get("decode/quarantine/evictions"), 1);
        // Single prompt, both samplers: the same error, never Ok.
        assert!(matches!(
            gen(&m, &[5], 4, Sampler::Greedy),
            Err(LmError::NonFiniteLogits { pos: 0 })
        ));
        let cfg = SampleConfig::default();
        assert!(matches!(
            sampled(&m, &[2, 5], 4, cfg, &mut init::rng(0)),
            Err(LmError::NonFiniteLogits { pos: 1 })
        ));
    }

    #[test]
    fn cdf_fallback_never_selects_masked_token() {
        // Regression: with the last vocab slot masked to probability
        // zero and r beyond the (rounding-shortened) total mass, the
        // old fallback `probs.len() - 1` returned the masked token;
        // the fix falls back to the highest-probability kept index.
        // 0.3 + 0.3 + 0.3 sums to 0.90000004 < 0.95 in f32.
        let probs = [0.3f32, 0.3, 0.3, 0.0];
        assert_eq!(sample_from_cdf(&probs, 0.95), 0);
        // Inside the mass the walk is untouched by the fix.
        assert_eq!(sample_from_cdf(&probs, 0.0), 0);
        assert_eq!(sample_from_cdf(&probs, 0.35), 1);
        assert_eq!(sample_from_cdf(&probs, 0.65), 2);
    }

    #[test]
    fn sampling_with_top_k_never_emits_masked_tokens() {
        // End-to-end version of the CDF fallback regression: with
        // top_k = 1 only the argmax survives masking, so every emitted
        // token must equal the greedy choice no matter what r is drawn.
        let m = model();
        let cfg = SampleConfig {
            temperature: 1.0,
            top_k: 1,
        };
        for seed in 0..8 {
            let sampled = sampled(&m, &[2, 3], 6, cfg, &mut init::rng(seed)).unwrap();
            let greedy = generate_greedy(&m, &[2, 3], 6).unwrap();
            assert_eq!(sampled, greedy, "seed {seed}");
        }
    }

    #[test]
    fn long_prompts_error_instead_of_sliding_a_window() {
        // Contract unification: both greedy paths (and the sampled
        // path) reject prompts longer than max_seq_len with
        // SequenceFull instead of silently scoring a slid window.
        let m = model();
        let prompt: Vec<u32> = (0..40).map(|i| (i % 16) as u32).collect();
        assert!(matches!(
            generate_greedy(&m, &prompt, 2),
            Err(LmError::SequenceFull {
                pos: 32,
                max_seq_len: 32
            })
        ));
        assert!(matches!(
            gen(&m, &prompt, 2, Sampler::Greedy),
            Err(LmError::SequenceFull { .. })
        ));
        assert!(matches!(
            sampled(&m, &prompt, 2, SampleConfig::default(), &mut init::rng(0)),
            Err(LmError::SequenceFull { .. })
        ));
    }

    #[test]
    fn generation_at_context_boundary_is_capped_and_consistent() {
        // Exactly max_seq_len prompt tokens: both greedy paths emit
        // exactly one more token (predicted from the full context,
        // never fed back) and agree bit-for-bit.
        let m = model();
        let max = 32;
        let prompt: Vec<u32> = (0..max).map(|i| (i % 16) as u32).collect();
        let uncached = generate_greedy(&m, &prompt, 5).unwrap();
        let cached = gen(&m, &prompt, 5, Sampler::Greedy).unwrap();
        assert_eq!(uncached.len(), max + 1);
        assert_eq!(uncached, cached);
        // One token below the boundary: two new tokens fit.
        let prompt: Vec<u32> = (0..max - 1).map(|i| (i % 16) as u32).collect();
        let uncached = generate_greedy(&m, &prompt, 5).unwrap();
        let cached = gen(&m, &prompt, 5, Sampler::Greedy).unwrap();
        assert_eq!(uncached.len(), max + 1);
        assert_eq!(uncached, cached);
    }
}
