//! Everything a run feeds the program: the committed checkpoint, the
//! calibration and held-out corpora, and the seeded request pools.
//!
//! The program never sees the seed, only what is generated from it,
//! and the same seed always yields byte-identical inputs.

use std::path::Path;

use aptq_lm::Model;
use aptq_textgen::corpus::{CorpusGenerator, CorpusStyle};
use aptq_textgen::{Grammar, Tokenizer};

/// Calibration corpus seed of `aptq pack` (the CLI's `calibration`).
pub const CALIB_SEED: u64 = 40_001;
/// Held-out corpus seed of `aptq eval-ppl`.
const EVAL_SEED: u64 = 50_002;
/// Base corpus seed for request prompts, disjoint from both above.
const PROMPT_SEED: u64 = 60_000;

/// Calibration segments × tokens per segment, as `aptq pack` draws
/// them (64 segments, clamped to 64 tokens).
const CALIB_SEGMENTS: usize = 64;
const CALIB_LEN: usize = 64;

/// The committed checkpoints, relative to the repository root.
pub const ASSETS: &str = "assets";
/// Held-out perplexity segments × tokens, as `aptq eval-ppl` draws them.
const EVAL_SEGMENTS: usize = 40;
const EVAL_LEN: usize = 64;

/// Loads the committed TinyLlama-M checkpoint from `assets/`.
///
/// Fails rather than retraining when no checkpoint is committed:
/// `aptq_eval::zoo::load_or_train` silently retrains on a cache miss,
/// which would turn set-up from milliseconds into minutes.
pub fn load_checkpoint(assets: &Path) -> Result<Model, String> {
    let entries = std::fs::read_dir(assets)
        .map_err(|e| format!("no checkpoint directory {}: {e}", assets.display()))?;
    let mut found: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with("-tinyllama_m.json"))
        })
        .collect();
    found.sort();
    let path = found.pop().ok_or_else(|| {
        format!(
            "no committed TinyLlama-M checkpoint (ckpt-*-tinyllama_m.json) in {}; \
             the benchmark does not retrain",
            assets.display()
        )
    })?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let model = if aptq_artifact::is_envelope(&text) {
        Model::from_envelope_json(&text)
    } else {
        Model::from_json(&text)
    };
    model.map_err(|e| format!("loading {}: {e}", path.display()))
}

/// The synthetic language and its tokenizer.
pub struct Language {
    grammar: Grammar,
    tokenizer: Tokenizer,
}

impl Language {
    /// The standard grammar every model in the repository is trained on.
    pub fn standard() -> Self {
        let grammar = Grammar::standard();
        let tokenizer = Tokenizer::from_grammar(&grammar);
        Language { grammar, tokenizer }
    }

    fn c4(&self, seed: u64) -> CorpusGenerator<'_> {
        CorpusGenerator::new(&self.grammar, &self.tokenizer, CorpusStyle::WebC4, seed)
    }

    /// SyntheticC4 calibration segments drawn with `seed`.
    pub fn calibration(&self, seed: u64) -> Vec<Vec<u32>> {
        self.c4(seed).segments(CALIB_SEGMENTS, CALIB_LEN)
    }

    /// The held-out SyntheticC4 perplexity set (fixed, so `ppl_c4`
    /// depends only on the packed model).
    pub fn held_out(&self) -> Vec<Vec<u32>> {
        self.c4(EVAL_SEED).segments(EVAL_SEGMENTS, EVAL_LEN)
    }

    /// `spec.pool` requests drawn from `seed`. Lengths are stratified:
    /// every seed gets the same evenly spread prompt and output lengths
    /// (so seeds differ in text and pairing, not in total work), paired
    /// in a seeded order, with SyntheticC4 text as the prompt.
    pub fn requests(&self, spec: &RequestSpec, seed: u64) -> Vec<Request> {
        let mut rng = SplitMix64(seed ^ 0x05EE_D0F5_E12E);
        let mut corpus = self.c4(PROMPT_SEED + seed);
        let prompt_lens = stratified(spec.prompt_len, spec.pool);
        let mut n_news = stratified(spec.n_new, spec.pool);
        rng.shuffle(&mut n_news);
        prompt_lens
            .into_iter()
            .zip(n_news)
            .map(|(len, n_new)| Request {
                prompt: corpus.segment(len),
                n_new,
            })
            .collect()
    }
}

/// `n` values spread evenly over the inclusive range `lo..=hi`.
fn stratified((lo, hi): (usize, usize), n: usize) -> Vec<usize> {
    (0..n).map(|i| lo + i * (hi - lo + 1) / n.max(1)).collect()
}

/// Shape of a workload's request pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Distinct requests generated; clients cycle through them.
    pub pool: usize,
    /// Inclusive prompt-length range.
    pub prompt_len: (usize, usize),
    /// Inclusive output-length range.
    pub n_new: (usize, usize),
}

/// One greedy generation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Prompt tokens (non-empty).
    pub prompt: Vec<u32>,
    /// Tokens to generate (at least 1).
    pub n_new: usize,
}

/// Order in which clients take requests from a pool of `len`: every
/// cycle visits each request once, in an order shuffled from `seed`.
pub fn schedule(len: usize, cycles: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed ^ 0x0DE7_5C4E_D01E);
    let mut out = Vec::with_capacity(len * cycles);
    for _ in 0..cycles {
        let mut order: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut order);
        out.extend(order);
    }
    out
}

/// SplitMix64: a small, fixed PRNG, so inputs never depend on another
/// crate's generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: RequestSpec = RequestSpec {
        pool: 24,
        prompt_len: (4, 16),
        n_new: (64, 112),
    };

    fn bytes(reqs: &[Request]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in reqs {
            out.extend((r.n_new as u32).to_le_bytes());
            out.extend((r.prompt.len() as u32).to_le_bytes());
            for t in &r.prompt {
                out.extend(t.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        let lang = Language::standard();
        let a = bytes(&lang.requests(&SPEC, 3));
        let b = bytes(&Language::standard().requests(&SPEC, 3));
        assert_eq!(a, b);
        assert_ne!(a, bytes(&lang.requests(&SPEC, 4)), "seeds must differ");
        assert_eq!(schedule(24, 3, 9), schedule(24, 3, 9));
        assert_ne!(schedule(24, 3, 9), schedule(24, 3, 10));
        assert_eq!(lang.calibration(5), lang.calibration(5));
    }

    #[test]
    fn requests_respect_their_spec() {
        let reqs = Language::standard().requests(&SPEC, 11);
        assert_eq!(reqs.len(), SPEC.pool);
        for r in &reqs {
            assert!((4..=16).contains(&r.prompt.len()));
            assert!((64..=112).contains(&r.n_new));
        }
        // Every seed carries the same total work.
        let work = |rs: &[Request]| -> usize { rs.iter().map(|r| r.prompt.len() + r.n_new).sum() };
        assert_eq!(work(&reqs), work(&Language::standard().requests(&SPEC, 12)));
        assert_eq!(stratified((4, 16), 13), (4..=16).collect::<Vec<_>>());
        let order = schedule(SPEC.pool, 2, 1);
        let mut first: Vec<usize> = order[..SPEC.pool].to_vec();
        first.sort_unstable();
        assert_eq!(
            first,
            (0..SPEC.pool).collect::<Vec<_>>(),
            "each cycle visits all"
        );
    }

    #[test]
    fn missing_checkpoint_fails_instead_of_training() {
        // A directory without checkpoints: this crate's sources.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let err = load_checkpoint(&dir).expect_err("no checkpoint present");
        assert!(err.contains("does not retrain"), "{err}");
        assert!(load_checkpoint(&dir.join("missing")).is_err());
    }
}
