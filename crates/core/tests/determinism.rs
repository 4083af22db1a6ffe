//! Determinism suite for the layer-job scheduler, the session's Hessian
//! cache and the two quantize-time passes.
//!
//! Contract: the parallel OBQ scheduler and the parallel sensitivity
//! probe are *bit-identical* to their sequential paths at any thread
//! count, session-cached Hessians equal freshly collected ones, and the
//! session's allocation ranking is their mean trace, bit for bit.
//! The segment-major sensitivity probe and the windowed Hessian
//! capture are checked bit for bit against oracles: the layer-major
//! probe, and a sequential capture loop that runs one segment at a
//! time, one `forward_blocks` call per block, each layer's accumulator
//! updated straight from the capture. `ci/check.sh` additionally runs
//! this suite under `APTQ_THREADS=1`, `2` and `4`, in debug and release:
//! the capture window follows the thread count, so each is a distinct
//! schedule.

use std::collections::BTreeMap;

use aptq_core::attn;
use aptq_core::grid::{GridConfig, QuantGrid};
use aptq_core::hessian::{HessianAccumulator, LayerHessian};
use aptq_core::methods::apply_plan_obq;
use aptq_core::mixed::{AllocationPolicy, MixedPrecisionAllocator};
use aptq_core::trace::{empirical_sensitivity, LayerSensitivity, SensitivityReport};
use aptq_core::{collect_hessians, HessianMode, QuantError, QuantPlan, QuantSession};
use aptq_lm::{BlockCapture, CaptureSink, LayerKind, LayerRef, Model, ModelConfig};
use aptq_obs::Recorder;
use aptq_tensor::activation::log_sum_exp;

fn calib() -> Vec<Vec<u32>> {
    (0..8)
        .map(|k| (0..16).map(|i| ((i * 5 + k) % 16) as u32).collect())
        .collect()
}

fn plans_under_test(model: &Model, sensitivity_cfg: &GridConfig) -> Vec<QuantPlan> {
    let mut session = QuantSession::new(calib());
    let sensitivity = session
        .sensitivity(model, 2, sensitivity_cfg)
        .expect("sensitivity probe");
    let allocator = MixedPrecisionAllocator::two_four(0.5).expect("ratio");
    vec![
        QuantPlan::uniform(model, 4),
        QuantPlan::uniform(model, 2),
        allocator.allocate(model, &sensitivity, AllocationPolicy::HessianTrace),
        allocator.allocate(model, &sensitivity, AllocationPolicy::ManualBlockwise),
    ]
}

#[test]
fn scheduler_bit_identical_across_thread_counts() {
    let cfg = GridConfig::default();
    for mode in [HessianMode::LayerInput, HessianMode::AttentionAware] {
        let base = Model::new(&ModelConfig::test_tiny(16), 42);
        let hessians = collect_hessians(&base, &calib(), mode).unwrap();
        for (p, plan) in plans_under_test(&base, &cfg).iter().enumerate() {
            let mut seq_model = base.clone();
            let seq_report = apply_plan_obq(
                "ref",
                &mut seq_model,
                plan,
                &hessians,
                &cfg,
                1,
                &mut Recorder::new(),
            )
            .unwrap();
            for threads in [2usize, 4] {
                let mut par_model = base.clone();
                let par_report = apply_plan_obq(
                    "ref",
                    &mut par_model,
                    plan,
                    &hessians,
                    &cfg,
                    threads,
                    &mut Recorder::new(),
                )
                .unwrap();
                assert_eq!(
                    seq_report, par_report,
                    "{mode} plan {p}: report differs at {threads} threads"
                );
                for layer in base.layer_refs() {
                    assert_eq!(
                        seq_model.layer_weight(layer),
                        par_model.layer_weight(layer),
                        "{mode} plan {p}: weight {layer} differs at {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn scheduler_errors_deterministically_and_leaves_model_untouched() {
    let base = Model::new(&ModelConfig::test_tiny(16), 43);
    let hessians = collect_hessians(&base, &calib(), HessianMode::LayerInput).unwrap();
    let plan = QuantPlan::uniform(&base, 9); // unsupported width
    for threads in [1usize, 4] {
        let mut model = base.clone();
        let err = apply_plan_obq(
            "x",
            &mut model,
            &plan,
            &hessians,
            &GridConfig::default(),
            threads,
            &mut Recorder::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            aptq_core::QuantError::UnsupportedBits { bits: 9 }
        ));
        for layer in base.layer_refs() {
            assert_eq!(
                base.layer_weight(layer),
                model.layer_weight(layer),
                "failed run must not mutate weights ({threads} threads)"
            );
        }
    }
}

#[test]
fn cached_session_hessians_equal_fresh_collection() {
    let model = Model::new(&ModelConfig::test_tiny(16), 44);
    let mut session = QuantSession::new(calib());
    for mode in [HessianMode::LayerInput, HessianMode::AttentionAware] {
        // Warm the cache, then compare the cached copy against a fresh
        // collect_hessians run.
        session.hessians(&model, mode).unwrap();
        let cached = session.hessians(&model, mode).unwrap();
        let fresh = collect_hessians(&model, &calib(), mode).unwrap();
        assert_eq!(cached.len(), fresh.len());
        for (layer, fresh_lh) in &fresh {
            let cached_lh = &cached[layer];
            assert_eq!(cached_lh.n_tokens, fresh_lh.n_tokens, "{mode} {layer}");
            assert_eq!(cached_lh.mean_trace, fresh_lh.mean_trace, "{mode} {layer}");
            assert_eq!(
                cached_lh.h.as_slice(),
                fresh_lh.h.as_slice(),
                "{mode} {layer}: cached Hessian must be bit-identical"
            );
        }
    }
    assert_eq!(
        session.capture_passes(),
        2,
        "exactly one capture pass per mode"
    );
}

#[test]
fn session_sensitivity_is_the_attention_aware_mean_trace() {
    let model = Model::new(&ModelConfig::test_tiny(16), 45);
    let mut session = QuantSession::new(calib());
    let report = session
        .sensitivity(&model, 2, &GridConfig::default())
        .unwrap();
    let hessians = session
        .hessians(&model, HessianMode::AttentionAware)
        .unwrap();
    let want = SensitivityReport::from_hessians(&hessians);
    let bits = |r: &SensitivityReport| -> Vec<(LayerRef, u32)> {
        r.entries()
            .iter()
            .map(|e| (e.layer, e.mean_trace.to_bits()))
            .collect()
    };
    assert_eq!(
        bits(&report),
        bits(&want),
        "ranking differs at {} threads",
        aptq_tensor::parallel::thread_count()
    );
    assert_eq!(session.capture_passes(), 1, "one capture serves both");
}

#[test]
fn empirical_probe_reads_the_first_16_segments() {
    let model = Model::new(&ModelConfig::test_tiny(16), 45);
    let cfg = GridConfig::default();
    let bits = |probe: &[Vec<u32>]| -> Vec<(LayerRef, u32)> {
        empirical_sensitivity(&model, probe, 2, &cfg, 1)
            .unwrap()
            .entries()
            .iter()
            .map(|e| (e.layer, e.mean_trace.to_bits()))
            .collect()
    };
    let calib = segments(&[12; 20], 16, 3);
    assert_eq!(
        bits(&calib),
        bits(&calib[..16]),
        "segments 17-20 must not count"
    );
    assert_ne!(
        bits(&calib),
        bits(&calib[4..]),
        "the window is the leading 16"
    );

    // Only the window counts towards a usable probe: 16 one-token
    // segments make the set empty, however long the 17th is.
    let mut short = vec![vec![3u32]; 16];
    short.push((0..12).collect());
    assert!(matches!(
        empirical_sensitivity(&model, &short, 2, &cfg, 1),
        Err(QuantError::EmptyCalibration)
    ));
    assert!(matches!(
        QuantSession::new(short).sensitivity(&model, 2, &cfg),
        Err(QuantError::EmptyCalibration)
    ));
}

// ---------------------------------------------------------------------
// Oracles: the layer-major probe and the sequential capture loop.
// ---------------------------------------------------------------------

/// Oracle for `Model::sequence_loss`: the full forward, then the
/// cross-entropy loop.
fn oracle_sequence_loss(model: &Model, tokens: &[u32]) -> f32 {
    let logits = model.forward(tokens);
    let mut total = 0.0f64;
    for i in 0..tokens.len() - 1 {
        let row = logits.row(i);
        let target = tokens[i + 1] as usize;
        total += (log_sum_exp(row) - row[target]) as f64;
    }
    (total / (tokens.len() - 1) as f64) as f32
}

/// Mean next-token cross-entropy over probe segments.
fn probe_loss(model: &Model, probe: &[Vec<u32>]) -> f32 {
    let mut total = 0.0f64;
    let mut n = 0usize;
    for seg in probe.iter().filter(|s| s.len() >= 2) {
        total += oracle_sequence_loss(model, seg) as f64 * (seg.len() - 1) as f64;
        n += seg.len() - 1;
    }
    if n == 0 {
        0.0
    } else {
        (total / n as f64) as f32
    }
}

/// RTN-perturbs one layer inside `scratch` (taking the pristine weight
/// from `reference`), measures the probe loss increase, and restores the
/// original weight before returning.
fn probe_one_layer(
    scratch: &mut Model,
    reference: &Model,
    layer: LayerRef,
    base: f32,
    probe: &[Vec<u32>],
    low_bits: u8,
    cfg: &GridConfig,
) -> LayerSensitivity {
    let res = aptq_core::engine::quantize_layer_rtn(
        reference.layer_weight(layer),
        QuantGrid::int(low_bits, cfg.asymmetric),
        cfg,
    );
    let original = std::mem::replace(scratch.layer_weight_mut(layer), res.dequantized);
    let loss = probe_loss(scratch, probe);
    *scratch.layer_weight_mut(layer) = original;
    LayerSensitivity {
        layer,
        mean_trace: loss - base,
    }
}

/// Oracle probe: every layer in turn, every segment end to end.
fn oracle_sensitivity(
    model: &Model,
    probe: &[Vec<u32>],
    low_bits: u8,
    cfg: &GridConfig,
) -> BTreeMap<LayerRef, u32> {
    let base = probe_loss(model, probe);
    let mut scratch = model.clone();
    model
        .layer_refs()
        .into_iter()
        .map(|layer| {
            let e = probe_one_layer(&mut scratch, model, layer, base, probe, low_bits, cfg);
            (e.layer, e.mean_trace.to_bits())
        })
        .collect()
}

/// Oracle capture of one segment: one `forward_blocks` call per block,
/// each into a fresh [`BlockCapture`].
fn oracle_captures(model: &Model, seg: &[u32]) -> Vec<BlockCapture> {
    let mut x = model.embed_tokens(seg);
    let mut caps = Vec::with_capacity(model.blocks().len());
    for b in 0..model.blocks().len() {
        let mut capture = BlockCapture::default();
        let sink = CaptureSink {
            capture: &mut capture,
            each: &mut |_, _| {},
        };
        model.forward_blocks(b..b + 1, &mut x, Some(sink));
        caps.push(capture);
    }
    caps
}

/// Oracle Hessians: one segment at a time through [`oracle_captures`],
/// each layer's accumulator updated straight from the capture.
fn oracle_hessians(
    model: &Model,
    segments: &[Vec<u32>],
    mode: HessianMode,
) -> BTreeMap<LayerRef, LayerHessian> {
    let d_model = model.config().d_model;
    let d_ff = model.config().d_ff;

    let mut accs: BTreeMap<LayerRef, HessianAccumulator> = BTreeMap::new();
    for r in model.layer_refs() {
        let dim = if r.kind == LayerKind::Down {
            d_ff
        } else {
            d_model
        };
        accs.insert(r, HessianAccumulator::new(dim));
    }

    for seg in segments.iter().filter(|s| !s.is_empty()) {
        for (b, cap) in oracle_captures(model, seg).iter().enumerate() {
            let wo = model.layer_weight(LayerRef {
                block: b,
                kind: LayerKind::O,
            });
            for kind in LayerKind::ALL {
                let r = LayerRef { block: b, kind };
                let acc = accs.get_mut(&r).expect("accumulator exists");
                match (mode, kind) {
                    (HessianMode::AttentionAware, LayerKind::Q) => {
                        acc.update(&attn::effective_input_q(cap, wo));
                    }
                    (HessianMode::AttentionAware, LayerKind::K) => {
                        acc.update(&attn::effective_input_k(cap, wo));
                    }
                    (HessianMode::AttentionAware, LayerKind::V) => {
                        for (i, (s, x)) in attn::effective_inputs_v(cap, wo).into_iter().enumerate()
                        {
                            if i == 0 {
                                acc.update_weighted(&x, s);
                            } else {
                                acc.update_weighted_uncounted(&x, s);
                            }
                        }
                    }
                    (_, LayerKind::O) => acc.update(attn::effective_input_o(cap)),
                    (HessianMode::LayerInput, LayerKind::Q | LayerKind::K | LayerKind::V) => {
                        acc.update(&cap.attn_input);
                    }
                    (_, LayerKind::Gate | LayerKind::Up) => acc.update(&cap.ffn_input),
                    (_, LayerKind::Down) => acc.update(&cap.ffn_hidden),
                }
            }
        }
    }

    accs.into_iter().map(|(r, a)| (r, a.finish())).collect()
}

// ---------------------------------------------------------------------
// Inputs: the committed TinyLlama-M checkpoint, and `test_tiny` with
// ragged calibration.
// ---------------------------------------------------------------------

fn tinyllama_m() -> Model {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../assets/ckpt-s800b12l44-v134-tinyllama_m.json"
    );
    let json = std::fs::read_to_string(path).expect("committed TinyLlama-M checkpoint");
    Model::from_json(&json).expect("checkpoint parses")
}

/// Seeded segments of the given lengths over `vocab` tokens.
fn segments(lengths: &[usize], vocab: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed;
    lengths
        .iter()
        .map(|&len| {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) % u64::from(vocab)) as u32
                })
                .collect()
        })
        .collect()
}

/// Ragged calibration: an empty, a 1-token and odd-length segments; 7
/// non-empty segments, a multiple of neither window 2 nor window 4.
fn ragged_tiny() -> (Model, Vec<Vec<u32>>) {
    let model = Model::new(&ModelConfig::test_tiny(16), 46);
    let segs = segments(&[0, 1, 7, 12, 3, 2, 9, 13], 16, 7);
    (model, segs)
}

fn tinyllama_m_calibration(model: &Model) -> Vec<Vec<u32>> {
    segments(
        &[64, 0, 33, 1, 64, 17],
        model.config().vocab_size as u32,
        11,
    )
}

fn assert_probe_matches_oracle(model: &Model, probe: &[Vec<u32>], what: &str) {
    let cfg = GridConfig::default();
    let want = oracle_sensitivity(model, probe, 2, &cfg);
    for threads in [1usize, 2, 3, 4] {
        let report = empirical_sensitivity(model, probe, 2, &cfg, threads).unwrap();
        assert_eq!(report.len(), want.len(), "{what}: one entry per layer");
        for e in report.entries() {
            assert_eq!(
                e.mean_trace.to_bits(),
                want[&e.layer],
                "{what}: {} differs from the layer-major probe at {threads} threads",
                e.layer
            );
        }
    }
}

fn assert_hessians_match_oracle(model: &Model, segments: &[Vec<u32>], what: &str) {
    for mode in [HessianMode::LayerInput, HessianMode::AttentionAware] {
        let want = oracle_hessians(model, segments, mode);
        let got = collect_hessians(model, segments, mode).unwrap();
        assert_eq!(
            got.len(),
            want.len(),
            "{what} {mode}: one Hessian per layer"
        );
        for (layer, w) in &want {
            let g = &got[layer];
            assert_eq!(g.n_tokens, w.n_tokens, "{what} {mode} {layer}: n_tokens");
            assert_eq!(
                g.mean_trace.to_bits(),
                w.mean_trace.to_bits(),
                "{what} {mode} {layer}: mean_trace"
            );
            let bits = |lh: &LayerHessian| -> Vec<u32> {
                lh.h.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(g), bits(w), "{what} {mode} {layer}: Hessian entries");
        }
    }
}

#[test]
fn segment_major_probe_matches_layer_major_oracle_on_tinyllama_m() {
    let model = tinyllama_m();
    let probe = tinyllama_m_calibration(&model);
    assert_probe_matches_oracle(&model, &probe, "TinyLlama-M");
}

#[test]
fn segment_major_probe_matches_layer_major_oracle_on_ragged_probe() {
    let (model, probe) = ragged_tiny();
    assert_probe_matches_oracle(&model, &probe, "test_tiny ragged");
}

#[test]
fn windowed_capture_matches_sequential_oracle_on_tinyllama_m() {
    let model = tinyllama_m();
    let calib = tinyllama_m_calibration(&model);
    assert_hessians_match_oracle(&model, &calib, "TinyLlama-M");
}

#[test]
fn windowed_capture_matches_sequential_oracle_on_ragged_calibration() {
    let (model, calib) = ragged_tiny();
    assert_hessians_match_oracle(&model, &calib, "test_tiny ragged");
}

#[test]
fn capture_matches_sequential_oracle_on_mixed_lengths() {
    // Lengths 1, 17 and 64 interleaved, so consecutive segments (and
    // each window of 2 or 4) change length in both directions.
    let model = tinyllama_m();
    let calib = segments(
        &[64, 1, 17, 64, 17, 1, 1, 64, 17],
        model.config().vocab_size as u32,
        13,
    );
    assert_hessians_match_oracle(&model, &calib, "TinyLlama-M mixed lengths");
}

#[test]
fn capture_matches_sequential_oracle_on_benchmark_shaped_calibration() {
    // The benchmark's calibration shape: 64 segments of 64 tokens.
    let model = tinyllama_m();
    let calib = segments(&[64; 64], model.config().vocab_size as u32, 17);
    assert_hessians_match_oracle(&model, &calib, "TinyLlama-M 64 x 64");
}
