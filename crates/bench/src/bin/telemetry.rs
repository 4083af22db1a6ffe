//! Small instrumented end-to-end run emitting `results/telemetry.json`.
//!
//! Exercises every instrumented layer with deterministic work units —
//! quantization scheduler + session caches (`quant/…`), perplexity
//! (`eval/ppl/…`), packed-weight forward (`qmodel/qlinear/…`) and
//! KV-cache decoding (`decode/…`) — merges the recorders into one
//! snapshot, and asserts the structural invariants the counters exist
//! to protect:
//!
//! - the packed forward never takes a re-unpack fallback and touches
//!   each code exactly once, even for byte-misaligned shapes;
//! - a 256-token decode moves O(T) KV bytes (no O(T²) cache regrowth);
//! - repeated method rows hit the session's Hessian cache instead of
//!   re-running activation capture.
//!
//! Run via `cargo run -p aptq-bench --bin telemetry --release`; CI
//! archives the snapshot (see `ci/check.sh`).

use aptq_core::engine::quantize_layer_rtn;
use aptq_core::grid::{GridConfig, QuantGrid};
use aptq_core::QuantSession;
use aptq_eval::perplexity_recorded;
use aptq_eval::pipeline::{quantize_clone, Method};
use aptq_lm::decode::DecodeSession;
use aptq_lm::{LinearOp, Model, ModelConfig};
use aptq_obs::Recorder;
use aptq_qmodel::QuantizedLinear;
use aptq_tensor::init;

fn main() {
    let mut rec = Recorder::new();

    // --- Quantization: two Hessian modes, one repeat row per mode so
    // the session cache must serve hits.
    let cfg = ModelConfig {
        max_seq_len: 256,
        ..ModelConfig::test_tiny(16)
    };
    let model = Model::new(&cfg, 7);
    let calib: Vec<Vec<u32>> = (0..6)
        .map(|k| (0..24).map(|i| ((i * 5 + k) % 16) as u32).collect())
        .collect();
    let grid = GridConfig::default();
    let mut session = QuantSession::new(calib);
    let rows = [
        Method::Gptq { bits: 4 },
        Method::Gptq { bits: 2 },
        Method::AptqUniform { bits: 4 },
        Method::AptqMixed { ratio: 0.75 },
    ];
    let mut quantized = None;
    for method in rows {
        let (m, _) =
            quantize_clone(&model, method, &mut session, &grid).expect("method row must quantize");
        quantized = Some(m);
    }
    rec.merge(&session.take_metrics());
    assert!(
        rec.get("quant/session/capture_passes") >= 1,
        "at least one Hessian capture pass must be recorded"
    );
    assert!(
        rec.get("quant/session/hessian_hits") >= 1,
        "repeated rows must hit the session Hessian cache"
    );
    assert!(rec.get("quant/obq/layers_solved") >= 1);

    // --- Perplexity over the last quantized clone.
    let eval_segs: Vec<Vec<u32>> = (0..4)
        .map(|k| (0..32).map(|i| ((i * 7 + k) % 16) as u32).collect())
        .collect();
    let ppl = perplexity_recorded(&quantized.expect("rows ran"), &eval_segs, &mut rec)
        .expect("perplexity must evaluate");
    assert!(ppl.is_finite() && ppl > 1.0, "PPL {ppl} out of range");
    assert!(rec.get("eval/ppl/tokens_predicted") >= 1);

    // --- Packed-weight forward at a byte-misaligned shape: 3-bit codes
    // with d_out = 5 put most group rows off byte boundaries.
    let (d_in, d_out) = (24, 5);
    let mut rng = init::rng(13);
    let w = init::normal(d_in, d_out, 0.5, &mut rng);
    let qcfg = GridConfig {
        group_size: 8,
        ..GridConfig::default()
    };
    let res = quantize_layer_rtn(&w, QuantGrid::int(3, true), &qcfg);
    let qlin = QuantizedLinear::new(res.packed);
    let x = init::normal(4, d_in, 1.0, &mut rng);
    let y = qlin.forward_op(&x, Some(&mut rec));
    let want = x.matmul(&res.dequantized);
    for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
        assert!((a - b).abs() < 1e-4, "packed forward diverged: {a} vs {b}");
    }
    assert_eq!(
        rec.get("qmodel/qlinear/fallback_entries"),
        0,
        "the bit-offset unpacker must never fall back"
    );
    assert_eq!(
        rec.get("qmodel/qlinear/codes_unpacked"),
        (d_in * d_out) as u64,
        "3-bit forward must unpack each code exactly once"
    );

    // --- 256-token decode through the preallocated KV cache.
    let mut decode = DecodeSession::new(&model);
    for i in 0..256u32 {
        decode
            .feed(i % 16)
            .expect("decode must not exhaust context");
    }
    let used = decode.cache_bytes() as u64;
    let metrics = decode.take_metrics();
    assert_eq!(metrics.get("decode/tokens"), 256);
    assert_eq!(
        metrics.get("decode/kv_bytes_moved"),
        used,
        "KV write traffic must equal used bytes — O(T), not O(T²)"
    );
    rec.merge(&metrics);

    // --- Quantized 256-token decode over the same model: the packed
    // stack instantiates the same generic DecodeSession, so per-token
    // operator work must be flat in sequence position. The steady-state
    // per-token costs are archived under `decode/q/…` next to the float
    // `decode/…` scope for side-by-side comparison.
    let hs = aptq_core::collect_hessians(&model, &eval_segs, aptq_core::HessianMode::LayerInput)
        .expect("hessians for packed decode");
    let plan = aptq_core::QuantPlan::uniform(&model, 4);
    let qmodel = aptq_qmodel::QuantizedModel::quantize_from(&model, &plan, &hs, &grid)
        .expect("packed model must quantize");
    let mut qdecode = qmodel.decode_session();
    let mut prev = (0u64, 0u64);
    let mut per_token = None;
    for i in 0..256u32 {
        qdecode
            .feed(i % 16)
            .expect("quantized decode must not exhaust context");
        let m = qdecode.metrics();
        let now = (
            m.get("qmodel/qlinear/codes_unpacked"),
            m.get("qmodel/qlinear/macs"),
        );
        let delta = (now.0 - prev.0, now.1 - prev.1);
        prev = now;
        match per_token {
            None => per_token = Some(delta),
            Some(first) => assert_eq!(
                delta, first,
                "step {i}: quantized per-token decode cost must be \
                 independent of sequence position"
            ),
        }
    }
    let per_token = per_token.expect("256 steps ran");
    let qused = qdecode.cache_bytes() as u64;
    let qmetrics = qdecode.take_metrics();
    assert_eq!(qmetrics.get("decode/tokens"), 256);
    assert_eq!(
        qmetrics.get("decode/kv_bytes_moved"),
        qused,
        "quantized KV write traffic must equal used bytes — O(T)"
    );
    assert_eq!(
        qmetrics.get("qmodel/qlinear/fallback_entries"),
        0,
        "packed decode must never take a re-unpack fallback"
    );
    rec.add("decode/q/tokens", qmetrics.get("decode/tokens"));
    rec.add(
        "decode/q/kv_bytes_moved",
        qmetrics.get("decode/kv_bytes_moved"),
    );
    rec.add("decode/q/codes_unpacked_per_token", per_token.0);
    rec.add("decode/q/macs_per_token", per_token.1);
    rec.add(
        "decode/q/forward_calls",
        qmetrics.get("qmodel/qlinear/forward_calls"),
    );

    // --- Batched quantized decode: the serving amortization claim.
    // One step of a B-sequence batch must unpack exactly as many codes
    // as one step of a single sequence — the projections run once per
    // layer per step over the stacked rows, so per-step unpacking work
    // is independent of batch size (only MACs scale with B).
    let mut per_step_codes = Vec::new();
    let mut batch_metrics = None;
    for &bsize in &[1usize, 4] {
        let mut batch = qmodel.batch_decode_session();
        let slots: Vec<usize> = (0..bsize).map(|_| batch.join()).collect();
        let mut prev = 0u64;
        let mut first = None;
        for i in 0..32u32 {
            let tokens: Vec<(usize, u32)> = slots
                .iter()
                .enumerate()
                .map(|(s, &id)| (id, (i + s as u32) % 16))
                .collect();
            batch.step(&tokens).expect("batched step must succeed");
            let now = batch.metrics().get("qmodel/qlinear/codes_unpacked");
            let delta = now - prev;
            prev = now;
            match first {
                None => first = Some(delta),
                Some(f) => assert_eq!(
                    delta, f,
                    "batch size {bsize}, step {i}: per-step unpacking must be flat"
                ),
            }
        }
        per_step_codes.push(first.expect("32 steps ran"));
        batch_metrics = Some(batch.take_metrics());
    }
    assert_eq!(
        per_step_codes[0], per_step_codes[1],
        "codes unpacked per batched step must not scale with batch size"
    );
    let bm = batch_metrics.expect("batched runs completed");
    assert_eq!(bm.get("decode/batch/steps"), 32);
    assert_eq!(bm.get("decode/batch/tokens"), 4 * 32);
    assert_eq!(bm.get("decode/batch/occupancy"), 4 * 32);
    // Archive the B=4 run's decode/batch/* counters plus the
    // amortization figure proven above.
    rec.add("decode/batch/steps", bm.get("decode/batch/steps"));
    rec.add("decode/batch/tokens", bm.get("decode/batch/tokens"));
    rec.add("decode/batch/occupancy", bm.get("decode/batch/occupancy"));
    rec.add("decode/batch/joins", bm.get("decode/batch/joins"));
    rec.add(
        "decode/batch/kv_bytes_moved",
        bm.get("decode/batch/kv_bytes_moved"),
    );
    rec.add("decode/batch/codes_unpacked_per_step", per_step_codes[1]);

    aptq_bench::emit("telemetry.json", &rec.to_json()).expect("emit telemetry.json");
}
