//! The `aptq pack` pipeline, phase by phase, and its output checks.
//!
//! Attention-aware Hessians → empirical 2-bit sensitivity probe →
//! Eq. 18 2/4-bit allocation at R = 0.75 → OBQ solve and pack →
//! integrity verification → artifact envelope seal and re-open.

use std::time::Instant;

use aptq_core::grid::GridConfig;
use aptq_core::plan::eq18_average_bits;
use aptq_core::{AllocationPolicy, HessianMode, MixedPrecisionAllocator, QuantPlan, QuantSession};
use aptq_lm::{LinearOp, Model, ModelOf};
use aptq_qmodel::{QuantizedLinear, QuantizedModel};

use crate::inputs::Language;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;

/// The APTQ-75% 4-bit weight ratio (the `R` of Eq. 18).
pub const RATIO: f32 = 0.75;

/// Packed perplexity may exceed float perplexity by at most this
/// factor on the held-out set (APTQ-75% measures ≈ 1.07 on TinyLlama-M).
pub const PPL_BOUND: f32 = 1.15;

/// One pipeline run's products.
#[derive(Debug)]
pub struct Packed {
    /// The model as packed in memory.
    pub fresh: QuantizedModel,
    /// The model re-opened from its sealed envelope (the one served).
    pub model: QuantizedModel,
    /// The 2/4-bit assignment.
    pub plan: QuantPlan,
    /// Wall time of the whole pipeline.
    pub seconds: f64,
    /// Activation-capture passes the session ran.
    pub capture_passes: usize,
    /// Packed projection bytes.
    pub packed_bytes: usize,
    /// Failures of `verify()` on the fresh model.
    pub verify_error: Option<String>,
}

/// Runs the pipeline once on `float` with `calib`, recording a span per
/// phase under a `core.pack` span for pipeline run `run`.
///
/// # Errors
///
/// Returns the first phase that fails outright; a failed `verify()` is
/// recorded in [`Packed::verify_error`] instead.
pub fn pack(
    float: &Model,
    calib: &[Vec<u32>],
    tracer: &mut Tracer,
    run: u64,
) -> Result<Packed, String> {
    let start = Instant::now();
    let root = tracer.begin("core.pack", None, Some(run));
    let cfg = GridConfig::default();
    let mut session = QuantSession::new(calib.to_vec());

    let span = tracer.begin("core.session.hessians", root, Some(run));
    let hessians = session
        .hessians(float, HessianMode::AttentionAware)
        .map_err(|e| format!("hessians: {e}"))?;
    tracer.end(span);

    let span = tracer.begin("core.session.sensitivity", root, Some(run));
    let sensitivity = session
        .sensitivity(float, 2, &cfg)
        .map_err(|e| format!("sensitivity: {e}"))?;
    tracer.end(span);

    let span = tracer.begin("core.mixed.allocate", root, Some(run));
    let plan = MixedPrecisionAllocator::two_four(RATIO)
        .map_err(|e| format!("allocator: {e}"))?
        .allocate(float, &sensitivity, AllocationPolicy::HessianTrace);
    tracer.end(span);

    let span = tracer.begin("qmodel.quantize_from", root, Some(run));
    let fresh = QuantizedModel::quantize_from(float, &plan, &hessians, &cfg)
        .map_err(|e| format!("quantize_from: {e}"))?;
    tracer.end(span);

    let span = tracer.begin("qmodel.verify", root, Some(run));
    let verify_error = fresh.verify().err().map(|e| format!("verify: {e}"));
    tracer.end(span);

    let span = tracer.begin("artifact.seal", root, Some(run));
    let sealed = fresh.to_envelope_json().map_err(|e| format!("seal: {e}"))?;
    tracer.end(span);

    let span = tracer.begin("artifact.open", root, Some(run));
    let model = QuantizedModel::from_envelope_json(&sealed).map_err(|e| format!("open: {e}"))?;
    tracer.end(span);
    tracer.end(root);

    Ok(Packed {
        seconds: start.elapsed().as_secs_f64(),
        capture_passes: session.capture_passes(),
        packed_bytes: fresh.memory().packed_bytes,
        fresh,
        model,
        plan,
        verify_error,
    })
}

/// Every packed projection of `q`, block by block in q, k, v, o, gate,
/// up, down order.
pub fn layers(q: &QuantizedModel) -> Vec<&QuantizedLinear> {
    q.model()
        .blocks()
        .iter()
        .flat_map(crate::layers::projections)
        .collect()
}

fn fingerprints(q: &QuantizedModel) -> Vec<u64> {
    layers(q).iter().map(|l| l.fingerprint()).collect()
}

/// Checks one pipeline run; returns a description of each failure.
///
/// - `verify()` passed on the fresh model;
/// - the envelope round-trip gives identical layer fingerprints and an
///   equal model;
/// - the achieved 4-bit ratio meets R and overshoots it by at most one
///   layer, and the average bits equal Eq. 18 at the achieved ratio;
/// - exactly one activation-capture pass ran.
pub fn check(float: &Model, p: &Packed) -> Vec<String> {
    let mut failures: Vec<String> = p.verify_error.iter().cloned().collect();
    if fingerprints(&p.fresh) != fingerprints(&p.model) || p.fresh != p.model {
        failures.push("envelope round-trip changed the packed layers".into());
    }
    let total: usize = float
        .layer_refs()
        .iter()
        .map(|&r| float.layer_weight(r).len())
        .sum();
    let largest = float
        .layer_refs()
        .iter()
        .map(|&r| float.layer_weight(r).len())
        .max()
        .unwrap_or(0);
    let r = p.plan.high_bit_ratio(float, 4);
    let share = largest as f32 / total.max(1) as f32;
    if r + 1e-6 < RATIO || r > RATIO + share + 1e-6 {
        failures.push(format!("4-bit ratio {r} misses R = {RATIO}"));
    }
    let avg = p.plan.avg_bits(float);
    if (avg - eq18_average_bits(r)).abs() > 1e-4 {
        failures.push(format!(
            "average bits {avg} differ from Eq. 18 ({})",
            eq18_average_bits(r)
        ));
    }
    if p.capture_passes != 1 {
        failures.push(format!("{} capture passes, expected 1", p.capture_passes));
    }
    failures
}

/// Perplexity of a float or packed model on the held-out SyntheticC4
/// set.
///
/// # Errors
///
/// Returns the evaluation error.
pub fn perplexity<L: LinearOp>(model: &ModelOf<L>) -> Result<f32, String> {
    aptq_eval::perplexity(model, &Language::standard().held_out())
        .map_err(|e| format!("perplexity: {e}"))
}

/// Adds the per-layer metrics of the pipeline: each phase's median self
/// time over the traced runs, and the counts of `p`.
pub fn report_layers(report: &mut Report, tracer: &Tracer, p: &Packed) {
    let phase = |span: &str| stats::median(&tracer.self_times_us(span, |_| true));
    report.metric(
        "core.session.hessians_s",
        phase("core.session.hessians") / 1e6,
        "s",
    );
    report.metric(
        "core.session.sensitivity_s",
        phase("core.session.sensitivity") / 1e6,
        "s",
    );
    report.metric(
        "core.session.capture_passes",
        p.capture_passes as f64,
        "count",
    );
    report.metric("core.mixed.allocate_us", phase("core.mixed.allocate"), "us");
    report.metric(
        "qmodel.quantize_from_s",
        phase("qmodel.quantize_from") / 1e6,
        "s",
    );
    report.metric("qmodel.packed_bytes", p.packed_bytes as f64, "B");
    report.metric("qmodel.verify_ms", phase("qmodel.verify") / 1e3, "ms");
    report.metric("artifact.seal_ms", phase("artifact.seal") / 1e3, "ms");
    report.metric("artifact.open_ms", phase("artifact.open") / 1e3, "ms");
}
