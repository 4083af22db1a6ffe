//! Ablation studies beyond the paper's Table 3, covering the design
//! choices `DESIGN.md` calls out:
//!
//! A. **Group size** — quantization grid granularity vs perplexity.
//! B. **Hessian damping** — stability/quality trade-off of the
//!    Levenberg–Marquardt regularizer.
//! C. **Calibration size** — how many segments the Hessians need.
//! D. **Attention-aware vs layer-input Hessians** — APTQ's §3.2
//!    contribution isolated at uniform low bit-widths.
//! E. **Sensitivity metric** — mean-trace vs trace×perturbation vs
//!    empirical-loss allocation vs manual block-wise (extends Table 3).
//! F. **Hutchinson estimator** — stochastic vs exact Hessian traces
//!    (the HAWQ-V2 machinery referenced in §2).
//!
//! ```text
//! cargo run -p aptq-bench --bin ablations --release [-- --smoke]
//! ```

use aptq_bench::{emit, Experiment, ExperimentScale};
use aptq_core::grid::GridConfig;
use aptq_core::methods::apply_plan_obq;
use aptq_core::mixed::{AllocationPolicy, MixedPrecisionAllocator};
use aptq_core::trace::{hutchinson_trace, SensitivityMetric, SensitivityReport};
use aptq_core::{HessianMode, QuantSession};
use aptq_eval::perplexity;
use aptq_eval::pipeline::{quantize_clone, Method};
use aptq_eval::zoo::ModelSize;
use aptq_lm::Model;
use aptq_obs::Recorder;
use aptq_tensor::parallel::thread_count;

fn main() {
    let scale = if std::env::args().any(|a| a == "--smoke") {
        ExperimentScale::smoke()
    } else {
        ExperimentScale::full()
    };
    eprintln!("[ablations] preparing experiment…");
    let mut exp = Experiment::prepare(ModelSize::Small, scale, true).expect("experiment setup");
    let mut out = String::from("## Ablation studies (TinyLlama-S, SyntheticC4 perplexity)\n\n");

    // One QuantSession spans every study: the Hessians depend only on
    // the calibration set and the capture mode (not on GridConfig), so
    // the grid sweeps below all reuse the two cached capture passes.
    out.push_str(&group_size_ablation(&mut exp));
    out.push_str(&damping_ablation(&mut exp));
    out.push_str(&calibration_size_ablation(&exp));
    out.push_str(&hessian_mode_ablation(&mut exp));
    out.push_str(&sensitivity_metric_ablation(&mut exp));
    out.push_str(&hutchinson_ablation(&mut exp));
    eprintln!(
        "[ablations] session reuse: {} capture passes, {} sensitivity probes",
        exp.session.capture_passes(),
        exp.session.sensitivity_passes()
    );

    emit("ablations.md", &out).expect("write results");
}

fn ppl_with(exp: &mut Experiment, method: Method, cfg: &GridConfig) -> f32 {
    let (model, _) =
        quantize_clone(&exp.stack.model, method, &mut exp.session, cfg).expect("quantization");
    perplexity(&model, &exp.eval_c4).expect("ppl")
}

fn group_size_ablation(exp: &mut Experiment) -> String {
    let mut s = String::from(
        "### A. Group size (GPTQ)\n\n| group | 4-bit PPL | 2-bit PPL |\n|---|---|---|\n",
    );
    for gs in [8usize, 16, 32] {
        let cfg = GridConfig {
            group_size: gs,
            ..exp.grid
        };
        let p4 = ppl_with(exp, Method::Gptq { bits: 4 }, &cfg);
        let p2 = ppl_with(exp, Method::Gptq { bits: 2 }, &cfg);
        s.push_str(&format!("| {gs} | {p4:.3} | {p2:.3} |\n"));
        eprintln!("[ablations] group={gs}: 4b {p4:.3}, 2b {p2:.3}");
    }
    s.push('\n');
    s
}

fn damping_ablation(exp: &mut Experiment) -> String {
    let mut s = String::from("### B. Hessian damping (GPTQ 2-bit)\n\n| damp | PPL |\n|---|---|\n");
    for damp in [0.001f32, 0.01, 0.1, 1.0] {
        let cfg = GridConfig { damp, ..exp.grid };
        let p = ppl_with(exp, Method::Gptq { bits: 2 }, &cfg);
        s.push_str(&format!("| {damp} | {p:.3} |\n"));
        eprintln!("[ablations] damp={damp}: {p:.3}");
    }
    s.push('\n');
    s
}

fn calibration_size_ablation(exp: &Experiment) -> String {
    let mut s = String::from(
        "### C. Calibration size (APTQ 2-bit uniform)\n\n| segments | PPL |\n|---|---|\n",
    );
    // Sub-sampled calibration sets are distinct snapshots, so this study
    // deliberately bypasses the shared session and its caches.
    let full = exp.session.calibration();
    for n in [4usize, 16, full.len()] {
        let calib = &full[..n.min(full.len())];
        let (model, _) = quantize_clone(
            &exp.stack.model,
            Method::AptqUniform { bits: 2 },
            &mut QuantSession::new(calib.to_vec()),
            &exp.grid,
        )
        .expect("quantization");
        let p = perplexity(&model, &exp.eval_c4).expect("ppl");
        s.push_str(&format!("| {n} | {p:.3} |\n"));
        eprintln!("[ablations] calib={n}: {p:.3}");
    }
    s.push('\n');
    s
}

fn hessian_mode_ablation(exp: &mut Experiment) -> String {
    let mut s = String::from(
        "### D. Layer-input vs attention-aware Hessians (uniform bits)\n\n\
         | bits | GPTQ (layer-input) | APTQ (attention-aware) |\n|---|---|---|\n",
    );
    let grid = exp.grid;
    for bits in [2u8, 3, 4] {
        let g = ppl_with(exp, Method::Gptq { bits }, &grid);
        let a = ppl_with(exp, Method::AptqUniform { bits }, &grid);
        s.push_str(&format!("| {bits} | {g:.3} | {a:.3} |\n"));
        eprintln!("[ablations] bits={bits}: gptq {g:.3}, aptq {a:.3}");
    }
    s.push('\n');
    s
}

fn sensitivity_metric_ablation(exp: &mut Experiment) -> String {
    let mut s = String::from(
        "### E. Allocation signal at R = 50% (avg 3.0 bits)\n\n| signal | PPL |\n|---|---|\n",
    );
    let model: &Model = &exp.stack.model;
    let hessians = exp
        .session
        .hessians(model, HessianMode::AttentionAware)
        .expect("hessians");
    let empirical = exp
        .session
        .probe_sensitivity(model, 2, &exp.grid)
        .expect("sensitivity probe");
    let allocator = MixedPrecisionAllocator::two_four(0.5).expect("ratio");

    let run = |label: &str, sensitivity: &SensitivityReport, policy: AllocationPolicy| {
        let plan = allocator.allocate(model, sensitivity, policy);
        let mut m = model.clone();
        apply_plan_obq(
            label,
            &mut m,
            &plan,
            &hessians,
            &exp.grid,
            thread_count(),
            &mut Recorder::new(),
        )
        .expect("apply plan");
        let p = perplexity(&m, &exp.eval_c4).expect("ppl");
        eprintln!("[ablations] signal={label}: {p:.3}");
        format!("| {label} | {p:.3} |\n")
    };

    let raw = SensitivityReport::with_metric(
        &hessians,
        model,
        SensitivityMetric::MeanTrace,
        2,
        &exp.grid,
    );
    let weighted = SensitivityReport::with_metric(
        &hessians,
        model,
        SensitivityMetric::TraceTimesPerturbation,
        2,
        &exp.grid,
    );

    s.push_str(&run(
        "mean-trace (paper literal, default)",
        &raw,
        AllocationPolicy::HessianTrace,
    ));
    s.push_str(&run(
        "trace × perturbation (HAWQ-V2)",
        &weighted,
        AllocationPolicy::HessianTrace,
    ));
    s.push_str(&run(
        "empirical loss (2-bit probe)",
        &empirical,
        AllocationPolicy::HessianTrace,
    ));
    s.push_str(&run(
        "manual block-wise",
        &empirical,
        AllocationPolicy::ManualBlockwise,
    ));
    s.push('\n');
    s
}

fn hutchinson_ablation(exp: &mut Experiment) -> String {
    let mut s = String::from(
        "### F. Hutchinson vs exact Hessian trace\n\n| probes | mean relative error |\n|---|---|\n",
    );
    let hessians = exp
        .session
        .hessians(&exp.stack.model, HessianMode::LayerInput)
        .expect("hessians");
    for probes in [4usize, 16, 64, 256] {
        let mut rel = 0.0f64;
        let mut n = 0usize;
        for (i, lh) in hessians.values().enumerate() {
            let exact = lh.h.trace();
            if exact.abs() < 1e-9 {
                continue;
            }
            let est = hutchinson_trace(&lh.h, probes, 1000 + i as u64);
            rel += ((est - exact).abs() / exact.abs()) as f64;
            n += 1;
        }
        let mean_rel = rel / n.max(1) as f64;
        s.push_str(&format!("| {probes} | {mean_rel:.4} |\n"));
        eprintln!("[ablations] hutchinson probes={probes}: rel err {mean_rel:.4}");
    }
    s.push('\n');
    s
}
