//! The `quantize-aptq75` workload: the APTQ-75% pack pipeline on
//! TinyLlama-M, run back to back for the run's seconds.
//!
//! Each pipeline run is checked (see [`pack::check`]), must produce the
//! same model as the first, and its re-opened artifact then serves a
//! fixed set of check requests for a second (each at least once), whose
//! tokens must equal solo greedy generation on the fresh model. Those
//! requests give this workload its serving figures: the first traffic a
//! freshly packed model sees.

use std::path::Path;
use std::time::{Duration, Instant};

use aptq_artifact::Fnv64;
use aptq_qmodel::QuantizedModel;

use crate::inputs::{self, Language, RequestSpec};
use crate::pack::{self, Packed};
use crate::report::Report;
use crate::serve::{self, ServeLog};
use crate::stats;
use crate::trace::Tracer;
use crate::Args;

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 5;

/// The check requests served by every freshly packed model.
const CHECK: RequestSpec = RequestSpec {
    pool: 48,
    prompt_len: (8, 16),
    n_new: (16, 32),
};
const CHECK_CLIENTS: usize = 8;
/// Seconds each freshly packed model serves the check requests for.
const CHECK_SECONDS: f64 = 1.0;

/// Runs the workload.
///
/// # Errors
///
/// Returns set-up, pipeline, decode and I/O failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(false, origin);
    let mut report = Report::new(args);

    // Set-up: the checkpoint, the seeded calibration set and the check
    // requests.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let float = inputs::load_checkpoint(Path::new(inputs::ASSETS))?;
        let lang = Language::standard();
        let calib = lang.calibration(inputs::CALIB_SEED + 1000 * args.seed);
        let pool = lang.requests(&CHECK, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((float, calib, pool));
    }
    let (float, calib, pool) = prepared.expect("at least one set-up");

    // Timed phase: whole pipeline runs until the seconds are spent. A
    // traced run traces only the runs that start in its second half.
    let mut first: Option<(QuantizedModel, Vec<Vec<u32>>)> = None;
    let mut last: Option<Packed> = None;
    let mut seconds = (Vec::new(), Vec::new());
    let mut log = (
        ServeLog::new(pool.len(), args.seconds),
        ServeLog::new(pool.len(), args.seconds),
    );
    let start = Instant::now();
    let mut run = 0u64;
    while run == 0
        || start.elapsed().as_secs_f64() < args.seconds
        || (args.trace && seconds.1.is_empty())
    {
        let traced = args.trace && start.elapsed().as_secs_f64() >= args.seconds / 2.0;
        tracer.set_on(traced);
        let p = pack::pack(&float, &calib, &mut tracer, run)?;
        for failure in pack::check(&float, &p) {
            report.check(false, &failure);
        }
        report.count(1, 0);
        let (secs, log) = if traced {
            (&mut seconds.1, &mut log.1)
        } else {
            (&mut seconds.0, &mut log.0)
        };
        secs.push(p.seconds);
        if first.is_none() {
            first = Some((p.model.clone(), serve::references(&p.fresh, &pool)?));
        }
        let (first_model, refs) = first.as_ref().expect("set above");
        report.check(
            *first_model == p.model,
            "pipeline run differs from the first",
        );
        let deadline = Instant::now() + Duration::from_secs_f64(CHECK_SECONDS);
        let mut k = 0;
        let mut next = || {
            k += 1;
            (k <= pool.len() || Instant::now() < deadline).then(|| (k - 1) % pool.len())
        };
        serve::drive(
            &p.model,
            &pool,
            refs,
            CHECK_CLIENTS,
            &mut next,
            &mut tracer,
            log,
        )?;
        last = Some(p);
        run += 1;
    }
    let (untraced_log, traced_log) = log;
    report.count(untraced_log.completed, untraced_log.failed);
    report.count(traced_log.completed, traced_log.failed);
    let p = last.expect("at least one pipeline run");

    let ppl = pack::perplexity(p.model.model())?;
    let float_ppl = pack::perplexity(&float)?;
    report.check(
        ppl <= float_ppl * pack::PPL_BOUND,
        &format!(
            "ppl_c4 {ppl} exceeds {} x float {float_ppl}",
            pack::PPL_BOUND
        ),
    );
    let log = if args.trace {
        &traced_log
    } else {
        &untraced_log
    };
    let mut digest = Fnv64::new();
    digest.eat_u64(u64::from(ppl.to_bits()));
    for l in pack::layers(&p.model) {
        digest.eat_u64(l.fingerprint());
    }
    digest.eat_u64(log.digest());
    report.note(format!(
        "output digest {:016x} ({} pipeline runs, ppl_c4 {ppl} vs float {float_ppl})",
        digest.finish(),
        run
    ));

    let kept = serve::kept_spans(log);
    if args.trace {
        let rate = |xs: &[f64]| 1.0 / stats::fastest_median(xs);
        report.overhead(rate(&seconds.0), rate(&seconds.1));
        pack::report_layers(&mut report, &tracer, &p);
        serve::report_layers(&mut report, log, &tracer, &kept, &p.model, &float, &pool)?;
        report.write_trace(&tracer, args)?;
    } else {
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("quantize_s", stats::fastest_median(&seconds.0), "s");
        report.metric("ppl_c4", f64::from(ppl), "ppl");
        serve::report_end_to_end(&mut report, &serve::summarize(log, &kept));
        report.peak_rss()?;
    }
    Ok(report)
}
