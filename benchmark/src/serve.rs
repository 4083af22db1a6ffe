//! Closed-loop clients served by one `BatchDecodeSession`, and
//! the `serve-batched` workload built on it.
//!
//! `clients` callers each hold at most one request. A caller whose
//! request completes takes the next one from the schedule at the start
//! of the following step (closed loop: a slow system receives less
//! load). Every step feeds one token per active request, prompt tokens
//! first, then the request's own greedy outputs, so prefill is
//! token-by-token inside the shared batch.

use std::path::Path;
use std::time::{Duration, Instant};

use aptq_artifact::Fnv64;
use aptq_qmodel::QuantizedModel;

use crate::inputs::{self, Language, Request, RequestSpec};
use crate::pack;
use crate::report::Report;
use crate::stats::{self, Tick};
use crate::trace::Tracer;
use crate::{layers, Args};

/// Concurrent closed-loop clients.
const CLIENTS: usize = 8;

/// Short prompts, long outputs: most tokens are generated at batch ≈ 8.
const SPEC: RequestSpec = RequestSpec {
    pool: 32,
    prompt_len: (4, 16),
    n_new: (64, 112),
};

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

/// One step of the serving loop.
#[derive(Debug, Clone, Copy)]
pub struct StepLog {
    /// Wall-time span of the whole loop pass and its batch rows.
    pub tick: Tick,
    /// Rows feeding a prompt token.
    pub prompt_rows: usize,
    /// Output tokens produced.
    pub out_rows: usize,
    /// Sum of the rows' cache positions.
    pub pos_sum: usize,
}

/// Everything the serving loop measured, accumulated over its calls.
#[derive(Debug, Default)]
pub struct ServeLog {
    /// One entry per step, in time order.
    pub steps: Vec<StepLog>,
    /// Time to first token: (end timestamp ns, ms).
    pub ttft: Vec<(u64, f64)>,
    /// Gaps between consecutive output tokens: (end timestamp ns, ms).
    pub itl: Vec<(u64, f64)>,
    /// Each completed request's median gap: (end timestamp ns, ms).
    pub itl_per_request: Vec<(u64, f64)>,
    /// Requests completed.
    pub completed: u64,
    /// Completed requests whose tokens differ from the reference.
    pub failed: u64,
    /// The first output served for each pool entry.
    pub served: Vec<Option<Vec<u32>>>,
    /// `qmodel/qlinear/codes_unpacked` summed over sessions.
    pub codes_unpacked: u64,
    /// `qmodel/qlinear/macs` summed over sessions.
    pub macs: u64,
    /// `decode/batch/kv_bytes_moved` summed over sessions.
    pub kv_bytes: u64,
    next_request: u64,
}

impl ServeLog {
    /// An empty log for a pool of `pool` requests, with room for
    /// `seconds` of serving. The room is reserved up front so the log
    /// never reallocates while timing (untouched reserved pages do not
    /// count toward `peak_rss_mb`).
    pub fn new(pool: usize, seconds: f64) -> Self {
        let per_s = |rate: f64| (rate * seconds.max(1.0)) as usize;
        ServeLog {
            steps: Vec::with_capacity(per_s(10_000.0)),
            ttft: Vec::with_capacity(per_s(2_000.0)),
            itl: Vec::with_capacity(per_s(40_000.0)),
            itl_per_request: Vec::with_capacity(per_s(2_000.0)),
            served: vec![None; pool],
            ..ServeLog::default()
        }
    }

    /// Checks a completed request against its reference and records it.
    pub fn finish(&mut self, pool_index: usize, out: &[u32], reference: &[u32]) {
        self.completed += 1;
        if out != reference {
            self.failed += 1;
        }
        let slot = &mut self.served[pool_index];
        if slot.is_none() {
            *slot = Some(out.to_vec());
        }
    }

    /// FNV-1a over the first served output of every pool entry, in pool
    /// order; equal digests mean equal outputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for (i, out) in self.served.iter().enumerate() {
            if let Some(out) = out {
                h.eat_u64(i as u64);
                h.eat_u64(out.len() as u64);
                for &t in out {
                    h.eat_u64(u64::from(t));
                }
            }
        }
        h.finish()
    }
}

/// A request in flight.
struct Active {
    pool_index: usize,
    id: u64,
    seq: usize,
    fed: usize,
    out: Vec<u32>,
    gaps: Vec<f64>,
    admitted: Instant,
    last_token: Instant,
}

/// Serves requests from `pool` until `next` returns `None` and every
/// admitted request has completed. `refs[i]` is the expected output of
/// `pool[i]`.
///
/// # Errors
///
/// Returns the decode error if a step, join or leave fails.
pub fn drive(
    model: &QuantizedModel,
    pool: &[Request],
    refs: &[Vec<u32>],
    clients: usize,
    next: &mut dyn FnMut() -> Option<usize>,
    tracer: &mut Tracer,
    log: &mut ServeLog,
) -> Result<(), String> {
    let mut session = model.batch_decode_session();
    let mut active: Vec<Option<Active>> = (0..clients).map(|_| None).collect();
    let mut batch: Vec<(usize, u32)> = Vec::with_capacity(clients);
    let mut rows: Vec<usize> = Vec::with_capacity(clients);
    let mut admitting = true;
    loop {
        let tick_start = Instant::now();
        let tick = tracer.begin("bench.serve.tick", None, None);
        for slot in active.iter_mut().filter(|s| s.is_none()) {
            if !admitting {
                break;
            }
            let Some(pool_index) = next() else {
                admitting = false;
                break;
            };
            let id = log.next_request;
            log.next_request += 1;
            let span = tracer.begin("lm.decode.join", tick, Some(id));
            let admitted = Instant::now();
            let seq = session.join();
            tracer.end(span);
            *slot = Some(Active {
                pool_index,
                id,
                seq,
                fed: 0,
                out: Vec::with_capacity(pool[pool_index].n_new),
                gaps: Vec::with_capacity(pool[pool_index].n_new),
                admitted,
                last_token: admitted,
            });
        }
        batch.clear();
        rows.clear();
        let (mut prompt_rows, mut pos_sum) = (0, 0);
        for (c, a) in active.iter().enumerate() {
            if let Some(a) = a {
                let prompt = &pool[a.pool_index].prompt;
                let token = match prompt.get(a.fed) {
                    Some(&t) => {
                        prompt_rows += 1;
                        t
                    }
                    None => *a.out.last().expect("a request past its prompt has output"),
                };
                pos_sum += a.fed;
                batch.push((a.seq, token));
                rows.push(c);
            }
        }
        if batch.is_empty() {
            tracer.end(tick);
            break;
        }
        let name = if prompt_rows > 0 {
            "lm.decode.step.prefill"
        } else {
            "lm.decode.step.decode"
        };
        let span = tracer.begin(name, tick, None);
        let logits = session.step(&batch).map_err(|e| format!("step: {e}"))?;
        let stepped = Instant::now();
        tracer.end(span);
        let now_ns = tracer.ns(stepped);
        let mut out_rows = 0;
        for (r, &c) in rows.iter().enumerate() {
            let a = active[c].as_mut().expect("row of an active request");
            a.fed += 1;
            let req = &pool[a.pool_index];
            if a.fed < req.prompt.len() {
                continue;
            }
            let span = tracer.begin("tensor.select.argmax", tick, Some(a.id));
            let token = aptq_tensor::select::argmax(logits.row(r)) as u32;
            tracer.end(span);
            a.out.push(token);
            out_rows += 1;
            let gap = ms(stepped - a.last_token);
            if a.out.len() == 1 {
                log.ttft.push((now_ns, gap));
            } else {
                log.itl.push((now_ns, gap));
                a.gaps.push(gap);
            }
            a.last_token = stepped;
            if a.out.len() >= req.n_new {
                let span = tracer.begin("lm.decode.leave", tick, Some(a.id));
                session.leave(a.seq).map_err(|e| format!("leave: {e}"))?;
                tracer.end(span);
                tracer.record("serve.request", a.admitted, stepped, None, Some(a.id));
                if !a.gaps.is_empty() {
                    log.itl_per_request.push((now_ns, stats::median(&a.gaps)));
                }
                log.finish(a.pool_index, &a.out, &refs[a.pool_index]);
                active[c] = None;
            }
        }
        tracer.end(tick);
        log.steps.push(StepLog {
            tick: Tick {
                start_ns: tracer.ns(tick_start),
                end_ns: tracer.ns(Instant::now()),
                rows: batch.len(),
            },
            prompt_rows,
            out_rows,
            pos_sum,
        });
    }
    let m = session.metrics();
    log.codes_unpacked += m.get("qmodel/qlinear/codes_unpacked");
    log.macs += m.get("qmodel/qlinear/macs");
    log.kv_bytes += m.get("decode/batch/kv_bytes_moved");
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The expected output of every request: solo
/// `QuantizedModel::generate_greedy`, continuation only.
///
/// # Errors
///
/// Returns the generation error for an invalid request.
pub fn references(model: &QuantizedModel, pool: &[Request]) -> Result<Vec<Vec<u32>>, String> {
    pool.iter()
        .map(|r| {
            let full = model
                .generate_greedy(&r.prompt, r.n_new)
                .map_err(|e| format!("reference generation: {e}"))?;
            Ok(full[r.prompt.len()..].to_vec())
        })
        .collect()
}

/// The end-to-end serving figures of a log, over its kept windows.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub ttft_p50_ms: f64,
    pub ttft_tail: stats::Tail,
    pub itl_p50_ms: f64,
    /// Over requests, of each request's median gap: a single step slowed
    /// by the host moves no request's median, while a request that
    /// decodes slowly throughout (late positions, prefill-heavy batches)
    /// does move the tail.
    pub itl_tail: stats::Tail,
    pub output_tok_s: f64,
    pub prompt_tok_s: f64,
    /// Seconds of serving kept (the fastest windows), of the total.
    pub kept_s: f64,
    pub total_s: f64,
}

/// The kept spans of a log (see [`stats::fastest_windows`]); every step
/// when no window is long enough to judge.
pub fn kept_spans(log: &ServeLog) -> Vec<(u64, u64)> {
    let ticks: Vec<Tick> = log.steps.iter().map(|s| s.tick).collect();
    let first_tokens: Vec<u64> = log.ttft.iter().map(|&(t, _)| t).collect();
    let kept = stats::fastest_windows(&ticks, &first_tokens);
    if kept.is_empty() {
        ticks.iter().map(|t| (t.start_ns, t.end_ns)).collect()
    } else {
        kept
    }
}

/// Summarizes `log` over `kept`.
pub fn summarize(log: &ServeLog, kept: &[(u64, u64)]) -> Summary {
    let pick = |xs: &[(u64, f64)]| -> Vec<f64> {
        xs.iter()
            .filter(|(t, _)| stats::in_spans(kept, *t))
            .map(|&(_, v)| v)
            .collect()
    };
    let ttft = pick(&log.ttft);
    let itl = pick(&log.itl);
    let itl_per_request = pick(&log.itl_per_request);
    let (mut out, mut prompt) = (0usize, 0usize);
    for s in log
        .steps
        .iter()
        .filter(|s| stats::in_spans(kept, s.tick.end_ns))
    {
        out += s.out_rows;
        prompt += s.prompt_rows;
    }
    let kept_s = stats::spans_seconds(kept);
    let total_s = log
        .steps
        .iter()
        .map(|s| (s.tick.end_ns - s.tick.start_ns) as f64)
        .sum::<f64>()
        / 1e9;
    Summary {
        ttft_p50_ms: stats::median(&ttft),
        ttft_tail: stats::tail(&ttft),
        itl_p50_ms: stats::median(&itl),
        itl_tail: stats::tail(&itl_per_request),
        output_tok_s: out as f64 / kept_s,
        prompt_tok_s: prompt as f64 / kept_s,
        kept_s,
        total_s,
    }
}

/// Adds the serving end-to-end metrics of `s` to `report`.
pub fn report_end_to_end(report: &mut Report, s: &Summary) {
    report.metric("ttft_p50_ms", s.ttft_p50_ms, "ms");
    report.tail("ttft_tail_ms", &s.ttft_tail, "ms");
    report.metric("itl_p50_ms", s.itl_p50_ms, "ms");
    report.tail("itl_tail_ms", &s.itl_tail, "ms");
    report.metric("output_tok_s", s.output_tok_s, "1/s");
    report.metric("prompt_tok_s", s.prompt_tok_s, "1/s");
    report.note(format!(
        "serving: the fastest {:.2} s of {:.2} s kept",
        s.kept_s, s.total_s
    ));
}

/// Adds the per-layer serving metrics: step, join, leave and argmax
/// self times from the spans in `kept`, work counters per step, and
/// the traced split of one step at the log's typical batch and
/// position.
///
/// # Errors
///
/// Propagates failures of the split probe.
pub fn report_layers(
    report: &mut Report,
    log: &ServeLog,
    tracer: &Tracer,
    kept: &[(u64, u64)],
    model: &QuantizedModel,
    float: &aptq_lm::Model,
    pool: &[Request],
) -> Result<(), String> {
    let keep = |t: u64| stats::in_spans(kept, t);
    for (name, span) in [
        ("lm.decode.step_us.prefill", "lm.decode.step.prefill"),
        ("lm.decode.step_us.decode", "lm.decode.step.decode"),
    ] {
        let xs = tracer.self_times_us(span, keep);
        report.metric(name, stats::median(&xs), "us");
        report.tail(&format!("{name}.tail"), &stats::tail(&xs), "us");
    }
    for (name, span) in [
        ("lm.decode.join_us", "lm.decode.join"),
        ("lm.decode.leave_us", "lm.decode.leave"),
        ("tensor.select.argmax_us", "tensor.select.argmax"),
    ] {
        report.metric(name, stats::median(&tracer.self_times_us(span, keep)), "us");
    }
    let n_steps = log.steps.len().max(1) as f64;
    let rows: usize = log.steps.iter().map(|s| s.tick.rows).sum();
    report.metric("lm.decode.rows_per_step", rows as f64 / n_steps, "count");
    let per_step = |x: u64| x as f64 / n_steps;
    report.metric(
        "qmodel.qlinear.codes_unpacked_per_step",
        per_step(log.codes_unpacked),
        "count",
    );
    report.metric("qmodel.qlinear.macs_per_step", per_step(log.macs), "count");
    let packed_bytes: usize = pack::layers(model).iter().map(|l| l.storage_bytes()).sum();
    report.metric("qmodel.qlinear.bytes_per_step", packed_bytes as f64, "B");
    report.metric("lm.decode.kv_bytes_per_step", per_step(log.kv_bytes), "B");

    // The split runs at the median batch and the median mean position.
    let batch: Vec<f64> = log.steps.iter().map(|s| s.tick.rows as f64).collect();
    let pos: Vec<f64> = log
        .steps
        .iter()
        .map(|s| s.pos_sum as f64 / s.tick.rows as f64)
        .collect();
    let rows = stats::median(&batch).round() as usize;
    let position = stats::median(&pos).round() as usize;
    layers::split(model, float, pool, rows, position)?.report(report);
    Ok(())
}

/// One set-up: load the checkpoint, pack it with APTQ-75%, draw the
/// request pool and its references.
struct Setup {
    float: aptq_lm::Model,
    packed: pack::Packed,
    pool: Vec<Request>,
    refs: Vec<Vec<u32>>,
}

fn setup(args: &Args, tracer: &mut Tracer, rep: u64) -> Result<Setup, String> {
    let float = inputs::load_checkpoint(Path::new(inputs::ASSETS))?;
    let lang = Language::standard();
    let calib = lang.calibration(inputs::CALIB_SEED);
    let packed = pack::pack(&float, &calib, tracer, rep)?;
    let pool = lang.requests(&SPEC, args.seed);
    let refs = references(&packed.model, &pool)?;
    Ok(Setup {
        float,
        packed,
        pool,
        refs,
    })
}

/// Runs the `serve-batched` workload.
///
/// # Errors
///
/// Returns set-up, decode and I/O failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut report = Report::new(args);

    let mut setup_s = Vec::new();
    let mut quantize_s = Vec::new();
    let mut built: Option<Setup> = None;
    for rep in 0..SETUP_REPS as u64 {
        let t = Instant::now();
        let s = setup(args, &mut tracer, rep)?;
        setup_s.push(t.elapsed().as_secs_f64());
        quantize_s.push(s.packed.seconds);
        for failure in pack::check(&s.float, &s.packed) {
            report.check(false, &failure);
        }
        if let Some(prev) = &built {
            report.check(
                prev.packed.model == s.packed.model && prev.refs == s.refs,
                "set-up is not deterministic",
            );
        }
        built = Some(s);
    }
    let s = built.expect("at least one set-up");

    // Timed phase. A traced run serves its first half untraced and its
    // second half traced, and reports the difference as the overhead.
    let order = inputs::schedule(SPEC.pool, 1000, args.seed);
    let mut cursor = 0usize;
    let mut serve_for = |secs: f64, tracer: &mut Tracer| -> Result<ServeLog, String> {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut log = ServeLog::new(s.pool.len(), secs);
        let mut next = || {
            (Instant::now() < deadline).then(|| {
                cursor += 1;
                order[(cursor - 1) % order.len()]
            })
        };
        drive(
            &s.packed.model,
            &s.pool,
            &s.refs,
            CLIENTS,
            &mut next,
            tracer,
            &mut log,
        )?;
        Ok(log)
    };
    let (log, untraced) = if args.trace {
        tracer.set_on(false);
        let plain = serve_for(args.seconds / 2.0, &mut tracer)?;
        tracer.set_on(true);
        let traced = serve_for(args.seconds / 2.0, &mut tracer)?;
        (traced, Some(plain))
    } else {
        (serve_for(args.seconds, &mut tracer)?, None)
    };
    report.count(log.completed, log.failed);
    if let Some(plain) = &untraced {
        report.count(plain.completed, plain.failed);
    }
    report.note(format!("output digest {:016x}", log.digest()));

    let kept = kept_spans(&log);
    let summary = summarize(&log, &kept);
    if args.trace {
        let plain = untraced.expect("traced runs serve an untraced half");
        let base = summarize(&plain, &kept_spans(&plain));
        report.overhead(base.output_tok_s, summary.output_tok_s);
        pack::report_layers(&mut report, &tracer, &s.packed);
        report_layers(
            &mut report,
            &log,
            &tracer,
            &kept,
            &s.packed.model,
            &s.float,
            &s.pool,
        )?;
        report.write_trace(&tracer, args)?;
    } else {
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("quantize_s", stats::fastest_median(&quantize_s), "s");
        let ppl = pack::perplexity(s.packed.model.model())?;
        report.metric("ppl_c4", f64::from(ppl), "ppl");
        report_end_to_end(&mut report, &summary);
        report.peak_rss()?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_core::grid::GridConfig;
    use aptq_core::{collect_hessians, HessianMode, QuantPlan};
    use aptq_lm::{Model, ModelConfig};

    fn tiny_packed() -> QuantizedModel {
        let model = Model::new(&ModelConfig::test_tiny(16), 3);
        let calib: Vec<Vec<u32>> = (0..4)
            .map(|k| (0..12).map(|i| ((i * 5 + k) % 16) as u32).collect())
            .collect();
        let hs = collect_hessians(&model, &calib, HessianMode::AttentionAware).expect("hessians");
        let plan = QuantPlan::uniform(&model, 4);
        QuantizedModel::quantize_from(&model, &plan, &hs, &GridConfig::default()).expect("pack")
    }

    fn pool() -> Vec<Request> {
        (0..5)
            .map(|i| Request {
                prompt: (0..3 + i).map(|t| ((t * 3 + i) % 16) as u32).collect(),
                n_new: 2 + i,
            })
            .collect()
    }

    fn serve(model: &QuantizedModel, refs: &[Vec<u32>], clients: usize) -> ServeLog {
        let pool = pool();
        let mut order = inputs::schedule(pool.len(), 2, 1).into_iter();
        let mut next = || order.next();
        let mut tracer = Tracer::new(true, Instant::now());
        let mut log = ServeLog::new(pool.len(), 1.0);
        drive(
            model,
            &pool,
            refs,
            clients,
            &mut next,
            &mut tracer,
            &mut log,
        )
        .expect("serve");
        log
    }

    #[test]
    fn batched_serving_matches_solo_references() {
        let model = tiny_packed();
        let refs = references(&model, &pool()).expect("refs");
        for clients in [1, 3] {
            let log = serve(&model, &refs, clients);
            assert_eq!((log.completed, log.failed), (10, 0));
            let outputs: usize = pool().iter().map(|r| r.n_new).sum::<usize>() * 2;
            assert_eq!(log.ttft.len() + log.itl.len(), outputs);
            assert!(log.steps.iter().all(|s| s.tick.rows <= clients));
        }
        assert_eq!(
            serve(&model, &refs, 1).digest(),
            serve(&model, &refs, 3).digest()
        );
    }

    #[test]
    fn tampered_output_is_a_failure() {
        let model = tiny_packed();
        let mut refs = references(&model, &pool()).expect("refs");
        refs[2][0] ^= 1;
        let log = serve(&model, &refs, 3);
        // Pool entry 2 is served twice, and fails both times.
        assert_eq!((log.completed, log.failed), (10, 2));

        let mut log = ServeLog::new(1, 1.0);
        log.finish(0, &[1, 2, 3], &[1, 2, 3]);
        log.finish(0, &[1, 2, 4], &[1, 2, 3]);
        log.finish(0, &[1, 2], &[1, 2, 3]);
        assert_eq!((log.completed, log.failed), (3, 2));
    }
}
