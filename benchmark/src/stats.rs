//! Order statistics behind every reported metric: medians, the tail
//! rule, and the fastest-part estimators that keep host contention out of
//! the timings.
//!
//! On a shared 2-vCPU host, other tenants slow this process in
//! episodes of 0.1 s to minutes, and a slowed episode runs up to 1.8×
//! slower (not steal time: thread CPU time equals wall time). A plain
//! median over a run lands in whichever state dominated that run.
//! Contention only ever slows work, so every timing is taken from the
//! fastest part of the run: the fastest serving windows that together
//! hold [`KEPT_REQUESTS`] first tokens, or the fastest [`KEPT_RUNS`]
//! repetitions of a job. Keeping a fixed number of requests, rather
//! than a fixed time, keeps the kept span as short as each workload
//! allows (so even a heavily contended run holds that much quiet time)
//! and the request-level sample counts, and so each tail's percentile,
//! the same from run to run.

/// Length of one serving window, in nanoseconds of wall time.
pub const WINDOW_NS: u64 = 100_000_000;

/// First tokens the kept serving windows must hold: 70 to ~100
/// request-level samples, for which the tail rule picks p75 every run.
pub const KEPT_REQUESTS: usize = 70;

/// Repetitions of a job kept per run.
pub const KEPT_RUNS: usize = 2;

/// Percentiles a tail may take, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let sorted = sorted(xs);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of percentile `pct` among `n` sorted samples.
fn rank(n: usize, pct: f64) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// A tail latency: the highest percentile of [`TAIL_LADDER`] that
/// leaves at least [`TAIL_BEYOND`] samples strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (100 when the sample is too small for any).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The tail of `xs` by the ladder rule. With fewer than 20 samples no
/// rung qualifies, and the maximum is reported as percentile 100.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    for pct in TAIL_LADDER {
        if n == 0 {
            break;
        }
        let i = rank(n, pct);
        let beyond = n - 1 - i;
        if beyond >= TAIL_BEYOND {
            return Tail {
                pct,
                value: s[i],
                n,
                beyond,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: s.last().copied().unwrap_or(f64::NAN),
        n,
        beyond: 0,
    }
}

/// Median of the [`KEPT_RUNS`] smallest of `xs` (durations of repeated
/// runs of the same job).
pub fn fastest_median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    median(&s[..s.len().min(KEPT_RUNS)])
}

/// One pass of a serving loop, as the window filter sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Batch rows stepped.
    pub rows: usize,
}

/// Gap between consecutive ticks that starts a new window regardless
/// of its length (a new serving phase).
const PHASE_GAP_NS: u64 = 1_000_000;

/// Cuts `ticks` (in time order) into windows of at least [`WINDOW_NS`]
/// and returns the `[start, end)` spans, in time order, of the fastest
/// windows that together hold [`KEPT_REQUESTS`] of the `first_tokens`
/// timestamps (all windows if the run has fewer). A window's speed is
/// batch rows stepped per second. A window never spans a gap between
/// serving phases, and one shorter than half a window is dropped.
pub fn fastest_windows(ticks: &[Tick], first_tokens: &[u64]) -> Vec<(u64, u64)> {
    let mut windows: Vec<(u64, u64, usize)> = Vec::new();
    let mut open: Option<(u64, u64, usize)> = None;
    for t in ticks {
        if let Some((s, e, rows)) = open {
            if t.start_ns.saturating_sub(e) > PHASE_GAP_NS {
                if e - s >= WINDOW_NS / 2 {
                    windows.push((s, e, rows));
                }
                open = None;
            }
        }
        let (s, _, rows) = open.unwrap_or((t.start_ns, t.end_ns, 0));
        let w = (s, t.end_ns, rows + t.rows);
        if w.1 - w.0 >= WINDOW_NS {
            windows.push(w);
            open = None;
        } else {
            open = Some(w);
        }
    }
    if let Some(w) = open {
        if w.1 - w.0 >= WINDOW_NS / 2 {
            windows.push(w);
        }
    }
    let rate = |&(s, e, rows): &(u64, u64, usize)| rows as f64 / (e - s).max(1) as f64;
    windows.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    let mut kept: Vec<(u64, u64)> = Vec::new();
    let mut held = 0;
    for &(s, e, _) in &windows {
        if held >= KEPT_REQUESTS {
            break;
        }
        held += first_tokens.iter().filter(|&&t| s <= t && t <= e).count();
        kept.push((s, e));
    }
    kept.sort_unstable();
    kept
}

/// Whether timestamp `t` falls inside one of the (time-ordered) spans.
pub fn in_spans(spans: &[(u64, u64)], t: u64) -> bool {
    let i = spans.partition_point(|&(_, e)| e < t);
    spans.get(i).is_some_and(|&(s, _)| s <= t)
}

/// Total length of the spans, in seconds.
pub fn spans_seconds(spans: &[(u64, u64)]) -> f64 {
    spans.iter().map(|&(s, e)| (e - s) as f64).sum::<f64>() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

        // One sample short of p99's ten: fall to p95.
        let t = tail(&xs[..999]);
        assert_eq!((t.pct, t.beyond), (95.0, 49));

        // The kept request counts (70 to 99) all land on p75.
        for n in 70..100 {
            assert_eq!(tail(&xs[..n]).pct, 75.0, "n={n}");
        }

        let t = tail(&xs[..20]);
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));

        // Too few for any rung: the maximum, flagged as p100.
        let t = tail(&xs[..19]);
        assert_eq!((t.pct, t.value, t.beyond), (100.0, 19.0, 0));
    }

    #[test]
    fn every_rung_leaves_ten_beyond() {
        for n in 20..3000 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&xs);
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            // No higher rung would also qualify.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > t.pct) {
                assert!(n - 1 - rank(n, higher) < TAIL_BEYOND, "n={n}");
            }
        }
    }

    #[test]
    fn median_and_fastest_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // The 1.8x-slowed runs are not part of the kept median.
        assert_eq!(fastest_median(&[1.0, 1.8, 1.2, 1.9]), 1.1);
        assert_eq!(fastest_median(&[2.0]), 2.0);
    }

    #[test]
    fn contended_windows_are_dropped() {
        // 8 s of 1 ms ticks, one row each, except from 2 s to 5 s, where
        // contention makes every tick take 1.8 ms; a first token every
        // 20 ms.
        let mut ticks = Vec::new();
        let mut t = 0u64;
        while t < 8_000_000_000 {
            let dur = if (2_000_000_000..5_000_000_000).contains(&t) {
                1_800_000
            } else {
                1_000_000
            };
            ticks.push(Tick {
                start_ns: t,
                end_ns: t + dur,
                rows: 1,
            });
            t += dur;
        }
        let first_tokens: Vec<u64> = (0..400).map(|i| i * 20_000_000 + 10_000_000).collect();
        let kept = fastest_windows(&ticks, &first_tokens);
        // Five first tokens per window: 14 windows hold 70.
        assert_eq!(kept.len(), KEPT_REQUESTS.div_ceil(5));
        for &(s, e) in &kept {
            assert!(e <= 2_000_000_000 || s >= 5_000_000_000, "{s}..{e}");
        }
        assert!(kept.windows(2).all(|w| w[0].1 <= w[1].0), "time order");
        assert!(in_spans(&kept, 500_000_000));
        assert!(!in_spans(&kept, 3_500_000_000));
        assert!((spans_seconds(&kept) - 1.4).abs() < 0.01);
    }

    #[test]
    fn phase_gaps_split_windows() {
        let ticks = [
            Tick {
                start_ns: 0,
                end_ns: 150_000_000,
                rows: 10,
            },
            Tick {
                start_ns: 400_000_000,
                end_ns: 550_000_000,
                rows: 10,
            },
        ];
        // Too few first tokens to stop early: every window is kept.
        let kept = fastest_windows(&ticks, &[]);
        assert_eq!(kept, vec![(0, 150_000_000), (400_000_000, 550_000_000)]);
    }
}
