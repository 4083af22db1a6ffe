//! A run's result: human-readable lines, then one JSON object as the
//! last line of standard output.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::stats::Tail;
use crate::trace::Tracer;
use crate::Args;

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    header: String,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// An empty report for `args`, recording seed and thread count.
    pub fn new(args: &Args) -> Self {
        Report {
            header: format!(
                "workload={} seed={} seconds={} trace={} threads={} (nproc {})",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                aptq_tensor::parallel::thread_count(),
                aptq_tensor::parallel::available_threads(),
            ),
            metrics: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a tail metric and notes its percentile and sample count.
    pub fn tail(&mut self, name: &str, t: &Tail, unit: &'static str) {
        self.metric(name, t.value, unit);
        self.note(format!(
            "{name}: p{} of {} samples ({} beyond)",
            t.pct, t.n, t.beyond
        ));
    }

    /// Adds a free-form line to the human-readable output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok));
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    /// Adds `trace.overhead_pct`: how much slower the traced half ran
    /// than the untraced half, by a rate where higher is better.
    pub fn overhead(&mut self, untraced_rate: f64, traced_rate: f64) {
        self.metric(
            "trace.overhead_pct",
            (untraced_rate - traced_rate) / untraced_rate * 100.0,
            "%",
        );
    }

    /// Adds `peak_rss_mb` from the process's high-water mark.
    ///
    /// # Errors
    ///
    /// Fails when `/proc/self/status` has no `VmHWM` line.
    pub fn peak_rss(&mut self) -> Result<(), String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("reading /proc/self/status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc/self/status")?;
        self.metric("peak_rss_mb", kb / 1024.0, "MB");
        Ok(())
    }

    /// Writes the run's spans next to the benchmark and notes the path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_trace(&mut self, tracer: &Tracer, args: &Args) -> Result<(), String> {
        let path = PathBuf::from("benchmark/out")
            .join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        self.note(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        ));
        Ok(())
    }

    /// Prints the human-readable lines, then the JSON result line.
    ///
    /// # Errors
    ///
    /// Fails (printing nothing) when a metric is not a finite number.
    pub fn print(&self) -> Result<(), String> {
        if let Some((name, v, _)) = self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let mut text = format!("# {}\n", self.header);
        for (name, v, unit) in &self.metrics {
            let _ = writeln!(text, "{name} = {v} {unit}");
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            text,
            "error_rate = {rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for line in self.notes.iter().chain(&self.failures) {
            let _ = writeln!(text, "# {line}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        print!("{text}");
        println!("{json}");
        Ok(())
    }
}
