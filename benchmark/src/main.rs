//! Wall-clock benchmark of the APTQ quantize pipeline and of serving
//! from the packed model, end to end and per layer. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-batched --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root: the committed checkpoint is read from
//! `assets/` and traces are written to `benchmark/out/`.

mod inputs;
mod layers;
mod pack;
mod quantize;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["quantize-aptq75", "serve-batched"];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "quantize-aptq75" => quantize::run(&args),
        _ => serve::run(&args),
    };
    match result.and_then(|r| r.print()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload serve-batched --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-batched", 7, 10.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve-batched --trace 2").is_err());
        assert!(parse("--workload serve-batched --seed").is_err());
        assert!(parse("--workload serve-batched --seconds 0").is_err());
    }
}
