//! CLI entry point for the workspace audit.
//!
//! ```text
//! cargo run -p aptq-audit                 # text diagnostics, exit 1 on findings
//! cargo run -p aptq-audit -- --json       # JSON report on stdout
//! cargo run -p aptq-audit -- --json-out results/audit.json
//! cargo run -p aptq-audit -- --effects-out results/effects.json
//! cargo run -p aptq-audit -- --root /path/to/workspace
//! cargo run -p aptq-audit -- --list-rules # the rule catalog
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use aptq_audit::{audit_workspace_with_manifest, render_json_report, rules};

struct Options {
    json: bool,
    quiet: bool,
    root: PathBuf,
    json_out: Option<PathBuf>,
    effects_out: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        quiet: false,
        root: default_root(),
        json_out: None,
        effects_out: None,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    let path_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} requires a path"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "-q" | "--quiet" => opts.quiet = true,
            "--root" => opts.root = path_arg(&mut args, "--root")?,
            "--json-out" => opts.json_out = Some(path_arg(&mut args, "--json-out")?),
            "--effects-out" => opts.effects_out = Some(path_arg(&mut args, "--effects-out")?),
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => {
                println!("{}", help_text());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// `--help`, with the rule list taken from [`rules::CATALOG`].
fn help_text() -> String {
    let mut out = String::from(
        "aptq-audit: workspace static-analysis pass\n\n\
         USAGE: aptq-audit [--json] [--quiet] [--root <dir>]\n\
         \x20      [--json-out <report.json>] [--effects-out <effects.json>]\n\
         \x20      [--list-rules]\n\n\
         Rules:\n",
    );
    for r in rules::CATALOG {
        out.push_str(&format!("  {}  {}\n", r.code, r.summary));
    }
    out.push_str(
        "--effects-out writes the inferred per-function effects\n\
         manifest (the file E004 diffs against).\n\
         Run --list-rules for scopes and allow kinds.\n\
         Exit codes: 0 clean, 1 findings, 2 error.",
    );
    out
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo,
/// the current directory otherwise.
fn default_root() -> PathBuf {
    // audit:allow(env): resolving the workspace root in the CLI binary, not library code
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(root) = p.parent().and_then(|c| c.parent()) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn print_catalog(json: bool) {
    if json {
        let mut out = String::from("{\"rules\":[");
        for (i, r) in rules::CATALOG.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"scope\":{:?},\"summary\":{:?},\"allow\":{:?}}}",
                r.code, r.scope, r.summary, r.allow
            ));
        }
        out.push_str(&format!("],\"count\":{}}}", rules::CATALOG.len()));
        println!("{out}");
        return;
    }
    println!(
        "aptq-audit rule catalog ({} rules):\n",
        rules::CATALOG.len()
    );
    for r in rules::CATALOG {
        let hatch = if r.allow.is_empty() {
            String::from("none")
        } else {
            format!("audit:allow({})", r.allow)
        };
        println!(
            "  {}  {}\n        scope: {}\n        allow: {}",
            r.code, r.summary, r.scope, hatch
        );
    }
}

fn write_output(path: &Path, text: &str) -> Result<(), ExitCode> {
    std::fs::write(path, text).map_err(|e| {
        eprintln!("aptq-audit: {}: {e}", path.display());
        ExitCode::from(2)
    })
}

fn run_audit(opts: &Options) -> Result<ExitCode, ExitCode> {
    if opts.list_rules {
        print_catalog(opts.json);
        return Ok(ExitCode::SUCCESS);
    }

    let (findings, manifest) = audit_workspace_with_manifest(&opts.root).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })?;
    if let Some(path) = &opts.effects_out {
        write_output(path, &manifest)?;
    }
    if let Some(path) = &opts.json_out {
        write_output(path, &(render_json_report(&findings) + "\n"))?;
    }

    if opts.json {
        println!("{}", render_json_report(&findings));
    } else if !opts.quiet {
        for f in &findings {
            println!("{}", f.render_text());
        }
        if findings.is_empty() {
            println!("audit: clean ({} rules, 0 findings)", rules::CATALOG.len());
        } else {
            println!("audit: {} finding(s)", findings.len());
        }
    }

    Ok(if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(opts) => run_audit(&opts).unwrap_or_else(|code| code),
        Err(e) => {
            eprintln!("aptq-audit: {e}");
            ExitCode::from(2)
        }
    }
}
