//! aptq-audit: the workspace static-analysis pass.
//!
//! A zero-dependency lint layer that walks every `.rs` file and every
//! `Cargo.toml` in the workspace and enforces the project's numerical,
//! determinism and hygiene invariants *before* the compiler gets a say.
//! [`rules::CATALOG`] is the one list of rules (`aptq-audit
//! --list-rules`); each family lives in its own module: the A-rules in
//! [`rules`], D001–D006 in [`determinism`], H001–H004 in [`hotpath`],
//! N001–N004 in [`numerics`], E001–E004 in [`effects`] and U001 in
//! [`stale`].
//!
//! Every file is lexed once ([`scan`]) and its pattern hits recorded
//! once in a site table ([`sites`]); the per-line rules and the effect
//! engine's leaf facts are filters over that table. The workspace
//! symbol index ([`index`]) supplies function bodies, doc sections and
//! call edges, and one by-name fixpoint ([`reach`]) closes effects and
//! `aptq_tensor::parallel` reachability over the call graph.
//!
//! Run it as `cargo run -p aptq-audit` (text diagnostics, rustc style)
//! or `cargo run -p aptq-audit -- --json` (machine-readable); any
//! finding exits 1. Library consumers call [`audit_workspace`], or
//! [`audit_sources`] / [`rules::check_manifest`] on in-memory sources.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod determinism;
pub mod effects;
pub mod hotpath;
pub mod index;
pub mod numerics;
pub mod reach;
pub mod rules;
pub mod scan;
pub mod sites;
pub mod stale;

/// One diagnostic produced by a rule. Every rule emits errors.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule code, e.g. `"A001"`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
    pub message: String,
    pub help: String,
    /// A concrete, mechanical fix (may be empty when none applies).
    pub suggestion: String,
}

impl Finding {
    /// A finding of `rule` at the 1-based `line`/`col` of `path`.
    pub fn new(
        rule: &'static str,
        path: &str,
        line: usize,
        col: usize,
        message: impl Into<String>,
        help: impl Into<String>,
        suggestion: impl Into<String>,
    ) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            col,
            message: message.into(),
            help: help.into(),
            suggestion: suggestion.into(),
        }
    }

    /// Renders the finding in rustc style:
    ///
    /// ```text
    /// error[A001]: `.unwrap()` in library code
    ///  --> crates/core/src/hessian.rs:42:13
    ///   = help: convert to `Result`, ...
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "error[{}]: {}\n --> {}:{}:{}\n  = help: {}\n",
            self.rule, self.message, self.path, self.line, self.col, self.help
        );
        if !self.suggestion.is_empty() {
            out.push_str(&format!("  = suggestion: {}\n", self.suggestion));
        }
        out
    }

    /// Renders the finding as a JSON object (single line).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"severity\":\"error\",\"path\":{},\"line\":{},\"col\":{},\"message\":{},\"help\":{},\"suggestion\":{}}}",
            json_str(self.rule),
            json_str(&self.path),
            self.line,
            self.col,
            json_str(&self.message),
            json_str(&self.help),
            json_str(&self.suggestion)
        )
    }
}

/// Errors from the filesystem walk (not rule findings).
#[derive(Debug)]
pub struct AuditError {
    pub path: PathBuf,
    pub message: String,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit: {}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for AuditError {}

/// Runs every source rule family over one shared index and
/// [`effects::EffectAnalysis`]. Returns the findings unsorted, plus the
/// index and analysis for manifest rendering and U001.
fn source_rule_findings(
    sources: &[(String, String)],
) -> (Vec<Finding>, index::SymbolIndex, effects::EffectAnalysis) {
    let index = index::SymbolIndex::build(sources);
    let analysis = effects::EffectAnalysis::compute(&index);
    let mut findings = rules::check(&index);
    findings.extend(determinism::check(&index, &analysis));
    findings.extend(hotpath::check(&index, &analysis));
    findings.extend(numerics::check(&index));
    findings.extend(effects::check(&index, &analysis));
    (findings, index, analysis)
}

/// [`source_rule_findings`] plus U001, which re-runs the rules on an
/// annotation-neutralized shadow copy (see [`stale`]).
fn source_findings_with_stale(
    sources: &[(String, String)],
) -> (Vec<Finding>, index::SymbolIndex, effects::EffectAnalysis) {
    let (mut findings, index, analysis) = source_rule_findings(sources);
    let shadow_sources: Vec<(String, String)> = sources
        .iter()
        .map(|(p, s)| (p.clone(), stale::neutralize(s)))
        .collect();
    let (shadow, _, _) = source_rule_findings(&shadow_sources);
    findings.extend(stale::check(&index, &findings, &shadow));
    (findings, index, analysis)
}

/// The findings of `rule` when `src` alone is audited as `rel_path`.
#[cfg(test)]
pub(crate) fn audit_one(rel_path: &str, src: &str, rule: &str) -> Vec<Finding> {
    audit_sources(&[(rel_path.to_string(), src.to_string())])
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Audits a set of in-memory `(rel_path, source)` pairs with every rule
/// that needs no filesystem: A001–A004, D, H, N, E001–E003 and U001.
/// A005 needs manifests and E004 a committed effects manifest; both run
/// only in [`audit_workspace`].
///
/// # Determinism
///
/// The audit itself is single-threaded and every cross-file structure
/// is BTreeMap-ordered, so findings are byte-identical for identical
/// sources regardless of `APTQ_THREADS`.
pub fn audit_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let (mut findings, _, _) = source_findings_with_stale(sources);
    sort_findings(&mut findings);
    findings
}

/// Walks the workspace rooted at `root` and runs every rule, returning
/// the findings together with the freshly inferred effects manifest
/// (the text `--effects-out` writes). Findings come back sorted by
/// path, then line, then rule, so output is stable across filesystems.
///
/// When `root/results/effects.json` exists, E004 diffs it against the
/// inferred manifest; a missing file is not a finding so fixture
/// workspaces (and fresh checkouts mid-bootstrap) stay auditable.
///
/// # Determinism
///
/// Single-threaded over a sorted file walk with BTreeMap-ordered
/// analyses: findings and the manifest are byte-identical for an
/// identical tree regardless of `APTQ_THREADS`.
pub fn audit_workspace_with_manifest(root: &Path) -> Result<(Vec<Finding>, String), AuditError> {
    let mut rs_files = Vec::new();
    let mut manifests = Vec::new();

    // A root without a Cargo.toml is a misconfiguration (e.g. a typo'd
    // --root); silently reporting "clean" there would let CI pass on
    // nothing.
    let root_manifest = root.join("Cargo.toml");
    if !root_manifest.is_file() {
        return Err(AuditError {
            path: root.to_path_buf(),
            message: "not a workspace root (no Cargo.toml found)".to_string(),
        });
    }
    manifests.push(root_manifest);
    for tree in ["crates", "vendor", "src", "tests", "benches", "examples"] {
        let dir = root.join(tree);
        if dir.is_dir() {
            walk(&dir, &mut rs_files, &mut manifests)?;
        }
    }

    let mut sources: Vec<(String, String)> = Vec::with_capacity(rs_files.len());
    for path in &rs_files {
        sources.push((rel(root, path), read(path)?));
    }

    let (mut findings, index, analysis) = source_findings_with_stale(&sources);
    for path in &manifests {
        let source = read(path)?;
        findings.extend(rules::check_manifest(&rel(root, path), &source));
    }

    // E004 — committed manifest vs. the one just inferred.
    let manifest = effects::render_manifest(&index, &analysis);
    let committed_path = root.join(effects::MANIFEST_PATH);
    if committed_path.is_file() {
        let committed = read(&committed_path)?;
        findings.extend(effects::diff_manifests(&committed, &manifest));
    }

    sort_findings(&mut findings);
    Ok((findings, manifest))
}

/// [`audit_workspace_with_manifest`] without the manifest text.
///
/// # Determinism
///
/// Inherits the byte-stable ordering of
/// [`audit_workspace_with_manifest`]; independent of `APTQ_THREADS`.
pub fn audit_workspace(root: &Path) -> Result<Vec<Finding>, AuditError> {
    audit_workspace_with_manifest(root).map(|(findings, _)| findings)
}

/// Serializes findings as a JSON document:
/// `{"findings":[...],"count":N}`.
pub fn render_json_report(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f.render_json());
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

fn walk(dir: &Path, rs: &mut Vec<PathBuf>, manifests: &mut Vec<PathBuf>) -> Result<(), AuditError> {
    let entries = fs::read_dir(dir).map_err(|e| AuditError {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    let mut children: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| AuditError {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        children.push(entry.path());
    }
    children.sort();
    for path in children {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | "results" | "assets" | "fixtures") {
                continue;
            }
            walk(&path, rs, manifests)?;
        } else if name.ends_with(".rs") {
            rs.push(path);
        } else if name == "Cargo.toml" {
            manifests.push(path);
        }
    }
    Ok(())
}

fn read(path: &Path) -> Result<String, AuditError> {
    fs::read_to_string(path).map_err(|e| AuditError {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

fn rel(root: &Path, path: &Path) -> String {
    let r = path.strip_prefix(root).unwrap_or(path);
    r.to_string_lossy().replace('\\', "/")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extracts the raw (unquoted) value following `"key":` on a line of
/// line-oriented JSON (the effects manifest's format).
fn field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
}

/// Extracts and unescapes a JSON string value following `"key":`.
fn string_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_shape() {
        let f = Finding::new(
            "A001",
            "crates/core/src/x.rs",
            3,
            7,
            "msg with \"quotes\"",
            "do the thing",
            "use `BTreeMap`",
        );
        let doc = render_json_report(&[f]);
        assert!(doc.starts_with("{\"findings\":["));
        assert!(doc.ends_with("\"count\":1}"));
        assert!(doc.contains("\\\"quotes\\\""));
        assert!(doc.contains("\"line\":3"));
        assert!(doc.contains("\"suggestion\":\"use `BTreeMap`\""));
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let f = Finding::new(
            "A002",
            "crates/tensor/src/matrix.rs",
            10,
            2,
            "bad cast",
            "fix it",
            "write `f32::from(x)`",
        );
        let text = f.render_text();
        assert!(text.starts_with("error[A002]: bad cast\n"));
        assert!(text.contains(" --> crates/tensor/src/matrix.rs:10:2\n"));
        assert!(text.contains("= help: fix it"));
        assert!(text.contains("= suggestion: write `f32::from(x)`"));
    }

    #[test]
    fn empty_report() {
        assert_eq!(render_json_report(&[]), "{\"findings\":[],\"count\":0}");
    }

    #[test]
    fn string_fields_unescape() {
        let line = r#"{"path":"a\"b\\c","fn":"f","version":1}"#;
        assert_eq!(string_field(line, "path").as_deref(), Some("a\"b\\c"));
        assert_eq!(field(line, "version").as_deref(), Some("1"));
        assert_eq!(string_field(line, "missing"), None);
    }
}
