//! Sabotage tests for the call-graph contract rules (H001–H004) and the
//! numerical-safety rules (N001–N004).
//!
//! Each test seeds exactly one violation into a synthetic source set,
//! asserts the rule fires exactly once, then clears it with the rule's
//! documented `// audit:allow(<kind>)` escape hatch (or, for H004, by
//! writing the budget the rule demands) and asserts silence. The last
//! two tests pin the workspace-level acceptance contract: the real tree
//! has zero hot-path allocation findings, and the two canonical
//! hot-path files earn that without any allocation allowance.

use std::path::PathBuf;

use aptq_audit::{audit_sources, audit_workspace};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf()
}

/// The codes of the findings of one rule family (`'H'`, `'N'`) when
/// `source` alone is audited as `path`.
fn family_findings(family: char, path: &str, source: &str) -> Vec<String> {
    audit_sources(&[(path.to_string(), source.to_string())])
        .into_iter()
        .filter(|f| f.rule.starts_with(family))
        .map(|f| f.rule.to_string())
        .collect()
}

fn hot_findings(path: &str, source: &str) -> Vec<String> {
    family_findings('H', path, source)
}

fn num_findings(path: &str, source: &str) -> Vec<String> {
    family_findings('N', path, source)
}

const HOT_DOC: &str = "/// # HotPath\n/// Allocation budget: zero.\n";

#[test]
fn h001_seeded_allocation_fires_once_and_clears() {
    let bad = format!(
        "{HOT_DOC}pub fn root() {{\n    helper();\n}}\nfn helper() {{\n    let mut v: Vec<u8> = Vec::new();\n    drop(&mut v);\n}}\n"
    );
    assert_eq!(hot_findings("crates/lm/src/x.rs", &bad), vec!["H001"]);
    let fixed = bad.replace(
        "    let mut v: Vec<u8> = Vec::new();",
        "    // audit:allow(alloc): test-seeded scratch\n    let mut v: Vec<u8> = Vec::new();",
    );
    assert!(hot_findings("crates/lm/src/x.rs", &fixed).is_empty());
}

#[test]
fn h002_seeded_transitive_unwrap_fires_once_and_clears() {
    let bad = format!(
        "{HOT_DOC}pub fn root(o: Option<u8>) -> u8 {{\n    helper(o)\n}}\nfn helper(o: Option<u8>) -> u8 {{\n    o.unwrap()\n}}\n"
    );
    assert_eq!(hot_findings("crates/lm/src/x.rs", &bad), vec!["H002"]);
    let fixed = bad.replace(
        "    o.unwrap()",
        "    // audit:allow(panic): test-seeded, caller checks Some\n    o.unwrap()",
    );
    assert!(hot_findings("crates/lm/src/x.rs", &fixed).is_empty());
}

#[test]
fn h003_seeded_io_fires_once_and_clears() {
    let bad = format!(
        "{HOT_DOC}pub fn root() {{\n    helper();\n}}\nfn helper() {{\n    println!(\"x\");\n}}\n"
    );
    assert_eq!(hot_findings("crates/lm/src/x.rs", &bad), vec!["H003"]);
    let fixed = bad.replace(
        "    println!(\"x\");",
        "    // audit:allow(io): test-seeded diagnostic\n    println!(\"x\");",
    );
    assert!(hot_findings("crates/lm/src/x.rs", &fixed).is_empty());
}

#[test]
fn h004_missing_budget_fires_once_and_clears_by_documenting_it() {
    let bad = "/// # HotPath\npub fn root() {}\n";
    assert_eq!(hot_findings("crates/lm/src/x.rs", bad), vec!["H004"]);
    let fixed = "/// # HotPath\n/// Allocation budget: zero.\npub fn root() {}\n";
    assert!(hot_findings("crates/lm/src/x.rs", fixed).is_empty());
}

#[test]
fn n001_seeded_float_equality_fires_once_and_clears() {
    let bad = "pub fn f(x: f32) -> bool {\n    x == 0.5\n}\n";
    assert_eq!(num_findings("crates/core/src/x.rs", bad), vec!["N001"]);
    let fixed = "pub fn f(x: f32) -> bool {\n    // audit:allow(fpeq): test-seeded sentinel\n    x == 0.5\n}\n";
    assert!(num_findings("crates/core/src/x.rs", fixed).is_empty());
}

#[test]
fn n002_seeded_bare_reduction_fires_once_and_clears() {
    let bad = "pub fn f(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>()\n}\n";
    assert_eq!(num_findings("crates/core/src/x.rs", bad), vec!["N002"]);
    let fixed = "pub fn f(xs: &[f64]) -> f64 {\n    // audit:allow(accum): test-seeded short sum\n    xs.iter().sum::<f64>()\n}\n";
    assert!(num_findings("crates/core/src/x.rs", fixed).is_empty());
}

#[test]
fn n003_seeded_unguarded_division_fires_once_and_clears() {
    let bad = "pub fn f(a: f32, b: f32) -> f32 {\n    a / b\n}\n";
    assert_eq!(num_findings("crates/core/src/x.rs", bad), vec!["N003"]);
    let fixed = "pub fn f(a: f32, b: f32) -> f32 {\n    // audit:allow(div): test-seeded, caller guarantees b != 0\n    a / b\n}\n";
    assert!(num_findings("crates/core/src/x.rs", fixed).is_empty());
}

#[test]
fn n004_seeded_unclamped_exp_fires_once_and_clears() {
    let bad = "pub fn f(x: f32) -> f32 {\n    x.exp()\n}\n";
    assert_eq!(num_findings("crates/core/src/x.rs", bad), vec!["N004"]);
    let fixed = "pub fn f(x: f32) -> f32 {\n    // audit:allow(range): test-seeded, x is a bounded score\n    x.exp()\n}\n";
    assert!(num_findings("crates/core/src/x.rs", fixed).is_empty());
}

#[test]
fn workspace_hot_paths_have_zero_allocation_findings() {
    let findings = audit_workspace(&workspace_root()).expect("audit walk must succeed");
    let h001: Vec<_> = findings.iter().filter(|f| f.rule == "H001").collect();
    assert!(
        h001.is_empty(),
        "hot-path closures must stay allocation-clean: {h001:?}"
    );
}

#[test]
fn canonical_hot_path_files_need_no_allocation_allowance() {
    // The steady-state token path — the packed forward and the KV-cache
    // feed — must be *verifiably* allocation-free, not annotated into
    // silence.
    for rel in ["crates/qmodel/src/qlinear.rs", "crates/lm/src/decode.rs"] {
        let text = std::fs::read_to_string(workspace_root().join(rel)).expect("file must exist");
        assert!(
            !text.contains("audit:allow(alloc)"),
            "{rel} must be allocation-free without allowances"
        );
    }
}
