//! The audit, run against the real workspace.
//!
//! These tests are the enforcement point: the first one keeps the tree
//! clean, the rest prove the audit actually *catches* regressions by
//! re-checking real sources with violations spliced in.

use std::path::PathBuf;

use aptq_audit::{audit_sources, audit_workspace, rules, Finding};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf()
}

/// The A-rule findings when `source` alone is audited as `rel_path`.
fn a_rules(rel_path: &str, source: &str) -> Vec<Finding> {
    audit_sources(&[(rel_path.to_string(), source.to_string())])
        .into_iter()
        .filter(|f| f.rule.starts_with('A'))
        .collect()
}

#[test]
fn workspace_is_audit_clean() {
    let findings = audit_workspace(&workspace_root()).expect("audit walk must succeed");
    assert!(
        findings.is_empty(),
        "workspace must stay audit-clean; run `cargo run -p aptq-audit` for details:\n{}",
        findings.iter().map(|f| f.render_text()).collect::<String>()
    );
}

#[test]
fn bare_unwrap_in_hessian_is_caught() {
    let path = workspace_root().join("crates/core/src/hessian.rs");
    let source = std::fs::read_to_string(path).expect("hessian.rs must exist");
    // The real file must be clean...
    let before = a_rules("crates/core/src/hessian.rs", &source);
    assert!(before.is_empty(), "{before:?}");
    // ...and introducing a bare unwrap must produce an A001 finding.
    let sabotaged = format!("{source}\npub fn sneaky(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
    let after = a_rules("crates/core/src/hessian.rs", &sabotaged);
    assert!(
        after
            .iter()
            .any(|f| f.rule == "A001" && f.message.contains("unwrap")),
        "audit must flag a bare unwrap in hessian.rs: {after:?}"
    );
}

#[test]
fn bare_float_cast_in_pack_is_caught() {
    let path = workspace_root().join("crates/core/src/pack.rs");
    let source = std::fs::read_to_string(path).expect("pack.rs must exist");
    let sabotaged = format!("{source}\npub fn sneaky(n: usize) -> f32 {{ n as f32 }}\n");
    let after = a_rules("crates/core/src/pack.rs", &sabotaged);
    assert!(
        after.iter().any(|f| f.rule == "A002"),
        "audit must flag a bare float cast in pack.rs: {after:?}"
    );
}

#[test]
fn unsafe_block_is_caught_anywhere() {
    let sabotaged = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let after = a_rules("crates/eval/src/zoo.rs", sabotaged);
    assert!(after.iter().any(|f| f.rule == "A004"), "{after:?}");
}

#[test]
fn non_workspace_dependency_is_caught() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nserde = \"1.0\"\n";
    let after = rules::check_manifest("crates/x/Cargo.toml", manifest);
    assert!(after.iter().any(|f| f.rule == "A005"), "{after:?}");
}
