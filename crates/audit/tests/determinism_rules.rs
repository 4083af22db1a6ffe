//! Sabotage suite for the determinism rule set (D001–D006).
//!
//! For each rule: a synthetic source where the violation fires *exactly
//! once*, and an annotated (or documented) variant that is clean — so a
//! rule can neither go blind nor start double-reporting without a test
//! catching it. The golden test at the bottom pins the `--json`
//! diagnostic schema (`rule`/`path`/`line`/`col`/`suggestion` fields)
//! that `ci/check.sh` archives as `results/audit.json`.

use aptq_audit::{audit_sources, render_json_report, Finding};

/// Audits one synthetic file.
fn check_one(rel: &str, src: &str) -> Vec<Finding> {
    audit_sources(&[(rel.to_string(), src.to_string())])
}

fn only_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn d001_thread_spawn_fires_exactly_once_and_annotation_clears_it() {
    let bad = "fn fan_out() {\n    std::thread::spawn(|| {});\n}\n";
    let f = check_one("crates/core/src/x.rs", bad);
    assert_eq!(only_rule(&f, "D001").len(), 1, "{f:?}");
    assert_eq!(only_rule(&f, "D001")[0].line, 2);

    let annotated = "fn fan_out() {\n    // audit:allow(thread): prototype behind a feature gate\n    std::thread::spawn(|| {});\n}\n";
    let g = check_one("crates/core/src/x.rs", annotated);
    assert!(only_rule(&g, "D001").is_empty(), "{g:?}");
}

#[test]
fn d002_env_read_fires_exactly_once_and_annotation_clears_it() {
    let bad = "pub fn knob() -> Option<String> {\n    std::env::var(\"APTQ_X\").ok()\n}\n";
    let f = check_one("crates/eval/src/x.rs", bad);
    assert_eq!(only_rule(&f, "D002").len(), 1, "{f:?}");

    let annotated = "pub fn knob() -> Option<String> {\n    // audit:allow(env): CI-only escape hatch, never feeds results\n    std::env::var(\"APTQ_X\").ok()\n}\n";
    let g = check_one("crates/eval/src/x.rs", annotated);
    assert!(only_rule(&g, "D002").is_empty(), "{g:?}");
}

#[test]
fn d003_hash_collection_fires_exactly_once_and_annotation_clears_it() {
    let bad = "fn build() {\n    let m = std::collections::HashMap::<u32, u32>::new();\n    drop(m);\n}\n";
    let f = check_one("crates/lm/src/x.rs", bad);
    assert_eq!(only_rule(&f, "D003").len(), 1, "{f:?}");
    assert!(f.iter().any(|x| x.suggestion.contains("BTreeMap")));

    let annotated = "fn build() {\n    // audit:allow(order): counts only, never iterated\n    let m = std::collections::HashMap::<u32, u32>::new();\n    drop(m);\n}\n";
    let g = check_one("crates/lm/src/x.rs", annotated);
    assert!(only_rule(&g, "D003").is_empty(), "{g:?}");
}

#[test]
fn d004_wall_clock_fires_exactly_once_and_annotation_clears_it() {
    let bad = "fn f() {\n    let t = std::time::Instant::now();\n    drop(t);\n}\n";
    let f = check_one("crates/core/src/x.rs", bad);
    assert_eq!(only_rule(&f, "D004").len(), 1, "{f:?}");

    let annotated = "fn f() {\n    // audit:allow(nondet): logged timing only, not part of any result\n    let t = std::time::Instant::now();\n    drop(t);\n}\n";
    let g = check_one("crates/core/src/x.rs", annotated);
    assert!(only_rule(&g, "D004").is_empty(), "{g:?}");
}

#[test]
fn d005_global_state_fires_exactly_once_and_annotation_clears_it() {
    let bad = "static mut HITS: u64 = 0;\n";
    let f = check_one("crates/qmodel/src/x.rs", bad);
    assert_eq!(only_rule(&f, "D005").len(), 1, "{f:?}");

    let annotated =
        "// audit:allow(global): write-once process flag, reviewed\nstatic mut HITS: u64 = 0;\n";
    let g = check_one("crates/qmodel/src/x.rs", annotated);
    assert!(only_rule(&g, "D005").is_empty(), "{g:?}");
}

#[test]
fn d006_undocumented_parallel_reach_fires_exactly_once_and_doc_clears_it() {
    let parallel = (
        "crates/tensor/src/parallel.rs".to_string(),
        "/// # Determinism\n/// Index-ordered.\npub fn run_indexed(n: usize) -> usize { n }\n"
            .to_string(),
    );
    let bad = (
        "crates/core/src/x.rs".to_string(),
        "pub fn api(n: usize) -> usize {\n    aptq_tensor::parallel::run_indexed(n)\n}\n"
            .to_string(),
    );
    let f = audit_sources(&[parallel.clone(), bad]);
    assert_eq!(only_rule(&f, "D006").len(), 1, "{f:?}");
    assert_eq!(only_rule(&f, "D006")[0].path, "crates/core/src/x.rs");

    let documented = (
        "crates/core/src/x.rs".to_string(),
        "/// Runs it.\n///\n/// # Determinism\n/// Bit-identical at any thread count.\npub fn api(n: usize) -> usize {\n    aptq_tensor::parallel::run_indexed(n)\n}\n"
            .to_string(),
    );
    let g = audit_sources(&[parallel, documented]);
    assert!(only_rule(&g, "D006").is_empty(), "{g:?}");
}

#[test]
fn json_diagnostics_match_the_pinned_schema() {
    // Golden: one synthetic D003 finding, rendered end-to-end. The
    // exact byte shape is what downstream tooling parses out of
    // `results/audit.json` — field renames or reordering are breaking
    // changes and must show up here.
    let findings = check_one(
        "crates/lm/src/x.rs",
        "fn f() {\n    let s = std::collections::HashSet::<u32>::new();\n    drop(s);\n}\n",
    );
    let d003 = only_rule(&findings, "D003");
    assert_eq!(d003.len(), 1);
    let json = render_json_report(&findings);
    let expected = "{\"findings\":[\
        {\"rule\":\"D003\",\
        \"severity\":\"error\",\
        \"path\":\"crates/lm/src/x.rs\",\
        \"line\":2,\
        \"col\":31,\
        \"message\":\"`HashSet` in result-producing library code — iteration order is randomized per process\",\
        \"help\":\"if any iteration over this collection can reach an output (serialization, reports, accumulation), two runs will differ; use `BTreeSet`, or annotate with `// audit:allow(order): <why iteration order cannot reach outputs>`\",\
        \"suggestion\":\"replace `HashSet` with `BTreeSet`\"}\
        ],\"count\":1}";
    assert_eq!(json, expected);
}

#[test]
fn text_diagnostics_carry_the_suggestion_line() {
    let findings = check_one(
        "crates/lm/src/x.rs",
        "fn f() {\n    let m = std::collections::HashMap::<u32, u32>::new();\n    drop(m);\n}\n",
    );
    let text = only_rule(&findings, "D003")[0].render_text();
    assert!(text.starts_with("error[D003]: "), "{text}");
    assert!(text.contains(" --> crates/lm/src/x.rs:2:"), "{text}");
    assert!(
        text.contains("= suggestion: replace `HashMap` with `BTreeMap`"),
        "{text}"
    );
}
