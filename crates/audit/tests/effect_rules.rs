//! The effect engine and its rules, exercised through the public
//! pipeline.
//!
//! Two families of pins:
//!
//! 1. **Sabotage** — each rule here (E001–E004, U001) must fire exactly
//!    once on a seeded violation and clear through its documented
//!    escape hatch. Firing zero times means the rule is dead; more than
//!    once means findings are unstable.
//! 2. **Manifest** — the committed `results/effects.json` must equal
//!    what the engine infers from the tree today, byte for byte, and
//!    re-rendering must be byte-stable.

use std::path::PathBuf;

use aptq_audit::{audit_sources, audit_workspace_with_manifest, effects};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf()
}

fn audit_one(source: &str) -> Vec<aptq_audit::Finding> {
    audit_sources(&[("crates/core/src/x.rs".to_string(), source.to_string())])
}

fn count(findings: &[aptq_audit::Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

// ---------------------------------------------------------------- E001

#[test]
fn e001_fires_once_on_allocating_hot_root_and_clears_with_allow() {
    let src = "/// # HotPath\n/// budget: zero allocations.\npub fn forward() {\n    let mut v = Vec::new();\n    v.push(1);\n}\n";
    let f = audit_one(src);
    assert_eq!(count(&f, "E001"), 1, "{f:?}");
    // The allocation sites themselves are H001's findings; E001 is the
    // one contract-level summary on the root.
    assert_eq!(count(&f, "H001"), 2, "{f:?}");
    let annotated = src.replace(
        "pub fn forward()",
        "// audit:allow(effect): startup-only warmup path\npub fn forward()",
    );
    let g = audit_one(&annotated);
    assert_eq!(count(&g, "E001"), 0, "{g:?}");
}

// ---------------------------------------------------------------- E002

#[test]
fn e002_fires_once_on_clock_reading_determinism_fn_and_clears_with_allow() {
    let src = "/// # Determinism\n///\n/// Bit-identical, allegedly.\npub fn seeded() -> u64 {\n    let t = std::time::Instant::now();\n    helper(t)\n}\nfn helper(_t: std::time::Instant) -> u64 {\n    0\n}\n";
    let f = audit_one(src);
    assert_eq!(count(&f, "E002"), 1, "{f:?}");
    let annotated = src.replace(
        "pub fn seeded()",
        "// audit:allow(effect): timing is logged, never branched on\npub fn seeded()",
    );
    let g = audit_one(&annotated);
    assert_eq!(count(&g, "E002"), 0, "{g:?}");
}

// ---------------------------------------------------------------- E003

#[test]
fn e003_fires_once_on_undocumented_panic_and_clears_with_panics_doc() {
    // E003 polices the panic-free crates; aptq-core is one of them.
    let src = "pub fn fetch(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let f = audit_one(src);
    assert_eq!(count(&f, "E003"), 1, "{f:?}");
    let documented = src.replace(
        "pub fn fetch",
        "/// # Panics\n///\n/// When `x` is `None`.\npub fn fetch",
    );
    let g = audit_one(&documented);
    assert_eq!(count(&g, "E003"), 0, "{g:?}");
}

// ---------------------------------------------------------------- E004

#[test]
fn e004_fires_once_per_drifted_entry() {
    let committed = "{\"version\":1,\"fns\":[\n\
        {\"path\":\"crates/core/src/x.rs\",\"fn\":\"gone\",\"effects\":[]},\n\
        {\"path\":\"crates/core/src/x.rs\",\"fn\":\"same\",\"effects\":[\"Alloc\"]},\n\
        {\"path\":\"crates/core/src/x.rs\",\"fn\":\"shifted\",\"effects\":[]}\n\
        ]}\n";
    let current = "{\"version\":1,\"fns\":[\n\
        {\"path\":\"crates/core/src/x.rs\",\"fn\":\"added\",\"effects\":[]},\n\
        {\"path\":\"crates/core/src/x.rs\",\"fn\":\"same\",\"effects\":[\"Alloc\"]},\n\
        {\"path\":\"crates/core/src/x.rs\",\"fn\":\"shifted\",\"effects\":[\"Io\"]}\n\
        ]}\n";
    let f = effects::diff_manifests(committed, current);
    // One per drift: `gone` vanished, `added` is unrecorded, `shifted`
    // changed. `same` is silent.
    assert_eq!(f.len(), 3, "{f:?}");
    assert!(f.iter().all(|f| f.rule == "E004"), "{f:?}");
    let clean = effects::diff_manifests(current, current);
    assert!(clean.is_empty(), "{clean:?}");
}

// ---------------------------------------------------------------- U001

#[test]
fn u001_fires_once_on_stale_allow_and_clears_with_stale_allow() {
    // The allow excuses nothing: `helper` has no panic site.
    let src = "pub fn outer() -> u32 {\n    // audit:allow(panic): bounded by construction\n    helper()\n}\nfn helper() -> u32 {\n    1\n}\n";
    let f = audit_one(src);
    assert_eq!(count(&f, "U001"), 1, "{f:?}");
    let retained = src.replace(
        "    // audit:allow(panic): bounded by construction",
        "    // audit:allow(stale): kept while the fallible path is feature-gated\n    // audit:allow(panic): bounded by construction",
    );
    let g = audit_one(&retained);
    assert_eq!(count(&g, "U001"), 0, "{g:?}");
}

#[test]
fn u001_stays_silent_for_a_load_bearing_allow() {
    // The same annotation, now actually suppressing an A001 finding.
    let src = "pub fn outer(x: Option<u32>) -> u32 {\n    // audit:allow(panic): bounded by construction\n    x.unwrap()\n}\n";
    let f = audit_one(src);
    assert_eq!(count(&f, "U001"), 0, "{f:?}");
    assert_eq!(count(&f, "A001"), 0, "{f:?}");
}

#[test]
fn u001_flags_a_trailing_allow_above_a_suppressed_site() {
    // An annotation after code covers only its own line, never the line
    // below: the first allow excuses `g()`, which cannot panic, so it is
    // stale even though the next line's unwrap is suppressed (by its
    // own annotation).
    let src = "pub fn outer(y: Option<u32>) -> u32 {\n    g(); // audit:allow(panic): g is infallible\n    y.unwrap() // audit:allow(panic): caller checks Some\n}\nfn g() {}\n";
    let f = audit_one(src);
    let stale: Vec<usize> = f
        .iter()
        .filter(|f| f.rule == "U001")
        .map(|f| f.line)
        .collect();
    assert_eq!(stale, vec![2], "{f:?}");
    assert_eq!(count(&f, "A001"), 0, "{f:?}");
}

// ---------------------------------------------------------- manifest

#[test]
fn committed_manifest_matches_the_tree_and_is_byte_stable() {
    let root = workspace_root();
    let (findings, manifest) =
        audit_workspace_with_manifest(&root).expect("audit walk must succeed");
    let committed = std::fs::read_to_string(root.join(effects::MANIFEST_PATH))
        .expect("results/effects.json must be committed (regenerate with --effects-out)");
    assert_eq!(
        committed, manifest,
        "committed effects manifest is out of date; regenerate with \
         `cargo run -p aptq-audit -- --effects-out results/effects.json -q`"
    );
    // Render twice from independent walks: byte-stable or the CI diff
    // gate is flaky.
    let (_, manifest2) = audit_workspace_with_manifest(&root).expect("second walk");
    assert_eq!(manifest, manifest2);
    // And with the manifest in sync, E004 contributes nothing.
    assert!(findings.iter().all(|f| f.rule != "E004"), "{findings:?}");
}
