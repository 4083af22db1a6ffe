//! The audit rule set.
//!
//! | Code | Scope | What it enforces |
//! |------|-------|------------------|
//! | A001 | non-test lib code of `aptq-tensor`, `aptq-core`, `aptq-qmodel` | no `.unwrap()` / message-less `.expect(...)` / `panic!` without `// audit:allow(panic): <reason>` |
//! | A002 | `crates/tensor/src`, `crates/core/src/pack.rs`, `crates/core/src/grid.rs` | no bare float↔int `as` casts without `// audit:allow(cast): <reason>` |
//! | A003 | all `crates/*/src` | `pub fn` containing an unannotated `assert!`/`panic!` must document `# Panics` |
//! | A004 | whole workspace | `unsafe` forbidden outside the allowlist |
//! | A005 | every `Cargo.toml` | dependencies must resolve via `[workspace.dependencies]` |
//! | D001 | `crates/*/src`, non-test | thread spawns only inside `aptq_tensor::parallel` (`// audit:allow(thread)`) |
//! | D002 | `crates/*/src`, non-test | `std::env::var` only in the designated config module (`// audit:allow(env)`) |
//! | D003 | `crates/*/src`, non-test | no `HashMap`/`HashSet` — use `BTreeMap`/`BTreeSet` (`// audit:allow(order)`) |
//! | D004 | library crates, non-test (`bench`/`src/bin` exempt) | no wall clock / entropy (`// audit:allow(nondet)`) |
//! | D005 | all of `crates/` | no `static mut` / interior-mutable globals / `thread_local!` (`// audit:allow(global)`) |
//! | D006 | `crates/*/src`, non-test | `pub fn` transitively reaching `aptq_tensor::parallel` documents `# Determinism` |
//! | H001 | transitive closure of `# HotPath` roots | no allocation sites (`// audit:allow(alloc)`) |
//! | H002 | transitive closure of `# HotPath` roots | no panic sites — `# Panics` doc or `// audit:allow(panic)` |
//! | H003 | transitive closure of `# HotPath` roots | no locks / I-O (`// audit:allow(io)`) |
//! | H004 | `# HotPath` roots | the doc section states an allocation budget (`// audit:allow(budget)`) |
//! | N001 | `crates/*/src`, non-test | no bare float `==`/`!=` against literals (`// audit:allow(fpeq)`) |
//! | N002 | `crates/{tensor,core,eval}/src`, non-test | reductions via `aptq_tensor::stats::kahan_sum` (`// audit:allow(accum)`) |
//! | N003 | `crates/{tensor,core,eval}/src`, non-test | denominators guarded in the same function (`// audit:allow(div)`) |
//! | N004 | `crates/{core,eval}/src`, non-test | `exp`/`ln`/`sqrt` inputs clamped (`// audit:allow(range)`) |
//! | E001 | `# HotPath` roots | a `# HotPath` root must not infer effect `Alloc` (`// audit:allow(effect)`) |
//! | E002 | `# Determinism`-documented fns, non-test | a `# Determinism` fn must not infer `EnvRead`/`WallClock` (`// audit:allow(effect)`) |
//! | E003 | pub fns of `aptq-tensor`, `aptq-core`, `aptq-qmodel`, non-test | a pub fn inferring `Panic` documents `# Panics` (`// audit:allow(effect)`) |
//! | E004 | `results/effects.json` | the committed effects manifest matches the inferred one |
//! | U001 | every `audit:allow` annotation, non-test | an annotation that suppresses no finding is stale (`// audit:allow(stale)`) |
//!
//! [`CATALOG`] is the one list of rules: the CLI's `--list-rules` and
//! `--help` print it, and a test pins it against the table above. This
//! module holds the A-rules. A001 and A004 filter the site table
//! ([`crate::sites`]), A003 reads function bodies and doc sections from
//! the symbol index, A002 scans casts itself and A005 reads manifests.
//!
//! A `.expect("non-empty message")` is treated as self-annotating: the
//! message *is* the reason. Message-less or computed-argument `expect`
//! still needs an annotation.

use crate::index::{FileIndex, SymbolIndex};
use crate::scan::word_occurrences;
use crate::sites::Kind;
use crate::Finding;

/// One entry of the rule catalog: code, where it applies, what it
/// enforces, and the `audit:allow` kind that silences it (empty when
/// the rule has no annotation hatch).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub code: &'static str,
    pub scope: &'static str,
    pub summary: &'static str,
    /// The `// audit:allow(<kind>)` kind, or `""` when none applies.
    pub allow: &'static str,
}

/// The full rule catalog — the single source of truth behind
/// `aptq-audit --list-rules`, `--help` and the module doc table above
/// (a test asserts the table agrees).
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        code: "A001",
        scope: "non-test lib code of aptq-tensor, aptq-core, aptq-qmodel",
        summary: "no .unwrap() / message-less .expect(...) / panic!-family macros",
        allow: "panic",
    },
    RuleInfo {
        code: "A002",
        scope: "crates/tensor/src, crates/core/src/pack.rs, crates/core/src/grid.rs",
        summary: "no bare float<->int `as` casts",
        allow: "cast",
    },
    RuleInfo {
        code: "A003",
        scope: "all crates/*/src",
        summary: "pub fn containing an unannotated assert!/panic! documents # Panics",
        allow: "panic",
    },
    RuleInfo {
        code: "A004",
        scope: "whole workspace",
        summary: "unsafe forbidden outside the allowlist",
        allow: "",
    },
    RuleInfo {
        code: "A005",
        scope: "every Cargo.toml",
        summary: "dependencies resolve via [workspace.dependencies]",
        allow: "",
    },
    RuleInfo {
        code: "D001",
        scope: "crates/*/src, non-test",
        summary: "thread spawns only inside aptq_tensor::parallel",
        allow: "thread",
    },
    RuleInfo {
        code: "D002",
        scope: "crates/*/src, non-test",
        summary: "std::env::var only in the designated config module",
        allow: "env",
    },
    RuleInfo {
        code: "D003",
        scope: "crates/*/src, non-test",
        summary: "no HashMap/HashSet — use BTreeMap/BTreeSet",
        allow: "order",
    },
    RuleInfo {
        code: "D004",
        scope: "library crates, non-test (bench/src/bin exempt)",
        summary: "no wall clock / entropy",
        allow: "nondet",
    },
    RuleInfo {
        code: "D005",
        scope: "all of crates/",
        summary: "no static mut / interior-mutable globals / thread_local!",
        allow: "global",
    },
    RuleInfo {
        code: "D006",
        scope: "crates/*/src, non-test",
        summary: "pub fn transitively reaching aptq_tensor::parallel documents # Determinism",
        allow: "determinism",
    },
    RuleInfo {
        code: "E001",
        scope: "# HotPath roots",
        summary: "a # HotPath root must not infer effect Alloc",
        allow: "effect",
    },
    RuleInfo {
        code: "E002",
        scope: "# Determinism-documented fns, non-test",
        summary: "a # Determinism fn must not infer EnvRead/WallClock",
        allow: "effect",
    },
    RuleInfo {
        code: "E003",
        scope: "pub fns of aptq-tensor, aptq-core, aptq-qmodel, non-test",
        summary: "a pub fn inferring Panic documents # Panics",
        allow: "effect",
    },
    RuleInfo {
        code: "E004",
        scope: "results/effects.json",
        summary: "the committed effects manifest matches the inferred one",
        allow: "",
    },
    RuleInfo {
        code: "H001",
        scope: "transitive closure of # HotPath roots",
        summary: "no allocation sites (Vec growth, to_vec, clone, format!, String construction)",
        allow: "alloc",
    },
    RuleInfo {
        code: "H002",
        scope: "transitive closure of # HotPath roots",
        summary:
            "no panic sites (unwrap/expect/panic!/assert!), transitively; # Panics doc exempts",
        allow: "panic",
    },
    RuleInfo {
        code: "H003",
        scope: "transitive closure of # HotPath roots",
        summary: "no locks or I/O (Mutex/RwLock/std::io/println!)",
        allow: "io",
    },
    RuleInfo {
        code: "H004",
        scope: "# HotPath roots",
        summary: "every # HotPath doc section states an allocation budget",
        allow: "budget",
    },
    RuleInfo {
        code: "N001",
        scope: "crates/*/src, non-test",
        summary: "no bare f32/f64 ==/!= against float literals (assert lines exempt)",
        allow: "fpeq",
    },
    RuleInfo {
        code: "N002",
        scope: "crates/{tensor,core,eval}/src, non-test",
        summary: "reductions use aptq_tensor::stats::kahan_sum, not naive .sum::<fNN>()",
        allow: "accum",
    },
    RuleInfo {
        code: "N003",
        scope: "crates/{tensor,core,eval}/src, non-test",
        summary: "division denominators guarded in the same function",
        allow: "div",
    },
    RuleInfo {
        code: "N004",
        scope: "crates/{core,eval}/src, non-test",
        summary: "exp/ln/sqrt inputs clamped or guarded",
        allow: "range",
    },
    RuleInfo {
        code: "U001",
        scope: "every audit:allow annotation, non-test",
        summary: "an audit:allow annotation that suppresses no finding is stale",
        allow: "stale",
    },
];

/// Files (workspace-relative, forward slashes) where `unsafe` is
/// permitted. Intentionally empty: the workspace is 100% safe Rust
/// today, and any new unsafe block must argue its way in here via
/// code review.
pub const UNSAFE_ALLOWLIST: &[&str] = &[];

/// Crates whose non-test library code falls under the A001 panic rule
/// (and, transitively, the E003 inferred-panic rule).
pub(crate) const PANIC_FREE_CRATES: &[&str] = &[
    "crates/tensor/src/",
    "crates/core/src/",
    "crates/qmodel/src/",
];

/// Hot-path files under the A002 cast rule.
const HOT_PATHS: &[&str] = &[
    "crates/tensor/src/",
    "crates/core/src/pack.rs",
    "crates/core/src/grid.rs",
];

/// True for library source files: `crates/<name>/src/**`.
pub(crate) fn in_lib_src(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") && rel_path.contains("/src/")
}

/// Runs A001–A004 over every indexed file.
pub(crate) fn check(index: &SymbolIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in index.files() {
        let rel_path = file.rel_path.as_str();
        rule_a001_a004_sites(file, &mut findings);
        if HOT_PATHS.iter().any(|p| rel_path.starts_with(p)) {
            rule_a002_float_casts(file, &mut findings);
        }
        if in_lib_src(rel_path) {
            rule_a003_panic_docs(file, &mut findings);
        }
    }
    findings
}

/// A001: `.unwrap()`, message-less `.expect(`, and `panic!`-family
/// macros in non-test library code of the panic-free crates need an
/// annotation. A004: `unsafe` is forbidden outside [`UNSAFE_ALLOWLIST`],
/// test code included.
fn rule_a001_a004_sites(file: &FileIndex, findings: &mut Vec<Finding>) {
    let rel_path = file.rel_path.as_str();
    let panic_free = PANIC_FREE_CRATES.iter().any(|p| rel_path.starts_with(p));
    for s in &file.sites {
        let at = |message: String, help: &str, suggestion: String| {
            Finding::new(
                "A001",
                rel_path,
                s.line + 1,
                s.col + 1,
                message,
                help,
                suggestion,
            )
        };
        match s.kind {
            Kind::Panic if panic_free && s.live(rel_path) && !s.assert_family() => {
                findings.push(match s.pat {
                    ".unwrap()" => at(
                        "`.unwrap()` in library code".into(),
                        "convert to `Result`, use a descriptive `.expect(\"...\")`, or annotate \
                         with `// audit:allow(panic): <reason>`",
                        "replace `.unwrap()` with `.expect(\"<why this cannot fail>\")`".into(),
                    ),
                    ".expect(" => at(
                        "`.expect(...)` without a literal message in library code".into(),
                        "give `.expect` a descriptive string literal, or annotate with \
                         `// audit:allow(panic): <reason>`",
                        "write `.expect(\"<invariant that guarantees Some/Ok>\")`".into(),
                    ),
                    mac => at(
                        format!("`{mac}` in library code"),
                        "return an error instead, or annotate with \
                         `// audit:allow(panic): <reason>`",
                        format!("replace `{mac}` with a `Result`/`Option` return"),
                    ),
                });
            }
            Kind::Unsafe if !UNSAFE_ALLOWLIST.contains(&rel_path) => findings.push(Finding::new(
                "A004",
                rel_path,
                s.line + 1,
                s.col + 1,
                "`unsafe` is forbidden in this workspace",
                "rewrite in safe Rust, or add the file to `UNSAFE_ALLOWLIST` in \
                 crates/audit/src/rules.rs with a review note",
                "",
            )),
            _ => {}
        }
    }
}

/// A002: `as f32` / `as f64`, and int-target `as` casts fed by a float
/// rounding method, need an annotation in hot-path files.
///
/// A purely lexical pass has no type information, so the rule targets
/// the two syntactic shapes where float↔int conversions appear in this
/// codebase: casts *to* a float type, and casts *to* an integer type
/// whose operand visibly ends in `.round()`/`.floor()`/`.ceil()`/
/// `.trunc()`. Integer↔integer masks like `(x & 0xF) as u8` stay legal.
fn rule_a002_float_casts(file: &FileIndex, findings: &mut Vec<Finding>) {
    const INT_TYPES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    const ROUNDERS: &[&str] = &[".round()", ".floor()", ".ceil()", ".trunc()"];
    let f = &file.scanned;
    for (idx, line) in f.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for col in word_occurrences(code, "as ") {
            // Require the keyword position: preceded by whitespace or ')'.
            let chars: Vec<char> = code.chars().collect();
            if col > 0 {
                let p = chars[col - 1];
                if !(p.is_whitespace() || p == ')') {
                    continue;
                }
            } else {
                continue;
            }
            let rest: String = chars[col + 3..].iter().collect();
            let target: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let before: String = chars[..col].iter().collect();
            let before = before.trim_end();
            let message = if target == "f32" || target == "f64" {
                format!("numeric `as {target}` cast in a hot path")
            } else if INT_TYPES.contains(&target.as_str())
                && ROUNDERS.iter().any(|r| before.ends_with(r))
            {
                format!("float-to-`{target}` truncating cast in a hot path")
            } else {
                continue;
            };
            if !f.allowed(idx, "cast") {
                findings.push(Finding::new(
                    "A002",
                    &file.rel_path,
                    idx + 1,
                    col + 1,
                    message,
                    "use `f64::from`/`From`/`TryFrom` where lossless, or annotate \
                     with `// audit:allow(cast): <reason>` stating the value range",
                    "annotate with `// audit:allow(cast): <value range proof>`",
                ));
            }
        }
    }
}

/// A003: a `pub fn`, `pub const fn` or `pub(crate) fn` whose body
/// contains an unannotated `assert!`, `assert_eq!`, `assert_ne!` or
/// `panic!` must carry a `# Panics` section in its doc comment. The
/// first such site strictly between the declaration line and the
/// closing line is reported, the macros ranked in that order within a
/// line.
fn rule_a003_panic_docs(file: &FileIndex, findings: &mut Vec<Finding>) {
    const DECLS: &[&str] = &["pub fn ", "pub const fn ", "pub(crate) fn "];
    const PANICKY: &[&str] = &["assert!", "assert_eq!", "assert_ne!", "panic!"];
    for item in &file.items {
        if item.in_test || item.has_panics_doc {
            continue;
        }
        let decl = file.scanned.lines[item.line].code.trim_start();
        if !DECLS.iter().any(|d| decl.starts_with(d)) {
            continue;
        }
        let (lo, hi) = item.body;
        let first = file
            .sites_in(lo + 1, hi.saturating_sub(1))
            .iter()
            .filter(|s| s.kind == Kind::Panic && !s.allowed)
            .filter_map(|s| Some((s.line, PANICKY.iter().position(|m| *m == s.pat)?, s.col)))
            .min();
        if let Some((line, rank, col)) = first {
            findings.push(Finding::new(
                "A003",
                &file.rel_path,
                line + 1,
                col + 1,
                format!(
                    "public function contains `{}` but its doc comment has no `# Panics` section",
                    PANICKY[rank]
                ),
                "add a `/// # Panics` section describing the condition, or \
                 annotate the site with `// audit:allow(panic): <reason>`",
                "add a `/// # Panics` doc section",
            ));
        }
    }
}

/// A005: every dependency in every manifest must be inherited from
/// `[workspace.dependencies]` (i.e. use the `workspace = true` form).
///
/// `workspace_manifest` controls whether `[workspace.dependencies]`
/// itself is being declared (allowed, root only).
pub fn check_manifest(rel_path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut section = String::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let dep_section = section == "dependencies"
            || section == "dev-dependencies"
            || section == "build-dependencies"
            || (section.starts_with("target.") && section.ends_with("dependencies"));
        if !dep_section {
            continue;
        }
        // `name = { ... }`, `name = "1.0"`, or `name.workspace = true`.
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim();
        let val = line[eq + 1..].trim();
        let inherited = key.ends_with(".workspace")
            || (val.starts_with('{') && val.contains("workspace") && val.contains("true"));
        if !inherited {
            let name = key.split('.').next().unwrap_or(key);
            findings.push(Finding::new(
                "A005",
                rel_path,
                idx + 1,
                1,
                format!("dependency `{name}` does not resolve through [workspace.dependencies]"),
                format!(
                    "declare `{name}` once in the root [workspace.dependencies] table and \
                     use `{name}.workspace = true` here"
                ),
                format!("write `{name}.workspace = true`"),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit_one as rule;

    fn a001(src: &str) -> Vec<Finding> {
        rule("crates/core/src/demo.rs", src, "A001")
    }

    #[test]
    fn unwrap_in_scoped_crate_is_flagged() {
        let f = a001("fn f() { x.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("unwrap"));
    }

    #[test]
    fn annotated_unwrap_is_allowed() {
        let f = a001("fn f() {\n    // audit:allow(panic): index bounded by loop above\n    x.unwrap();\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwrap_in_test_mod_is_ignored() {
        let f = a001("#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwrap_outside_scoped_crates_is_ignored() {
        let f = rule("crates/lm/src/demo.rs", "fn f() { x.unwrap(); }\n", "A001");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn descriptive_expect_is_self_annotating() {
        let f = a001("fn f() { x.expect(\"grid is non-empty by construction\"); }\n");
        assert!(f.is_empty(), "{f:?}");
        let g = a001("fn f() { x.expect(msg); }\n");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn unwrap_in_string_literal_is_ignored() {
        let f = a001("fn f() { let s = \".unwrap()\"; }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    fn a002(src: &str) -> Vec<Finding> {
        rule("crates/core/src/pack.rs", src, "A002")
    }

    #[test]
    fn float_cast_is_flagged() {
        assert_eq!(a002("fn f(x: usize) -> f32 { x as f32 }\n").len(), 1);
        assert_eq!(a002("fn f(x: u8) -> f64 { x as f64 }\n").len(), 1);
    }

    #[test]
    fn rounded_int_cast_is_flagged() {
        assert_eq!(a002("fn f(x: f32) -> u8 { x.round() as u8 }\n").len(), 1);
    }

    #[test]
    fn int_mask_cast_is_legal() {
        assert!(a002("fn f(x: u32) -> u8 { (x & 0xFF) as u8 }\n").is_empty());
    }

    #[test]
    fn annotated_cast_is_allowed() {
        let f = a002("fn f(x: usize) -> f32 {\n    // audit:allow(cast): dims < 2^24, exact in f32\n    x as f32\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cast_outside_hot_paths_is_ignored() {
        let f = rule(
            "crates/core/src/mixed.rs",
            "fn f(x: usize) -> f32 { x as f32 }\n",
            "A002",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    fn a003(src: &str) -> Vec<Finding> {
        rule("crates/lm/src/demo.rs", src, "A003")
    }

    #[test]
    fn pub_fn_with_assert_needs_panics_doc() {
        let f = a003("pub fn f(x: usize) {\n    assert!(x > 0, \"x\");\n}\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("# Panics"));
    }

    #[test]
    fn panics_doc_satisfies_a003() {
        let f = a003("/// Does things.\n///\n/// # Panics\n/// If x is zero.\npub fn f(x: usize) {\n    assert!(x > 0);\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn debug_assert_does_not_trigger_a003() {
        let f = a003("pub fn f(x: usize) {\n    debug_assert!(x > 0);\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn private_fn_with_assert_is_fine() {
        let f = a003("fn f(x: usize) {\n    assert!(x > 0);\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn annotated_assert_satisfies_a003() {
        let f = a003("pub fn f(x: usize) {\n    // audit:allow(panic): validated at CLI boundary\n    assert!(x > 0);\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_is_flagged_everywhere() {
        let f = rule("crates/bench/benches/b.rs", "unsafe fn f() {}\n", "A004");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unsafe_code_lint_name_is_not_the_keyword() {
        let f = rule("crates/lm/src/lib.rs", "#![deny(unsafe_code)]\n", "A004");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn manifest_version_dep_is_flagged() {
        let f = check_manifest("crates/lm/Cargo.toml", "[dependencies]\nserde = \"1.0\"\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("serde"));
    }

    #[test]
    fn manifest_workspace_forms_pass() {
        let src = "[dependencies]\nserde.workspace = true\nrand = { workspace = true }\n\n[dev-dependencies]\nproptest = { workspace = true, features = [\"x\"] }\n";
        assert!(check_manifest("crates/lm/Cargo.toml", src).is_empty());
    }

    #[test]
    fn manifest_path_dep_is_flagged() {
        let f = check_manifest(
            "crates/lm/Cargo.toml",
            "[dev-dependencies]\nfoo = { path = \"../foo\" }\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let src = "[package]\nname = \"x\"\nversion = \"1.0\"\n\n[features]\ndefault = []\n";
        assert!(check_manifest("crates/lm/Cargo.toml", src).is_empty());
    }

    #[test]
    fn catalog_codes_are_unique_and_sorted() {
        let codes: Vec<&str> = CATALOG.iter().map(|r| r.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "CATALOG must be sorted by code, no dupes");
        assert_eq!(codes.len(), 24);
    }

    #[test]
    fn catalog_matches_module_doc_table() {
        // The module doc table rows look like `//! | A001 | scope | … |`;
        // every documented code must be in CATALOG and vice versa.
        let src = include_str!("rules.rs");
        let mut documented: Vec<&str> = src
            .lines()
            .filter_map(|l| {
                let row = l.trim().strip_prefix("//! |")?;
                let code = row.split('|').next()?.trim();
                let looks_like_code = code.len() == 4
                    && code.starts_with(|c: char| c.is_ascii_uppercase())
                    && code[1..].chars().all(|c| c.is_ascii_digit());
                looks_like_code.then_some(code)
            })
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let catalog: Vec<&str> = CATALOG.iter().map(|r| r.code).collect();
        assert_eq!(
            documented, catalog,
            "rules.rs doc table and CATALOG disagree"
        );
    }
}
