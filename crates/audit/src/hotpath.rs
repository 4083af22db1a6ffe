//! Hot-path contract rules (H001–H004; scopes and allow kinds in
//! [`crate::rules::CATALOG`]).
//!
//! APTQ's serving claim is that the quantized forward/decode path runs
//! "as fast as the hardware allows"; allocation, panicking, and locking
//! inside it are regressions the type system cannot see. The contract
//! is declared in prose and enforced here, on top of the shared effect
//! engine ([`crate::effects`]):
//!
//! - a function documented with a `# HotPath` doc section is a *root*
//!   ([`EffectAnalysis::hot_roots`](crate::effects::EffectAnalysis));
//! - the engine computes everything a root can transitively execute
//!   (by-name call edges, test code excluded);
//! - every `Alloc`/`Panic`/`Io` leaf site inside a root's closure
//!   becomes a finding, attributed to the first root in (path, line)
//!   order so messages are deterministic. A `# Panics` doc on the
//!   containing function exempts its panic sites.

use crate::effects::{leaf_sites, EffectAnalysis};
use crate::index::SymbolIndex;
use crate::sites::Kind;
use crate::Finding;

/// Runs H001–H004 against the shared effect analysis.
pub(crate) fn check(index: &SymbolIndex, analysis: &EffectAnalysis) -> Vec<Finding> {
    let mut findings = Vec::new();

    // H004 — a root without a stated allocation budget.
    for &id in &analysis.hot_roots {
        let item = index.item(id);
        let file = index.file(id);
        if item.hotpath_budget || file.scanned.allowed(item.line, "budget") {
            continue;
        }
        findings.push(Finding::new(
            "H004",
            &file.rel_path,
            item.line + 1,
            1,
            format!(
                "hot-path root `{}` has a `# HotPath` doc section but states no allocation budget",
                item.name
            ),
            "the `# HotPath` contract is only checkable against a stated budget; say what \
             the function may allocate and when (e.g. \"budget: zero allocations on the \
             steady-state token path\"), or annotate with `// audit:allow(budget): <reason>`",
            "add a budget line to the `# HotPath` doc section",
        ));
    }

    // H001–H003 — leaf sites inside owned closures. The engine only
    // yields sites of non-test library functions, so the ownership map
    // is the sole remaining filter.
    for (&id, &root) in &analysis.hot_owner {
        let item = index.item(id);
        let file = index.file(id);
        let root_label = format!(
            "{}::{}",
            index.file(root).module.as_str(),
            index.item(root).name
        );
        for site in leaf_sites(file, item) {
            let (rule, message, help, suggestion) = match site.kind {
                Kind::Alloc => (
                    "H001",
                    format!(
                        "allocation site `{}` in `{}`, reachable from hot path `{root_label}`",
                        site.pat.trim_end_matches('('),
                        item.name
                    ),
                    "hot paths must run on caller-provided or preallocated buffers; write \
                     into scratch owned by the session/struct, or annotate with \
                     `// audit:allow(alloc): <reason>` if the allocation is off the \
                     steady-state path",
                    "preallocate in the constructor and reuse the buffer",
                ),
                Kind::Panic if !item.has_panics_doc => (
                    "H002",
                    format!(
                        "panic site {} in `{}`, reachable from hot path `{root_label}`",
                        match site.pat {
                            ".unwrap()" => "`.unwrap()`".to_string(),
                            ".expect(" => "message-less `.expect(...)`".to_string(),
                            mac => format!("`{mac}`"),
                        },
                        item.name
                    ),
                    "a panic mid-decode aborts the whole generation; return an error at \
                     the boundary, document the precondition in a `# Panics` section on \
                     the containing function, or annotate with \
                     `// audit:allow(panic): <reason>`",
                    "validate at the session boundary and make the hot path infallible",
                ),
                Kind::Io => (
                    "H003",
                    format!(
                        "lock/I-O site `{}` in `{}`, reachable from hot path `{root_label}`",
                        site.pat, item.name
                    ),
                    "blocking on a lock or file descriptor inside the token loop turns \
                     tail latency into throughput collapse; hoist the I/O to the caller \
                     or annotate with `// audit:allow(io): <reason>`",
                    "move the lock/I-O outside the `# HotPath` closure",
                ),
                _ => continue,
            };
            findings.push(Finding::new(
                rule,
                &file.rel_path,
                site.line + 1,
                site.col + 1,
                message,
                help,
                suggestion,
            ));
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use crate::{audit_sources, Finding};

    fn check(src: &str) -> Vec<Finding> {
        audit_sources(&[("crates/core/src/x.rs".to_string(), src.to_string())])
    }

    const ROOT_DOC: &str = "/// # HotPath\n/// budget: zero allocations.\n";

    #[test]
    fn h001_fires_transitively_and_clears_with_allow() {
        let src = format!(
            "{ROOT_DOC}pub fn forward() {{\n    helper();\n}}\nfn helper() {{\n    let mut v = Vec::new();\n    v.push(1);\n}}\n"
        );
        let f = check(&src);
        assert_eq!(f.iter().filter(|f| f.rule == "H001").count(), 2, "{f:?}");
        let annotated = src.replace(
            "    let mut v = Vec::new();",
            "    // audit:allow(alloc): test scratch\n    let mut v = Vec::new();",
        );
        let g = check(&annotated);
        assert_eq!(g.iter().filter(|f| f.rule == "H001").count(), 1, "{g:?}");
    }

    #[test]
    fn h001_silent_without_hotpath_root() {
        let f = check("pub fn forward() {\n    let mut v = Vec::new();\n    v.push(1);\n}\n");
        assert!(f.iter().all(|f| f.rule != "H001"), "{f:?}");
    }

    #[test]
    fn h002_fires_on_transitive_unwrap_and_respects_panics_doc() {
        let src = format!(
            "{ROOT_DOC}pub fn forward() {{\n    helper();\n}}\nfn helper() {{\n    x.unwrap();\n}}\n"
        );
        let f = check(&src);
        assert_eq!(f.iter().filter(|f| f.rule == "H002").count(), 1, "{f:?}");
        let documented = src.replace(
            "fn helper() {",
            "/// # Panics\n/// When x is None.\nfn helper() {",
        );
        let g = check(&documented);
        assert!(g.iter().all(|f| f.rule != "H002"), "{g:?}");
    }

    #[test]
    fn h003_fires_on_println_in_closure() {
        let src = format!("{ROOT_DOC}pub fn forward() {{\n    println!(\"token\");\n}}\n");
        let f = check(&src);
        assert_eq!(f.iter().filter(|f| f.rule == "H003").count(), 1, "{f:?}");
    }

    #[test]
    fn h004_requires_budget_in_root_doc() {
        let f = check("/// # HotPath\npub fn forward() {}\n");
        assert_eq!(f.iter().filter(|f| f.rule == "H004").count(), 1, "{f:?}");
        let g = check("/// # HotPath\n/// budget: none on steady state.\npub fn forward() {}\n");
        assert!(g.iter().all(|f| f.rule != "H004"), "{g:?}");
    }

    #[test]
    fn ported_findings_match_per_line_ordering() {
        // One helper with an alloc, a panic, and an I/O site on
        // consecutive lines: emission must stay line-major with
        // H001 < H002 < H003 within a line, in site-table order.
        let src = format!(
            "{ROOT_DOC}pub fn forward() {{\n    let v = Vec::new();\n    x.unwrap();\n    println!(\"t\");\n}}\n"
        );
        let rules: Vec<&str> = check(&src)
            .into_iter()
            .filter(|f| f.rule.starts_with('H'))
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, vec!["H001", "H002", "H003"]);
    }
}
