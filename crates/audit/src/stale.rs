//! U001 — stale `// audit:allow(...)` annotations.
//!
//! Allow annotations are reviewed exemptions; once the site they
//! excused is gone (code deleted, rewritten, or moved), the annotation
//! becomes a standing hole a future regression can hide in. U001 makes
//! staleness itself a finding.
//!
//! Detection runs the whole rule pipeline twice: once on the real
//! sources, once on a *shadow* copy with every `audit:allow(`
//! neutralized to the same-length `audit:al1ow(` (byte offsets — and
//! therefore finding lines/columns — are preserved). A finding that
//! appears only in the shadow run was being suppressed by an
//! annotation; the suppressor is located by the rule's allow kind (from
//! [`crate::rules::CATALOG`]) at the finding line or the comment-only
//! line above — exactly the two places
//! [`ScannedFile::allowed`](crate::scan::ScannedFile::allowed) looks.
//! Every collected annotation that suppresses nothing is flagged.
//!
//! Doc-comment text (`///` / `//!`, which merely *mentions* the syntax)
//! and `#[cfg(test)]` regions (where no rule fires, so every allow
//! would be trivially "stale") are skipped. The lint does not police
//! its own escape hatch: `audit:allow(stale)` annotations are exempt
//! from collection, and one on a stale allow's line (or above) keeps a
//! deliberately retained annotation alive.

use std::collections::{BTreeMap, BTreeSet};

use crate::index::SymbolIndex;
use crate::Finding;

/// Rewrites every `audit:allow(` marker to the same-length
/// `audit:al1ow(` so a shadow audit reveals what the annotations
/// suppress without moving a single byte.
pub fn neutralize(source: &str) -> String {
    source.replace("audit:allow(", "audit:al1ow(")
}

/// One collected annotation: where it sits and what kind it allows.
#[derive(Debug)]
struct Allow {
    file: usize,
    /// 0-based line of the annotation.
    line: usize,
    /// 0-based char column of the `audit:allow(` marker.
    col: usize,
    kind: String,
}

/// Diffs the normal findings against the shadow findings and flags
/// every allow annotation that suppresses nothing.
pub fn check(index: &SymbolIndex, normal: &[Finding], shadow: &[Finding]) -> Vec<Finding> {
    let allows = collect_allows(index);

    // Findings present in the shadow run but not the real one were
    // suppressed by an annotation (multiset diff: duplicate findings
    // need duplicate suppressions).
    let mut seen: BTreeMap<(&str, &str, usize, usize, &str), usize> = BTreeMap::new();
    for f in normal {
        *seen
            .entry((f.rule, &f.path, f.line, f.col, &f.message))
            .or_insert(0) += 1;
    }
    let mut kind_of_rule: BTreeMap<&str, &str> = BTreeMap::new();
    for r in crate::rules::CATALOG {
        if !r.allow.is_empty() {
            kind_of_rule.insert(r.code, r.allow);
        }
    }

    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    for f in shadow {
        let key = (f.rule, f.path.as_str(), f.line, f.col, f.message.as_str());
        if let Some(n) = seen.get_mut(&key) {
            if *n > 0 {
                *n -= 1;
                continue; // fired in both runs — no annotation involved
            }
        }
        let Some(&kind) = kind_of_rule.get(f.rule) else {
            continue;
        };
        // `allowed()` accepts the annotation on the finding line or the
        // comment-only line above; mark both candidates used.
        let line0 = f.line.saturating_sub(1);
        for a in &allows {
            let file = &index.files()[a.file];
            if a.kind == kind
                && file.rel_path == f.path
                && (a.line == line0
                    || (a.line + 1 == line0 && file.scanned.lines[a.line].code.trim().is_empty()))
            {
                used.insert((a.file, a.line));
            }
        }
    }

    let mut findings = Vec::new();
    for a in &allows {
        if used.contains(&(a.file, a.line)) {
            continue;
        }
        let file = &index.files()[a.file];
        if file.scanned.allowed(a.line, "stale") {
            continue;
        }
        findings.push(Finding::new(
            "U001",
            &file.rel_path,
            a.line + 1,
            a.col + 1,
            format!(
                "stale `audit:allow({})` annotation suppresses no finding",
                a.kind
            ),
            "the finding this annotation once excused is gone; a standing allow is a hole \
             the next regression hides in — delete it, or annotate with \
             `// audit:allow(stale): <reason>` if it must outlive its site",
            format!("remove the `// audit:allow({}): ...` annotation", a.kind),
        ));
    }
    findings
}

/// Collects every `audit:allow(<kind>)` annotation in non-test,
/// non-doc-comment positions. `kind == "stale"` is the lint's own
/// escape hatch and is never collected.
fn collect_allows(index: &SymbolIndex) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (fi, file) in index.files().iter().enumerate() {
        for (idx, line) in file.scanned.lines.iter().enumerate() {
            if line.in_test || line.comment.is_empty() {
                continue;
            }
            // `/// text` scans to a comment starting with '/'; `//!` to
            // '!'. Doc prose about the annotation syntax is not an
            // annotation.
            let t = line.comment.trim_start();
            if t.starts_with('/') || t.starts_with('!') {
                continue;
            }
            let marker = "audit:allow(";
            let comment_chars: Vec<char> = line.comment.chars().collect();
            let mut from = 0usize;
            while let Some(rel) = find_chars(&comment_chars, marker, from) {
                from = rel + marker.len();
                let kind: String = comment_chars[from..]
                    .iter()
                    .take_while(|&&c| c != ')')
                    .collect();
                if kind.is_empty() || kind == "stale" || kind.contains(' ') {
                    continue;
                }
                // The comment starts after the code text plus the `//`
                // marker the scanner stripped.
                let col = line.code.chars().count() + 2 + rel;
                allows.push(Allow {
                    file: fi,
                    line: idx,
                    col,
                    kind,
                });
            }
        }
    }
    allows
}

/// Char-indexed `find` so annotation columns line up with the
/// char-based columns every other rule reports.
fn find_chars(haystack: &[char], needle: &str, from: usize) -> Option<usize> {
    let pat: Vec<char> = needle.chars().collect();
    if haystack.len() < pat.len() {
        return None;
    }
    (from..=haystack.len() - pat.len()).find(|&i| haystack[i..i + pat.len()] == pat[..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutralize_preserves_length() {
        let src = "x; // audit:allow(panic): reason\n";
        assert_eq!(neutralize(src).len(), src.len());
        assert!(!neutralize(src).contains("audit:allow("));
    }

    #[test]
    fn collects_annotations_outside_docs_and_tests() {
        let idx = SymbolIndex::build(&[(
            "crates/core/src/x.rs".to_string(),
            "/// doc about audit:allow(panic): syntax\nfn f() {\n    // audit:allow(cast): bounded\n    g();\n}\n#[cfg(test)]\nmod tests {\n    // audit:allow(panic): in test\n    fn t() {}\n}\n"
                .to_string(),
        )]);
        let allows = collect_allows(&idx);
        assert_eq!(allows.len(), 1, "{allows:?}");
        assert_eq!(allows[0].kind, "cast");
        assert_eq!(allows[0].line, 2);
    }
}
