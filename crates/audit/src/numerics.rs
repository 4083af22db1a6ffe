//! Numerical-safety rules (N001–N004; scopes and allow kinds in
//! [`crate::rules::CATALOG`]).
//!
//! The quantities APTQ's mixed-precision decisions hang off — Hessian
//! traces, sensitivity scores, Eq.18 bit budgets, perplexity — are all
//! floating-point reductions and ratios. The failure modes are quiet:
//! a `== 0.0` guard that never fires because the value is `1e-17`, a
//! naive sum that loses the small terms, a division by an unguarded
//! count, an `exp` on an unbounded logit. These rules make each one a
//! lint-time finding.
//!
//! N001 scans each line for float-literal comparisons and N002 filters
//! the site table; N003/N004 need the function body (from the symbol
//! index) to search for guards on the operand identifier.

use crate::index::{FileIndex, Item, SymbolIndex};
use crate::rules::in_lib_src;
use crate::scan::{word_occurrences, ScannedFile};
use crate::sites::Kind;
use crate::Finding;

/// Crates whose reductions and divisions feed quantization decisions.
const NUMERIC_CRATES: &[&str] = &["crates/tensor/src/", "crates/core/src/", "crates/eval/src/"];

/// Crates under the transcendental-range rule (N004).
const RANGE_CRATES: &[&str] = &["crates/core/src/", "crates/eval/src/"];

/// Tokens that make a line count as a guard for an identifier: bounds
/// checks, clamps, and branch heads. Deliberately loose — a human-shaped
/// guard anywhere in the function on the same identifier clears the
/// finding; the `allow` hatch handles the rest.
const GUARD_TOKENS: &[&str] = &[
    "assert", "max(", ".max", "min(", "clamp", "== 0", "!= 0", "> 0", ">= ", "< ", "<= ", "if ",
    "while ", "is_empty", "match ", "for ",
];

fn in_numeric_crate(rel_path: &str) -> bool {
    NUMERIC_CRATES.iter().any(|p| rel_path.starts_with(p))
}

/// Runs N001–N004 over the workspace index.
pub(crate) fn check(index: &SymbolIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in index.files() {
        rule_n001_float_equality(file, &mut findings);
        rule_n002_naive_sums(file, &mut findings);
    }
    for (id, item) in index.fns() {
        let file = index.file(id);
        if item.in_test || !in_numeric_crate(&file.rel_path) {
            continue;
        }
        rule_n003_unguarded_division(file, item, &mut findings);
        if RANGE_CRATES.iter().any(|p| file.rel_path.starts_with(p)) {
            rule_n004_unclamped_transcendentals(file, item, &mut findings);
        }
    }
    findings
}

/// N001 — bare float equality. An `assert`-family line *is* the guard
/// idiom (exact-equality regression pins), so it is exempt.
fn rule_n001_float_equality(file: &FileIndex, findings: &mut Vec<Finding>) {
    let rel_path = file.rel_path.as_str();
    if !in_lib_src(rel_path) {
        return;
    }
    let f = &file.scanned;
    for (idx, line) in f.lines.iter().enumerate() {
        if line.in_test || line.code.contains("assert") {
            continue;
        }
        for col in float_eq_cols(&line.code) {
            if f.allowed(idx, "fpeq") {
                continue;
            }
            findings.push(Finding::new(
                "N001",
                rel_path,
                idx + 1,
                col + 1,
                "bare float `==`/`!=` comparison — exact equality rarely survives accumulation",
                "values that are conceptually zero arrive as `1e-17` after rounding; compare \
                 against an epsilon scaled to the data's magnitude, or — for genuine \
                 sentinel/sparsity checks on values never produced by arithmetic — annotate \
                 with `// audit:allow(fpeq): <reason>`",
                "use an epsilon-scaled guard (see `aptq_tensor::stats::pearson`)",
            ));
        }
    }
}

/// N002 — naive reductions in numeric crates.
fn rule_n002_naive_sums(file: &FileIndex, findings: &mut Vec<Finding>) {
    let rel_path = file.rel_path.as_str();
    if !in_numeric_crate(rel_path) {
        return;
    }
    for s in &file.sites {
        if s.kind != Kind::Accum || !s.live(rel_path) {
            continue;
        }
        findings.push(Finding::new(
            "N002",
            rel_path,
            s.line + 1,
            s.col + 1,
            format!(
                "naive `{}` reduction — error grows with input magnitude spread",
                s.pat
            ),
            "long reductions (Hessian rows, NLL sums, means over a layer) lose the small \
             terms; sum through `aptq_tensor::stats::kahan_sum` / `KahanSum`, or annotate \
             with `// audit:allow(accum): <reason>` when terms are few and bounded",
            "replace with `aptq_tensor::stats::kahan_sum`",
        ));
    }
}

/// N003 — `a / n` or `a /= n` where `n` is a bare identifier with no
/// guard mentioning it anywhere in the same function body.
fn rule_n003_unguarded_division(file: &FileIndex, item: &Item, findings: &mut Vec<Finding>) {
    let f = &file.scanned;
    let (lo, hi) = item.body;
    for idx in lo..=hi.min(f.lines.len().saturating_sub(1)) {
        if f.lines[idx].in_test {
            continue;
        }
        for (col, ident) in division_idents(&f.lines[idx].code) {
            if f.allowed(idx, "div") || ident_guarded(f, item.body, &ident) {
                continue;
            }
            findings.push(Finding::new(
                "N003",
                &file.rel_path,
                idx + 1,
                col + 1,
                format!(
                    "division by `{ident}` with no guard on it in `{}`",
                    item.name
                ),
                format!(
                    "nothing in this function bounds `{ident}` away from zero; add an \
                     assert/clamp/branch on it, or annotate with \
                     `// audit:allow(div): <why {ident} is nonzero>`"
                ),
                format!("guard with `assert!({ident} > 0.0)` or `.max(EPS)`"),
            ));
        }
    }
}

/// N004 — `.exp()` / `.ln()` / `.sqrt()` whose input is not visibly
/// clamped (same line) or guarded (same function, for ident receivers).
fn rule_n004_unclamped_transcendentals(file: &FileIndex, item: &Item, findings: &mut Vec<Finding>) {
    const CLAMPED: &[&str] = &["clamp", ".max(", ".min(", ".abs("];
    let f = &file.scanned;
    let (lo, hi) = item.body;
    for idx in lo..=hi.min(f.lines.len().saturating_sub(1)) {
        if f.lines[idx].in_test {
            continue;
        }
        let code = &f.lines[idx].code;
        if CLAMPED.iter().any(|c| code.contains(c)) {
            continue;
        }
        for pat in [".exp()", ".ln()", ".sqrt()"] {
            for col in word_occurrences(code, pat) {
                if f.allowed(idx, "range") {
                    continue;
                }
                // An identifier receiver guarded elsewhere in the fn is
                // considered range-checked.
                if let Some(recv) = ident_receiver(code, col) {
                    if ident_guarded(f, item.body, &recv) {
                        continue;
                    }
                }
                findings.push(Finding::new(
                    "N004",
                    &file.rel_path,
                    idx + 1,
                    col + 1,
                    format!(
                        "`{}` on an unclamped input in `{}`",
                        pat.trim_start_matches('.').trim_end_matches("()"),
                        item.name
                    ),
                    "`exp` overflows past ~88 (f32), `ln`/`sqrt` return NaN below zero — and a \
                     NaN here silently poisons every downstream score; clamp the operand \
                     (`.max`, `.min`, `clamp`) or annotate with \
                     `// audit:allow(range): <why the input is bounded>`",
                    "clamp the operand before the call",
                ));
            }
        }
    }
}

/// `a / n` and `a /= n` sites whose denominator is a bare identifier:
/// returns `(column, identifier)`. Calls, paths, fields, indexing, and
/// literals are out of scope — the rule targets the shape where a plain
/// count/norm variable divides, which is where the zero-denominator
/// bugs in this workspace have lived.
fn division_idents(code: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for i in 0..chars.len() {
        if chars[i] != '/' {
            continue;
        }
        // Not a comment remnant or closing-generic artifact.
        if matches!(chars.get(i + 1), Some('/') | Some('*')) {
            continue;
        }
        if i > 0 && matches!(chars[i - 1], '/' | '*' | '<') {
            continue;
        }
        let mut j = i + 1;
        if chars.get(j) == Some(&'=') {
            j += 1;
        }
        while j < chars.len() && chars[j] == ' ' {
            j += 1;
        }
        let Some(&c0) = chars.get(j) else { continue };
        if !(c0.is_alphabetic() || c0 == '_') {
            continue;
        }
        let mut k = j;
        while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
            k += 1;
        }
        if matches!(
            chars.get(k),
            Some('(') | Some(':') | Some('.') | Some('[') | Some('!')
        ) {
            continue;
        }
        let ident: String = chars[j..k].iter().collect();
        if ident == "self" {
            continue;
        }
        out.push((i, ident));
    }
    out
}

/// True when some line of the function body mentions `ident` (word
/// boundary) on a line that also carries a guard-shaped token.
fn ident_guarded(f: &ScannedFile, body: (usize, usize), ident: &str) -> bool {
    let (lo, hi) = body;
    for j in lo..=hi.min(f.lines.len().saturating_sub(1)) {
        let code = &f.lines[j].code;
        if word_occurrences(code, ident).is_empty() {
            continue;
        }
        if GUARD_TOKENS.iter().any(|t| code.contains(t)) {
            return true;
        }
    }
    false
}

/// The simple identifier receiver of a method call at `col` (the column
/// of the leading `.`), if the receiver is a bare identifier.
fn ident_receiver(code: &str, col: usize) -> Option<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut s = col;
    while s > 0 {
        let p = chars[s - 1];
        if p.is_alphanumeric() || p == '_' {
            s -= 1;
        } else {
            break;
        }
    }
    if s == col {
        return None;
    }
    // Reject field/path/call receivers: the char before the identifier
    // must not extend the expression.
    if s > 0 && matches!(chars[s - 1], '.' | ':' | ')' | ']') {
        return None;
    }
    let ident: String = chars[s..col].iter().collect();
    if ident
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        Some(ident)
    } else {
        None
    }
}

/// Columns of `==` / `!=` operators with a float literal on either
/// side. Composite operators (`<=`, `>=`, `===`-like) are excluded.
fn float_eq_cols(code: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < chars.len() {
        let is_op = (chars[i] == '=' || chars[i] == '!') && chars[i + 1] == '=';
        let clean = is_op
            && chars.get(i + 2) != Some(&'=')
            && (i == 0
                || !matches!(
                    chars[i - 1],
                    '<' | '>' | '=' | '!' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
                ));
        if clean {
            let left = token_before(&chars, i);
            let right = token_after(&chars, i + 2);
            if float_literal(&left) || float_literal(&right) {
                out.push(i);
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

fn is_token_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | ':')
}

fn token_before(chars: &[char], op: usize) -> String {
    let mut e = op;
    while e > 0 && chars[e - 1] == ' ' {
        e -= 1;
    }
    let mut s = e;
    while s > 0 && is_token_char(chars[s - 1]) {
        s -= 1;
    }
    chars[s..e].iter().collect()
}

fn token_after(chars: &[char], mut s: usize) -> String {
    while s < chars.len() && chars[s] == ' ' {
        s += 1;
    }
    let mut e = s;
    if chars.get(e) == Some(&'-') {
        e += 1;
    }
    while e < chars.len() && is_token_char(chars[e]) {
        e += 1;
    }
    chars[s..e].iter().collect()
}

/// True for f32/f64 literal tokens (`0.0`, `1.5f32`, `-2.0_f64`) and
/// float-typed constants (`f32::NAN`).
fn float_literal(tok: &str) -> bool {
    let t = tok.strip_prefix('-').unwrap_or(tok);
    if t.starts_with("f32::") || t.starts_with("f64::") {
        return true;
    }
    let t = t
        .strip_suffix("_f32")
        .or_else(|| t.strip_suffix("_f64"))
        .or_else(|| t.strip_suffix("f32"))
        .or_else(|| t.strip_suffix("f64"))
        .unwrap_or(t);
    t.contains('.') && t.parse::<f64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit_sources;

    fn check(rel: &str, src: &str) -> Vec<Finding> {
        audit_sources(&[(rel.to_string(), src.to_string())])
    }

    #[test]
    fn n001_fires_on_float_literal_equality() {
        let f = check(
            "crates/core/src/x.rs",
            "fn f(x: f32) -> bool {\n    x == 0.0\n}\n",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "N001").count(), 1, "{f:?}");
        let g = check(
            "crates/core/src/x.rs",
            "fn f(x: f32) -> bool {\n    // audit:allow(fpeq): sparsity sentinel, never computed\n    x == 0.0\n}\n",
        );
        assert!(g.iter().all(|f| f.rule != "N001"), "{g:?}");
    }

    #[test]
    fn n001_ignores_int_equality_asserts_and_composites() {
        for src in [
            "fn f(x: usize) -> bool { x == 0 }\n",
            "fn f(x: f32) -> bool { x <= 0.0 }\n",
            "fn f(x: f32) -> bool { x >= 1.0 }\n",
            "fn f(x: f32) { assert_eq!(x, 0.0); }\n",
        ] {
            let f = check("crates/core/src/x.rs", src);
            assert!(f.iter().all(|f| f.rule != "N001"), "{src}: {f:?}");
        }
    }

    #[test]
    fn n001_catches_negative_and_suffixed_literals() {
        for src in [
            "fn f(x: f32) -> bool { x != -1.0 }\n",
            "fn f(x: f32) -> bool { 0.5f32 == x }\n",
            "fn f(x: f32) -> bool { x == f32::INFINITY }\n",
        ] {
            let f = check("crates/core/src/x.rs", src);
            assert_eq!(f.iter().filter(|f| f.rule == "N001").count(), 1, "{src}");
        }
    }

    #[test]
    fn n002_fires_in_numeric_crates_only() {
        let src =
            "fn f(xs: &[f32]) -> f64 {\n    xs.iter().map(|&x| f64::from(x)).sum::<f64>()\n}\n";
        let f = check("crates/core/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "N002").count(), 1, "{f:?}");
        let g = check("crates/lm/src/x.rs", src);
        assert!(g.iter().all(|f| f.rule != "N002"), "{g:?}");
        let h = check(
            "crates/core/src/x.rs",
            "fn f(xs: &[f32]) -> f64 {\n    // audit:allow(accum): at most 4 bounded terms\n    xs.iter().map(|&x| f64::from(x)).sum::<f64>()\n}\n",
        );
        assert!(h.iter().all(|f| f.rule != "N002"), "{h:?}");
    }

    #[test]
    fn n003_fires_without_guard_and_clears_with_one() {
        let f = check(
            "crates/core/src/x.rs",
            "fn f(a: f32, n: f32) -> f32 {\n    a / n\n}\n",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "N003").count(), 1, "{f:?}");
        let g = check(
            "crates/core/src/x.rs",
            "fn f(a: f32, n: f32) -> f32 {\n    assert!(n > 0.0, \"n\");\n    a / n\n}\n",
        );
        assert!(g.iter().all(|f| f.rule != "N003"), "{g:?}");
        let h = check(
            "crates/core/src/x.rs",
            "fn f(a: f32, n: f32) -> f32 {\n    // audit:allow(div): n is a validated group size\n    a / n\n}\n",
        );
        assert!(h.iter().all(|f| f.rule != "N003"), "{h:?}");
    }

    #[test]
    fn n003_skips_calls_literals_and_fields() {
        for src in [
            "fn f(a: f64, n: usize) -> f64 { a / usize_f64(n) }\n",
            "fn f(a: f32) -> f32 { a / 2.0 }\n",
            "fn f(a: f32, s: S) -> f32 { a / s.count }\n",
        ] {
            let f = check("crates/core/src/x.rs", src);
            assert!(f.iter().all(|f| f.rule != "N003"), "{src}: {f:?}");
        }
    }

    #[test]
    fn n004_fires_on_bare_exp_and_clears_on_clamp() {
        let f = check(
            "crates/eval/src/x.rs",
            "fn f(x: f32) -> f32 {\n    x.exp()\n}\n",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "N004").count(), 1, "{f:?}");
        let g = check(
            "crates/eval/src/x.rs",
            "fn f(x: f32) -> f32 {\n    x.min(80.0).exp()\n}\n",
        );
        assert!(g.iter().all(|f| f.rule != "N004"), "{g:?}");
        let h = check(
            "crates/eval/src/x.rs",
            "fn f(x: f32) -> f32 {\n    // audit:allow(range): mean NLL of a finite corpus\n    x.exp()\n}\n",
        );
        assert!(h.iter().all(|f| f.rule != "N004"), "{h:?}");
    }

    #[test]
    fn n004_scope_is_core_and_eval() {
        let src = "fn f(x: f32) -> f32 {\n    x.sqrt()\n}\n";
        let f = check("crates/tensor/src/x.rs", src);
        assert!(f.iter().all(|f| f.rule != "N004"), "{f:?}");
    }

    #[test]
    fn n004_ident_receiver_guarded_elsewhere_is_exempt() {
        let src = "fn f(x: f32) -> f32 {\n    assert!(x >= 0.0, \"x\");\n    x.sqrt()\n}\n";
        let f = check("crates/eval/src/x.rs", src);
        assert!(f.iter().all(|f| f.rule != "N004"), "{f:?}");
    }
}
