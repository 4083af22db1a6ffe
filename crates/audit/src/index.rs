//! Lightweight workspace symbol index.
//!
//! The call-graph rules (D006, E001–E003, H001–H004) and A003 need more
//! context than a single line: a function's body, its doc sections and
//! the functions it calls. This module builds that context with the
//! same philosophy as [`crate::scan`] — a lexer-grade pass, no external
//! parser:
//!
//! - every `fn` item per file, with declaration line, visibility, `#[cfg(test)]` state, body span, and the doc sections
//!   (`# Determinism`, `# HotPath`, `# Panics`) above it;
//! - the file's site table ([`crate::sites`]);
//! - every `use` import, resolved to an alias → full-path map;
//! - every call-site occurrence inside a function body (free calls,
//!   path-qualified calls, and method calls by terminal name).
//!
//! [`SymbolIndex::build`] consumes in-memory `(path, source)` pairs so
//! tests can index synthetic workspaces without touching the
//! filesystem; [`crate::audit_workspace`] feeds it the real tree.

use std::collections::BTreeMap;

use crate::scan::{scan, ScannedFile};
use crate::sites::{self, Site};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// The path text as written (`helper`, `parallel::run_indexed`,
    /// `aptq_tensor::parallel::thread_count`, …). Method calls carry
    /// just the method name.
    pub path: String,
    /// Terminal path segment — the name the call resolves by.
    pub name: String,
    /// 0-based line of the call site.
    pub line: usize,
}

/// One indexed function.
#[derive(Debug, Clone)]
pub struct Item {
    pub name: String,
    /// 0-based declaration line.
    pub line: usize,
    /// `pub` without a visibility restriction.
    pub is_pub: bool,
    /// Declared inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// 0-based inclusive body span (decl line through the closing
    /// brace, or through the `;` of a body-less declaration).
    pub body: (usize, usize),
    /// The doc block above contains a `# Determinism` section.
    pub has_determinism_doc: bool,
    /// The doc block above contains a `# HotPath` section — the root
    /// marker for the H-rules (see [`crate::hotpath`]).
    pub has_hotpath_doc: bool,
    /// The doc block also states an allocation budget (mentions
    /// "budget"/"Budget"), per H004.
    pub hotpath_budget: bool,
    /// The doc block above contains a `# Panics` section (documented
    /// preconditions exempt asserts from H002).
    pub has_panics_doc: bool,
    /// Call sites inside the body.
    pub calls: Vec<Call>,
}

/// Everything indexed for one source file.
#[derive(Debug, Clone)]
pub struct FileIndex {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Best-effort Rust module path (`aptq_core::methods`), empty when
    /// the file is not under `crates/<name>/src/`.
    pub module: String,
    /// The lexical scan the items were derived from.
    pub scanned: ScannedFile,
    /// Every pattern hit in the file, in [`sites::extract`] order.
    pub sites: Vec<Site>,
    /// The file's functions, in declaration order.
    pub items: Vec<Item>,
    /// `use` imports: visible alias (terminal segment or `as` name) →
    /// full imported path.
    pub imports: BTreeMap<String, String>,
}

/// The workspace-wide index.
#[derive(Debug, Clone)]
pub struct SymbolIndex {
    files: Vec<FileIndex>,
}

/// Identifies a function item inside a [`SymbolIndex`]: `(file index,
/// item index)`.
pub type FnId = (usize, usize);

impl SymbolIndex {
    /// Indexes a set of in-memory sources. `rel_path`s must use forward
    /// slashes; order is preserved.
    pub fn build(sources: &[(String, String)]) -> SymbolIndex {
        let files = sources
            .iter()
            .map(|(rel, source)| index_file(rel, source))
            .collect();
        SymbolIndex { files }
    }

    /// Indexed files, in input order.
    pub fn files(&self) -> &[FileIndex] {
        &self.files
    }

    /// All function items, as `(FnId, &Item)`.
    pub fn fns(&self) -> impl Iterator<Item = (FnId, &Item)> {
        self.files.iter().enumerate().flat_map(|(fi, file)| {
            file.items
                .iter()
                .enumerate()
                .map(move |(ii, it)| ((fi, ii), it))
        })
    }

    /// Map from function name to every function item defining it.
    pub fn fns_by_name(&self) -> BTreeMap<&str, Vec<FnId>> {
        let mut map: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, item) in self.fns() {
            map.entry(item.name.as_str()).or_default().push(id);
        }
        map
    }

    /// The item for a [`FnId`].
    pub fn item(&self, id: FnId) -> &Item {
        &self.files[id.0].items[id.1]
    }

    /// The file containing a [`FnId`].
    pub fn file(&self, id: FnId) -> &FileIndex {
        &self.files[id.0]
    }
}

impl FileIndex {
    /// The sites on 0-based lines `lo..=hi` (the table is line-major).
    pub fn sites_in(&self, lo: usize, hi: usize) -> &[Site] {
        let start = self.sites.partition_point(|s| s.line < lo);
        let end = self.sites.partition_point(|s| s.line <= hi);
        &self.sites[start..end.max(start)]
    }
}

/// Visibility modifiers that may precede `fn` on a declaration line.
fn is_modifier_token(tok: &str) -> bool {
    matches!(
        tok,
        "pub" | "const" | "async" | "unsafe" | "default" | "extern"
    ) || tok.starts_with("pub(")
        || tok.starts_with('"') // the ABI string of `extern "C"`
}

fn index_file(rel_path: &str, source: &str) -> FileIndex {
    let scanned = scan(source);
    let imports = collect_imports(&scanned);
    let mut items = Vec::new();

    let n = scanned.lines.len();
    let mut idx = 0usize;
    while idx < n {
        let code = scanned.lines[idx].code.trim_start().to_string();
        if let Some(name) = decl_name(&code) {
            let (body, calls) = fn_body(&scanned, idx, &name);
            items.push(Item {
                name,
                line: idx,
                is_pub: code.starts_with("pub fn ")
                    || code.starts_with("pub const fn ")
                    || code.starts_with("pub async fn ")
                    || code.starts_with("pub unsafe fn "),
                in_test: scanned.lines[idx].in_test,
                body,
                has_determinism_doc: doc_block_contains(&scanned, idx, "# Determinism"),
                has_hotpath_doc: doc_block_contains(&scanned, idx, "# HotPath"),
                hotpath_budget: doc_block_contains(&scanned, idx, "budget")
                    || doc_block_contains(&scanned, idx, "Budget"),
                has_panics_doc: doc_block_contains(&scanned, idx, "# Panics"),
                calls,
            });
            idx = body.1.max(idx) + 1;
            continue;
        }
        idx += 1;
    }

    FileIndex {
        rel_path: rel_path.to_string(),
        module: module_path(rel_path),
        sites: sites::extract(&scanned),
        scanned,
        items,
        imports,
    }
}

/// If `code` (already trimmed) declares a function, returns its name.
fn decl_name(code: &str) -> Option<String> {
    let at = code.find("fn ")?;
    // Everything before the keyword must be modifier tokens (which also
    // rules out `fn ` inside an identifier like `safe_fn x`).
    if !code[..at].split_whitespace().all(is_modifier_token) {
        return None;
    }
    // A raw identifier (`fn r#match`) names the same symbol as its
    // unprefixed spelling — strip the sigil so call edges resolve.
    let after = code[at + "fn ".len()..].trim_start();
    let after = after.strip_prefix("r#").unwrap_or(after);
    let name: String = after
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// True if the doc-comment block immediately above `decl_line`
/// (skipping attribute lines like `#[inline]`) contains `needle`. The
/// scanner routes `/// ...` text into each line's *comment* field, so
/// that is where doc sections live.
fn doc_block_contains(f: &ScannedFile, decl_line: usize, needle: &str) -> bool {
    let mut j = decl_line;
    while j > 0 {
        j -= 1;
        let l = &f.lines[j];
        let code = l.code.trim();
        let is_comment_only = code.is_empty() && !l.comment.is_empty();
        if is_comment_only {
            if l.comment.contains(needle) {
                return true;
            }
            continue;
        }
        if code.starts_with("#[") || code.starts_with("#![") || code.is_empty() {
            continue;
        }
        break;
    }
    false
}

/// Walks a function's body from its declaration line: returns the
/// 0-based inclusive line span and the call sites found inside it.
fn fn_body(f: &ScannedFile, fn_line: usize, fn_name: &str) -> ((usize, usize), Vec<Call>) {
    let n = f.lines.len();
    let mut depth = 0i64;
    let mut body_open = false;
    let mut calls = Vec::new();
    let mut j = fn_line;
    while j < n {
        let code = &f.lines[j].code;
        // A declaration ending in ';' before any '{' has no body
        // (trait method signatures).
        if !body_open && code.contains(';') && !code.contains('{') {
            return ((fn_line, j), calls);
        }
        for call in line_calls(code, j) {
            // The declaration's own `fn name(` is not a call site.
            if j == fn_line && call.name == fn_name {
                continue;
            }
            calls.push(call);
        }
        for ch in code.chars() {
            if ch == '{' {
                depth += 1;
                body_open = true;
            } else if ch == '}' {
                depth -= 1;
                if body_open && depth == 0 {
                    return ((fn_line, j), calls);
                }
            }
        }
        j += 1;
    }
    ((fn_line, n.saturating_sub(1)), calls)
}

/// Extracts call-like occurrences from one line of code text:
/// an identifier (optionally path-qualified) immediately followed by
/// `(`. Macros (`name!(`) and declarations are excluded by the caller.
fn line_calls(code: &str, line: usize) -> Vec<Call> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '(' && i > 0 {
            let prev = chars[i - 1];
            if prev.is_alphanumeric() || prev == '_' {
                // Walk the identifier back.
                let mut start = i;
                while start > 0 {
                    let p = chars[start - 1];
                    if p.is_alphanumeric() || p == '_' {
                        start -= 1;
                    } else {
                        break;
                    }
                }
                let name: String = chars[start..i].iter().collect();
                // Extend backwards over `::`-joined path segments.
                let mut path_start = start;
                while path_start >= 2
                    && chars[path_start - 1] == ':'
                    && chars[path_start - 2] == ':'
                {
                    let mut s = path_start - 2;
                    while s > 0 {
                        let p = chars[s - 1];
                        if p.is_alphanumeric() || p == '_' {
                            s -= 1;
                        } else {
                            break;
                        }
                    }
                    if s == path_start - 2 {
                        break;
                    }
                    path_start = s;
                }
                let path: String = chars[path_start..i].iter().collect();
                // A raw identifier (`r#match(`) is a call to the
                // keyword-spelled symbol, never keyword syntax.
                let raw =
                    path_start >= 2 && chars[path_start - 1] == '#' && chars[path_start - 2] == 'r';
                let keyword = !raw
                    && matches!(
                        name.as_str(),
                        "if" | "while" | "for" | "match" | "return" | "fn" | "loop" | "in" | "as"
                    );
                let is_decl = {
                    let before: String = chars[..path_start].iter().collect();
                    before.trim_end().ends_with("fn")
                };
                if !keyword && !is_decl && !name.chars().next().is_some_and(|c| c.is_numeric()) {
                    out.push(Call { path, name, line });
                }
            }
        }
        i += 1;
    }
    out
}

/// Collects `use` imports into an alias → full-path map. Handles plain
/// paths, `as` renames, and one level of `{...}` groups — the forms this
/// workspace uses.
fn collect_imports(f: &ScannedFile) -> BTreeMap<String, String> {
    let mut imports = BTreeMap::new();
    let mut pending = String::new();
    for line in &f.lines {
        let code = line.code.trim();
        let stmt = if pending.is_empty() {
            if !(code.starts_with("use ") || code.starts_with("pub use ")) {
                continue;
            }
            code.trim_start_matches("pub ")
                .trim_start_matches("use ")
                .to_string()
        } else {
            format!("{pending} {code}")
        };
        if !stmt.contains(';') {
            // Multi-line use statement: accumulate.
            pending = stmt;
            continue;
        }
        pending = String::new();
        let stmt = stmt.trim_end_matches(';').trim();
        if let Some(open) = stmt.find('{') {
            let prefix = stmt[..open].trim_end_matches("::").trim();
            let inner = stmt[open + 1..].trim_end_matches('}');
            for entry in inner.split(',') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                record_import(&mut imports, &format!("{prefix}::{entry}"));
            }
        } else {
            record_import(&mut imports, stmt);
        }
    }
    imports
}

fn record_import(imports: &mut BTreeMap<String, String>, entry: &str) {
    let (path, alias) = match entry.split_once(" as ") {
        Some((p, a)) => (p.trim(), a.trim()),
        None => {
            let p = entry.trim();
            let last = p.rsplit("::").next().unwrap_or(p);
            (p, last)
        }
    };
    if alias == "*" || alias == "self" || alias.is_empty() {
        return;
    }
    imports.insert(alias.to_string(), path.to_string());
}

/// Best-effort module path for a workspace-relative file path:
/// `crates/core/src/methods/mod.rs` → `aptq_core::methods`.
fn module_path(rel_path: &str) -> String {
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return String::new();
    };
    let Some((crate_dir, in_crate)) = rest.split_once('/') else {
        return String::new();
    };
    let Some(in_src) = in_crate.strip_prefix("src/") else {
        return String::new();
    };
    let krate = format!("aptq_{crate_dir}");
    let mut parts: Vec<&str> = in_src.trim_end_matches(".rs").split('/').collect();
    match parts.last().copied() {
        Some("mod") | Some("lib") | Some("main") => {
            parts.pop();
        }
        _ => {}
    }
    if parts.is_empty() {
        krate
    } else {
        format!("{krate}::{}", parts.join("::"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_one(rel: &str, src: &str) -> SymbolIndex {
        SymbolIndex::build(&[(rel.to_string(), src.to_string())])
    }

    #[test]
    fn indexes_fns_with_visibility_and_span() {
        let idx = build_one(
            "crates/core/src/x.rs",
            "pub fn outer(x: u32) -> u32 {\n    helper(x)\n}\n\nfn helper(x: u32) -> u32 {\n    x + 1\n}\n",
        );
        let fns: Vec<_> = idx.fns().collect();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].1.name, "outer");
        assert!(fns[0].1.is_pub);
        assert_eq!(fns[0].1.body, (0, 2));
        assert_eq!(fns[0].1.calls.len(), 1);
        assert_eq!(fns[0].1.calls[0].name, "helper");
        assert!(!fns[1].1.is_pub);
    }

    #[test]
    fn decl_is_not_its_own_call_site() {
        let idx = build_one("crates/core/src/x.rs", "fn f(x: u32) -> u32 { x }\n");
        let (_, item) = idx.fns().next().expect("one fn");
        assert!(item.calls.is_empty(), "{:?}", item.calls);
    }

    #[test]
    fn qualified_calls_keep_their_path() {
        let idx = build_one(
            "crates/core/src/x.rs",
            "fn f() {\n    aptq_tensor::parallel::thread_count();\n    parallel::run_indexed(1, 1, |i| i);\n}\n",
        );
        let (_, item) = idx.fns().next().expect("one fn");
        let paths: Vec<&str> = item.calls.iter().map(|c| c.path.as_str()).collect();
        assert!(paths.contains(&"aptq_tensor::parallel::thread_count"));
        assert!(paths.contains(&"parallel::run_indexed"));
    }

    #[test]
    fn macros_are_not_calls() {
        let idx = build_one(
            "crates/core/src/x.rs",
            "fn f() {\n    println!(\"x\");\n    assert_eq!(1, 1);\n}\n",
        );
        let (_, item) = idx.fns().next().expect("one fn");
        assert!(item.calls.is_empty(), "{:?}", item.calls);
    }

    #[test]
    fn imports_resolve_groups_and_renames() {
        let idx = build_one(
            "crates/core/src/x.rs",
            "use aptq_tensor::parallel::{run_indexed, thread_count as tc};\nuse std::collections::BTreeMap;\n",
        );
        let file = &idx.files()[0];
        assert_eq!(
            file.imports.get("run_indexed").map(String::as_str),
            Some("aptq_tensor::parallel::run_indexed")
        );
        assert_eq!(
            file.imports.get("tc").map(String::as_str),
            Some("aptq_tensor::parallel::thread_count")
        );
        assert_eq!(
            file.imports.get("BTreeMap").map(String::as_str),
            Some("std::collections::BTreeMap")
        );
    }

    #[test]
    fn determinism_doc_is_detected_above_attributes() {
        let idx = build_one(
            "crates/core/src/x.rs",
            "/// Does things.\n///\n/// # Determinism\n/// Bit-identical.\n#[inline]\npub fn f() {}\n\npub fn g() {}\n",
        );
        let fns: Vec<_> = idx.fns().collect();
        assert!(fns[0].1.has_determinism_doc);
        assert!(!fns[1].1.has_determinism_doc);
    }

    #[test]
    fn methods_and_module_paths_are_recorded() {
        let idx = build_one(
            "crates/core/src/methods/mod.rs",
            "pub struct Thing {\n    x: u32,\n}\n\nimpl Thing {\n    pub fn new() -> Thing {\n        Thing { x: 0 }\n    }\n}\n",
        );
        let file = &idx.files()[0];
        assert_eq!(file.module, "aptq_core::methods");
        let names: Vec<&str> = file.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["new"]);
        assert_eq!(file.items[0].line, 5);
    }

    #[test]
    fn test_region_items_are_marked() {
        let idx = build_one(
            "crates/core/src/x.rs",
            "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::lib(); }\n}\n",
        );
        let fns: Vec<_> = idx.fns().collect();
        assert!(!fns[0].1.in_test);
        assert!(fns[1].1.in_test);
    }
}
