//! Golden snapshots of the symbol index over lexer edge cases.
//!
//! The lexer-grade index is the foundation every cross-file rule stands
//! on; a mis-tokenized declaration silently drops a function from the
//! call graph and with it every D/E/H finding downstream. Each test
//! here feeds the indexer a source exercising one tricky construct —
//! raw strings, raw identifiers, nested generics, multi-line `where`
//! clauses — and pins the *entire* extracted symbol table as a golden
//! string, so any drift in what the lexer sees is a visible diff, not a
//! silently changed call graph.

use aptq_audit::index::SymbolIndex;

/// Renders the full symbol table of a single-file index as one line per
/// function: `fn name @decl-line pub|priv [callee, ...]`.
fn snapshot(source: &str) -> String {
    let idx = SymbolIndex::build(&[("crates/core/src/x.rs".to_string(), source.to_string())]);
    let file = &idx.files()[0];
    let mut out = String::new();
    for item in &file.items {
        let vis = if item.is_pub { "pub" } else { "priv" };
        let calls: Vec<&str> = item.calls.iter().map(|c| c.name.as_str()).collect();
        out.push_str(&format!(
            "fn {} @{} {vis} {:?}\n",
            item.name,
            item.line + 1,
            calls
        ));
    }
    out
}

#[test]
fn raw_strings_do_not_derail_the_scanner() {
    // The `"//"` and unbalanced braces inside the raw string must not
    // open comments or change brace depth: `after` must still be
    // indexed as a sibling of `logline`, with its call edge intact.
    let src = r####"pub fn logline() -> &'static str {
    let tpl = r#"{"msg": "// not a comment", "brace": "}{"}"#;
    tpl
}

pub fn after() {
    logline();
}
"####;
    assert_eq!(
        snapshot(src),
        "fn logline @1 pub []\n\
         fn after @6 pub [\"logline\"]\n"
    );
}

#[test]
fn raw_identifiers_index_under_their_unprefixed_name() {
    // `r#match` and `match` are the same symbol name to the call-graph;
    // the sigil is spelling, not identity.
    let src = "pub fn r#match(x: u32) -> u32 {\n    x\n}\n\npub fn caller() -> u32 {\n    r#match(1)\n}\n";
    assert_eq!(
        snapshot(src),
        "fn match @1 pub []\n\
         fn caller @5 pub [\"match\"]\n"
    );
}

#[test]
fn nested_generics_in_signatures_keep_the_name_and_body_span() {
    // Nested angle brackets (`Vec<Vec<Option<T>>>`) and a closure
    // argument must not confuse the declaration parser: both functions
    // index at their `fn` lines and the call edge survives. The `Fn(`
    // trait bound is recorded as a benign extra edge — it resolves to
    // no workspace definition, so it is noise the reachability passes
    // never follow; this snapshot pins that it stays benign.
    let src = "pub fn transpose<T: Clone>(m: Vec<Vec<Option<T>>>) -> Vec<Vec<Option<T>>> {\n    m\n}\n\nfn apply<F: Fn(Vec<Vec<Option<u32>>>) -> usize>(f: F) -> usize {\n    f(transpose(Vec::new()))\n}\n";
    assert_eq!(
        snapshot(src),
        "fn transpose @1 pub []\n\
         fn apply @5 priv [\"Fn\", \"f\", \"transpose\", \"new\"]\n"
    );
}

#[test]
fn multi_line_where_clauses_attach_the_body_to_the_decl() {
    // The body brace opens lines after the `fn` keyword; the item must
    // still anchor at the decl line and own the body's call edges.
    let src = "pub fn fold<I, T>(iter: I) -> Option<T>\nwhere\n    I: Iterator<Item = T>,\n    T: PartialOrd,\n{\n    helper(iter)\n}\n\nfn helper<I, T>(_: I) -> Option<T> {\n    None\n}\n";
    assert_eq!(
        snapshot(src),
        "fn fold @1 pub [\"helper\"]\n\
         fn helper @9 priv []\n"
    );
}

#[test]
fn doc_sections_survive_attributes_between_doc_and_decl() {
    let src = "/// Does things.\n///\n/// # Determinism\n///\n/// Bit-identical.\n#[inline]\npub fn f() {}\n";
    let idx = SymbolIndex::build(&[("crates/core/src/x.rs".to_string(), src.to_string())]);
    let item = &idx.files()[0].items[0];
    assert!(item.has_determinism_doc);
    assert_eq!(item.line + 1, 7);
}
