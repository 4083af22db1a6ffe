//! Call-graph closure over the [`crate::index::SymbolIndex`]: one
//! backward fixpoint and one forward closure.
//!
//! - [`propagate`] — *backward*: each function joins in the values of
//!   the functions it calls, until nothing changes. With `bool` values
//!   seeded at `aptq_tensor::parallel` it is D006's reachability; with
//!   effect sets seeded by the site table it is the effect inference
//!   ([`crate::effects`]). Only the seeds and the edge filter differ.
//! - [`reachable_from`] — *forward*: the transitive callee closure of a
//!   set of roots, which the H-rules walk from every `# HotPath`
//!   function.
//!
//! Both directions resolve call edges by terminal name (a call to
//! `forward` links to *every* indexed `fn forward`): false edges are
//! possible, but a missed edge is not, and the `// audit:allow` escape
//! hatch absorbs the noise. Calls whose path qualifier names a std/core
//! type or module (`Vec::new`, `f64::from`, `std::mem::take`) can never
//! land on a workspace definition; `may_resolve_in_workspace` lets the
//! forward closure and the effect inference drop them, so every
//! workspace `fn new`/`fn from` is not dragged into every closure.

use std::ops::BitOr;

use crate::index::{Call, FnId, SymbolIndex};

/// First path segments that always denote std/core items, never a
/// workspace definition. A call qualified by one of these is resolved
/// by the standard library, so it contributes no workspace call edge.
const STD_QUALIFIERS: &[&str] = &[
    "std", "core", "alloc", "Vec", "VecDeque", "String", "Box", "Rc", "Arc", "Cell", "RefCell",
    "Mutex", "RwLock", "Condvar", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Option", "Some",
    "None", "Result", "Ok", "Err", "Ordering", "PathBuf", "Path", "OsString", "CString",
    "Duration", "Instant", "Default", "Iterator", "bool", "char", "str", "f32", "f64", "i8", "i16",
    "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
];

/// Whether a call site can resolve to a workspace definition at all.
pub(crate) fn may_resolve_in_workspace(call: &Call) -> bool {
    match call.path.split("::").next() {
        Some(first) if first != call.name => !STD_QUALIFIERS.contains(&first),
        _ => true,
    }
}

/// Backward fixpoint over by-name call edges, from the per-item values
/// `init`: every function joins (`|`) into its own value what `edge`
/// contributes for each definition its calls name, until nothing
/// changes. `edge(caller, call, callee, callee value)` returns `None`
/// to drop the edge. The join is monotone, so the result is the least
/// fixpoint above `init` whatever the iteration order.
pub fn propagate<T>(
    index: &SymbolIndex,
    init: Vec<Vec<T>>,
    edge: impl Fn(FnId, &Call, FnId, T) -> Option<T>,
) -> Vec<Vec<T>>
where
    T: Copy + PartialEq + BitOr<Output = T>,
{
    let by_name = index.fns_by_name();
    let mut value = init;
    loop {
        let mut changed = false;
        for (id, item) in index.fns() {
            let mut acc = value[id.0][id.1];
            for call in &item.calls {
                for &def in by_name.get(call.name.as_str()).into_iter().flatten() {
                    if let Some(v) = edge(id, call, def, value[def.0][def.1]) {
                        acc = acc | v;
                    }
                }
            }
            if acc != value[id.0][id.1] {
                value[id.0][id.1] = acc;
                changed = true;
            }
        }
        if !changed {
            return value;
        }
    }
}

/// Forward closure: every function reachable from `roots` over by-name
/// call edges, roots included.
///
/// Test-only definitions are never entered: a production call edge that
/// happens to share a name with a `#[cfg(test)]` helper must not drag
/// test code into a hot-path closure.
pub fn reachable_from(index: &SymbolIndex, roots: &[FnId]) -> Vec<Vec<bool>> {
    let by_name = index.fns_by_name();
    let mut marked: Vec<Vec<bool>> = index
        .files()
        .iter()
        .map(|f| vec![false; f.items.len()])
        .collect();
    let mut work: Vec<FnId> = Vec::new();
    for &id in roots {
        if !marked[id.0][id.1] {
            marked[id.0][id.1] = true;
            work.push(id);
        }
    }
    while let Some(id) = work.pop() {
        for call in &index.item(id).calls {
            if !may_resolve_in_workspace(call) {
                continue;
            }
            let Some(defs) = by_name.get(call.name.as_str()) else {
                continue;
            };
            for &(fi, ii) in defs {
                if index.files()[fi].items[ii].in_test || marked[fi][ii] {
                    continue;
                }
                marked[fi][ii] = true;
                work.push((fi, ii));
            }
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(sources: &[(&str, &str)]) -> SymbolIndex {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
            .collect();
        SymbolIndex::build(&owned)
    }

    fn fn_id(index: &SymbolIndex, name: &str) -> FnId {
        index
            .fns()
            .find(|(_, it)| it.name == name)
            .map(|(id, _)| id)
            .expect("fn present")
    }

    #[test]
    fn backward_reaches_through_helper_chain() {
        let idx = build(&[
            ("crates/tensor/src/parallel.rs", "pub fn run_indexed(n: usize) -> usize { n }\n"),
            (
                "crates/core/src/x.rs",
                "pub fn api() -> usize {\n    helper()\n}\nfn helper() -> usize {\n    aptq_tensor::parallel::run_indexed(3)\n}\nfn unrelated() -> usize { 0 }\n",
            ),
        ]);
        let init = idx
            .files()
            .iter()
            .map(|f| {
                let seed = f.rel_path == "crates/tensor/src/parallel.rs";
                f.items
                    .iter()
                    .map(|it| {
                        seed || it
                            .calls
                            .iter()
                            .any(|c| c.path.contains("aptq_tensor::parallel"))
                    })
                    .collect()
            })
            .collect();
        let r = propagate(&idx, init, |_, _, _, reaches| Some(reaches));
        let api = fn_id(&idx, "api");
        let unrelated = fn_id(&idx, "unrelated");
        assert!(r[api.0][api.1]);
        assert!(!r[unrelated.0][unrelated.1]);
    }

    #[test]
    fn forward_closure_covers_transitive_callees_only() {
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn root() {\n    mid();\n}\nfn mid() {\n    leaf();\n}\nfn leaf() {}\nfn island() {}\n",
        )]);
        let r = reachable_from(&idx, &[fn_id(&idx, "root")]);
        for name in ["root", "mid", "leaf"] {
            let id = fn_id(&idx, name);
            assert!(r[id.0][id.1], "{name} should be in the closure");
        }
        let island = fn_id(&idx, "island");
        assert!(!r[island.0][island.1]);
    }

    #[test]
    fn forward_closure_skips_test_definitions() {
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn root() {\n    shared();\n}\nfn shared() {}\n#[cfg(test)]\nmod tests {\n    fn shared() { super::nested_test_only(); }\n    fn nested_test_only() {}\n}\n",
        )]);
        let r = reachable_from(&idx, &[fn_id(&idx, "root")]);
        let in_closure: Vec<&str> = idx
            .fns()
            .filter(|(id, _)| r[id.0][id.1])
            .map(|(_, it)| it.name.as_str())
            .collect();
        assert_eq!(in_closure, vec!["root", "shared"]);
    }

    #[test]
    fn forward_closure_ignores_std_qualified_calls() {
        // `Vec::new()` shares a terminal name with the workspace
        // `Pool::new`, but the std qualifier proves it never lands
        // there; the bare `helper()` edge still resolves.
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn root() {\n    let v: Vec<u8> = Vec::new();\n    let _ = f64::from(1u8);\n    helper();\n}\nfn helper() {}\npub struct Pool;\nimpl Pool {\n    pub fn new() -> Self { Pool }\n    pub fn from(_x: u8) -> Self { Pool }\n}\n",
        )]);
        let r = reachable_from(&idx, &[fn_id(&idx, "root")]);
        let in_closure: Vec<&str> = idx
            .fns()
            .filter(|(id, _)| r[id.0][id.1])
            .map(|(_, it)| it.name.as_str())
            .collect();
        assert_eq!(in_closure, vec!["root", "helper"]);
    }
}
