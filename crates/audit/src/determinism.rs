//! The determinism & concurrency rule set (D001–D006; scopes and allow
//! kinds in [`crate::rules::CATALOG`]).
//!
//! The reproduction's headline guarantee — bit-identical Table 1/2/3
//! numbers and decode at any thread count — rests on conventions these
//! rules enforce. D001–D005 are filters over the site table
//! ([`crate::sites`]); D006 reads the effect engine's backward
//! reachability ([`crate::effects::EffectAnalysis::reaches_parallel`]),
//! so a helper chain `pub api → private helper → parallel::run_indexed`
//! still flags the public entry point. A `# Determinism` doc section on
//! the function is D006's fix.

use crate::effects::EffectAnalysis;
use crate::index::SymbolIndex;
use crate::rules::in_lib_src;
use crate::sites::Kind;
use crate::Finding;

/// The module path D006 tracks reachability to.
pub const PARALLEL_MODULE_PATH: &str = "aptq_tensor::parallel";

/// Runs D001–D006.
pub(crate) fn check(index: &SymbolIndex, analysis: &EffectAnalysis) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in index.files() {
        let rel_path = file.rel_path.as_str();
        for s in &file.sites {
            let lib = in_lib_src(rel_path) && s.live(rel_path);
            let at = |rule, message: String, help: String, suggestion: String| {
                Finding::new(
                    rule,
                    rel_path,
                    s.line + 1,
                    s.col + 1,
                    message,
                    help,
                    suggestion,
                )
            };
            let pat = s.pat;
            findings.push(match s.kind {
                // D001 — thread spawns outside the choke point.
                Kind::Thread if lib => at(
                    "D001",
                    format!(
                        "`{pat}` outside `aptq_tensor::parallel` — the workspace's one \
                         concurrency choke point"
                    ),
                    "spawning threads elsewhere lets scheduling reach results; express the \
                     fan-out through the parallel module instead, or annotate with \
                     `// audit:allow(thread): <reason>`"
                        .into(),
                    "use `aptq_tensor::parallel::run_indexed` / `run_indexed_with` \
                     (index-ordered, bit-identical at any thread count)"
                        .into(),
                ),
                // D002 — env reads outside the designated config module.
                Kind::Env if lib => at(
                    "D002",
                    "`std::env::var` outside the designated config module".into(),
                    "scattered environment reads make runs irreproducible from the command \
                     line alone; resolve configuration once in `aptq_tensor::parallel` \
                     (thread knobs) or annotate with `// audit:allow(env): <reason>`"
                        .into(),
                    "take the value as a parameter, or read it via \
                     `aptq_tensor::parallel::thread_count()`"
                        .into(),
                ),
                // D003 — order-dependent collections in result-producing code.
                Kind::Hash if lib => {
                    let btree = if pat == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    at(
                        "D003",
                        format!(
                            "`{pat}` in result-producing library code — iteration order is \
                             randomized per process"
                        ),
                        format!(
                            "if any iteration over this collection can reach an output \
                             (serialization, reports, accumulation), two runs will differ; \
                             use `{btree}`, or annotate with `// audit:allow(order): <why \
                             iteration order cannot reach outputs>`"
                        ),
                        format!("replace `{pat}` with `{btree}`"),
                    )
                }
                // D004 — wall clock / entropy in library crates.
                Kind::Clock if lib => at(
                    "D004",
                    format!(
                        "`{pat}` in library code — wall clock / entropy cannot feed \
                         reproducible results"
                    ),
                    "library crates must be replayable from their inputs; inject timestamps \
                     or seeds from the caller (bench binaries under `crates/bench` and \
                     `src/bin` are exempt), or annotate with `// audit:allow(nondet): <reason>`"
                        .into(),
                    "accept a seed/timestamp parameter instead".into(),
                ),
                // D005 — mutable / interior-mutable globals, test code included.
                Kind::Global if rel_path.starts_with("crates/") && !s.allowed => at(
                    "D005",
                    "mutable or interior-mutable global state".into(),
                    "global state couples otherwise-independent calls and makes results \
                     depend on call ordering across threads; pass state explicitly \
                     (sessions, parameters), or annotate with \
                     `// audit:allow(global): <reason>` after review"
                        .into(),
                    "thread the state through a struct owned by the caller (see \
                     `QuantSession`)"
                        .into(),
                ),
                _ => continue,
            });
        }
    }

    // D006 — a non-test `pub fn` in library code whose body transitively
    // reaches `aptq_tensor::parallel` must document its determinism
    // contract in a `# Determinism` doc section.
    for (id, item) in index.fns() {
        let file = index.file(id);
        let rel_path = file.rel_path.as_str();
        if !in_lib_src(rel_path)
            || rel_path.contains("/src/bin/")
            || !item.is_pub
            || item.in_test
            || item.has_determinism_doc
            || !analysis.reaches_parallel[id.0][id.1]
            || file.scanned.allowed(item.line, "determinism")
        {
            continue;
        }
        findings.push(Finding::new(
            "D006",
            rel_path,
            item.line + 1,
            1,
            format!(
                "public function `{}` transitively reaches `{PARALLEL_MODULE_PATH}` but its doc \
                 comment has no `# Determinism` section",
                item.name
            ),
            "callers of parallel code need the thread-count contract in writing; state \
             whether results are bit-identical across thread counts and why, or annotate \
             with `// audit:allow(determinism): <reason>`",
            "add a `/// # Determinism` doc section",
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use crate::{audit_sources, Finding};

    fn check_one(rel: &str, src: &str) -> Vec<Finding> {
        audit_sources(&[(rel.to_string(), src.to_string())])
    }

    fn d006(sources: &[(String, String)]) -> Vec<Finding> {
        audit_sources(sources)
            .into_iter()
            .filter(|f| f.rule == "D006")
            .collect()
    }

    #[test]
    fn d001_fires_outside_parallel_module() {
        let f = check_one(
            "crates/core/src/x.rs",
            "fn f() {\n    std::thread::scope(|s| {});\n}\n",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "D001").count(), 1);
    }

    #[test]
    fn d001_is_silent_in_parallel_module_and_tests() {
        let f = check_one(
            "crates/tensor/src/parallel.rs",
            "fn f() {\n    std::thread::scope(|s| {});\n}\n",
        );
        assert!(f.iter().all(|f| f.rule != "D001"));
        let g = check_one(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n",
        );
        assert!(g.iter().all(|f| f.rule != "D001"));
    }

    #[test]
    fn d002_fires_and_respects_config_module() {
        let f = check_one(
            "crates/eval/src/x.rs",
            "fn f() -> Option<String> {\n    std::env::var(\"X\").ok()\n}\n",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "D002").count(), 1);
        let g = check_one(
            "crates/tensor/src/parallel.rs",
            "fn f() -> Option<String> {\n    std::env::var(\"X\").ok()\n}\n",
        );
        assert!(g.iter().all(|f| f.rule != "D002"));
    }

    #[test]
    fn d003_fires_on_hash_collections() {
        let f = check_one(
            "crates/textgen/src/x.rs",
            "use std::collections::HashMap;\nfn f() -> HashMap<String, u32> {\n    HashMap::new()\n}\n",
        );
        let d003: Vec<&Finding> = f.iter().filter(|f| f.rule == "D003").collect();
        assert_eq!(d003.len(), 3);
        assert!(d003[0].suggestion.contains("BTreeMap"));
    }

    #[test]
    fn d004_fires_in_lib_but_not_bench() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let f = check_one("crates/core/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "D004").count(), 1);
        assert!(check_one("crates/bench/src/bin/table1.rs", src)
            .iter()
            .all(|f| f.rule != "D004"));
        assert!(check_one("crates/cli/src/bin/tool.rs", src)
            .iter()
            .all(|f| f.rule != "D004"));
    }

    #[test]
    fn d005_fires_on_static_mut_and_interior_mutability() {
        for src in [
            "static mut COUNTER: u32 = 0;\n",
            "pub static CACHE: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n",
            "thread_local! { static TL: RefCell<u32> = RefCell::new(0); }\n",
        ] {
            let f = check_one("crates/core/src/x.rs", src);
            assert_eq!(f.iter().filter(|f| f.rule == "D005").count(), 1, "{src}");
        }
    }

    #[test]
    fn d005_ignores_immutable_statics_and_lifetimes() {
        for src in [
            "static NAMES: &[&str] = &[\"a\"];\n",
            "pub const X: u32 = 1;\n",
            "fn f(x: &'static str) -> &'static str { x }\n",
        ] {
            let f = check_one("crates/core/src/x.rs", src);
            assert!(f.iter().all(|f| f.rule != "D005"), "{src}: {f:?}");
        }
    }

    #[test]
    fn d006_flags_transitive_pub_reach() {
        let sources = vec![
            (
                "crates/tensor/src/parallel.rs".to_string(),
                "pub fn run_indexed(n: usize) -> usize { n }\n".to_string(),
            ),
            (
                "crates/core/src/x.rs".to_string(),
                "pub fn api() -> usize {\n    helper()\n}\n\nfn helper() -> usize {\n    aptq_tensor::parallel::run_indexed(3)\n}\n"
                    .to_string(),
            ),
        ];
        let f = d006(&sources);
        // `api` is flagged (pub, undocumented, transitive); `helper` is
        // private; `run_indexed` sits in the parallel module itself and
        // is flagged there too.
        assert!(
            f.iter()
                .any(|x| x.path == "crates/core/src/x.rs" && x.message.contains("`api`")),
            "{f:?}"
        );
        assert!(f.iter().all(|x| !x.message.contains("`helper`")));
    }

    #[test]
    fn d006_satisfied_by_determinism_doc() {
        let sources = vec![
            (
                "crates/tensor/src/parallel.rs".to_string(),
                "/// # Determinism\n/// Index-ordered.\npub fn run_indexed(n: usize) -> usize { n }\n"
                    .to_string(),
            ),
            (
                "crates/core/src/x.rs".to_string(),
                "/// Quantizes.\n///\n/// # Determinism\n/// Bit-identical at any thread count.\npub fn api() -> usize {\n    aptq_tensor::parallel::run_indexed(3)\n}\n"
                    .to_string(),
            ),
        ];
        let f = d006(&sources);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d006_resolves_use_imports() {
        let sources = vec![
            (
                "crates/tensor/src/parallel.rs".to_string(),
                "/// # Determinism\n/// ok.\npub fn thread_count() -> usize { 1 }\n".to_string(),
            ),
            (
                "crates/lm/src/x.rs".to_string(),
                "use aptq_tensor::parallel::thread_count;\n\npub fn api() -> usize {\n    thread_count()\n}\n"
                    .to_string(),
            ),
        ];
        let f = d006(&sources);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`api`"));
    }
}
