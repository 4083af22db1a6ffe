//! Call-graph effect inference — the engine behind D006, H001–H004 and
//! the contract rules E001–E004 (scopes and allow kinds in
//! [`crate::rules::CATALOG`]).
//!
//! 1. **Leaf facts.** A non-test library function's own effects are
//!    the live sites of the site table ([`crate::sites`]) inside its
//!    body, over the lattice `{Alloc, Panic, EnvRead, ThreadSpawn,
//!    WallClock, Io, GlobalMut, FloatAccum}`. Sanctioned scopes carry
//!    no effect (env reads in the config module, spawns in
//!    `aptq_tensor::parallel`, clock reads in `crates/bench` /
//!    `src/bin`), and neither does a site under its rule's
//!    `// audit:allow(...)` annotation: an allow is a reviewed
//!    exemption, so it suppresses both the finding *and* the effect bit.
//! 2. **Closure.** Effects propagate callee → caller with
//!    [`crate::reach::propagate`], the same by-name fixpoint that
//!    computes D006's reachability to `aptq_tensor::parallel`. A
//!    `# Panics`-documented callee does not propagate `Panic` (the doc
//!    turns the panic into a precondition the caller accepted), and
//!    every function reaching `aptq_tensor::parallel` infers
//!    `ThreadSpawn`.
//! 3. **Queries.** D006 reads [`EffectAnalysis::reaches_parallel`], the
//!    H-rules read the hot-path roots, ownership map and [`leaf_sites`],
//!    and E001–E003 compare *declared* contracts against *inferred*
//!    effects.
//!
//! The manifest ([`render_manifest`]) records the inferred effect set
//! of every public library function, BTreeMap-ordered and line-oriented
//! so diffs review like a ledger. CI regenerates it and byte-compares
//! against the committed copy (E004): any PR that changes the effect
//! signature of a public fn must update the manifest in the same diff.

use std::collections::BTreeMap;
use std::ops::BitOr;

use crate::determinism::PARALLEL_MODULE_PATH;
use crate::index::{FileIndex, FnId, Item, SymbolIndex};
use crate::reach;
use crate::rules::{in_lib_src, PANIC_FREE_CRATES};
use crate::sites::{Kind, Site, PARALLEL_MODULE_FILE};
use crate::{field, json_str, string_field, Finding};

/// One effect in the lattice. The discriminant doubles as the bit
/// position inside [`EffectSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    Alloc,
    Panic,
    EnvRead,
    ThreadSpawn,
    WallClock,
    Io,
    GlobalMut,
    FloatAccum,
}

impl Effect {
    /// Every effect, in manifest order.
    pub const ALL: [Effect; 8] = [
        Effect::Alloc,
        Effect::Panic,
        Effect::EnvRead,
        Effect::ThreadSpawn,
        Effect::WallClock,
        Effect::Io,
        Effect::GlobalMut,
        Effect::FloatAccum,
    ];

    /// The manifest / message name of the effect.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Alloc => "Alloc",
            Effect::Panic => "Panic",
            Effect::EnvRead => "EnvRead",
            Effect::ThreadSpawn => "ThreadSpawn",
            Effect::WallClock => "WallClock",
            Effect::Io => "Io",
            Effect::GlobalMut => "GlobalMut",
            Effect::FloatAccum => "FloatAccum",
        }
    }

    /// The effect a site of `kind` carries, if any.
    fn of(kind: Kind) -> Option<Effect> {
        match kind {
            Kind::Alloc => Some(Effect::Alloc),
            Kind::Panic => Some(Effect::Panic),
            Kind::Io => Some(Effect::Io),
            Kind::Env => Some(Effect::EnvRead),
            Kind::Thread => Some(Effect::ThreadSpawn),
            Kind::Clock => Some(Effect::WallClock),
            Kind::Global => Some(Effect::GlobalMut),
            Kind::Accum => Some(Effect::FloatAccum),
            Kind::Hash | Kind::Unsafe => None,
        }
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// A set of [`Effect`]s, packed into one byte; `|` is the union.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffectSet(u8);

impl EffectSet {
    pub const EMPTY: EffectSet = EffectSet(0);

    pub fn insert(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    pub fn remove(&mut self, e: Effect) {
        self.0 &= !e.bit();
    }

    pub fn contains(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Member names in [`Effect::ALL`] order.
    pub fn names(self) -> Vec<&'static str> {
        Effect::ALL
            .iter()
            .filter(|&&e| self.contains(e))
            .map(|&e| e.name())
            .collect()
    }

    /// `"Alloc|Panic"`-style label for diagnostics.
    pub fn label(self) -> String {
        self.names().join("|")
    }
}

impl BitOr for EffectSet {
    type Output = EffectSet;

    fn bitor(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }
}

/// True for the functions the engine infers effects for: non-test
/// functions in library source.
fn is_lib_fn(file: &FileIndex, item: &Item) -> bool {
    !item.in_test && in_lib_src(&file.rel_path)
}

/// The leaf effect sites of one function: the live, effect-bearing
/// sites of the table inside its body, in table order. Empty for
/// anything but a non-test library function.
pub fn leaf_sites<'a>(file: &'a FileIndex, item: &Item) -> impl Iterator<Item = &'a Site> {
    let body = if is_lib_fn(file, item) {
        file.sites_in(item.body.0, item.body.1)
    } else {
        &[]
    };
    body.iter()
        .filter(|s| s.live(&file.rel_path) && Effect::of(s.kind).is_some())
}

/// The computed effect analysis for one workspace index.
pub struct EffectAnalysis {
    /// Per `(file, item)`: the function's own effects closed over its
    /// callees to the fixpoint.
    pub inferred: Vec<Vec<EffectSet>>,
    /// Per `(file, item)`: whether the body transitively reaches
    /// `aptq_tensor::parallel` (D006).
    pub reaches_parallel: Vec<Vec<bool>>,
    /// `# HotPath`-documented non-test library functions, in
    /// (path, line) order for deterministic attribution.
    pub hot_roots: Vec<FnId>,
    /// First hot root (in `hot_roots` order) reaching each member of
    /// any hot closure.
    pub hot_owner: BTreeMap<FnId, FnId>,
}

impl EffectAnalysis {
    /// Runs the full inference over a workspace index: leaf sites, the
    /// parallel-reachability and effect fixpoints, and the hot-path
    /// forward closures.
    pub fn compute(index: &SymbolIndex) -> EffectAnalysis {
        let local: Vec<Vec<EffectSet>> = index
            .files()
            .iter()
            .map(|file| {
                file.items
                    .iter()
                    .map(|item| {
                        let mut set = EffectSet::EMPTY;
                        let effects = leaf_sites(file, item)
                            .filter(|s| !s.assert_family())
                            .filter_map(|s| Effect::of(s.kind));
                        effects.for_each(|e| set.insert(e));
                        set
                    })
                    .collect()
            })
            .collect();

        // D006's reachability: seeded by everything *defined in* the
        // parallel module and by call sites that name it (directly or
        // through a `use` import), then closed over every by-name edge.
        let seeds = index
            .files()
            .iter()
            .map(|file| {
                let in_module = file.rel_path == PARALLEL_MODULE_FILE;
                file.items
                    .iter()
                    .map(|item| in_module || item.calls.iter().any(|c| names_parallel(file, c)))
                    .collect()
            })
            .collect();
        let reaches_parallel = reach::propagate(index, seeds, |_, _, _, reaches| Some(reaches));

        // Hot-path roots and first-root-wins ownership.
        let mut hot_roots: Vec<FnId> = index
            .fns()
            .filter(|&(id, it)| it.has_hotpath_doc && is_lib_fn(index.file(id), it))
            .map(|(id, _)| id)
            .collect();
        hot_roots.sort_by(|&a, &b| {
            (&index.file(a).rel_path, index.item(a).line)
                .cmp(&(&index.file(b).rel_path, index.item(b).line))
        });
        let mut hot_owner: BTreeMap<FnId, FnId> = BTreeMap::new();
        for &root in &hot_roots {
            let closure = reach::reachable_from(index, &[root]);
            for (id, _) in index.fns() {
                if closure[id.0][id.1] {
                    hot_owner.entry(id).or_insert(root);
                }
            }
        }

        // Callee → caller effects. Test definitions and non-library
        // definitions never contribute: an integration-test helper
        // sharing a name with a library fn must not leak its effects
        // into the library's signature.
        let lib = |id: FnId| is_lib_fn(index.file(id), index.item(id));
        let mut inferred = reach::propagate(index, local, |caller, call, callee, mut set| {
            if !lib(caller) || !lib(callee) || !reach::may_resolve_in_workspace(call) {
                return None;
            }
            if index.item(callee).has_panics_doc {
                set.remove(Effect::Panic);
            }
            Some(set)
        });

        // Reaching `aptq_tensor::parallel` *is* spawning threads.
        for (id, _) in index.fns() {
            if lib(id) && reaches_parallel[id.0][id.1] {
                inferred[id.0][id.1].insert(Effect::ThreadSpawn);
            }
        }

        EffectAnalysis {
            inferred,
            reaches_parallel,
            hot_roots,
            hot_owner,
        }
    }
}

/// True when `call` names `aptq_tensor::parallel`, written out or
/// through a `use` import of the module or of the called item.
fn names_parallel(file: &FileIndex, call: &crate::index::Call) -> bool {
    let call_path = call.path.as_str();
    if call_path.contains(PARALLEL_MODULE_PATH) {
        return true;
    }
    let first = call_path.split("::").next().unwrap_or(call_path);
    file.imports
        .get(first)
        .or_else(|| file.imports.get(call_path))
        .is_some_and(|full| full.contains(PARALLEL_MODULE_PATH))
}

/// E001–E003: declared contracts checked against inferred effects.
/// All three clear with `// audit:allow(effect): <reason>` on the
/// declaration line (or the comment-only line above).
pub(crate) fn check(index: &SymbolIndex, analysis: &EffectAnalysis) -> Vec<Finding> {
    let mut findings = Vec::new();

    // E001 — a `# HotPath` root whose closure allocates. H001 flags the
    // individual sites; this flags the broken *contract* at the root.
    for &id in &analysis.hot_roots {
        let item = index.item(id);
        let file = index.file(id);
        if !analysis.inferred[id.0][id.1].contains(Effect::Alloc)
            || file.scanned.allowed(item.line, "effect")
        {
            continue;
        }
        findings.push(Finding::new(
            "E001",
            &file.rel_path,
            item.line + 1,
            1,
            format!(
                "hot-path root `{}` declares `# HotPath` but infers effect `Alloc`",
                item.name
            ),
            "the transitive closure of this root contains allocation sites (H001 lists \
             them); hoist the allocations into caller-owned scratch, or annotate the root \
             with `// audit:allow(effect): <reason>`",
            "make the closure allocation-free, then re-run the audit",
        ));
    }

    for (id, item) in index.fns() {
        let file = index.file(id);
        let rel_path = file.rel_path.as_str();
        if !is_lib_fn(file, item) {
            continue;
        }
        let inferred = analysis.inferred[id.0][id.1];

        // E002 — a `# Determinism` contract contradicted by inferred
        // environment or wall-clock dependence.
        if item.has_determinism_doc {
            let mut bad = EffectSet::EMPTY;
            for e in [Effect::EnvRead, Effect::WallClock] {
                if inferred.contains(e) {
                    bad.insert(e);
                }
            }
            if !bad.is_empty() && !file.scanned.allowed(item.line, "effect") {
                findings.push(Finding::new(
                    "E002",
                    rel_path,
                    item.line + 1,
                    1,
                    format!(
                        "function `{}` documents `# Determinism` but infers effect `{}`",
                        item.name,
                        bad.label()
                    ),
                    "a determinism contract cannot coexist with ambient environment or \
                     wall-clock reads; inject the value from the caller, or annotate with \
                     `// audit:allow(effect): <reason>`",
                    "take the configuration/timestamp as a parameter",
                ));
            }
        }

        // E003 — a public API in a panic-free crate silently gaining
        // `Panic` (transitively — beyond A003's own-body view).
        if item.is_pub
            && !item.has_panics_doc
            && PANIC_FREE_CRATES.iter().any(|p| rel_path.starts_with(p))
            && inferred.contains(Effect::Panic)
            && !file.scanned.allowed(item.line, "effect")
        {
            findings.push(Finding::new(
                "E003",
                rel_path,
                item.line + 1,
                1,
                format!(
                    "public function `{}` infers effect `Panic` but its doc comment has no \
                     `# Panics` section",
                    item.name
                ),
                "a panic-free-crate API that can transitively panic must say so; document \
                 the precondition in a `# Panics` section, make the callee infallible, or \
                 annotate with `// audit:allow(effect): <reason>`",
                "add a `/// # Panics` doc section",
            ));
        }
    }
    findings
}

/// Manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// The workspace-relative path the committed manifest lives at.
pub const MANIFEST_PATH: &str = "results/effects.json";

/// Builds the per-function effect manifest: every public, non-test
/// library function (binary entry points under `src/bin` excluded),
/// keyed `(path, fn name)` — duplicate keys (same-named methods in two
/// impl blocks) union-merge their effects. BTreeMap order makes the
/// output deterministic; the line-oriented layout diffs like a ledger.
pub fn render_manifest(index: &SymbolIndex, analysis: &EffectAnalysis) -> String {
    let mut map: BTreeMap<(String, String), EffectSet> = BTreeMap::new();
    for (id, item) in index.fns() {
        let rel_path = &index.file(id).rel_path;
        if !in_lib_src(rel_path) || rel_path.contains("/src/bin/") || !item.is_pub || item.in_test {
            continue;
        }
        let entry = map
            .entry((rel_path.clone(), item.name.clone()))
            .or_insert(EffectSet::EMPTY);
        *entry = *entry | analysis.inferred[id.0][id.1];
    }
    let mut out = format!("{{\"version\":{MANIFEST_VERSION},\"fns\":[\n");
    let total = map.len();
    for (i, ((path, name), set)) in map.iter().enumerate() {
        let effects: Vec<String> = set.names().iter().map(|n| json_str(n)).collect();
        out.push_str(&format!(
            "{{\"path\":{},\"fn\":{},\"effects\":[{}]}}{}\n",
            json_str(path),
            json_str(name),
            effects.join(","),
            if i + 1 < total { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

/// Parses a manifest produced by [`render_manifest`] into
/// `(path, fn) → effect names`. Line-oriented: one entry object per
/// line, fields extracted by key.
pub fn parse_manifest(text: &str) -> Result<BTreeMap<(String, String), Vec<String>>, String> {
    let head = text.lines().next().unwrap_or("");
    let version = field(head, "version").and_then(|v| v.parse::<u32>().ok());
    if version != Some(MANIFEST_VERSION) {
        return Err(format!(
            "effects manifest version mismatch: expected {MANIFEST_VERSION}, file header is \
             `{head}` (regenerate with --effects-out)"
        ));
    }
    let mut map = BTreeMap::new();
    for line in text.lines().skip(1) {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "]}" {
            continue;
        }
        let path = string_field(line, "path")
            .ok_or_else(|| format!("manifest entry missing `path`: {line}"))?;
        let name = string_field(line, "fn")
            .ok_or_else(|| format!("manifest entry missing `fn`: {line}"))?;
        let effects_at = line
            .find("\"effects\":[")
            .ok_or_else(|| format!("manifest entry missing `effects`: {line}"))?;
        let rest = &line[effects_at + "\"effects\":[".len()..];
        let end = rest
            .find(']')
            .ok_or_else(|| format!("unterminated `effects` array: {line}"))?;
        let effects: Vec<String> = rest[..end]
            .split(',')
            .map(|s| s.trim().trim_matches('"').to_string())
            .filter(|s| !s.is_empty())
            .collect();
        map.insert((path, name), effects);
    }
    Ok(map)
}

/// E004: diffs the committed manifest text against the freshly rendered
/// one. Every divergence — a new fn, a removed fn, a changed effect
/// set — is one finding, so the failure names exactly what moved.
pub fn diff_manifests(committed: &str, current: &str) -> Vec<Finding> {
    let finding = |message: String| {
        Finding::new(
            "E004",
            MANIFEST_PATH,
            1,
            1,
            message,
            "the committed effects manifest must match the inferred effect signatures; \
             regenerate it and review the diff — an unexpected effect change is the bug, not \
             the manifest",
            "run `cargo run -p aptq-audit -- --effects-out results/effects.json` and \
             commit the result",
        )
    };
    let committed = match parse_manifest(committed) {
        Ok(m) => m,
        Err(e) => return vec![finding(format!("unreadable committed manifest: {e}"))],
    };
    let current = match parse_manifest(current) {
        Ok(m) => m,
        Err(e) => return vec![finding(format!("unreadable inferred manifest: {e}"))],
    };
    let mut findings = Vec::new();
    for ((path, name), effects) in &current {
        match committed.get(&(path.clone(), name.clone())) {
            None => findings.push(finding(format!(
                "effects manifest drift: `{path}` fn `{name}` (infers [{}]) is missing from the \
                 committed manifest",
                effects.join(", ")
            ))),
            Some(old) if old != effects => findings.push(finding(format!(
                "effects manifest drift: `{path}` fn `{name}` now infers [{}] but the committed \
                 manifest records [{}]",
                effects.join(", "),
                old.join(", ")
            ))),
            Some(_) => {}
        }
    }
    for (path, name) in committed.keys() {
        if !current.contains_key(&(path.clone(), name.clone())) {
            findings.push(finding(format!(
                "effects manifest drift: `{path}` fn `{name}` is in the committed manifest but \
                 no longer exists in the workspace"
            )));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit_one;

    fn build(sources: &[(&str, &str)]) -> SymbolIndex {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
            .collect();
        SymbolIndex::build(&owned)
    }

    fn inferred_of(index: &SymbolIndex, analysis: &EffectAnalysis, name: &str) -> EffectSet {
        let (id, _) = index
            .fns()
            .find(|(_, it)| it.name == name)
            .expect("fn present");
        analysis.inferred[id.0][id.1]
    }

    #[test]
    fn leaf_effects_are_seeded_and_propagate_to_callers() {
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn api() {\n    helper();\n}\nfn helper() {\n    let mut v = Vec::new();\n    v.push(1);\n    x.unwrap();\n}\n",
        )]);
        let a = EffectAnalysis::compute(&idx);
        let api = inferred_of(&idx, &a, "api");
        assert!(api.contains(Effect::Alloc));
        assert!(api.contains(Effect::Panic));
        assert!(!api.contains(Effect::Io));
        assert_eq!(api.label(), "Alloc|Panic");
    }

    #[test]
    fn allow_annotations_suppress_the_effect_bit() {
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn api() {\n    // audit:allow(alloc): one-time setup\n    let v = Vec::new();\n}\n",
        )]);
        let a = EffectAnalysis::compute(&idx);
        assert!(inferred_of(&idx, &a, "api").is_empty());
    }

    #[test]
    fn panics_doc_masks_propagation_but_not_the_local_bit() {
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn api() {\n    checked();\n}\n/// # Panics\n/// When x is None.\npub fn checked() {\n    x.unwrap();\n}\n",
        )]);
        let a = EffectAnalysis::compute(&idx);
        assert!(inferred_of(&idx, &a, "checked").contains(Effect::Panic));
        assert!(!inferred_of(&idx, &a, "api").contains(Effect::Panic));
    }

    #[test]
    fn assert_macros_do_not_set_the_panic_bit_but_are_sites() {
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn api(n: usize) {\n    assert!(n > 0);\n}\n",
        )]);
        let a = EffectAnalysis::compute(&idx);
        assert!(!inferred_of(&idx, &a, "api").contains(Effect::Panic));
        let (id, item) = idx.fns().next().expect("one fn");
        let sites: Vec<&Site> = leaf_sites(idx.file(id), item).collect();
        assert_eq!(sites.len(), 1);
        assert!(sites[0].assert_family());
    }

    #[test]
    fn sanctioned_scopes_carry_no_leaf_effects() {
        let idx = build(&[
            (
                "crates/tensor/src/parallel.rs",
                "pub fn thread_count() -> usize {\n    std::env::var(\"APTQ_THREADS\");\n    std::thread::scope(|s| {});\n    1\n}\n",
            ),
            (
                "crates/bench/src/bin/b.rs",
                "pub fn timed() {\n    let t = std::time::Instant::now();\n}\n",
            ),
        ]);
        let a = EffectAnalysis::compute(&idx);
        let tc = inferred_of(&idx, &a, "thread_count");
        assert!(!tc.contains(Effect::EnvRead));
        // Defined *in* the parallel module: the D006 seed still marks it.
        assert!(tc.contains(Effect::ThreadSpawn));
        assert!(!inferred_of(&idx, &a, "timed").contains(Effect::WallClock));
    }

    #[test]
    fn reaching_parallel_infers_thread_spawn() {
        let idx = build(&[
            (
                "crates/tensor/src/parallel.rs",
                "pub fn run_indexed(n: usize) -> usize { n }\n",
            ),
            (
                "crates/core/src/x.rs",
                "pub fn api() -> usize {\n    aptq_tensor::parallel::run_indexed(3)\n}\n",
            ),
        ]);
        let a = EffectAnalysis::compute(&idx);
        assert!(inferred_of(&idx, &a, "api").contains(Effect::ThreadSpawn));
        let (id, _) = idx.fns().find(|(_, it)| it.name == "api").unwrap();
        assert!(a.reaches_parallel[id.0][id.1]);
    }

    #[test]
    fn test_and_non_library_defs_do_not_contribute() {
        let idx = build(&[
            (
                "crates/core/src/x.rs",
                "pub fn api() {\n    shared();\n}\nfn shared() {}\n#[cfg(test)]\nmod tests {\n    fn shared() { panic!(\"boom\"); }\n}\n",
            ),
            (
                "crates/core/tests/helpers.rs",
                "pub fn shared() {\n    let v = Vec::new();\n}\n",
            ),
        ]);
        let a = EffectAnalysis::compute(&idx);
        assert!(inferred_of(&idx, &a, "api").is_empty());
    }

    #[test]
    fn e001_fires_on_allocating_hot_root_and_clears_with_allow() {
        let src = "/// # HotPath\n/// budget: zero.\npub fn forward() {\n    helper();\n}\nfn helper() {\n    let v = Vec::new();\n}\n";
        let f = audit_one("crates/core/src/x.rs", src, "E001");
        assert_eq!(f.len(), 1, "{f:?}");
        let annotated = src.replace(
            "pub fn forward() {",
            "// audit:allow(effect): closure audited by hand\npub fn forward() {",
        );
        let g = audit_one("crates/core/src/x.rs", &annotated, "E001");
        assert!(g.is_empty(), "{g:?}");
    }

    #[test]
    fn e002_fires_on_env_read_behind_determinism_doc() {
        let src = "/// # Determinism\n/// Bit-identical.\npub fn api() -> Option<String> {\n    std::env::var(\"X\").ok()\n}\n";
        let f = audit_one("crates/core/src/x.rs", src, "E002");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("EnvRead"), "{f:?}");
    }

    #[test]
    fn e003_fires_on_transitive_panic_without_doc() {
        let src = "pub fn api() {\n    helper();\n}\nfn helper() {\n    x.unwrap();\n}\n";
        let f = audit_one("crates/core/src/x.rs", src, "E003");
        assert_eq!(f.len(), 1, "{f:?}");
        // Outside the panic-free crates the rule stays silent.
        assert!(audit_one("crates/lm/src/x.rs", src, "E003").is_empty());
    }

    #[test]
    fn manifest_roundtrips_and_diffs_cleanly() {
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn api() {\n    let v = Vec::new();\n}\nfn private() {}\n",
        )]);
        let a = EffectAnalysis::compute(&idx);
        let doc = render_manifest(&idx, &a);
        let parsed = parse_manifest(&doc).expect("manifest parses");
        assert_eq!(parsed.len(), 1, "private fns are not manifest entries");
        assert_eq!(
            parsed
                .get(&("crates/core/src/x.rs".to_string(), "api".to_string()))
                .map(Vec::as_slice),
            Some(&["Alloc".to_string()][..])
        );
        assert!(diff_manifests(&doc, &doc).is_empty());
    }

    #[test]
    fn e004_fires_once_per_drifted_entry() {
        let idx = build(&[(
            "crates/core/src/x.rs",
            "pub fn api() {\n    let v = Vec::new();\n}\n",
        )]);
        let a = EffectAnalysis::compute(&idx);
        let current = render_manifest(&idx, &a);
        let stale = current.replace("[\"Alloc\"]", "[]");
        let f = diff_manifests(&stale, &current);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "E004");
        assert!(f[0].message.contains("now infers [Alloc]"), "{f:?}");
        // Regenerating the manifest clears the drift.
        assert!(diff_manifests(&current, &current).is_empty());
    }

    #[test]
    fn manifest_is_byte_stable_across_runs() {
        let sources = [
            (
                "crates/core/src/b.rs",
                "pub fn beta() {\n    x.unwrap();\n}\n",
            ),
            ("crates/core/src/a.rs", "pub fn alpha() {}\n"),
        ];
        let idx = build(&sources);
        let a1 = EffectAnalysis::compute(&idx);
        let a2 = EffectAnalysis::compute(&idx);
        assert_eq!(render_manifest(&idx, &a1), render_manifest(&idx, &a2));
        // Sorted by path regardless of input order.
        let doc = render_manifest(&idx, &a1);
        let a_pos = doc.find("alpha").unwrap();
        let b_pos = doc.find("beta").unwrap();
        assert!(a_pos < b_pos);
    }
}
