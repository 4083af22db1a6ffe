//! The site table: one pass over each scanned file records every
//! pattern hit that a rule or the effect engine reads.
//!
//! Each [`Site`] carries its [`Kind`], position, whether it sits in a
//! `#[cfg(test)]` region, and whether an `// audit:allow(<tag>)`
//! annotation for its kind suppresses it. The per-line rules (A001,
//! A004, D001–D005, N002), A003 and the effect engine's leaf facts are
//! all filters over this table, so each pattern list below is the only
//! one in the crate.

use crate::scan::{word_occurrences, ScannedFile};

/// The one file allowed to spawn threads and read thread configuration
/// from the environment.
pub const PARALLEL_MODULE_FILE: &str = "crates/tensor/src/parallel.rs";

/// Per-crate designated config modules: the only library files where
/// `std::env` reads are legal without an annotation.
pub const ENV_CONFIG_MODULES: &[&str] = &[PARALLEL_MODULE_FILE];

/// True for files exempt from the wall-clock/entropy rule: bench
/// binaries (the whole `crates/bench` tree) and `src/bin/` entry points
/// are allowed to time and report.
fn clock_exempt(rel_path: &str) -> bool {
    rel_path.starts_with("crates/bench/") || rel_path.contains("/src/bin/")
}

/// What a site is. The declaration order is the per-line extraction
/// order, which the H-rules' emission order follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Growth or copying: H001 and the `Alloc` effect. `Matrix::zeros`
    /// and `vec![...]` are deliberately absent: sized one-shot scratch
    /// is the documented budget mechanism.
    Alloc,
    /// `.unwrap()`, message-less `.expect(`, and the panic and assert
    /// macros: A001, A003, H002 and the `Panic` effect.
    Panic,
    /// Locks and I/O: H003 and the `Io` effect.
    Io,
    /// Environment reads: D002 and the `EnvRead` effect.
    Env,
    /// Thread spawns: D001 and the `ThreadSpawn` effect.
    Thread,
    /// Wall clock and entropy: D004 and the `WallClock` effect.
    Clock,
    /// `static mut`, interior-mutable `static`s and `thread_local!`:
    /// D005 and the `GlobalMut` effect.
    Global,
    /// Naive float reductions: N002 and the `FloatAccum` effect.
    Accum,
    /// Order-randomized collections: D003.
    Hash,
    /// The `unsafe` keyword: A004.
    Unsafe,
}

impl Kind {
    const ALL: [Kind; 10] = [
        Kind::Alloc,
        Kind::Panic,
        Kind::Io,
        Kind::Env,
        Kind::Thread,
        Kind::Clock,
        Kind::Global,
        Kind::Accum,
        Kind::Hash,
        Kind::Unsafe,
    ];

    /// The patterns that mark this kind. `Global` has its own matcher
    /// ([`static_global_col`]).
    fn patterns(self) -> &'static [&'static str] {
        match self {
            Kind::Alloc => &[
                "Vec::new(",
                "with_capacity(",
                ".push(",
                "vcat(",
                "to_vec(",
                ".clone()",
                "format!",
                "String::new(",
                "String::from(",
                "to_string(",
                ".to_owned(",
            ],
            Kind::Panic => &[
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
                "assert!",
                "assert_eq!",
                "assert_ne!",
            ],
            Kind::Io => &["Mutex", "RwLock", "std::io", "println!", "eprintln!"],
            Kind::Env => &["env::var"],
            Kind::Thread => &["thread::spawn", "thread::scope", "thread::Builder"],
            Kind::Clock => &[
                "Instant::now",
                "SystemTime",
                "thread_rng",
                "from_entropy",
                "random_seed",
            ],
            Kind::Global => &[],
            Kind::Accum => &[".sum::<f32>()", ".sum::<f64>()"],
            Kind::Hash => &["HashMap", "HashSet"],
            Kind::Unsafe => &["unsafe"],
        }
    }

    /// The `audit:allow(<tag>)` tag that suppresses this kind; `""` when
    /// nothing does.
    fn allow_tag(self) -> &'static str {
        match self {
            Kind::Alloc => "alloc",
            Kind::Panic => "panic",
            Kind::Io => "io",
            Kind::Env => "env",
            Kind::Thread => "thread",
            Kind::Clock => "nondet",
            Kind::Global => "global",
            Kind::Accum => "accum",
            Kind::Hash => "order",
            Kind::Unsafe => "",
        }
    }

    /// True when `rel_path` is this kind's sanctioned home, where no
    /// rule fires on it and it carries no effect: env reads in the
    /// config module, spawns in the parallel module, clock reads in
    /// bench and `src/bin` code.
    fn sanctioned_in(self, rel_path: &str) -> bool {
        match self {
            Kind::Env => ENV_CONFIG_MODULES.contains(&rel_path),
            Kind::Thread => rel_path == PARALLEL_MODULE_FILE,
            Kind::Clock => clock_exempt(rel_path),
            _ => false,
        }
    }
}

/// One pattern hit.
#[derive(Debug, Clone)]
pub struct Site {
    pub kind: Kind,
    /// The pattern that matched (`.unwrap()`, `Vec::new(`, `assert!`,
    /// `static` for globals).
    pub pat: &'static str,
    /// 0-based line.
    pub line: usize,
    /// 0-based char column.
    pub col: usize,
    /// The line sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// An `audit:allow` annotation for the kind covers the line.
    pub allowed: bool,
}

impl Site {
    /// An `assert!`-family macro. It feeds A003 and H002 but neither
    /// A001 nor the `Panic` effect bit: documented preconditions are not
    /// part of a function's effect signature the way an `unwrap` is.
    pub fn assert_family(&self) -> bool {
        self.kind == Kind::Panic && self.pat.starts_with("assert")
    }

    /// A site that counts against library code in `rel_path`: outside
    /// test code, not annotated, and not in its kind's sanctioned file.
    pub fn live(&self, rel_path: &str) -> bool {
        !self.in_test && !self.allowed && !self.kind.sanctioned_in(rel_path)
    }
}

/// Records every site of one scanned file, line-major; within a line in
/// [`Kind`] order, then pattern order, then column.
pub fn extract(f: &ScannedFile) -> Vec<Site> {
    let mut sites = Vec::new();
    for (idx, line) in f.lines.iter().enumerate() {
        for kind in Kind::ALL {
            let hits = hits(kind, &line.code);
            if hits.is_empty() {
                continue;
            }
            let tag = kind.allow_tag();
            let allowed = !tag.is_empty() && f.allowed(idx, tag);
            sites.extend(hits.into_iter().map(|(col, pat)| Site {
                kind,
                pat,
                line: idx,
                col,
                in_test: line.in_test,
                allowed,
            }));
        }
    }
    sites
}

/// `(column, pattern)` of every hit of `kind` on one line of code text.
fn hits(kind: Kind, code: &str) -> Vec<(usize, &'static str)> {
    if kind == Kind::Global {
        return static_global_col(code)
            .map(|col| (col, "static"))
            .into_iter()
            .collect();
    }
    let mut out = Vec::new();
    for &pat in kind.patterns() {
        for col in word_occurrences(code, pat) {
            let skip = match pat {
                ".expect(" => descriptive_expect(code, col),
                // `unsafe_code` (the lint name in attributes) is not the
                // keyword.
                "unsafe" => code
                    .chars()
                    .nth(col + pat.len())
                    .is_some_and(|c| c.is_alphanumeric() || c == '_'),
                _ => false,
            };
            if !skip {
                out.push((col, pat));
            }
        }
    }
    out
}

/// A `.expect("non-empty message")` is self-annotating: the message *is*
/// the reason. The scanner blanked string contents to spaces, so a
/// literal message shows up as `.expect("   ")` — quotes survive, text
/// doesn't.
fn descriptive_expect(code: &str, col: usize) -> bool {
    let after = &code[code
        .char_indices()
        .nth(col + ".expect(".len())
        .map_or(code.len(), |(b, _)| b)..];
    let trimmed = after.trim_start();
    trimmed.starts_with('"')
        && trimmed[1..]
            .chars()
            .take_while(|&c| c != '"')
            .any(|c| c == ' ')
        && trimmed[1..].contains('"')
}

/// Returns the column of a `static mut` / interior-mutable `static` /
/// `thread_local!` declaration on this line of code text, if any.
fn static_global_col(code: &str) -> Option<usize> {
    if let Some(col) = word_occurrences(code, "thread_local!").first() {
        return Some(*col);
    }
    let trimmed = code.trim_start();
    let lead = code.chars().count() - trimmed.chars().count();
    let at = trimmed.find("static ")?;
    // Must be a declaration: only modifiers before the keyword, which
    // also rules out `'static` lifetimes mid-expression.
    let prefix = &trimmed[..at];
    if !prefix
        .split_whitespace()
        .all(|t| t == "pub" || t.starts_with("pub("))
    {
        return None;
    }
    if prefix.trim_end().ends_with('\'') || prefix.contains('&') {
        return None;
    }
    let rest = &trimmed[at + "static ".len()..];
    const INTERIOR: &[&str] = &[
        "Mutex<",
        "RwLock<",
        "RefCell<",
        "Cell<",
        "UnsafeCell<",
        "OnceLock<",
        "OnceCell<",
        "LazyLock<",
        "LazyCell<",
        "AtomicBool",
        "AtomicU",
        "AtomicI",
        "AtomicPtr",
    ];
    if rest.trim_start().starts_with("mut ") || INTERIOR.iter().any(|t| rest.contains(t)) {
        Some(lead + at)
    } else {
        None
    }
}
