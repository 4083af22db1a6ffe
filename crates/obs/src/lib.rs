//! # aptq-obs
//!
//! Deterministic observability for the APTQ reproduction: named
//! counters with hierarchical scopes (`quant/obq/layers_solved`,
//! `decode/kv_bytes_moved`, …), byte/FLOP accounting, and a JSON
//! snapshot the bench binaries archive under `results/telemetry.json`.
//!
//! ## Design constraints (the determinism contract)
//!
//! The workspace's headline guarantee is bit-identical results at any
//! thread count, enforced by the aptq-audit rules D001–D006. A metrics
//! layer is only admissible if it cannot weaken that guarantee:
//!
//! * **No global state** (D005). There is no registry, no `static`
//!   sink, no `thread_local`: a [`Recorder`] is a plain value the
//!   caller owns and threads through the code it wants observed —
//!   exactly like `QuantSession` threads its caches.
//! * **No wall clock** (D004). The signals are deterministic *work
//!   units* — matmul FLOPs, unpacked codes, cache bytes, tokens — which
//!   are identical across runs and thread counts. The crate reads no
//!   clock; timing belongs to bench binaries.
//! * **Deterministic serialization** (D003). Counters live in a
//!   `BTreeMap`, so iteration, [`Recorder::to_json`] output and
//!   [`Recorder::merge`] results are byte-identical across runs.
//!
//! ## Scope naming
//!
//! Scopes are `/`-separated paths of `[a-z0-9_]` segments, grouped by
//! subsystem: `quant/…` (session + OBQ scheduler), `eval/…`
//! (perplexity, zero-shot), `decode/…` (KV-cache decoding) and
//! `qmodel/…` (packed-storage inference). See `DESIGN.md` for the
//! registry of counter names the bench binaries assert on.
//!
//! ## Example
//!
//! ```
//! use aptq_obs::Recorder;
//!
//! let mut rec = Recorder::new();
//! rec.incr("quant/session/capture_passes");
//! rec.add("decode/kv_bytes_moved", 4096);
//! rec.add("decode/kv_bytes_moved", 4096);
//! assert_eq!(rec.get("decode/kv_bytes_moved"), 8192);
//!
//! let mut scoped = rec.scoped("qmodel/qlinear");
//! scoped.add("groups_unpacked", 3);
//! assert_eq!(rec.get("qmodel/qlinear/groups_unpacked"), 3);
//! assert!(rec.to_json().contains("\"decode/kv_bytes_moved\": 8192"));
//! ```

pub mod recorder;
pub mod scope;

pub use recorder::{Recorder, ScopedRecorder};
