#!/usr/bin/env bash
# Workspace gate: formatting, lints, static audit, build, tests.
# Everything here must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

phase_t0=$SECONDS
phase() {
    if [ -n "${phase_name:-}" ]; then
        echo "    [timing] ${phase_name}: $((SECONDS - phase_t0))s"
    fi
    phase_name=$1
    phase_t0=$SECONDS
    echo "==> $1"
}

phase "cargo fmt --check"
cargo fmt --all --check

phase "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

phase "cargo doc (deny warnings)"
# Intra-doc links must resolve: a renamed or deleted item a doc comment
# still names fails here instead of rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

phase "aptq-audit (A+D+E+H+N+U rules, any finding fails)"
# Exits 1 on any finding. Findings print with their `= suggestion:` fix
# text; the full report and the inferred effects manifest are archived
# as artifacts. E004 inside the run diffs the committed
# results/effects.json against the tree, so a drifted manifest is itself
# a finding.
mkdir -p results
cargo run -q -p aptq-audit -- \
    --json-out results/audit.json \
    --effects-out results/effects.json

phase "aptq-audit self-check (every rule must fire on the sabotage fixture)"
# A refactor that disconnects a rule from the pipeline makes the audit
# report "clean" on everything — indistinguishable from a healthy tree.
# The fixture seeds at least one violation per rule, so every code the
# catalog lists must appear in its report: a missing code means the
# auditor, not the tree, is broken.
fixture_exit=0
cargo run -q -p aptq-audit -- \
    --root crates/audit/fixtures/sabotage \
    --json > results/audit-selfcheck.json || fixture_exit=$?
if [ "$fixture_exit" -ne 1 ]; then
    echo "self-check: expected exit 1 (findings) on the sabotage fixture, got $fixture_exit" >&2
    exit 1
fi
rule_codes=$(cargo run -q -p aptq-audit -- --list-rules --json |
    grep -o '"code":"[A-Z0-9]*"' | cut -d'"' -f4 || true)
if [ -z "$rule_codes" ]; then
    echo "self-check: --list-rules --json printed no rule codes" >&2
    exit 1
fi
silent=""
for code in $rule_codes; do
    grep -q "\"rule\":\"$code\"" results/audit-selfcheck.json || silent="$silent $code"
done
if [ -n "$silent" ]; then
    echo "self-check: rules silent on the sabotage fixture:$silent" >&2
    exit 1
fi
echo "    self-check: all $(echo "$rule_codes" | wc -l) catalog rules fire on seeded violations"

phase "effects manifest byte-stability (APTQ_THREADS invariance)"
# The manifest is a CI diff artifact: two fresh runs — across thread
# counts — must produce identical bytes or the E004 gate is flaky.
for threads in 1 4; do
    APTQ_THREADS=$threads cargo run -q -p aptq-audit -- \
        -q --effects-out "results/effects-t$threads.json" || true
    cmp results/effects.json "results/effects-t$threads.json" || {
        echo "effects manifest not byte-stable at APTQ_THREADS=$threads" >&2
        exit 1
    }
    rm -f "results/effects-t$threads.json"
done

phase "cargo build --release"
cargo build --workspace --release

phase "cargo test"
cargo test --workspace -q

phase "benchmark package tests"
# `benchmark/` is its own package (its own `[workspace]`), so the steps
# above never compile it, yet it drives the public decode API
# (`batch_decode_session`, `join`, `step`, `leave`, `metrics`,
# `LinearOp::forward_into`). Its serve tests check batched output
# against solo references.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

phase "determinism suite (scheduler thread-count invariance)"
for threads in 1 4; do
    echo "    APTQ_THREADS=$threads"
    APTQ_THREADS=$threads cargo test -q -p aptq-core --test determinism
    APTQ_THREADS=$threads cargo test -q -p aptq-eval --test determinism
    APTQ_THREADS=$threads cargo test -q -p aptq-lm batch_grads_bit_identical
    APTQ_THREADS=$threads cargo test -q -p aptq-lm --test batch_decode
    APTQ_THREADS=$threads cargo test -q -p aptq-qmodel --test unified_path
    APTQ_THREADS=$threads cargo test -q -p aptq-qmodel --test batch_decode
    # `quantize_from` and OWQ through the one plan solver against the
    # sequential loops they replaced, bit for bit (debug and release).
    APTQ_THREADS=$threads cargo test -q -p aptq-qmodel --test plan_solver_oracle
    APTQ_THREADS=$threads cargo test --release -q -p aptq-qmodel --test plan_solver_oracle
    APTQ_THREADS=$threads cargo test -q -p aptq-textgen --test determinism
    # The shared matmul kernel against its oracle, and the packed
    # forward against the dequantized matmul, bit for bit. Again in
    # release: the benchmark ships release builds, where the tiled loops
    # auto-vectorize, and debug runs never exercise that codegen.
    APTQ_THREADS=$threads cargo test -q -p aptq-tensor --lib parallel::tests
    APTQ_THREADS=$threads cargo test -q -p aptq-tensor --lib matrix::tests::matmul_tn
    APTQ_THREADS=$threads cargo test -q -p aptq-qmodel --test kernel_diff
    # The two-pass SiLU-times-up kernel against `silu(g) * u`, over a
    # strided sweep of every bit pattern of `g`; its second pass
    # vectorizes in release only.
    APTQ_THREADS=$threads cargo test -q -p aptq-tensor --lib activation::tests::oracle_
    APTQ_THREADS=$threads cargo test --release -q -p aptq-tensor --lib activation::tests::oracle_
    APTQ_THREADS=$threads cargo test --release -q -p aptq-tensor --lib parallel::tests
    APTQ_THREADS=$threads cargo test --release -q -p aptq-tensor --lib matrix::tests::matmul_tn
    APTQ_THREADS=$threads cargo test --release -q -p aptq-qmodel --test kernel_diff
    # The packed chunked forward and prefill against token-by-token
    # decode, in the profile the benchmark ships.
    APTQ_THREADS=$threads cargo test --release -q -p aptq-qmodel --test unified_path
    APTQ_THREADS=$threads cargo test --release -q -p aptq-lm --test batch_decode
    # The vectorized attention row kernel against the per-head kernel it
    # replaced, the core's attention against the per-head full-matrix
    # forward, the chunked forward and the capture against the
    # cache-building training forward they replaced,
    # `sequence_grads` (loss and every gradient) against the one that
    # forward fed (`oracle_sequence_grads_match_cache_stack`), and a
    # prefill chunk against token-by-token feeding, bit for bit. The
    # capture runs in release in the benchmark, where the causal loops
    # auto-vectorize.
    APTQ_THREADS=$threads cargo test -q -p aptq-lm --lib oracle_
    APTQ_THREADS=$threads cargo test --release -q -p aptq-lm --lib oracle_
    APTQ_THREADS=$threads cargo test --release -q -p aptq-core --test determinism
    # SmoothQuant's activation maxima from one capture pass against
    # per-block `forward_blocks` calls, bit for bit.
    APTQ_THREADS=$threads cargo test -q -p aptq-core --lib act_stats_match
done
# The invariant tests check the documented contract in both profiles:
# a panic in debug, a compiled-out no-op in release.
cargo test --release -q -p aptq-core --lib
# The JSON number fast path against the parser it replaced, bit for bit,
# in the profile the benchmark and the CLI ship.
cargo test --release -q -p serde_json
# The benchmark host runs 2 workers, and the Hessian capture window
# follows the thread count: 2 is a schedule distinct from 1 and 4. The
# benchmark ships release builds, so the capture and probe oracles run
# at 2 workers in that profile too.
echo "    APTQ_THREADS=2"
APTQ_THREADS=2 cargo test -q -p aptq-core --test determinism
APTQ_THREADS=2 cargo test --release -q -p aptq-core --test determinism
APTQ_THREADS=2 cargo test -q -p aptq-core --lib act_stats_match
APTQ_THREADS=2 cargo test -q -p aptq-lm --lib oracle_sequence_grads
APTQ_THREADS=2 cargo test --release -q -p aptq-lm --lib oracle_sequence_grads

phase "chaos suite (seeded fault injection, archived as results/chaos.json)"
# Every injected fault must be detected (structured error, no panic)
# or provably harmless; the report itself is part of the determinism
# contract — two runs across thread counts must be byte-identical.
cargo run -q -p aptq-chaos --bin chaos --release -- --out results/chaos.json
for threads in 1 4; do
    APTQ_THREADS=$threads cargo run -q -p aptq-chaos --bin chaos --release -- \
        --out "results/chaos-t$threads.json"
    cmp results/chaos.json "results/chaos-t$threads.json" || {
        echo "chaos report not byte-stable at APTQ_THREADS=$threads" >&2
        exit 1
    }
    rm -f "results/chaos-t$threads.json"
done

phase "telemetry snapshot (archived as results/telemetry.json)"
# The bench asserts the counters' structural invariants (zero qlinear
# fallbacks, O(T) KV write traffic, Hessian cache hits) and writes the
# Recorder snapshot under results/.
cargo run -q -p aptq-bench --bin telemetry --release > /dev/null

phase "committed snapshots unchanged (results/chaos.json, results/telemetry.json)"
# Both phases above rewrite their snapshot in place. A change that
# renames a counter or shifts a chaos result must show up here as a
# diff against the committed file, not slip in as a silent overwrite.
git diff --exit-code results/chaos.json results/telemetry.json

echo "    [timing] ${phase_name}: $((SECONDS - phase_t0))s"
echo "All checks passed."
