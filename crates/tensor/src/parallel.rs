//! The workspace's single concurrency choke point.
//!
//! Every thread spawned anywhere in the workspace is spawned *here*
//! (audit rule D001), and the worker-thread count is resolved *here*
//! ([`thread_count`], the one sanctioned `APTQ_THREADS` read — audit
//! rule D002). Library code parallelizes exclusively through the
//! helpers in this module:
//!
//! - [`matmul_into`] — the blocked, row-band-parallel matmul;
//! - [`run_indexed`] — a scoped worker pool over `0..n` job indices
//!   whose results come back in index order, so the output is
//!   bit-identical at every thread count.
//!
//! It also holds the workspace's one multiply-accumulate kernel,
//! [`matmul_acc`], which every float matmul (training, Hessian capture,
//! the sensitivity probe, eval, the LM head) and the packed
//! `QuantizedLinear` forward run on. It keeps 2 × 16 accumulator tiles
//! in registers, loads each from the output, adds every `k` term in
//! ascending order (skipping exact zeros in `a`) and stores it back, so
//! each output element sees the same float operations in the same order
//! as a plain `i-k-j` loop. Two rows, not four: the build targets
//! baseline x86-64 (SSE2, 16 `xmm` registers), where a 4 × 16 tile's
//! 16 four-lane accumulators take every register and leave none for the
//! `b` row or the broadcast `a` value. Row bands split the work across threads and
//! `KBLOCK`-row panels of `b` keep it in cache. It is not BLAS, but it
//! is fast enough to pretrain the tiny LLaMA-family models and run the
//! quantization pipelines in seconds on a laptop-class CPU.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum number of multiply-accumulate operations (m·k·n) before
/// threads are spawned. Thread spawn costs tens of microseconds; small
/// transformer matmuls (and anything already running inside a
/// batch-parallel training worker) must stay sequential.
const PARALLEL_FLOP_THRESHOLD: usize = 2_000_000;

/// Cache block size along the shared (`k`) dimension.
const KBLOCK: usize = 64;

/// Computes `out = a × b` where `a` is `m×k` and `b` is `k×n`, all
/// row-major. `out` must be zero-initialized with length `m*n`.
///
/// # Determinism
///
/// Bit-identical at every thread count: parallelism splits the output
/// into row bands, each output element is accumulated by exactly one
/// worker in the same k-blocked order as the sequential kernel, so the
/// band boundaries never change any floating-point operation order.
///
/// # Panics
///
/// Panics (debug) if slice lengths do not match the given shapes.
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);

    if m * k * n < PARALLEL_FLOP_THRESHOLD || m < 2 {
        matmul_band(a, k, b, n, out);
        return;
    }

    let threads = thread_count().min(m);
    let rows_per = m.div_ceil(threads);

    std::thread::scope(|scope| {
        let mut rest = out;
        let mut row0 = 0usize;
        while row0 < m {
            let band_rows = rows_per.min(m - row0);
            let (band, tail) = rest.split_at_mut(band_rows * n);
            let a_band = &a[row0 * k..(row0 + band_rows) * k];
            scope.spawn(move || {
                matmul_band(a_band, k, b, n, band);
            });
            rest = tail;
            row0 += band_rows;
        }
    });
}

/// Sequential kernel for a band of rows: [`matmul_acc`] over each
/// `KBLOCK`-row panel of `b`, panels ascending.
fn matmul_band(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let rows = out.len() / n.max(1);
    for k0 in (0..k).step_by(KBLOCK) {
        let kend = (k0 + KBLOCK).min(k);
        matmul_acc(&a[k0..], k, &b[k0 * n..kend * n], n, rows, out, n);
    }
}

/// Rows per register tile: 2 × 16 accumulators are 8 SSE2 registers,
/// leaving room for the `b` row and the broadcast `a` value.
const TILE_ROWS: usize = 2;
/// Columns per register tile; narrower column tails take 4 and then 1.
const TILE_COLS: usize = 16;

/// Register-tiled multiply-accumulate: for `r < rows` and `c < n`,
/// `out[r·ldo + c] += a[r·lda + kk] · b[kk·n + c]` for `kk` ascending
/// over `0..b.len() / n`, skipping every term whose `a` value is exactly
/// zero.
///
/// `a` and `out` are strided views that start at the tile's first
/// element, so a caller passes `&x[col0..]` to read a column range of a
/// wider matrix, or `&mut y[col0..]` to write one. `b` is a dense
/// `kdim × n` panel.
///
/// The kernel holds `TILE_ROWS × TILE_COLS` accumulator tiles (with
/// 4- and 1-wide column tails and a 1-row tail) in registers: each tile
/// is loaded from `out`, accumulated over every `kk` and stored back.
/// Every output element therefore sees exactly the float operations, in
/// exactly the order, of the plain `i-k-j` loop — only the loop nest
/// around them changes.
///
/// # Determinism
///
/// Sequential; each output element's sum is formed in a fixed
/// (`kk` ascending) order, independent of tiling.
///
/// # Panics
///
/// Panics if `a`, `b` or `out` is too short for the given shapes.
pub fn matmul_acc(
    a: &[f32],
    lda: usize,
    b: &[f32],
    n: usize,
    rows: usize,
    out: &mut [f32],
    ldo: usize,
) {
    if n == 0 || rows == 0 {
        return;
    }
    let k = b.len() / n;
    let mut r = 0;
    while r + TILE_ROWS <= rows {
        row_band::<TILE_ROWS>(&a[r * lda..], lda, b, n, k, &mut out[r * ldo..], ldo);
        r += TILE_ROWS;
    }
    while r < rows {
        row_band::<1>(&a[r * lda..], lda, b, n, k, &mut out[r * ldo..], ldo);
        r += 1;
    }
}

/// One band of `R` rows, walked in column tiles.
fn row_band<const R: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    n: usize,
    k: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut c = 0;
    while c + TILE_COLS <= n {
        tile::<R, TILE_COLS>(a, lda, &b[c..], n, k, &mut out[c..], ldo);
        c += TILE_COLS;
    }
    while c + 4 <= n {
        tile::<R, 4>(a, lda, &b[c..], n, k, &mut out[c..], ldo);
        c += 4;
    }
    while c < n {
        tile::<R, 1>(a, lda, &b[c..], n, k, &mut out[c..], ldo);
        c += 1;
    }
}

/// One `R × W` accumulator tile: load from `out`, add every `kk`'s
/// terms in ascending order, store back.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    n: usize,
    k: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&out[r * ldo..r * ldo + W]);
    }
    for kk in 0..k {
        let b_row = &b[kk * n..kk * n + W];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = a[r * lda + kk];
            // audit:allow(fpeq): exact-zero sparsity skip; no tolerance intended
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in acc_r.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[r * ldo..r * ldo + W].copy_from_slice(acc_r);
    }
}

/// Number of worker threads the hardware supports for parallel kernels
/// (capped at 8; spawning past that buys nothing for these workloads).
///
/// # Determinism
///
/// The value is machine-dependent, but it only ever feeds worker-pool
/// *sizes* — every helper in this module produces results independent
/// of the pool size, so hardware variation never reaches outputs.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Resolved worker-thread count for every parallel code path in the
/// workspace: the `APTQ_THREADS` environment variable when set to a
/// positive integer, otherwise [`available_threads`].
///
/// This is the single sanctioned runtime-configuration read (audit rule
/// D002): schedulers and kernels must take their thread count from here
/// instead of consulting the environment themselves, so one knob
/// controls the whole process.
///
/// # Determinism
///
/// The returned count varies with the environment and hardware, but all
/// consumers in this module and in the OBQ/sensitivity schedulers are
/// bit-identical across thread counts, so the knob affects wall-clock
/// only, never results.
pub fn thread_count() -> usize {
    std::env::var("APTQ_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(available_threads)
}

/// Runs `job(i)` for every `i` in `0..n` on a scoped worker pool of at
/// most `threads` threads, returning results in index order.
///
/// Workers pull indices from a shared atomic counter, so load-balancing
/// is dynamic; results land in their index slot regardless of which
/// worker computed them.
///
/// # Determinism
///
/// Bit-identical at every `threads` value (including 1): each job
/// depends only on its index and the captured immutable state, and the
/// returned `Vec` is ordered by index, not completion time.
pub fn run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(job).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let next = &next;
        let job = &job;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, job(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("indexed worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every scheduled index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn check(m: usize, k: usize, n: usize) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31 % 97) as f32) * 0.02 - 1.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 17 % 89) as f32) * 0.03 - 1.3)
            .collect();
        let mut out = vec![0.0f32; m * n];
        matmul_into(&a, m, k, &b, n, &mut out);
        let want = naive(&a, m, k, &b, n);
        for (x, y) in out.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// The pre-tiling kernel body, kept verbatim as the bit-exact
    /// oracle for [`matmul_band`].
    fn matmul_band_oracle(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let rows = out.len() / n.max(1);
        for k0 in (0..k).step_by(KBLOCK) {
            let kend = (k0 + KBLOCK).min(k);
            for i in 0..rows {
                let a_row = &a[i * k..(i + 1) * k];
                let o_row = &mut out[i * n..(i + 1) * n];
                for kk in k0..kend {
                    let av = a_row[kk];
                    // audit:allow(fpeq): exact-zero sparsity skip; no tolerance intended
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    // Innermost loop: contiguous over both b_row and o_row,
                    // auto-vectorizes well.
                    for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                        *o += av * bv;
                    }
                }
            }
        }
    }

    /// Deterministic inputs; every `zero_every`-th entry is an exact
    /// zero (alternating sign) so the skip path runs, and `specials`
    /// mixes in NaN, ±inf and subnormals.
    fn operand(len: usize, salt: usize, zero_every: usize, specials: bool) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = i.wrapping_mul(2_654_435_761).wrapping_add(salt * 97) % 1009;
                if zero_every > 0 && i % zero_every == 0 {
                    if (i / zero_every).is_multiple_of(2) {
                        0.0
                    } else {
                        -0.0
                    }
                } else if specials && h % 53 == 0 {
                    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -3e-39][h % 5]
                } else {
                    (h as f32) * 0.003 - 1.5
                }
            })
            .collect()
    }

    /// Equal bits, except that any two NaNs match: Rust leaves the sign
    /// and payload of a NaN produced by arithmetic unspecified, and
    /// LLVM may commute an `fadd` of two NaNs.
    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            if x.is_nan() && y.is_nan() {
                continue;
            }
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// `matmul_into` (tiled, threaded) against the oracle, bit for bit,
    /// starting from a non-zero `out` so the load/store of each tile is
    /// checked too.
    fn check_exact(m: usize, k: usize, n: usize, zero_every: usize, specials: bool) {
        let a = operand(m * k, 1, zero_every, specials);
        let b = operand(k * n, 2, 0, specials);
        let init = operand(m * n, 3, 5, false);
        let mut want = init.clone();
        matmul_band_oracle(&a, k, &b, n, &mut want);
        let mut got = init;
        matmul_into(&a, m, k, &b, n, &mut got);
        assert_bits_eq(
            &got,
            &want,
            &format!("{m}x{k}x{n} zeros/{zero_every} specials={specials}"),
        );
    }

    #[test]
    fn tiled_kernel_is_bit_identical_to_oracle_at_tile_edges() {
        for m in [1usize, 2, 3, 4, 5, 8, 9] {
            for n in [1usize, 3, 4, 15, 16, 17, 36, 80, 134] {
                check_exact(m, 36, n, 3, false);
            }
        }
    }

    #[test]
    fn tiled_kernel_is_bit_identical_past_kblock() {
        for (m, k, n) in [
            (5, KBLOCK + 1, 17),
            (9, 2 * KBLOCK + 7, 36),
            (4, 3 * KBLOCK, 80),
        ] {
            check_exact(m, k, n, 4, false);
        }
    }

    #[test]
    fn tiled_kernel_is_bit_identical_on_threaded_shape() {
        check_exact(160, 120, 160, 7, false);
    }

    #[test]
    fn tiled_kernel_is_bit_identical_on_special_values() {
        for (m, k, n) in [(9, 70, 17), (4, 36, 36), (1, 80, 134), (160, 120, 160)] {
            check_exact(m, k, n, 3, true);
        }
    }

    #[test]
    fn matmul_acc_reads_and_writes_column_windows() {
        // A 3-column window of a 7-wide `a` into columns 2..7 of a
        // 9-wide `out`: only the window changes, and it equals the
        // oracle on the sliced operands.
        let (rows, lda, ldo, k, n) = (6usize, 7usize, 9usize, 3usize, 5usize);
        let a = operand(rows * lda, 4, 4, false);
        let b = operand(k * n, 5, 0, false);
        let mut out = operand(rows * ldo, 6, 0, false);
        let before = out.clone();
        matmul_acc(&a[2..], lda, &b, n, rows, &mut out[2..], ldo);
        let a_win: Vec<f32> = (0..rows)
            .flat_map(|r| a[r * lda + 2..r * lda + 5].to_vec())
            .collect();
        let mut want: Vec<f32> = (0..rows)
            .flat_map(|r| before[r * ldo + 2..r * ldo + 7].to_vec())
            .collect();
        matmul_band_oracle(&a_win, k, &b, n, &mut want);
        for r in 0..rows {
            assert_bits_eq(
                &out[r * ldo..r * ldo + 2],
                &before[r * ldo..r * ldo + 2],
                "left of window",
            );
            assert_bits_eq(
                &out[r * ldo + 2..r * ldo + 7],
                &want[r * n..(r + 1) * n],
                "window",
            );
            assert_bits_eq(
                &out[r * ldo + 7..(r + 1) * ldo],
                &before[r * ldo + 7..(r + 1) * ldo],
                "right of window",
            );
        }
    }

    #[test]
    fn small_sequential_path() {
        check(3, 5, 4);
    }

    #[test]
    fn single_row() {
        check(1, 100, 100);
    }

    #[test]
    fn single_col() {
        check(100, 100, 1);
    }

    #[test]
    fn crosses_parallel_threshold() {
        check(160, 120, 160);
    }

    #[test]
    fn odd_sizes_past_kblock() {
        check(70, 129, 65);
    }

    #[test]
    fn empty_inner_dim_gives_zeros() {
        let mut out = vec![1.0f32; 4];
        // k == 0: nothing accumulates, but out must stay untouched-as-zeroed
        // by the caller; we simulate the caller contract here.
        out.iter_mut().for_each(|v| *v = 0.0);
        matmul_into(&[], 2, 0, &[], 2, &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn run_indexed_preserves_order_at_any_thread_count() {
        let sequential = run_indexed(37, 1, |i| i * i);
        for threads in [2usize, 4, 16] {
            assert_eq!(run_indexed(37, threads, |i| i * i), sequential);
        }
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn thread_count_prefers_env_override() {
        // Serialized against other env-sensitive tests by using a value
        // no other test sets.
        std::env::set_var("APTQ_THREADS", "3");
        assert_eq!(thread_count(), 3);
        std::env::set_var("APTQ_THREADS", "0");
        assert_eq!(thread_count(), available_threads(), "0 is not positive");
        std::env::set_var("APTQ_THREADS", "lots");
        assert_eq!(thread_count(), available_threads());
        std::env::remove_var("APTQ_THREADS");
        assert_eq!(thread_count(), available_threads());
    }
}
