//! The workspace's single concurrency choke point.
//!
//! Every thread spawned anywhere in the workspace is spawned *here*
//! (audit rule D001), and the worker-thread count is resolved *here*
//! ([`thread_count`], the one sanctioned `APTQ_THREADS` read — audit
//! rule D002). Library code parallelizes exclusively through the
//! helpers in this module:
//!
//! - [`matmul_into`] — the blocked, row-band-parallel matmul kernel;
//! - [`run_indexed`] — a scoped worker pool over `0..n` job indices
//!   whose results come back in index order, so the output is
//!   bit-identical at every thread count.
//!
//! The matmul kernel is deliberately simple: row-band parallelism with
//! a cache-blocked inner loop (i-k-j order so the innermost loop
//! streams both the `b` panel and the output row). It is not BLAS, but
//! it is fast enough to pretrain the tiny LLaMA-family models and run
//! the quantization pipelines in seconds on a laptop-class CPU.

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

/// Sequential blocked kernel for a band of rows.
fn matmul_band(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
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
