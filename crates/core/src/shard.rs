//! The one row-parallel executor of rock-core ([`fan_out`]), its
//! thread-count rule and its two partitions.
//!
//! The link kernel (DESIGN.md §13), the brute-force neighbor scan, the
//! join probe (DESIGN.md §17) and §4.2 labeling all compute independent
//! rows into one output vector, split into contiguous ranges so each
//! worker writes a disjoint slice with no synchronization. The partition
//! is a pure function of the input, never of thread timing, and results
//! come back in range order, so the output is byte-identical for any
//! thread count. [`equal_bounds`] balances row counts;
//! [`weighted_bounds`] balances a per-row work estimate, for kernels
//! whose hub rows dominate.

use crate::cast;

/// Resolves a `threads` request: `0` means auto (one per CPU, capped at
/// 16), and tiny inputs stay single-threaded to avoid spawn overhead.
/// Shared by every row-sharded phase (neighbors, links, labeling) so one
/// knob means the same thing everywhere.
pub(crate) fn effective_threads(requested: usize, n: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(16);
    let t = if requested == 0 { hw } else { requested };
    if n < 256 {
        1
    } else {
        t.min(n)
    }
}

/// Splits `0..n` into ranges of `ceil(n / threads)` rows (the last one
/// shorter), never empty unless `n == 0` — the `chunks_mut` partition.
pub(crate) fn equal_bounds(n: usize, threads: usize) -> Vec<usize> {
    let chunk = n.div_ceil(threads).max(1);
    let mut bounds: Vec<usize> = (0..n).step_by(chunk).collect();
    if bounds.is_empty() {
        bounds.push(0);
    }
    bounds.push(n);
    bounds
}

/// Splits `0..n` into `shards` contiguous ranges balanced by the per-row
/// work estimate `weight(i)` ([`shard_by_weights`]). One shard is the
/// whole range, and no weight is evaluated for it.
pub(crate) fn weighted_bounds(
    n: usize,
    shards: usize,
    weight: impl Fn(usize) -> u64,
) -> Vec<usize> {
    if shards <= 1 {
        return vec![0, n];
    }
    let weights: Vec<u64> = (0..n).map(weight).collect();
    shard_by_weights(&weights, shards)
}

/// Splits `0..weights.len()` into `shards` contiguous ranges balanced by
/// the per-row work estimates. Returns `shards + 1` non-decreasing
/// boundaries starting at 0 and ending at `weights.len()`. Purely a
/// function of the weights, so the partition — and hence each worker's
/// output slice — is deterministic.
pub(crate) fn shard_by_weights(weights: &[u64], shards: usize) -> Vec<usize> {
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let shards_u64 = cast::usize_to_u64(shards);
    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0);
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        // Cut after row i once this prefix holds its proportional share.
        // rock-analyze: allow(guard-loop) — bounded: every iteration grows bounds.len() toward shards.
        while bounds.len() < shards && acc * shards_u64 >= total * cast::usize_to_u64(bounds.len())
        {
            bounds.push(i + 1);
        }
    }
    // rock-analyze: allow(guard-loop) — bounded: every iteration grows bounds.len() toward shards.
    while bounds.len() < shards {
        bounds.push(n);
    }
    bounds.push(n);
    bounds
}

/// Calls `work(worker, start, slice)` once per range
/// `bounds[w]..bounds[w + 1]` of `out` (`slice` is that range of `out`,
/// `start` its first row) and returns the results in range order, so
/// callers sum per-worker tallies in the same order for every thread
/// count. A single range runs inline on the caller's thread; more ranges
/// run on scoped threads, one per range (empty ones included), and a
/// worker's panic is resumed in the caller. `bounds` must start at 0,
/// end at `out.len()` and never decrease.
pub(crate) fn fan_out<T, R, F>(out: &mut [T], bounds: &[usize], work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(u64, usize, &mut [T]) -> R + Sync,
{
    debug_assert!(bounds.first() == Some(&0) && bounds.last() == Some(&out.len()));
    if bounds.len() <= 2 {
        return vec![work(0, 0, out)];
    }
    let work = &work;
    std::thread::scope(|scope| {
        let mut rest = out;
        let handles: Vec<_> = bounds
            .windows(2)
            .enumerate()
            .map(|(w, range)| {
                let (slice, tail) = std::mem::take(&mut rest).split_at_mut(range[1] - range[0]);
                rest = tail;
                let start = range[0];
                scope.spawn(move || work(cast::usize_to_u64(w), start, slice))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check_invariants(bounds: &[usize], n: usize, shards: usize) {
        assert_eq!(bounds.len(), shards + 1);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[shards], n);
        for w in bounds.windows(2) {
            assert!(w[0] <= w[1], "non-decreasing boundaries");
        }
        let covered: usize = bounds.windows(2).map(|w| w[1] - w[0]).sum();
        assert_eq!(covered, n);
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let weights = vec![1u64; 100];
        let bounds = shard_by_weights(&weights, 4);
        check_invariants(&bounds, 100, 4);
        for w in bounds.windows(2) {
            assert_eq!(w[1] - w[0], 25);
        }
    }

    #[test]
    fn skewed_weights_move_the_boundaries() {
        // One heavy row up front: the first shard should hold little else.
        let mut weights = vec![1u64; 64];
        weights[0] = 1_000;
        let bounds = shard_by_weights(&weights, 4);
        check_invariants(&bounds, 64, 4);
        assert!(
            bounds[1] < 16,
            "heavy first row must shrink shard 0, got {bounds:?}"
        );
    }

    #[test]
    fn more_shards_than_rows_yields_empty_tail_ranges() {
        let weights = vec![1u64; 3];
        let bounds = shard_by_weights(&weights, 8);
        check_invariants(&bounds, 3, 8);
    }

    #[test]
    fn empty_input_and_zero_weights() {
        check_invariants(&shard_by_weights(&[], 4), 0, 4);
        check_invariants(&shard_by_weights(&[0, 0, 0], 2), 3, 2);
    }

    #[test]
    fn single_shard_covers_everything() {
        let bounds = shard_by_weights(&[3, 1, 4, 1, 5], 1);
        assert_eq!(bounds, vec![0, 5]);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(4, 100), 1); // tiny input
        assert_eq!(effective_threads(4, 1000), 4);
        assert!(effective_threads(0, 1000) >= 1);
    }

    #[test]
    fn equal_bounds_match_chunks_mut() {
        for n in 1..40usize {
            for threads in 1..=12usize {
                let bounds = equal_bounds(n, threads);
                let lens: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
                let chunked: Vec<usize> = vec![0u8; n]
                    .chunks(n.div_ceil(threads))
                    .map(<[u8]>::len)
                    .collect();
                assert_eq!(bounds[0], 0);
                assert_eq!(lens, chunked, "n {n} threads {threads}");
            }
        }
        assert_eq!(equal_bounds(0, 4), vec![0, 0]);
    }

    #[test]
    fn a_single_weighted_shard_evaluates_no_weight() {
        let bounds = weighted_bounds(5, 1, |_| panic!("weight evaluated for one shard"));
        assert_eq!(bounds, vec![0, 5]);
        assert_eq!(weighted_bounds(4, 2, |i| [9, 1, 1, 1][i]), vec![0, 1, 4]);
    }

    #[test]
    fn ranges_cover_out_exactly_once() {
        for bounds in [
            vec![0, 10],
            vec![0, 3, 7, 10],
            vec![0, 0, 4, 4, 10, 10],
            vec![0, 10, 10, 10],
        ] {
            let mut out = vec![0u32; 10];
            let seen = fan_out(&mut out, &bounds, |worker, start, slice| {
                for cell in slice.iter_mut() {
                    *cell += 1;
                }
                (worker, start, slice.len())
            });
            assert!(out.iter().all(|&c| c == 1), "bounds {bounds:?}: {out:?}");
            let expect: Vec<(u64, usize, usize)> = bounds
                .windows(2)
                .enumerate()
                .map(|(w, r)| (w as u64, r[0], r[1] - r[0]))
                .collect();
            assert_eq!(seen, expect, "bounds {bounds:?}");
        }
        let mut empty: Vec<u8> = Vec::new();
        assert_eq!(fan_out(&mut empty, &[0, 0], |_, _, s| s.len()), vec![0]);
    }

    #[test]
    fn slices_are_the_rows_of_their_range() {
        let mut out: Vec<usize> = vec![0; 9];
        fan_out(&mut out, &[0, 2, 5, 9], |_, start, slice| {
            for (off, cell) in slice.iter_mut().enumerate() {
                *cell = start + off;
            }
        });
        assert_eq!(out, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn results_come_back_in_range_order_whatever_order_workers_finish() {
        // Worker w may only finish after every higher-numbered worker: the
        // finish order is the reverse of the range order.
        let ranges = 4usize;
        let finished = AtomicUsize::new(0);
        let order = std::sync::Mutex::new(Vec::new());
        let mut out = vec![0u8; 8];
        let results = fan_out(&mut out, &[0, 2, 4, 6, 8], |worker, start, _| {
            let w = usize::try_from(worker).unwrap();
            while finished.load(Ordering::Relaxed) != ranges - 1 - w {
                std::thread::yield_now();
            }
            order.lock().unwrap().push(w);
            finished.fetch_add(1, Ordering::Relaxed);
            start
        });
        assert_eq!(*order.lock().unwrap(), vec![3, 2, 1, 0]);
        assert_eq!(results, vec![0, 2, 4, 6]);
    }

    #[test]
    fn one_range_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let mut out = vec![0u8; 3];
        let ids = fan_out(&mut out, &[0, 3], |_, _, _| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
        let ids = fan_out(&mut out, &[0, 1, 3], |_, _, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller), "several ranges spawn");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        for bounds in [vec![0, 4], vec![0, 1, 2, 4]] {
            let caught = std::panic::catch_unwind(|| {
                let mut out = vec![0u8; 4];
                fan_out(&mut out, &bounds, |worker, _, _| {
                    if worker + 1 == (bounds.len() - 1) as u64 {
                        panic!("worker {worker} failed");
                    }
                })
            });
            let payload = caught.expect_err("the panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(
                message,
                format!("worker {} failed", bounds.len() - 2),
                "bounds {bounds:?}"
            );
        }
    }
}
