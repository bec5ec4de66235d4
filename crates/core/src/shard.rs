//! The one row-parallel executor of rock-core ([`fan_out`]), its
//! thread-count rule, its two partitions and its guarded row loop.
//!
//! The link kernel (DESIGN.md §13), the brute-force neighbor scan, the
//! join probe (DESIGN.md §17) and §4.2 labeling all compute independent
//! rows into one output vector, split into contiguous ranges so each
//! worker writes a disjoint slice with no synchronization. The partition
//! is a pure function of the input, never of thread timing, and results
//! come back in range order, so the output is byte-identical for any
//! thread count. [`equal_bounds`] balances row counts;
//! [`weighted_bounds`] balances a per-row work estimate, for kernels
//! whose hub rows dominate. [`guarded_rows`] runs a per-row closure on
//! top of [`fan_out`] under a [`Guard`], for the phases that must stop
//! mid-kernel (the link kernels and the join probe).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cast;
use crate::guard::{Guard, Trip};
use crate::telemetry::trace::{LatencyHistogram, Payload};
use crate::telemetry::{MemoryGauges, Observer, Phase};

/// How often (in rows) each [`guarded_rows`] worker polls the guard and
/// flushes its stored-item tally into the memory gauge. A poll reads two
/// or three atomics plus (rarely) the clock, so a small stride keeps
/// trips responsive without measurable kernel overhead.
pub(crate) const GUARD_STRIDE: usize = 64;

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

/// What a [`guarded_rows`] run reports, and where.
pub(crate) struct RowRun<'a> {
    /// Phase named in trips, spans and progress events.
    pub(crate) phase: Phase,
    /// Name of the span each worker emits when tracing.
    pub(crate) span: &'static str,
    /// Name of the per-worker stride-lap histogram.
    pub(crate) hist: &'static str,
    /// Payload key of the stored-item tally in the worker span.
    pub(crate) items: &'static str,
    pub(crate) observer: &'a Observer,
    pub(crate) guard: &'a Guard,
    /// Gauge the growing output streams into, as
    /// `base_bytes + items · item_bytes` over every worker's flushed items.
    pub(crate) gauge: &'a AtomicU64,
    pub(crate) base_bytes: u64,
    pub(crate) item_bytes: u64,
    /// Emit one [`Observer::progress`] event as each worker finishes.
    pub(crate) progress: bool,
}

/// Result of a [`guarded_rows`] run: per-worker kernel states in range
/// order, the stored items over all workers, and the trip that stopped
/// the run, if any.
pub(crate) struct RowsDone<S> {
    pub(crate) states: Vec<S>,
    pub(crate) items: u64,
    pub(crate) trip: Option<Trip>,
}

/// Runs `row(&mut state, i, &mut out[i])` for every row under `run.guard`,
/// the ranges `bounds` on [`fan_out`] workers, each with its own
/// `init()` state. `row` returns the items it stored. Every
/// [`GUARD_STRIDE`] rows a worker flushes its unflushed items into the
/// gauge (always at or below the finished output's footprint, so the
/// high-water mark of a completed run does not depend on the
/// interleaving) and polls [`Guard::checkpoint`]; the first worker to
/// trip broadcasts stop and the others leave at their next poll. When
/// tracing, each worker emits one `run.span` span (`start`, `rows`, then
/// `payload(&state)`'s keys, then `run.items`) and a lap histogram of its
/// stride batches, recorded as `run.hist` in range order.
pub(crate) fn guarded_rows<T, S>(
    run: &RowRun<'_>,
    out: &mut [T],
    bounds: &[usize],
    init: impl Fn() -> S + Sync,
    row: impl Fn(&mut S, usize, &mut T) -> u64 + Sync,
    payload: impl Fn(&S, Payload) -> Payload + Sync,
) -> RowsDone<S>
where
    T: Send,
    S: Send,
{
    let stop = AtomicBool::new(false);
    let flushed = AtomicU64::new(0);
    let done_rows = AtomicU64::new(0);
    let total_rows = cast::usize_to_u64(out.len());
    let tracer = run.observer.tracer();
    // Flushes `delta` fresh items into the gauge and consults the guard;
    // returns the trip, if any, after broadcasting stop.
    let poll = |delta: u64| -> Option<Trip> {
        let items = delta + flushed.fetch_add(delta, Ordering::Relaxed);
        MemoryGauges::observe(run.gauge, run.base_bytes + items * run.item_bytes);
        if stop.load(Ordering::Relaxed) {
            return None; // another worker already tripped and reported
        }
        let trip = run.guard.checkpoint(run.phase, run.observer)?;
        stop.store(true, Ordering::Relaxed);
        Some(trip)
    };
    let workers = fan_out(out, bounds, |worker, start, slice| {
        let span = tracer.begin();
        let mut watch = tracer.stopwatch();
        let mut laps = LatencyHistogram::new();
        let mut state = init();
        let (mut items, mut unflushed, mut rows_done, mut since_lap) = (0u64, 0u64, 0u64, 0u64);
        let mut trip = None;
        for (off, cell) in slice.iter_mut().enumerate() {
            if off.is_multiple_of(GUARD_STRIDE) {
                if since_lap > 0 {
                    if let Some(w) = watch.as_mut() {
                        laps.record(w.lap_ns());
                    }
                    since_lap = 0;
                }
                trip = poll(unflushed);
                unflushed = 0;
                if trip.is_some() || stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            let stored = row(&mut state, start + off, cell);
            items += stored;
            unflushed += stored;
            rows_done += 1;
            since_lap += 1;
        }
        if since_lap > 0 {
            if let Some(w) = watch.as_mut() {
                laps.record(w.lap_ns());
            }
        }
        flushed.fetch_add(unflushed, Ordering::Relaxed);
        if run.progress {
            let done = rows_done + done_rows.fetch_add(rows_done, Ordering::Relaxed);
            run.observer.progress(run.phase, done, total_rows);
        }
        if let Some(span) = span {
            let head = Payload::new()
                .count("start", cast::usize_to_u64(start))
                .count("rows", rows_done);
            tracer.end(
                span,
                run.span,
                Some(run.phase),
                worker,
                payload(&state, head).count(run.items, items),
            );
        }
        (state, items, trip, laps)
    });
    let mut done = RowsDone {
        states: Vec::with_capacity(workers.len()),
        items: 0,
        trip: None,
    };
    for (w, (state, items, trip, laps)) in workers.into_iter().enumerate() {
        done.states.push(state);
        done.items += items;
        done.trip = done.trip.or(trip);
        if laps.count() > 0 {
            tracer.record_hist(run.hist, Some(cast::usize_to_u64(w)), &laps);
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
    fn a_trip_in_one_worker_stops_every_worker() {
        // The row closure cancels the run's token at its `k`-th row. The
        // worker that cancelled trips at its next poll, within one
        // stride; every other worker leaves at a poll long before its
        // range ends.
        let k = 300u64;
        for threads in [1usize, 2, 4] {
            let n = threads * 200 * GUARD_STRIDE;
            let observer = Observer::new();
            let guard = Guard::unlimited();
            let gauge = AtomicU64::new(0);
            let run = RowRun {
                phase: Phase::Links,
                span: "test.rows",
                hist: "test.rows_ns",
                items: "items",
                observer: &observer,
                guard: &guard,
                gauge: &gauge,
                base_bytes: 0,
                item_bytes: 8,
                progress: false,
            };
            let seen = AtomicU64::new(0);
            let cancelled_at = AtomicUsize::new(usize::MAX);
            let bounds = equal_bounds(n, threads);
            let mut out = vec![0u8; n];
            let done = guarded_rows(
                &run,
                &mut out,
                &bounds,
                || 0usize,
                |rows, i, cell| {
                    *rows += 1;
                    *cell = 1;
                    if seen.fetch_add(1, Ordering::Relaxed) + 1 == k {
                        cancelled_at.store(i, Ordering::Relaxed);
                        guard.cancel_token().cancel();
                    }
                    1
                },
                |_, payload| payload,
            );
            let trip = done.trip.expect("the cancellation surfaces as the trip");
            assert_eq!(trip.phase, Phase::Links, "threads {threads}");
            assert_eq!(
                trip.reason,
                crate::guard::TripReason::Cancelled,
                "threads {threads}"
            );
            let rows: usize = done.states.iter().sum();
            assert!(cast::usize_to_u64(rows) >= k, "threads {threads}");
            assert_eq!(cast::usize_to_u64(rows), done.items, "threads {threads}");
            assert_eq!(out.iter().filter(|&&c| c == 1).count(), rows);
            assert!(gauge.load(Ordering::Relaxed) <= done.items * 8);
            let at = cancelled_at.load(Ordering::Relaxed);
            for (w, range) in bounds.windows(2).enumerate() {
                let did = done.states[w];
                // Each worker ran a prefix of its range, and stopped early.
                assert!(out[range[0]..range[0] + did].iter().all(|&c| c == 1));
                assert!(did < range[1] - range[0], "threads {threads} worker {w}");
                if (range[0]..range[1]).contains(&at) {
                    let stride_end = ((at - range[0]) / GUARD_STRIDE + 1) * GUARD_STRIDE;
                    assert!(did <= stride_end, "threads {threads}: {did} rows");
                }
            }
        }
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
