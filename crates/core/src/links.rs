//! Link computation (paper §4.1, procedure `compute_links`).
//!
//! `link(p, q)` is the number of common neighbors of `p` and `q`. The paper
//! computes links by "multiplying" the neighbor adjacency structure with
//! itself: for every point `l`, every pair of `l`'s neighbors gains one
//! link. The cost is `Σ_l deg(l)²` — between `O(n·m_a·m_m)` and `O(n²·m_a)`
//! — and is the second hot spot after neighbor computation.
//!
//! Instead of a hash map per increment we sweep one dense `u32` scratch row
//! per point: for point `i`, `scratch[j] = |N(i) ∩ N(j)|` is accumulated by
//! walking `j ∈ N(l)` for every `l ∈ N(i)`, then the touched entries are
//! harvested into a sparse row. This is the classic sparse
//! matrix-square-row kernel and keeps the inner loop to an indexed add.
//!
//! Source rows are independent — row `i` reads only the (immutable)
//! neighbor graph and writes only `rows[i]` — so the kernel shards over
//! [`shard::fan_out`] (DESIGN.md §13): rows are partitioned into
//! contiguous ranges balanced by the per-row work estimate
//! `Σ_{l∈N(i)} deg(l)`, each worker owns a private scratch + touched list,
//! and the merged table is **byte-identical** to the sequential result for
//! any thread count. Workers poll the run [`Guard`] every
//! [`GUARD_STRIDE`] rows, so budget trips and cancellation degrade
//! mid-phase instead of finishing the whole table first.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cast;
use crate::guard::{Guard, Trip};
use crate::neighbors::NeighborGraph;
use crate::shard;
use crate::telemetry::trace::{LatencyHistogram, Payload};
use crate::telemetry::{MemoryEstimate, MemoryGauges, Observer, Phase, PipelineCounters};

/// How often (in source rows) each worker polls the guard and flushes its
/// stored-entry tally into the shared memory gauge. Checkpoints read two
/// or three atomics plus (rarely) the clock, so a small stride keeps
/// trips responsive without measurable kernel overhead.
const GUARD_STRIDE: usize = 64;

/// Sparse symmetric matrix of link counts, stored as upper-triangle rows:
/// `rows[i]` holds `(j, link(i, j))` for `j > i`, sorted by `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkTable {
    rows: Vec<Vec<(u32, u32)>>,
}

/// Computes one upper-triangle row of the link table into `out`,
/// returning the kernel steps spent (`Σ_{l∈N(i)} deg(l)`). `scratch` must
/// be all-zero on entry and is restored to all-zero on exit; `touched` is
/// scratch storage for the nonzero column indices.
// Forced inline: left to the heuristic, whether this lands inside the
// range loop of `compute_range` flips with unrelated code elsewhere in
// the crate, and the kernel measured 10–20% slower when it did not.
#[inline(always)]
fn fill_links_row(
    graph: &NeighborGraph,
    i: usize,
    scratch: &mut [u32],
    touched: &mut Vec<u32>,
    out: &mut Vec<(u32, u32)>,
) -> u64 {
    let mut kernel_steps = 0u64;
    for &l in graph.neighbors(i) {
        kernel_steps += cast::usize_to_u64(graph.degree(cast::u32_to_usize(l)));
        for &j in graph.neighbors(cast::u32_to_usize(l)) {
            // Only accumulate the upper triangle (j > i); the pair
            // (i, j) with j < i was produced when j was the source.
            if cast::u32_to_usize(j) > i {
                if scratch[cast::u32_to_usize(j)] == 0 {
                    touched.push(j);
                }
                scratch[cast::u32_to_usize(j)] += 1;
            }
        }
    }
    if !touched.is_empty() {
        touched.sort_unstable();
        *out = touched
            .iter()
            .map(|&j| {
                let c = scratch[cast::u32_to_usize(j)];
                scratch[cast::u32_to_usize(j)] = 0;
                (j, c)
            })
            .collect();
        touched.clear();
    }
    kernel_steps
}

/// Shared state of one sharded computation: the early-exit broadcast flag
/// and the cross-worker stored-entry tally feeding the memory gauge (so a
/// memory ceiling can trip *while* the table grows, not only after).
struct ShardState<'a> {
    stop: AtomicBool,
    partial_entries: AtomicU64,
    observer: &'a Observer,
    guard: &'a Guard,
}

impl ShardState<'_> {
    /// Worker poll: flushes `delta` freshly stored entries into the
    /// shared gauge (entry payload bytes only — always at or below the
    /// finished table's estimate, so the high-water mark stays
    /// deterministic) and consults the guard. Returns the trip, if any,
    /// after broadcasting stop to the other workers.
    fn poll(&self, delta: u64) -> Option<Trip> {
        let entries = delta + self.partial_entries.fetch_add(delta, Ordering::Relaxed);
        MemoryGauges::observe(
            &self.observer.memory().link_table,
            entries * cast::usize_to_u64(std::mem::size_of::<(u32, u32)>()),
        );
        if self.stop.load(Ordering::Relaxed) {
            return None; // another worker already tripped and reported
        }
        let trip = self.guard.checkpoint(Phase::Links, self.observer)?;
        self.stop.store(true, Ordering::Relaxed);
        Some(trip)
    }
}

/// Per-worker tallies of one [`compute_range`] call.
struct RangeResult {
    kernel_steps: u64,
    entries: u64,
    trip: Option<Trip>,
    /// Per-stride-batch latencies (empty unless tracing was enabled).
    batch_ns: LatencyHistogram,
}

/// Computes rows `start..start + out.len()` into `out`, polling the guard
/// every [`GUARD_STRIDE`] rows. Returns the kernel steps performed, the
/// entries stored, and the trip that stopped this worker (if any). When
/// tracing is enabled it also emits one `links.shard` span and fills the
/// per-stride-batch latency histogram.
fn compute_range(
    graph: &NeighborGraph,
    worker: u64,
    start: usize,
    out: &mut [Vec<(u32, u32)>],
    state: &ShardState<'_>,
) -> RangeResult {
    let tracer = state.observer.tracer();
    let shard_span = tracer.begin();
    let mut watch = tracer.stopwatch();
    let mut batch_ns = LatencyHistogram::new();
    let mut scratch: Vec<u32> = vec![0; graph.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut kernel_steps = 0u64;
    let mut entries = 0u64;
    let mut unflushed = 0u64;
    let mut rows_done = 0u64;
    let mut rows_since_lap = 0u64;
    let mut trip = None;
    for (off, row) in out.iter_mut().enumerate() {
        if off.is_multiple_of(GUARD_STRIDE) {
            if rows_since_lap > 0 {
                if let Some(w) = watch.as_mut() {
                    batch_ns.record(w.lap_ns());
                }
                rows_since_lap = 0;
            }
            trip = state.poll(unflushed);
            unflushed = 0;
            if trip.is_some() || state.stop.load(Ordering::Relaxed) {
                break;
            }
        }
        kernel_steps += fill_links_row(graph, start + off, &mut scratch, &mut touched, row);
        entries += cast::usize_to_u64(row.len());
        unflushed += cast::usize_to_u64(row.len());
        rows_done += 1;
        rows_since_lap += 1;
    }
    if rows_since_lap > 0 {
        if let Some(w) = watch.as_mut() {
            batch_ns.record(w.lap_ns());
        }
    }
    state
        .partial_entries
        .fetch_add(unflushed, Ordering::Relaxed);
    if let Some(span) = shard_span {
        tracer.end(
            span,
            "links.shard",
            Some(Phase::Links),
            worker,
            Payload::new()
                .count("start", cast::usize_to_u64(start))
                .count("rows", rows_done)
                .count("kernel_steps", kernel_steps)
                .count("entries", entries),
        );
    }
    RangeResult {
        kernel_steps,
        entries,
        trip,
        batch_ns,
    }
}

/// Splits `0..n` into `shards` contiguous ranges balanced by the per-row
/// work estimate `Σ_{l∈N(i)} deg(l)` (+1 so empty rows still carry their
/// loop cost), via [`shard::weighted_bounds`]: purely a function of the
/// graph, so the partition — and hence each worker's output slice — is
/// deterministic.
fn shard_boundaries(graph: &NeighborGraph, shards: usize) -> Vec<usize> {
    shard::weighted_bounds(graph.len(), shards, |i| {
        1 + graph
            .neighbors(i)
            .iter()
            .map(|&l| cast::usize_to_u64(graph.degree(cast::u32_to_usize(l))))
            .sum::<u64>()
    })
}

impl LinkTable {
    /// A table from explicit upper-triangle rows (`rows[i]` holds sorted
    /// `(j, link)` with `j > i`), for merge-engine tests that need link
    /// counts no neighbor graph would produce.
    #[cfg(test)]
    pub(crate) fn from_upper_rows(rows: Vec<Vec<(u32, u32)>>) -> Self {
        LinkTable { rows }
    }

    /// Computes all pairwise link counts from a neighbor graph
    /// (single-threaded, no telemetry, no budget).
    pub fn compute(graph: &NeighborGraph) -> Self {
        Self::compute_guarded(graph, 1, &Observer::new(), &Guard::unlimited()).0
    }

    /// [`compute`](Self::compute) sharded over `threads` workers (`0` =
    /// one per available CPU, capped; tiny inputs stay single-threaded),
    /// with telemetry and under an execution [`Guard`]. Inner-kernel
    /// visits (the paper's `Σ deg²` cost measure) and stored entries flow
    /// into `observer`'s counters, and the finished table's size into its
    /// memory gauge; the result is byte-identical for every thread count.
    /// Every worker polls [`Guard::checkpoint`] each [`GUARD_STRIDE`] rows
    /// and flushes its stored-entry tally into the link-table memory
    /// gauge, so budget trips and cancellation stop the kernel mid-phase.
    /// On a trip the partially filled table is returned together with the
    /// trip; counters then cover the completed prefix only and the caller
    /// is expected to discard the partial table (the pipeline degrades to
    /// an all-outlier partition).
    pub fn compute_guarded(
        graph: &NeighborGraph,
        threads: usize,
        observer: &Observer,
        guard: &Guard,
    ) -> (Self, Option<Trip>) {
        let n = graph.len();
        let bounds = shard_boundaries(graph, shard::effective_threads(threads, n));
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let state = ShardState {
            stop: AtomicBool::new(false),
            partial_entries: AtomicU64::new(0),
            observer,
            guard,
        };
        let results = shard::fan_out(&mut rows, &bounds, |worker, start, slice| {
            compute_range(graph, worker, start, slice, &state)
        });
        let mut kernel_steps = 0u64;
        let mut entries = 0u64;
        let mut trip: Option<Trip> = None;
        for (w, result) in results.into_iter().enumerate() {
            kernel_steps += result.kernel_steps;
            entries += result.entries;
            trip = trip.or(result.trip);
            if result.batch_ns.count() > 0 {
                observer.tracer().record_hist(
                    "links.shard_ns",
                    Some(cast::usize_to_u64(w)),
                    &result.batch_ns,
                );
            }
        }
        let table = LinkTable { rows };
        let counters = observer.counters();
        PipelineCounters::add(&counters.link_kernel_steps, kernel_steps);
        PipelineCounters::add(&counters.link_entries, entries);
        if trip.is_none() {
            // Only a finished table publishes its full (capacity-based)
            // footprint; a tripped run leaves the gauge at the partial
            // entry bytes already flushed.
            MemoryGauges::observe(
                &observer.memory().link_table,
                cast::usize_to_u64(table.estimated_bytes()),
            );
        }
        (table, trip)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table covers no points.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Link count between `i` and `j` (0 when they share no neighbor).
    pub fn link(&self, i: usize, j: usize) -> u32 {
        if i == j {
            return 0;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        match self.rows[lo].binary_search_by_key(&cast::usize_to_u32(hi), |&(j, _)| j) {
            Ok(pos) => self.rows[lo][pos].1,
            Err(_) => 0,
        }
    }

    /// Upper-triangle row of point `i`: sorted `(j, link)` pairs with `j > i`.
    pub fn row(&self, i: usize) -> &[(u32, u32)] {
        &self.rows[i]
    }

    /// Iterates every nonzero `(i, j, link)` with `i < j`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&(j, c)| (cast::usize_to_u32(i), j, c)))
    }

    /// Number of stored nonzero entries.
    pub fn num_entries(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Sum of all link counts over unordered pairs.
    pub fn total_links(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|&(_, c)| u64::from(c))
            .sum()
    }
}

impl MemoryEstimate for LinkTable {
    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rows.capacity() * std::mem::size_of::<Vec<(u32, u32)>>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<(u32, u32)>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Transaction, TransactionSet};
    use crate::neighbors::NeighborGraph;
    use crate::similarity::Jaccard;

    fn graph_of(transactions: Vec<Transaction>, theta: f64) -> NeighborGraph {
        let data: TransactionSet = transactions.into_iter().collect();
        NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap()
    }

    /// Brute-force reference: link(i,j) = |N(i) ∩ N(j)|.
    fn reference_link(g: &NeighborGraph, i: usize, j: usize) -> u32 {
        let (a, b) = (g.neighbors(i), g.neighbors(j));
        let sb: std::collections::HashSet<u32> = b.iter().copied().collect();
        a.iter().filter(|x| sb.contains(x)).count() as u32
    }

    #[test]
    fn clique_links() {
        // Four identical points: everyone neighbors everyone, so each pair
        // has the remaining 2 points as common neighbors.
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
        ];
        let g = graph_of(data, 0.9);
        let t = LinkTable::compute(&g);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(t.link(i, j), 2, "pair ({i},{j})");
                }
            }
        }
        assert_eq!(t.num_entries(), 6);
        assert_eq!(t.total_links(), 12);
    }

    #[test]
    fn disconnected_points_have_zero_links() {
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([10, 11]),
        ];
        let g = graph_of(data, 0.9);
        let t = LinkTable::compute(&g);
        assert_eq!(t.link(0, 2), 0);
        assert_eq!(t.link(1, 2), 0);
        // A pair of mutual neighbors with no *common* neighbor has 0 links.
        assert_eq!(t.link(0, 1), 0);
    }

    #[test]
    fn path_graph_links() {
        // Points: a-b-c chain (a~b, b~c, a!~c): link(a,c) = 1 (via b),
        // link(a,b) = 0, link(b,c) = 0.
        let data = vec![
            Transaction::new([0, 1, 2, 3]), // a
            Transaction::new([2, 3, 4, 5]), // b: sim(a,b)=2/6=1/3
            Transaction::new([4, 5, 6, 7]), // c: sim(b,c)=1/3, sim(a,c)=0
        ];
        let g = graph_of(data, 1.0 / 3.0);
        assert_eq!(g.neighbors(1), &[0, 2]);
        let t = LinkTable::compute(&g);
        assert_eq!(t.link(0, 2), 1);
        assert_eq!(t.link(0, 1), 0);
        assert_eq!(t.link(1, 2), 0);
    }

    #[test]
    fn self_links_are_zero() {
        let data = vec![Transaction::new([0]), Transaction::new([0])];
        let g = graph_of(data, 0.5);
        let t = LinkTable::compute(&g);
        assert_eq!(t.link(0, 0), 0);
        assert_eq!(t.link(1, 1), 0);
    }

    #[test]
    fn symmetric_accessor() {
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
        ];
        let t = LinkTable::compute(&graph_of(data, 0.9));
        assert_eq!(t.link(0, 2), t.link(2, 0));
        assert_eq!(t.link(0, 2), 1);
    }

    #[test]
    fn matches_bruteforce_on_random_structure() {
        // Deterministic pseudo-random transactions; cross-check every pair.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<Transaction> = (0..60)
            .map(|_| {
                let len = 3 + (next() % 5) as usize;
                Transaction::new((0..len).map(|_| (next() % 25) as u32))
            })
            .collect();
        let g = graph_of(data, 0.3);
        let t = LinkTable::compute(&g);
        for i in 0..g.len() {
            for j in (i + 1)..g.len() {
                assert_eq!(t.link(i, j), reference_link(&g, i, j), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn iter_yields_upper_triangle() {
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
        ];
        let t = LinkTable::compute(&graph_of(data, 0.9));
        for (i, j, c) in t.iter() {
            assert!(i < j);
            assert!(c > 0);
        }
        assert_eq!(t.iter().count(), t.num_entries());
    }

    /// A random graph with enough rows to clear the tiny-input
    /// single-thread cutoff in [`shard::effective_threads`], plus skewed
    /// degrees so shard boundaries actually move with the weights.
    fn random_graph(seed: u64) -> NeighborGraph {
        let mut rng = crate::rng::Rng::seed_from_u64(seed);
        let n = rng.gen_range(300..500usize);
        let data: Vec<Transaction> = (0..n)
            .map(|_| {
                // Two vocabularies of very different sizes: items drawn
                // from the small one create dense hub rows.
                let vocab: usize = if rng.gen_bool(0.3) { 6 } else { 40 };
                let len = rng.gen_range(2..6usize);
                Transaction::new((0..len).map(|_| rng.gen_range(0..vocab) as u32))
            })
            .collect();
        graph_of(data, 0.4)
    }

    #[test]
    fn parallel_output_is_byte_identical_across_thread_counts() {
        const CASES: u64 = 16;
        for seed in 0..CASES {
            let g = random_graph(seed);
            let base_obs = Observer::new();
            let (base, _) = LinkTable::compute_guarded(&g, 1, &base_obs, &Guard::unlimited());
            let base_counters = base_obs.counters().snapshot();
            for threads in [2usize, 4, 8] {
                let obs = Observer::new();
                let (t, _) = LinkTable::compute_guarded(&g, threads, &obs, &Guard::unlimited());
                assert_eq!(t, base, "seed {seed}, threads {threads}");
                let c = obs.counters().snapshot();
                assert_eq!(
                    c.link_kernel_steps, base_counters.link_kernel_steps,
                    "seed {seed}, threads {threads}"
                );
                assert_eq!(
                    c.link_entries, base_counters.link_entries,
                    "seed {seed}, threads {threads}"
                );
                // The completed-run high-water gauge is capacity-based and
                // must not depend on worker interleaving.
                assert_eq!(
                    obs.memory().snapshot().link_table,
                    base_obs.memory().snapshot().link_table,
                    "seed {seed}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn shard_boundaries_partition_all_rows() {
        for seed in 0..8u64 {
            let g = random_graph(seed);
            let n = g.len();
            for shards in 1..=8usize {
                let bounds = shard_boundaries(&g, shards);
                assert_eq!(bounds.len(), shards + 1);
                assert_eq!(bounds[0], 0);
                assert_eq!(bounds[shards], n);
                for w in bounds.windows(2) {
                    assert!(w[0] <= w[1], "non-decreasing boundaries");
                }
            }
        }
    }

    #[test]
    fn shard_boundaries_with_more_shards_than_rows() {
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
        ];
        let g = graph_of(data, 0.9);
        let bounds = shard_boundaries(&g, 8);
        assert_eq!(bounds.len(), 9);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), 3);
        // Every row is covered exactly once by the slices.
        let covered: usize = bounds.windows(2).map(|w| w[1] - w[0]).sum();
        assert_eq!(covered, 3);
    }

    #[test]
    fn injected_trip_stops_the_kernel_mid_phase() {
        let g = random_graph(0);
        let observer = Observer::new();
        let guard = Guard::unlimited().inject_trip_at(Phase::Links);
        let (_, trip) = LinkTable::compute_guarded(&g, 4, &observer, &guard);
        let trip = trip.expect("injected trip must surface from the workers");
        assert_eq!(trip.phase, Phase::Links);
        // The workers stopped early: strictly fewer kernel steps than the
        // full run performs on this graph.
        let full_obs = Observer::new();
        let _ = LinkTable::compute_guarded(&g, 1, &full_obs, &Guard::unlimited());
        let partial = observer.counters().snapshot().link_kernel_steps;
        let full = full_obs.counters().snapshot().link_kernel_steps;
        assert!(partial < full, "partial {partial} vs full {full}");
    }
}
