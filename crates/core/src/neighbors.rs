//! Neighbor graph computation (paper §3.1 / §4.1).
//!
//! Point `q` is a *neighbor* of `p` iff `sim(p, q) ≥ θ`. The neighbor lists
//! are the input to link computation; their sizes (`m_a` average, `m_m`
//! maximum) drive the complexity of the whole algorithm, so we also expose
//! degree statistics.
//!
//! Computing the graph is the `O(n²)` hot spot of ROCK. Two kernels are
//! available behind [`JoinStrategy`]:
//!
//! * **Brute force** — every ordered pair, rows chunked equally over
//!   [`shard::fan_out`] workers. Works for any [`Similarity`]; kept as the
//!   oracle the index kernel is tested against and as the path for
//!   tiny inputs and custom measures.
//! * **Inverted-index join** ([`index`], DESIGN.md §17) — for the
//!   count-based measures (those reporting a
//!   [`Similarity::count_kind`]), candidates come from posting lists
//!   over a frequency-ranked prefix of each row, are pruned by exact
//!   size bounds and verified with the same counts predicate the brute
//!   scan evaluates. Orders of magnitude fewer `sim()` evaluations at
//!   identical output.
//!
//! Both kernels are deterministic regardless of thread count: the graph
//! (and every counter flushed) is byte-identical for 1..k workers.

mod index;

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cast;
use crate::data::TransactionSet;
use crate::error::{Result, RockError};
use crate::guard::{Guard, Trip};
use crate::shard;
use crate::similarity::Similarity;
use crate::telemetry::trace::Payload;
use crate::telemetry::{MemoryEstimate, MemoryGauges, Observer, Phase, PipelineCounters};

/// Below this row count [`JoinStrategy::Auto`] stays brute force: index
/// construction has a fixed cost that only pays for itself once the
/// quadratic scan is measurably bigger.
const INDEX_MIN_N: usize = 128;

/// Which kernel [`NeighborGraph::compute_strategy`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Index join when the measure supports it and the input is large
    /// enough ([`INDEX_MIN_N`] rows); brute force otherwise.
    #[default]
    Auto,
    /// Force the inverted-index join. Falls back to brute force when the
    /// measure reports no [`Similarity::count_kind`] (the index needs
    /// the counts-based predicate).
    Index,
    /// Force the brute-force scan (the test oracle).
    BruteForce,
}

/// θ-threshold neighbor graph: for each point, the sorted list of its
/// neighbors (excluding itself).
#[derive(Debug, Clone)]
pub struct NeighborGraph {
    lists: Vec<Vec<u32>>,
    theta: f64,
}

impl NeighborGraph {
    /// Computes the neighbor graph of `data` under `sim` with threshold
    /// `theta`, using `threads` worker threads (`0` = one per available
    /// CPU, capped at 16), with no telemetry and no budget.
    ///
    /// # Errors
    /// * [`RockError::InvalidTheta`] unless `0 < θ < 1`.
    /// * [`RockError::EmptyDataset`] for an empty input.
    pub fn compute<S: Similarity>(
        data: &TransactionSet,
        sim: &S,
        theta: f64,
        threads: usize,
    ) -> Result<Self> {
        // An unlimited guard never trips, so the graph is always complete.
        Self::compute_guarded(
            data,
            sim,
            theta,
            threads,
            &Observer::new(),
            &Guard::unlimited(),
        )
        .map(|(graph, _)| graph)
    }

    /// [`compute`](Self::compute) with telemetry, under an execution
    /// [`Guard`], with [`JoinStrategy::Auto`] kernel selection: similarity
    /// comparisons and stored edges flow into `observer`'s counters, the
    /// finished graph's size into its memory gauge, and
    /// [`Phase::Neighbors`] progress events to its sink. On the index
    /// path every worker polls [`Guard::checkpoint`] every few rows, so
    /// budget trips and cancellation stop the kernel mid-phase; the
    /// partially filled graph is returned together with the trip and the
    /// caller is expected to discard it (the pipeline degrades to an
    /// all-outlier partition). The brute-force path checks the guard only
    /// at phase boundaries.
    ///
    /// # Errors
    /// Same as [`compute`](Self::compute).
    pub fn compute_guarded<S: Similarity>(
        data: &TransactionSet,
        sim: &S,
        theta: f64,
        threads: usize,
        observer: &Observer,
        guard: &Guard,
    ) -> Result<(Self, Option<Trip>)> {
        Self::compute_strategy(
            data,
            sim,
            theta,
            threads,
            observer,
            guard,
            JoinStrategy::Auto,
        )
    }

    /// [`compute_guarded`](Self::compute_guarded) with an explicit kernel
    /// choice. Every strategy produces a byte-identical graph for every
    /// thread count — and the index join is byte-identical to the brute
    /// scan, because its filters only ever *narrow* the candidate set and
    /// survivors are accepted by the very same counts predicate
    /// (see `crates/core/src/neighbors/index.rs`).
    ///
    /// # Errors
    /// * [`RockError::InvalidTheta`] unless `0 < θ < 1`.
    /// * [`RockError::EmptyDataset`] for an empty input.
    pub fn compute_strategy<S: Similarity>(
        data: &TransactionSet,
        sim: &S,
        theta: f64,
        threads: usize,
        observer: &Observer,
        guard: &Guard,
        strategy: JoinStrategy,
    ) -> Result<(Self, Option<Trip>)> {
        if !(theta > 0.0 && theta < 1.0) {
            return Err(RockError::InvalidTheta(theta));
        }
        let n = data.len();
        if n == 0 {
            return Err(RockError::EmptyDataset);
        }
        let threads = shard::effective_threads(threads, n);
        let use_index = match strategy {
            JoinStrategy::Auto => n >= INDEX_MIN_N,
            JoinStrategy::Index => true,
            JoinStrategy::BruteForce => false,
        };
        if use_index {
            if let Some(kind) = sim.count_kind() {
                let (lists, trip) = index::compute(data, kind, theta, threads, observer, guard);
                let graph = NeighborGraph { lists, theta };
                if trip.is_none() {
                    // Only a finished graph publishes its full
                    // (capacity-based) footprint; a tripped run leaves the
                    // gauge at the bytes already streamed by the workers.
                    MemoryGauges::observe(
                        &observer.memory().neighbor_graph,
                        cast::usize_to_u64(graph.estimated_bytes()),
                    );
                }
                return Ok((graph, trip));
            }
        }
        let graph = Self::brute_force_scan(data, sim, theta, threads, observer);
        Ok((graph, None))
    }

    /// The brute-force `O(n²)` scan, for any [`Similarity`] — the oracle
    /// the index join is verified against, and the kernel behind
    /// [`JoinStrategy::BruteForce`]. Rows go to `threads` pre-resolved
    /// workers in equal contiguous chunks; each worker writes its own
    /// slice of the lists and flushes its counters once. Publishes the
    /// finished graph's footprint to the memory gauge.
    fn brute_force_scan<S: Similarity>(
        data: &TransactionSet,
        sim: &S,
        theta: f64,
        threads: usize,
        observer: &Observer,
    ) -> Self {
        let n = data.len();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        let counters = observer.counters();
        let done_rows = AtomicU64::new(0);
        shard::fan_out(
            &mut lists,
            &shard::equal_bounds(n, threads),
            |worker, start, slice| {
                let span = observer.tracer().begin();
                let mut edges = 0u64;
                for (off, out) in slice.iter_mut().enumerate() {
                    fill_row(data, sim, theta, start + off, out);
                    edges += cast::usize_to_u64(out.len());
                }
                // Every row evaluates sim() against all n−1 other points.
                let rows = cast::usize_to_u64(slice.len());
                PipelineCounters::add(
                    &counters.similarity_comparisons,
                    rows * cast::usize_to_u64(n - 1),
                );
                PipelineCounters::add(&counters.neighbor_edges, edges);
                if let Some(s) = span {
                    observer.tracer().end(
                        s,
                        "neighbors.scan",
                        Some(Phase::Neighbors),
                        worker,
                        Payload::new()
                            .count("start", cast::usize_to_u64(start))
                            .count("rows", rows)
                            .count("edges", edges),
                    );
                }
                let done = rows + done_rows.fetch_add(rows, Ordering::Relaxed);
                observer.progress(Phase::Neighbors, done, cast::usize_to_u64(n));
            },
        );
        let graph = NeighborGraph { lists, theta };
        MemoryGauges::observe(
            &observer.memory().neighbor_graph,
            cast::usize_to_u64(graph.estimated_bytes()),
        );
        graph
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Returns `true` if the graph has no points.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The θ used to build the graph.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Sorted neighbor list of point `i` (self excluded).
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.lists[i]
    }

    /// Degree (neighbor count) of point `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.lists[i].len()
    }

    /// Iterates all neighbor lists in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.lists.iter().map(Vec::as_slice)
    }

    /// Total number of directed neighbor edges (`Σ degree`).
    pub fn num_edges(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Degree statistics `(average m_a, maximum m_m)`.
    pub fn degree_stats(&self) -> (f64, usize) {
        let max = self.lists.iter().map(Vec::len).max().unwrap_or(0);
        let avg = if self.lists.is_empty() {
            0.0
        } else {
            cast::usize_to_f64(self.num_edges()) / cast::usize_to_f64(self.lists.len())
        };
        (avg, max)
    }

    /// Consumes the graph, returning the raw lists.
    pub fn into_lists(self) -> Vec<Vec<u32>> {
        self.lists
    }

    /// Restricts the graph to the points in `kept` (sorted, distinct
    /// indices), re-indexing nodes to `0..kept.len()`. Edges to dropped
    /// points disappear. Used by the outlier filter so the neighbor matrix
    /// is not recomputed after discarding isolated points.
    pub fn restricted(&self, kept: &[usize]) -> NeighborGraph {
        debug_assert!(kept.windows(2).all(|w| w[0] < w[1]));
        let mut remap: Vec<u32> = vec![u32::MAX; self.lists.len()];
        for (new, &old) in kept.iter().enumerate() {
            remap[old] = cast::usize_to_u32(new);
        }
        let lists = kept
            .iter()
            .map(|&old| {
                self.lists[old]
                    .iter()
                    .filter_map(|&j| {
                        let r = remap[cast::u32_to_usize(j)];
                        (r != u32::MAX).then_some(r)
                    })
                    .collect()
            })
            .collect();
        NeighborGraph {
            lists,
            theta: self.theta,
        }
    }
}

impl MemoryEstimate for NeighborGraph {
    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.lists.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .lists
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }
}

fn fill_row<S: Similarity>(
    data: &TransactionSet,
    sim: &S,
    theta: f64,
    i: usize,
    out: &mut Vec<u32>,
) {
    // Rows are driven by `lists` (length n), so `i` is always in range;
    // degrade to an empty row rather than panicking if that ever breaks.
    let Some(ti) = data.transaction(i) else {
        return;
    };
    for (j, tj) in data.iter().enumerate() {
        if j != i && sim.sim(ti, tj) >= theta {
            out.push(cast::usize_to_u32(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Transaction;
    use crate::similarity::Jaccard;

    fn set(groups: &[&[&[u32]]]) -> TransactionSet {
        let mut v = Vec::new();
        for g in groups {
            for t in *g {
                v.push(Transaction::new(t.iter().copied()));
            }
        }
        v.into_iter().collect()
    }

    #[test]
    fn two_blocks_are_separated() {
        // Block A shares items {0,1,2}; block B shares {10,11,12}.
        let data = set(&[
            &[&[0, 1, 2], &[0, 1, 2, 3], &[0, 1, 2, 4]],
            &[&[10, 11, 12], &[10, 11, 12, 13]],
        ]);
        let g = NeighborGraph::compute(&data, &Jaccard, 0.5, 1).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[4]);
        assert_eq!(g.neighbors(4), &[3]);
    }

    #[test]
    fn graph_is_symmetric() {
        let data = set(&[&[&[0, 1], &[1, 2], &[2, 3], &[0, 3], &[0, 1, 2, 3]]]);
        let g = NeighborGraph::compute(&data, &Jaccard, 0.3, 1).unwrap();
        for i in 0..g.len() {
            for &j in g.neighbors(i) {
                assert!(
                    g.neighbors(j as usize).contains(&(i as u32)),
                    "edge {i}->{j} not symmetric"
                );
            }
        }
    }

    #[test]
    fn no_self_loops_and_sorted_lists() {
        let data = set(&[&[&[0, 1], &[0, 1], &[0, 1]]]);
        let g = NeighborGraph::compute(&data, &Jaccard, 0.9, 1).unwrap();
        for i in 0..g.len() {
            let l = g.neighbors(i);
            assert!(!l.contains(&(i as u32)));
            assert!(l.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(l.len(), 2);
        }
    }

    #[test]
    fn identical_points_are_neighbors_at_any_theta() {
        let data = set(&[&[&[5, 6], &[5, 6]]]);
        let g = NeighborGraph::compute(&data, &Jaccard, 0.999, 1).unwrap();
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn threshold_is_inclusive() {
        // sim = 1/3 exactly.
        let data = set(&[&[&[0, 1], &[1, 2]]]);
        let g = NeighborGraph::compute(&data, &Jaccard, 1.0 / 3.0, 1).unwrap();
        assert_eq!(g.degree(0), 1);
        let g2 = NeighborGraph::compute(&data, &Jaccard, 1.0 / 3.0 + 1e-9, 1).unwrap();
        assert_eq!(g2.degree(0), 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        // 300 points in 3 blocks (n ≥ 256 so threading actually engages).
        let mut v = Vec::new();
        for b in 0..3u32 {
            for i in 0..100u32 {
                v.push(Transaction::new([b * 10, b * 10 + 1, b * 10 + 2, 100 + i]));
            }
        }
        let data: TransactionSet = v.into_iter().collect();
        let seq = NeighborGraph::compute(&data, &Jaccard, 0.4, 1).unwrap();
        let par = NeighborGraph::compute(&data, &Jaccard, 0.4, 4).unwrap();
        for i in 0..data.len() {
            assert_eq!(seq.neighbors(i), par.neighbors(i), "row {i}");
        }
    }

    #[test]
    fn brute_scan_reports_progress_at_every_worker_count() {
        use crate::telemetry::{Event, Level, RecordingSink};
        use std::sync::Arc;
        // 300 rows clear the single-thread cutoff, so two workers run two
        // equal chunks; one worker runs all rows inline.
        let data: TransactionSet = (0..300u32)
            .map(|i| Transaction::new([i % 7, 7 + i % 5]))
            .collect();
        for threads in [1usize, 2] {
            let sink = Arc::new(RecordingSink::new());
            let observer = Observer::with_sink(sink.clone(), Level::Info);
            NeighborGraph::compute_strategy(
                &data,
                &Jaccard,
                0.5,
                threads,
                &observer,
                &Guard::unlimited(),
                JoinStrategy::BruteForce,
            )
            .unwrap();
            let mut done: Vec<u64> = sink
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::Progress {
                        phase: Phase::Neighbors,
                        done,
                        total: 300,
                    } => Some(*done),
                    _ => None,
                })
                .collect();
            done.sort_unstable();
            assert_eq!(done.len(), threads, "one event per worker");
            assert_eq!(done.last(), Some(&300), "threads {threads}");
        }
    }

    #[test]
    fn degree_stats() {
        let data = set(&[&[&[0, 1], &[0, 1], &[0, 1], &[9]]]);
        let g = NeighborGraph::compute(&data, &Jaccard, 0.9, 1).unwrap();
        let (avg, max) = g.degree_stats();
        assert_eq!(max, 2);
        assert!((avg - 6.0 / 4.0).abs() < 1e-12);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let data = set(&[&[&[0]]]);
        assert!(matches!(
            NeighborGraph::compute(&data, &Jaccard, 0.0, 1),
            Err(RockError::InvalidTheta(_))
        ));
        let empty: TransactionSet = Vec::new().into_iter().collect();
        assert!(matches!(
            NeighborGraph::compute(&empty, &Jaccard, 0.5, 1),
            Err(RockError::EmptyDataset)
        ));
    }

    #[test]
    fn restricted_reindexes_and_drops_edges() {
        let data = set(&[&[&[0, 1], &[0, 1], &[0, 1], &[9]]]);
        let g = NeighborGraph::compute(&data, &Jaccard, 0.9, 1).unwrap();
        // Keep points 0 and 2 (old indices): they were mutual neighbors.
        let r = g.restricted(&[0, 2]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.neighbors(0), &[1]);
        assert_eq!(r.neighbors(1), &[0]);
        assert_eq!(r.theta(), 0.9);
        // Keeping an isolated point yields empty lists.
        let r = g.restricted(&[0, 3]);
        assert_eq!(r.neighbors(0), &[] as &[u32]);
        assert_eq!(r.neighbors(1), &[] as &[u32]);
    }
}
