//! Link computation (paper §4.1, procedure `compute_links`).
//!
//! `link(p, q)` is the number of common neighbors of `p` and `q`: the
//! entries of the square of the neighbor adjacency matrix. Two kernels
//! compute the upper triangle, row by row (DESIGN.md §13):
//!
//! * **Lists** — the paper's procedure. For point `i`, `scratch[j] =
//!   |N(i) ∩ N(j)|` is accumulated in one dense `u32` scratch row by
//!   walking `j ∈ N(l)` for every `l ∈ N(i)`, then the touched entries
//!   are harvested into a sparse row: `Σ_l deg(l)²` scattered increments
//!   in all. The sparse path, and the oracle the bit kernel is tested
//!   against.
//! * **Bits** — over a row-major bit matrix of the graph (`BitRows`).
//!   For point `i`, the OR of the rows of `N(i)` over the words holding
//!   `j > i`, with the bits `≤ i` masked off, is exactly the set of `j`
//!   with `link(i, j) > 0`; each one's count is `popcount(N(i) AND
//!   N(j))`. It wins when each stored link stands for many list steps.
//!
//! The choice is made once per graph, sequentially, from the graph and
//! the run's memory ceiling alone (`select`), so every thread count
//! runs the same kernel, and both kernels give the same rows with the
//! same capacities and the same counters: `link_kernel_steps` always
//! adds the paper's cost measure `Σ_{l∈N(i)} deg(l)` per row.
//!
//! Source rows are independent — row `i` reads only the (immutable)
//! neighbor graph and writes only `rows[i]` — so either kernel runs on
//! `shard::guarded_rows`: rows are partitioned into contiguous ranges
//! balanced by the per-row work estimate `Σ_{l∈N(i)} deg(l)`, each worker
//! owns its scratch, and the merged table is **byte-identical** to the
//! sequential result for any thread count. Workers poll the run
//! [`Guard`] every `shard::GUARD_STRIDE` rows, so budget trips and
//! cancellation degrade mid-phase instead of finishing the whole table
//! first.

use crate::bitrows::BitRows;
use crate::cast;
use crate::guard::{Guard, Trip};
use crate::neighbors::NeighborGraph;
use crate::shard::{self, GUARD_STRIDE};
use crate::telemetry::trace::Payload;
use crate::telemetry::{MemoryEstimate, MemoryGauges, Observer, Phase, PipelineCounters};

/// The bit kernel runs when `Σ deg² ≥ BITS_MIN_RATIO · ⌈n/64⌉ · E` for
/// the estimated entry count `E`: list steps against the word operations
/// of the AND + popcount per stored link. Measured on mushroom-like and
/// basket graphs (ratio 11–18, bits 5.5–8× faster), a random graph
/// (ratio 2.5, bits 1.5–2.4× faster) and random or sparse graphs (ratio
/// 0.01–0.2, bits 1.5–12× slower); 1 separates all of them.
const BITS_MIN_RATIO: u128 = 1;

/// Sparse symmetric matrix of link counts, stored as upper-triangle rows:
/// `rows[i]` holds `(j, link(i, j))` for `j > i`, sorted by `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkTable {
    rows: Vec<Vec<(u32, u32)>>,
}

/// The two link kernels (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Lists,
    Bits,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Lists => "lists",
            Kernel::Bits => "bits",
        }
    }
}

/// Computes one upper-triangle row of the link table into `out` by
/// walking neighbor lists, returning the kernel steps spent
/// (`Σ_{l∈N(i)} deg(l)`). `scratch` must be all-zero on entry and is
/// restored to all-zero on exit; `touched` is scratch storage for the
/// nonzero column indices.
// Forced inline: left to the heuristic, whether this lands inside the
// row loop of `shard::guarded_rows` flips with unrelated code elsewhere
// in the crate, and the kernel measured 10–20% slower when it did not.
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

/// ORs the rows of `N(i)` over the words holding `j > i` — matrix words
/// `(i + 1) / 64` on — into the front of `cand` (scratch of
/// `matrix.words()` words) and masks off the bits `≤ i`: what is left is
/// `{j > i : link(i, j) > 0}`, the list kernel's touched set, for a
/// symmetric graph. Returns the kernel steps `Σ_{l∈N(i)} deg(l)` and
/// those candidate words.
#[inline]
fn candidate_words<'c>(
    graph: &NeighborGraph,
    matrix: &BitRows,
    i: usize,
    cand: &'c mut [u64],
) -> (u64, &'c [u64]) {
    let first = (i + 1) / 64;
    let cand = &mut cand[..matrix.words() - first];
    cand.fill(0);
    let mut kernel_steps = 0u64;
    for &l in graph.neighbors(i) {
        let l = cast::u32_to_usize(l);
        kernel_steps += cast::usize_to_u64(graph.degree(l));
        for (c, &x) in cand.iter_mut().zip(&matrix.row(l)[first..]) {
            *c |= x;
        }
    }
    if let Some(c) = cand.first_mut() {
        *c &= u64::MAX << ((i + 1) % 64);
    }
    (kernel_steps, cand)
}

/// Computes one upper-triangle row of the link table into `out` on the
/// bit matrix, returning the same kernel steps as [`fill_links_row`]:
/// the candidate words, then `link(i, j) = popcount(N(i) AND N(j))` for
/// each candidate, ascending. The row is collected at its exact length,
/// so its capacity matches the list kernel's. `cand` is scratch of
/// `matrix.words()` words.
#[inline]
fn fill_bits_row(
    graph: &NeighborGraph,
    matrix: &BitRows,
    i: usize,
    cand: &mut [u64],
    out: &mut Vec<(u32, u32)>,
) -> u64 {
    let first = (i + 1) / 64;
    let (kernel_steps, cand) = candidate_words(graph, matrix, i, cand);
    let total: u32 = cand.iter().map(|c| c.count_ones()).sum();
    if total > 0 {
        let mut row = Vec::with_capacity(cast::u32_to_usize(total));
        for (k, &word) in cand.iter().enumerate() {
            let mut bits = word;
            for _ in 0..word.count_ones() {
                let j = (first + k) * 64 + cast::u32_to_usize(bits.trailing_zeros());
                bits &= bits - 1;
                row.push((cast::usize_to_u32(j), matrix.and_count(i, j)));
            }
        }
        *out = row;
    }
    kernel_steps
}

/// The kernel chosen for one graph, with the figures behind the choice
/// (reported in the `links.select` span).
struct Selection {
    /// The bit matrix, when the bit kernel runs.
    matrix: Option<BitRows>,
    /// `n·⌈n/64⌉·8`: what the matrix holds (or would hold).
    matrix_bytes: u64,
    /// `4·Σdeg`: what the neighbor lists hold.
    list_bytes: u64,
    /// `Σ deg²`, the list kernel's steps.
    sum_deg_sq: u64,
    /// Estimated entry count, when the matrix was built to estimate it.
    estimate: Option<u64>,
}

impl Selection {
    /// The list kernel, with the figures of `graph` the choice reads.
    fn lists(graph: &NeighborGraph) -> Self {
        let n = graph.len();
        Selection {
            matrix: None,
            matrix_bytes: BitRows::bytes_for(n, n),
            list_bytes: cast::usize_to_u64(graph.num_edges() * std::mem::size_of::<u32>()),
            sum_deg_sq: graph
                .iter()
                .map(|l| cast::usize_to_u64(l.len() * l.len()))
                .sum(),
            estimate: None,
        }
    }

    fn kernel(&self) -> Kernel {
        if self.matrix.is_some() {
            Kernel::Bits
        } else {
            Kernel::Lists
        }
    }

    /// The `links.select` span payload; `n` is the graph's point count.
    fn payload(&self, n: usize) -> Payload {
        let mut payload = Payload::new()
            .count("matrix_bytes", self.matrix_bytes)
            .count("list_bytes", self.list_bytes)
            .count("sum_deg_sq", self.sum_deg_sq);
        if let Some(estimate) = self.estimate {
            let words = cast::usize_to_u64(n.div_ceil(64));
            payload = payload.count("estimate", estimate).num(
                "ratio",
                cast::u64_to_f64(self.sum_deg_sq)
                    / (cast::u64_to_f64(words) * cast::u64_to_f64(estimate)).max(1.0),
            );
        }
        payload.str("kernel", self.kernel().name())
    }
}

/// The bit matrix of `graph`. Its bytes go into the `link_table` gauge
/// before it is filled, and the guard is polled every [`GUARD_STRIDE`]
/// rows while it is; returns the trip instead when the guard fires.
fn fill_matrix(graph: &NeighborGraph, observer: &Observer, guard: &Guard) -> Result<BitRows, Trip> {
    let n = graph.len();
    MemoryGauges::observe(&observer.memory().link_table, BitRows::bytes_for(n, n));
    let mut matrix = BitRows::new(n, n);
    for (i, neighbors) in graph.iter().enumerate() {
        if i.is_multiple_of(GUARD_STRIDE) {
            if let Some(trip) = guard.checkpoint(Phase::Links, observer) {
                return Err(trip);
            }
        }
        for &j in neighbors {
            matrix.set(i, cast::u32_to_usize(j));
        }
    }
    Ok(matrix)
}

/// Chooses the kernel for `graph`, sequentially and from the graph and
/// the guard's memory ceiling alone, so every thread count makes the
/// same choice:
///
/// 1. **Memory gate.** The matrix is built only when its bytes are no
///    more than the neighbor lists' (density ≥ 1/32), so it never takes
///    more memory than the graph it re-encodes — and never under a
///    memory ceiling. Its bytes stay in the `link_table` gauge, and so
///    raise the run's tracked total by the matrix; under a ceiling the
///    lists run, so a budgeted run tracks and trips exactly as the list
///    kernel alone would.
/// 2. **Multiplicity test.** `E` is estimated by the candidate words of
///    every 64th row; the bit kernel runs when `Σ deg² ≥
///    BITS_MIN_RATIO · ⌈n/64⌉ · E`, and the matrix is dropped otherwise.
///
/// Returns the trip instead when the guard fires while the matrix is
/// filled.
fn select(graph: &NeighborGraph, observer: &Observer, guard: &Guard) -> Result<Selection, Trip> {
    let mut sel = Selection::lists(graph);
    if sel.matrix_bytes > sel.list_bytes || guard.budget().max_memory_bytes.is_some() {
        return Ok(sel);
    }
    let matrix = fill_matrix(graph, observer, guard)?;
    let words = matrix.words();
    let mut cand = vec![0u64; words];
    // The candidate bits of every 64th row, scaled back up.
    let estimate = 64
        * (0..graph.len())
            .step_by(64)
            .map(|i| {
                let (_, cand) = candidate_words(graph, &matrix, i, &mut cand);
                cand.iter().map(|c| u64::from(c.count_ones())).sum::<u64>()
            })
            .sum::<u64>();
    sel.estimate = Some(estimate);
    let cost = BITS_MIN_RATIO * u128::from(cast::usize_to_u64(words)) * u128::from(estimate);
    if u128::from(sel.sum_deg_sq) >= cost {
        sel.matrix = Some(matrix);
    }
    Ok(sel)
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

/// Runs one kernel's per-row closure (which returns the row's kernel
/// steps) on [`shard::guarded_rows`]. Returns the kernel steps, the
/// stored entries and the trip, if any.
fn run_kernel<S: Send>(
    run: &shard::RowRun<'_>,
    rows: &mut [Vec<(u32, u32)>],
    bounds: &[usize],
    init: impl Fn() -> S + Sync,
    row: impl Fn(&mut S, usize, &mut Vec<(u32, u32)>) -> u64 + Sync,
) -> (u64, u64, Option<Trip>) {
    let done = shard::guarded_rows(
        run,
        rows,
        bounds,
        || (0u64, init()),
        |(steps, scratch), i, out| {
            *steps += row(scratch, i, out);
            cast::usize_to_u64(out.len())
        },
        |(steps, _), payload| payload.count("kernel_steps", *steps),
    );
    let steps = done.states.iter().map(|(steps, _)| steps).sum();
    (steps, done.items, done.trip)
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
    /// with telemetry and under an execution [`Guard`]. The kernel —
    /// neighbor lists or a bit matrix — is chosen once per graph (see
    /// the module docs; under a memory ceiling the lists always run); a
    /// traced run records the choice in a `links.select` span. Inner-kernel visits (the paper's `Σ deg²`
    /// cost measure) and stored entries flow into `observer`'s counters,
    /// and the finished table's size, plus the bit matrix when it ran,
    /// into its memory gauge; the result is byte-identical for every
    /// thread count and either kernel. Every worker polls
    /// [`Guard::checkpoint`] each `shard::GUARD_STRIDE` rows and
    /// flushes its stored-entry tally into the link-table memory gauge,
    /// so budget trips and cancellation stop the kernel mid-phase. On a
    /// trip the partially filled table is returned together with the
    /// trip; counters then cover the completed prefix only and the caller
    /// is expected to discard the partial table (the pipeline degrades to
    /// an all-outlier partition).
    pub fn compute_guarded(
        graph: &NeighborGraph,
        threads: usize,
        observer: &Observer,
        guard: &Guard,
    ) -> (Self, Option<Trip>) {
        let tracer = observer.tracer();
        let span = tracer.begin();
        match select(graph, observer, guard) {
            Ok(sel) => {
                if let Some(span) = span {
                    let payload = sel.payload(graph.len());
                    tracer.end(span, "links.select", Some(Phase::Links), 0, payload);
                }
                Self::compute_selected(graph, &sel, threads, observer, guard)
            }
            Err(trip) => {
                let rows = vec![Vec::new(); graph.len()];
                (LinkTable { rows }, Some(trip))
            }
        }
    }

    /// Runs the kernel `sel` holds: the rest of
    /// [`compute_guarded`](Self::compute_guarded) once the kernel is
    /// chosen.
    fn compute_selected(
        graph: &NeighborGraph,
        sel: &Selection,
        threads: usize,
        observer: &Observer,
        guard: &Guard,
    ) -> (Self, Option<Trip>) {
        let n = graph.len();
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let matrix_bytes = sel.matrix.as_ref().map_or(0, BitRows::bytes);
        let run = shard::RowRun {
            phase: Phase::Links,
            span: "links.shard",
            hist: "links.shard_ns",
            items: "entries",
            observer,
            guard,
            gauge: &observer.memory().link_table,
            base_bytes: matrix_bytes,
            item_bytes: cast::usize_to_u64(std::mem::size_of::<(u32, u32)>()),
            progress: false,
        };
        let shards = shard::effective_threads(threads, n);
        let (kernel_steps, entries, trip) = match &sel.matrix {
            None => run_kernel(
                &run,
                &mut rows,
                &shard_boundaries(graph, shards),
                || (vec![0u32; n], Vec::new()),
                |(scratch, touched), i, out| fill_links_row(graph, i, scratch, touched, out),
            ),
            Some(matrix) => run_kernel(
                &run,
                &mut rows,
                // Both the OR and the candidates of row i shrink with the
                // columns right of it: weight deg(i)·(n − i).
                &shard::weighted_bounds(n, shards, |i| {
                    1 + cast::usize_to_u64(graph.degree(i) * (n - i))
                }),
                || vec![0u64; matrix.words()],
                |cand, i, out| fill_bits_row(graph, matrix, i, cand, out),
            ),
        };
        let table = LinkTable { rows };
        let counters = observer.counters();
        PipelineCounters::add(&counters.link_kernel_steps, kernel_steps);
        PipelineCounters::add(&counters.link_entries, entries);
        if trip.is_none() {
            // Only a finished table publishes its full (capacity-based)
            // footprint, plus the matrix held beside it: at least every
            // mid-kernel flush, so the high-water mark of a completed run
            // is the same for every thread count. A tripped run leaves
            // the gauge at the partial bytes already flushed.
            MemoryGauges::observe(
                &observer.memory().link_table,
                matrix_bytes + cast::usize_to_u64(table.estimated_bytes()),
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

    /// Mushroom-like rows: a few templates of `width` items, each row
    /// with some items swapped for noise — dense clustered graphs, where
    /// many linked pairs share many neighbors.
    fn clustered(rng: &mut crate::rng::Rng, n: usize) -> Vec<Transaction> {
        let width = 12u32;
        (0..n)
            .map(|_| {
                let template = rng.gen_range(0..4usize) as u32;
                Transaction::new((0..width).map(|a| {
                    if rng.gen_bool(0.15) {
                        1000 + rng.gen_range(0..40usize) as u32
                    } else {
                        template * width + a
                    }
                }))
            })
            .collect()
    }

    /// 2-item baskets over 120 items: most linked pairs share one or two
    /// neighbors.
    fn low_multiplicity(rng: &mut crate::rng::Rng, n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|_| {
                Transaction::new([
                    rng.gen_range(0..120usize) as u32,
                    rng.gen_range(0..120usize) as u32,
                ])
            })
            .collect()
    }

    /// Clustered rows with empty transactions (a clique of their own) and
    /// points that share no item with anyone.
    fn empties_and_isolated(rng: &mut crate::rng::Rng, n: usize) -> Vec<Transaction> {
        let mut rows = clustered(rng, n);
        for (i, row) in rows.iter_mut().enumerate() {
            match rng.gen_range(0..10usize) {
                0 => *row = Transaction::new(std::iter::empty::<u32>()),
                1 => *row = Transaction::new([5000 + 2 * i as u32, 5001 + 2 * i as u32]),
                _ => {}
            }
        }
        rows
    }

    /// Every row identical: the complete graph.
    fn complete(_: &mut crate::rng::Rng, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| Transaction::new([1, 2, 3])).collect()
    }

    impl Selection {
        /// `kernel` on `graph`, whatever the graph shows: the test hook
        /// that runs either kernel through [`LinkTable::compute_selected`].
        fn forced(graph: &NeighborGraph, kernel: Kernel) -> Self {
            let mut sel = Selection::lists(graph);
            if kernel == Kernel::Bits {
                let matrix = fill_matrix(graph, &Observer::new(), &Guard::unlimited());
                sel.matrix = Some(matrix.expect("an unlimited guard never trips"));
            }
            sel
        }
    }

    /// The kernel [`select`] picks for `graph` with no budget.
    fn chosen(graph: &NeighborGraph) -> Kernel {
        match select(graph, &Observer::new(), &Guard::unlimited()) {
            Ok(sel) => sel.kernel(),
            Err(trip) => panic!("an unlimited guard never trips: {trip:?}"),
        }
    }

    #[test]
    fn bit_kernel_list_kernel_and_selection_agree() {
        type Family = fn(&mut crate::rng::Rng, usize) -> Vec<Transaction>;
        let families: [(&str, Family); 4] = [
            ("clustered", clustered),
            ("low-multiplicity", low_multiplicity),
            ("empties+isolated", empties_and_isolated),
            ("complete", complete),
        ];
        let mut picked = [0usize; 2];
        for seed in 0..3u64 {
            for (name, family) in families {
                for n in [63usize, 64, 65, 127, 128, 129, 300] {
                    let mut rng = crate::rng::Rng::seed_from_u64(seed * 1000 + n as u64);
                    let rows = family(&mut rng, n);
                    for theta in [0.2, 0.3, 0.5, 0.8] {
                        let g = graph_of(rows.clone(), theta);
                        let ctx = format!("{name} seed {seed} n {n} θ {theta}");
                        let lists = Selection::forced(&g, Kernel::Lists);
                        let bits = Selection::forced(&g, Kernel::Bits);
                        // `None` runs the selection, as every caller does.
                        let run = |threads: usize, sel: Option<&Selection>| {
                            let obs = Observer::new();
                            let guard = Guard::unlimited();
                            let (table, trip) = match sel {
                                Some(sel) => {
                                    LinkTable::compute_selected(&g, sel, threads, &obs, &guard)
                                }
                                None => LinkTable::compute_guarded(&g, threads, &obs, &guard),
                            };
                            assert!(trip.is_none(), "{ctx}");
                            let c = obs.counters().snapshot();
                            let gauge = obs.memory().snapshot().link_table;
                            (table, c.link_kernel_steps, c.link_entries, gauge)
                        };
                        let oracle = run(1, Some(&lists));
                        let mut auto_gauge = None;
                        for threads in [1usize, 2, 4] {
                            for (kernel, sel) in [("lists", Some(&lists)), ("bits", Some(&bits))]
                                .into_iter()
                                .chain([("selected", None)])
                            {
                                let got = run(threads, sel);
                                let ctx = format!("{ctx} threads {threads} {kernel}");
                                assert_eq!(got.0, oracle.0, "rows: {ctx}");
                                for i in 0..n {
                                    assert_eq!(
                                        got.0.row(i).len(),
                                        oracle.0.row(i).len(),
                                        "row {i}: {ctx}"
                                    );
                                }
                                assert_eq!(
                                    got.0.estimated_bytes(),
                                    oracle.0.estimated_bytes(),
                                    "capacities: {ctx}"
                                );
                                assert_eq!(got.1, oracle.1, "kernel steps: {ctx}");
                                assert_eq!(got.2, oracle.2, "entries: {ctx}");
                                if sel.is_none() {
                                    // The completed-run gauge does not
                                    // depend on the workers.
                                    assert_eq!(*auto_gauge.get_or_insert(got.3), got.3, "{ctx}");
                                }
                            }
                        }
                        // The choice reads no thread count; with the bits
                        // chosen, the gauge is the forced bit kernel's.
                        let kernel = chosen(&g);
                        if kernel == Kernel::Bits {
                            assert_eq!(auto_gauge, Some(run(1, Some(&bits)).3), "{ctx}");
                        }
                        picked[usize::from(kernel == Kernel::Bits)] += 1;
                    }
                }
            }
        }
        // Both sides of the switch were exercised.
        assert!(
            picked[0] > 0 && picked[1] > 0,
            "lists/bits chosen: {picked:?}"
        );
    }

    #[test]
    fn selection_follows_the_memory_gate_the_multiplicity_test_and_the_ceiling() {
        let mut rng = crate::rng::Rng::seed_from_u64(7);
        let gauge = |g: &NeighborGraph, guard: &Guard| {
            let obs = Observer::new();
            let (_, trip) = LinkTable::compute_guarded(g, 1, &obs, guard);
            assert!(trip.is_none());
            obs.memory().snapshot().link_table
        };
        // Dense and clustered: the bit kernel, with the matrix counted in
        // the gauge beside the table.
        let g = graph_of(clustered(&mut rng, 500), 0.5);
        assert_eq!(chosen(&g), Kernel::Bits);
        let table = cast::usize_to_u64(LinkTable::compute(&g).estimated_bytes());
        let matrix = BitRows::bytes_for(500, 500);
        assert_eq!(gauge(&g, &Guard::unlimited()), matrix + table);
        // Under a memory ceiling, however loose, the lists run and the
        // matrix is never built: the gauge holds the table alone.
        let ceiling = Guard::new(crate::guard::RunBudget::unlimited().memory(u64::MAX));
        let sel = select(&g, &Observer::new(), &ceiling).unwrap();
        assert_eq!((sel.kernel(), sel.estimate), (Kernel::Lists, None));
        assert_eq!(gauge(&g, &ceiling), table);
        // Below density 1/32 the matrix is never built.
        let sparse: Vec<Transaction> = (0..500u32).map(|i| Transaction::new([i / 4])).collect();
        let g = graph_of(sparse, 0.5);
        assert!(BitRows::bytes_for(500, 500) > cast::usize_to_u64(4 * g.num_edges()));
        assert_eq!(chosen(&g), Kernel::Lists);
        assert_eq!(
            gauge(&g, &Guard::unlimited()),
            cast::usize_to_u64(LinkTable::compute(&g).estimated_bytes())
        );
        // Dense enough for the gate, but most linked pairs share one
        // neighbor: the lists.
        let g = graph_of(low_multiplicity(&mut rng, 3000), 0.3);
        assert!(BitRows::bytes_for(3000, 3000) <= cast::usize_to_u64(4 * g.num_edges()));
        assert_eq!(chosen(&g), Kernel::Lists);
    }

    #[test]
    fn injected_trip_stops_the_matrix_fill() {
        let mut rng = crate::rng::Rng::seed_from_u64(3);
        let g = graph_of(clustered(&mut rng, 400), 0.5);
        assert_eq!(chosen(&g), Kernel::Bits);
        let observer = Observer::new();
        let guard = Guard::unlimited().inject_trip_at(Phase::Links);
        let (table, trip) = LinkTable::compute_guarded(&g, 4, &observer, &guard);
        assert_eq!(
            trip.expect("the matrix fill polls the guard").phase,
            Phase::Links
        );
        // Tripped before either kernel ran.
        assert_eq!(table.num_entries(), 0);
        assert_eq!(observer.counters().snapshot().link_kernel_steps, 0);
    }

    #[test]
    fn injected_trip_stops_the_kernel_mid_phase() {
        let g = random_graph(0);
        let full_obs = Observer::new();
        let _ = LinkTable::compute_guarded(&g, 1, &full_obs, &Guard::unlimited());
        let full = full_obs.counters().snapshot().link_kernel_steps;
        for kernel in [Kernel::Lists, Kernel::Bits] {
            let sel = Selection::forced(&g, kernel);
            let observer = Observer::new();
            let guard = Guard::unlimited().inject_trip_at(Phase::Links);
            let (_, trip) = LinkTable::compute_selected(&g, &sel, 4, &observer, &guard);
            let trip = trip.expect("injected trip must surface from the workers");
            assert_eq!(trip.phase, Phase::Links, "{kernel:?}");
            // The workers stopped early: strictly fewer kernel steps than
            // the full run performs on this graph.
            let partial = observer.counters().snapshot().link_kernel_steps;
            assert!(
                partial < full,
                "{kernel:?}: partial {partial} vs full {full}"
            );
        }
    }

    #[test]
    fn memory_trip_stops_either_kernel_inside_its_workers() {
        // A ceiling just above what the kernel starts with (the matrix
        // for the bits, nothing for the lists) is crossed by the first
        // flushed stride of entries: the trip is raised inside the
        // workers, after some rows and before all of them.
        let mut rng = crate::rng::Rng::seed_from_u64(5);
        let g = graph_of(clustered(&mut rng, 600), 0.5);
        let full_obs = Observer::new();
        let (full_table, _) = LinkTable::compute_guarded(&g, 1, &full_obs, &Guard::unlimited());
        let full = full_obs.counters().snapshot();
        for kernel in [Kernel::Lists, Kernel::Bits] {
            let sel = Selection::forced(&g, kernel);
            let start = sel.matrix.as_ref().map_or(0, BitRows::bytes);
            for threads in [2usize, 4] {
                let ctx = format!("{kernel:?} threads {threads}");
                let observer = Observer::new();
                let guard = Guard::new(crate::guard::RunBudget::unlimited().memory(start + 512));
                let (table, trip) =
                    LinkTable::compute_selected(&g, &sel, threads, &observer, &guard);
                let trip = trip.expect("the ceiling is crossed mid-kernel");
                assert_eq!(trip.phase, Phase::Links, "{ctx}");
                assert!(
                    matches!(trip.reason, crate::guard::TripReason::MemoryBudget { .. }),
                    "{ctx}"
                );
                let c = observer.counters().snapshot();
                assert!(
                    0 < c.link_kernel_steps && c.link_kernel_steps < full.link_kernel_steps,
                    "{ctx}: {} of {} steps",
                    c.link_kernel_steps,
                    full.link_kernel_steps
                );
                assert!(c.link_entries < full.link_entries, "{ctx}");
                // Every row the workers finished is the full table's row.
                for i in 0..g.len() {
                    let row = table.row(i);
                    assert!(row.is_empty() || row == full_table.row(i), "{ctx}: row {i}");
                }
            }
        }
    }
}
