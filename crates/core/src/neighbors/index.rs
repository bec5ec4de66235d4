//! Inverted-index set-similarity join for the neighbor phase
//! (DESIGN.md §17).
//!
//! The brute-force scan evaluates `sim(p, q)` for all `n·(n−1)` ordered
//! pairs. For the count-based measures ([`SimilarityKind`]) the neighbor
//! predicate `sim(p, q) ≥ θ` only depends on `(|P ∩ Q|, |P|, |Q|)`, which
//! admits the classic all-pairs join: generate few candidates from an
//! inverted index over the interned vocabulary, prune with exact
//! per-kind bounds, and verify survivors with the very same
//! [`SimilarityKind::sim_from_counts`] the brute scan evaluates — so the
//! joined graph is byte-identical to the scan by construction.
//!
//! * **Global item order** — items are ranked by (frequency ascending,
//!   item id ascending); rare items first makes prefixes selective.
//! * **Prefix filter** — for a row of length `a`, only its `π(a) = a −
//!   t_lb(a) + 1` smallest-ranked items are indexed and probed, where
//!   `t_lb(a)` is the smallest intersection any partner length present
//!   in the dataset could need. `t_min(a, b)` (the least intersection
//!   with `sim_from_counts(t, a, b) ≥ θ`) is [`SimilarityKind::t_min`]'s
//!   binary search — every kind is monotone in the intersection — so no
//!   analytic ceil can drift from the verification predicate.
//! * **Size filter** — a candidate `(a, b)` survives only when the best
//!   possible similarity `sim_from_counts(min(a, b), a, b)` reaches θ.
//!   This is exact for Jaccard (`|T2| ≥ θ·|T1|`), Dice, overlap and
//!   cosine alike because it evaluates the measure itself.
//! * **Bounded verification** — survivors are checked in the threshold
//!   form `|Ti ∩ Tj| ≥ t_min(a, b)` (a table lookup over the distinct
//!   lengths). Vocabularies up to [`MAX_DENSE_UNIVERSE`] verify on a
//!   row-major bit-packed rank matrix (`AND` + popcount per candidate
//!   pair); larger ones use a sorted merge that exits at the `t_min`-th
//!   match or as soon as the remainder cannot reach it. Either way the
//!   decision is exactly the brute predicate's.
//! * **Empty rows** — kept out of the index and handled by predicate:
//!   `sim_from_counts(0, a, 0)` decides empty↔nonempty pairs (1.0 for
//!   the overlap coefficient, which makes empty rows neighbor
//!   everything; 0.0 elsewhere) and empty↔empty pairs are similarity 1.
//!
//! Candidate generation shards over [`shard::fan_out`] exactly like the
//! link kernel (DESIGN.md §13): contiguous row ranges balanced by the
//! estimated candidate work, disjoint output slices, [`Guard`] polling
//! every [`GUARD_STRIDE`] rows, posting/edge bytes streamed into the
//! neighbor-graph gauge, and per-worker tallies summed in spawn order —
//! the graph and every counter are byte-identical for any thread count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cast;
use crate::data::TransactionSet;
use crate::guard::{Guard, Trip};
use crate::labeling::MAX_DENSE_UNIVERSE;
use crate::shard;
use crate::snapshot::SimilarityKind;
use crate::telemetry::trace::{LatencyHistogram, Payload};
use crate::telemetry::{MemoryGauges, Observer, Phase, PipelineCounters};

/// How often (in rows) the index build and every probe worker poll the
/// guard and flush byte tallies into the memory gauge. Same stride as
/// the link kernel, for the same reason: responsive trips at a cost
/// that does not register next to the kernel work.
const GUARD_STRIDE: usize = 64;

/// The built inverted index: per-row prefix ranks and posting lists of
/// rows per prefix rank, plus the row metadata the probe needs.
struct JoinIndex {
    /// Transaction length per row.
    lengths: Vec<u32>,
    /// Rows with no items, ascending (kept out of the postings).
    empties: Vec<u32>,
    /// Flat storage of each row's prefix ranks, ascending per row.
    ranked: Vec<u32>,
    /// Row `i`'s prefix ranks live at `ranked[row_start[i]..row_start[i+1]]`.
    row_start: Vec<usize>,
    /// Flat posting storage: probing rows (ascending) per rank.
    post: Vec<u32>,
    /// Rank `r`'s posting list lives at `post[post_start[r]..post_start[r+1]]`.
    post_start: Vec<usize>,
    /// Dense index of each occurring length into the `t_min` table.
    len_idx: Vec<u32>,
    /// Number of distinct nonzero lengths (the `t_min` table's side).
    distinct_lens: usize,
    /// `t_min` per distinct length pair, row-major over `len_idx`
    /// (`u32::MAX` where no intersection reaches θ — the size filter
    /// prunes those pairs before the table is consulted).
    tmin_tab: Vec<u32>,
    /// Bit-matrix words per row (0 when the vocabulary exceeds
    /// [`MAX_DENSE_UNIVERSE`] and verification falls back to the merge).
    words_per_row: usize,
    /// Row-major bit matrix over ranks: row `i` occupies
    /// `dense[i·words_per_row..(i+1)·words_per_row]`.
    dense: Vec<u64>,
    /// Estimated bytes held by the persistent index buffers (streamed
    /// into the neighbor-graph gauge alongside the growing edge lists).
    bytes: u64,
}

impl JoinIndex {
    fn prefix_ranks(&self, i: usize) -> &[u32] {
        &self.ranked[self.row_start[i]..self.row_start[i + 1]]
    }

    fn posting(&self, r: u32) -> &[u32] {
        let r = cast::u32_to_usize(r);
        &self.post[self.post_start[r]..self.post_start[r + 1]]
    }

    /// Table lookup of [`SimilarityKind::t_min`] for two nonzero row lengths.
    fn t_min_for(&self, a: u32, b: u32) -> u32 {
        let ia = cast::u32_to_usize(self.len_idx[cast::u32_to_usize(a)]);
        let ib = cast::u32_to_usize(self.len_idx[cast::u32_to_usize(b)]);
        self.tmin_tab[ia * self.distinct_lens + ib]
    }

    /// Exact `|Ti ∩ Tj|` over the bit matrix — ranks are a bijection of
    /// the interned items, so the popcount equals the set intersection.
    fn dense_intersection(&self, i: usize, j: usize) -> usize {
        let w = self.words_per_row;
        let ri = &self.dense[i * w..(i + 1) * w];
        let rj = &self.dense[j * w..(j + 1) * w];
        ri.iter()
            .zip(rj)
            .map(|(x, y)| cast::u32_to_usize((x & y).count_ones()))
            .sum()
    }
}

/// Exact bounded-merge verification: does `|x ∩ y|` reach `t`? With
/// `t = t_min(|x|, |y|)` this is the threshold form of the verification
/// predicate — monotonicity makes `sim_from_counts(|x ∩ y|, …) ≥ θ`
/// and `|x ∩ y| ≥ t_min` the same decision — but the merge stops the
/// moment the outcome is settled in either direction: accepted at the
/// `t`-th match, rejected once the shorter remainder cannot close the
/// gap. The early exits are what make low-θ verification affordable
/// (at θ = 0.5 most candidate pairs survive the filters, so nearly
/// every pair used to pay for a full merge).
fn intersects_at_least(x: &[u32], y: &[u32], t: usize) -> bool {
    if t == 0 {
        return true;
    }
    let (mut ix, mut iy, mut seen) = (0usize, 0usize, 0usize);
    // rock-analyze: allow(guard-loop) — bounded: every iteration advances ix or iy.
    while seen + (x.len() - ix).min(y.len() - iy) >= t {
        match x[ix].cmp(&y[iy]) {
            std::cmp::Ordering::Equal => {
                seen += 1;
                if seen == t {
                    return true;
                }
                ix += 1;
                iy += 1;
            }
            std::cmp::Ordering::Less => ix += 1,
            std::cmp::Ordering::Greater => iy += 1,
        }
    }
    false
}

fn vec_bytes<T>(v: &[T]) -> u64 {
    cast::usize_to_u64(std::mem::size_of_val(v))
}

/// Builds the index sequentially, polling the guard between passes and
/// every [`GUARD_STRIDE`] rows inside them, with all live build buffers
/// flushed into the neighbor-graph gauge at each poll — a memory ceiling
/// can trip *while* the index grows. Returns the trip instead of the
/// index when one fires.
fn build(
    data: &TransactionSet,
    kind: SimilarityKind,
    theta: f64,
    observer: &Observer,
    guard: &Guard,
) -> Result<JoinIndex, Trip> {
    let n = data.len();
    let tracer = observer.tracer();
    let span = tracer.begin();
    let poll = |live: u64| -> Option<Trip> {
        MemoryGauges::observe(&observer.memory().neighbor_graph, live);
        guard.checkpoint(Phase::Neighbors, observer)
    };

    // Pass 1: row lengths and empty rows.
    let mut lengths: Vec<u32> = Vec::with_capacity(n);
    let mut empties: Vec<u32> = Vec::new();
    let mut total_items = 0usize;
    for (i, t) in data.iter().enumerate() {
        lengths.push(cast::usize_to_u32(t.len()));
        total_items += t.len();
        if t.is_empty() {
            empties.push(cast::usize_to_u32(i));
        }
    }
    let base = vec_bytes(&lengths) + vec_bytes(&empties);
    if let Some(trip) = poll(base) {
        return Err(trip);
    }

    // Pass 2: vocabulary with frequencies (sort one flat copy of all
    // items; runs of equal items give the counts).
    let mut all: Vec<u32> = Vec::with_capacity(total_items);
    for t in data.iter() {
        all.extend_from_slice(t.items());
    }
    all.sort_unstable();
    let mut vocab: Vec<u32> = Vec::new();
    let mut freq: Vec<u32> = Vec::new();
    for &item in &all {
        if vocab.last() == Some(&item) {
            // rock-analyze: allow(core-unwrap) — vocab.last() matched, so freq (grown in lockstep) is nonempty.
            let f = freq.last_mut().expect("freq tracks vocab");
            *f += 1;
        } else {
            vocab.push(item);
            freq.push(1);
        }
    }
    let base = base + vec_bytes(&all) + vec_bytes(&vocab) + vec_bytes(&freq);
    if let Some(trip) = poll(base) {
        return Err(trip);
    }

    // Pass 3: global rank of each vocabulary slot — frequency ascending,
    // item id ascending — so prefixes hold the rarest items.
    let num_items = vocab.len();
    let mut order: Vec<u32> = (0..num_items).map(cast::usize_to_u32).collect();
    order.sort_unstable_by_key(|&v| (freq[cast::u32_to_usize(v)], vocab[cast::u32_to_usize(v)]));
    let mut rank_of: Vec<u32> = vec![0; num_items];
    for (r, &v) in order.iter().enumerate() {
        rank_of[cast::u32_to_usize(v)] = cast::usize_to_u32(r);
    }
    drop(order);

    // Pass 4: the t_min table over distinct lengths (the probe's bounded
    // verification reads it per candidate) and per-length prefix
    // lengths. For each distinct length `a`, `t_lb(a)` is the least
    // intersection any partner length in the dataset could require; the
    // prefix `π(a) = a − t_lb(a) + 1` is then long enough for every
    // qualifying pair (a longer prefix is always safe, and `t_lb(a) ≥ 1`
    // because θ > 0).
    let mut distinct: Vec<usize> = lengths
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| cast::u32_to_usize(l))
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let max_len = distinct.last().copied().unwrap_or(0);
    let distinct_lens = distinct.len();
    let mut len_idx: Vec<u32> = vec![0; max_len + 1];
    for (ix, &a) in distinct.iter().enumerate() {
        len_idx[a] = cast::usize_to_u32(ix);
    }
    let mut tmin_tab: Vec<u32> = vec![u32::MAX; distinct_lens * distinct_lens];
    let mut prefix_by_len: Vec<u32> = vec![0; max_len + 1];
    for (ia, &a) in distinct.iter().enumerate() {
        for (ib, &b) in distinct.iter().enumerate() {
            if let Some(t) = kind.t_min(theta, a, b) {
                tmin_tab[ia * distinct_lens + ib] = cast::usize_to_u32(t);
            }
        }
        let t_lb = tmin_tab[ia * distinct_lens..(ia + 1) * distinct_lens]
            .iter()
            .filter(|&&t| t != u32::MAX)
            .map(|&t| cast::u32_to_usize(t))
            .min()
            // `t_min(a, a)` always exists: sim_from_counts(a, a, a) = 1 ≥ θ.
            .unwrap_or(a)
            .max(1);
        prefix_by_len[a] = cast::usize_to_u32(a - t_lb + 1);
    }
    let base = base
        + vec_bytes(&rank_of)
        + vec_bytes(&prefix_by_len)
        + vec_bytes(&len_idx)
        + vec_bytes(&tmin_tab);
    if let Some(trip) = poll(base) {
        return Err(trip);
    }

    // Pass 5: each row's prefix ranks (its π(len) smallest-ranked
    // items) and, for vocabularies up to MAX_DENSE_UNIVERSE, the bit
    // matrix over full ranked rows that verification popcounts.
    let words_per_row = if num_items <= MAX_DENSE_UNIVERSE {
        num_items.div_ceil(64)
    } else {
        0
    };
    let mut dense: Vec<u64> = vec![0; n * words_per_row];
    let mut ranked: Vec<u32> = Vec::new();
    let mut row_start: Vec<usize> = Vec::with_capacity(n + 1);
    row_start.push(0);
    let mut buf: Vec<u32> = Vec::new();
    let base = base + vec_bytes(&dense);
    for (i, t) in data.iter().enumerate() {
        if i.is_multiple_of(GUARD_STRIDE) {
            if let Some(trip) = poll(base + vec_bytes(&ranked)) {
                return Err(trip);
            }
        }
        buf.clear();
        for &item in t.items() {
            // rock-analyze: allow(core-unwrap) — pass 2 interned every item of every row into vocab.
            let v = vocab.binary_search(&item).expect("item interned in pass 2");
            buf.push(rank_of[v]);
        }
        buf.sort_unstable();
        if words_per_row > 0 {
            let row_w = i * words_per_row;
            for &r in &buf {
                let r = cast::u32_to_usize(r);
                dense[row_w + r / 64] |= 1u64 << (r % 64);
            }
        }
        let pi = cast::u32_to_usize(prefix_by_len[t.len()]);
        ranked.extend_from_slice(&buf[..pi.min(buf.len())]);
        row_start.push(ranked.len());
    }
    drop(all);
    let base = base + vec_bytes(&ranked) + vec_bytes(&row_start);
    if let Some(trip) = poll(base) {
        return Err(trip);
    }

    // Pass 6: posting lists, rank → probing rows. Counting layout plus an
    // ascending fill keeps every list sorted by row id with no per-list
    // allocation.
    let mut counts: Vec<usize> = vec![0; num_items];
    for &r in &ranked {
        counts[cast::u32_to_usize(r)] += 1;
    }
    let mut post_start: Vec<usize> = Vec::with_capacity(num_items + 1);
    post_start.push(0);
    let mut acc = 0usize;
    for &c in &counts {
        acc += c;
        post_start.push(acc);
    }
    let mut cursor = post_start.clone();
    let mut post: Vec<u32> = vec![0; acc];
    for i in 0..n {
        if i.is_multiple_of(GUARD_STRIDE) {
            if let Some(trip) = poll(base + vec_bytes(&post) + vec_bytes(&post_start) * 2) {
                return Err(trip);
            }
        }
        for &r in &ranked[row_start[i]..row_start[i + 1]] {
            let c = &mut cursor[cast::u32_to_usize(r)];
            post[*c] = cast::usize_to_u32(i);
            *c += 1;
        }
    }
    drop(cursor);
    drop(counts);

    let index = JoinIndex {
        bytes: vec_bytes(&lengths)
            + vec_bytes(&empties)
            + vec_bytes(&ranked)
            + vec_bytes(&row_start)
            + vec_bytes(&post)
            + vec_bytes(&post_start)
            + vec_bytes(&len_idx)
            + vec_bytes(&tmin_tab)
            + vec_bytes(&dense),
        lengths,
        empties,
        ranked,
        row_start,
        post,
        post_start,
        len_idx,
        distinct_lens,
        tmin_tab,
        words_per_row,
        dense,
    };
    MemoryGauges::observe(&observer.memory().neighbor_graph, index.bytes);
    if let Some(trip) = guard.checkpoint(Phase::Neighbors, observer) {
        return Err(trip);
    }
    if let Some(s) = span {
        tracer.end(
            s,
            "neighbors.index",
            Some(Phase::Neighbors),
            0,
            Payload::new()
                .count("rows", cast::usize_to_u64(n))
                .count("items", cast::usize_to_u64(num_items))
                .count("postings", cast::usize_to_u64(index.post.len()))
                .count("bytes", index.bytes),
        );
    }
    Ok(index)
}

/// Shared state of one sharded probe: the early-exit broadcast flag and
/// the cross-worker edge tally feeding the memory gauge on top of the
/// (constant) index footprint.
struct ProbeState<'a> {
    stop: AtomicBool,
    partial_edges: AtomicU64,
    index_bytes: u64,
    done_rows: AtomicU64,
    total_rows: u64,
    observer: &'a Observer,
    guard: &'a Guard,
}

impl ProbeState<'_> {
    /// Worker poll: flushes `delta` freshly stored edges into the shared
    /// gauge (index bytes + edge payload bytes — always at or below the
    /// finished graph high-water, so the mark stays deterministic) and
    /// consults the guard. Returns the trip, if any, after broadcasting
    /// stop to the other workers.
    fn poll(&self, delta: u64) -> Option<Trip> {
        let edges = delta + self.partial_edges.fetch_add(delta, Ordering::Relaxed);
        MemoryGauges::observe(
            &self.observer.memory().neighbor_graph,
            self.index_bytes + edges * cast::usize_to_u64(std::mem::size_of::<u32>()),
        );
        if self.stop.load(Ordering::Relaxed) {
            return None; // another worker already tripped and reported
        }
        let trip = self.guard.checkpoint(Phase::Neighbors, self.observer)?;
        self.stop.store(true, Ordering::Relaxed);
        Some(trip)
    }
}

/// Per-worker tallies of one [`probe_range`] call. Summed in spawn order
/// by [`compute`], so the flushed counters are deterministic for every
/// thread count.
struct ProbeResult {
    candidates: u64,
    pruned: u64,
    verified: u64,
    edges: u64,
    trip: Option<Trip>,
    /// Per-stride-batch latencies (empty unless tracing was enabled).
    batch_ns: LatencyHistogram,
}

/// Probes rows `start..start + out.len()` against the index, writing each
/// row's sorted neighbor list into its slot of `out` and polling the
/// guard every [`GUARD_STRIDE`] rows. When tracing is enabled it emits
/// one `neighbors.probe` span and fills the per-stride-batch histogram.
#[allow(clippy::too_many_arguments)] // mirrors the link kernel's compute_range
fn probe_range(
    data: &TransactionSet,
    index: &JoinIndex,
    kind: SimilarityKind,
    theta: f64,
    worker: u64,
    start: usize,
    out: &mut [Vec<u32>],
    state: &ProbeState<'_>,
) -> ProbeResult {
    let tracer = state.observer.tracer();
    let shard_span = tracer.begin();
    let mut watch = tracer.stopwatch();
    let mut batch_ns = LatencyHistogram::new();
    let n = index.lengths.len();
    // Stamp-based candidate dedup: `stamp[j] == tick` marks j as already
    // collected for the current probing row; no clearing between rows.
    let mut stamp: Vec<u32> = vec![0; n];
    let mut tick: u32 = 0;
    let mut cand: Vec<u32> = Vec::new();
    let mut candidates = 0u64;
    let mut pruned = 0u64;
    let mut verified = 0u64;
    let mut edges = 0u64;
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
        let i = start + off;
        let a = cast::u32_to_usize(index.lengths[i]);
        if a == 0 {
            // Empty rows sit outside the postings: decide every pair by
            // the measure's empty-set definition (overlap: 1.0 against
            // everything; the rest: 1.0 only against other empties).
            for (j, &len_j) in index.lengths.iter().enumerate() {
                if j != i && kind.sim_from_counts(0, 0, cast::u32_to_usize(len_j)) >= theta {
                    row.push(cast::usize_to_u32(j));
                }
            }
        } else if let Some(ti) = data.transaction(i) {
            tick += 1;
            cand.clear();
            for &r in index.prefix_ranks(i) {
                for &j in index.posting(r) {
                    if cast::u32_to_usize(j) != i && stamp[cast::u32_to_usize(j)] != tick {
                        stamp[cast::u32_to_usize(j)] = tick;
                        cand.push(j);
                    }
                }
            }
            candidates += cast::usize_to_u64(cand.len());
            for &j in &cand {
                let b = cast::u32_to_usize(index.lengths[cast::u32_to_usize(j)]);
                // Exact size filter: the best similarity these lengths
                // allow, by the verification predicate itself.
                if kind.sim_from_counts(a.min(b), a, b) < theta {
                    pruned += 1;
                    continue;
                }
                verified += 1;
                // Threshold form of `sim_from_counts(|Ti ∩ Tj|, a, b) ≥ θ`
                // — the size filter passed, so t_min exists for (a, b).
                let t = cast::u32_to_usize(
                    index.t_min_for(index.lengths[i], index.lengths[cast::u32_to_usize(j)]),
                );
                let hit = if index.words_per_row > 0 {
                    index.dense_intersection(i, cast::u32_to_usize(j)) >= t
                } else if let Some(tj) = data.transaction(cast::u32_to_usize(j)) {
                    intersects_at_least(ti.items(), tj.items(), t)
                } else {
                    false
                };
                if hit {
                    row.push(j);
                }
            }
            if !index.empties.is_empty() && kind.sim_from_counts(0, a, 0) >= theta {
                row.extend_from_slice(&index.empties);
            }
            row.sort_unstable();
        }
        edges += cast::usize_to_u64(row.len());
        unflushed += cast::usize_to_u64(row.len());
        rows_done += 1;
        rows_since_lap += 1;
    }
    if rows_since_lap > 0 {
        if let Some(w) = watch.as_mut() {
            batch_ns.record(w.lap_ns());
        }
    }
    state.partial_edges.fetch_add(unflushed, Ordering::Relaxed);
    let done = rows_done + state.done_rows.fetch_add(rows_done, Ordering::Relaxed);
    state
        .observer
        .progress(Phase::Neighbors, done, state.total_rows);
    if let Some(span) = shard_span {
        tracer.end(
            span,
            "neighbors.probe",
            Some(Phase::Neighbors),
            worker,
            Payload::new()
                .count("start", cast::usize_to_u64(start))
                .count("rows", rows_done)
                .count("candidates", candidates)
                .count("edges", edges),
        );
    }
    ProbeResult {
        candidates,
        pruned,
        verified,
        edges,
        trip,
        batch_ns,
    }
}

/// Computes the θ-neighbor lists of every row via the inverted-index
/// join, sharded over `threads` workers. Returns the lists together with
/// the trip that stopped the kernel, if any — on a trip the lists cover
/// only the completed prefix of each shard and the caller is expected to
/// discard them (the pipeline degrades to an all-outlier partition).
pub(super) fn compute(
    data: &TransactionSet,
    kind: SimilarityKind,
    theta: f64,
    threads: usize,
    observer: &Observer,
    guard: &Guard,
) -> (Vec<Vec<u32>>, Option<Trip>) {
    let n = data.len();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    let index = match build(data, kind, theta, observer, guard) {
        Ok(index) => index,
        Err(trip) => return (lists, Some(trip)),
    };

    // Estimated candidate work per row: posting lengths over the probe
    // prefix (empty rows scan the length table instead). Purely a
    // function of the index, so the shard partition is deterministic.
    let bounds = shard::weighted_bounds(n, threads, |i| {
        if index.lengths[i] == 0 {
            1 + cast::usize_to_u64(n)
        } else {
            1 + index
                .prefix_ranks(i)
                .iter()
                .map(|&r| cast::usize_to_u64(index.posting(r).len()))
                .sum::<u64>()
        }
    });
    let state = ProbeState {
        stop: AtomicBool::new(false),
        partial_edges: AtomicU64::new(0),
        index_bytes: index.bytes,
        done_rows: AtomicU64::new(0),
        total_rows: cast::usize_to_u64(n),
        observer,
        guard,
    };
    let results = shard::fan_out(&mut lists, &bounds, |worker, start, slice| {
        probe_range(data, &index, kind, theta, worker, start, slice, &state)
    });
    let mut candidates = 0u64;
    let mut pruned = 0u64;
    let mut verified = 0u64;
    let mut edges = 0u64;
    let mut trip: Option<Trip> = None;
    for (w, result) in results.into_iter().enumerate() {
        candidates += result.candidates;
        pruned += result.pruned;
        verified += result.verified;
        edges += result.edges;
        trip = trip.or(result.trip);
        if result.batch_ns.count() > 0 {
            observer.tracer().record_hist(
                "neighbors.probe_ns",
                Some(cast::usize_to_u64(w)),
                &result.batch_ns,
            );
        }
    }
    // Deterministic closing observe: every mid-probe poll reported
    // `index.bytes + partial·4` with `partial ≤ edges`, so this value
    // dominates them all and the high-water mark of a completed join is
    // identical for every thread count (a tripped run skips it — its
    // partial marks are not part of the determinism contract).
    if trip.is_none() {
        MemoryGauges::observe(
            &observer.memory().neighbor_graph,
            index.bytes + edges * cast::usize_to_u64(std::mem::size_of::<u32>()),
        );
    }
    let counters = observer.counters();
    PipelineCounters::add(&counters.neighbor_candidates, candidates);
    PipelineCounters::add(&counters.neighbor_candidates_pruned, pruned);
    PipelineCounters::add(&counters.neighbor_pairs_verified, verified);
    // Each verified candidate is one similarity evaluation — the same
    // unit the brute-force scan counts, just far fewer of them.
    PipelineCounters::add(&counters.similarity_comparisons, verified);
    PipelineCounters::add(&counters.neighbor_edges, edges);
    (lists, trip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_merge_decides_exactly_the_intersection_threshold() {
        // Every sorted deduplicated pair of small sets, every bound t:
        // the early-exit merge must agree with the full intersection.
        let sets: Vec<Vec<u32>> = vec![
            vec![],
            vec![1],
            vec![1, 2, 3],
            vec![2, 4, 6, 8],
            vec![1, 3, 5, 7, 9],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
            vec![9, 10, 11],
            vec![3, 8, 12, 20, 21],
        ];
        for x in &sets {
            for y in &sets {
                let full = x.iter().filter(|i| y.contains(i)).count();
                for t in 0..=(x.len().min(y.len()) + 1) {
                    assert_eq!(
                        intersects_at_least(x, y, t),
                        full >= t,
                        "x={x:?} y={y:?} t={t}"
                    );
                }
            }
        }
    }
}
