//! The ROCK agglomerative merge engine (paper §4, procedure `cluster`).
//!
//! Every point starts as a singleton cluster. Each cluster `i` owns a
//! *link row* (partner → cross-link count and merge goodness) and a
//! *local heap* `q[i]` of its partners ordered by goodness; a *global
//! heap* `Q` orders clusters by the goodness of their best local merge.
//! Each iteration merges the globally best pair `(u, v)`, folds `v`'s row
//! into `u`'s, and repairs every partner of the merged cluster —
//! `O(links touched · log n)` per merge, the bookkeeping the paper
//! describes.
//!
//! The constant factor is kept small in three ways:
//! * Link rows are hash maps under a one-multiply slot-id hasher, so a
//!   row update is one integer hash, never SipHash.
//! * Local heaps are *lazy*: a partner repair pushes the new key and
//!   leaves the old one in place. A key whose partner is gone, or whose
//!   goodness bits differ from the row's, is stale and dropped when it
//!   surfaces. Each heap caches its best live key, so a repair rescans
//!   only when that best pointed at `u` or `v`, and a heap is rebuilt
//!   from its row once stale keys outnumber live ones. The kept
//!   cluster's heap is heapified from its merged row in `O(row)`.
//! * The global heap is an [`IndexedHeap`] over the dense slot ids.
//!
//! The merge order is a pure function of the strict [`GoodnessKey`]
//! order, so the result is identical to an eager engine's; the test-only
//! `oracle` module keeps the eager engine and checks exactly that.
//!
//! The loop stops when the requested number of clusters is reached or when
//! no cross-cluster links remain (the paper's termination condition; the
//! leftover link-free clusters cannot be merged meaningfully).
//!
//! Outlier handling follows paper §4.3: optionally, when the number of
//! clusters first falls to a checkpoint fraction of the starting count,
//! clusters that are still very small are discarded — outliers tend to form
//! singletons or tiny groups that stop participating in merges early.

use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

use crate::cast;
use crate::contracts;
use crate::error::{Result, RockError};
use crate::goodness::Goodness;
use crate::guard::{Guard, Trip};
use crate::heap::IndexedHeap;
use crate::links::LinkTable;
use crate::telemetry::trace::{LatencyHistogram, Payload, Tracer};
use crate::telemetry::{MemoryGauges, Observer, Phase, PipelineCounters};

/// Merges per trace span / histogram sample in the instrumented merge
/// loop: small enough to localize a slow stretch, large enough to keep
/// trace volume at ~1/64 of the merge count.
const MERGE_BATCH: u64 = 64;

/// The workspace's **single audited total order over floating-point
/// goodness values**.
///
/// Floats are only partially ordered (`NaN` compares to nothing), and a
/// `partial_cmp(..).unwrap()` on a NaN goodness would panic mid-merge —
/// or worse, a silent `unwrap_or` tie-break would scramble the merge
/// order nondeterministically. `GoodnessOrd` closes that hole once, for
/// everyone: construction debug-asserts the value is not NaN (goodness
/// denominators are proven positive in [`Goodness`]), and ordering is
/// IEEE 754 `total_cmp`, which is total even if a NaN slips through a
/// release build.
///
/// The `float-ord` lint (`crates/analysis`) bans `partial_cmp` and raw
/// float `Ord` shims everywhere else in the workspace; float orderings
/// must route through this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodnessOrd(f64);

impl GoodnessOrd {
    /// Wraps a goodness/score value, debug-asserting it is not NaN.
    #[inline]
    pub fn new(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "ordered float value must not be NaN");
        GoodnessOrd(value)
    }

    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for GoodnessOrd {}

impl Ord for GoodnessOrd {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for GoodnessOrd {
    #[inline]
    // rock-analyze: allow(float-ord) — the audited site: delegates to total_cmp, non-NaN is debug-asserted at construction.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Totally ordered heap key: goodness value with a deterministic id
/// tie-break (smaller id wins ties, so runs are reproducible). Ordering
/// is derived lexicographically over ([`GoodnessOrd`], reversed id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GoodnessKey {
    goodness: GoodnessOrd,
    tie: std::cmp::Reverse<u32>,
}

impl GoodnessKey {
    /// Creates a key; `goodness` must not be NaN (debug-asserted by
    /// [`GoodnessOrd::new`]).
    #[inline]
    pub fn new(goodness: f64, tie: u32) -> Self {
        GoodnessKey {
            goodness: GoodnessOrd::new(goodness),
            tie: std::cmp::Reverse(tie),
        }
    }

    /// The goodness value.
    #[inline]
    pub fn goodness(self) -> f64 {
        self.goodness.get()
    }

    /// The tie-breaking id.
    #[inline]
    pub fn tie(self) -> u32 {
        self.tie.0
    }
}

/// Outlier pruning policy applied during merging (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneConfig {
    /// When the live cluster count first drops to
    /// `ceil(checkpoint_fraction · n)`, pruning fires. The paper suggests
    /// around 1/3.
    pub checkpoint_fraction: f64,
    /// Clusters with at most this many members are discarded at the
    /// checkpoint (the paper suggests 1–2 points).
    pub max_prune_size: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            checkpoint_fraction: 1.0 / 3.0,
            max_prune_size: 2,
        }
    }
}

/// Configuration for [`agglomerate`].
#[derive(Debug, Clone)]
pub struct AgglomerateConfig {
    /// Target number of clusters.
    pub k: usize,
    /// Optional mid-run outlier pruning.
    pub prune: Option<PruneConfig>,
    /// Record the merge history (one [`MergeStep`] per merge).
    pub record_history: bool,
    /// Stop early once the best available merge's goodness falls below
    /// this value (the paper's alternative termination condition when the
    /// natural cluster count is unknown). `None` disables it.
    pub min_goodness: Option<f64>,
}

impl AgglomerateConfig {
    /// Plain configuration: merge down to `k`, no pruning, keep history.
    pub fn new(k: usize) -> Self {
        AgglomerateConfig {
            k,
            prune: None,
            record_history: true,
            min_goodness: None,
        }
    }

    /// Sets the early-stop goodness threshold.
    pub fn min_goodness(mut self, threshold: f64) -> Self {
        self.min_goodness = Some(threshold);
        self
    }
}

/// One merge performed by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeStep {
    /// Cluster slot that survived the merge.
    pub kept: u32,
    /// Cluster slot folded into `kept`.
    pub absorbed: u32,
    /// Goodness of the merged pair.
    pub goodness: f64,
    /// Sizes of `(kept, absorbed)` before the merge.
    pub sizes: (u32, u32),
    /// Value of the criterion function E_l after the merge.
    pub criterion: f64,
}

/// Result of a run of the merge engine.
#[derive(Debug, Clone)]
pub struct Agglomeration {
    /// For each input point, the dense output cluster index, or `None` if
    /// the point was pruned as an outlier.
    pub assignment: Vec<Option<u32>>,
    /// Member point indices per output cluster, each sorted ascending.
    /// Clusters are ordered by decreasing size (ties by smallest member).
    pub clusters: Vec<Vec<u32>>,
    /// Merge history (empty unless `record_history`).
    pub history: Vec<MergeStep>,
    /// Final value of the criterion function E_l.
    pub criterion: f64,
    /// Number of merges performed (counted even when history is off).
    pub merges: usize,
    /// `true` if the engine reached exactly `k` clusters; `false` if it
    /// stopped early because no cross-cluster links remained.
    pub reached_k: bool,
    /// Points pruned as outliers during merging.
    pub outliers: Vec<u32>,
}

/// Runs the ROCK merge engine over `n` points with the given link table
/// (no telemetry, no budget).
///
/// # Errors
/// * [`RockError::EmptyDataset`] when `n == 0`.
/// * [`RockError::InvalidK`] when `k` is 0 or exceeds `n`.
pub fn agglomerate(
    n: usize,
    links: &LinkTable,
    goodness: &Goodness,
    config: &AgglomerateConfig,
) -> Result<Agglomeration> {
    agglomerate_guarded(
        n,
        links,
        goodness,
        config,
        &Observer::new(),
        &Guard::unlimited(),
    )
    .map(|(agg, _)| agg)
}

/// [`agglomerate`] with telemetry and under a [`Guard`]. Merges, heap
/// push/pop totals (summed over the global and every local heap) and
/// pruned outliers flow into `observer`'s counters, and the combined heap
/// footprint into its memory gauge. The merge loop calls
/// [`Guard::merge_tick`] before every merge, so a step budget of `s`
/// permits exactly `s` merges, cancellation takes effect within one merge,
/// and a deadline is sampled periodically. On a trip the engine stops
/// cleanly — telemetry still flushes and the partial result is a valid
/// partition (ROCK is an anytime algorithm: every prefix of the merge
/// sequence is a consistent clustering). Returns the agglomeration plus
/// the trip, if one occurred.
///
/// # Errors
/// Same as [`agglomerate`]; a budget trip is **not** an error.
pub fn agglomerate_guarded(
    n: usize,
    links: &LinkTable,
    goodness: &Goodness,
    config: &AgglomerateConfig,
    observer: &Observer,
    guard: &Guard,
) -> Result<(Agglomeration, Option<Trip>)> {
    if n == 0 {
        return Err(RockError::EmptyDataset);
    }
    if config.k == 0 || config.k > n {
        return Err(RockError::InvalidK { k: config.k, n });
    }
    debug_assert_eq!(links.len(), n, "link table size mismatch");

    let mut engine = Engine::new(n, links, goodness, config.record_history);
    // Contract: the freshly built heaps are structurally sound.
    contracts::check_heap(&engine.global);
    // Heaps are at their fullest right after construction.
    MemoryGauges::observe(
        &observer.memory().heaps,
        cast::usize_to_u64(engine.heap_bytes()),
    );
    let checkpoint = config.prune.map(|p| {
        let c = cast::f64_to_usize((p.checkpoint_fraction * cast::usize_to_f64(n)).ceil());
        (c.clamp(config.k, n), p.max_prune_size)
    });
    let mut pruned_at_checkpoint = checkpoint.is_none();

    // Trace instrumentation: one `agglomerate.batch` span (and one
    // histogram sample) per MERGE_BATCH merges. All of it is `None`-guarded,
    // so a disabled tracer costs one atomic load before the loop.
    let tracer = observer.tracer();
    let mut batch_span = tracer.begin();
    let mut batch_hist = LatencyHistogram::new();
    let mut batch_merges = 0u64;
    let mut batch_goodness = 0.0f64;
    fn end_batch(
        tracer: &Tracer,
        hist: &mut LatencyHistogram,
        span: crate::telemetry::trace::SpanStart,
        merges: u64,
        goodness: f64,
        active: usize,
    ) {
        hist.record(Tracer::elapsed_ns(&span));
        tracer.end(
            span,
            "agglomerate.batch",
            Some(Phase::Agglomerate),
            0,
            Payload::new()
                .count("merges", merges)
                .num("goodness", goodness)
                .count("active", cast::usize_to_u64(active)),
        );
    }

    let mut trip = None;
    let mut active = n;
    while active > config.k {
        if let Some((at, max_size)) = checkpoint {
            if !pruned_at_checkpoint && active <= at {
                engine.prune_small(max_size);
                contracts::check_heap(&engine.global);
                pruned_at_checkpoint = true;
                active = engine.active_count();
                if active <= config.k {
                    break;
                }
            }
        }
        if let Some(threshold) = config.min_goodness {
            if engine.best_goodness().is_none_or(|g| g < threshold) {
                break; // remaining merges are below the quality floor
            }
        }
        if let Some(t) = guard.merge_tick() {
            trip = Some(t); // budget tripped; keep the partial clustering
            break;
        }
        let Some(goodness_value) = engine.merge_best() else {
            break; // no cross-cluster links remain
        };
        active -= 1;
        if batch_span.is_some() {
            batch_merges += 1;
            batch_goodness = goodness_value;
            if batch_merges == MERGE_BATCH {
                if let Some(span) = batch_span.take() {
                    end_batch(
                        tracer,
                        &mut batch_hist,
                        span,
                        batch_merges,
                        batch_goodness,
                        active,
                    );
                }
                batch_merges = 0;
                batch_span = tracer.begin();
            }
        }
    }
    if batch_merges > 0 {
        if let Some(span) = batch_span.take() {
            end_batch(
                tracer,
                &mut batch_hist,
                span,
                batch_merges,
                batch_goodness,
                active,
            );
        }
    }
    if batch_hist.count() > 0 {
        tracer.record_hist("agglomerate.batch_ns", None, &batch_hist);
    }

    engine.flush_telemetry(observer);
    let agg = engine.finish(active == config.k);
    // Contract: clusters, assignment, outliers and criterion agree.
    contracts::check_agglomeration(&agg);
    Ok((agg, trip))
}

/// Multiplier of [`SlotHasher`]: 2⁶⁴ divided by the golden ratio, rounded
/// to odd (Fibonacci hashing).
const SLOT_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hasher for the `u32` slot ids that key the link rows: one multiply per
/// id. Slot ids are the dense integers `0..n`, so a multiplicative hash
/// spreads them over the table's buckets (the low bits are a bijection
/// of the id's low bits) while the top bits stay well mixed for the
/// table's tag bytes. Unlike the std default it has no per-process seed,
/// so row iteration order is the same on every run.
#[derive(Debug, Clone, Copy, Default)]
struct SlotHasher(u64);

impl std::hash::Hasher for SlotHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(SLOT_HASH_MUL);
        }
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(SLOT_HASH_MUL);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One entry of a link row, seen from the row's own slot.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Cross-link count between the two clusters (symmetric).
    count: u64,
    /// Goodness of merging with the partner, evaluated from this row's
    /// side. The two sides may differ in the last bits (see
    /// [`Engine::merge`]), so each row keeps its own.
    goodness: f64,
}

/// Cross-link row of one slot: partner slot → [`Link`].
type Row = HashMap<u32, Link, BuildHasherDefault<SlotHasher>>;

/// A local heap `q[i]`, maintained lazily.
///
/// Keys are pushed whenever a partner's goodness changes and are never
/// removed in place. A key is *live* while the row still holds its
/// partner with the same goodness bits; anything else is stale and is
/// dropped when it reaches the top. `best` caches the greatest live key,
/// which is exactly what the eager heap's `peek` returned.
#[derive(Debug, Default)]
struct LocalHeap {
    keys: BinaryHeap<GoodnessKey>,
    best: Option<GoodnessKey>,
}

impl LocalHeap {
    /// Heapifies `keys` (all live) in `O(len)`.
    fn from_keys(keys: Vec<GoodnessKey>) -> Self {
        let keys = BinaryHeap::from(keys);
        let best = keys.peek().copied();
        LocalHeap { keys, best }
    }

    /// Drops stale keys off the top until the greatest key is live, and
    /// caches it as `best`. Returns the number of keys dropped.
    fn rescan(&mut self, row: &Row) -> u64 {
        let mut dropped = 0;
        // Bounded: each pass drops one key, and at most every key is stale.
        for _ in 0..self.keys.len() {
            let top = self.keys.peek().copied();
            let live = top.is_none_or(|k| {
                row.get(&k.tie())
                    .is_some_and(|l| l.goodness.to_bits() == k.goodness().to_bits())
            });
            if live {
                break;
            }
            self.keys.pop();
            dropped += 1;
        }
        self.best = self.keys.peek().copied();
        dropped
    }

    /// Rebuilds the heap from `row` once stale keys outnumber live ones,
    /// which bounds the heap at about twice the row. Returns the keys
    /// `(pushed, popped)`: every old key is dropped, every live key
    /// re-pushed.
    fn compact(&mut self, row: &Row) -> (u64, u64) {
        if self.keys.len() <= 2 * row.len() {
            return (0, 0);
        }
        let popped = cast::usize_to_u64(self.keys.len());
        let mut keys = std::mem::take(&mut self.keys).into_vec();
        keys.clear();
        // Hash order is fine: the heap orders keys by the strict GoodnessKey total order.
        keys.extend(row.iter().map(|(&x, l)| GoodnessKey::new(l.goodness, x)));
        *self = LocalHeap::from_keys(keys);
        (cast::usize_to_u64(row.len()), popped)
    }
}

/// Internal merge-engine state.
struct Engine<'a> {
    goodness: &'a Goodness,
    /// Member lists per slot; empty = inactive slot.
    members: Vec<Vec<u32>>,
    /// Cross-link rows per slot. Symmetric in partners and counts.
    rows: Vec<Row>,
    /// Internal (within-cluster) ordered link counts per slot.
    internal: Vec<u64>,
    /// Lazy local heaps, one per slot.
    local: Vec<LocalHeap>,
    /// Global heap: every slot with a live local best, keyed by that
    /// best's goodness.
    global: IndexedHeap<GoodnessKey>,
    /// Keys pushed onto / popped off the local heaps (the global heap
    /// keeps its own tallies).
    local_pushes: u64,
    local_pops: u64,
    history: Vec<MergeStep>,
    record_history: bool,
    merges: usize,
    outliers: Vec<u32>,
    active: usize,
}

impl<'a> Engine<'a> {
    fn new(n: usize, links: &LinkTable, goodness: &'a Goodness, record_history: bool) -> Self {
        let members: Vec<Vec<u32>> = (0..cast::usize_to_u32(n)).map(|i| vec![i]).collect();
        // Size every row and heap exactly, then fill both from the
        // upper-triangle link table: singleton goodness is symmetric.
        let mut degree = vec![0usize; n];
        for (i, j, _) in links.iter() {
            degree[cast::u32_to_usize(i)] += 1;
            degree[cast::u32_to_usize(j)] += 1;
        }
        let mut rows: Vec<Row> = degree
            .iter()
            .map(|&d| Row::with_capacity_and_hasher(d, BuildHasherDefault::default()))
            .collect();
        let mut keys: Vec<Vec<GoodnessKey>> =
            degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for (i, j, c) in links.iter() {
            let count = u64::from(c);
            let link = Link {
                count,
                goodness: goodness.merge_goodness(count, 1, 1),
            };
            rows[cast::u32_to_usize(i)].insert(j, link);
            rows[cast::u32_to_usize(j)].insert(i, link);
            keys[cast::u32_to_usize(i)].push(GoodnessKey::new(link.goodness, j));
            keys[cast::u32_to_usize(j)].push(GoodnessKey::new(link.goodness, i));
        }
        let mut global = IndexedHeap::with_capacity(n);
        let mut local_pushes = 0;
        let local: Vec<LocalHeap> = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                local_pushes += cast::usize_to_u64(k.len());
                let heap = LocalHeap::from_keys(k);
                if let Some(best) = heap.best {
                    let iu = cast::usize_to_u32(i);
                    global.insert_or_update(iu, GoodnessKey::new(best.goodness(), iu));
                }
                heap
            })
            .collect();
        Engine {
            goodness,
            members,
            rows,
            internal: vec![0; n],
            local,
            global,
            local_pushes,
            local_pops: 0,
            history: Vec::new(),
            record_history,
            merges: 0,
            outliers: Vec::new(),
            active: n,
        }
    }

    fn active_count(&self) -> usize {
        self.active
    }

    #[inline]
    fn size(&self, slot: u32) -> usize {
        self.members[cast::u32_to_usize(slot)].len()
    }

    /// Goodness of the best available merge, if any.
    fn best_goodness(&self) -> Option<f64> {
        self.global.peek().map(|(k, _)| k.goodness())
    }

    /// Brings slot `i`'s global-heap entry in line with its local best,
    /// given the best it had before the change. The global key depends
    /// only on the best's goodness, so an equal value needs no update.
    fn publish(&mut self, i: u32, old_best: Option<GoodnessKey>) {
        match self.local[cast::u32_to_usize(i)].best {
            Some(best) => {
                if old_best.map(|b| b.goodness().to_bits()) != Some(best.goodness().to_bits()) {
                    self.global
                        .insert_or_update(i, GoodnessKey::new(best.goodness(), i));
                }
            }
            None => {
                self.global.remove(i);
            }
        }
    }

    /// Merges the globally best pair, returning its goodness. `None` when
    /// no pair exists.
    fn merge_best(&mut self) -> Option<f64> {
        let (_, u) = self.global.peek()?;
        let Some(best) = self.local[cast::u32_to_usize(u)].best else {
            // Defensive: a slot in the global heap always has a local best.
            self.global.remove(u);
            if self.global.is_empty() {
                return None;
            }
            return self.merge_best();
        };
        self.merge(u, best.tie(), best.goodness());
        Some(best.goodness())
    }

    /// Merges cluster `v` into cluster `u`.
    fn merge(&mut self, u: u32, v: u32, goodness_value: f64) {
        debug_assert_ne!(u, v);
        let (ui, vi) = (cast::u32_to_usize(u), cast::u32_to_usize(v));
        let (nu, nv) = (self.size(u), self.size(v));
        let mut row = std::mem::take(&mut self.rows[ui]);
        let cross = row.remove(&v).map_or(0, |l| l.count);

        // Fold members and internal links.
        let v_members = std::mem::take(&mut self.members[vi]);
        self.members[ui].extend(v_members);
        self.internal[ui] += self.internal[vi] + 2 * cross;
        self.internal[vi] = 0;

        // Fold v's row into u's (integer sums: order-insensitive); the
        // goodness fields are all rewritten below.
        for (x, l) in std::mem::take(&mut self.rows[vi]) {
            if x != u {
                row.entry(x)
                    .or_insert(Link {
                        count: 0,
                        goodness: 0.0,
                    })
                    .count += l.count;
            }
        }

        // Retire v.
        let retired = std::mem::take(&mut self.local[vi]);
        self.local_pops += cast::usize_to_u64(retired.keys.len());
        self.global.remove(v);

        // Re-key every partner x of the merged cluster from both sides.
        // The two evaluations keep their argument order: x's side is
        // merge_goodness(c, nx, nw), u's side merge_goodness(c, nw, nx),
        // and their last bits can differ. Each partner's repair touches
        // only its own row and heap, so the row's order does not matter.
        let nw = nu + nv;
        let mut keys = std::mem::take(&mut self.local[ui].keys).into_vec();
        self.local_pops += cast::usize_to_u64(keys.len());
        keys.clear();
        for (&x, link) in &mut row {
            let nx = self.size(x);
            link.goodness = self.goodness.merge_goodness(link.count, nw, nx);
            keys.push(GoodnessKey::new(link.goodness, x));
            let x_side = Link {
                count: link.count,
                goodness: self.goodness.merge_goodness(link.count, nx, nw),
            };
            self.repair(x, u, v, x_side);
        }
        self.local_pushes += cast::usize_to_u64(keys.len());
        let old_best = self.local[ui].best;
        self.local[ui] = LocalHeap::from_keys(keys);
        self.rows[ui] = row;
        self.publish(u, old_best);
        self.active -= 1;
        self.merges += 1;

        if self.record_history {
            let criterion = self.criterion();
            self.history.push(MergeStep {
                kept: u,
                absorbed: v,
                goodness: goodness_value,
                sizes: (cast::usize_to_u32(nu), cast::usize_to_u32(nv)),
                criterion,
            });
        }
    }

    /// Partner `x` of a merge of `v` into `u`: its row loses `v` and holds
    /// the merged cluster under `u` with `link` (goodness from x's side).
    /// One push, and a rescan only when the cached best was `u` or `v`.
    fn repair(&mut self, x: u32, u: u32, v: u32, link: Link) {
        let xi = cast::u32_to_usize(x);
        let row = &mut self.rows[xi];
        let heap = &mut self.local[xi];
        row.remove(&v);
        let key = GoodnessKey::new(link.goodness, u);
        let unchanged = row
            .insert(u, link)
            .is_some_and(|old| old.goodness.to_bits() == link.goodness.to_bits());
        if !unchanged {
            heap.keys.push(key);
            self.local_pushes += 1;
        }
        let old_best = heap.best;
        if old_best.is_some_and(|b| b.tie() == v || (b.tie() == u && !unchanged)) {
            self.local_pops += heap.rescan(row);
        } else {
            heap.best = Some(old_best.map_or(key, |b| b.max(key)));
        }
        let (pushed, popped) = heap.compact(row);
        self.local_pushes += pushed;
        self.local_pops += popped;
        self.publish(x, old_best);
    }

    /// Partner `x` of a pruned slot `s` drops it from its row and heap.
    fn drop_partner(&mut self, x: u32, s: u32) {
        let xi = cast::u32_to_usize(x);
        let row = &mut self.rows[xi];
        if row.remove(&s).is_none() {
            return; // x itself was pruned earlier in this pass
        }
        let heap = &mut self.local[xi];
        let old_best = heap.best;
        if old_best.is_some_and(|b| b.tie() == s) {
            self.local_pops += heap.rescan(row);
        }
        let (pushed, popped) = heap.compact(row);
        self.local_pushes += pushed;
        self.local_pops += popped;
        self.publish(x, old_best);
    }

    /// Discards every active cluster with at most `max_size` members.
    fn prune_small(&mut self, max_size: usize) {
        let victims: Vec<u32> = (0..cast::usize_to_u32(self.members.len()))
            .filter(|&s| {
                let m = &self.members[cast::u32_to_usize(s)];
                !m.is_empty() && m.len() <= max_size
            })
            .collect();
        // Never prune everything: keep at least one cluster.
        if victims.len() == self.active {
            return;
        }
        for s in victims {
            let si = cast::u32_to_usize(s);
            let mem = std::mem::take(&mut self.members[si]);
            self.outliers.extend(mem);
            self.internal[si] = 0;
            let retired = std::mem::take(&mut self.local[si]);
            self.local_pops += cast::usize_to_u64(retired.keys.len());
            self.global.remove(s);
            // Each partner drops s independently: order-insensitive.
            for (x, _) in std::mem::take(&mut self.rows[si]) {
                self.drop_partner(x, s);
            }
            self.active -= 1;
        }
    }

    /// Estimated bytes of the merge state that scales with the links:
    /// the global heap, every local heap and every link row (entries at
    /// capacity, plus one control byte per row entry).
    fn heap_bytes(&self) -> usize {
        let key = std::mem::size_of::<GoodnessKey>();
        let row_entry = std::mem::size_of::<(u32, Link)>() + 1;
        self.global.estimated_bytes()
            + self.local.capacity() * std::mem::size_of::<LocalHeap>()
            + self.rows.capacity() * std::mem::size_of::<Row>()
            + self
                .local
                .iter()
                .map(|h| h.keys.capacity() * key)
                .sum::<usize>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * row_entry)
                .sum::<usize>()
    }

    /// Flushes the run's tallies into `observer`: merges, pruned points,
    /// push/pop totals over the global and every local heap, and the
    /// end-of-run heap footprint (lazy heaps can outgrow their start).
    fn flush_telemetry(&self, observer: &Observer) {
        let counters = observer.counters();
        let (pushes, pops) = self.global.telemetry_counts();
        PipelineCounters::add(&counters.heap_pushes, pushes + self.local_pushes);
        PipelineCounters::add(&counters.heap_pops, pops + self.local_pops);
        PipelineCounters::add(&counters.heap_anomalies, self.global.anomaly_count());
        PipelineCounters::add(&counters.merges, cast::usize_to_u64(self.merges));
        PipelineCounters::add(
            &counters.outliers_pruned,
            cast::usize_to_u64(self.outliers.len()),
        );
        MemoryGauges::observe(
            &observer.memory().heaps,
            cast::usize_to_u64(self.heap_bytes()),
        );
    }

    /// Current value of the criterion function E_l.
    fn criterion(&self) -> f64 {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, m)| self.goodness.criterion_term(self.internal[i], m.len()))
            .sum()
    }

    /// Checks the lazy-heap invariants against a full recomputation:
    /// rows are symmetric in partners and counts, every partner has a
    /// live key in its slot's heap, each cached best is the greatest
    /// live key, and the global heap holds exactly the slots with a best,
    /// keyed by its goodness. Test helper; `O(links)` per call.
    #[cfg(test)]
    fn assert_invariants(&self) {
        self.global.assert_invariants();
        for (xi, row) in self.rows.iter().enumerate() {
            let x = cast::usize_to_u32(xi);
            let heap = &self.local[xi];
            assert!(
                row.is_empty() || !self.members[xi].is_empty(),
                "retired slot {x} has links"
            );
            let mut live: Vec<GoodnessKey> = heap
                .keys
                .iter()
                .copied()
                .filter(|k| {
                    row.get(&k.tie())
                        .is_some_and(|l| l.goodness.to_bits() == k.goodness().to_bits())
                })
                .collect();
            live.sort_unstable();
            live.dedup();
            assert_eq!(
                live.len(),
                row.len(),
                "slot {x}: partners without a live key"
            );
            assert_eq!(
                heap.best,
                live.last().copied(),
                "slot {x}: stale cached best"
            );
            assert!(
                heap.keys.len() <= 2 * row.len().max(1),
                "slot {x}: heap never compacted"
            );
            let global_key = self.global.priority(x).copied();
            assert_eq!(
                global_key,
                heap.best.map(|b| GoodnessKey::new(b.goodness(), x)),
                "slot {x}: global entry out of sync"
            );
            for (&y, l) in row {
                let back = self.rows[cast::u32_to_usize(y)].get(&x);
                assert_eq!(
                    back.map(|b| b.count),
                    Some(l.count),
                    "rows {x}/{y} asymmetric"
                );
            }
        }
    }

    fn finish(self, reached_k: bool) -> Agglomeration {
        let criterion = self.criterion();
        let n: usize = self.members.iter().map(Vec::len).sum::<usize>() + self.outliers.len();
        let mut clusters: Vec<Vec<u32>> = self
            .members
            .into_iter()
            .filter(|m| !m.is_empty())
            .map(|mut m| {
                m.sort_unstable();
                m
            })
            .collect();
        clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
        let mut assignment: Vec<Option<u32>> = vec![None; n];
        for (c, mem) in clusters.iter().enumerate() {
            for &p in mem {
                assignment[cast::u32_to_usize(p)] = Some(cast::usize_to_u32(c));
            }
        }
        let mut outliers = self.outliers;
        outliers.sort_unstable();
        Agglomeration {
            assignment,
            clusters,
            history: self.history,
            criterion,
            merges: self.merges,
            reached_k,
            outliers,
        }
    }
}

/// The merge engine as it stood before the lazy-heap rewrite, kept as
/// the plainly correct reference for the seed-loop equivalence tests:
/// eager `IndexedHeap` local heaps, `HashMap<u32, u64>` link rows, each
/// kept cluster's heap rebuilt from scratch on every merge. The engine
/// is verbatim apart from dropping its telemetry methods; [`run`] is the
/// driver loop of `agglomerate_guarded` without tracing, with the step
/// budget as a plain merge count.
#[cfg(test)]
mod oracle {
    use std::collections::HashMap;

    use super::{AgglomerateConfig, Agglomeration, GoodnessKey, MergeStep};
    use crate::cast;
    use crate::goodness::Goodness;
    use crate::heap::IndexedHeap;
    use crate::links::LinkTable;

    /// Reference result of `agglomerate_guarded` under a step budget of
    /// `steps` merges (`None` = unlimited).
    pub(super) fn run(
        n: usize,
        links: &LinkTable,
        goodness: &Goodness,
        config: &AgglomerateConfig,
        steps: Option<usize>,
    ) -> Agglomeration {
        let mut engine = Engine::new(n, links, goodness, config.record_history);
        let checkpoint = config.prune.map(|p| {
            let c = cast::f64_to_usize((p.checkpoint_fraction * cast::usize_to_f64(n)).ceil());
            (c.clamp(config.k, n), p.max_prune_size)
        });
        let mut pruned_at_checkpoint = checkpoint.is_none();
        let mut active = n;
        while active > config.k {
            if let Some((at, max_size)) = checkpoint {
                if !pruned_at_checkpoint && active <= at {
                    engine.prune_small(max_size);
                    pruned_at_checkpoint = true;
                    active = engine.active_count();
                    if active <= config.k {
                        break;
                    }
                }
            }
            if let Some(threshold) = config.min_goodness {
                if engine.best_goodness().is_none_or(|g| g < threshold) {
                    break;
                }
            }
            if steps.is_some_and(|s| engine.merges >= s) {
                break;
            }
            if engine.merge_best().is_none() {
                break;
            }
            active -= 1;
        }
        engine.finish(active == config.k)
    }

    /// Internal merge-engine state.
    struct Engine<'a> {
        goodness: &'a Goodness,
        /// Member lists per slot; empty = inactive slot.
        members: Vec<Vec<u32>>,
        /// Cross-link rows per slot: partner slot → link count. Symmetric.
        rows: Vec<HashMap<u32, u64>>,
        /// Internal (within-cluster) ordered link counts per slot.
        internal: Vec<u64>,
        /// Local heaps.
        local: Vec<IndexedHeap<GoodnessKey>>,
        /// Global heap over slots with non-empty local heaps.
        global: IndexedHeap<GoodnessKey>,
        history: Vec<MergeStep>,
        record_history: bool,
        merges: usize,
        outliers: Vec<u32>,
        active: usize,
    }

    impl<'a> Engine<'a> {
        #[allow(clippy::needless_range_loop)] // local heaps & rows are parallel arrays
        fn new(n: usize, links: &LinkTable, goodness: &'a Goodness, record_history: bool) -> Self {
            let members: Vec<Vec<u32>> = (0..cast::usize_to_u32(n)).map(|i| vec![i]).collect();
            // Build symmetric rows from the upper-triangle link table.
            let mut rows: Vec<HashMap<u32, u64>> = vec![HashMap::new(); n];
            for (i, j, c) in links.iter() {
                rows[cast::u32_to_usize(i)].insert(j, u64::from(c));
                rows[cast::u32_to_usize(j)].insert(i, u64::from(c));
            }
            let mut local: Vec<IndexedHeap<GoodnessKey>> = Vec::with_capacity(n);
            let mut global = IndexedHeap::with_capacity(n);
            for i in 0..n {
                let iu = cast::usize_to_u32(i);
                let mut h = IndexedHeap::with_capacity(rows[i].len());
                // rock-analyze: allow(nondet-iter) — order-insensitive: heap pop order is a pure function of the strict GoodnessKey total order, not insertion order.
                for (&j, &c) in &rows[i] {
                    h.insert_or_update(j, GoodnessKey::new(goodness.merge_goodness(c, 1, 1), j));
                }
                if let Some((best, _)) = h.peek() {
                    global.insert_or_update(iu, GoodnessKey::new(best.goodness(), iu));
                }
                local.push(h);
            }
            Engine {
                goodness,
                members,
                rows,
                internal: vec![0; n],
                local,
                global,
                history: Vec::new(),
                record_history,
                merges: 0,
                outliers: Vec::new(),
                active: n,
            }
        }

        fn active_count(&self) -> usize {
            self.active
        }

        #[inline]
        fn size(&self, slot: u32) -> usize {
            self.members[cast::u32_to_usize(slot)].len()
        }

        /// Goodness of the best available merge, if any.
        fn best_goodness(&self) -> Option<f64> {
            self.global.peek().map(|(k, _)| k.goodness())
        }

        /// Recomputes slot `i`'s entry in the global heap from its local heap.
        fn refresh_global(&mut self, i: u32) {
            match self.local[cast::u32_to_usize(i)].peek() {
                Some((best, _)) => self
                    .global
                    .insert_or_update(i, GoodnessKey::new(best.goodness(), i)),
                None => {
                    self.global.remove(i);
                }
            }
        }

        /// Merges the globally best pair, returning its goodness. `None` when
        /// no pair exists.
        fn merge_best(&mut self) -> Option<f64> {
            let (_, u) = self.global.peek()?;
            let Some((key, v)) = self.local[cast::u32_to_usize(u)]
                .peek()
                .map(|(k, v)| (*k, v))
            else {
                // Defensive: a slot in the global heap always has a local best.
                self.global.remove(u);
                if self.global.is_empty() {
                    return None;
                }
                return self.merge_best();
            };
            self.merge(u, v, key.goodness());
            Some(key.goodness())
        }

        /// Merges cluster `v` into cluster `u`.
        fn merge(&mut self, u: u32, v: u32, goodness_value: f64) {
            debug_assert_ne!(u, v);
            let (nu, nv) = (self.size(u), self.size(v));
            let cross = self.rows[cast::u32_to_usize(u)]
                .get(&v)
                .copied()
                .unwrap_or(0);

            // Fold members and internal links.
            let v_members = std::mem::take(&mut self.members[cast::u32_to_usize(v)]);
            self.members[cast::u32_to_usize(u)].extend(v_members);
            self.internal[cast::u32_to_usize(u)] +=
                self.internal[cast::u32_to_usize(v)] + 2 * cross;
            self.internal[cast::u32_to_usize(v)] = 0;

            // Fold v's row into u's; drop the u↔v entry.
            let v_row = std::mem::take(&mut self.rows[cast::u32_to_usize(v)]);
            self.rows[cast::u32_to_usize(u)].remove(&v);
            for (x, c) in v_row {
                if x == u {
                    continue;
                }
                *self.rows[cast::u32_to_usize(u)].entry(x).or_insert(0) += c;
            }

            // Repair every affected neighbor x: its row and local heap lose u
            // and v, gaining the merged cluster (slot u) with updated goodness.
            let nw = nu + nv;
            let partners: Vec<(u32, u64, usize)> = self.rows[cast::u32_to_usize(u)]
                // rock-analyze: allow(nondet-iter) — order-insensitive: each partner row/heap repair is independent and heap order follows the strict GoodnessKey total order.
                .iter()
                .map(|(&x, &c)| (x, c, self.members[cast::u32_to_usize(x)].len()))
                .collect();
            for &(x, c, nx) in &partners {
                let g = self.goodness.merge_goodness(c, nx, nw);
                let xr = &mut self.rows[cast::u32_to_usize(x)];
                xr.remove(&u);
                xr.remove(&v);
                xr.insert(u, c);
                let xl = &mut self.local[cast::u32_to_usize(x)];
                xl.remove(u);
                xl.remove(v);
                xl.insert_or_update(u, GoodnessKey::new(g, u));
                self.refresh_global(x);
            }

            // Rebuild u's local heap, retire v's.
            self.local[cast::u32_to_usize(v)].clear();
            self.global.remove(v);
            let good = self.goodness;
            let ul = &mut self.local[cast::u32_to_usize(u)];
            ul.clear();
            for &(x, c, nx) in &partners {
                let g = good.merge_goodness(c, nw, nx);
                ul.insert_or_update(x, GoodnessKey::new(g, x));
            }
            self.refresh_global(u);
            self.active -= 1;
            self.merges += 1;

            if self.record_history {
                let criterion = self.criterion();
                self.history.push(MergeStep {
                    kept: u,
                    absorbed: v,
                    goodness: goodness_value,
                    sizes: (cast::usize_to_u32(nu), cast::usize_to_u32(nv)),
                    criterion,
                });
            }
        }

        /// Discards every active cluster with at most `max_size` members.
        fn prune_small(&mut self, max_size: usize) {
            let victims: Vec<u32> = (0..cast::usize_to_u32(self.members.len()))
                .filter(|&s| {
                    let m = &self.members[cast::u32_to_usize(s)];
                    !m.is_empty() && m.len() <= max_size
                })
                .collect();
            // Never prune everything: keep at least one cluster.
            if victims.len() == self.active {
                return;
            }
            for s in victims {
                let mem = std::mem::take(&mut self.members[cast::u32_to_usize(s)]);
                self.outliers.extend(mem);
                self.internal[cast::u32_to_usize(s)] = 0;
                let row = std::mem::take(&mut self.rows[cast::u32_to_usize(s)]);
                for (x, _) in row {
                    self.rows[cast::u32_to_usize(x)].remove(&s);
                    self.local[cast::u32_to_usize(x)].remove(s);
                    self.refresh_global(x);
                }
                self.local[cast::u32_to_usize(s)].clear();
                self.global.remove(s);
                self.active -= 1;
            }
        }

        /// Current value of the criterion function E_l.
        fn criterion(&self) -> f64 {
            self.members
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.is_empty())
                .map(|(i, m)| self.goodness.criterion_term(self.internal[i], m.len()))
                .sum()
        }

        fn finish(self, reached_k: bool) -> Agglomeration {
            let criterion = self.criterion();
            let n: usize = self.members.iter().map(Vec::len).sum::<usize>() + self.outliers.len();
            let mut clusters: Vec<Vec<u32>> = self
                .members
                .into_iter()
                .filter(|m| !m.is_empty())
                .map(|mut m| {
                    m.sort_unstable();
                    m
                })
                .collect();
            clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
            let mut assignment: Vec<Option<u32>> = vec![None; n];
            for (c, mem) in clusters.iter().enumerate() {
                for &p in mem {
                    assignment[cast::u32_to_usize(p)] = Some(cast::usize_to_u32(c));
                }
            }
            let mut outliers = self.outliers;
            outliers.sort_unstable();
            Agglomeration {
                assignment,
                clusters,
                history: self.history,
                criterion,
                merges: self.merges,
                reached_k,
                outliers,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Transaction, TransactionSet};
    use crate::goodness::MarketBasket;
    use crate::neighbors::NeighborGraph;
    use crate::similarity::Jaccard;

    fn pipeline(transactions: Vec<Transaction>, theta: f64, k: usize) -> Agglomeration {
        let data: TransactionSet = transactions.into_iter().collect();
        let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(theta, &MarketBasket).unwrap();
        agglomerate(data.len(), &links, &good, &AgglomerateConfig::new(k)).unwrap()
    }

    fn block(base: u32, n: usize, shared: usize) -> Vec<Transaction> {
        // n transactions sharing `shared` common items plus one unique item.
        (0..n as u32)
            .map(|i| {
                let mut items: Vec<u32> = (base..base + shared as u32).collect();
                items.push(base + 1000 + i);
                Transaction::new(items)
            })
            .collect()
    }

    #[test]
    fn goodness_key_ordering() {
        let a = GoodnessKey::new(1.0, 5);
        let b = GoodnessKey::new(2.0, 9);
        assert!(b > a);
        // Equal goodness: smaller tie id wins.
        let c = GoodnessKey::new(1.0, 2);
        assert!(c > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        assert_eq!(a.goodness(), 1.0);
        assert_eq!(a.tie(), 5);
    }

    #[test]
    fn goodness_ord_is_total() {
        let lo = GoodnessOrd::new(-1.5);
        let hi = GoodnessOrd::new(2.5);
        assert!(hi > lo);
        assert_eq!(hi.get(), 2.5);
        assert_eq!(lo.cmp(&lo), std::cmp::Ordering::Equal);
        assert!(GoodnessOrd::new(f64::INFINITY) > hi);
        assert!(GoodnessOrd::new(f64::NEG_INFINITY) < lo);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    #[cfg(debug_assertions)]
    fn nan_goodness_is_rejected_in_debug() {
        let _ = GoodnessOrd::new(f64::NAN);
    }

    #[test]
    fn two_blocks_recovered() {
        let mut data = block(0, 6, 4);
        data.extend(block(500, 6, 4));
        let out = pipeline(data, 0.5, 2);
        assert!(out.reached_k);
        assert_eq!(out.clusters.len(), 2);
        let sizes: Vec<usize> = out.clusters.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![6, 6]);
        // Members 0..6 together, 6..12 together.
        assert_eq!(out.clusters[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(out.clusters[1], vec![6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn assignment_matches_clusters() {
        let mut data = block(0, 5, 4);
        data.extend(block(500, 7, 4));
        let out = pipeline(data, 0.5, 2);
        for (c, mem) in out.clusters.iter().enumerate() {
            for &p in mem {
                assert_eq!(out.assignment[p as usize], Some(c as u32));
            }
        }
        assert_eq!(out.assignment.iter().filter(|a| a.is_some()).count(), 12);
    }

    #[test]
    fn stops_when_no_links_remain() {
        // Three mutually unlinked pairs; asking for 2 clusters must stop at 3.
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([10, 11]),
            Transaction::new([10, 11]),
            Transaction::new([20, 21]),
            Transaction::new([20, 21]),
        ];
        let out = pipeline(data, 0.9, 2);
        assert!(!out.reached_k);
        // Each pair is mutual-neighbors but has no *common* third neighbor,
        // so there are no links at all: six singletons remain.
        assert_eq!(out.clusters.len(), 6);
    }

    #[test]
    fn pairs_with_links_do_merge() {
        // Triples: within a triple every pair has the third point as a
        // common neighbor → 1 link. Triples are link-free across.
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([7, 8]),
            Transaction::new([7, 8]),
            Transaction::new([7, 8]),
        ];
        let out = pipeline(data, 0.9, 2);
        assert!(out.reached_k);
        assert_eq!(out.clusters[0], vec![0, 1, 2]);
        assert_eq!(out.clusters[1], vec![3, 4, 5]);
    }

    #[test]
    fn history_records_every_merge() {
        let mut data = block(0, 4, 4);
        data.extend(block(500, 4, 4));
        let out = pipeline(data, 0.5, 2);
        // 8 points → 2 clusters = 6 merges.
        assert_eq!(out.history.len(), 6);
        for step in &out.history {
            assert!(step.goodness > 0.0);
            assert_ne!(step.kept, step.absorbed);
            assert!(step.sizes.0 >= 1 && step.sizes.1 >= 1);
        }
    }

    #[test]
    fn merging_down_to_one_cluster() {
        let data = block(0, 5, 4);
        let out = pipeline(data, 0.5, 1);
        assert!(out.reached_k);
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].len(), 5);
        assert!(out.criterion > 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let data: TransactionSet = block(0, 3, 2).into_iter().collect();
        let g = NeighborGraph::compute(&data, &Jaccard, 0.5, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        assert!(matches!(
            agglomerate(0, &links, &good, &AgglomerateConfig::new(1)),
            Err(RockError::EmptyDataset)
        ));
        assert!(matches!(
            agglomerate(3, &links, &good, &AgglomerateConfig::new(0)),
            Err(RockError::InvalidK { .. })
        ));
        assert!(matches!(
            agglomerate(3, &links, &good, &AgglomerateConfig::new(4)),
            Err(RockError::InvalidK { .. })
        ));
    }

    #[test]
    fn pruning_discards_small_clusters() {
        // Two solid blocks of 8 plus two isolated-ish points that link to
        // nothing: with pruning they become outliers.
        let mut data = block(0, 8, 4);
        data.extend(block(500, 8, 4));
        data.push(Transaction::new([9000, 9001]));
        data.push(Transaction::new([9500, 9501]));
        let ts: TransactionSet = data.into_iter().collect();
        let g = NeighborGraph::compute(&ts, &Jaccard, 0.5, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        let cfg = AgglomerateConfig {
            k: 2,
            min_goodness: None,
            // Fire the checkpoint once only ~4 clusters remain, i.e. after
            // both blocks have fully coalesced, leaving the two isolated
            // points as prunable singletons.
            prune: Some(PruneConfig {
                checkpoint_fraction: 0.2,
                max_prune_size: 1,
            }),
            record_history: false,
        };
        let out = agglomerate(ts.len(), &links, &good, &cfg).unwrap();
        assert_eq!(out.outliers, vec![16, 17]);
        assert_eq!(out.clusters.len(), 2);
        assert!(out.assignment[16].is_none());
        assert!(out.assignment[17].is_none());
        assert!(out.reached_k);
    }

    #[test]
    fn criterion_is_positive_after_merges() {
        let mut data = block(0, 6, 4);
        data.extend(block(500, 6, 4));
        let out = pipeline(data, 0.5, 2);
        assert!(out.criterion > 0.0);
        // History criterion should end at the final criterion.
        let last = out.history.last().unwrap();
        assert!((last.criterion - out.criterion).abs() < 1e-9);
    }

    #[test]
    fn clusters_sorted_by_decreasing_size() {
        let mut data = block(0, 9, 4);
        data.extend(block(500, 4, 4));
        let out = pipeline(data, 0.5, 2);
        assert!(out.clusters[0].len() >= out.clusters[1].len());
        assert_eq!(out.clusters[0].len(), 9);
    }

    #[test]
    fn min_goodness_stops_early() {
        // Two tight blocks joined by one bridge transaction: links exist
        // across, so unconstrained merging reaches k = 1, but the final
        // merges have far lower goodness than the within-block ones. A
        // goodness floor between the two stops at the block structure.
        let mut data: Vec<Transaction> = (0..8u32)
            .map(|i| {
                let b = i / 4;
                Transaction::new([b * 10, b * 10 + 1, b * 10 + 2])
            })
            .collect();
        data.push(Transaction::new([0, 1, 10, 11])); // bridge
        let ts: TransactionSet = data.into_iter().collect();
        let g = NeighborGraph::compute(&ts, &Jaccard, 0.3, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.3, &MarketBasket).unwrap();
        let unbounded = agglomerate(9, &links, &good, &AgglomerateConfig::new(1)).unwrap();
        assert_eq!(unbounded.clusters.len(), 1);
        let first = unbounded.history.first().unwrap().goodness;
        let last = unbounded.history.last().unwrap().goodness;
        assert!(first > last, "within-block merges must score higher");
        let cfg = AgglomerateConfig::new(1).min_goodness((first + last) / 2.0);
        let stopped = agglomerate(9, &links, &good, &cfg).unwrap();
        assert!(!stopped.reached_k);
        assert!(stopped.clusters.len() >= 2);
        // Every block stays whole: points 0-3 together, 4-7 together.
        let cluster_of = |p: usize| stopped.assignment[p].unwrap();
        assert!((1..4).all(|p| cluster_of(p) == cluster_of(0)));
        assert!((5..8).all(|p| cluster_of(p) == cluster_of(4)));
    }

    #[test]
    fn deterministic_runs() {
        let mut data = block(0, 7, 4);
        data.extend(block(500, 7, 4));
        let a = pipeline(data.clone(), 0.5, 2);
        let b = pipeline(data, 0.5, 2);
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.assignment, b.assignment);
    }

    fn guarded_fixture() -> (TransactionSet, LinkTable, Goodness) {
        let mut data = block(0, 6, 4);
        data.extend(block(500, 6, 4));
        let ts: TransactionSet = data.into_iter().collect();
        let g = NeighborGraph::compute(&ts, &Jaccard, 0.5, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        (ts, links, good)
    }

    #[test]
    fn step_budget_stops_after_exact_step_count() {
        use crate::guard::{Guard, RunBudget, TripReason};
        use crate::telemetry::Observer;
        let (ts, links, good) = guarded_fixture();
        let guard = Guard::new(RunBudget::unlimited().steps(3));
        let (agg, trip) = agglomerate_guarded(
            ts.len(),
            &links,
            &good,
            &AgglomerateConfig::new(2),
            &Observer::new(),
            &guard,
        )
        .unwrap();
        let trip = trip.expect("budget of 3 must trip before 10 merges");
        assert_eq!(trip.reason, TripReason::StepBudget { limit: 3 });
        assert_eq!(agg.merges, 3);
        assert!(!agg.reached_k);
        // The partial result is still a full, consistent partition.
        assert_eq!(agg.clusters.len(), ts.len() - 3);
        let covered: usize = agg.clusters.iter().map(Vec::len).sum();
        assert_eq!(covered + agg.outliers.len(), ts.len());
    }

    #[test]
    fn unlimited_guard_matches_unguarded_run() {
        use crate::guard::Guard;
        use crate::telemetry::Observer;
        let (ts, links, good) = guarded_fixture();
        let plain = agglomerate(ts.len(), &links, &good, &AgglomerateConfig::new(2)).unwrap();
        let (guarded, trip) = agglomerate_guarded(
            ts.len(),
            &links,
            &good,
            &AgglomerateConfig::new(2),
            &Observer::new(),
            &Guard::unlimited(),
        )
        .unwrap();
        assert!(trip.is_none());
        assert_eq!(plain.clusters, guarded.clusters);
        assert_eq!(plain.assignment, guarded.assignment);
    }

    #[test]
    fn cancellation_stops_merge_loop() {
        use crate::guard::{Guard, TripReason};
        use crate::telemetry::Observer;
        let (ts, links, good) = guarded_fixture();
        let guard = Guard::unlimited();
        guard.cancel_token().cancel();
        let (agg, trip) = agglomerate_guarded(
            ts.len(),
            &links,
            &good,
            &AgglomerateConfig::new(2),
            &Observer::new(),
            &guard,
        )
        .unwrap();
        assert_eq!(trip.map(|t| t.reason), Some(TripReason::Cancelled));
        assert_eq!(agg.merges, 0);
        assert_eq!(agg.clusters.len(), ts.len());
    }

    #[test]
    fn guarded_run_flushes_heap_telemetry() {
        use crate::guard::{Guard, RunBudget};
        use crate::telemetry::Observer;
        let (ts, links, good) = guarded_fixture();
        let obs = Observer::new();
        let guard = Guard::new(RunBudget::unlimited().steps(2));
        agglomerate_guarded(
            ts.len(),
            &links,
            &good,
            &AgglomerateConfig::new(2),
            &obs,
            &guard,
        )
        .unwrap();
        let c = obs.counters().snapshot();
        assert_eq!(c.merges, 2);
        assert!(c.heap_pushes > 0);
        assert_eq!(c.heap_anomalies, 0);
    }

    // ------------------------------------------------ oracle equivalence

    use crate::guard::RunBudget;
    use crate::rng::Rng;

    /// Asserts two results are identical field by field, floats by bits.
    fn assert_same(got: &Agglomeration, want: &Agglomeration, ctx: &str) {
        assert_eq!(
            got.history.len(),
            want.history.len(),
            "{ctx}: history length"
        );
        for (i, (g, w)) in got.history.iter().zip(&want.history).enumerate() {
            assert_eq!(
                (g.kept, g.absorbed, g.sizes),
                (w.kept, w.absorbed, w.sizes),
                "{ctx}: step {i}"
            );
            assert_eq!(
                g.goodness.to_bits(),
                w.goodness.to_bits(),
                "{ctx}: step {i} goodness"
            );
            assert_eq!(
                g.criterion.to_bits(),
                w.criterion.to_bits(),
                "{ctx}: step {i} criterion"
            );
        }
        assert_eq!(got.clusters, want.clusters, "{ctx}: clusters");
        assert_eq!(got.assignment, want.assignment, "{ctx}: assignment");
        assert_eq!(got.outliers, want.outliers, "{ctx}: outliers");
        assert_eq!(got.merges, want.merges, "{ctx}: merges");
        assert_eq!(got.reached_k, want.reached_k, "{ctx}: reached_k");
        assert_eq!(
            got.criterion.to_bits(),
            want.criterion.to_bits(),
            "{ctx}: criterion"
        );
    }

    /// Runs the engine and the oracle over a grid of configurations — k
    /// in {1, 2, 3, n/2, n}, three pruning policies, history on and off,
    /// a goodness floor on and off — and, for each, every step budget
    /// from 0 to the full merge count. Returns the number of merges the
    /// runs performed in total, so callers can assert the input was not
    /// trivially link-free.
    fn check_against_oracle(n: usize, links: &LinkTable, good: &Goodness, ctx: &str) -> usize {
        let mut ks = vec![1, 2, 3, n / 2, n];
        ks.retain(|&k| (1..=n).contains(&k));
        ks.sort_unstable();
        ks.dedup();
        let prunes = [
            None,
            Some(PruneConfig::default()),
            Some(PruneConfig {
                checkpoint_fraction: 0.5,
                max_prune_size: 1,
            }),
        ];
        let mut total_merges = 0;
        for &k in &ks {
            for prune in prunes {
                // A floor in the middle of the unbounded run's goodness
                // range stops it partway.
                let mut probe = AgglomerateConfig::new(k);
                probe.prune = prune;
                let history = oracle::run(n, links, good, &probe, None).history;
                let floor = history.get(history.len() / 2).map(|s| s.goodness);
                for min_goodness in [None, floor] {
                    for record_history in [true, false] {
                        let cfg = AgglomerateConfig {
                            k,
                            prune,
                            record_history,
                            min_goodness,
                        };
                        let ctx = format!("{ctx} k={k} prune={prune:?} {cfg:?}");
                        let want = oracle::run(n, links, good, &cfg, None);
                        let got = agglomerate(n, links, good, &cfg).unwrap();
                        assert_same(&got, &want, &ctx);
                        total_merges += want.merges;
                        for steps in 0..=want.merges {
                            let guard = Guard::new(RunBudget::unlimited().steps(steps as u64));
                            let (got, _) =
                                agglomerate_guarded(n, links, good, &cfg, &Observer::new(), &guard)
                                    .unwrap();
                            let want = oracle::run(n, links, good, &cfg, Some(steps));
                            assert_same(&got, &want, &format!("{ctx} steps={steps}"));
                        }
                    }
                }
            }
        }
        total_merges
    }

    /// Random symmetric link table: each pair linked with probability
    /// `density`, counts in `1..=max_count` (small counts force goodness
    /// ties, which the id tie-break must resolve identically).
    fn random_links(rng: &mut Rng, n: usize, density: f64, max_count: usize) -> LinkTable {
        let mut rows = vec![Vec::new(); n];
        for (i, row) in rows.iter_mut().enumerate() {
            for j in i + 1..n {
                if rng.gen_bool(density) {
                    row.push((j as u32, rng.gen_range(1..=max_count) as u32));
                }
            }
        }
        LinkTable::from_upper_rows(rows)
    }

    /// Random transactions over a small vocabulary, `n` of them, with
    /// two planted templates so neighbor structure and merges appear.
    fn random_transactions(rng: &mut Rng, n: usize) -> TransactionSet {
        (0..n)
            .map(|_| {
                let base = if rng.gen_bool(0.5) { 0 } else { 6 };
                let mut items: Vec<u32> = (base..base + 5).filter(|_| rng.gen_bool(0.8)).collect();
                items.extend((0..2).map(|_| rng.gen_range(0..14usize) as u32));
                Transaction::new(items)
            })
            .collect()
    }

    #[test]
    fn engine_matches_oracle_on_random_link_tables() {
        let mut merges = 0;
        for seed in 0..10u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..=24usize);
            let density = [0.15, 0.4, 0.9][seed as usize % 3];
            let max_count = [1, 3, 50][seed as usize % 3];
            let links = random_links(&mut rng, n, density, max_count);
            let theta = [0.3, 0.5, 0.8][seed as usize % 3];
            let good = Goodness::new(theta, &MarketBasket).unwrap();
            merges += check_against_oracle(n, &links, &good, &format!("random seed={seed}"));
        }
        assert!(merges > 0);
    }

    #[test]
    fn engine_matches_oracle_on_neighbor_pipelines() {
        for theta in [0.3, 0.5, 0.8] {
            let mut merges = 0;
            for seed in 0..3u64 {
                let mut rng = Rng::seed_from_u64(100 + seed);
                let data = random_transactions(&mut rng, 16 + 4 * seed as usize);
                let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
                let links = LinkTable::compute(&g);
                let good = Goodness::new(theta, &MarketBasket).unwrap();
                let ctx = format!("pipeline theta={theta} seed={seed}");
                merges += check_against_oracle(data.len(), &links, &good, &ctx);
            }
            assert!(merges > 0, "theta={theta} produced no merges");
        }
    }

    #[test]
    fn engine_matches_oracle_on_a_larger_tied_table() {
        // Past the step-budget grid's size: long merge chains, heaps that
        // go through several compactions, and dense count ties.
        let mut rng = Rng::seed_from_u64(7);
        let n = 160;
        let links = random_links(&mut rng, n, 0.3, 2);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        for k in [1, 5, 40] {
            for prune in [None, Some(PruneConfig::default())] {
                let mut cfg = AgglomerateConfig::new(k);
                cfg.prune = prune;
                let ctx = format!("n=160 k={k} prune={prune:?}");
                assert_same(
                    &agglomerate(n, &links, &good, &cfg).unwrap(),
                    &oracle::run(n, &links, &good, &cfg, None),
                    &ctx,
                );
            }
        }
    }

    #[test]
    fn engine_matches_oracle_on_degenerate_inputs() {
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        // No links at all: nothing merges, every k stops at n singletons.
        let empty = LinkTable::from_upper_rows(vec![Vec::new(); 9]);
        assert_eq!(check_against_oracle(9, &empty, &good, "no links"), 0);
        // A single point.
        let one = LinkTable::from_upper_rows(vec![Vec::new()]);
        check_against_oracle(1, &one, &good, "one point");
        // All-identical rows: every pair has the same links, so every
        // merge is decided by the id tie-break alone.
        let same: TransactionSet = (0..12).map(|_| Transaction::new([1, 2, 3])).collect();
        let g = NeighborGraph::compute(&same, &Jaccard, 0.5, 1).unwrap();
        let links = LinkTable::compute(&g);
        assert!(check_against_oracle(12, &links, &good, "identical rows") > 0);
    }

    #[test]
    fn prune_that_empties_rows_matches_oracle() {
        // Two link-free cliques A = 0..6 and B = 6..12, plus singletons
        // 12 and 13 that link only into A. The checkpoint fires once the
        // cliques have coalesced; pruning the singletons leaves A's
        // cluster with an empty row, so it drops out of the global heap.
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 14];
        for clique in [0u32..6, 6..12] {
            for i in clique.clone() {
                for j in i + 1..clique.end {
                    rows[i as usize].push((j, 5));
                }
            }
        }
        rows[0].extend([(12, 1), (13, 1)]);
        let links = LinkTable::from_upper_rows(rows);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        let cfg = AgglomerateConfig {
            k: 1,
            // Fires at ceil(0.25 · 14) = 4 clusters: A, B, 12 and 13.
            prune: Some(PruneConfig {
                checkpoint_fraction: 0.25,
                max_prune_size: 1,
            }),
            record_history: true,
            min_goodness: None,
        };
        let got = agglomerate(14, &links, &good, &cfg).unwrap();
        assert_same(
            &got,
            &oracle::run(14, &links, &good, &cfg, None),
            "emptied rows",
        );
        assert_eq!(got.outliers, vec![12, 13]);
        assert_eq!(got.clusters.len(), 2);
        assert!(!got.reached_k);
        check_against_oracle(14, &links, &good, "emptied rows grid");
    }

    #[test]
    fn lazy_heap_invariants_hold_after_every_merge_and_prune() {
        for seed in 0..6u64 {
            let mut rng = Rng::seed_from_u64(50 + seed);
            let n = 40;
            let links = random_links(&mut rng, n, 0.3, 1 + seed as usize);
            let good = Goodness::new(0.5, &MarketBasket).unwrap();
            let mut engine = Engine::new(n, &links, &good, true);
            engine.assert_invariants();
            while engine.merge_best().is_some() {
                engine.assert_invariants();
                if engine.active_count() == n / 2 {
                    engine.prune_small(2);
                    engine.assert_invariants();
                }
            }
            assert!(engine.global.is_empty());
        }
    }

    #[test]
    fn heap_bytes_counts_rows_and_local_heaps() {
        let (ts, links, good) = guarded_fixture();
        let engine = Engine::new(ts.len(), &links, &good, false);
        let global_only = engine.global.estimated_bytes();
        let entries: usize = engine.rows.iter().map(Row::len).sum();
        assert!(entries > 0);
        let keys = entries * std::mem::size_of::<GoodnessKey>();
        let rows = entries * std::mem::size_of::<(u32, Link)>();
        assert!(engine.heap_bytes() >= global_only + keys + rows);
    }
}
