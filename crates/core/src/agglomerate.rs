//! The ROCK agglomerative merge engine (paper §4, procedure `cluster`).
//!
//! Every point starts as a singleton cluster. Each cluster `i` owns a
//! *link row* (partner → cross-link count) and a *local heap* `q[i]` of
//! its partners ordered by goodness; a *global heap* `Q` orders clusters
//! by the goodness of their best local merge. Each iteration merges the
//! globally best pair `(u, v)`, folds `v`'s row into `u`'s, and repairs
//! every partner of the merged cluster — `O(links touched · log n)` per
//! merge, the bookkeeping the paper describes.
//!
//! Goodness is never stored: a row keeps only counts, and every goodness
//! is computed where a heap key is made, as `merge_goodness(count, own
//! size, partner size)`. The constant factor is kept small in four ways:
//! * Link rows are plain vectors that a partner repair never touches. An
//!   entry may name a retired slot, which stands for the cluster it
//!   merged into: a union-find over the slots (path halving) maps it
//!   there, and the counts of several entries for one cluster sum. A row
//!   is *resolved* (entries mapped, dead slots dropped, counts summed in
//!   a dense scratch row) only where it is read: when its slot merges,
//!   builds its heap, or is pruned. Each slot keeps the exact count of
//!   its live partners, so nothing else needs the row.
//! * The engine is built by counting each slot's degree and scattering
//!   the upper-triangle link table into rows of exact capacity.
//! * Local heaps are *lazy*, and each holds its best live key outside
//!   the binary heap. A heap starts *unbuilt*: it holds only that best,
//!   the greatest key its resolved row makes, found in one pass over the
//!   row. It is built (its row resolved, every key made and heapified)
//!   only when a repair or a prune takes its best and the key that
//!   replaces it is not known: a rescan. A built heap's repair adds the
//!   new key and leaves the old one in place. A key records its
//!   partner's size and is live while the partner still has that size (a
//!   live cluster only grows; a retired or pruned one has size 0). Stale
//!   keys are dropped when they surface. A repair whose best pointed at
//!   `u` or `v` drops that stale best at once: the merged key replaces it
//!   in `O(1)` if it wins, and only if it lost does the repair rescan. A
//!   built heap goes back to unbuilt once it holds more than twice its
//!   slot's live partners, and the kept cluster's heap becomes unbuilt
//!   with the greatest key of its merged row, since its size changed.
//! * The global heap is an [`IndexedHeap`] over the dense slot ids.
//!
//! The merge order is a pure function of the strict [`GoodnessKey`]
//! order; the test-only `oracle` module, the paper's linear scan over a
//! dense count matrix, checks the engine against it.
//!
//! The engine keeps no member lists: a slot holds only its cluster's size,
//! and the union-find is the membership. At the end each point is labeled
//! by the slot its chain ends at (none when that slot was pruned), and
//! [`partition`] — the workspace's one rule for grouping, ordering and
//! numbering clusters — turns the labels into the result.
//!
//! The loop stops when the requested number of clusters is reached or when
//! no cross-cluster links remain (the paper's termination condition; the
//! leftover link-free clusters cannot be merged meaningfully).
//!
//! Outlier handling follows paper §4.3: optionally, when the number of
//! clusters first falls to a checkpoint fraction of the starting count,
//! clusters that are still very small are discarded — outliers tend to form
//! singletons or tiny groups that stop participating in merges early.

use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::cast;
use crate::contracts;
use crate::error::{Result, RockError};
use crate::goodness::Goodness;
use crate::guard::{Guard, Trip};
use crate::heap::IndexedHeap;
use crate::links::LinkTable;
use crate::telemetry::trace::{LatencyHistogram, Payload, SpanStart, Tracer};
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

impl PruneConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`RockError::InvalidFraction`] when `checkpoint_fraction` is not in
    /// `(0, 1]` (NaN included).
    pub fn validate(&self) -> Result<()> {
        if !(self.checkpoint_fraction > 0.0 && self.checkpoint_fraction <= 1.0) {
            return Err(RockError::InvalidFraction {
                name: "checkpoint_fraction",
                value: self.checkpoint_fraction,
            });
        }
        Ok(())
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

/// Result of a run of the merge engine. `clusters` and `assignment` are
/// [`partition`]'s two outputs over the final clusters.
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

/// Groups points `0..labels.len()` by label: the points that share a
/// label form one cluster, and a `None` point belongs to none. Returns the
/// clusters, each listing its members ascending, ordered by decreasing
/// size with ties to the smallest member, and each point's index into
/// them (`None` for an unlabeled point). Every merge result, dendrogram
/// cut, component set and fitted model is grouped, ordered and numbered
/// here. Labels are any ids; memory grows with the number of points plus
/// the largest label.
pub fn partition(labels: &[Option<u32>]) -> (Vec<Vec<u32>>, Vec<Option<u32>>) {
    let bound = labels
        .iter()
        .flatten()
        .max()
        .map_or(0, |&l| cast::u32_to_usize(l) + 1);
    let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); bound];
    for (p, label) in labels.iter().enumerate() {
        if let Some(l) = label {
            clusters[cast::u32_to_usize(*l)].push(cast::usize_to_u32(p));
        }
    }
    clusters.retain(|c| !c.is_empty());
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    let mut index = vec![None; labels.len()];
    for (c, members) in clusters.iter().enumerate() {
        for &p in members {
            index[cast::u32_to_usize(p)] = Some(cast::usize_to_u32(c));
        }
    }
    (clusters, index)
}

/// Runs the ROCK merge engine over `n` points with the given link table
/// (no telemetry, no budget).
///
/// # Errors
/// * [`RockError::EmptyDataset`] when `n == 0`.
/// * [`RockError::InvalidK`] when `k` is 0 or exceeds `n`.
/// * [`RockError::LengthMismatch`] when `links` is not over `n` points.
/// * [`RockError::InvalidFraction`] when the prune checkpoint fraction is
///   not in `(0, 1]` ([`PruneConfig::validate`]).
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
/// push/pop totals (summed over the global heap and the built local
/// heaps) and pruned outliers flow into `observer`'s counters, and the
/// combined heap footprint into its memory gauge. The merge loop calls
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
    if links.len() != n {
        return Err(RockError::LengthMismatch {
            left_name: "links",
            left: links.len(),
            right_name: "points",
            right: n,
        });
    }
    if let Some(prune) = &config.prune {
        prune.validate()?;
    }

    let mut engine = Engine::new(n, links, goodness, config.record_history);
    // Contract: the freshly built heaps are structurally sound.
    contracts::check_heap(&engine.global);
    // The rows are at their fullest right after construction, where no
    // local heap is built yet; the end of the run observes again, with
    // the heaps built by then.
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
    // histogram sample) per MERGE_BATCH merges, with the batch's repair
    // tallies. All of it is `None`-guarded, so a disabled tracer costs
    // one atomic load before the loop.
    let tracer = observer.tracer();
    let mut batch_span = tracer.begin();
    let mut batch_hist = LatencyHistogram::new();
    let (mut batch_merges, mut batch_goodness) = (0u64, 0.0f64);
    let mut batch_from = engine.tally;
    let mut end_batch =
        |span: SpanStart, merges: u64, goodness: f64, active: usize, tally: RepairTally| {
            batch_hist.record(Tracer::elapsed_ns(&span));
            tracer.end(
                span,
                "agglomerate.batch",
                Some(Phase::Agglomerate),
                0,
                Payload::new()
                    .count("merges", merges)
                    .num("goodness", goodness)
                    .count("active", cast::usize_to_u64(active))
                    .count("repairs", tally.repairs)
                    .count("replaced", tally.replaced)
                    .count("rescans", tally.rescans)
                    .count("builds", tally.builds)
                    .count("dropped", tally.dropped),
            );
        };

    let mut trip = None;
    let mut active = n;
    while active > config.k {
        if let Some((at, max_size)) = checkpoint {
            if !pruned_at_checkpoint && active <= at {
                active -= engine.prune_small(max_size);
                contracts::check_heap(&engine.global);
                pruned_at_checkpoint = true;
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
                    let tally = engine.tally.since(batch_from);
                    end_batch(span, batch_merges, batch_goodness, active, tally);
                }
                batch_merges = 0;
                batch_from = engine.tally;
                batch_span = tracer.begin();
            }
        }
    }
    if batch_merges > 0 {
        if let Some(span) = batch_span.take() {
            let tally = engine.tally.since(batch_from);
            end_batch(span, batch_merges, batch_goodness, active, tally);
        }
    }
    if batch_hist.count() > 0 {
        tracer.record_hist("agglomerate.batch_ns", None, &batch_hist);
    }

    engine.flush_telemetry(observer);
    let agg = engine.finish(active == config.k);
    PipelineCounters::add(
        &observer.counters().outliers_pruned,
        cast::usize_to_u64(agg.outliers.len()),
    );
    // Contract: clusters, assignment, outliers and criterion agree.
    contracts::check_agglomeration(&agg);
    Ok((agg, trip))
}

/// Link row of one slot: `(partner, count)` entries. A partner may be a
/// retired slot, standing for the cluster [`find`] maps it to, and
/// several entries may stand for one cluster: their counts sum.
type Row = Vec<(u32, u64)>;

/// The slot that `slot` stands for: the root of its `parent` chain (a
/// retired slot points at the slot it merged into, every other slot at
/// itself). Halves the path on the way.
pub(crate) fn find(parent: &mut [u32], mut slot: u32) -> u32 {
    // Bounded: a chain holds each slot at most once.
    for _ in 0..parent.len() {
        let up = parent[cast::u32_to_usize(slot)];
        if up == slot {
            break;
        }
        let grand = parent[cast::u32_to_usize(up)];
        parent[cast::u32_to_usize(slot)] = grand;
        slot = grand;
    }
    slot
}

/// A local-heap key: the goodness of merging with `partner`, seen from
/// the heap's own slot, and the partner's size when the key was made.
/// Ordered as a [`GoodnessKey`] (goodness, then the smaller partner id);
/// the size only orders two keys for the same partner and goodness.
/// 16 bytes, as a `GoodnessKey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LocalKey {
    goodness: GoodnessOrd,
    partner: std::cmp::Reverse<u32>,
    size: u32,
}

const _: () = assert!(std::mem::size_of::<LocalKey>() == 16);

impl LocalKey {
    /// The key of `partner` (of size `partner_size`, at `count` cross
    /// links) in the heap of a slot of size `own`: own size first.
    fn new(goodness: &Goodness, count: u64, own: usize, partner: u32, partner_size: usize) -> Self {
        LocalKey {
            goodness: GoodnessOrd::new(goodness.merge_goodness(count, own, partner_size)),
            partner: std::cmp::Reverse(partner),
            size: cast::usize_to_u32(partner_size),
        }
    }

    fn goodness(self) -> f64 {
        self.goodness.get()
    }

    fn partner(self) -> u32 {
        self.partner.0
    }

    /// Live while the partner still has the size the key was made at.
    fn is_live(self, size: &[u32]) -> bool {
        size[cast::u32_to_usize(self.partner())] == self.size
    }
}

/// A local heap `q[i]`, maintained lazily, with its greatest live key
/// held outside the binary heap.
///
/// `best` is the greatest live key, exactly what an eager heap's `peek`
/// would return (`None` when no key is live). An *unbuilt* heap (`keys`
/// is `None`) holds nothing else: its `best` is the greatest key its
/// slot's resolved row makes. A built heap's `keys` holds every other key
/// made for the slot since the build, live or stale: no live key in it
/// beats `best`, and a stale key is dropped when it reaches the top during
/// a rescan.
#[derive(Debug, Default)]
struct LocalHeap {
    keys: Option<BinaryHeap<LocalKey>>,
    best: Option<LocalKey>,
}

impl LocalHeap {
    /// An unbuilt heap whose slot's row makes `best` as its greatest key.
    fn unbuilt(best: Option<LocalKey>) -> Self {
        LocalHeap { keys: None, best }
    }

    /// A built heap over `keys` (all live): heapified in `O(len)`, the
    /// greatest taken out as `best`.
    fn built(keys: Vec<LocalKey>) -> Self {
        let mut keys = BinaryHeap::from(keys);
        let best = keys.pop();
        LocalHeap {
            keys: Some(keys),
            best,
        }
    }

    /// Keys a built heap holds, `best` included; 0 while unbuilt.
    fn built_len(&self) -> usize {
        self.keys
            .as_ref()
            .map_or(0, |keys| keys.len() + usize::from(self.best.is_some()))
    }

    /// Adds `key`, which does not beat `best`, to a built heap. An unbuilt
    /// heap's row makes it when the heap is built.
    fn push(&mut self, key: LocalKey) {
        if let Some(keys) = &mut self.keys {
            keys.push(key);
        }
    }

    /// Replaces a stale `best` (already dropped by the caller) with the
    /// greatest live key among `key` and the heap. Drops stale keys off
    /// the top while they beat `key`; a live top that beats it becomes
    /// `best`, and `key`, if any, takes its place in the heap. Returns the
    /// number of keys dropped, or `None` for an unbuilt heap, which has
    /// nothing to rescan: its slot builds instead.
    fn rescan(&mut self, key: Option<LocalKey>, size: &[u32]) -> Option<u64> {
        let keys = self.keys.as_mut()?;
        let mut dropped = 0;
        // Bounded: each pass but the last drops one key.
        for _ in 0..=keys.len() {
            let Some(mut top) = keys.peek_mut() else {
                break;
            };
            if key.is_some_and(|k| k > *top) {
                break;
            }
            if top.is_live(size) {
                self.best = Some(match key {
                    Some(k) => std::mem::replace(&mut *top, k),
                    None => PeekMut::pop(top),
                });
                return Some(dropped);
            }
            PeekMut::pop(top);
            dropped += 1;
        }
        self.best = key;
        Some(dropped)
    }
}

/// What the partner repairs of a run did, counted from its start. Every
/// repair found its cached best live (and kept it or pushed it into the
/// heap), `replaced` it, or rescanned; `dropped` counts the stale keys
/// those rescans popped off built heaps. `builds` counts the heaps built,
/// by a rescan of an unbuilt heap or by a prune that took its best.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RepairTally {
    repairs: u64,
    replaced: u64,
    rescans: u64,
    builds: u64,
    dropped: u64,
}

impl RepairTally {
    /// The repairs done since `earlier`, a tally of the same run.
    fn since(self, earlier: RepairTally) -> RepairTally {
        RepairTally {
            repairs: self.repairs - earlier.repairs,
            replaced: self.replaced - earlier.replaced,
            rescans: self.rescans - earlier.rescans,
            builds: self.builds - earlier.builds,
            dropped: self.dropped - earlier.dropped,
        }
    }
}

/// Internal merge-engine state.
struct Engine<'a> {
    goodness: &'a Goodness,
    /// Cluster size per slot; 0 = retired or pruned. A slot's size is
    /// what its partners' local keys are validated against.
    size: Vec<u32>,
    /// Link rows per slot. A repair never touches them; resolved, they
    /// are symmetric in partners and counts.
    rows: Vec<Row>,
    /// Union-find over the slots, read by [`find`]: a retired slot points
    /// at the slot it merged into. It is also the membership: point `p`
    /// is in the cluster at `p`'s root, or an outlier if that was pruned.
    parent: Vec<u32>,
    /// Live partners per slot, exactly: the length of its resolved row.
    live_partners: Vec<usize>,
    /// Dense count accumulator for resolving a row, all zero between
    /// resolutions.
    scratch: Vec<u64>,
    /// Internal (within-cluster) ordered link counts per slot.
    internal: Vec<u64>,
    /// Lazy local heaps, one per slot, unbuilt until they rescan.
    local: Vec<LocalHeap>,
    /// Global heap: every slot with a live local best, keyed by that
    /// best's goodness.
    global: IndexedHeap<GoodnessKey>,
    /// Keys pushed onto / popped off the built local heaps, `best`
    /// included (the global heap keeps its own tallies): their
    /// difference is the keys the built heaps hold.
    local_pushes: u64,
    local_pops: u64,
    tally: RepairTally,
    history: Vec<MergeStep>,
    record_history: bool,
    merges: usize,
}

impl<'a> Engine<'a> {
    fn new(n: usize, links: &LinkTable, goodness: &'a Goodness, record_history: bool) -> Self {
        // Each slot's row is sized to its degree and filled by scattering
        // the link table. No heap is built: each slot's best is the
        // greatest key its row makes.
        let mut live_partners = vec![0usize; n];
        for (i, j, _) in links.iter() {
            live_partners[cast::u32_to_usize(i)] += 1;
            live_partners[cast::u32_to_usize(j)] += 1;
        }
        let mut rows: Vec<Row> = live_partners
            .iter()
            .map(|&d| Row::with_capacity(d))
            .collect();
        for (i, j, c) in links.iter() {
            rows[cast::u32_to_usize(i)].push((j, u64::from(c)));
            rows[cast::u32_to_usize(j)].push((i, u64::from(c)));
        }
        let mut global = IndexedHeap::with_capacity(n);
        let mut local = Vec::with_capacity(n);
        for (s, row) in rows.iter().enumerate() {
            let best = row
                .iter()
                .map(|&(p, count)| LocalKey::new(goodness, count, 1, p, 1))
                .max();
            if let Some(best) = best {
                let su = cast::usize_to_u32(s);
                global.insert_or_update(su, GoodnessKey::new(best.goodness(), su));
            }
            local.push(LocalHeap::unbuilt(best));
        }
        Engine {
            goodness,
            size: vec![1; n],
            rows,
            parent: (0..cast::usize_to_u32(n)).collect(),
            live_partners,
            scratch: vec![0; n],
            internal: vec![0; n],
            local,
            global,
            local_pushes: 0,
            local_pops: 0,
            tally: RepairTally::default(),
            history: Vec::new(),
            record_history,
            merges: 0,
        }
    }

    #[inline]
    fn size(&self, slot: u32) -> usize {
        cast::u32_to_usize(self.size[cast::u32_to_usize(slot)])
    }

    /// Maps `row`'s entries to the clusters they stand for, drops dead
    /// ones and keeps the first entry of each cluster, whose count is
    /// summed into `scratch` and not yet written back (see
    /// [`Engine::drain`]).
    fn gather(&mut self, row: &mut Row) {
        let (parent, size, scratch) = (&mut self.parent, &self.size, &mut self.scratch);
        row.retain_mut(|(y, count)| {
            let r = find(parent, *y);
            let ri = cast::u32_to_usize(r);
            if size[ri] == 0 {
                return false;
            }
            let first = scratch[ri] == 0;
            scratch[ri] += *count;
            *y = r;
            first
        });
    }

    /// Writes the counts summed in `scratch` back into `row`, drops the
    /// entries left without one, and clears `scratch`.
    fn drain(&mut self, row: &mut Row) {
        let scratch = &mut self.scratch;
        row.retain_mut(|(r, count)| {
            *count = std::mem::take(&mut scratch[cast::u32_to_usize(*r)]);
            *count > 0
        });
    }

    /// Resolves `row`: one entry per live cluster it links to, with the
    /// summed count.
    fn resolve(&mut self, row: &mut Row) {
        self.gather(row);
        self.drain(row);
    }

    /// Goodness of the best available merge, if any.
    fn best_goodness(&self) -> Option<f64> {
        self.global.peek().map(|(k, _)| k.goodness())
    }

    /// Brings slot `i`'s global-heap entry in line with its local best,
    /// given the best it had before the change. The global key depends
    /// only on the best's goodness, so an equal value needs no update.
    fn publish(&mut self, i: u32, old_best: Option<LocalKey>) {
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
        self.merge(u, best.partner(), best.goodness());
        Some(best.goodness())
    }

    /// Merges cluster `v` into cluster `u`.
    fn merge(&mut self, u: u32, v: u32, goodness_value: f64) {
        debug_assert_ne!(u, v);
        let (ui, vi) = (cast::u32_to_usize(u), cast::u32_to_usize(v));
        let (nu, nv) = (self.size(u), self.size(v));

        // The merged row: v's row resolved, added to u's. The cross links
        // are u's entries that resolve to v; taking their count leaves
        // v's entry empty, so the drain drops it. A partner of both loses
        // one live partner.
        let mut side = std::mem::take(&mut self.rows[vi]);
        self.resolve(&mut side);
        let mut row = std::mem::take(&mut self.rows[ui]);
        self.gather(&mut row);
        let cross = std::mem::take(&mut self.scratch[vi]);
        // Exact, so a merge never grows the rows' total capacity.
        row.reserve_exact(side.len());
        for &(x, count) in &side {
            if x == u {
                continue;
            }
            let xi = cast::u32_to_usize(x);
            if self.scratch[xi] == 0 {
                row.push((x, 0));
            } else {
                self.live_partners[xi] -= 1;
            }
            self.scratch[xi] += count;
        }
        self.drain(&mut row);
        self.live_partners[ui] = row.len();
        self.live_partners[vi] = 0;

        // Fold sizes and internal links: from here on u has size nu + nv
        // and v size 0, so every key made for either is stale.
        self.size[ui] += std::mem::take(&mut self.size[vi]);
        self.internal[ui] += self.internal[vi] + 2 * cross;
        self.internal[vi] = 0;

        // Retire v: before any partner's repair can resolve its row, v
        // stands for u.
        self.parent[vi] = u;
        self.take_heap(vi);
        self.global.remove(v);

        // Re-key every partner x of the merged cluster from both sides,
        // each with its own size first: u's side is merge_goodness(c, nw,
        // nx), x's side merge_goodness(c, nx, nw), and their last bits can
        // differ. u's heap, whose keys all went stale with its size,
        // becomes unbuilt with the greatest of its side's keys. Each
        // partner's repair touches only its own heap, so the row's order
        // does not matter.
        let nw = nu + nv;
        let old_best = self.take_heap(ui);
        let mut best = None;
        for &(x, count) in &row {
            let nx = self.size(x);
            best = best.max(Some(LocalKey::new(self.goodness, count, nw, x, nx)));
            let x_side = LocalKey::new(self.goodness, count, nx, u, nw);
            self.repair(x, v, x_side);
        }
        self.local[ui] = LocalHeap::unbuilt(best);
        self.rows[ui] = row;
        self.publish(u, old_best);
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

    /// Empties slot `s`'s heap, whose keys went stale with its size,
    /// counting the keys a built one held as popped, and returns its best.
    fn take_heap(&mut self, s: usize) -> Option<LocalKey> {
        let heap = std::mem::take(&mut self.local[s]);
        self.local_pops += cast::usize_to_u64(heap.built_len());
        heap.best
    }

    /// Partner `x` of a merge of `v` into `u = key.partner()`: its heap
    /// gets `key`, and its row stays as it is. A cached best for `u` or
    /// `v` is stale and is dropped at once: `key` replaces it if it wins,
    /// and a rescan runs only if it lost. A live best stays unless `key`
    /// beats it. A built heap takes whichever of the two is not the best;
    /// an unbuilt one takes nothing, since its row makes both, and its
    /// rescan is a build.
    fn repair(&mut self, x: u32, v: u32, key: LocalKey) {
        let xi = cast::u32_to_usize(x);
        let u = key.partner();
        let heap = &mut self.local[xi];
        self.tally.repairs += 1;
        let old_best = heap.best;
        // A built heap counts `key` pushed and a stale best popped; an
        // unbuilt one counts neither.
        let built = u64::from(heap.keys.is_some());
        self.local_pushes += built;
        match old_best {
            Some(b) if b.partner() == u || b.partner() == v => {
                self.local_pops += built;
                if key > b {
                    heap.best = Some(key);
                    self.tally.replaced += 1;
                } else {
                    self.tally.rescans += 1;
                    match heap.rescan(Some(key), &self.size) {
                        Some(dropped) => {
                            self.local_pops += dropped;
                            self.tally.dropped += dropped;
                        }
                        // The row already maps v to u, so the build makes
                        // `key` itself.
                        None => self.build(x),
                    }
                }
            }
            Some(b) if key < b => heap.push(key),
            Some(b) => {
                heap.push(b);
                heap.best = Some(key);
            }
            None => heap.best = Some(key),
        }
        self.settle(x, old_best);
    }

    /// Builds slot `x`'s heap from its row, resolved and stored back: one
    /// key per live partner, heapified. Its old heap must be unbuilt.
    fn build(&mut self, x: u32) {
        let xi = cast::u32_to_usize(x);
        debug_assert!(self.local[xi].keys.is_none(), "slot {x}: built twice");
        let mut row = std::mem::take(&mut self.rows[xi]);
        self.resolve(&mut row);
        debug_assert_eq!(row.len(), self.live_partners[xi], "slot {x}: live partners");
        let (size, goodness) = (&self.size, self.goodness);
        let own = cast::u32_to_usize(size[xi]);
        let keys: Vec<LocalKey> = row
            .iter()
            .map(|&(y, count)| {
                let ny = cast::u32_to_usize(size[cast::u32_to_usize(y)]);
                LocalKey::new(goodness, count, own, y, ny)
            })
            .collect();
        self.local_pushes += cast::usize_to_u64(keys.len());
        self.tally.builds += 1;
        self.local[xi] = LocalHeap::built(keys);
        self.rows[xi] = row;
    }

    /// Ends a change to slot `x`'s heap: a built heap goes back to
    /// unbuilt once its binary heap holds more than twice the slot's live
    /// partners (stale keys then outnumber live ones), which bounds it at
    /// about twice the row; its best stays. Then publishes the best.
    fn settle(&mut self, x: u32, old_best: Option<LocalKey>) {
        let xi = cast::u32_to_usize(x);
        let heap = &mut self.local[xi];
        if heap
            .keys
            .as_ref()
            .is_some_and(|keys| keys.len() > 2 * self.live_partners[xi])
        {
            self.local_pops += cast::usize_to_u64(heap.built_len());
            heap.keys = None;
        }
        self.publish(x, old_best);
    }

    /// Live partner `x` of a pruned slot `s` (now of size 0) loses it; its
    /// keys for `s` are stale. A best for `s` is replaced by a rescan of a
    /// built heap, or else by a build.
    fn drop_partner(&mut self, x: u32, s: u32) {
        let xi = cast::u32_to_usize(x);
        self.live_partners[xi] -= 1;
        let heap = &mut self.local[xi];
        let old_best = heap.best;
        if old_best.is_some_and(|b| b.partner() == s) {
            match heap.rescan(None, &self.size) {
                Some(dropped) => self.local_pops += 1 + dropped,
                None => self.build(x),
            }
        }
        self.settle(x, old_best);
    }

    /// Discards every live cluster with at most `max_size` members, unless
    /// that is every live cluster, and returns how many it discarded. The
    /// points of a discarded cluster are outliers: their root has size 0.
    fn prune_small(&mut self, max_size: usize) -> usize {
        // Never prune everything: keep at least one cluster.
        if self.size.iter().all(|&s| cast::u32_to_usize(s) <= max_size) {
            return 0;
        }
        let victims: Vec<u32> = (0..cast::usize_to_u32(self.size.len()))
            .filter(|&s| (1..=max_size).contains(&self.size(s)))
            .collect();
        for &s in &victims {
            let si = cast::u32_to_usize(s);
            self.size[si] = 0;
            self.internal[si] = 0;
            self.take_heap(si);
            self.global.remove(s);
            // s's row resolved is its live partners (victims pruned
            // earlier in this pass are dead); each drops s on its own.
            let mut row = std::mem::take(&mut self.rows[si]);
            self.resolve(&mut row);
            self.live_partners[si] = 0;
            for (x, _) in row {
                self.drop_partner(x, s);
            }
        }
        victims.len()
    }

    /// Estimated bytes of the merge state that scales with the links:
    /// the global heap, every local heap (keys only while built) and
    /// every link row (entries at capacity).
    fn heap_bytes(&self) -> usize {
        let keys: usize = self
            .local
            .iter()
            .filter_map(|h| h.keys.as_ref())
            .map(BinaryHeap::capacity)
            .sum();
        let entries: usize = self.rows.iter().map(Row::capacity).sum();
        self.global.estimated_bytes()
            + self.local.capacity() * std::mem::size_of::<LocalHeap>()
            + self.rows.capacity() * std::mem::size_of::<Row>()
            + keys * std::mem::size_of::<LocalKey>()
            + entries * std::mem::size_of::<(u32, u64)>()
    }

    /// Flushes the run's tallies into `observer`: merges, push/pop totals
    /// over the global heap and the built local heaps, and the end-of-run
    /// heap footprint, which holds the heaps still built. The pruned
    /// points are counted from the result.
    fn flush_telemetry(&self, observer: &Observer) {
        let counters = observer.counters();
        let (pushes, pops) = self.global.telemetry_counts();
        PipelineCounters::add(&counters.heap_pushes, pushes + self.local_pushes);
        PipelineCounters::add(&counters.heap_pops, pops + self.local_pops);
        PipelineCounters::add(&counters.heap_anomalies, self.global.anomaly_count());
        PipelineCounters::add(&counters.merges, cast::usize_to_u64(self.merges));
        MemoryGauges::observe(
            &observer.memory().heaps,
            cast::usize_to_u64(self.heap_bytes()),
        );
    }

    /// Current value of the criterion function E_l.
    fn criterion(&self) -> f64 {
        let sizes = self.size.iter().map(|&s| cast::u32_to_usize(s));
        criterion(self.goodness, sizes, &self.internal)
    }

    /// Slot `s`'s row resolved by plain chain walks, without touching the
    /// engine: partner cluster → summed count. Test helper.
    #[cfg(test)]
    fn resolved(&self, s: usize) -> std::collections::BTreeMap<u32, u64> {
        let mut out = std::collections::BTreeMap::new();
        for &(mut y, count) in &self.rows[s] {
            while self.parent[cast::u32_to_usize(y)] != y {
                y = self.parent[cast::u32_to_usize(y)];
            }
            if self.size(y) > 0 {
                *out.entry(y).or_insert(0) += count;
            }
        }
        out
    }

    /// Checks the lazy-heap invariants against a full recomputation: the
    /// scratch row is clean, resolved rows are symmetric in partners and
    /// counts and as long as the slot's live-partner count, a built
    /// slot's live keys (the heap's live keys plus `best`) are exactly the
    /// keys its resolved row makes now, each held once, every slot's
    /// `best` is the greatest key its resolved row makes, the global heap
    /// holds exactly the slots with a best, keyed by its goodness, and
    /// the local push and pop tallies differ by the keys the built heaps
    /// hold. Test helper; `O(links)` per call.
    #[cfg(test)]
    fn assert_invariants(&self) {
        self.global.assert_invariants();
        assert!(
            self.scratch.iter().all(|&c| c == 0),
            "scratch row not clean"
        );
        let resolved: Vec<_> = (0..self.rows.len()).map(|s| self.resolved(s)).collect();
        for (xi, row) in resolved.iter().enumerate() {
            let x = cast::usize_to_u32(xi);
            let heap = &self.local[xi];
            if self.size[xi] == 0 {
                assert!(self.rows[xi].is_empty(), "retired slot {x} has links");
            }
            assert!(!row.contains_key(&x), "slot {x} links to itself");
            assert_eq!(row.len(), self.live_partners[xi], "slot {x}: live partners");
            let own = self.size(x);
            let mut fresh: Vec<LocalKey> = row
                .iter()
                .map(|(&y, &c)| LocalKey::new(self.goodness, c, own, y, self.size(y)))
                .collect();
            fresh.sort_unstable();
            assert_eq!(heap.best, fresh.last().copied(), "slot {x}: stale best");
            if let Some(keys) = &heap.keys {
                let mut live: Vec<LocalKey> = keys
                    .iter()
                    .copied()
                    .chain(heap.best)
                    .filter(|k| k.is_live(&self.size))
                    .collect();
                live.sort_unstable();
                assert_eq!(live, fresh, "slot {x}: live keys disagree with the row");
                assert!(
                    keys.len() <= 2 * row.len().max(1),
                    "slot {x}: heap never compacted"
                );
            }
            let global_key = self.global.priority(x).copied();
            assert_eq!(
                global_key,
                heap.best.map(|b| GoodnessKey::new(b.goodness(), x)),
                "slot {x}: global entry out of sync"
            );
            for (&y, count) in row {
                let back = resolved[cast::u32_to_usize(y)].get(&x);
                assert_eq!(back, Some(count), "rows {x}/{y} asymmetric");
            }
        }
        let held: usize = self.local.iter().map(LocalHeap::built_len).sum();
        assert_eq!(
            self.local_pushes - self.local_pops,
            cast::usize_to_u64(held),
            "local push and pop tallies"
        );
    }

    /// The result: each point is labeled by the slot its chain ends at,
    /// or by none when that slot was pruned.
    fn finish(mut self, reached_k: bool) -> Agglomeration {
        let criterion = self.criterion();
        let labels: Vec<Option<u32>> = (0..cast::usize_to_u32(self.parent.len()))
            .map(|p| {
                let root = find(&mut self.parent, p);
                (self.size[cast::u32_to_usize(root)] > 0).then_some(root)
            })
            .collect();
        assemble(&labels, self.history, criterion, self.merges, reached_k)
    }
}

/// Criterion `E_l` over the live clusters (nonzero sizes), summed in slot
/// order.
fn criterion(goodness: &Goodness, sizes: impl Iterator<Item = usize>, internal: &[u64]) -> f64 {
    sizes
        .zip(internal)
        .filter(|&(size, _)| size > 0)
        .map(|(size, &links)| goodness.criterion_term(links, size))
        .sum()
}

/// The result of a run that ended with each point labeled by its
/// cluster's slot, or by none if it was pruned: [`partition`]'s clusters
/// and assignment, and the unlabeled points as outliers.
fn assemble(
    labels: &[Option<u32>],
    history: Vec<MergeStep>,
    criterion: f64,
    merges: usize,
    reached_k: bool,
) -> Agglomeration {
    let (clusters, assignment) = partition(labels);
    let outliers = (0..cast::usize_to_u32(labels.len()))
        .filter(|&p| labels[cast::u32_to_usize(p)].is_none())
        .collect();
    Agglomeration {
        assignment,
        clusters,
        history,
        criterion,
        merges,
        reached_k,
        outliers,
    }
}

/// The paper's merge loop by linear scan, the plainly correct reference
/// for the engine tests (the shape of `tests/reference.rs`): a dense
/// count matrix, and before every merge a scan of every live pair, each
/// side scored with its own size first. The best slot's best partner
/// wins under the [`GoodnessKey`] order. Checkpoint pruning, the goodness
/// floor and the history follow `agglomerate_guarded`; the step budget
/// is a plain merge count.
#[cfg(test)]
mod oracle {
    use super::{assemble, criterion, AgglomerateConfig, Agglomeration, GoodnessKey, MergeStep};
    use crate::goodness::Goodness;
    use crate::links::LinkTable;

    /// The best merge `(goodness, u, v)`: every live slot's best partner
    /// under its own-side goodness, then the best slot, ties to the
    /// smaller id.
    fn best_merge(
        good: &Goodness,
        members: &[Vec<u32>],
        cross: &[Vec<u64>],
    ) -> Option<(f64, u32, u32)> {
        let mut best: Option<(GoodnessKey, u32)> = None;
        for (a, row) in cross.iter().enumerate() {
            let local = (0..row.len())
                .filter(|&b| row[b] > 0)
                .map(|b| {
                    let g = good.merge_goodness(row[b], members[a].len(), members[b].len());
                    GoodnessKey::new(g, b as u32)
                })
                .max();
            if let Some(local) = local {
                let key = GoodnessKey::new(local.goodness(), a as u32);
                if best.is_none_or(|(b, _)| key > b) {
                    best = Some((key, local.tie()));
                }
            }
        }
        best.map(|(key, v)| (key.goodness(), key.tie(), v))
    }

    /// Reference result of `agglomerate_guarded` under a step budget of
    /// `steps` merges (`None` = unlimited).
    #[allow(clippy::needless_range_loop)] // the count matrix is updated by row and column at once
    pub(super) fn run(
        n: usize,
        links: &LinkTable,
        good: &Goodness,
        config: &AgglomerateConfig,
        steps: Option<usize>,
    ) -> Agglomeration {
        let mut cross = vec![vec![0u64; n]; n];
        for (i, j, c) in links.iter() {
            cross[i as usize][j as usize] = u64::from(c);
            cross[j as usize][i as usize] = u64::from(c);
        }
        let mut members: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
        let mut internal = vec![0u64; n];
        let mut history = Vec::new();
        let checkpoint = config.prune.map(|p| {
            let at = (p.checkpoint_fraction * n as f64).ceil() as usize;
            (at.clamp(config.k, n), p.max_prune_size)
        });
        let mut pruned_once = checkpoint.is_none();
        let (mut active, mut merges) = (n, 0);
        while active > config.k {
            if let Some((at, max_size)) = checkpoint {
                if !pruned_once && active <= at {
                    pruned_once = true;
                    let victims: Vec<usize> = (0..n)
                        .filter(|&s| (1..=max_size).contains(&members[s].len()))
                        .collect();
                    if victims.len() < active {
                        for s in victims {
                            members[s].clear();
                            internal[s] = 0;
                            for x in 0..n {
                                cross[s][x] = 0;
                                cross[x][s] = 0;
                            }
                            active -= 1;
                        }
                    }
                    if active <= config.k {
                        break;
                    }
                }
            }
            let found = best_merge(good, &members, &cross);
            if (config.min_goodness).is_some_and(|f| found.is_none_or(|(g, _, _)| g < f)) {
                break;
            }
            if steps.is_some_and(|s| merges >= s) {
                break;
            }
            let Some((goodness, kept, absorbed)) = found else {
                break;
            };
            let (u, v) = (kept as usize, absorbed as usize);
            let sizes = (members[u].len() as u32, members[v].len() as u32);
            let folded = std::mem::take(&mut members[v]);
            members[u].extend(folded);
            internal[u] += internal[v] + 2 * cross[u][v];
            internal[v] = 0;
            for x in 0..n {
                let c = std::mem::take(&mut cross[v][x]);
                cross[x][v] = 0;
                if x != u && x != v {
                    cross[u][x] += c;
                    cross[x][u] = cross[u][x];
                }
            }
            active -= 1;
            merges += 1;
            if config.record_history {
                let criterion = criterion(good, members.iter().map(Vec::len), &internal);
                history.push(MergeStep {
                    kept,
                    absorbed,
                    goodness,
                    sizes,
                    criterion,
                });
            }
        }
        let criterion = criterion(good, members.iter().map(Vec::len), &internal);
        // Each point is labeled by the slot whose list holds it; a pruned
        // point is in no list.
        let mut labels = vec![None; n];
        for (s, list) in members.iter().enumerate() {
            for &p in list {
                labels[p as usize] = Some(s as u32);
            }
        }
        assemble(&labels, history, criterion, merges, active == config.k)
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
    fn link_table_over_other_points_is_rejected() {
        let data: TransactionSet = block(0, 6, 4).into_iter().collect();
        let g = NeighborGraph::compute(&data, &Jaccard, 0.5, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        for n in [3, 7] {
            assert_eq!(
                agglomerate(n, &links, &good, &AgglomerateConfig::new(1)).unwrap_err(),
                RockError::LengthMismatch {
                    left_name: "links",
                    left: 6,
                    right_name: "points",
                    right: n,
                }
            );
        }
    }

    #[test]
    fn checkpoint_fraction_outside_the_unit_interval_is_rejected() {
        let (ts, links, good) = guarded_fixture();
        let run = |fraction: f64| {
            let prune = PruneConfig {
                checkpoint_fraction: fraction,
                max_prune_size: 1,
            };
            let mut cfg = AgglomerateConfig::new(2);
            cfg.prune = Some(prune);
            let merged = agglomerate(ts.len(), &links, &good, &cfg).map(|_| ());
            let fit = crate::rock::RockBuilder::new(2, 0.5)
                .prune(prune)
                .build()
                .fit(&ts)
                .map(|_| ());
            (merged, fit)
        };
        for fraction in [f64::NAN, -1.0, 0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            let (merged, fit) = run(fraction);
            for result in [merged, fit] {
                assert!(
                    matches!(
                        result,
                        Err(RockError::InvalidFraction {
                            name: "checkpoint_fraction",
                            ..
                        })
                    ),
                    "fraction {fraction}: {result:?}"
                );
            }
        }
        for fraction in [1e-9, 0.5, 1.0] {
            assert_eq!(run(fraction), (Ok(()), Ok(())), "fraction {fraction}");
        }
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
        // Seed 101 displaces a live best that a later rescan must find.
        for seed in (0..10u64).chain([101]) {
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
        // merge is decided by the id tie-break alone. At θ = 0.2,
        // f(θ) = 2/3 > 1/2, so each merge lowers its partners' best and
        // every repair rescans its slot's heap.
        let same: TransactionSet = (0..12).map(|_| Transaction::new([1, 2, 3])).collect();
        for theta in [0.5, 0.2] {
            let g = NeighborGraph::compute(&same, &Jaccard, theta, 1).unwrap();
            let links = LinkTable::compute(&g);
            let good = Goodness::new(theta, &MarketBasket).unwrap();
            let ctx = format!("identical rows theta={theta}");
            assert!(check_against_oracle(12, &links, &good, &ctx) > 0);
        }
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
    fn stale_rows_resolve_through_retired_chains_and_pruned_absorbers() {
        // 6 merges into 0 and 5 into 4 (count 20, ties to the smaller
        // slot), then 2 into 1 (10), then {1, 2} into {0, 6} (12 at sizes
        // 2 and 2). Slots 3 and {4, 5} each link once to 2, and more
        // strongly to 7, which stays their best, so neither rescans, builds
        // or resolves its row on the way: 3's row still names 2, which
        // stands for 0 through the retired 1. The checkpoint then prunes
        // 3, {4, 5} and 7, whose row names 3 and 4, and leaves 0 without
        // partners.
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 8];
        rows[0] = vec![(1, 6), (2, 6), (6, 20)];
        rows[1] = vec![(2, 10)];
        rows[2] = vec![(3, 1), (5, 1)];
        rows[3] = vec![(7, 2)];
        rows[4] = vec![(5, 20), (7, 2)];
        let links = LinkTable::from_upper_rows(rows);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();

        let mut engine = Engine::new(8, &links, &good, true);
        engine.assert_invariants();
        for _ in 0..4 {
            engine.merge_best().unwrap();
            engine.assert_invariants();
        }
        let order: Vec<(u32, u32)> = engine
            .history
            .iter()
            .map(|m| (m.kept, m.absorbed))
            .collect();
        assert_eq!(order, [(0, 6), (4, 5), (1, 2), (0, 1)]);
        assert_eq!(engine.tally.builds, 0);
        assert_eq!(engine.rows[3], [(2, 1), (7, 2)]);
        assert_eq!(engine.rows[4], [(7, 2), (2, 1)]);
        assert_eq!((engine.parent[2], engine.parent[1]), (1, 0));
        assert_eq!(engine.prune_small(2), 3);
        engine.assert_invariants();
        assert!(engine.global.is_empty());
        assert_eq!(engine.finish(false).outliers, [3, 4, 5, 7]);

        let cfg = AgglomerateConfig {
            k: 1,
            // Fires at ceil(0.5 · 8) = 4 clusters: {0, 1, 2, 6}, 3,
            // {4, 5}, 7.
            prune: Some(PruneConfig {
                checkpoint_fraction: 0.5,
                max_prune_size: 2,
            }),
            record_history: true,
            min_goodness: None,
        };
        let got = agglomerate(8, &links, &good, &cfg).unwrap();
        assert_same(
            &got,
            &oracle::run(8, &links, &good, &cfg, None),
            "stale rows",
        );
        assert_eq!(got.outliers, [3, 4, 5, 7]);
        assert!(check_against_oracle(8, &links, &good, "stale rows grid") > 0);
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
            let mut active = n;
            while engine.merge_best().is_some() {
                active -= 1;
                engine.assert_invariants();
                if active == n / 2 {
                    active -= engine.prune_small(2);
                    engine.assert_invariants();
                }
            }
            assert!(engine.global.is_empty());
        }
    }

    /// Runs `agglomerate_guarded` down to one cluster with tracing on and
    /// sums the repair tallies of its `agglomerate.batch` spans.
    fn traced_batch_tallies(
        n: usize,
        links: &LinkTable,
        good: &Goodness,
        tag: &str,
    ) -> RepairTally {
        use crate::telemetry::trace::{PayloadValue, TraceRecord};
        let path = std::env::temp_dir().join(format!(
            "rock-agglomerate-{tag}-{}.trace",
            std::process::id()
        ));
        let obs = Observer::new();
        obs.tracer().start_to_path(&path, "unit").unwrap();
        let cfg = AgglomerateConfig::new(1);
        agglomerate_guarded(n, links, good, &cfg, &obs, &Guard::unlimited()).unwrap();
        obs.tracer().finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut sum = RepairTally::default();
        for line in text.lines().skip(1) {
            let TraceRecord::Span(span) = TraceRecord::parse_line(line).unwrap() else {
                continue;
            };
            if span.name != "agglomerate.batch" {
                continue;
            }
            let field = |key: &str| match span.payload.iter().find(|(k, _)| k == key) {
                Some((_, PayloadValue::Num(v))) => *v as u64,
                other => panic!("{tag}: batch field {key}: {other:?}"),
            };
            sum.repairs += field("repairs");
            sum.replaced += field("replaced");
            sum.rescans += field("rescans");
            sum.builds += field("builds");
            sum.dropped += field("dropped");
        }
        sum
    }

    #[test]
    fn batch_repair_counts_sum_to_the_run_totals() {
        // 159 merges: two full batches and a partial one, with every kind
        // of repair.
        let mut rng = Rng::seed_from_u64(7);
        let n = 160;
        let links = random_links(&mut rng, n, 0.3, 2);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        let mut engine = Engine::new(n, &links, &good, false);
        while engine.merge_best().is_some() {}
        let total = engine.tally;
        assert!(total.replaced > 0 && total.rescans > 0 && total.dropped > 0);
        assert!(total.builds > 0);
        assert!(total.repairs > total.replaced + total.rescans);
        assert_eq!(traced_batch_tallies(n, &links, &good, "sum"), total);
    }

    #[test]
    fn identical_rows_either_replace_or_rescan_every_repair() {
        // Every pair is linked, so the merge that leaves a clusters
        // repairs the other a - 1. A merged key beats the stale best it
        // meets when f(θ) < 1/2 (θ = 0.5) and loses to it when f(θ) > 1/2
        // (θ = 0.2). A replacement builds nothing; a rescan builds a heap
        // the first time its slot rescans since it last kept a merge, so
        // the first merge builds every partner's heap and each later one
        // about one: the slot the merge before it kept.
        let n = 200;
        let same: TransactionSet = (0..n).map(|_| Transaction::new([1, 2, 3])).collect();
        for theta in [0.5, 0.2] {
            let g = NeighborGraph::compute(&same, &Jaccard, theta, 1).unwrap();
            let links = LinkTable::compute(&g);
            let good = Goodness::new(theta, &MarketBasket).unwrap();
            let t = traced_batch_tallies(n, &links, &good, &format!("same-{theta}"));
            assert_eq!(t.repairs, ((n - 1) * (n - 2) / 2) as u64, "theta={theta}");
            if theta == 0.5 {
                assert_eq!((t.replaced, t.rescans), (t.repairs, 0), "theta={theta}");
                assert_eq!(t.builds, 0, "theta={theta}");
            } else {
                assert_eq!((t.replaced, t.rescans), (0, t.repairs), "theta={theta}");
                assert!(
                    t.builds < 2 * n as u64,
                    "theta={theta}: {} builds",
                    t.builds
                );
            }
        }
    }

    #[test]
    fn heap_bytes_counts_rows_and_local_heaps() {
        let (ts, links, good) = guarded_fixture();
        let mut engine = Engine::new(ts.len(), &links, &good, false);
        let entries: usize = engine.rows.iter().map(Row::len).sum();
        assert!(entries > 0);
        // No heap is built yet: the global heap, the slots and the rows.
        let unbuilt = engine.global.estimated_bytes()
            + engine.local.capacity() * std::mem::size_of::<LocalHeap>()
            + engine.rows.capacity() * std::mem::size_of::<Row>()
            + entries * std::mem::size_of::<(u32, u64)>();
        assert_eq!(engine.heap_bytes(), unbuilt);
        // A build adds one key per live partner, its best included.
        engine.build(0);
        engine.assert_invariants();
        let keys = engine.rows[0].len() * std::mem::size_of::<LocalKey>();
        assert!(keys > 0);
        assert_eq!(engine.heap_bytes(), unbuilt + keys);
    }
}
