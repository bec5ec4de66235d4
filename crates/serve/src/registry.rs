//! The multi-model registry: named, versioned snapshots behind an
//! atomic hot-swap.
//!
//! A production labeling tier serves *many* fitted models at once —
//! per-dataset variants, per-θ sweeps, k-modes-family baselines — and
//! swaps any of them with zero downtime. The registry is that
//! subsystem:
//!
//! ```text
//! Registry ──► name ──► ModelSlot ──► Mutex<Option<Arc<ModelEntry>>>
//!   (BTreeMap, admin-locked)   (swap cell)   (snapshot + version +
//!                                             fingerprint)
//! ```
//!
//! * **Atomic swap.** Each [`ModelSlot`] holds its current entry in one
//!   swap cell, a `Mutex<Option<Arc<ModelEntry>>>`. Readers lock it just
//!   long enough to clone the `Arc`; writers (serialized by the admin
//!   lock) `mem::replace` the entry and drop the retired `Arc` after
//!   unlocking. A request that resolved the old entry keeps its `Arc`
//!   and finishes on the old model; every request resolved after the
//!   swap sees the new one. The retired version is freed when its last
//!   in-flight request drops it.
//! * **Fail-closed activation.** [`Registry::install_text`] parses and
//!   validates the uploaded `rock-model/v1` text *before* touching the
//!   slot. A corrupt, truncated or version-mismatched snapshot is
//!   rejected with the prior model still serving; the slot is marked
//!   [`ModelState::Degraded`] and `rejected_swaps` bumped so the
//!   failure is visible in `/healthz` and `/metrics`.
//! * **Identity.** Entries carry the same content fingerprint the
//!   streaming checkpoint layer uses to refuse resuming against a
//!   different model ([`ModelSnapshot::fingerprint`]): two entries
//!   fingerprint equal iff their snapshots render byte-identically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rock_core::error::{Result, RockError};
use rock_core::snapshot::ModelSnapshot;
use rock_core::telemetry::trace::LatencyHistogram;

/// The default model name: `POST /label` routes here.
pub const DEFAULT_MODEL: &str = "default";

/// Locks a mutex, recovering from poisoning (registry state is a map of
/// `Arc`s and counters — a panicked holder cannot leave it torn).
fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// --------------------------------------------------------------- ModelEntry

/// One immutable installed model version. Requests pin the entry (an
/// `Arc` clone) at dispatch time, so a swap mid-request cannot change
/// which model labels it.
pub struct ModelEntry {
    snapshot: Arc<ModelSnapshot>,
    version: u64,
    fingerprint: u64,
}

impl ModelEntry {
    /// Wraps a validated snapshot as version `version`.
    pub fn new(snapshot: ModelSnapshot, version: u64) -> Self {
        let fingerprint = snapshot.fingerprint();
        ModelEntry {
            snapshot: Arc::new(snapshot),
            version,
            fingerprint,
        }
    }

    /// The fitted model.
    pub fn snapshot(&self) -> &ModelSnapshot {
        &self.snapshot
    }

    /// Monotonic per-name version (1 for the first install).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Content fingerprint (same mechanism as the streaming checkpoint
    /// layer's model identity check).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint rendered the way every other subsystem renders
    /// it: 16 lowercase hex digits. Formatted from the cached value —
    /// this sits on the per-response header path, where re-hashing the
    /// snapshot would cost more than the labeling itself.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

// --------------------------------------------------------------- ModelState

/// Health of one registry slot, reported by `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelState {
    /// A model is installed and the last admin operation succeeded.
    Ready,
    /// A model is serving, but the *last* swap attempt was rejected —
    /// traffic is answered by the prior version.
    Degraded,
    /// Nothing installed (deleted, or never successfully loaded).
    Empty,
}

impl ModelState {
    /// Stable serialized name (`ready` / `degraded` / `empty`).
    pub fn name(self) -> &'static str {
        match self {
            ModelState::Ready => "ready",
            ModelState::Degraded => "degraded",
            ModelState::Empty => "empty",
        }
    }

    fn from_u8(v: u8) -> ModelState {
        match v {
            0 => ModelState::Ready,
            1 => ModelState::Degraded,
            _ => ModelState::Empty,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            ModelState::Ready => 0,
            ModelState::Degraded => 1,
            ModelState::Empty => 2,
        }
    }
}

// ---------------------------------------------------------- ModelCounters

/// Per-model monotonic request counters.
#[derive(Default)]
pub struct ModelCounters {
    /// Points labeled into a cluster by this model.
    pub labeled: AtomicU64,
    /// Points answered `{"cluster":null}` by this model.
    pub outlier: AtomicU64,
    /// Labeling kernel calls against this model: one per labeling
    /// request, whose NDJSON body is labeled as one batch.
    pub batches: AtomicU64,
    /// Points labeled by those calls.
    pub batch_points: AtomicU64,
}

impl ModelCounters {
    /// Bumps `counter` by `n` (a Relaxed tally).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time `(labeled, outlier, batches, batch_points)` copy.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.labeled.load(Ordering::Relaxed),
            self.outlier.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.batch_points.load(Ordering::Relaxed),
        )
    }
}

// ------------------------------------------------------------------- Slot

/// One named mount point: the current entry in its swap cell, version
/// sequence, per-model counters and the latency histogram of its
/// labeling kernel calls (one per labeling request).
pub struct ModelSlot {
    name: String,
    /// The swap cell: the serving entry, `None` when nothing is mounted.
    current: Mutex<Option<Arc<ModelEntry>>>,
    state: AtomicU8,
    version_seq: AtomicU64,
    swaps: AtomicU64,
    rejected_swaps: AtomicU64,
    counters: ModelCounters,
    batch_hist: Mutex<LatencyHistogram>,
}

impl ModelSlot {
    fn new(name: &str) -> Self {
        ModelSlot {
            name: name.to_owned(),
            current: Mutex::new(None),
            state: AtomicU8::new(ModelState::Empty.as_u8()),
            version_seq: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            rejected_swaps: AtomicU64::new(0),
            counters: ModelCounters::default(),
            batch_hist: Mutex::new(LatencyHistogram::new()),
        }
    }

    /// The slot's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The currently active entry, if any. In-flight holders of a
    /// previous `Arc` are unaffected by later swaps.
    pub fn current(&self) -> Option<Arc<ModelEntry>> {
        lock(&self.current).clone()
    }

    /// Publishes `next` and returns the retired entry; the lock is
    /// released before the caller drops it. Writers are serialized by
    /// the registry's admin lock.
    fn replace(&self, next: Option<Arc<ModelEntry>>) -> Option<Arc<ModelEntry>> {
        std::mem::replace(&mut *lock(&self.current), next)
    }

    /// The slot's health state.
    pub fn state(&self) -> ModelState {
        ModelState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Per-model request counters.
    pub fn counters(&self) -> &ModelCounters {
        &self.counters
    }

    /// Records the latency of one labeling kernel call (nanoseconds).
    pub fn record_batch_ns(&self, ns: u64) {
        lock(&self.batch_hist).record(ns);
    }

    /// A copy of the kernel-call latency histogram.
    pub fn batch_hist(&self) -> LatencyHistogram {
        lock(&self.batch_hist).clone()
    }

    /// Successful swaps on this slot.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Rejected swap attempts on this slot.
    pub fn rejected_swaps(&self) -> u64 {
        self.rejected_swaps.load(Ordering::Relaxed)
    }
}

// --------------------------------------------------------------- Registry

/// What [`Registry::install`] reports back to the admin plane.
pub struct InstallReport {
    /// The slot the model was mounted into.
    pub slot: Arc<ModelSlot>,
    /// The new entry (already live).
    pub entry: Arc<ModelEntry>,
    /// `true` when the name existed before this install.
    pub replaced: bool,
}

impl std::fmt::Debug for InstallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstallReport")
            .field("model", &self.slot.name())
            .field("version", &self.entry.version())
            .field("replaced", &self.replaced)
            .finish()
    }
}

/// A point-in-time health row for one model, in deterministic
/// (name-sorted) order from [`Registry::status`].
pub struct ModelStatus {
    /// Registry name.
    pub name: String,
    /// Slot health.
    pub state: ModelState,
    /// Active version (0 when empty).
    pub version: u64,
    /// Active fingerprint, hex (empty string when empty).
    pub fingerprint: String,
    /// Clusters in the active model (0 when empty).
    pub clusters: usize,
    /// Representatives in the active model (0 when empty).
    pub representatives: usize,
    /// Per-model `(labeled, outlier, batches, batch_points)`.
    pub counters: (u64, u64, u64, u64),
    /// Successful swaps on the slot.
    pub swaps: u64,
    /// Rejected swap attempts on the slot.
    pub rejected_swaps: u64,
}

/// The name/version-keyed model registry.
pub struct Registry {
    /// Directory of slots. Lookups hold this lock only long enough to
    /// clone an `Arc`; the hot path then reads through the slot's swap
    /// cell. `BTreeMap` keeps status iteration deterministic.
    slots: Mutex<BTreeMap<String, Arc<ModelSlot>>>,
    /// Serializes admin mutations (install/remove) so swap-cell writers
    /// never race each other.
    admin: Mutex<()>,
    swaps: AtomicU64,
    rejected_swaps: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            slots: Mutex::new(BTreeMap::new()),
            admin: Mutex::new(()),
            swaps: AtomicU64::new(0),
            rejected_swaps: AtomicU64::new(0),
        }
    }

    /// Validates a registry model name: 1–64 chars from
    /// `[A-Za-z0-9._-]`, so names embed cleanly in URL paths, JSON and
    /// trace payloads.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    }

    fn slot_or_insert(&self, name: &str) -> Arc<ModelSlot> {
        let mut slots = lock(&self.slots);
        let slot = slots
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(ModelSlot::new(name)));
        Arc::clone(slot)
    }

    /// Installs (or hot-swaps) an already-validated snapshot under
    /// `name`. The swap is atomic: requests resolve either the old or
    /// the new entry, never a torn state, and in-flight requests finish
    /// on whichever entry they pinned at dispatch.
    ///
    /// # Errors
    /// [`RockError::SnapshotInvalid`] when `name` is not a valid
    /// registry name.
    pub fn install(&self, name: &str, snapshot: ModelSnapshot) -> Result<InstallReport> {
        if !Self::valid_name(name) {
            return Err(RockError::SnapshotInvalid {
                message: format!("invalid model name {name:?} (1-64 chars of [A-Za-z0-9._-])"),
            });
        }
        let _admin = lock(&self.admin);
        let slot = self.slot_or_insert(name);
        let version = slot.version_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(ModelEntry::new(snapshot, version));
        let retired = slot.replace(Some(Arc::clone(&entry)));
        let replaced = retired.is_some();
        drop(retired); // freed now unless an in-flight request still pins it
        slot.state
            .store(ModelState::Ready.as_u8(), Ordering::Release);
        slot.swaps.fetch_add(1, Ordering::Relaxed);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(InstallReport {
            slot,
            entry,
            replaced,
        })
    }

    /// Parses, validates and installs `rock-model/v1` text under
    /// `name` — the admin-plane upload path. Validation happens
    /// *before* the swap: on any parse, checksum, version or semantic
    /// failure the previous model keeps serving untouched, the slot
    /// (when it exists) is marked [`ModelState::Degraded`], and
    /// `rejected_swaps` is bumped.
    ///
    /// # Errors
    /// The snapshot error classes of [`ModelSnapshot::parse`], plus
    /// [`RockError::SnapshotInvalid`] for a bad name.
    pub fn install_text(&self, name: &str, text: &str) -> Result<InstallReport> {
        match ModelSnapshot::parse(text) {
            Ok(snapshot) => self.install(name, snapshot),
            Err(error) => {
                self.reject_foreign(name);
                Err(error)
            }
        }
    }

    /// Records a rejected activation attempt against `name` — the same
    /// bookkeeping a failed [`Registry::install_text`] performs, for
    /// failures detected before the snapshot parser even runs (e.g. a
    /// non-utf-8 upload body). The prior model keeps serving; a serving
    /// slot is marked [`ModelState::Degraded`].
    pub fn reject_foreign(&self, name: &str) {
        self.rejected_swaps.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slot(name) {
            slot.rejected_swaps.fetch_add(1, Ordering::Relaxed);
            if slot.current().is_some() {
                slot.state
                    .store(ModelState::Degraded.as_u8(), Ordering::Release);
            }
        }
    }

    /// Unmounts `name`, returning the version that was serving (if
    /// any). In-flight requests holding the entry finish normally; new
    /// lookups see an empty registry slot.
    pub fn remove(&self, name: &str) -> Option<u64> {
        let _admin = lock(&self.admin);
        let slot = {
            let mut slots = lock(&self.slots);
            slots.remove(name)?
        };
        let was = slot.replace(None).map(|e| e.version());
        slot.state
            .store(ModelState::Empty.as_u8(), Ordering::Release);
        was
    }

    /// The slot registered under `name`, if any.
    pub fn slot(&self, name: &str) -> Option<Arc<ModelSlot>> {
        lock(&self.slots).get(name).map(Arc::clone)
    }

    /// Every registered slot, in deterministic (name-sorted) order —
    /// the iteration surface for metrics rendering and shutdown.
    pub fn slots(&self) -> Vec<Arc<ModelSlot>> {
        lock(&self.slots).values().map(Arc::clone).collect()
    }

    /// Resolves `name` to `(slot, active entry)` — the dispatch-time
    /// pin for a labeling request.
    pub fn resolve(&self, name: &str) -> Option<(Arc<ModelSlot>, Arc<ModelEntry>)> {
        let slot = self.slot(name)?;
        let entry = slot.current()?;
        Some((slot, entry))
    }

    /// Number of slots currently serving a model.
    pub fn models_loaded(&self) -> u64 {
        let slots = lock(&self.slots);
        let mut loaded = 0u64;
        for slot in slots.values() {
            if slot.current().is_some() {
                loaded += 1;
            }
        }
        loaded
    }

    /// Total successful swaps across all slots.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Total rejected swap attempts across all slots.
    pub fn rejected_swaps(&self) -> u64 {
        self.rejected_swaps.load(Ordering::Relaxed)
    }

    /// A deterministic (name-sorted) health row per registered model.
    pub fn status(&self) -> Vec<ModelStatus> {
        let slots: Vec<Arc<ModelSlot>> = lock(&self.slots).values().map(Arc::clone).collect();
        slots
            .iter()
            .map(|slot| {
                let entry = slot.current();
                ModelStatus {
                    name: slot.name().to_owned(),
                    state: slot.state(),
                    version: entry.as_ref().map_or(0, |e| e.version()),
                    fingerprint: entry
                        .as_ref()
                        .map_or_else(String::new, |e| e.fingerprint_hex()),
                    clusters: entry.as_ref().map_or(0, |e| e.snapshot().num_clusters()),
                    representatives: entry
                        .as_ref()
                        .map_or(0, |e| e.snapshot().representatives().total()),
                    counters: slot.counters().snapshot(),
                    swaps: slot.swaps(),
                    rejected_swaps: slot.rejected_swaps(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_core::labeling::Representatives;
    use rock_core::prelude::Transaction;
    use rock_core::snapshot::{OutlierPolicy, SimilarityKind};

    fn snapshot(first: [u32; 3], second: [u32; 3]) -> ModelSnapshot {
        let reps = Representatives::from_sets(vec![
            vec![Transaction::new(first)],
            vec![Transaction::new(second)],
        ]);
        ModelSnapshot::new(
            0.5,
            1.0,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            6,
            None,
            reps,
        )
        .unwrap()
    }

    fn model_a() -> ModelSnapshot {
        snapshot([0, 1, 2], [3, 4, 5])
    }

    fn model_b() -> ModelSnapshot {
        snapshot([3, 4, 5], [0, 1, 2])
    }

    #[test]
    fn install_resolve_and_versioning() {
        let reg = Registry::new();
        let first = reg.install("default", model_a()).unwrap();
        assert!(!first.replaced);
        assert_eq!(first.entry.version(), 1);
        let (slot, entry) = reg.resolve("default").unwrap();
        assert_eq!(entry.version(), 1);
        assert_eq!(slot.state(), ModelState::Ready);
        assert_eq!(
            entry.snapshot().label(&Transaction::new([0, 1, 2])),
            Some(0)
        );

        let second = reg.install("default", model_b()).unwrap();
        assert!(second.replaced);
        assert_eq!(second.entry.version(), 2);
        let (_, entry2) = reg.resolve("default").unwrap();
        assert_eq!(
            entry2.snapshot().label(&Transaction::new([0, 1, 2])),
            Some(1)
        );
        // The pinned v1 entry still labels with the old model.
        assert_eq!(
            entry.snapshot().label(&Transaction::new([0, 1, 2])),
            Some(0)
        );
        assert_eq!(reg.swaps(), 2);
        assert_eq!(reg.models_loaded(), 1);
    }

    #[test]
    fn swap_frees_the_retired_model_once_its_last_pin_drops() {
        let reg = Registry::new();
        reg.install("default", model_a()).unwrap();
        let (_, pinned) = reg.resolve("default").unwrap();
        let v1 = Arc::downgrade(&pinned);
        reg.install("default", model_b()).unwrap();
        // An in-flight request's pin keeps v1 alive across the swap...
        assert!(v1.upgrade().is_some());
        drop(pinned);
        // ...and nothing else does.
        assert!(v1.upgrade().is_none(), "retired model still resident");
    }

    #[test]
    fn corrupt_upload_is_rejected_with_old_model_serving() {
        let reg = Registry::new();
        reg.install("default", model_a()).unwrap();
        let good = model_b().render();
        let corrupt = good.replace("similarity jaccard", "similarity jaccarD");
        let err = reg.install_text("default", &corrupt).unwrap_err();
        assert!(matches!(err, RockError::SnapshotChecksum { .. }));
        // Old model untouched, slot degraded, rejection counted.
        let (slot, entry) = reg.resolve("default").unwrap();
        assert_eq!(entry.version(), 1);
        assert_eq!(
            entry.snapshot().label(&Transaction::new([0, 1, 2])),
            Some(0)
        );
        assert_eq!(slot.state(), ModelState::Degraded);
        assert_eq!(reg.rejected_swaps(), 1);
        assert_eq!(slot.rejected_swaps(), 1);
        // A later good install returns to ready.
        reg.install_text("default", &good).unwrap();
        assert_eq!(reg.slot("default").unwrap().state(), ModelState::Ready);
    }

    #[test]
    fn remove_unmounts_but_pinned_entries_survive() {
        let reg = Registry::new();
        reg.install("default", model_a()).unwrap();
        let (_, pinned) = reg.resolve("default").unwrap();
        assert_eq!(reg.remove("default"), Some(1));
        assert!(reg.resolve("default").is_none());
        assert_eq!(reg.models_loaded(), 0);
        // The pinned entry still labels.
        assert_eq!(
            pinned.snapshot().label(&Transaction::new([3, 4, 5])),
            Some(1)
        );
        assert_eq!(reg.remove("default"), None);
    }

    #[test]
    fn status_rows_are_name_sorted_and_complete() {
        let reg = Registry::new();
        reg.install("zeta", model_a()).unwrap();
        reg.install("alpha", model_b()).unwrap();
        let rows = reg.status();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "alpha");
        assert_eq!(rows[1].name, "zeta");
        assert_eq!(rows[0].version, 1);
        assert_eq!(rows[0].clusters, 2);
        assert_eq!(rows[0].fingerprint.len(), 16);
        assert_eq!(rows[0].state, ModelState::Ready);
    }

    #[test]
    fn name_validation() {
        assert!(Registry::valid_name("default"));
        assert!(Registry::valid_name("votes.v2-test_A"));
        assert!(!Registry::valid_name(""));
        assert!(!Registry::valid_name("a/b"));
        assert!(!Registry::valid_name("a b"));
        assert!(!Registry::valid_name(&"x".repeat(65)));
        let reg = Registry::new();
        assert!(matches!(
            reg.install("bad name", model_a()),
            Err(RockError::SnapshotInvalid { .. })
        ));
    }

    #[test]
    fn concurrent_swap_and_resolve_yield_whole_models() {
        let reg = Arc::new(Registry::new());
        reg.install("default", model_a()).unwrap();
        let probe = Transaction::new([0, 1, 2]);
        std::thread::scope(|scope| {
            let swapper = {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for i in 0..500 {
                        let snap = if i % 2 == 0 { model_b() } else { model_a() };
                        reg.install("default", snap).unwrap();
                    }
                })
            };
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                let probe = probe.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        let (_, entry) = reg.resolve("default").expect("always mounted");
                        // Each entry is internally consistent: its label
                        // matches its own fingerprint's model.
                        let label = entry.snapshot().label(&probe).expect("probe labels");
                        let expected = if entry.fingerprint() == model_a().fingerprint() {
                            0
                        } else {
                            1
                        };
                        assert_eq!(label, expected);
                    }
                });
            }
            swapper.join().unwrap();
        });
        assert_eq!(reg.swaps(), 501);
    }
}
