//! An indexed binary max-heap supporting update and removal by key.
//!
//! The ROCK merge loop (paper §4, figure "cluster") keeps a *global heap*
//! `Q` of clusters ordered by the goodness of their best local merge.
//! Every merge must update or delete arbitrary entries of `Q`, an
//! operation `std::collections::BinaryHeap` does not offer.
//!
//! [`IndexedHeap`] stores a classic array-backed binary heap plus an
//! id → position index, giving `O(log n)` insert / update / remove and
//! `O(1)` peek, matching the complexity the paper assumes. Ids are dense
//! slot numbers (`0..n` in the merge engine), so the index is a plain
//! `Vec` grown on demand: a sift step costs two array stores, not two
//! hash-map inserts. The per-cluster *local* heaps `q[i]` do not use this
//! type; they are lazy `BinaryHeap`s validated against the link rows
//! (see `agglomerate`).

use crate::telemetry::MemoryEstimate;

/// Position-index value of an id that has no entry.
const ABSENT: usize = usize::MAX;

/// Array-backed binary **max**-heap keyed by `u32` ids.
///
/// Priorities need a total order (`Ord`); for floating-point goodness
/// values wrap them in a totally ordered key (see
/// `agglomerate::GoodnessKey`).
///
/// The position index is dense: it holds one slot per id up to the
/// largest id ever inserted, so ids should be small integers.
///
/// Every heap keeps lifetime telemetry tallies of its push and pop
/// operations (see [`telemetry_counts`](Self::telemetry_counts)); the
/// merge engine sums them into the pipeline counters.
#[derive(Debug, Clone, Default)]
pub struct IndexedHeap<P: Ord> {
    /// Heap array of `(priority, id)`.
    entries: Vec<(P, u32)>,
    /// `pos[id]` = index in `entries`, or [`ABSENT`]; ids at or beyond
    /// `pos.len()` have no entry.
    pos: Vec<usize>,
    /// Lifetime count of insert/update operations.
    pushes: u64,
    /// Lifetime count of removals (including entries dropped by `clear`).
    pops: u64,
    /// Lifetime count of internal-consistency anomalies (a `remove` whose
    /// position index and entry array disagreed). Always 0 on a healthy heap.
    anomalies: u64,
}

impl<P: Ord> IndexedHeap<P> {
    /// Creates an empty heap. `capacity` is a size hint for the expected
    /// number of simultaneous entries (and the id range `0..capacity`).
    pub fn with_capacity(capacity: usize) -> Self {
        IndexedHeap {
            entries: Vec::with_capacity(capacity),
            pos: Vec::with_capacity(capacity),
            pushes: 0,
            pops: 0,
            anomalies: 0,
        }
    }

    /// Creates an empty heap with no preallocation.
    pub fn new() -> Self {
        IndexedHeap::with_capacity(0)
    }

    /// Position of `id` in `entries`, if present.
    #[inline]
    fn position(&self, id: u32) -> Option<usize> {
        match self.pos.get(crate::cast::u32_to_usize(id)) {
            Some(&p) if p != ABSENT => Some(p),
            _ => None,
        }
    }

    /// Records `id` at entry index `p`, growing the index on demand.
    #[inline]
    fn set_position(&mut self, id: u32, p: usize) {
        let i = crate::cast::u32_to_usize(id);
        if i >= self.pos.len() {
            self.pos.resize(i + 1, ABSENT);
        }
        self.pos[i] = p;
    }

    /// Number of entries currently in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `id` is present.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.position(id).is_some()
    }

    /// Returns the priority stored for `id`.
    pub fn priority(&self, id: u32) -> Option<&P> {
        let p = self.position(id)?;
        Some(&self.entries[p].0)
    }

    /// Inserts `id` with `priority`, or updates its priority if present.
    pub fn insert_or_update(&mut self, id: u32, priority: P) {
        self.pushes += 1;
        if let Some(slot) = self.position(id) {
            let old_was_less = self.entries[slot].0 < priority;
            self.entries[slot].0 = priority;
            if old_was_less {
                self.sift_up(slot);
            } else {
                self.sift_down(slot);
            }
        } else {
            self.entries.push((priority, id));
            let idx = self.entries.len() - 1;
            self.set_position(id, idx);
            self.sift_up(idx);
        }
    }

    /// Removes `id`, returning its priority if it was present.
    pub fn remove(&mut self, id: u32) -> Option<P> {
        let slot = self.position(id)?;
        self.pos[crate::cast::u32_to_usize(id)] = ABSENT;
        self.pops += 1;
        let last = self.entries.len() - 1;
        self.entries.swap(slot, last);
        if slot != last {
            self.set_position(self.entries[slot].1, slot);
        }
        // The position index just yielded a slot, so an entry must exist; if
        // that ever breaks, record the corruption and degrade to `None` —
        // the anomaly tally surfaces it through telemetry and the
        // contracts checks instead of a silent wrong answer.
        let Some((p, _)) = self.entries.pop() else {
            self.anomalies += 1;
            debug_assert!(false, "heap position index referenced an empty entry array");
            return None;
        };
        if slot < self.entries.len() {
            // The element swapped into the hole may need to move either
            // direction; the two sifts are mutually exclusive no-ops.
            self.sift_up(slot);
            self.sift_down(slot);
        }
        Some(p)
    }

    /// Returns the maximum entry without removing it.
    pub fn peek(&self) -> Option<(&P, u32)> {
        self.entries.first().map(|(p, id)| (p, *id))
    }

    /// Removes and returns the maximum entry.
    pub fn pop(&mut self) -> Option<(P, u32)> {
        let id = self.entries.first()?.1;
        let p = self.remove(id)?;
        Some((p, id))
    }

    /// Removes every entry (keeps capacity). Each dropped entry counts as
    /// one pop in the telemetry tallies.
    pub fn clear(&mut self) {
        self.pops += crate::cast::usize_to_u64(self.entries.len());
        for &(_, id) in &self.entries {
            self.pos[crate::cast::u32_to_usize(id)] = ABSENT;
        }
        self.entries.clear();
    }

    /// Lifetime `(pushes, pops)` operation tallies of this heap.
    pub fn telemetry_counts(&self) -> (u64, u64) {
        (self.pushes, self.pops)
    }

    /// Lifetime count of internal-consistency anomalies (see
    /// [`remove`](Self::remove)). Nonzero means the heap corrupted itself
    /// and silently degraded; the merge engine flushes this into the
    /// `heap_anomalies` pipeline counter and
    /// [`assert_invariants`](Self::assert_invariants) rejects it outright.
    pub fn anomaly_count(&self) -> u64 {
        self.anomalies
    }

    /// Iterates `(priority, id)` in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (&P, u32)> {
        self.entries.iter().map(|(p, id)| (p, *id))
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if self.entries[idx].0 <= self.entries[parent].0 {
                break;
            }
            self.entries.swap(idx, parent);
            self.set_position(self.entries[idx].1, idx);
            self.set_position(self.entries[parent].1, parent);
            idx = parent;
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * idx + 1, 2 * idx + 2);
            let mut largest = idx;
            if l < n && self.entries[l].0 > self.entries[largest].0 {
                largest = l;
            }
            if r < n && self.entries[r].0 > self.entries[largest].0 {
                largest = r;
            }
            if largest == idx {
                break;
            }
            self.entries.swap(idx, largest);
            self.set_position(self.entries[idx].1, idx);
            self.set_position(self.entries[largest].1, largest);
            idx = largest;
        }
    }

    /// Estimated heap bytes: the entry array and the position index at
    /// capacity.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * std::mem::size_of::<(P, u32)>()
            + self.pos.capacity() * std::mem::size_of::<usize>()
    }

    /// Checks the heap invariant and position index; test/debug helper.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_invariants(&self) {
        for (i, (p, id)) in self.entries.iter().enumerate() {
            assert_eq!(
                self.position(*id),
                Some(i),
                "pos index out of sync for id {id}"
            );
            if i > 0 {
                let parent = &self.entries[(i - 1) / 2].0;
                assert!(p <= parent, "heap order violated at index {i}");
            }
        }
        assert_eq!(
            self.pos.iter().filter(|&&p| p != ABSENT).count(),
            self.entries.len(),
            "pos index counts mismatch"
        );
        assert_eq!(
            self.anomalies, 0,
            "heap recorded {} internal-consistency anomalies",
            self.anomalies
        );
    }
}

impl<P: Ord> MemoryEstimate for IndexedHeap<P> {
    fn estimated_bytes(&self) -> usize {
        IndexedHeap::estimated_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_counts_track_operations() {
        let mut h = IndexedHeap::with_capacity(8);
        for id in 0..5u32 {
            h.insert_or_update(id, id as i64); // 5 pushes
        }
        h.insert_or_update(0, 99); // update still counts as a push
        h.remove(1); // 1 pop
        h.remove(1); // absent: no pop
        h.pop(); // remove() inside: 1 pop
        h.clear(); // 3 remaining entries → 3 pops
        assert_eq!(h.telemetry_counts(), (6, 5));
        assert_eq!(h.anomaly_count(), 0);
        assert!(h.estimated_bytes() >= std::mem::size_of::<IndexedHeap<i64>>());
    }

    #[test]
    fn push_pop_orders_descending() {
        let mut h = IndexedHeap::with_capacity(10);
        for (id, p) in [(0u32, 3i64), (1, 9), (2, 1), (3, 7), (4, 5)] {
            h.insert_or_update(id, p);
            h.assert_invariants();
        }
        let mut out = Vec::new();
        while let Some((p, _)) = h.pop() {
            out.push(p);
            h.assert_invariants();
        }
        assert_eq!(out, vec![9, 7, 5, 3, 1]);
    }

    #[test]
    fn update_increases_priority() {
        let mut h = IndexedHeap::with_capacity(4);
        h.insert_or_update(0, 1);
        h.insert_or_update(1, 2);
        h.insert_or_update(0, 10);
        h.assert_invariants();
        assert_eq!(h.peek(), Some((&10, 0)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn update_decreases_priority() {
        let mut h = IndexedHeap::with_capacity(4);
        h.insert_or_update(0, 10);
        h.insert_or_update(1, 5);
        h.insert_or_update(2, 7);
        h.insert_or_update(0, 1);
        h.assert_invariants();
        assert_eq!(h.peek(), Some((&7, 2)));
    }

    #[test]
    fn remove_middle_entry() {
        let mut h = IndexedHeap::with_capacity(8);
        for id in 0..8u32 {
            h.insert_or_update(id, (id as i64) * 3 % 7);
        }
        assert_eq!(h.remove(3), Some(2));
        assert_eq!(h.remove(3), None);
        h.assert_invariants();
        assert_eq!(h.len(), 7);
        assert!(!h.contains(3));
    }

    #[test]
    fn remove_last_and_root() {
        let mut h = IndexedHeap::with_capacity(3);
        h.insert_or_update(0, 1);
        h.insert_or_update(1, 2);
        h.insert_or_update(2, 3);
        assert_eq!(h.remove(2), Some(3)); // root
        h.assert_invariants();
        assert_eq!(h.peek(), Some((&2, 1)));
        assert_eq!(h.remove(0), Some(1)); // last
        h.assert_invariants();
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn priority_lookup() {
        let mut h = IndexedHeap::with_capacity(2);
        h.insert_or_update(1, 42);
        assert_eq!(h.priority(1), Some(&42));
        assert_eq!(h.priority(0), None);
        assert_eq!(h.priority(5), None);
    }

    #[test]
    fn clear_resets() {
        let mut h = IndexedHeap::with_capacity(4);
        h.insert_or_update(0, 1);
        h.insert_or_update(1, 2);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(0));
        h.insert_or_update(0, 9);
        assert_eq!(h.peek(), Some((&9, 0)));
    }

    #[test]
    fn pop_on_empty_is_none() {
        let mut h: IndexedHeap<i32> = IndexedHeap::with_capacity(1);
        assert!(h.pop().is_none());
        assert!(h.peek().is_none());
    }

    #[test]
    fn sparse_ids_are_supported() {
        // Ids far beyond the capacity hint work: the index grows on demand.
        let mut h = IndexedHeap::with_capacity(2);
        h.insert_or_update(1_000_000, 5);
        h.insert_or_update(42, 7);
        h.assert_invariants();
        assert_eq!(h.pop(), Some((7, 42)));
        assert_eq!(h.pop(), Some((5, 1_000_000)));
    }

    #[test]
    fn ties_are_stable_under_invariants() {
        let mut h = IndexedHeap::with_capacity(5);
        for id in 0..5u32 {
            h.insert_or_update(id, 7);
        }
        h.assert_invariants();
        let mut ids: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(_, id)| id)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn randomized_against_reference_model() {
        // Deterministic pseudo-random sequence of operations checked
        // against a BTreeMap reference model.
        let mut h = IndexedHeap::with_capacity(64);
        let mut model: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..4000 {
            let r = next();
            let id = (r % 64) as u32;
            match (r >> 8) % 3 {
                0 => {
                    let p = next() % 1000;
                    h.insert_or_update(id, p);
                    model.insert(id, p);
                }
                1 => {
                    let got = h.remove(id);
                    let expect = model.remove(&id);
                    assert_eq!(got, expect);
                }
                _ => {
                    let got = h.peek().map(|(p, _)| *p);
                    let expect = model.values().max().copied();
                    assert_eq!(got, expect);
                }
            }
            h.assert_invariants();
            assert_eq!(h.len(), model.len());
        }
    }
}
