//! Dendrograms: reusing one merge run for every `k`.
//!
//! ROCK is agglomerative, so a single run down to `k_min` clusters induces
//! the entire merge tree above it. [`Dendrogram`] captures that tree from
//! the engine's [`MergeStep`] history and can be *cut* at any cluster
//! count ≥ `k_min` without re-running neighbor, link or merge phases —
//! handy for choosing `k` by inspecting the goodness/criterion profile.
//!
//! The replay is only valid for runs **without mid-merge pruning**
//! (pruning removes clusters outside the merge sequence); the pipeline
//! records history for exactly this use.

use crate::agglomerate::{find, partition, MergeStep};
use crate::cast;
use crate::telemetry::MemoryEstimate;

/// A merge tree over `n` points, built from an agglomeration history.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    steps: Vec<MergeStep>,
}

impl Dendrogram {
    /// Builds a dendrogram for `n` points from the recorded merge history
    /// (in merge order, as produced with `record_history = true`).
    pub fn new(n: usize, steps: Vec<MergeStep>) -> Self {
        debug_assert!(steps.len() < n.max(1), "more merges than points allow");
        Dendrogram { n, steps }
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.n
    }

    /// Number of merges recorded.
    pub fn num_merges(&self) -> usize {
        self.steps.len()
    }

    /// The merge steps in order.
    pub fn steps(&self) -> &[MergeStep] {
        &self.steps
    }

    /// Smallest cluster count this dendrogram can produce.
    pub fn min_clusters(&self) -> usize {
        self.n - self.steps.len()
    }

    /// Goodness of each merge, in merge order — a sharp drop suggests the
    /// natural cluster count (merges beyond it join genuinely different
    /// groups).
    pub fn goodness_profile(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.goodness).collect()
    }

    /// Criterion function E_l after each merge, in merge order.
    pub fn criterion_profile(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.criterion).collect()
    }

    /// Cuts the tree at `k` clusters: replays the first `n − k` merges.
    ///
    /// Returns member lists in [`partition`]'s order (decreasing size,
    /// ties broken by smallest member), exactly like the merge engine's
    /// output. Returns `None` when `k` is 0, exceeds `n`, or undershoots
    /// [`min_clusters`](Self::min_clusters).
    pub fn cut(&self, k: usize) -> Option<Vec<Vec<u32>>> {
        self.labels_at(k).map(|labels| partition(&labels).0)
    }

    /// Assignment form of [`cut`](Self::cut): per-point cluster index.
    pub fn cut_assignments(&self, k: usize) -> Option<Vec<u32>> {
        let labels = self.labels_at(k)?;
        Some(partition(&labels).1.into_iter().flatten().collect())
    }

    /// Each point's label after the first `n − k` merges, the input of
    /// [`partition`]. Merge steps name engine slots, and a step points its
    /// absorbed slot at the kept one as the engine's union-find does, so
    /// each point is labeled by the slot its chain ends at.
    fn labels_at(&self, k: usize) -> Option<Vec<Option<u32>>> {
        if k == 0 || k > self.n || k < self.min_clusters() {
            return None;
        }
        let mut parent: Vec<u32> = (0..cast::usize_to_u32(self.n)).collect();
        for step in &self.steps[..self.n - k] {
            parent[cast::u32_to_usize(step.absorbed)] = step.kept;
        }
        Some(
            (0..cast::usize_to_u32(self.n))
                .map(|p| Some(find(&mut parent, p)))
                .collect(),
        )
    }

    /// Suggests a cluster count by the largest *relative* drop in merge
    /// goodness: if merge `i` has goodness `g_i`, the cut is placed before
    /// the merge maximizing `g_{i-1} / g_i` (ignoring the first
    /// `min_considered` merges, which are noisy singleton joins).
    ///
    /// Two guards keep the heuristic honest on gradual declines: the
    /// refused merge's predecessor must itself be a *respectable* merge
    /// (goodness at least 10% of the median — otherwise the deep tail,
    /// where goodness decays toward 0 and ratios explode, always wins),
    /// and NaN/non-positive entries are skipped.
    ///
    /// This is a heuristic, not part of the paper; on gradual declines it
    /// lands near, not exactly at, the planted count.
    ///
    /// Returns `None` when fewer than two merges are recorded.
    pub fn suggest_k(&self, min_considered: usize) -> Option<usize> {
        if self.steps.len() < 2 {
            return None;
        }
        let mut sorted: Vec<f64> = self.steps.iter().map(|s| s.goodness).collect();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let floor = 0.1 * median;
        let start = min_considered.min(self.steps.len() - 1).max(1);
        let mut best = (1.0f64, self.steps.len());
        for i in start..self.steps.len() {
            let prev = self.steps[i - 1].goodness;
            let cur = self.steps[i].goodness;
            if cur <= 0.0 || prev < floor {
                continue;
            }
            let ratio = prev / cur;
            if ratio > best.0 {
                best = (ratio, i);
            }
        }
        // Cutting *before* merge `best.1` leaves n − best.1 clusters.
        Some(self.n - best.1)
    }
}

impl MemoryEstimate for Dendrogram {
    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.steps.capacity() * std::mem::size_of::<MergeStep>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerate::{agglomerate, AgglomerateConfig};
    use crate::data::{Transaction, TransactionSet};
    use crate::goodness::{Goodness, MarketBasket};
    use crate::links::LinkTable;
    use crate::neighbors::NeighborGraph;
    use crate::similarity::Jaccard;

    fn three_block_history() -> (usize, Vec<MergeStep>) {
        // Three blocks of 4 identical points each.
        let data: TransactionSet = (0..12u32)
            .map(|i| {
                let b = i / 4;
                Transaction::new([b * 10, b * 10 + 1, b * 10 + 2])
            })
            .collect();
        let g = NeighborGraph::compute(&data, &Jaccard, 0.9, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.9, &MarketBasket).unwrap();
        let out = agglomerate(12, &links, &good, &AgglomerateConfig::new(3)).unwrap();
        (12, out.history)
    }

    #[test]
    fn cut_replays_merges() {
        let (n, history) = three_block_history();
        let d = Dendrogram::new(n, history);
        assert_eq!(d.num_points(), 12);
        assert_eq!(d.min_clusters(), 3);
        let c3 = d.cut(3).unwrap();
        assert_eq!(c3.len(), 3);
        assert_eq!(c3[0], vec![0, 1, 2, 3]);
        assert_eq!(c3[1], vec![4, 5, 6, 7]);
        assert_eq!(c3[2], vec![8, 9, 10, 11]);
    }

    #[test]
    fn cut_at_larger_k() {
        let (n, history) = three_block_history();
        let d = Dendrogram::new(n, history);
        for k in 3..=12 {
            let c = d.cut(k).unwrap();
            assert_eq!(c.len(), k, "cut at {k}");
            let total: usize = c.iter().map(Vec::len).sum();
            assert_eq!(total, 12);
        }
        assert_eq!(d.cut(12).unwrap().len(), 12);
    }

    #[test]
    fn cut_bounds() {
        let (n, history) = three_block_history();
        let d = Dendrogram::new(n, history);
        assert!(d.cut(0).is_none());
        assert!(d.cut(13).is_none());
        assert!(d.cut(2).is_none(), "below min_clusters");
    }

    #[test]
    fn cut_assignments_match_clusters() {
        let (n, history) = three_block_history();
        let d = Dendrogram::new(n, history);
        let clusters = d.cut(3).unwrap();
        let assign = d.cut_assignments(3).unwrap();
        for (c, members) in clusters.iter().enumerate() {
            for &p in members {
                assert_eq!(assign[p as usize], c as u32);
            }
        }
    }

    #[test]
    fn profiles_have_one_entry_per_merge() {
        let (n, history) = three_block_history();
        let d = Dendrogram::new(n, history);
        assert_eq!(d.goodness_profile().len(), d.num_merges());
        assert_eq!(d.criterion_profile().len(), d.num_merges());
        assert!(d.goodness_profile().iter().all(|&g| g > 0.0));
    }

    #[test]
    fn suggest_k_finds_block_structure() {
        // Three blocks chained by two bridge transactions: merging can
        // reach k = 1, within-block merges score high, cross/bridge merges
        // low; the goodness cliff should place the suggested cut near the
        // block structure.
        let mut data: Vec<Transaction> = (0..12u32)
            .map(|i| {
                let b = i / 4;
                Transaction::new([b * 10, b * 10 + 1, b * 10 + 2])
            })
            .collect();
        data.push(Transaction::new([0, 1, 10, 11])); // bridge 0-1
        data.push(Transaction::new([10, 11, 20, 21])); // bridge 1-2
        let ts: TransactionSet = data.into_iter().collect();
        let g = NeighborGraph::compute(&ts, &Jaccard, 0.3, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.3, &MarketBasket).unwrap();
        let out = agglomerate(14, &links, &good, &AgglomerateConfig::new(1)).unwrap();
        assert_eq!(out.clusters.len(), 1, "bridges make full merging possible");
        let d = Dendrogram::new(14, out.history);
        assert_eq!(d.min_clusters(), 1);
        let k = d.suggest_k(3).expect("enough merges");
        assert!((2..=6).contains(&k), "suggested k = {k}");
        // Cutting at the suggestion keeps each block whole.
        let assign = d.cut_assignments(k).unwrap();
        for b in 0..3usize {
            let first = assign[b * 4];
            assert!(
                (1..4).all(|o| assign[b * 4 + o] == first),
                "block {b} split"
            );
        }
    }

    #[test]
    fn suggest_k_requires_two_merges() {
        let d = Dendrogram::new(2, vec![]);
        assert!(d.suggest_k(0).is_none());
    }
}
