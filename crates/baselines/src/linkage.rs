//! Generic agglomerative hierarchical clustering via Lance–Williams
//! updates — the "traditional hierarchical algorithm" the ROCK paper
//! compares against.
//!
//! The engine takes an arbitrary pre-computed pairwise distance matrix and
//! a linkage rule, and repeatedly merges the closest pair, updating
//! distances with the Lance–Williams recurrence. For the *centroid*
//! (UPGMC) and *Ward* rules the matrix must contain **squared** Euclidean
//! distances; single/complete/average work on any dissimilarity (the
//! similarity-only strawman of the paper runs average-link on
//! `1 − Jaccard`).
//!
//! The closest pair is found with a lazy binary heap: entries are tagged
//! with the merge *generation* of both clusters and discarded if stale —
//! `O(n² log n)` overall.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rock_core::agglomerate::{partition, GoodnessOrd};
use rock_core::error::{Result, RockError};

use crate::common::FlatClustering;

/// Linkage rule for the Lance–Williams update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Nearest neighbor: `min(d_ki, d_kj)`.
    Single,
    /// Furthest neighbor: `max(d_ki, d_kj)`.
    Complete,
    /// Unweighted average (UPGMA).
    Average,
    /// Centroid method (UPGMC) — requires squared Euclidean distances.
    Centroid,
    /// Ward's minimum variance — requires squared Euclidean distances.
    Ward,
}

impl Linkage {
    /// Whether this rule expects squared Euclidean input distances.
    pub fn wants_squared(&self) -> bool {
        matches!(self, Linkage::Centroid | Linkage::Ward)
    }

    /// Lance–Williams update: distance from cluster `k` to the merge of
    /// `i` and `j`, given sizes and the three pairwise distances.
    #[inline]
    pub fn update(&self, d_ki: f64, d_kj: f64, d_ij: f64, n_i: f64, n_j: f64, n_k: f64) -> f64 {
        match self {
            Linkage::Single => d_ki.min(d_kj),
            Linkage::Complete => d_ki.max(d_kj),
            Linkage::Average => (n_i * d_ki + n_j * d_kj) / (n_i + n_j),
            Linkage::Centroid => {
                let s = n_i + n_j;
                (n_i * d_ki + n_j * d_kj) / s - (n_i * n_j * d_ij) / (s * s)
            }
            Linkage::Ward => {
                let s = n_i + n_j + n_k;
                ((n_i + n_k) * d_ki + (n_j + n_k) * d_kj - n_k * d_ij) / s
            }
        }
    }
}

/// Lazy-heap entry: `(distance, i, j, generation_i, generation_j)`.
/// Distances ride in rock-core's [`GoodnessOrd`] — the workspace's one
/// audited total order over `f64`.
type PairEntry = Reverse<(GoodnessOrd, usize, usize, u32, u32)>;

/// Agglomerates `n` points down to `k` clusters.
///
/// `dist` is a full symmetric `n × n` distance matrix in row-major order
/// (the diagonal is ignored). The reported `cost` is the distance of the
/// final merge performed.
///
/// # Errors
/// * [`RockError::EmptyDataset`] for `n == 0`.
/// * [`RockError::InvalidK`] for `k` of 0 or `> n`.
/// * [`RockError::LengthMismatch`] if `dist` is not `n × n`.
#[allow(clippy::needless_range_loop)] // d/size/active/slot are index-aligned
pub fn agglomerative(dist: &[f64], n: usize, k: usize, linkage: Linkage) -> Result<FlatClustering> {
    if n == 0 {
        return Err(RockError::EmptyDataset);
    }
    if k == 0 || k > n {
        return Err(RockError::InvalidK { k, n });
    }
    if dist.len() != n * n {
        return Err(RockError::LengthMismatch {
            left_name: "dist",
            left: dist.len(),
            right_name: "n*n",
            right: n * n,
        });
    }

    let mut d = dist.to_vec();
    let mut size: Vec<f64> = vec![1.0; n];
    // The slot of each point's cluster (slots and points share `0..n`).
    let mut slot: Vec<Option<u32>> = (0..n as u32).map(Some).collect();
    let mut active: Vec<bool> = vec![true; n];
    let mut generation: Vec<u32> = vec![0; n];
    // Min-heap of (distance, i, j, gen_i, gen_j), lazily invalidated.
    let mut heap: BinaryHeap<PairEntry> = BinaryHeap::with_capacity(n * n / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            heap.push(Reverse((GoodnessOrd::new(d[i * n + j]), i, j, 0, 0)));
        }
    }

    let mut remaining = n;
    let mut merges = 0usize;
    let mut last_dist = 0.0f64;
    while remaining > k {
        let Some(Reverse((dd, i, j, gi, gj))) = heap.pop() else {
            break; // cannot happen for a complete matrix, defensive
        };
        if !active[i] || !active[j] || generation[i] != gi || generation[j] != gj {
            continue; // stale entry
        }
        // Merge j into i; j's points move to slot i.
        let (ni, nj) = (size[i], size[j]);
        let dij = d[i * n + j];
        for x in 0..n {
            if slot[x] == Some(j as u32) {
                slot[x] = Some(i as u32);
            }
            if x != i && x != j && active[x] {
                let nd = linkage.update(d[x * n + i], d[x * n + j], dij, ni, nj, size[x]);
                d[x * n + i] = nd;
                d[i * n + x] = nd;
            }
        }
        active[j] = false;
        size[i] += size[j];
        generation[i] += 1;
        remaining -= 1;
        merges += 1;
        last_dist = dd.get();
        for x in 0..n {
            if x != i && active[x] {
                let (a, b) = if x < i { (x, i) } else { (i, x) };
                heap.push(Reverse((
                    GoodnessOrd::new(d[a * n + b]),
                    a,
                    b,
                    generation[a],
                    generation[b],
                )));
            }
        }
    }

    // Dense re-numbering: biggest cluster first for stable output.
    let (clusters, index) = partition(&slot);
    Ok(FlatClustering {
        assignments: index.into_iter().flatten().collect(),
        k: clusters.len(),
        cost: last_dist,
        iterations: merges,
    })
}

/// Builds the full squared-Euclidean distance matrix of a dense matrix's
/// rows (row-major `n × n` output).
pub fn sq_euclidean_matrix(m: &crate::onehot::DenseMatrix) -> Vec<f64> {
    let n = m.rows();
    let mut d = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = m.sq_dist(i, j);
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onehot::DenseMatrix;

    /// 1-D points embedded for easy reasoning.
    fn points_1d(xs: &[f64]) -> Vec<f64> {
        let n = xs.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let v = (xs[i] - xs[j]) * (xs[i] - xs[j]);
                d[i * n + j] = v;
            }
        }
        d
    }

    #[test]
    fn two_obvious_groups_all_linkages() {
        let xs = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        let d = points_1d(&xs);
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Centroid,
            Linkage::Ward,
        ] {
            let c = agglomerative(&d, 6, 2, linkage).unwrap();
            let groups = c.clusters();
            assert_eq!(groups.len(), 2, "{linkage:?}");
            assert_eq!(groups[0], vec![0, 1, 2], "{linkage:?}");
            assert_eq!(groups[1], vec![3, 4, 5], "{linkage:?}");
            assert_eq!(c.iterations, 4);
        }
    }

    #[test]
    fn single_link_chains_complete_does_not() {
        // A chain 0-1-2-...-5 with gaps 1.0 and an isolated pair far away:
        // single-link happily chains; complete-link splits the chain.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 100.0, 101.0];
        let d = points_1d(&xs);
        let single = agglomerative(&d, 7, 2, Linkage::Single).unwrap();
        assert_eq!(single.clusters()[0], vec![0, 1, 2, 3, 4]);
        let complete = agglomerative(&d, 7, 3, Linkage::Complete).unwrap();
        // Complete-link at k=3 splits the chain into two halves.
        assert_eq!(complete.clusters().len(), 3);
    }

    #[test]
    fn k_equals_n_is_identity() {
        let d = points_1d(&[0.0, 5.0, 9.0]);
        let c = agglomerative(&d, 3, 3, Linkage::Average).unwrap();
        assert_eq!(c.clusters().len(), 3);
        assert_eq!(c.iterations, 0);
    }

    #[test]
    fn k_one_merges_everything() {
        let d = points_1d(&[0.0, 1.0, 2.0, 3.0]);
        let c = agglomerative(&d, 4, 1, Linkage::Ward).unwrap();
        assert_eq!(c.clusters().len(), 1);
        assert_eq!(c.clusters()[0].len(), 4);
    }

    #[test]
    fn validates_inputs() {
        let d = points_1d(&[0.0, 1.0]);
        assert!(agglomerative(&d, 0, 1, Linkage::Single).is_err());
        assert!(agglomerative(&d, 2, 0, Linkage::Single).is_err());
        assert!(agglomerative(&d, 2, 3, Linkage::Single).is_err());
        assert!(agglomerative(&d[..3], 2, 1, Linkage::Single).is_err());
    }

    #[test]
    fn centroid_update_matches_direct_centroid_distance() {
        // Verify the Lance–Williams centroid formula against explicitly
        // computed centroids on 2-D points.
        let pts = [[0.0, 0.0], [2.0, 0.0], [10.0, 4.0]];
        let n = 3;
        let mut d = [0.0; 9];
        for i in 0..n {
            for j in 0..n {
                let dx = pts[i][0] - pts[j][0];
                let dy = pts[i][1] - pts[j][1];
                d[i * n + j] = dx * dx + dy * dy;
            }
        }
        // Merge {0,1}: centroid (1,0). Distance² to point 2 = 81+16 = 97.
        let lw = Linkage::Centroid.update(d[2 * n], d[2 * n + 1], d[1], 1.0, 1.0, 1.0);
        assert!((lw - 97.0).abs() < 1e-9, "lw = {lw}");
    }

    #[test]
    fn ward_prefers_balanced_merges() {
        // Ward's rule resists merging a far point into a big cluster.
        let xs = [0.0, 0.2, 0.4, 0.6, 4.0];
        let d = points_1d(&xs);
        let c = agglomerative(&d, 5, 2, Linkage::Ward).unwrap();
        assert_eq!(c.clusters()[0], vec![0, 1, 2, 3]);
        assert_eq!(c.clusters()[1], vec![4]);
    }

    #[test]
    fn sq_euclidean_matrix_from_onehot() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.row_mut(0)[0] = 1.0;
        m.row_mut(1)[2] = 1.0;
        let d = sq_euclidean_matrix(&m);
        assert_eq!(d[1], 2.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[0], 0.0);
    }
}
