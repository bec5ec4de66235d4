//! Shared result types for baseline algorithms.

use rock_core::agglomerate::partition;
use rock_core::error::{Result, RockError};

/// A flat clustering: every point is assigned to exactly one of `k`
/// clusters (baselines have no outlier concept).
#[derive(Debug, Clone, PartialEq)]
pub struct FlatClustering {
    /// Per-point cluster index.
    pub assignments: Vec<u32>,
    /// Number of clusters.
    pub k: usize,
    /// Objective value of the solution (algorithm-specific: SSE for
    /// k-means, mismatch cost for k-modes, `f64::NAN` where undefined).
    pub cost: f64,
    /// Iterations (or merges) performed.
    pub iterations: usize,
}

impl FlatClustering {
    /// Member lists per non-empty cluster, in [`partition`]'s order:
    /// decreasing size, ties by smallest member.
    pub fn clusters(&self) -> Vec<Vec<u32>> {
        partition(&self.as_predictions()).0
    }

    /// Assignments as the `Option<u32>` shape the metrics module expects.
    pub fn as_predictions(&self) -> Vec<Option<u32>> {
        self.assignments.iter().map(|&c| Some(c)).collect()
    }

    /// Post-hoc outlier removal for baselines — the "traditional algorithm
    /// plus discard small clusters" variant the ROCK paper also evaluates.
    /// Members of clusters with at most `max_size` points become `None`.
    pub fn prune_small(&self, max_size: usize) -> Vec<Option<u32>> {
        let mut sizes = vec![0usize; self.k];
        for &c in &self.assignments {
            sizes[c as usize] += 1;
        }
        self.assignments
            .iter()
            .map(|&c| (sizes[c as usize] > max_size).then_some(c))
            .collect()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.assignments.is_empty() {
            return Err(RockError::EmptyDataset);
        }
        if let Some(&max) = self.assignments.iter().max() {
            if (max as usize) >= self.k {
                return Err(RockError::InvalidK {
                    k: self.k,
                    n: self.assignments.len(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_grouped_and_sorted() {
        let c = FlatClustering {
            assignments: vec![1, 0, 1, 1, 0],
            k: 2,
            cost: 0.0,
            iterations: 1,
        };
        let groups = c.clusters();
        assert_eq!(groups[0], vec![0, 2, 3]);
        assert_eq!(groups[1], vec![1, 4]);
        assert_eq!(
            c.as_predictions(),
            vec![Some(1), Some(0), Some(1), Some(1), Some(0)]
        );
        c.validate().unwrap();
    }

    #[test]
    fn prune_small_marks_tiny_clusters_as_outliers() {
        let c = FlatClustering {
            assignments: vec![0, 0, 0, 1, 2, 2],
            k: 3,
            cost: 0.0,
            iterations: 1,
        };
        assert_eq!(
            c.prune_small(1),
            vec![Some(0), Some(0), Some(0), None, Some(2), Some(2)]
        );
        assert_eq!(
            c.prune_small(2),
            vec![Some(0), Some(0), Some(0), None, None, None]
        );
        assert_eq!(c.prune_small(0), c.as_predictions());
    }

    #[test]
    fn empty_clusters_dropped() {
        let c = FlatClustering {
            assignments: vec![2, 2],
            k: 3,
            cost: 0.0,
            iterations: 0,
        };
        assert_eq!(c.clusters().len(), 1);
    }

    #[test]
    fn validation_catches_bad_ids() {
        let c = FlatClustering {
            assignments: vec![5],
            k: 2,
            cost: 0.0,
            iterations: 0,
        };
        assert!(c.validate().is_err());
        let e = FlatClustering {
            assignments: vec![],
            k: 0,
            cost: 0.0,
            iterations: 0,
        };
        assert!(e.validate().is_err());
    }
}
