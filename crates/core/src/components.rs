//! Connected-components clustering over the θ-neighbor graph.
//!
//! A well-known shortcut from the ROCK follow-on literature (QROCK, Dutta
//! et al. 2005): when θ is chosen well, the *connected components* of the
//! neighbor graph already coincide with ROCK's final clusters, skipping
//! links and merging entirely. This is exact when clusters are separated
//! (no cross-cluster neighbor edges at the chosen θ) and a fast first look
//! at a dataset otherwise; the full link machinery remains the robust
//! choice when bridges exist.

use crate::agglomerate::partition;
use crate::cast;
use crate::neighbors::NeighborGraph;

/// Clusters the points of `graph` into connected components.
///
/// Returns member lists in [`partition`]'s order (decreasing size, ties by
/// smallest member), like the merge engine. Isolated points come out as
/// singleton components — callers wanting ROCK-style outlier treatment
/// can filter by size.
pub fn connected_components(graph: &NeighborGraph) -> Vec<Vec<u32>> {
    // Each point is labeled by the first point of its component.
    let mut component: Vec<Option<u32>> = vec![None; graph.len()];
    let mut stack: Vec<u32> = Vec::new();
    for start in 0..cast::usize_to_u32(graph.len()) {
        if component[cast::u32_to_usize(start)].is_some() {
            continue;
        }
        component[cast::u32_to_usize(start)] = Some(start);
        stack.push(start);
        while let Some(p) = stack.pop() {
            for &q in graph.neighbors(cast::u32_to_usize(p)) {
                let label = &mut component[cast::u32_to_usize(q)];
                if label.is_none() {
                    *label = Some(start);
                    stack.push(q);
                }
            }
        }
    }
    partition(&component).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Transaction, TransactionSet};
    use crate::similarity::Jaccard;

    fn graph(transactions: Vec<Transaction>, theta: f64) -> NeighborGraph {
        let ts: TransactionSet = transactions.into_iter().collect();
        NeighborGraph::compute(&ts, &Jaccard, theta, 1).unwrap()
    }

    #[test]
    fn separated_blocks_are_components() {
        let g = graph(
            vec![
                Transaction::new([0, 1]),
                Transaction::new([0, 1]),
                Transaction::new([0, 1]),
                Transaction::new([9, 10]),
                Transaction::new([9, 10]),
            ],
            0.9,
        );
        let c = connected_components(&g);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], vec![0, 1, 2]);
        assert_eq!(c[1], vec![3, 4]);
    }

    #[test]
    fn isolated_points_are_singletons() {
        let g = graph(
            vec![
                Transaction::new([0, 1]),
                Transaction::new([0, 1]),
                Transaction::new([50]),
            ],
            0.9,
        );
        let c = connected_components(&g);
        assert_eq!(c.len(), 2);
        assert_eq!(c[1], vec![2]);
    }

    #[test]
    fn equal_sized_components_order_by_smallest_member() {
        // {0, 3} and {1, 2} tie at two points: {0, 3} holds the smallest
        // member, though {1, 2} holds the smaller largest member.
        let g = graph(
            vec![
                Transaction::new([0, 1]),
                Transaction::new([9, 10]),
                Transaction::new([9, 10]),
                Transaction::new([0, 1]),
            ],
            0.9,
        );
        assert_eq!(connected_components(&g), vec![vec![0, 3], vec![1, 2]]);
    }

    #[test]
    fn chains_connect_transitively() {
        // a~b and b~c but a!~c: all one component.
        let g = graph(
            vec![
                Transaction::new([0, 1, 2, 3]),
                Transaction::new([2, 3, 4, 5]),
                Transaction::new([4, 5, 6, 7]),
            ],
            1.0 / 3.0,
        );
        let c = connected_components(&g);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], vec![0, 1, 2]);
    }

    #[test]
    fn matches_rock_on_separated_data() {
        // When no cross-cluster edges exist, components == ROCK clusters.
        let data: Vec<Transaction> = (0..9u32)
            .map(|i| {
                let b = i / 3;
                Transaction::new([b * 10, b * 10 + 1, 100 + i])
            })
            .collect();
        let ts: TransactionSet = data.into_iter().collect();
        let g = NeighborGraph::compute(&ts, &Jaccard, 0.4, 1).unwrap();
        let comps = connected_components(&g);
        let rock = crate::rock::RockBuilder::new(3, 0.4)
            .build()
            .fit(&ts)
            .unwrap();
        assert_eq!(comps, rock.clusters().to_vec());
    }

    #[test]
    fn every_point_in_exactly_one_component() {
        let g = graph(
            (0..20u32)
                .map(|i| Transaction::new([i / 4, 100 + i]))
                .collect(),
            0.3,
        );
        let c = connected_components(&g);
        let total: usize = c.iter().map(Vec::len).sum();
        assert_eq!(total, 20);
        let mut all: Vec<u32> = c.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<u32>>());
    }
}
