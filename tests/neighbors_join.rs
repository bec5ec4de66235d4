//! Seed-loop equivalence suite for the inverted-index neighbor join
//! (DESIGN.md §17): for every similarity kind, θ and thread count, the
//! indexed join must produce a graph **byte-identical** to the
//! brute-force oracle, with thread-count-invariant counters.

use rock_core::guard::Guard;
use rock_core::prelude::*;
use rock_core::telemetry::Observer;

const THETAS: [f64; 3] = [0.2, 0.5, 0.8];
const THREADS: [usize; 4] = [1, 2, 4, 8];
const KINDS: [SimilarityKind; 4] = [
    SimilarityKind::Jaccard,
    SimilarityKind::Dice,
    SimilarityKind::Overlap,
    SimilarityKind::Cosine,
];

/// A deterministic adversarial dataset: skewed item frequencies (hub
/// items), duplicated rows, varying lengths and a sprinkle of empty
/// transactions — every special case the join handles outside the happy
/// path. n ≥ 256 so the requested thread counts actually engage.
fn random_set(seed: u64) -> TransactionSet {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range(300..450usize);
    let mut rows: Vec<Transaction> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.03) {
                return Transaction::empty();
            }
            // Two vocabularies of very different sizes: draws from the
            // small one create high-frequency hub items.
            let vocab: usize = if rng.gen_bool(0.3) { 8 } else { 60 };
            let len = rng.gen_range(1..8usize);
            Transaction::new((0..len).map(|_| rng.gen_range(0..vocab) as u32))
        })
        .collect();
    // Exact duplicates: identical rows are always mutual neighbors and
    // stress candidate deduplication.
    for _ in 0..8 {
        let src = rng.gen_range(0..rows.len());
        rows.push(rows[src].clone());
    }
    rows.into_iter().collect()
}

/// The brute-force scan: the oracle every index run is compared with.
fn brute<S: Similarity>(data: &TransactionSet, sim: &S, theta: f64) -> NeighborGraph {
    let (graph, _) = NeighborGraph::compute_strategy(
        data,
        sim,
        theta,
        1,
        &Observer::new(),
        &Guard::unlimited(),
        JoinStrategy::BruteForce,
    )
    .unwrap();
    graph
}

fn lists_of(g: &NeighborGraph) -> Vec<Vec<u32>> {
    (0..g.len()).map(|i| g.neighbors(i).to_vec()).collect()
}

#[test]
fn indexed_join_is_byte_identical_to_the_brute_oracle() {
    for seed in 0..6u64 {
        let data = random_set(seed);
        for kind in KINDS {
            for theta in THETAS {
                let oracle = brute(&data, &kind, theta);
                let mut base_counters = None;
                for threads in THREADS {
                    let obs = Observer::new();
                    let (joined, trip) = NeighborGraph::compute_strategy(
                        &data,
                        &kind,
                        theta,
                        threads,
                        &obs,
                        &Guard::unlimited(),
                        JoinStrategy::Index,
                    )
                    .unwrap();
                    assert!(trip.is_none());
                    assert_eq!(
                        lists_of(&joined),
                        lists_of(&oracle),
                        "seed {seed}, {kind:?}, θ={theta}, threads {threads}"
                    );
                    let c = obs.counters().snapshot();
                    assert_eq!(
                        c.neighbor_edges,
                        rock_core::cast::usize_to_u64(oracle.num_edges()),
                        "seed {seed}, {kind:?}, θ={theta}, threads {threads}"
                    );
                    // Join work counters must not depend on the thread
                    // count (summed in spawn order).
                    let key = (
                        c.neighbor_candidates,
                        c.neighbor_candidates_pruned,
                        c.neighbor_pairs_verified,
                        c.similarity_comparisons,
                        obs.memory().snapshot().neighbor_graph,
                    );
                    match &base_counters {
                        None => base_counters = Some(key),
                        Some(base) => assert_eq!(
                            &key, base,
                            "seed {seed}, {kind:?}, θ={theta}, threads {threads}"
                        ),
                    }
                    // The size filter runs before verification, so the
                    // candidate ledger must balance exactly.
                    assert_eq!(
                        c.neighbor_candidates,
                        c.neighbor_candidates_pruned + c.neighbor_pairs_verified
                    );
                }
            }
        }
    }
}

#[test]
fn auto_strategy_picks_the_index_only_for_large_counts_measures() {
    // Large input + counts measure: the index engages (candidate
    // counters move).
    let data = random_set(1);
    let obs = Observer::new();
    let (_, trip) = NeighborGraph::compute_guarded(
        &data,
        &SimilarityKind::Jaccard,
        0.5,
        2,
        &obs,
        &Guard::unlimited(),
    )
    .unwrap();
    assert!(trip.is_none());
    assert!(obs.counters().snapshot().neighbor_candidates > 0);

    // Tiny input: Auto stays brute force.
    let tiny: TransactionSet = (0..50u32)
        .map(|i| Transaction::new([i % 7, i % 7 + 1]))
        .collect();
    let obs = Observer::new();
    let (_, _) = NeighborGraph::compute_guarded(
        &tiny,
        &SimilarityKind::Jaccard,
        0.5,
        2,
        &obs,
        &Guard::unlimited(),
    )
    .unwrap();
    assert_eq!(obs.counters().snapshot().neighbor_candidates, 0);

    // A measure without counts semantics falls back to brute force even
    // when the index is forced.
    let schema_rows = random_set(2);
    let obs = Observer::new();
    let (forced, _) = NeighborGraph::compute_strategy(
        &schema_rows,
        &HammingRecord { num_attributes: 8 },
        0.5,
        2,
        &obs,
        &Guard::unlimited(),
        JoinStrategy::Index,
    )
    .unwrap();
    assert_eq!(obs.counters().snapshot().neighbor_candidates, 0);
    let oracle = brute(&schema_rows, &HammingRecord { num_attributes: 8 }, 0.5);
    assert_eq!(lists_of(&forced), lists_of(&oracle));
}

#[test]
fn empty_transactions_follow_each_measures_empty_set_semantics() {
    // Two empty rows among nonempty ones. Jaccard/Dice/Cosine: empties
    // neighbor only each other (sim 1). Overlap: an empty row neighbors
    // *everything* (its best intersection, 0, equals its length).
    let mut rows: Vec<Transaction> = (0..300u32)
        .map(|i| Transaction::new([i % 9, i % 9 + 1, i % 9 + 2]))
        .collect();
    rows[7] = Transaction::empty();
    rows[200] = Transaction::empty();
    let data: TransactionSet = rows.into_iter().collect();
    for kind in KINDS {
        let oracle = brute(&data, &kind, 0.5);
        let (joined, _) = NeighborGraph::compute_strategy(
            &data,
            &kind,
            0.5,
            4,
            &Observer::new(),
            &Guard::unlimited(),
            JoinStrategy::Index,
        )
        .unwrap();
        assert_eq!(lists_of(&joined), lists_of(&oracle), "{kind:?}");
        if kind == SimilarityKind::Overlap {
            assert_eq!(joined.degree(7), data.len() - 1, "overlap empty row");
            assert!(joined.neighbors(0).contains(&7));
        } else {
            assert_eq!(joined.neighbors(7), &[200], "{kind:?} empty row");
        }
    }
}

#[test]
fn theta_boundary_is_inclusive_through_the_index() {
    // sim = 1/3 exactly under Jaccard; the index must keep the pair at
    // θ = 1/3 and drop it one ulp above, exactly like the oracle.
    let mut rows: Vec<Transaction> = Vec::new();
    for i in 0..150u32 {
        rows.push(Transaction::new([3 * i, 3 * i + 1]));
        rows.push(Transaction::new([3 * i + 1, 3 * i + 2]));
    }
    let data: TransactionSet = rows.into_iter().collect();
    for (theta, expect_degree) in [(1.0 / 3.0, 1usize), (1.0 / 3.0 + 1e-9, 0usize)] {
        let (g, _) = NeighborGraph::compute_strategy(
            &data,
            &SimilarityKind::Jaccard,
            theta,
            4,
            &Observer::new(),
            &Guard::unlimited(),
            JoinStrategy::Index,
        )
        .unwrap();
        assert_eq!(g.degree(0), expect_degree, "θ={theta}");
    }
}

#[test]
fn oversized_vocabulary_takes_the_merge_path_and_matches_the_oracle() {
    // Items drawn from 0..6000 push the vocabulary past the dense
    // bit-matrix cutoff (4096), so verification runs the bounded
    // sorted merge instead of AND+popcount — same oracle contract.
    let mut rng = Rng::seed_from_u64(9);
    let rows: Vec<Transaction> = (0..300)
        .map(|_| {
            let len = rng.gen_range(3..12usize);
            Transaction::new((0..len).map(|_| rng.gen_range(0..6000usize) as u32))
        })
        .collect();
    let data: TransactionSet = rows.into_iter().collect();
    for theta in [0.2, 0.5] {
        let oracle = brute(&data, &SimilarityKind::Jaccard, theta);
        for threads in [1, 4] {
            let (joined, trip) = NeighborGraph::compute_strategy(
                &data,
                &SimilarityKind::Jaccard,
                theta,
                threads,
                &Observer::new(),
                &Guard::unlimited(),
                JoinStrategy::Index,
            )
            .unwrap();
            assert!(trip.is_none());
            assert_eq!(
                lists_of(&joined),
                lists_of(&oracle),
                "θ={theta} threads={threads}"
            );
        }
    }
}
