//! Telemetry integration tests: every pipeline counter is checked
//! against hand-computed values on a 6-transaction fixture — two
//! disjoint "triangles" whose neighbor graph, link table and merge
//! sequence can be worked out on paper.
//!
//! Fixture (θ = 0.4, Jaccard):
//! - group A: {0,1,2}, {0,1,3}, {0,2,3} — pairwise similarity 2/4 = 0.5
//! - group B: {10,11,12}, {10,11,13}, {10,12,13} — likewise 0.5
//! - across groups: similarity 0
//!
//! So each group is a 3-clique: every point has degree 2, each pair
//! within a group has exactly one common neighbor, and the two groups
//! share nothing.

use rock::core::agglomerate::{agglomerate_guarded, AgglomerateConfig};
use rock::core::labeling::label_many_observed;
use rock::core::links::LinkTable;
use rock::core::neighbors::NeighborGraph;
use rock::core::rng::Rng;
use rock::prelude::*;

const THETA: f64 = 0.4;

fn fixture() -> TransactionSet {
    TransactionSet::new(
        vec![
            Transaction::new([0, 1, 2]),
            Transaction::new([0, 1, 3]),
            Transaction::new([0, 2, 3]),
            Transaction::new([10, 11, 12]),
            Transaction::new([10, 11, 13]),
            Transaction::new([10, 12, 13]),
        ],
        14,
    )
}

#[test]
fn stage_counters_match_hand_computed_values() {
    let data = fixture();
    let observer = Observer::new();

    let guard = Guard::unlimited();
    let (graph, _) =
        NeighborGraph::compute_guarded(&data, &Jaccard, THETA, 1, &observer, &guard).unwrap();
    let (links, _) = LinkTable::compute_guarded(&graph, 1, &observer, &guard);
    let goodness = Goodness::new(THETA, &MarketBasket).unwrap();
    let (agg, _) = agglomerate_guarded(
        data.len(),
        &links,
        &goodness,
        &AgglomerateConfig::new(2),
        &observer,
        &guard,
    )
    .unwrap();
    assert_eq!(agg.clusters.len(), 2);

    let c = observer.counters().snapshot();
    // All n(n-1) = 6·5 ordered pairs are evaluated.
    assert_eq!(c.similarity_comparisons, 30);
    // Each point has 2 neighbors; edges are counted directed: Σ deg = 12.
    assert_eq!(c.neighbor_edges, 12);
    // Link kernel work is Σ_i Σ_{l ∈ N(i)} deg(l) = 6 · 2 · 2 = 24 —
    // the paper's Σ m_i² bound instantiated on this graph.
    assert_eq!(c.link_kernel_steps, 24);
    // Within a 3-clique every pair has exactly one common neighbor:
    // 3 pairs per group, nothing across groups.
    assert_eq!(c.link_entries, 6);
    // 6 points → 2 clusters is exactly 4 merge steps.
    assert_eq!(c.merges, 4);
    // The heap machinery must have been exercised; exact push/pop counts
    // are an implementation detail of the local-heap maintenance.
    assert!(c.heap_pushes >= 4);
    assert!(c.heap_pops >= 4);
    // No sampling, outlier or labeling stages were run here.
    assert_eq!(c.points_sampled, 0);
    assert_eq!(c.outliers_filtered, 0);
    assert_eq!(c.outliers_pruned, 0);
    assert_eq!(c.labeling_evaluations, 0);
    assert_eq!(c.points_labeled, 0);

    // Memory gauges saw the two big structures.
    let m = observer.memory().snapshot();
    assert!(m.neighbor_graph > 0);
    assert!(m.link_table > 0);
    assert!(m.heaps > 0);
    assert_eq!(m.tracked_total(), m.neighbor_graph + m.link_table + m.heaps);
}

#[test]
fn outlier_filter_counts_dropped_points() {
    let data = fixture();
    let observer = Observer::new();
    let (graph, _) =
        NeighborGraph::compute_guarded(&data, &Jaccard, THETA, 1, &observer, &Guard::unlimited())
            .unwrap();
    // Every point has degree 2 < 3, so a min-neighbors-3 filter drops all.
    let (kept, out) = NeighborFilter::new(3).split_observed(&graph, &observer);
    assert!(kept.is_empty());
    assert_eq!(out.len(), 6);
    assert_eq!(observer.counters().snapshot().outliers_filtered, 6);
}

#[test]
fn labeling_counters_match_hand_computed_values() {
    let data = fixture();
    let observer = Observer::new();
    // All 6 fixture points as representatives: fraction 1.0, no cap.
    let config = LabelingConfig {
        representative_fraction: 1.0,
        max_representatives: 0,
    };
    let clusters = vec![vec![0u32, 1, 2], vec![3u32, 4, 5]];
    let mut rng = Rng::seed_from_u64(7);
    let reps = Representatives::draw(&data, &clusters, &config, &mut rng).unwrap();
    assert_eq!(reps.total(), 6);

    let a = Transaction::new([0, 1, 2]);
    let b = Transaction::new([10, 11, 12]);
    let points = vec![&a, &b];
    let labels = label_many_observed(&points, &reps, &Jaccard, &MarketBasket, THETA, 1, &observer);
    assert_eq!(labels, vec![Some(0), Some(1)]);

    let c = observer.counters().snapshot();
    // Every point is scored against every representative: 2 · 6.
    assert_eq!(c.labeling_evaluations, 12);
    assert_eq!(c.points_labeled, 2);
}

#[test]
fn fit_observed_exposes_the_same_counters_end_to_end() {
    let data = fixture();
    let observer = Observer::new();
    let model = RockBuilder::new(2, THETA)
        .sample(SampleStrategy::All)
        .seed(1)
        .build()
        .fit_guarded(&data, &observer, &Guard::unlimited())
        .unwrap()
        .into_model();
    assert_eq!(model.num_clusters(), 2);
    assert!(model.outliers().is_empty());

    let c = observer.counters().snapshot();
    assert_eq!(c.points_sampled, 6);
    assert_eq!(c.similarity_comparisons, 30);
    assert_eq!(c.neighbor_edges, 12);
    assert_eq!(c.link_kernel_steps, 24);
    assert_eq!(c.link_entries, 6);
    assert_eq!(c.merges, 4);
    assert_eq!(c.outliers_filtered, 0);
    // Everything was in the sample, so nothing needed labeling.
    assert_eq!(c.labeling_evaluations, 0);
    assert_eq!(c.points_labeled, 0);

    // Phase spans accumulated wall time; every phase at least started.
    let total: f64 = Phase::ALL
        .iter()
        .map(|&p| observer.phase_wall(p).as_secs_f64())
        .sum();
    assert!(total > 0.0);

    // The metrics snapshot carries it all through to JSON.
    let metrics = Metrics::collect(
        &observer,
        RunInfo {
            experiment: "fixture".into(),
            n: data.len(),
            k: 2,
            theta: THETA,
            seed: 1,
            sample_size: 6,
            clusters: model.num_clusters(),
            outliers: 0,
        },
        model.stats().timings.total,
    );
    let json = metrics.to_json();
    assert!(json.contains("\"schema\": \"rock-metrics/v1\""));
    assert!(json.contains("\"similarity_comparisons\": 30"));
    assert!(json.contains("\"merges\": 4"));
    assert!(json.contains("\"experiment\": \"fixture\""));
}

#[test]
fn sampled_fit_labels_the_rest_and_counts_it() {
    // 40 points in two blocks of 20; cluster a 12-point sample and label
    // the remaining 28. labeling_evaluations must be exactly
    // (unlabeled points) × (representatives drawn).
    let mut rows = Vec::new();
    for i in 0..20u32 {
        rows.push(Transaction::new([0, 1, 2, 20 + (i % 3)]));
        rows.push(Transaction::new([10, 11, 12, 30 + (i % 3)]));
    }
    let data = TransactionSet::new(rows, 40);
    let observer = Observer::new();
    let model = RockBuilder::new(2, 0.4)
        .sample(SampleStrategy::Fixed(12))
        .seed(3)
        .build()
        .fit_guarded(&data, &observer, &Guard::unlimited())
        .unwrap()
        .into_model();
    assert_eq!(model.num_clusters(), 2);

    let c = observer.counters().snapshot();
    assert_eq!(c.points_sampled, 12);
    assert_eq!(c.similarity_comparisons, 12 * 11);
    assert!(c.labeling_evaluations > 0);
    assert_eq!(c.labeling_evaluations % (40 - 12), 0);
    assert_eq!(c.points_labeled, 40 - 12);
}

#[test]
fn traced_fit_emits_a_deterministic_canonical_stream() {
    use rock::core::telemetry::trace::{validate, PayloadValue, TraceRecord, TRACE_SCHEMA};

    // Same 40-point dataset as above: `Fixed(12)` guarantees a labeling
    // pass, and a 12-point sample keeps every stage on one worker, so
    // the event *structure* (not the timings) is fully deterministic.
    let mut rows = Vec::new();
    for i in 0..20u32 {
        rows.push(Transaction::new([0, 1, 2, 20 + (i % 3)]));
        rows.push(Transaction::new([10, 11, 12, 30 + (i % 3)]));
    }
    let data = TransactionSet::new(rows, 40);

    let dir = std::env::temp_dir().join("rock-telemetry-trace-test");
    std::fs::create_dir_all(&dir).unwrap();

    // Runs one traced fit and returns the stream with timestamps,
    // durations, span ids and histogram samples normalized away: record
    // kind, name, phase, worker and payload keys/values remain.
    let shape = |path: &std::path::Path| -> Vec<String> {
        let observer = Observer::new();
        let model = RockBuilder::new(2, 0.4)
            .sample(SampleStrategy::Fixed(12))
            .seed(3)
            .trace(path)
            .build()
            .fit_guarded(&data, &observer, &Guard::unlimited())
            .unwrap()
            .into_model();
        assert_eq!(model.num_clusters(), 2);

        let text = std::fs::read_to_string(path).unwrap();
        let summary = validate(&text).expect("stream must be canonical");
        assert_eq!(summary.source, "rock-core");
        // Six phase scopes, one worker span each for neighbors, links,
        // agglomerate and labeling, and the link kernel's `links.select`.
        assert_eq!(summary.spans, 11);
        assert_eq!(summary.hists, 2);

        let records: Vec<TraceRecord> = text
            .lines()
            .map(|line| {
                let record = TraceRecord::parse_line(line).unwrap();
                // Emit → parse → re-emit is byte-identical, line by line.
                assert_eq!(record.to_line(), line);
                record
            })
            .collect();

        // The merge loop's counts, exactly: 12 sampled points merge down
        // to 2 in one batch. A drift in the engine's bookkeeping that
        // leaves the merge order alone (compaction timing, say) still
        // moves these.
        let fields = ["merges", "repairs", "replaced", "rescans", "dropped"];
        let batches: Vec<Vec<f64>> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) if s.name == "agglomerate.batch" => Some(
                    fields
                        .iter()
                        .map(|key| match s.payload.iter().find(|(k, _)| k == key) {
                            Some((_, PayloadValue::Num(x))) => *x,
                            other => panic!("batch field {key}: {other:?}"),
                        })
                        .collect(),
                ),
                _ => None,
            })
            .collect();
        assert_eq!(batches, vec![vec![10.0, 21.0, 21.0, 0.0, 0.0]]);
        let c = observer.counters().snapshot();
        assert_eq!((c.heap_pushes, c.heap_pops), (150, 121));

        // Worker spans nest under their phase scope: every non-"phase"
        // span's parent must be the id of a "phase" span, and phase
        // scopes themselves are roots.
        let phase_ids: std::collections::HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) if s.name == "phase" => Some(s.id),
                _ => None,
            })
            .collect();
        for r in &records {
            if let TraceRecord::Span(s) = r {
                if s.name == "phase" {
                    assert_eq!(s.parent, 0, "phase scope {} must be a root", s.id);
                } else {
                    assert!(
                        phase_ids.contains(&s.parent),
                        "span {:?} must nest under a phase scope, parent {}",
                        s.name,
                        s.parent
                    );
                }
            }
        }

        records
            .iter()
            .map(|r| match r {
                TraceRecord::Meta { schema, .. } => format!("meta {schema}"),
                TraceRecord::Span(s) => {
                    let payload: Vec<String> = s
                        .payload
                        .iter()
                        .map(|(k, v)| format!("{k}={v:?}"))
                        .collect();
                    format!(
                        "span {} {} w{} [{}]",
                        s.name,
                        s.phase.as_deref().unwrap_or("-"),
                        s.worker,
                        payload.join(" ")
                    )
                }
                TraceRecord::Hist(h) => {
                    let worker = h.worker.map_or("-".to_owned(), |w| w.to_string());
                    format!("hist {} w{worker} {}", h.name, h.unit)
                }
            })
            .collect()
    };

    let first = shape(&dir.join("a.trace"));

    // The spine of the stream: one scope span per pipeline phase in
    // execution order, with the single-threaded worker spans and their
    // histograms inside. Spans are written at *end*, so each child line
    // precedes its enclosing phase line.
    let spine: Vec<(&str, &str)> = first
        .iter()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some("meta"), Some(schema), _) => Some((schema, "")),
                (Some("span"), Some(name), Some(phase)) => Some((name, phase)),
                (Some("hist"), Some(name), _) => Some((name, "")),
                _ => None,
            }
        })
        .collect();
    assert_eq!(
        spine,
        vec![
            (TRACE_SCHEMA, ""),
            ("phase", "sample"),
            ("neighbors.scan", "neighbors"),
            ("phase", "neighbors"),
            ("phase", "outliers"),
            ("links.select", "links"),
            ("links.shard", "links"),
            ("links.shard_ns", ""),
            ("phase", "links"),
            ("agglomerate.batch", "agglomerate"),
            ("agglomerate.batch_ns", ""),
            ("phase", "agglomerate"),
            ("labeling.pass", "labeling"),
            ("phase", "labeling"),
        ]
    );

    // A second run with the same seed produces the identical normalized
    // stream — payload values (edge counts, merges, goodness) included.
    let second = shape(&dir.join("b.trace"));
    assert_eq!(first, second, "trace structure must be deterministic");
}
