//! Integration tests for the extension features: dendrograms,
//! goodness-threshold stopping, connected components, summaries and
//! streaming labeling.

use rock::core::agglomerate::{agglomerate, AgglomerateConfig};
use rock::core::labeling::{label_many_observed, Representatives};
use rock::core::metrics::matched_accuracy;
use rock::core::summary::ClusterSummary;
use rock::datasets::synthetic::{BasketModel, LatentClassModel, MushroomModel};
use rock::prelude::*;

#[test]
fn dendrogram_cut_matches_direct_agglomeration() {
    // Cutting a k=1 dendrogram at k must reproduce a direct run at k: the
    // greedy merge sequence is the same prefix.
    let (table, _) = LatentClassModel::uniform(4, 30, 12, 4)
        .concentration(0.9)
        .seed(5)
        .generate();
    let data = table.to_transactions();
    let theta = 0.45;
    let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
    let links = LinkTable::compute(&g);
    let good = Goodness::new(theta, &MarketBasket).unwrap();

    let full = agglomerate(data.len(), &links, &good, &AgglomerateConfig::new(1)).unwrap();
    let dendro = Dendrogram::new(data.len(), full.history.clone());
    // Cross-class links may run out before k = 1; compare from whatever
    // floor the greedy run reached upward.
    let floor = dendro.min_clusters();
    for k in [floor, floor + 3, floor + 10, (floor + 30).min(data.len())] {
        let direct = agglomerate(data.len(), &links, &good, &AgglomerateConfig::new(k)).unwrap();
        let cut = dendro.cut(k).expect("valid cut");
        assert_eq!(cut, direct.clusters, "cut at k={k} diverges");
    }
}

#[test]
fn model_dendrogram_requires_history() {
    let (table, _) = LatentClassModel::uniform(3, 20, 10, 3).seed(1).generate();
    let data = table.to_transactions();
    let without = RockBuilder::new(3, 0.45).build().fit(&data).unwrap();
    assert!(without.dendrogram().is_none());
    let with = RockBuilder::new(3, 0.45)
        .record_history(true)
        .build()
        .fit(&data)
        .unwrap();
    let d = with.dendrogram().expect("history recorded");
    assert_eq!(d.num_points(), with.stats().sample_size);
    assert_eq!(d.min_clusters(), with.num_clusters());
}

#[test]
fn min_goodness_via_builder_stops_at_structure() {
    // Well-separated classes: with an absurdly high goodness floor nothing
    // merges; with floor 0 the requested k is reached.
    let (table, truth) = LatentClassModel::uniform(3, 30, 12, 4)
        .concentration(0.9)
        .seed(7)
        .generate();
    let data = table.to_transactions();
    let strict = RockBuilder::new(1, 0.45)
        .min_goodness(f64::INFINITY)
        .build()
        .fit(&data)
        .unwrap();
    assert_eq!(strict.num_clusters(), data.len(), "no merge clears +inf");
    let relaxed = RockBuilder::new(3, 0.45)
        .min_goodness(0.0)
        .build()
        .fit(&data)
        .unwrap();
    assert_eq!(relaxed.num_clusters(), 3);
    let pred: Vec<Option<u32>> = relaxed
        .assignments()
        .iter()
        .map(|a| a.map(|c| c.0))
        .collect();
    assert!(matched_accuracy(&pred, &truth).unwrap() > 0.95);
}

#[test]
fn components_match_rock_on_separated_baskets() {
    let (data, truth) = BasketModel::disjoint(3, 25, 14, (4, 6)).seed(9).generate();
    let g = NeighborGraph::compute(&data, &Jaccard, 0.25, 1).unwrap();
    let comps = connected_components(&g);
    assert_eq!(comps.len(), 3);
    let mut pred: Vec<Option<u32>> = vec![None; data.len()];
    for (c, members) in comps.iter().enumerate() {
        for &p in members {
            pred[p as usize] = Some(c as u32);
        }
    }
    assert_eq!(matched_accuracy(&pred, &truth).unwrap(), 1.0);
}

#[test]
fn summaries_recover_planted_templates() {
    // High-concentration classes: each cluster's top items should be the
    // class's preferred (attribute, value) pairs with support ≈ 0.95.
    let (table, _) = LatentClassModel::uniform(3, 40, 10, 4)
        .concentration(0.95)
        .seed(3)
        .generate();
    let data = table.to_transactions();
    let model = RockBuilder::new(3, 0.5).build().fit(&data).unwrap();
    let summaries = ClusterSummary::compute_all(&data, model.clusters(), 0.7);
    for s in &summaries {
        // Roughly one characteristic item per attribute.
        assert!(
            (8..=10).contains(&s.items.len()),
            "expected ~10 characteristic items, got {}",
            s.items.len()
        );
        assert!(s.items[0].support > 0.85);
        // Description renders through the vocabulary.
        let text = s.describe(&data, 3);
        assert!(text.contains('='), "vocabulary rendering: {text}");
    }
}

#[test]
fn streaming_labeling_matches_batch_pipeline() {
    let (table, _, groups) = MushroomModel::scaled(600, 5).seed(8).generate();
    let data = table.to_transactions();
    // Cluster a sample manually, then stream-label everything.
    let mut rng = seeded_rng(8);
    let idx = sample_indices(data.len(), 200, &mut rng).unwrap();
    let sample = data.subset(&idx);
    let model = RockBuilder::new(5, 0.8)
        .seed(8)
        .build()
        .fit(&sample)
        .unwrap();
    let sample_clusters: Vec<Vec<u32>> = model.clusters().to_vec();
    let reps = Representatives::draw(
        &sample,
        &sample_clusters,
        &LabelingConfig::default(),
        &mut rng,
    )
    .unwrap();
    let points: Vec<&Transaction> = data.iter().collect();
    let streamed = label_many_observed(
        &points,
        &reps,
        &Jaccard,
        &MarketBasket,
        0.8,
        1,
        &Observer::new(),
    );
    // Streamed labels should agree with the latent groups almost always.
    let pred: Vec<Option<u32>> = streamed.iter().map(|l| l.map(|c| c as u32)).collect();
    let acc = matched_accuracy(&pred, &groups).unwrap();
    assert!(acc > 0.9, "stream labeling accuracy {acc}");
}

#[test]
fn goodness_profile_is_reported_in_merge_order() {
    let (data, _) = BasketModel::disjoint(2, 20, 12, (4, 6)).seed(2).generate();
    let model = RockBuilder::new(2, 0.3)
        .record_history(true)
        .build()
        .fit(&data)
        .unwrap();
    let d = model.dendrogram().unwrap();
    let profile = d.goodness_profile();
    assert_eq!(profile.len(), model.stats().merges);
    assert!(profile.iter().all(|&g| g.is_finite() && g > 0.0));
}
