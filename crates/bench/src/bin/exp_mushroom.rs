//! E2 — Mushroom (paper §5: ROCK's 21-cluster table vs the traditional
//! algorithm's 20 mixed clusters).
//!
//! The paper runs ROCK with θ = 0.8 and k = 21 on all 8124 mushroom
//! records and finds clusters that are pure in edible/poisonous (all but
//! one), with sizes spanning 8 … 1728; the traditional centroid-based
//! algorithm at comparable k produces badly mixed clusters.
//!
//! Offline we run on the mushroom-like generator (21 planted species
//! groups, sizes 8 … 1828 summing to 8124; see `DESIGN.md`,
//! *Substitutions*). ROCK follows the paper's large-data paradigm:
//! cluster a random sample, then label the full dataset. The traditional
//! baseline gets the same sample (its `O(n²)` distance matrix cannot hold
//! 8124 points comfortably) and labels nothing — exactly the handicap the
//! paper describes for hierarchical methods.

use rock_baselines::{traditional, Linkage};
use rock_bench::cli::ExpOptions;
use rock_bench::table::{banner, f4, TextTable};
use rock_core::metrics::{cluster_breakdown, densify_labels, matched_accuracy, purity};
use rock_core::prelude::*;
use rock_core::telemetry::time_it;
use rock_datasets::synthetic::MushroomModel;

const THETA: f64 = 0.8;
const K: usize = 21;
const SAMPLE: usize = 2000;

fn main() {
    let opts = ExpOptions::from_env();
    banner("E2: Mushroom — ROCK (sample + label) vs traditional hierarchical");

    let model = if opts.scale < 1.0 {
        MushroomModel::scaled(opts.scaled(8124, 500), K).seed(opts.seed)
    } else {
        MushroomModel::default().seed(opts.seed)
    };
    let n = model.num_records();
    let sample = SAMPLE.min(n);
    println!("mushroom-like synthetic data: n = {n}, 22 attributes, 21 latent groups");
    println!("ROCK: theta = {THETA}, k = {K}, sample = {sample}, labeling the rest");

    let (mut table, classes, mut groups) = model.generate();
    let mut class_truth = densify_labels(&classes);

    // Debris: a few percent of uniform-random records, the outlier regime
    // paper §4.3 discusses. ROCK's neighbor filter / labeling discards
    // them; the traditional algorithm has no outlier concept and must
    // spend clusters on them, forcing genuine clusters to merge.
    let noise = n / 25;
    {
        let mut rng = seeded_rng(opts.seed ^ 0x6e6f_6973);
        let cards: Vec<usize> = table
            .schema()
            .iter()
            .map(|(_, a)| a.cardinality())
            .collect();
        for _ in 0..noise {
            let row: Vec<Option<u16>> = cards
                .iter()
                .map(|&c| Some(rng.gen_range(0..c.max(1)) as u16))
                .collect();
            table.push_coded(row).expect("noise row");
            class_truth.push(2); // its own throw-away class
            groups.push(K); // its own throw-away group
        }
    }
    println!("plus {noise} uniform-random debris records (paper §4.3 outlier regime)");
    let n = table.len();
    let data = table.to_transactions();

    // ── ROCK: sample, cluster, label ───────────────────────────────────
    let observer = Observer::new();
    let (rock, rock_wall) = time_it(|| {
        RockBuilder::new(K, THETA)
            .sample(SampleStrategy::Fixed(sample))
            .seed(opts.seed)
            .build()
            .fit_guarded(&data, &observer, &Guard::unlimited())
            .map(Outcome::into_model)
    });
    let rock = rock.expect("rock fit");
    opts.emit_metrics(&Metrics::collect(
        &observer,
        RunInfo {
            experiment: "exp_mushroom".into(),
            n,
            k: K,
            theta: THETA,
            seed: opts.seed,
            sample_size: rock.stats().sample_size,
            clusters: rock.num_clusters(),
            outliers: rock.outliers().len(),
        },
        rock_wall,
    ));
    let rock_pred: Vec<Option<u32>> = rock.assignments().iter().map(|a| a.map(|c| c.0)).collect();

    banner("ROCK cluster table (full dataset after labeling)");
    print_mushroom_table(&rock_pred, &class_truth);
    let rock_purity = purity(&rock_pred, &class_truth).unwrap();
    let rock_group_acc = matched_accuracy(&rock_pred, &groups).unwrap();
    println!(
        "edible/poisonous purity = {}, latent-group accuracy = {}, clusters = {}, outliers = {}",
        f4(rock_purity),
        f4(rock_group_acc),
        rock.num_clusters(),
        rock.outliers().len()
    );

    // ── Traditional on the same-size sample ───────────────────────────
    let mut rng = seeded_rng(opts.seed);
    let idx = sample_indices(n, sample, &mut rng).expect("sample");
    let sub = data.subset(&idx);
    let sub_truth: Vec<usize> = idx.iter().map(|&i| class_truth[i]).collect();
    let sub_groups: Vec<usize> = idx.iter().map(|&i| groups[i]).collect();
    let trad = traditional(&sub, K, Linkage::Centroid).expect("traditional fit");
    let trad_pred = trad.as_predictions();

    banner("Traditional hierarchical cluster table (sample only)");
    print_mushroom_table(&trad_pred, &sub_truth);
    println!(
        "edible/poisonous purity = {}, latent-group accuracy = {} (on the sample)",
        f4(purity(&trad_pred, &sub_truth).unwrap()),
        f4(matched_accuracy(&trad_pred, &sub_groups).unwrap()),
    );

    banner("Summary");
    let mut t = TextTable::new([
        "algorithm",
        "class purity",
        "group accuracy",
        "pure clusters",
    ]);
    t.row([
        "ROCK".to_string(),
        f4(rock_purity),
        f4(rock_group_acc),
        format!(
            "{}/{}",
            count_pure(&rock_pred, &class_truth),
            rock.num_clusters()
        ),
    ]);
    t.row([
        "traditional (centroid)".to_string(),
        f4(purity(&trad_pred, &sub_truth).unwrap()),
        f4(matched_accuracy(&trad_pred, &sub_groups).unwrap()),
        format!(
            "{}/{}",
            count_pure(&trad_pred, &sub_truth),
            trad.clusters().len()
        ),
    ]);
    // The paper also evaluates the traditional algorithm with post-hoc
    // outlier removal (discard tiny clusters). It cannot help here: the
    // damage — genuine groups merged to free clusters for debris — is
    // already done.
    let pruned_pred = trad.prune_small(2);
    t.row([
        "traditional + prune<=2".to_string(),
        f4(purity(&pruned_pred, &sub_truth).unwrap()),
        f4(matched_accuracy(&pruned_pred, &sub_groups).unwrap()),
        format!(
            "{}/{}",
            count_pure(&pruned_pred, &sub_truth),
            cluster_breakdown(&pruned_pred, &sub_truth).unwrap().len()
        ),
    ]);
    t.print();
}

/// Prints the paper-style cluster table: cluster number, size, edible and
/// poisonous counts.
fn print_mushroom_table(pred: &[Option<u32>], truth: &[usize]) {
    let rows = cluster_breakdown(pred, truth).expect("breakdown");
    let mut t = TextTable::new(["cluster", "size", "edible", "poisonous", "debris", "pure"]);
    for (i, (size, classes)) in rows.iter().enumerate() {
        let e = classes.first().copied().unwrap_or(0);
        let p = classes.get(1).copied().unwrap_or(0);
        let d = classes.get(2).copied().unwrap_or(0);
        t.row([
            format!("C{i}"),
            size.to_string(),
            e.to_string(),
            p.to_string(),
            d.to_string(),
            if e == 0 || p == 0 { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.print();
    let outliers = pred.iter().filter(|p| p.is_none()).count();
    if outliers > 0 {
        println!("(outliers: {outliers})");
    }
}

fn count_pure(pred: &[Option<u32>], truth: &[usize]) -> usize {
    cluster_breakdown(pred, truth)
        .expect("breakdown")
        .iter()
        .filter(|(_, classes)| classes.iter().filter(|&&c| c > 0).count() <= 1)
        .count()
}
