//! E1 — Congressional Votes (paper §5: the two cluster-composition tables).
//!
//! The paper reports that on the 1984 Congressional Voting Records data
//! the *traditional* centroid-based hierarchical algorithm produces two
//! substantially mixed clusters, while ROCK (θ = 0.73) recovers two
//! clusters that are each overwhelmingly one party.
//!
//! Offline we run on the calibrated votes-like generator (see `DESIGN.md`,
//! *Substitutions*) in its noisy regime; the synthetic party-line
//! probability shifts the useful θ down to ~0.35 (the real data is more
//! polarized — `exp_theta` sweeps this explicitly). The *shape* under
//! test: ROCK's clusters are near-pure, the traditional algorithm's are
//! visibly mixed.

use rock_baselines::{traditional, KModes, Linkage};
use rock_bench::cli::ExpOptions;
use rock_bench::table::{banner, f4, pm, TextTable};
use rock_core::metrics::{cluster_breakdown, matched_accuracy, mean_std, purity};
use rock_core::prelude::*;
use rock_core::telemetry::time_it;
use rock_datasets::synthetic::{Party, VotesModel};

const THETA: f64 = 0.35;

/// `(rock predictions, traditional predictions, truth)` of the last epoch.
type LastEpoch = (Vec<Option<u32>>, Vec<Option<u32>>, Vec<usize>);

fn main() {
    let opts = ExpOptions::from_env();
    banner("E1: Congressional Votes — ROCK vs traditional hierarchical");
    println!(
        "votes-like synthetic data (435 members, 16 issues), theta = {THETA}, k = 2, {} epochs",
        opts.epochs
    );

    let mut rock_acc = Vec::new();
    let mut trad_acc = Vec::new();
    let mut kmodes_acc = Vec::new();
    let mut last: Option<LastEpoch> = None;

    for e in 0..opts.epochs {
        // Harder-than-default regime: weaker party-line voting and more
        // bipartisan issues, the setting where local (distance-only)
        // merging starts to fail while links still separate the parties.
        let model = VotesModel {
            democrats: opts.scaled(267, 30),
            republicans: opts.scaled(168, 20),
            partisan_issues: 10,
            party_line: 0.78,
            missing: 0.08,
            ..VotesModel::default()
        }
        .seed(opts.seed + e as u64);
        let (table, parties) = model.generate();
        let truth: Vec<usize> = parties
            .iter()
            .map(|p| usize::from(*p == Party::Republican))
            .collect();
        let data = table.to_transactions();

        // ROCK: θ-neighbors on Jaccard over (attr, value) items, k = 2.
        let observer = Observer::new();
        let (rock, rock_wall) = time_it(|| {
            RockBuilder::new(2, THETA)
                .seed(opts.seed + e as u64)
                .build()
                .fit_guarded(&data, &observer, &Guard::unlimited())
                .map(Outcome::into_model)
        });
        let rock = rock.expect("rock fit");
        opts.emit_metrics(&Metrics::collect(
            &observer,
            RunInfo {
                experiment: "exp_votes".into(),
                n: data.len(),
                k: 2,
                theta: THETA,
                seed: opts.seed + e as u64,
                sample_size: rock.stats().sample_size,
                clusters: rock.num_clusters(),
                outliers: rock.outliers().len(),
            },
            rock_wall,
        ));
        let rock_pred: Vec<Option<u32>> =
            rock.assignments().iter().map(|a| a.map(|c| c.0)).collect();
        rock_acc.push(matched_accuracy(&rock_pred, &truth).expect("metrics"));

        // Traditional: centroid-based hierarchical on one-hot Euclidean.
        let trad = traditional(&data, 2, Linkage::Centroid).expect("traditional fit");
        let trad_pred = trad.as_predictions();
        trad_acc.push(matched_accuracy(&trad_pred, &truth).expect("metrics"));

        // k-modes baseline.
        let km = KModes::new(2)
            .seed(opts.seed + e as u64)
            .fit(&table)
            .expect("kmodes fit");
        kmodes_acc.push(matched_accuracy(&km.as_predictions(), &truth).expect("metrics"));

        last = Some((rock_pred, trad_pred, truth));
    }

    let (rock_pred, trad_pred, truth) = last.expect("at least one epoch");

    banner("Cluster composition — traditional hierarchical (last epoch)");
    print_composition(&trad_pred, &truth);
    banner("Cluster composition — ROCK (last epoch)");
    print_composition(&rock_pred, &truth);

    banner("Accuracy over epochs (optimal cluster<->party matching)");
    let mut t = TextTable::new(["algorithm", "accuracy", "purity(last)"]);
    let (m, s) = mean_std(&rock_acc);
    t.row(["ROCK", &pm(m, s), &f4(purity(&rock_pred, &truth).unwrap())]);
    let (m, s) = mean_std(&trad_acc);
    t.row([
        "traditional (centroid)",
        &pm(m, s),
        &f4(purity(&trad_pred, &truth).unwrap()),
    ]);
    let (m, s) = mean_std(&kmodes_acc);
    t.row(["k-modes", &pm(m, s), ""]);
    t.print();
}

fn print_composition(pred: &[Option<u32>], truth: &[usize]) {
    let rows = cluster_breakdown(pred, truth).expect("breakdown");
    let mut t = TextTable::new(["cluster", "size", "democrats", "republicans", "purity"]);
    for (i, (size, classes)) in rows.iter().enumerate() {
        let dem = classes.first().copied().unwrap_or(0);
        let rep = classes.get(1).copied().unwrap_or(0);
        let p = dem.max(rep) as f64 / (*size as f64).max(1.0);
        t.row([
            format!("C{i}"),
            size.to_string(),
            dem.to_string(),
            rep.to_string(),
            f4(p),
        ]);
    }
    let outliers = pred.iter().filter(|p| p.is_none()).count();
    t.print();
    if outliers > 0 {
        println!("(outliers: {outliers})");
    }
}
