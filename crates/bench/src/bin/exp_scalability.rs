//! E4 — scalability (paper §5: the execution-time figure).
//!
//! The paper plots ROCK's execution time against the number of sample
//! points for several θ on the mushroom data: time grows roughly
//! quadratically in n (the neighbor phase), and higher θ is faster
//! because the neighbor graph — and hence the link table and merge work —
//! is sparser. This binary prints the data series behind that figure,
//! broken down by phase.

use rock_bench::cli::ExpOptions;
use rock_bench::table::{banner, TextTable};
use rock_core::prelude::*;
use rock_core::telemetry::{format_secs as secs, time_it};
use rock_datasets::synthetic::MushroomModel;

fn main() {
    let opts = ExpOptions::from_env();
    banner("E4: execution time vs sample points (mushroom-like, k = 21)");

    let sizes: Vec<usize> = [1000usize, 2000, 3000, 4000, 6000, 8124]
        .iter()
        .map(|&s| opts.scaled(s, 200))
        .collect();
    let thetas = [0.5f64, 0.73, 0.8];

    let full = MushroomModel::default().seed(opts.seed);
    let (table, _, _) = full.generate();
    let data = table.to_transactions();

    let mut t = TextTable::new([
        "n",
        "theta",
        "neighbors",
        "links",
        "merge",
        "total",
        "avg_degree",
        "clusters",
    ]);
    // With --trace, the very first fit writes a rock-trace/v1 stream;
    // min-of-epochs timing absorbs its (small) overhead.
    let mut trace_pending = opts.trace.clone();
    for &n in &sizes {
        let n = n.min(data.len());
        for &theta in &thetas {
            // Min-of-epochs: wall times feed the CI regression gate
            // (bench_check), and the fastest epoch is the stablest point
            // estimate on a shared machine. Counters and clustering are
            // identical across epochs, so only the clock is being picked.
            let mut best = None;
            for _ in 0..opts.epochs {
                let observer = Observer::new();
                let mut builder = RockBuilder::new(21.min(n), theta)
                    .sample(SampleStrategy::Fixed(n))
                    .labeling(LabelingConfig {
                        representative_fraction: 0.0001, // timing the clustering, not labeling
                        max_representatives: 1,
                    })
                    .seed(opts.seed);
                if let Some(path) = trace_pending.take() {
                    builder = builder.trace(path);
                }
                let rock = builder.build();
                let (model, wall) = time_it(|| {
                    rock.fit_guarded(&data, &observer, &Guard::unlimited())
                        .map(Outcome::into_model)
                });
                let model = model.expect("fit");
                if best
                    .as_ref()
                    .is_none_or(|(w, _, _): &(std::time::Duration, _, _)| wall < *w)
                {
                    best = Some((wall, model, observer));
                }
            }
            let (wall, model, observer) = best.expect("at least one epoch");
            let s = model.stats();
            opts.emit_metrics(&Metrics::collect(
                &observer,
                RunInfo {
                    experiment: "exp_scalability".into(),
                    n: data.len(),
                    k: 21.min(n),
                    theta,
                    seed: opts.seed,
                    sample_size: s.sample_size,
                    clusters: model.num_clusters(),
                    outliers: model.outliers().len(),
                },
                wall,
            ));
            t.row([
                n.to_string(),
                format!("{theta:.2}"),
                secs(s.timings.neighbors),
                secs(s.timings.links),
                secs(s.timings.merge),
                secs(s.timings.neighbors + s.timings.links + s.timings.merge),
                format!("{:.0}", s.avg_degree),
                model.num_clusters().to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\n(Series to compare with the paper's figure: total time vs n per theta.\n\
         Expect ~quadratic growth in n and faster runs at higher theta.)"
    );
}
