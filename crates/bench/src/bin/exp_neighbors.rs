//! E12 — inverted-index neighbor join vs brute force (DESIGN.md §17).
//!
//! Benchmarks the neighbor phase alone — ROCK's `O(n²)` hot spot — on
//! the mushroom-like generator: one brute-force reference per size (the
//! oracle and the speedup denominator), then the indexed join at 1, 2,
//! 4 and 8 workers. Every join run is checked row by row against the
//! oracle: the filters only narrow the candidate set and survivors are
//! accepted by the same counts predicate, so the graph must be
//! byte-identical — the only thing allowed to change is the wall clock
//! and how few similarity evaluations get there.

use rock_bench::cli::ExpOptions;
use rock_bench::table::{banner, TextTable};
use rock_core::guard::Guard;
use rock_core::neighbors::NeighborGraph;
use rock_core::prelude::*;
use rock_core::telemetry::trace::LatencyHistogram;
use rock_core::telemetry::{format_secs as secs, time_it, Metrics, Observer, RunInfo};

use rock_datasets::synthetic::MushroomModel;

const THETA: f64 = 0.73;
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Worker count of the brute-force reference runs: the strongest
/// baseline the join is compared against, not a handicapped one.
const BRUTE_THREADS: usize = 8;

fn run_info(experiment: String, n: usize, seed: u64) -> RunInfo {
    RunInfo {
        experiment,
        n,
        k: 0,
        theta: THETA,
        seed,
        sample_size: n,
        clusters: 0,
        outliers: 0,
    }
}

fn main() {
    let opts = ExpOptions::from_env();
    banner("E12: neighbor join vs brute force (mushroom-like)");

    let sizes = [
        opts.scaled(1000, 256),
        opts.scaled(5000, 256),
        opts.scaled(20_000, 256),
    ];
    let max_n = sizes.iter().copied().max().unwrap_or(256);
    let (table, _, _) = MushroomModel::scaled(max_n, 21).seed(opts.seed).generate();
    let data = table.to_transactions();

    let mut t = TextTable::new([
        "n",
        "threads",
        "kernel",
        "p50",
        "p99",
        "sim_evals",
        "candidates",
        "edges",
        "vs brute",
    ]);
    for &n in &sizes {
        let n = n.min(data.len());
        let sample = data.subset(&(0..n).collect::<Vec<_>>());

        // Brute-force reference: one run per size (it is the expensive
        // side of the comparison), measured with the same phase span so
        // its metrics line is shaped like every other cell.
        let brute_obs = Observer::new();
        let span = brute_obs.phase(Phase::Neighbors);
        let (oracle, brute_wall) = time_it(|| {
            NeighborGraph::compute_strategy(
                &sample,
                &Jaccard,
                THETA,
                BRUTE_THREADS,
                &brute_obs,
                &Guard::unlimited(),
                JoinStrategy::BruteForce,
            )
            .expect("brute-force reference")
            .0
        });
        span.finish();
        let brute_metrics = Metrics::collect(
            &brute_obs,
            run_info(format!("exp_neighbors[n={n},brute]"), n, opts.seed),
            brute_wall,
        );
        t.row([
            n.to_string(),
            BRUTE_THREADS.to_string(),
            "brute".to_string(),
            secs(brute_wall),
            secs(brute_wall),
            brute_metrics.counters.similarity_comparisons.to_string(),
            "-".to_string(),
            brute_metrics.counters.neighbor_edges.to_string(),
            "1.00x".to_string(),
        ]);
        opts.emit_metrics(&brute_metrics);

        for &threads in &THREADS {
            // Every epoch's wall time goes into a log2-bucketed
            // LatencyHistogram; the reported numbers are its p50/p99, and
            // the median epoch's metrics feed the CI regression gate.
            let mut hist = LatencyHistogram::new();
            let mut epochs: Vec<(std::time::Duration, Metrics)> = Vec::new();
            for _ in 0..opts.epochs {
                let observer = Observer::new();
                let span = observer.phase(Phase::Neighbors);
                let ((graph, trip), wall) = time_it(|| {
                    NeighborGraph::compute_strategy(
                        &sample,
                        &Jaccard,
                        THETA,
                        threads,
                        &observer,
                        &Guard::unlimited(),
                        JoinStrategy::Index,
                    )
                    .expect("indexed join")
                });
                span.finish();
                assert!(trip.is_none(), "unlimited guard must not trip");
                for i in 0..n {
                    assert_eq!(
                        graph.neighbors(i),
                        oracle.neighbors(i),
                        "join diverged from brute force at n={n}, threads={threads}, row {i}"
                    );
                }
                let metrics = Metrics::collect(
                    &observer,
                    run_info(
                        format!("exp_neighbors[n={n},threads={threads}]"),
                        n,
                        opts.seed,
                    ),
                    wall,
                );
                hist.record(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
                epochs.push((wall, metrics));
            }
            epochs.sort_by_key(|(wall, _)| *wall);
            let (wall, metrics) = epochs.swap_remove(epochs.len() / 2);
            let p50 = std::time::Duration::from_nanos(hist.percentile(0.50));
            let p99 = std::time::Duration::from_nanos(hist.percentile(0.99));
            t.row([
                n.to_string(),
                threads.to_string(),
                "index".to_string(),
                secs(p50),
                secs(p99),
                metrics.counters.similarity_comparisons.to_string(),
                metrics.counters.neighbor_candidates.to_string(),
                metrics.counters.neighbor_edges.to_string(),
                format!(
                    "{:.2}x",
                    brute_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9)
                ),
            ]);
            opts.emit_metrics(&metrics);
        }
    }
    t.print();
    println!(
        "\n(Graphs are byte-identical to the brute-force oracle by\n\
         construction — checked row by row every epoch; only the wall\n\
         clock and the similarity-evaluation count may differ.)"
    );
}
