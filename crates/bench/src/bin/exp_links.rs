//! E10 — link-kernel scaling (DESIGN.md §13).
//!
//! Benchmarks `LinkTable::compute_guarded` alone — the paper's
//! `Σ deg²` hot spot — on the mushroom-like generator for 1, 2, 4 and
//! 8 workers. The neighbor graph is built once per size and reused, so
//! the measured wall time is the link phase only. Every parallel run is
//! checked against the sequential table: the sharded kernel must be
//! byte-identical for any thread count, so the only thing allowed to
//! change with `threads` is the wall clock.

use rock_bench::cli::ExpOptions;
use rock_bench::table::{banner, TextTable};
use rock_core::links::LinkTable;
use rock_core::neighbors::NeighborGraph;
use rock_core::prelude::*;
use rock_core::telemetry::trace::LatencyHistogram;
use rock_core::telemetry::{format_secs as secs, time_it};
use rock_datasets::synthetic::MushroomModel;

const THETA: f64 = 0.73;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let opts = ExpOptions::from_env();
    banner("E10: link kernel wall time vs worker count (mushroom-like)");

    let sizes = [opts.scaled(2000, 256), opts.scaled(6000, 256)];

    let full = MushroomModel::default().seed(opts.seed);
    let (table, _, _) = full.generate();
    let data = table.to_transactions();

    let mut t = TextTable::new([
        "n",
        "threads",
        "links_p50",
        "links_p99",
        "kernel_steps",
        "entries",
        "speedup",
    ]);
    for &n in &sizes {
        let n = n.min(data.len());
        let sample = data.subset(&(0..n).collect::<Vec<_>>());
        // The graph is shared input for every thread count; its cost is
        // deliberately outside the measured window.
        let graph = NeighborGraph::compute(&sample, &Jaccard, THETA, 0).expect("neighbor graph");

        let mut sequential: Option<(LinkTable, std::time::Duration)> = None;
        for &threads in &THREADS {
            // Every epoch's wall time goes into a log2-bucketed
            // LatencyHistogram (rock-trace/v1's bucket scheme); the
            // reported numbers are its p50/p99 rather than the mean, so
            // one descheduled epoch cannot drag the estimate. The median
            // epoch's metrics feed the CI regression gate (bench_check).
            let mut hist = LatencyHistogram::new();
            let mut epochs: Vec<(std::time::Duration, Metrics)> = Vec::new();
            let mut links_out: Option<LinkTable> = None;
            for _ in 0..opts.epochs {
                let observer = Observer::new();
                let span = observer.phase(Phase::Links);
                let (links, wall) = time_it(|| {
                    LinkTable::compute_guarded(&graph, threads, &observer, &Guard::unlimited()).0
                });
                span.finish();
                let metrics = Metrics::collect(
                    &observer,
                    RunInfo {
                        experiment: format!("exp_links[n={n},threads={threads}]"),
                        n,
                        k: 0,
                        theta: THETA,
                        seed: opts.seed,
                        sample_size: n,
                        clusters: 0,
                        outliers: 0,
                    },
                    wall,
                );
                hist.record(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
                epochs.push((wall, metrics));
                // The table is identical across epochs; keep only one.
                links_out.get_or_insert(links);
            }
            epochs.sort_by_key(|(wall, _)| *wall);
            let (wall, metrics) = epochs.swap_remove(epochs.len() / 2);
            let links = links_out.expect("at least one epoch");
            let p50 = std::time::Duration::from_nanos(hist.percentile(0.50));
            let p99 = std::time::Duration::from_nanos(hist.percentile(0.99));

            match &sequential {
                None => sequential = Some((links, wall)),
                Some((base, base_wall)) => {
                    assert_eq!(
                        links, *base,
                        "parallel link table diverged from sequential at threads={threads}"
                    );
                    t.row([
                        n.to_string(),
                        threads.to_string(),
                        secs(p50),
                        secs(p99),
                        metrics.counters.link_kernel_steps.to_string(),
                        metrics.counters.link_entries.to_string(),
                        format!(
                            "{:.2}x",
                            base_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9)
                        ),
                    ]);
                    opts.emit_metrics(&metrics);
                    continue;
                }
            }
            t.row([
                n.to_string(),
                threads.to_string(),
                secs(p50),
                secs(p99),
                metrics.counters.link_kernel_steps.to_string(),
                metrics.counters.link_entries.to_string(),
                "1.00x".to_string(),
            ]);
            opts.emit_metrics(&metrics);
        }
    }
    t.print();
    println!(
        "\n(Tables are byte-identical across thread counts by construction;\n\
         counters must match exactly, only the wall clock may move.)"
    );
}
