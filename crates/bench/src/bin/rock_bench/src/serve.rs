//! `serve-online`: rock-serve in-process, serving a snapshot fitted on
//! a mushroom-like table, driven over loopback HTTP.

use rock_core::prelude::*;
use rock_serve::server::{ServeConfig, Server};

use crate::fit::{mushroom, trace_fit, FitSpec};
use crate::harness::{layer, repeat_setup, samples, timed, Ctx, Run, THREADS};
use crate::loadgen::{closed_loop, open_loop, OpenLoop, Queries, Schedule};
use crate::stats::Samples;

const THETA: f64 = 0.8;
const K: usize = 21;
/// Rows of the served table. The snapshot clusters every row: a sample
/// would make the snapshot's size, and with it set-up time and peak
/// memory, depend on which rows the seed draws.
const ROWS: usize = 2_000;
/// Points per batched request.
const BATCH: usize = 64;
/// The measured phase alternates this many rounds of the open loop and
/// the batched closed loop, so a stall of the machine lands in one round
/// and the throughput median over rounds does not see it.
const ROUNDS: usize = 5;
/// The knee search: start rate, step factor, and what a step must meet.
const LADDER_START: f64 = 2_000.0;
const LADDER_STEP: f64 = 1.25;
const LADDER_P99_MS: f64 = 1.0;
const LADDER_GROWTH_MS: f64 = 0.25;

/// The rendered `/label` answer for one point.
fn answer(label: Option<usize>) -> String {
    match label {
        Some(c) => format!("{{\"cluster\":{c}}}\n"),
        None => "{\"cluster\":null}\n".to_owned(),
    }
}

/// Runs the workload.
pub(crate) fn run(ctx: &Ctx) -> Result<Run, String> {
    let rows = ctx.scale(ROWS, 400);
    let spec = FitSpec {
        k: K,
        theta: THETA,
        sample: SampleStrategy::All,
        labeling: LabelingConfig::default(),
        seed: ctx.seed,
    };
    let mut run = Run::default();
    let ((data, snapshot, server), setup_s) = repeat_setup(ctx, || {
        let data = mushroom(rows, ctx.seed);
        let model = spec.fit(&data)?;
        let snapshot = spec.snapshot(&data, &model)?;
        let config = ServeConfig {
            threads: THREADS,
            ..ServeConfig::default()
        };
        let server =
            Server::start(snapshot.clone(), config).map_err(|e| format!("server start: {e}"))?;
        Ok((data, snapshot, server))
    })?;
    let addr = server.addr();
    let queries = Queries {
        bodies: data
            .iter()
            .map(|t| {
                let items: Vec<String> = t.items().iter().map(u32::to_string).collect();
                format!("{{\"items\":[{}]}}", items.join(","))
            })
            .collect(),
        expected: data.iter().map(|t| answer(snapshot.label(t))).collect(),
    };
    let digest = fnv1a64(queries.expected.concat().as_bytes());
    run.report.note(format!(
        "snapshot of {} rows: {} clusters, {} representatives; digest answers {digest:016x}",
        data.len(),
        snapshot.num_clusters(),
        snapshot.representatives().total()
    ));
    let phase = |run: &mut Run, name: &str, rate: f64, seconds: f64| -> Result<OpenLoop, String> {
        let schedule = Schedule {
            rate,
            conns: THREADS,
        };
        let (result, _) = layer(&ctx.tracer, name, None, || {
            open_loop(addr, &queries, schedule, seconds)
        });
        let result = result?;
        run.tally(result.requests, result.failed);
        note_open_loop(run, name, &result);
        Ok(result)
    };

    // Untimed warm-up of both paths.
    phase(&mut run, "serve.warmup", 1_000.0, ctx.scale(0.5, 0.1))?;
    let warm = closed_loop(addr, &queries, BATCH, THREADS, ctx.scale(0.5, 0.1))?;
    run.tally(warm.requests, warm.failed);

    if ctx.traced() {
        trace_fit(ctx, &mut run, &data, &spec)?;
        let step = ctx.seconds * 0.15;
        let r1000 = phase(&mut run, "serve.r1000", 1_000.0, step)?;
        let r3000 = phase(&mut run, "serve.r3000", 3_000.0, step)?;
        let (batched, _) = layer(&ctx.tracer, "serve.batched", None, || {
            closed_loop(addr, &queries, BATCH, THREADS, step)
        });
        let batched = batched?;
        run.tally(batched.requests, batched.failed);

        // The labeling kernel alone, in-process: one point at a time as
        // `/label` answers a single query, and 64-point chunks on one
        // worker as the batcher runs them.
        let points: Vec<&Transaction> = data.iter().collect();
        let (_, single_s) = layer(&ctx.tracer, "snapshot.label", None, || {
            points
                .iter()
                .map(|p| snapshot.label(p))
                .filter(Option::is_some)
                .count()
        });
        let (_, chunk_s) = layer(&ctx.tracer, "snapshot.label_chunk", None, || {
            points
                .chunks(BATCH)
                .map(|c| snapshot.label_chunk(c, 1).len())
                .sum::<usize>()
        });
        let kernel_ms = single_s * 1e3 / points.len() as f64;
        let batch_kernel_ms = chunk_s * 1e3 / points.len().div_ceil(BATCH) as f64;

        // The knee: the highest rate on the ladder whose p99 stays under
        // the limit without a growing backlog. A rate must fail twice in
        // a row to end the ladder, so one stall of the machine does not.
        let (mut rate, mut knee, mut spent, mut misses) = (LADDER_START, 0.0, 0.0, 0);
        while spent < ctx.seconds * 0.4 && misses < 2 {
            let (step, secs) =
                timed(|| phase(&mut run, "serve.ladder_step", rate, ctx.scale(1.0, 0.2)));
            let step = step?;
            spent += secs;
            if step.failed == 0
                && step.latency_ms.percentile(0.99) <= LADDER_P99_MS
                && step.backlog_growth_ms <= LADDER_GROWTH_MS
            {
                knee = rate;
                rate *= LADDER_STEP;
                misses = 0;
            } else {
                misses += 1;
            }
        }

        let counters = server.counters();
        let r = &mut run.report;
        let p50 = r1000.latency_ms.median();
        r.set("serve.kernel_share", kernel_ms / p50);
        if r1000.latency_ms.has_tail(0.99) {
            r.set(
                "serve.r1000.tail_ratio",
                r1000.latency_ms.percentile(0.99) / p50,
            );
            r.set(
                "serve.r1000.lateness_share",
                r1000.lateness_ms.percentile(0.99) / r1000.latency_ms.percentile(0.99),
            );
        }
        r.set("serve.r3000.p50_ratio", r3000.latency_ms.median() / p50);
        if r3000.latency_ms.has_tail(0.99) {
            r.set(
                "serve.r3000.tail_ratio",
                r3000.latency_ms.percentile(0.99) / r3000.latency_ms.median(),
            );
            r.set(
                "serve.r3000.lateness_share",
                r3000.lateness_ms.percentile(0.99) / r3000.latency_ms.percentile(0.99),
            );
        }
        r.set("serve.knee_rps", knee);
        r.set(
            "serve.batch_kernel_share",
            batch_kernel_ms / batched.request_ms.median(),
        );
        r.set("serve.accepted", counters.accepted as f64);
        r.set("serve.shed", counters.shed as f64);
        r.set("serve.rejected", counters.rejected as f64);
        r.note(format!(
            "kernel {:.2}us/point single, {:.2}us per {BATCH}-point chunk; batched {:.0} points/s; knee {knee} req/s",
            kernel_ms * 1e3,
            batch_kernel_ms * 1e3,
            batched.points_per_s
        ));
        server.shutdown();
        return Ok(run);
    }

    let round = ctx.seconds / (2 * ROUNDS) as f64;
    let (mut latency_ms, mut points_per_s) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        latency_ms.push(phase(&mut run, "serve.r1000", 1_000.0, round)?.latency_ms);
        let batched = closed_loop(addr, &queries, BATCH, THREADS, round)?;
        run.tally(batched.requests, batched.failed);
        run.report.note(format!(
            "serve.batched: {} requests of {BATCH} points, {} failed; {:.0} points/s",
            batched.requests, batched.failed, batched.points_per_s
        ));
        points_per_s.push(batched.points_per_s);
    }
    let counters = server.counters();
    server.shutdown();
    run.report.note(format!(
        "server accepted {} shed {} rejected {}",
        counters.accepted, counters.shed, counters.rejected
    ));
    run.report
        .set_median("setup_s", samples(setup_s, "set-up time")?);
    run.report.set_median(
        "latency_p50_ms",
        Samples::pooled(latency_ms).ok_or("no open-loop round ran")?,
    );
    run.report
        .set_median("throughput", samples(points_per_s, "batched throughput")?);
    Ok(run)
}

/// Reports an open-loop phase: p50, p99 when at least ten samples lie
/// beyond it, and how late the generator sent.
fn note_open_loop(run: &mut Run, name: &str, r: &OpenLoop) {
    let l = &r.latency_ms;
    let (q1, q3) = l.quartiles();
    let mut line = format!(
        "{name}: {} requests, {} failed; latency ms p50 {:.4} (q1 {q1:.4}, q3 {q3:.4})",
        r.requests,
        r.failed,
        l.median()
    );
    if l.has_tail(0.99) {
        line.push_str(&format!(
            " p99 {:.4}; lateness ms p99 {:.4}",
            l.percentile(0.99),
            r.lateness_ms.percentile(0.99)
        ));
    }
    line.push_str(&format!("; backlog growth {:.4} ms", r.backlog_growth_ms));
    run.report.note(line);
}
