//! E-serve — online labeling latency, throughput and hot-reload safety
//! over loopback HTTP.
//!
//! Fits ROCK on a mushroom-like table, captures the model as a
//! `rock-model/v1` snapshot, serves it with an in-process `rock-serve`
//! registry, then replays the training points as labeling queries in
//! four phases:
//!
//! * a **sequential** phase over one keep-alive connection measures
//!   per-request latency — recorded into the log2-bucketed
//!   `LatencyHistogram` of `rock-trace/v1`, reported as its p50 / p99,
//! * a **concurrent** phase (4 connections, one point per request)
//!   measures aggregate request throughput,
//! * a **batched** phase (4 connections, 64-line NDJSON bodies)
//!   measures point throughput when one request carries 64 points, so
//!   its HTTP round trip, parse and write are spread over the whole
//!   body and its points are labeled by one kernel call — the headline
//!   serving-throughput number,
//! * a **reload soak**: the same sustained labeling load while an admin
//!   thread hot-swaps the default model back and forth between two
//!   *different* fits. Every response is checked against the
//!   `X-Rock-Model-Fingerprint` header it carries: the label must be
//!   exactly what the claimed model produces for that probe, so a
//!   response served by a half-swapped or mixed model is detected, not
//!   averaged away. The soak reports `soak_wrong_model` and
//!   `soak_dropped`, both locked to **0** in the committed baseline.
//!
//! `--metrics <FILE>` appends one `rock-serve-bench/v2` NDJSON line
//! (this is the line committed as `results/BENCH_serve.json`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rock_bench::cli::ExpOptions;
use rock_bench::table::{banner, f4, TextTable};
use rock_core::cast::u64_to_f64;
use rock_core::prelude::*;
use rock_core::snapshot::{ModelSnapshot, OutlierPolicy, SimilarityKind};
use rock_core::telemetry::json::JsonObj;
use rock_core::telemetry::trace::LatencyHistogram;
use rock_datasets::synthetic::MushroomModel;
use rock_serve::server::{ServeConfig, Server, ServerHandle};

const THETA: f64 = 0.8;
/// The alternate fit the soak swaps in: a looser threshold draws a
/// different representative set, so the two models label differently.
const THETA_ALT: f64 = 0.6;
const K: usize = 6;
const CONCURRENT_CONNS: usize = 4;
const BATCH_LINES: usize = 64;
const SOAK_CONNS: usize = 4;

/// Fits ROCK at `theta` and captures the labeling model.
fn fit_snapshot(data: &TransactionSet, theta: f64, seed: u64) -> ModelSnapshot {
    let model = RockBuilder::new(K, theta)
        .seed(seed)
        .build()
        .fit(data)
        .expect("fit");
    ModelSnapshot::from_model(
        data,
        &model,
        theta,
        MarketBasket.f(theta),
        SimilarityKind::Jaccard,
        OutlierPolicy::Mark,
        &LabelingConfig::default(),
        seed,
    )
    .expect("snapshot")
}

fn main() {
    let opts = ExpOptions::from_env();
    banner("E-serve: rock-serve loopback labeling latency, throughput, hot-reload soak");

    let n = opts.scaled(2000, 300);
    let (table, _, _) = MushroomModel::scaled(n, K).seed(opts.seed).generate();
    let data = table.to_transactions();
    println!("fit: mushroom-like n = {n}, k = {K}, theta = {THETA} (+ alternate {THETA_ALT})");
    let snapshot = fit_snapshot(&data, THETA, opts.seed);
    let alt = fit_snapshot(&data, THETA_ALT, opts.seed);
    println!(
        "snapshot: {} clusters, {} representatives; alternate: {} clusters, {} representatives",
        snapshot.num_clusters(),
        snapshot.representatives().total(),
        alt.num_clusters(),
        alt.representatives().total(),
    );
    assert_ne!(
        snapshot.fingerprint(),
        alt.fingerprint(),
        "the soak needs two distinguishable models"
    );

    let bodies: Vec<String> = data
        .transactions()
        .iter()
        .map(|t| {
            let items: Vec<String> = t.items().iter().map(u32::to_string).collect();
            format!("{{\"items\":[{}]}}", items.join(","))
        })
        .collect();

    // A probe whose label differs between the two fits: the witness
    // that tells us which model actually answered a soak request.
    let probe_idx = data
        .transactions()
        .iter()
        .position(|t| snapshot.label(t) != alt.label(t))
        .expect("theta 0.8 and 0.6 fits must label some point differently");
    let probe_body = bodies[probe_idx].clone();
    let probe_main = snapshot.label(&data.transactions()[probe_idx]);
    let probe_alt = alt.label(&data.transactions()[probe_idx]);
    let fp_main = snapshot.fingerprint_hex();
    let fp_alt = alt.fingerprint_hex();
    let upload_main = snapshot.render();
    let upload_alt = alt.render();

    let config = ServeConfig {
        threads: SOAK_CONNS + 2,
        trace: opts.trace.clone(),
        ..ServeConfig::default()
    };
    let handle = Server::start(snapshot, config).expect("server start");

    // ── Sequential phase: latency percentiles ──────────────────────────
    // Latencies go into the same log2-bucketed histogram the tracer
    // flushes (`serve.request_ns`): mergeable, O(1) per record, and the
    // reported p50/p99 are the bucket-bound estimates of rock-trace/v1.
    let sequential = opts.scaled(4000, 400);
    let mut hist = LatencyHistogram::new();
    let mut client = Client::connect(&handle);
    let seq_start = Instant::now();
    for i in 0..sequential {
        let body = &bodies[i % bodies.len()];
        let t0 = Instant::now();
        client.label(body);
        hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let seq_wall = seq_start.elapsed();
    drop(client);
    let ns_to_ms = |ns: u64| u64_to_f64(ns) / 1.0e6;
    let p50 = ns_to_ms(hist.percentile(0.50));
    let p99 = ns_to_ms(hist.percentile(0.99));
    let seq_rps = u64_to_f64(hist.count()) / seq_wall.as_secs_f64();

    // ── Concurrent phase: aggregate request throughput ─────────────────
    let per_conn = opts.scaled(2000, 200);
    let conc_start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CONCURRENT_CONNS {
            let bodies = &bodies;
            let handle = &handle;
            scope.spawn(move || {
                let mut client = Client::connect(handle);
                for i in 0..per_conn {
                    client.label(&bodies[(c + i * CONCURRENT_CONNS) % bodies.len()]);
                }
            });
        }
    });
    let conc_wall = conc_start.elapsed();
    let conc_total = CONCURRENT_CONNS * per_conn;
    let conc_rps = conc_total as f64 / conc_wall.as_secs_f64();

    // ── Batched phase: 64-line NDJSON bodies, one kernel call each ─────
    let batches_per_conn = opts.scaled(32, 4);
    let batch_start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CONCURRENT_CONNS {
            let bodies = &bodies;
            let handle = &handle;
            scope.spawn(move || {
                let mut client = Client::connect(handle);
                for b in 0..batches_per_conn {
                    let mut body = String::new();
                    for i in 0..BATCH_LINES {
                        let idx = (c + (b * BATCH_LINES + i) * CONCURRENT_CONNS) % bodies.len();
                        body.push_str(&bodies[idx]);
                        body.push('\n');
                    }
                    let resp = client.post("/label", &body);
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
                }
            });
        }
    });
    let batch_wall = batch_start.elapsed();
    let batched_requests = CONCURRENT_CONNS * batches_per_conn;
    let batched_points = batched_requests * BATCH_LINES;
    let batched_pps = batched_points as f64 / batch_wall.as_secs_f64();

    // ── Reload soak: sustained labels under periodic hot swaps ─────────
    let soak_per_conn = opts.scaled(500, 50);
    let soak_swaps = opts.scaled(40, 8);
    let mut soak_wrong_model = 0u64;
    let mut soak_dropped = 0u64;
    let swapping = AtomicBool::new(true);
    let soak_start = Instant::now();
    std::thread::scope(|scope| {
        let swapper = {
            let handle = &handle;
            let swapping = &swapping;
            let (upload_main, upload_alt) = (&upload_main, &upload_alt);
            scope.spawn(move || {
                let mut client = Client::connect(handle);
                for s in 0..soak_swaps {
                    let body = if s % 2 == 0 { upload_alt } else { upload_main };
                    let resp = client.post("/admin/models/default", body);
                    assert!(resp.starts_with("HTTP/1.1 200"), "swap {s}: {resp:?}");
                    std::thread::sleep(Duration::from_millis(2));
                }
                swapping.store(false, Ordering::Release);
            })
        };
        let mut checkers = Vec::new();
        for _ in 0..SOAK_CONNS {
            let handle = &handle;
            let probe_body = &probe_body;
            let (fp_main, fp_alt) = (&fp_main, &fp_alt);
            checkers.push(scope.spawn(move || {
                let mut client = Client::connect(handle);
                let mut wrong = 0u64;
                let mut dropped = 0u64;
                for _ in 0..soak_per_conn {
                    let resp = client.post("/label", probe_body);
                    if !resp.starts_with("HTTP/1.1 200") {
                        dropped += 1;
                        continue;
                    }
                    let fp = resp
                        .lines()
                        .take_while(|l| !l.trim_end().is_empty())
                        .find_map(|l| l.strip_prefix("X-Rock-Model-Fingerprint: "))
                        .map(str::trim_end);
                    let cluster = resp
                        .split("\r\n\r\n")
                        .nth(1)
                        .map(str::trim)
                        .unwrap_or_default();
                    let expected = match fp {
                        Some(f) if f == fp_main => render_label(probe_main),
                        Some(f) if f == fp_alt => render_label(probe_alt),
                        _ => {
                            wrong += 1;
                            continue;
                        }
                    };
                    if cluster != expected {
                        wrong += 1;
                    }
                }
                (wrong, dropped)
            }));
        }
        swapper.join().expect("swapper");
        for checker in checkers {
            let (wrong, dropped) = checker.join().expect("checker");
            soak_wrong_model += wrong;
            soak_dropped += dropped;
        }
    });
    let soak_wall = soak_start.elapsed();
    let soak_requests = SOAK_CONNS * soak_per_conn;
    let soak_rps = soak_requests as f64 / soak_wall.as_secs_f64();

    let counters = handle.counters();
    let _final_metrics = handle.shutdown();

    let mut t = TextTable::new(["phase", "requests", "points", "wall s", "pts/s"]);
    t.row([
        "sequential".to_string(),
        sequential.to_string(),
        sequential.to_string(),
        f4(seq_wall.as_secs_f64()),
        f4(seq_rps),
    ]);
    t.row([
        format!("concurrent x{CONCURRENT_CONNS}"),
        conc_total.to_string(),
        conc_total.to_string(),
        f4(conc_wall.as_secs_f64()),
        f4(conc_rps),
    ]);
    t.row([
        format!("batched x{CONCURRENT_CONNS} ({BATCH_LINES}/req)"),
        batched_requests.to_string(),
        batched_points.to_string(),
        f4(batch_wall.as_secs_f64()),
        f4(batched_pps),
    ]);
    t.row([
        format!("reload soak ({soak_swaps} swaps)"),
        soak_requests.to_string(),
        soak_requests.to_string(),
        f4(soak_wall.as_secs_f64()),
        f4(soak_rps),
    ]);
    t.print();
    println!("sequential latency: p50 {} ms, p99 {} ms", f4(p50), f4(p99));
    println!(
        "batched vs concurrent speedup: {:.2}x",
        batched_pps / conc_rps
    );
    println!(
        "soak: wrong-model {} / dropped {} (both must be 0)",
        soak_wrong_model, soak_dropped
    );
    println!(
        "labeled {} / outlier {} / rejected {} / shed {}",
        counters.labeled, counters.outlier, counters.rejected, counters.shed
    );
    assert_eq!(
        soak_wrong_model, 0,
        "a response was labeled by a model other than its header claims"
    );
    assert_eq!(soak_dropped, 0, "a soak response was dropped");

    if let Some(path) = &opts.metrics {
        let wall = seq_wall + conc_wall + batch_wall + soak_wall;
        let mut obj = JsonObj::new(false, 0);
        obj.str("schema", "rock-serve-bench/v2")
            .str("experiment", "exp_serve")
            .num_u64("seed", opts.seed)
            .num_u64("n", n as u64)
            .num_u64("sequential_requests", sequential as u64)
            .num_u64("concurrent_requests", conc_total as u64)
            .num_u64("batched_requests", batched_requests as u64)
            .num_u64("batched_points", batched_points as u64)
            .num_u64("soak_requests", soak_requests as u64)
            .num_u64("soak_swaps", soak_swaps as u64)
            .num_u64("soak_wrong_model", soak_wrong_model)
            .num_u64("soak_dropped", soak_dropped)
            .num_f64("wall_secs", wall.as_secs_f64())
            .num_f64("latency_p50_ms", p50)
            .num_f64("latency_p99_ms", p99)
            .num_f64("sequential_rps", seq_rps)
            .num_f64("concurrent_rps", conc_rps)
            .num_f64("batched_pps", batched_pps)
            .num_u64("labeled", counters.labeled)
            .num_u64("outlier", counters.outlier);
        let line = obj.end();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open metrics file");
        writeln!(file, "{line}").expect("write metrics line");
        println!("bench line appended to {}", path.display());
    }
}

/// The exact response body `/label` renders for one labeled point.
fn render_label(label: Option<usize>) -> String {
    match label {
        Some(c) => format!("{{\"cluster\":{c}}}"),
        None => "{\"cluster\":null}".to_string(),
    }
}

/// One keep-alive loopback client.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        Client { stream }
    }

    fn label(&mut self, body: &str) {
        let response = self.post("/label", body);
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "expected 200, got {response:?}"
        );
    }

    /// Sends `body` to `path`, returns the full response text.
    fn post(&mut self, path: &str, body: &str) -> String {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        self.stream.write_all(raw.as_bytes()).expect("send");
        self.read_response()
    }

    /// Reads one HTTP response using its `Content-Length` framing.
    fn read_response(&mut self) -> String {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            let got = self.stream.read(&mut byte).expect("read");
            assert_eq!(got, 1, "connection closed mid-response");
            head.push(byte[0]);
        }
        let text = String::from_utf8(head.clone()).expect("utf8 head");
        let len: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length")
            .trim()
            .parse()
            .expect("length");
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body).expect("body");
        head.extend_from_slice(&body);
        String::from_utf8(head).expect("utf8 body")
    }
}
