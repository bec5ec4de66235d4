//! Chaos coverage for the labeling server: malformed HTTP, truncated
//! bodies, oversized payloads, poisoned snapshots, load shedding and —
//! for the registry — corrupt uploads mid-swap and concurrent
//! swap/label races. The invariant throughout: clean 4xx/5xx
//! responses, zero panics, the previously serving model untouched by
//! any failed activation, and a metrics document that still renders
//! afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rock_core::labeling::Representatives;
use rock_core::prelude::Transaction;
use rock_core::snapshot::{ModelSnapshot, OutlierPolicy, SimilarityKind};
use rock_core::RockError;
use rock_datasets::fault::FaultInjector;
use rock_serve::server::{ServeConfig, Server, ServerHandle};

/// Two clusters over a 6-item universe: {0,1,2} and {3,4,5}.
fn toy_snapshot() -> ModelSnapshot {
    let reps = Representatives::from_sets(vec![
        vec![Transaction::new([0, 1, 2]), Transaction::new([0, 1, 2])],
        vec![Transaction::new([3, 4, 5])],
    ]);
    ModelSnapshot::new(
        0.5,
        1.0,
        SimilarityKind::Jaccard,
        OutlierPolicy::Mark,
        6,
        None,
        reps,
    )
    .unwrap()
}

fn start_server(config: ServeConfig) -> ServerHandle {
    Server::start(toy_snapshot(), config).unwrap()
}

/// The same universe with the cluster order flipped: the probe
/// `{0,1,2}` labels `0` under [`toy_snapshot`] and `1` under this one,
/// so responses reveal exactly which model answered.
fn flipped_snapshot() -> ModelSnapshot {
    let reps = Representatives::from_sets(vec![
        vec![Transaction::new([3, 4, 5])],
        vec![Transaction::new([0, 1, 2]), Transaction::new([0, 1, 2])],
    ]);
    ModelSnapshot::new(
        0.5,
        1.0,
        SimilarityKind::Jaccard,
        OutlierPolicy::Mark,
        6,
        None,
        reps,
    )
    .unwrap()
}

/// Writes `raw` to the server and returns the full response text.
fn raw_roundtrip(handle: &ServerHandle, raw: &[u8]) -> String {
    raw_roundtrip_addr(handle.addr(), raw)
}

/// [`raw_roundtrip`] against a bare address (usable from spawned
/// threads that must not borrow the handle).
fn raw_roundtrip_addr(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).unwrap();
    // Half-close so a parser waiting for more bytes sees EOF. A shed
    // connection may already be reset by the server (its close carries
    // an RST when our bytes sit unread), so a failed shutdown is fine —
    // the read below still returns whatever arrived first.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap_or(0);
    out
}

fn post_label(handle: &ServerHandle, body: &str) -> String {
    let raw = format!(
        "POST /label HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    raw_roundtrip(handle, raw.as_bytes())
}

#[test]
fn malformed_http_gets_400_not_a_panic() {
    let handle = start_server(ServeConfig::default());
    for raw in [
        &b"\x00\x01\x02\x03 garbage\r\n\r\n"[..],
        b"GET\r\n\r\n",
        b"GET / HTTP/9.9\r\n\r\n",
        b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n",
        b"POST /label HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    ] {
        let resp = raw_roundtrip(&handle, raw);
        assert!(resp.starts_with("HTTP/1.1 400"), "raw {raw:?} -> {resp:?}");
    }
    // The server is still healthy afterwards.
    let resp = raw_roundtrip(&handle, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
    assert!(handle.counters().rejected >= 5);
}

#[test]
fn truncated_body_is_a_clean_400() {
    let handle = start_server(ServeConfig::default());
    let resp = raw_roundtrip(
        &handle,
        b"POST /label HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"items\":[0]}",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");
    assert!(resp.contains("truncated"), "{resp:?}");
}

#[test]
fn oversized_payload_is_413_without_reading_it() {
    let config = ServeConfig {
        max_body: 64,
        ..ServeConfig::default()
    };
    let handle = start_server(config);
    let resp = raw_roundtrip(
        &handle,
        b"POST /label HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp:?}");
}

#[test]
fn chunked_encoding_is_501() {
    let handle = start_server(ServeConfig::default());
    let resp = raw_roundtrip(
        &handle,
        b"POST /label HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 501"), "{resp:?}");
}

#[test]
fn bad_json_and_unknown_routes_are_4xx() {
    let handle = start_server(ServeConfig::default());
    for body in ["not json", "[]", "{\"wrong\":1}", "{\"items\":[9999]}"] {
        let resp = post_label(&handle, body);
        assert!(
            resp.starts_with("HTTP/1.1 400"),
            "body {body:?} -> {resp:?}"
        );
    }
    let resp = raw_roundtrip(&handle, b"GET /nope HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp:?}");
    let resp = raw_roundtrip(&handle, b"GET /label HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp:?}");
    assert!(resp.contains("Allow: POST"), "{resp:?}");
}

#[test]
fn poisoned_snapshot_fails_closed_at_load_time() {
    let snapshot = toy_snapshot();
    let text = snapshot.render();
    let mut injector = FaultInjector::new(0xC0FFEE);
    let mut seen_errors = 0;
    for fraction in [0.05, 0.25, 0.75] {
        let poisoned = injector.poison_rows(&text, fraction);
        if poisoned == text {
            continue;
        }
        match ModelSnapshot::parse(&poisoned) {
            Ok(_) => {}
            Err(
                RockError::SnapshotVersion { .. }
                | RockError::SnapshotChecksum { .. }
                | RockError::SnapshotFormat { .. }
                | RockError::SnapshotInvalid { .. },
            ) => seen_errors += 1,
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    for keep in [0.1, 0.5, 0.9] {
        let truncated = injector.truncate(&text, keep);
        if truncated == text {
            continue;
        }
        match ModelSnapshot::parse(&truncated) {
            Ok(_) => panic!("truncated snapshot must not parse"),
            Err(
                RockError::SnapshotVersion { .. }
                | RockError::SnapshotChecksum { .. }
                | RockError::SnapshotFormat { .. }
                | RockError::SnapshotInvalid { .. },
            ) => seen_errors += 1,
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    assert!(seen_errors >= 3, "expected several typed failures");
}

#[test]
fn queue_overflow_sheds_with_503_retry_after() {
    // One worker, one queue slot: occupy the worker with a half-open
    // request, fill the slot, then every further connection is shed.
    let config = ServeConfig {
        threads: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let handle = start_server(config);

    // Occupy the single worker: connect and send only a partial request
    // line; the worker blocks reading until we finish or time out.
    let mut hog = TcpStream::connect(handle.addr()).unwrap();
    hog.write_all(b"POST /label HT").unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Fill the single queue slot (never picked up while the hog lives).
    let _queued = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Everything beyond the queue is answered 503 inline, and a probe
    // that receives anything receives the whole header block: the
    // server drains the unread request before closing, so no reset cuts
    // the response short.
    let mut shed_seen = 0;
    for _ in 0..6 {
        let resp = raw_roundtrip(&handle, b"GET /healthz HTTP/1.1\r\n\r\n");
        if resp.is_empty() {
            continue;
        }
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp:?}");
        let head = resp.split("\r\n\r\n").next().unwrap_or("");
        assert!(resp.contains("\r\n\r\n"), "header block cut off: {resp:?}");
        assert!(head.contains("\r\nRetry-After: 1"), "{resp:?}");
        shed_seen += 1;
    }
    assert!(shed_seen >= 1, "expected at least one shed connection");
    assert!(handle.counters().shed >= 1);

    // Release the hog; the server drains and still reports metrics.
    hog.write_all(b"TP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    drop(hog);
    let metrics = handle.shutdown();
    assert!(metrics.contains("rock-serve-metrics/v1"));
    assert!(metrics.contains("\"shed\""));
}

#[test]
fn metrics_flush_after_chaos() {
    let handle = start_server(ServeConfig::default());
    // A mix of garbage and good traffic.
    raw_roundtrip(&handle, b"total garbage\r\n\r\n");
    let good = post_label(&handle, "{\"items\":[0,1,2]}\n{\"items\":[3,4,5]}\n");
    assert!(good.starts_with("HTTP/1.1 200"), "{good:?}");
    assert!(good.contains("{\"cluster\":0}"), "{good:?}");
    assert!(good.contains("{\"cluster\":1}"), "{good:?}");

    let resp = raw_roundtrip(&handle, b"GET /metrics HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
    let body = resp.split("\r\n\r\n").nth(1).unwrap();
    let doc = rock_core::telemetry::json::Json::parse(body).unwrap();
    let requests = doc.get("requests").unwrap();
    assert_eq!(
        requests
            .get("labeled")
            .and_then(rock_core::telemetry::json::Json::as_u64),
        Some(2)
    );
    assert!(requests.get("rejected").is_some());

    // Shutdown flushes a parseable final document with the same shape.
    let final_metrics = handle.shutdown();
    let doc = rock_core::telemetry::json::Json::parse(&final_metrics).unwrap();
    assert_eq!(
        doc.get("schema")
            .and_then(rock_core::telemetry::json::Json::as_str),
        Some("rock-serve-metrics/v1")
    );
    assert_eq!(
        doc.get("core")
            .and_then(|c| c.get("schema"))
            .and_then(rock_core::telemetry::json::Json::as_str),
        Some("rock-metrics/v1")
    );
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let handle = start_server(ServeConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for i in 0..50 {
        let body = format!("{{\"items\":[{}]}}", i % 6);
        let raw = format!(
            "POST /label HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(raw.as_bytes()).unwrap();
        let resp = read_one_response(&mut stream);
        assert!(resp.starts_with("HTTP/1.1 200"), "request {i}: {resp:?}");
    }
    drop(stream);
    let counters = handle.counters();
    assert_eq!(counters.labeled + counters.outlier, 50);
    assert_eq!(counters.accepted, 1);
}

/// Reads exactly one HTTP response (headers + Content-Length body).
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    // Headers end at the first CRLFCRLF.
    while !buf.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "eof in headers");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf.clone()).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    buf.extend_from_slice(&body);
    String::from_utf8(buf).unwrap()
}

/// Uploads `body` to `POST /admin/models/{name}` and returns the
/// response text.
fn admin_upload(addr: SocketAddr, name: &str, body: &str) -> String {
    let raw = format!(
        "POST /admin/models/{name} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    raw_roundtrip_addr(addr, raw.as_bytes())
}

/// The value of header `name` in a raw response, if present.
fn header_value(resp: &str, name: &str) -> Option<String> {
    let prefix = format!("{name}: ");
    resp.lines()
        .take_while(|l| !l.trim_end().is_empty())
        .find_map(|l| l.strip_prefix(&prefix).map(|v| v.trim_end().to_owned()))
}

#[test]
fn corrupt_truncated_and_mismatched_uploads_mid_swap_keep_old_model_serving() {
    let handle = start_server(ServeConfig::default());
    let addr = handle.addr();
    let good = flipped_snapshot().render();

    // Three distinct failure classes: checksum corruption, truncation,
    // and a snapshot-format version the parser does not speak.
    let corrupt = good.replace("similarity jaccard", "similarity jaccarD");
    let truncated = good[..good.len() / 2].to_owned();
    let mismatched = good.replacen("rock-model/v1", "rock-model/v9", 1);
    for (what, upload) in [
        ("corrupt", &corrupt),
        ("truncated", &truncated),
        ("version-mismatched", &mismatched),
    ] {
        let resp = admin_upload(addr, "default", upload);
        assert!(
            resp.starts_with("HTTP/1.1 400"),
            "{what} upload -> {resp:?}"
        );
        assert!(resp.contains("snapshot rejected"), "{what}: {resp:?}");
        // The original model keeps serving, byte-for-byte the same
        // labels as before the failed swap.
        let labeled = post_label(&handle, "{\"items\":[0,1,2]}\n");
        assert!(labeled.starts_with("HTTP/1.1 200"), "{what}: {labeled:?}");
        assert!(labeled.contains("{\"cluster\":0}"), "{what}: {labeled:?}");
        assert_eq!(
            header_value(&labeled, "X-Rock-Model").as_deref(),
            Some("default@v1"),
            "{what}: a failed swap must not advance the version"
        );
    }

    // The failures are visible: degraded health, counted rejections.
    let health = raw_roundtrip(&handle, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health:?}");
    assert!(health.contains("\"degraded\""), "{health:?}");
    let listing = raw_roundtrip(&handle, b"GET /admin/models HTTP/1.1\r\n\r\n");
    assert!(listing.contains("\"rejected_swaps\": 3"), "{listing:?}");

    // A good upload then activates atomically and recovers health.
    let resp = admin_upload(addr, "default", &good);
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
    let labeled = post_label(&handle, "{\"items\":[0,1,2]}\n");
    assert!(labeled.contains("{\"cluster\":1}"), "{labeled:?}");
    assert_eq!(
        header_value(&labeled, "X-Rock-Model").as_deref(),
        Some("default@v2")
    );
    let health = raw_roundtrip(&handle, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.contains("\"ready\""), "{health:?}");
}

#[test]
fn deleting_the_default_model_sheds_labels_until_reupload() {
    let handle = start_server(ServeConfig::default());
    let addr = handle.addr();
    let resp = raw_roundtrip(&handle, b"DELETE /admin/models/default HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");

    // No model mounted: labeling sheds softly, health says unavailable.
    let labeled = post_label(&handle, "{\"items\":[0,1,2]}\n");
    assert!(labeled.starts_with("HTTP/1.1 503"), "{labeled:?}");
    assert!(labeled.contains("Retry-After: 1"), "{labeled:?}");
    let health = raw_roundtrip(&handle, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 503"), "{health:?}");
    assert!(health.contains("Retry-After: 1"), "{health:?}");
    assert!(health.contains("\"unavailable\""), "{health:?}");

    // Re-upload restores service; the version sequence restarts with a
    // fresh slot.
    let resp = admin_upload(addr, "default", &toy_snapshot().render());
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
    let labeled = post_label(&handle, "{\"items\":[0,1,2]}\n");
    assert!(labeled.starts_with("HTTP/1.1 200"), "{labeled:?}");
    assert!(handle.counters().shed >= 1);
}

#[test]
fn concurrent_hot_swaps_and_labels_never_mix_models() {
    // 4 labeling clients hammer a probe whose cluster differs between
    // the two models while a fifth thread hot-swaps back and forth.
    // Every response must be 200 and must carry the fingerprint of the
    // model that produced its label — never a torn combination.
    let config = ServeConfig {
        threads: 6,
        queue_capacity: 256,
        ..ServeConfig::default()
    };
    let handle = start_server(config);
    let addr = handle.addr();
    let fp_a = toy_snapshot().fingerprint_hex();
    let fp_b = flipped_snapshot().fingerprint_hex();
    let upload_a = toy_snapshot().render();
    let upload_b = flipped_snapshot().render();
    let stop = AtomicBool::new(false);
    let total: u64 = std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            for i in 0..40 {
                let body = if i % 2 == 0 { &upload_b } else { &upload_a };
                let resp = admin_upload(addr, "default", body);
                assert!(resp.starts_with("HTTP/1.1 200"), "swap {i}: {resp:?}");
            }
            stop.store(true, Ordering::Release);
        });
        let mut checkers = Vec::new();
        for worker in 0..4 {
            let stop = &stop;
            let (fp_a, fp_b) = (&fp_a, &fp_b);
            checkers.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let body = "{\"items\":[0,1,2]}";
                let raw = format!(
                    "POST /label HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                );
                let mut answered = 0u64;
                while !stop.load(Ordering::Acquire) {
                    stream.write_all(raw.as_bytes()).unwrap();
                    let resp = read_one_response(&mut stream);
                    assert!(
                        resp.starts_with("HTTP/1.1 200"),
                        "worker {worker}: {resp:?}"
                    );
                    let fp = header_value(&resp, "X-Rock-Model-Fingerprint").unwrap();
                    let expected = if fp == *fp_a {
                        "{\"cluster\":0}"
                    } else {
                        assert_eq!(fp, *fp_b, "worker {worker}: unknown model");
                        "{\"cluster\":1}"
                    };
                    assert!(
                        resp.contains(expected),
                        "worker {worker}: label from a different model than \
                         the fingerprint header claims: {resp:?}"
                    );
                    answered += 1;
                }
                answered
            }));
        }
        swapper.join().unwrap();
        checkers.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert!(total > 0, "checkers never got a response in");
    // Zero dropped: every labeled point is accounted for.
    let counters = handle.counters();
    assert_eq!(counters.labeled, total);
    assert_eq!(counters.shed, 0, "no request may be shed mid-swap");
    let metrics = handle.shutdown();
    assert!(metrics.contains("\"swaps\": 41"), "{metrics}");
}
