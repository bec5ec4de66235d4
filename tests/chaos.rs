//! Chaos suite: deterministic fault injection against the full pipeline.
//!
//! The contract under test: **no input corruption, budget exhaustion, or
//! cancellation may panic, and every degraded outcome is a valid
//! partition** — assignments, clusters and outliers mutually consistent
//! and covering every point. Faults are injected three ways, all seeded:
//!
//! * `Guard::inject_trip_at` forces a budget trip at a chosen phase;
//! * real budgets (steps / deadline / memory / cancellation) trip on
//!   their own;
//! * `FaultInjector` poisons or truncates CSV text and injects I/O
//!   failures ahead of the pipeline.
//!
//! The final test drives the shipped `rock-cluster` binary end to end on
//! a mushroom-like dataset with an exhausted step budget and
//! `--on-error recover`, pinning the CLI acceptance criterion: exit 0, a
//! printed degraded outcome, and a `degradation` block in the metrics
//! JSON.

use std::time::Duration;

use rock::core::data::AttrId;
use rock::core::telemetry::Phase;
use rock::datasets::fault::FaultInjector;
use rock::datasets::loader::{parse_labeled, IngestMode, LabelPosition, LoadConfig};
use rock::datasets::synthetic::MushroomModel;
use rock::prelude::*;

/// Asserts the partition invariants that must hold on *every* outcome,
/// complete or degraded: clusters and outliers tile the point set, and
/// assignments agree with cluster membership.
fn assert_valid_partition(model: &RockModel, n: usize) {
    assert_eq!(model.assignments().len(), n);
    let clustered: usize = model.clusters().iter().map(Vec::len).sum();
    assert_eq!(
        clustered + model.outliers().len(),
        n,
        "clusters + outliers must cover all {n} points exactly once"
    );
    for &o in model.outliers() {
        assert!(
            model.assignments()[o as usize].is_none(),
            "outlier {o} must be unassigned"
        );
    }
    let mut seen = vec![false; n];
    for (c, members) in model.clusters().iter().enumerate() {
        for &p in members {
            assert!(!seen[p as usize], "point {p} appears in two clusters");
            seen[p as usize] = true;
            assert_eq!(
                model.assignments()[p as usize].map(|id| id.0 as usize),
                Some(c)
            );
        }
    }
}

fn mushroom_like(n: usize, groups: usize, seed: u64) -> (TransactionSet, usize) {
    let (table, _, _) = MushroomModel::scaled(n, groups).seed(seed).generate();
    let data = table.to_transactions();
    let len = data.len();
    (data, len)
}

#[test]
fn injected_trips_at_every_phase_degrade_cleanly() {
    let (data, n) = mushroom_like(240, 4, 5);
    for phase in Phase::ALL {
        let guard = Guard::unlimited().inject_trip_at(phase);
        let outcome = RockBuilder::new(4, 0.8)
            .sample(SampleStrategy::Fixed(120))
            .seed(5)
            .build()
            .fit_guarded(&data, &Observer::new(), &guard)
            .unwrap_or_else(|e| panic!("injection at {phase:?} errored: {e}"));
        assert!(outcome.is_degraded(), "injection at {phase:?} must degrade");
        let d = outcome.degradation().unwrap();
        assert_eq!(d.phase, phase);
        assert_eq!(d.reason, TripReason::Injected);
        assert_valid_partition(outcome.model(), n);
    }
}

#[test]
fn tripped_runs_still_flush_a_parseable_trace() {
    // `fit_guarded` flushes the rock-trace/v1 stream on every exit path,
    // so a budget trip at *any* phase must leave a truncated but
    // canonical (validate-clean) trace behind — the mid-flight spans of
    // the tripped phase are simply absent, never half-written.
    use rock::core::telemetry::trace::validate;
    let dir = std::env::temp_dir().join("rock-chaos-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, n) = mushroom_like(240, 4, 5);
    for phase in Phase::ALL {
        let path = dir.join(format!("trip-{phase:?}.trace"));
        std::fs::remove_file(&path).ok();
        let guard = Guard::unlimited().inject_trip_at(phase);
        let outcome = RockBuilder::new(4, 0.8)
            .sample(SampleStrategy::Fixed(120))
            .seed(5)
            .trace(&path)
            .build()
            .fit_guarded(&data, &Observer::new(), &guard)
            .unwrap_or_else(|e| panic!("injection at {phase:?} errored: {e}"));
        assert!(outcome.is_degraded(), "injection at {phase:?} must degrade");
        assert_valid_partition(outcome.model(), n);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("trip at {phase:?} left no trace: {e}"));
        let summary = validate(&text)
            .unwrap_or_else(|e| panic!("trip at {phase:?} left a non-canonical trace: {e}"));
        assert!(
            summary.spans >= 1,
            "trip at {phase:?}: at least the completed phases must have spans"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn real_budgets_trip_and_degrade() {
    let (data, n) = mushroom_like(200, 4, 9);
    let rock = RockBuilder::new(4, 0.8).seed(9).build();

    // Step budget.
    let guard = Guard::new(RunBudget::unlimited().steps(10));
    let outcome = rock.fit_guarded(&data, &Observer::new(), &guard).unwrap();
    assert!(outcome.is_degraded());
    assert_eq!(outcome.model().stats().merges, 10);
    assert_valid_partition(outcome.model(), n);

    // Zero deadline trips at the first checkpoint.
    let guard = Guard::new(RunBudget::unlimited().wall(Duration::ZERO));
    let outcome = rock.fit_guarded(&data, &Observer::new(), &guard).unwrap();
    assert!(matches!(
        outcome.degradation().unwrap().reason,
        TripReason::Deadline { .. }
    ));
    assert_valid_partition(outcome.model(), n);

    // A one-byte memory ceiling trips once any gauge reports.
    let guard = Guard::new(RunBudget::unlimited().memory(1));
    let outcome = rock.fit_guarded(&data, &Observer::new(), &guard).unwrap();
    assert!(matches!(
        outcome.degradation().unwrap().reason,
        TripReason::MemoryBudget { .. }
    ));
    assert_valid_partition(outcome.model(), n);

    // Cancellation before the run starts.
    let guard = Guard::unlimited();
    guard.cancel_token().cancel();
    let outcome = rock.fit_guarded(&data, &Observer::new(), &guard).unwrap();
    assert_eq!(outcome.degradation().unwrap().reason, TripReason::Cancelled);
    assert_valid_partition(outcome.model(), n);
}

#[test]
fn memory_budget_trips_mid_link_phase_under_parallel_workers() {
    // The sharded link kernel streams its stored-entry bytes into the
    // memory gauge and polls the guard from every worker, so a ceiling
    // crossed *while* the table grows must stop the run inside the
    // Links phase — not at the next boundary — and still yield a valid
    // degraded partition.
    let (data, n) = mushroom_like(600, 4, 11);
    let build = || {
        RockBuilder::new(4, 0.8)
            .sample(SampleStrategy::All)
            .threads(4)
            .seed(11)
            .build()
    };
    // Measure the neighbor graph's footprint on an identical run, then
    // allow only a sliver beyond it: the link table cannot fit.
    let observer = Observer::new();
    build()
        .fit_guarded(&data, &observer, &Guard::unlimited())
        .unwrap();
    let neighbor_bytes = observer.memory().snapshot().neighbor_graph;
    assert!(neighbor_bytes > 0);

    let guard = Guard::new(RunBudget::unlimited().memory(neighbor_bytes + 512));
    let outcome = build()
        .fit_guarded(&data, &Observer::new(), &guard)
        .unwrap();
    assert!(outcome.is_degraded());
    let d = outcome.degradation().unwrap();
    assert_eq!(d.phase, Phase::Links);
    assert!(matches!(d.reason, TripReason::MemoryBudget { .. }));
    assert_valid_partition(outcome.model(), n);
}

#[test]
fn memory_budget_trips_inside_the_neighbor_index_build() {
    // The inverted-index join streams its build-buffer bytes into the
    // neighbor-graph gauge and polls the guard between passes and every
    // few rows, so a ceiling far below the index footprint must trip in
    // the Neighbors phase *before any candidate is generated* — not
    // after a full (quadratic or indexed) scan.
    let (data, n) = mushroom_like(600, 4, 11);
    let guard = Guard::new(RunBudget::unlimited().memory(256));
    let observer = Observer::new();
    let outcome = RockBuilder::new(4, 0.8)
        .sample(SampleStrategy::All)
        .threads(4)
        .seed(11)
        .build()
        .fit_guarded(&data, &observer, &guard)
        .unwrap();
    assert!(outcome.is_degraded());
    let d = outcome.degradation().unwrap();
    assert_eq!(d.phase, Phase::Neighbors);
    assert!(matches!(d.reason, TripReason::MemoryBudget { .. }));
    // Tripped during index construction: the probe never ran.
    assert_eq!(observer.counters().snapshot().neighbor_candidates, 0);
    assert_valid_partition(outcome.model(), n);
}

#[test]
fn degraded_prefix_agrees_with_unbudgeted_run() {
    // The anytime property, end to end: a step-budgeted run's merges are a
    // prefix of the unbudgeted run's, so its sample-phase history matches.
    let (data, _) = mushroom_like(160, 4, 13);
    let rock = RockBuilder::new(4, 0.8)
        .seed(13)
        .record_history(true)
        .build();
    let full = rock.fit(&data).unwrap();
    let guard = Guard::new(RunBudget::unlimited().steps(7));
    let partial = rock
        .fit_guarded(&data, &Observer::new(), &guard)
        .unwrap()
        .into_model();
    assert_eq!(partial.history().len(), 7);
    assert_eq!(&full.history()[..7], partial.history());
}

/// Satellite: seed-loop fuzz-lite. 64 seeded random datasets through the
/// guarded pipeline under randomized budgets — the run may complete or
/// degrade, but must never panic and must always return a valid
/// partition.
#[test]
fn fuzz_lite_64_seeds_under_random_budgets() {
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x0c1a05 ^ seed);
        let n = rng.gen_range(24..96usize);
        let groups = rng.gen_range(2..5usize);
        let (data, len) = mushroom_like(n, groups, seed);
        let k = rng.gen_range(2..5usize).min(len);
        let mut budget = RunBudget::unlimited();
        match rng.gen_range(0..5usize) {
            0 => budget = budget.steps(rng.gen_range(0..32u64)),
            1 => budget = budget.wall(Duration::from_nanos(rng.gen_range(0..2_000_000u64))),
            2 => budget = budget.memory(rng.gen_range(1..100_000u64)),
            3 => {
                budget = budget
                    .steps(rng.gen_range(0..16u64))
                    .memory(rng.gen_range(1..50_000u64));
            }
            _ => {} // unlimited: must complete
        }
        let guard = Guard::new(budget);
        if rng.gen_bool(0.1) {
            guard.cancel_token().cancel();
        }
        let theta = rng.gen_range(0.3..0.9);
        let sample = if rng.gen_bool(0.5) {
            SampleStrategy::All
        } else {
            SampleStrategy::Fixed(rng.gen_range(k..len.max(k + 1)))
        };
        let outcome = RockBuilder::new(k, theta)
            .sample(sample)
            .seed(seed)
            .build()
            .fit_guarded(&data, &Observer::new(), &guard)
            .unwrap_or_else(|e| panic!("seed {seed}: unexpected error {e}"));
        assert_valid_partition(outcome.model(), len);
        if guard.budget().is_unlimited() && !guard.cancel_token().is_cancelled() {
            assert!(!outcome.is_degraded(), "seed {seed}: nothing should trip");
        }
    }
}

/// Renders a categorical table back to label-first CSV text, `?` for
/// missing cells — the inverse of the loader, for corruption tests.
fn table_to_csv(table: &rock::core::data::CategoricalTable, labels: &[&'static str]) -> String {
    let mut out = String::new();
    for (i, row) in table.rows().enumerate() {
        out.push_str(labels[i]);
        for (j, cell) in row.iter().enumerate() {
            out.push(',');
            match cell {
                Some(code) => {
                    let attr = table
                        .schema()
                        .attribute(AttrId(u16::try_from(j).unwrap()))
                        .unwrap();
                    out.push_str(attr.value(*code).unwrap());
                }
                None => out.push('?'),
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn poisoned_csv_survives_lenient_ingestion_and_clusters() {
    let (table, classes, _) = MushroomModel::scaled(150, 3).seed(21).generate();
    let clean = table_to_csv(&table, &classes);
    for seed in [1u64, 2, 3] {
        let dirty = FaultInjector::new(seed).poison_rows(&clean, 0.1);
        let cfg = LoadConfig {
            label: LabelPosition::First,
            mode: IngestMode::Lenient {
                max_quarantine_fraction: 0.5,
            },
            ..LoadConfig::default()
        };
        let loaded = parse_labeled(&dirty, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: lenient load failed: {e}"));
        assert_eq!(loaded.table.len(), loaded.labels.len());
        let data = loaded.table.to_transactions();
        let n = data.len();
        let model = RockBuilder::new(3, 0.8)
            .seed(seed)
            .build()
            .fit(&data)
            .unwrap();
        assert_valid_partition(&model, n);
    }
}

#[test]
fn truncated_csv_survives_lenient_ingestion() {
    let (table, classes, _) = MushroomModel::scaled(120, 3).seed(33).generate();
    let clean = table_to_csv(&table, &classes);
    let mut inj = FaultInjector::new(7);
    for keep in [0.85, 0.5, 0.25] {
        let cut = inj.truncate(&clean, keep);
        let cfg = LoadConfig {
            label: LabelPosition::First,
            mode: IngestMode::Lenient {
                max_quarantine_fraction: 0.5,
            },
            ..LoadConfig::default()
        };
        let loaded = parse_labeled(&cut, &cfg).unwrap();
        assert!(!loaded.table.is_empty());
        // At most the final, cut-off record can be quarantined.
        assert!(loaded.report.quarantined.len() <= 1);
    }
}

#[test]
fn injected_io_failures_are_errors_not_panics() {
    let mut inj = FaultInjector::new(11).io_failure_rate(1.0);
    let err = inj
        .read_to_string(std::path::Path::new("/tmp/anything"))
        .unwrap_err();
    assert_eq!(err.exit_code(), 3);
}

/// CLI acceptance criterion: a mushroom-like dataset under an exhausted
/// step budget with `--on-error recover` exits 0, prints the degraded
/// outcome, and writes metrics JSON with a `degradation` block.
#[test]
fn cli_recovers_from_exhausted_step_budget_on_mushroom() {
    let dir = std::env::temp_dir().join("rock-chaos-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("mushroom-like.csv");
    let metrics = dir.join("metrics.json");
    let (table, classes, _) = MushroomModel::scaled(400, 4).seed(3).generate();
    std::fs::write(&input, table_to_csv(&table, &classes)).unwrap();

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_rock-cluster"))
        .args([
            "--input",
            input.to_str().unwrap(),
            "--k",
            "4",
            "--theta",
            "0.8",
            "--label",
            "first",
            "--step-budget",
            "5",
            "--on-error",
            "recover",
            "--metrics",
            metrics.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .output()
        .expect("binary should launch");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "expected exit 0, got {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        output.status.code()
    );
    assert!(
        stdout.contains("degraded:") && stdout.contains("merge-step budget"),
        "stdout should print the degraded outcome, got:\n{stdout}"
    );
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"degradation\""));
    assert!(json.contains("\"reason\": \"step-budget\""));
    assert!(json.contains("\"phase\": \"agglomerate\""));

    // Same budget under --on-error fail: stable exit code 6.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_rock-cluster"))
        .args([
            "--input",
            input.to_str().unwrap(),
            "--k",
            "4",
            "--theta",
            "0.8",
            "--label",
            "first",
            "--step-budget",
            "5",
            "--on-error",
            "fail",
            "--seed",
            "3",
        ])
        .output()
        .expect("binary should launch");
    assert_eq!(output.status.code(), Some(6));

    std::fs::remove_file(input).ok();
    std::fs::remove_file(metrics).ok();
}

// ---------------------------------------------------------------------
// Streaming chaos: the crash-safe out-of-core labeling pipeline
// (`rock_core::stream` + `rock_datasets::cache`). These tests carry the
// `stream_` prefix so `ci.sh` can run them as a named gate.
// ---------------------------------------------------------------------

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rock::core::stream::{partial_path, StreamLabeler, StreamOutcome, WriteProbe};
use rock::datasets::cache::{build_cache, DatasetCache};
use rock::datasets::synthetic::BasketModel;

/// Planted baskets + a snapshot fitted on them: the streaming fixture.
/// 3 clusters over disjoint 15-item pools; θ = 0.2 keeps within-cluster
/// links dense and cross-cluster links absent.
fn stream_fixture(rows: usize) -> (TransactionSet, ModelSnapshot) {
    let (data, _) = BasketModel::disjoint(3, rows / 3, 15, (5, 8))
        .seed(7)
        .generate();
    let labeling = LabelingConfig {
        representative_fraction: 0.05,
        max_representatives: 12,
    };
    let model = RockBuilder::new(3, 0.2)
        .sample(SampleStrategy::All)
        .labeling(labeling)
        .seed(7)
        .build()
        .fit(&data)
        .expect("fit fixture");
    let snapshot = ModelSnapshot::from_model(
        &data,
        &model,
        0.2,
        MarketBasket.f(0.2),
        SimilarityKind::Jaccard,
        OutlierPolicy::Mark,
        &labeling,
        7,
    )
    .expect("snapshot");
    (data, snapshot)
}

fn chaos_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rock-chaos-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Parses a `rock-assignments v1` file and checks internal consistency:
/// header counts match the body, every index appears exactly once.
fn assert_valid_assignments(path: &std::path::Path) -> (usize, usize) {
    let text = std::fs::read_to_string(path).expect("assignments file");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("rock-assignments v1"));
    let header = lines.next().expect("header line");
    let mut n = 0usize;
    let mut outliers = 0usize;
    for field in header.split_whitespace() {
        if let Some(v) = field.strip_prefix("n=") {
            n = v.parse().unwrap();
        } else if let Some(v) = field.strip_prefix("outliers=") {
            outliers = v.parse().unwrap();
        }
    }
    let mut seen_outliers = 0usize;
    for (i, line) in lines.enumerate() {
        let (idx, label) = line.split_once(' ').expect("row line");
        assert_eq!(idx.parse::<usize>().unwrap(), i, "row indices in order");
        if label == "-" {
            seen_outliers += 1;
        } else {
            label.parse::<usize>().expect("cluster id");
        }
        assert!(i < n, "more rows than the header's n={n}");
    }
    assert_eq!(seen_outliers, outliers, "header outlier count matches body");
    (n, outliers)
}

/// The central crash-safety contract: kill the stream at *every* chunk
/// boundary, resume, and require output byte-identical to an
/// uninterrupted run.
#[test]
fn stream_kill_at_every_chunk_boundary_resumes_byte_identical() {
    let dir = chaos_dir("kill-resume");
    let (data, snapshot) = stream_fixture(240);
    let cache =
        build_cache(&dir.join("d.rockcache"), data.universe(), 40, data.iter()).expect("cache");
    let chunks = 6;
    assert_eq!(cache.total_chunks(), chunks);

    let reference = dir.join("reference.rockassign");
    let outcome = StreamLabeler::new(&snapshot)
        .run(
            &cache,
            &reference,
            &dir.join("ref.ckpt"),
            &Guard::unlimited(),
            &Observer::new(),
        )
        .expect("reference run");
    assert!(matches!(outcome, StreamOutcome::Complete(_)));
    let reference_bytes = std::fs::read(&reference).unwrap();

    for kill_after in 1..chunks {
        let out = dir.join(format!("kill{kill_after}.rockassign"));
        let ckpt = dir.join(format!("kill{kill_after}.ckpt"));
        let paused = StreamLabeler::new(&snapshot)
            .stop_after_chunks(kill_after)
            .run(&cache, &out, &ckpt, &Guard::unlimited(), &Observer::new())
            .expect("paused run");
        assert!(
            matches!(paused, StreamOutcome::Paused(_)),
            "kill_after={kill_after}: expected a pause, got {paused:?}"
        );
        assert!(ckpt.exists(), "pause must leave its checkpoint behind");

        let observer = Observer::new();
        let resumed = StreamLabeler::new(&snapshot)
            .run(&cache, &out, &ckpt, &Guard::unlimited(), &observer)
            .expect("resumed run");
        let StreamOutcome::Complete(stats) = resumed else {
            panic!("kill_after={kill_after}: resume must complete, got {resumed:?}");
        };
        assert!(stats.resumed);
        assert_eq!(
            observer.counters().stream_resumes.load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference_bytes,
            "kill_after={kill_after}: resumed output must be byte-identical"
        );
        assert!(!ckpt.exists(), "completion must remove the checkpoint");
        assert!(!partial_path(&out).exists(), "and the partial file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A memory-budget trip mid-stream degrades to a *valid* partial
/// labeling (machine-readable `Degradation`), keeps the checkpoint, and
/// a rerun finishes the job byte-identically.
#[test]
fn stream_memory_ceiling_trips_to_valid_partial_labeling() {
    let dir = chaos_dir("mem-trip");
    let (data, snapshot) = stream_fixture(240);
    let cache =
        build_cache(&dir.join("d.rockcache"), data.universe(), 40, data.iter()).expect("cache");

    let out = dir.join("budgeted.rockassign");
    let ckpt = dir.join("budgeted.ckpt");
    // Get two chunks durably done first (the state a healthy run reaches
    // before the machine comes under memory pressure)…
    let paused = StreamLabeler::new(&snapshot)
        .stop_after_chunks(2)
        .run(&cache, &out, &ckpt, &Guard::unlimited(), &Observer::new())
        .expect("healthy prefix");
    assert!(matches!(paused, StreamOutcome::Paused(_)));
    // …then resume under a ceiling of 8 bytes, which cannot hold the next
    // chunk's buffer: the honest accounting must trip mid-stream.
    let guard = Guard::new(RunBudget::unlimited().memory(8));
    let outcome = StreamLabeler::new(&snapshot)
        .run(&cache, &out, &ckpt, &guard, &Observer::new())
        .expect("budgeted run must degrade, not error");
    let StreamOutcome::Degraded { stats, degradation } = outcome else {
        panic!("expected a degraded outcome, got {outcome:?}");
    };
    assert!(
        matches!(degradation.reason, TripReason::MemoryBudget { .. }),
        "unexpected trip reason: {:?}",
        degradation.reason
    );
    assert_eq!(degradation.phase, Phase::Labeling);
    assert!(
        stats.rows >= 80 && stats.rows < 240,
        "the trip must cut the stream short past the durable prefix, got {} rows",
        stats.rows
    );

    // The partial output is complete and well-formed for the rows done.
    let (n, _) = assert_valid_assignments(&out);
    assert_eq!(n as u64, stats.rows);
    assert!(ckpt.exists(), "degrade must keep the checkpoint for resume");
    assert!(partial_path(&out).exists(), "and the partial body");

    // Rerun without the ceiling: resumes and matches a clean one-shot run.
    let resumed = StreamLabeler::new(&snapshot)
        .run(&cache, &out, &ckpt, &Guard::unlimited(), &Observer::new())
        .expect("resume");
    assert!(matches!(resumed, StreamOutcome::Complete(_)));
    let clean = dir.join("clean.rockassign");
    StreamLabeler::new(&snapshot)
        .run(
            &cache,
            &clean,
            &dir.join("clean.ckpt"),
            &Guard::unlimited(),
            &Observer::new(),
        )
        .expect("clean run");
    assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&clean).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupt or mismatched recovery state fails closed with the stable
/// malformed-input exit code (4) — never a panic, never silent reuse.
#[test]
fn stream_corrupt_recovery_state_fails_closed() {
    let dir = chaos_dir("corrupt-ckpt");
    let (data, snapshot) = stream_fixture(240);
    let cache =
        build_cache(&dir.join("d.rockcache"), data.universe(), 40, data.iter()).expect("cache");
    let out = dir.join("out.rockassign");
    let ckpt = dir.join("out.ckpt");
    let pause = |out: &std::path::Path, ckpt: &std::path::Path| {
        // Each scenario starts from a fresh pause: clear the previous
        // scenario's (deliberately damaged) working files first.
        std::fs::remove_file(out).ok();
        std::fs::remove_file(ckpt).ok();
        std::fs::remove_file(partial_path(out)).ok();
        let paused = StreamLabeler::new(&snapshot)
            .stop_after_chunks(2)
            .run(&cache, out, ckpt, &Guard::unlimited(), &Observer::new())
            .expect("paused run");
        assert!(matches!(paused, StreamOutcome::Paused(_)));
    };

    // (a) Bit-flip inside the checkpoint: checksum mismatch.
    pause(&out, &ckpt);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x20;
    std::fs::write(&ckpt, &bytes).unwrap();
    let err = StreamLabeler::new(&snapshot)
        .run(&cache, &out, &ckpt, &Guard::unlimited(), &Observer::new())
        .expect_err("corrupt checkpoint must fail");
    assert_eq!(err.exit_code(), 4, "corrupt checkpoint: {err}");

    // (b) Truncated checkpoint: parse failure.
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(partial_path(&out)).ok();
    pause(&out, &ckpt);
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 3]).unwrap();
    let err = StreamLabeler::new(&snapshot)
        .run(&cache, &out, &ckpt, &Guard::unlimited(), &Observer::new())
        .expect_err("truncated checkpoint must fail");
    assert_eq!(err.exit_code(), 4, "truncated checkpoint: {err}");

    // (c) Checkpoint from a different dataset: identity mismatch.
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(partial_path(&out)).ok();
    pause(&out, &ckpt);
    let (other, _) = BasketModel::disjoint(3, 80, 15, (5, 8)).seed(8).generate();
    let other_cache = build_cache(
        &dir.join("other.rockcache"),
        other.universe(),
        40,
        other.iter(),
    )
    .expect("other cache");
    let err = StreamLabeler::new(&snapshot)
        .run(
            &other_cache,
            &out,
            &ckpt,
            &Guard::unlimited(),
            &Observer::new(),
        )
        .expect_err("checkpoint against the wrong cache must fail");
    assert_eq!(err.exit_code(), 4, "wrong cache: {err}");

    // (d) Corrupt cache chunk payload: detected on read, exit 4.
    let cache_path = dir.join("d.rockcache");
    let mut bytes = std::fs::read(&cache_path).unwrap();
    bytes[64] ^= 0xff; // inside chunk 0's payload
    std::fs::write(&cache_path, &bytes).unwrap();
    let reopened = DatasetCache::open(&cache_path).expect("directory still valid");
    let err = StreamLabeler::new(&snapshot)
        .retry(RetryPolicy::none())
        .run(
            &reopened,
            &dir.join("c.rockassign"),
            &dir.join("c.ckpt"),
            &Guard::unlimited(),
            &Observer::new(),
        )
        .expect_err("corrupt chunk must fail");
    assert_eq!(err.exit_code(), 4, "corrupt chunk: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected disk faults on both the read path (cache chunk reads) and
/// the write path (partial/checkpoint writes) are retried with backoff
/// and the stream still completes with byte-identical output; the
/// retries are visible in the `io_retries` counter.
#[test]
fn stream_disk_faults_are_retried_to_byte_identical_completion() {
    let dir = chaos_dir("disk-faults");
    let (data, snapshot) = stream_fixture(240);
    let cache_path = dir.join("d.rockcache");
    let cache = build_cache(&cache_path, data.universe(), 40, data.iter()).expect("cache");

    let clean = dir.join("clean.rockassign");
    StreamLabeler::new(&snapshot)
        .run(
            &cache,
            &clean,
            &dir.join("clean.ckpt"),
            &Guard::unlimited(),
            &Observer::new(),
        )
        .expect("clean run");

    // Reads: seeded injector fails ~40% of chunk reads. Writes: a probe
    // driven by a second injector fails ~40% of probes. A retry budget of
    // 12 attempts with deterministic backoff rides out both.
    let faulty = DatasetCache::open(&cache_path)
        .expect("reopen")
        .with_fault_injector(FaultInjector::new(21).io_failure_rate(0.4));
    let write_faults = Mutex::new(FaultInjector::new(22).io_failure_rate(0.4));
    let probe: WriteProbe = Arc::new(move |path: &std::path::Path| {
        write_faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .fail_io(path)
    });
    let observer = Observer::new();
    let out = dir.join("faulty.rockassign");
    let outcome = StreamLabeler::new(&snapshot)
        .retry(RetryPolicy {
            max_attempts: 12,
            base_delay_ms: 0, // keep the test fast; backoff math is unit-tested
            max_delay_ms: 0,
        })
        .write_probe(probe)
        .run(
            &faulty,
            &out,
            &dir.join("faulty.ckpt"),
            &Guard::unlimited(),
            &observer,
        )
        .expect("faulty run must still complete");
    assert!(matches!(outcome, StreamOutcome::Complete(_)));
    let retries = observer.counters().io_retries.load(Ordering::Relaxed);
    assert!(retries > 0, "a 40% fault rate must force retries");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        std::fs::read(&clean).unwrap(),
        "faults + retries must not change the output"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Exhausted retries surface `RockError::Io` (exit 3), keep the
/// checkpoint, and a healthy rerun completes from where it left off.
#[test]
fn stream_exhausted_retries_keep_checkpoint_for_healthy_rerun() {
    let dir = chaos_dir("exhausted");
    let (data, snapshot) = stream_fixture(240);
    let cache_path = dir.join("d.rockcache");
    let cache = build_cache(&cache_path, data.universe(), 40, data.iter()).expect("cache");

    // Probe: succeed for the first 3 calls, then fail forever — the
    // stream gets partway, then every retry attempt is exhausted.
    let calls = AtomicU64::new(0);
    let probe: WriteProbe = Arc::new(move |path: &std::path::Path| {
        if calls.fetch_add(1, Ordering::Relaxed) < 3 {
            Ok(())
        } else {
            Err(RockError::Io {
                path: path.display().to_string(),
                message: "injected persistent write failure".to_owned(),
            })
        }
    });
    let out = dir.join("out.rockassign");
    let ckpt = dir.join("out.ckpt");
    let err = StreamLabeler::new(&snapshot)
        .retry(RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 0,
            max_delay_ms: 0,
        })
        .write_probe(probe)
        .run(&cache, &out, &ckpt, &Guard::unlimited(), &Observer::new())
        .expect_err("persistent faults must surface after retries");
    assert_eq!(
        err.exit_code(),
        3,
        "exhausted retries are I/O errors: {err}"
    );
    assert!(ckpt.exists(), "the checkpoint survives the failure");

    let resumed = StreamLabeler::new(&snapshot)
        .run(&cache, &out, &ckpt, &Guard::unlimited(), &Observer::new())
        .expect("healthy rerun");
    let StreamOutcome::Complete(stats) = resumed else {
        panic!("healthy rerun must complete, got {resumed:?}");
    };
    assert!(stats.resumed, "the rerun must pick up the checkpoint");
    assert_eq!(stats.rows, 240);
    assert_valid_assignments(&out);
    std::fs::remove_dir_all(&dir).ok();
}

/// CLI acceptance criterion for streaming: `label --stream` under a
/// starvation memory budget exits 6 leaving a valid partial labeling and
/// a checkpoint; rerunning without the budget resumes and produces output
/// byte-identical to the batch `label` path.
#[test]
fn stream_cli_mem_budget_degrades_exit_6_then_resumes() {
    let dir = chaos_dir("cli-stream");
    let input = dir.join("baskets.txt");
    let mut text = String::new();
    for ci in 0..2 {
        for i in 0..40 {
            // Two anchor items pin each cluster; three rotating items keep
            // rows distinct. Within-cluster Jaccard ≥ 0.25, across = 0.
            text.push_str(&format!(
                "c{ci}a0 c{ci}a1 c{ci}x{} c{ci}x{} c{ci}x{}\n",
                i % 7,
                (i + 1) % 7,
                (i + 3) % 7,
            ));
        }
    }
    // The third cluster's rows are ~6x wider (30 shared anchors + one
    // rotating item). They sit at the *end* of the file, so the stream's
    // chunk-buffer high-water mark jumps only when it reaches them —
    // which makes a memory budget sized for the narrow chunks trip
    // mid-stream, after several checkpoints are already durable.
    for i in 0..40 {
        for a in 0..30 {
            text.push_str(&format!("c2a{a} "));
        }
        text.push_str(&format!("c2x{}\n", i % 7));
    }
    std::fs::write(&input, text).unwrap();

    // Fit and save a snapshot with the shipped binary.
    let model = dir.join("baskets.rockmodel");
    let fit = std::process::Command::new(env!("CARGO_BIN_EXE_rock-cluster"))
        .args([
            "--input",
            input.to_str().unwrap(),
            "--format",
            "basket",
            "--k",
            "3",
            "--theta",
            "0.2",
            "--seed",
            "9",
            "--save-model",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("fit should launch");
    assert!(
        fit.status.success(),
        "{}",
        String::from_utf8_lossy(&fit.stderr)
    );

    // Batch reference labeling.
    let batch = dir.join("batch.txt");
    let label = |extra: &[&str]| {
        let mut args = vec![
            "label",
            "--model",
            model.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
            "--format",
            "basket",
        ];
        args.extend_from_slice(extra);
        std::process::Command::new(env!("CARGO_BIN_EXE_rock-cluster"))
            .args(&args)
            .output()
            .expect("label should launch")
    };
    let out = label(&["--output", batch.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Streamed labeling under a memory ceiling sized for the narrow
    // chunks (~1.3 KiB buffers) but not the wide ones (~5 KiB): the run
    // labels the narrow prefix, then degrades — exit 6, valid partial
    // output, checkpoint kept.
    let streamed = dir.join("streamed.txt");
    let ckpt = dir.join("streamed.ckpt");
    let out = label(&[
        "--output",
        streamed.to_str().unwrap(),
        "--stream",
        "--chunk-rows",
        "30",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--mem-budget",
        "3500",
    ]);
    assert_eq!(
        out.status.code(),
        Some(6),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint kept"),
        "stderr should advertise the resume path:\n{stderr}"
    );
    let (n, _) = assert_valid_assignments(&streamed);
    assert!(
        n > 0 && n < 120,
        "the trip must leave a partial labeling, got n={n}"
    );
    assert!(ckpt.exists());

    // Rerun without the ceiling: resumes to completion, byte-identical
    // to the batch path.
    let out = label(&[
        "--output",
        streamed.to_str().unwrap(),
        "--stream",
        "--chunk-rows",
        "30",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("(resumed)"),
        "the rerun must resume from the checkpoint, not restart"
    );
    assert!(!ckpt.exists(), "completion removes the checkpoint");
    assert_eq!(
        std::fs::read(&streamed).unwrap(),
        std::fs::read(&batch).unwrap(),
        "streamed (degraded + resumed) output must match batch labeling"
    );
    std::fs::remove_dir_all(&dir).ok();
}
