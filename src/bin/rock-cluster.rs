//! `rock-cluster` — cluster a categorical CSV file from the command line.
//!
//! ```text
//! rock-cluster --input data.csv --k 2 --theta 0.5 \
//!     [--label first|last|none|COLUMN] [--ignore 0,3] [--missing '?'] \
//!     [--sample N | --chernoff UMIN,XI,DELTA] [--min-goodness G] \
//!     [--seed N] [--threads N] [--summary TOP] [--output assignments.txt] \
//!     [--metrics metrics.json] [--progress] [--log-level info] \
//!     [--time-budget SECS] [--step-budget N] [--mem-budget BYTES[K|M|G]] \
//!     [--on-error fail|recover] \
//!     [--save-model model.rockmodel] [--outlier-policy mark|nearest]
//!
//! rock-cluster label --model model.rockmodel --input new.csv \
//!     [--format table|basket] [--label first|last|none|COLUMN] \
//!     [--ignore 0,3] [--missing '?'] [--output labels.txt] \
//!     [--stream] [--cache FILE] [--checkpoint FILE] [--chunk-rows N] \
//!     [--mem-budget BYTES[K|M|G]] [--threads N]
//! ```
//!
//! Reads a UCI-style categorical CSV, runs the full ROCK pipeline, prints
//! a cluster report (scored against the label column when present), and
//! optionally writes per-point assignments in the plain-text format of
//! `rock_core::export`. With `--metrics FILE` the run's telemetry (phase
//! wall times, pipeline counters, memory estimates) is written to `FILE`
//! as pretty-printed JSON in the `rock-metrics/v1` schema; `--progress`
//! and `--log-level` stream phase events to stderr while it runs.
//!
//! **Guardrails.** `--time-budget`, `--step-budget` and `--mem-budget`
//! bound the run (wall seconds, agglomeration merge steps, estimated
//! tracked bytes). When a budget trips, the pipeline degrades to the best
//! valid partition built so far; `--on-error recover` (the default is
//! `fail`) accepts that partition and exits 0, also switching ingestion
//! to lenient mode so malformed rows are quarantined instead of fatal.
//! Metrics are flushed on *every* exit path — complete, degraded, or
//! error — and degraded runs carry a machine-readable `degradation`
//! block. Exit codes are stable: 0 success/recovered, 1 internal, 2
//! usage, 3 I/O, 4 malformed input, 5 invalid configuration, 6 budget
//! exhausted or cancelled under `--on-error fail`.
//!
//! **Snapshots.** `--save-model PATH` persists the fitted model as a
//! `rock-model/v1` snapshot (`rock_core::snapshot`): the §4.2 labeling
//! closure — representatives `L_i`, θ, `f(θ)`, the interned item table
//! and an outlier policy — behind a content checksum. The `label`
//! subcommand loads a snapshot and batch-labels a new file without
//! re-clustering, writing `rock-assignments v1` to `--output` (or
//! stdout); the same snapshot also powers the `rock-serve` HTTP server.
//! Labeling is deterministic: the same snapshot and input always produce
//! byte-identical output.
//!
//! **Streaming.** `label --stream` labels out-of-core: the input is
//! converted once into a chunked `rock-cache/v1` binary cache (or an
//! existing cache is reused via `--cache`), then labeled chunk by chunk
//! with bounded memory, appending to a crash-safe partial file and
//! checkpointing after every chunk (`rock-checkpoint/v1`, `--checkpoint`,
//! default `OUTPUT.ckpt`). A killed or budget-tripped run resumes from
//! its checkpoint and produces byte-identical output to an uninterrupted
//! run; a memory trip under `--mem-budget` degrades to a *valid* partial
//! assignments file and exits 6, leaving the checkpoint in place so a
//! rerun finishes the job. `--stream` requires `--output`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rock::core::export::write_assignments;
use rock::core::file::{sibling, Replacement};
use rock::core::metrics::{cluster_breakdown, densify_labels, matched_accuracy, purity};
use rock::core::summary::ClusterSummary;
use rock::core::telemetry::StderrSink;
use rock::datasets::baskets::load_baskets;
use rock::datasets::cache::{build_cache, DatasetCache};
use rock::datasets::loader::{load_labeled, IngestMode, LabelPosition, LoadConfig};
use rock::prelude::*;

/// Input file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Categorical CSV with optional label column.
    Table,
    /// Market baskets: one whitespace/comma-separated transaction per line.
    Basket,
}

/// What to do when a budget trips or the input is dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnError {
    /// Budget trips are fatal (exit 6); malformed rows are fatal (exit 4).
    Fail,
    /// Degrade gracefully: accept the partial partition (exit 0) and
    /// quarantine malformed rows during ingestion.
    Recover,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Options {
    input: PathBuf,
    format: Format,
    k: usize,
    theta: f64,
    label: LabelPosition,
    ignore: Vec<usize>,
    missing: String,
    sample: SampleStrategy,
    min_goodness: Option<f64>,
    seed: u64,
    /// Workers for the row-sharded phases (neighbors, links, labeling);
    /// 0 = one per CPU. Output is identical for every value.
    threads: usize,
    summary_top: usize,
    output: Option<PathBuf>,
    metrics: Option<PathBuf>,
    progress: bool,
    log_level: Level,
    time_budget: Option<f64>,
    step_budget: Option<u64>,
    mem_budget: Option<u64>,
    on_error: OnError,
    save_model: Option<PathBuf>,
    outlier_policy: OutlierPolicy,
    /// Write a `rock-trace/v1` NDJSON event stream of the fit here
    /// (analyze with `rock-trace`). `None` = tracing disabled.
    trace: Option<PathBuf>,
}

/// Parsed options for the `label` subcommand.
#[derive(Debug, Clone)]
struct LabelOptions {
    model: PathBuf,
    input: PathBuf,
    format: Format,
    label: LabelPosition,
    ignore: Vec<usize>,
    missing: String,
    output: Option<PathBuf>,
    /// Label out-of-core through the chunked cache + checkpoint path.
    stream: bool,
    /// `rock-cache/v1` file to stream from (built from `--input` when
    /// absent). Default: `INPUT.rockcache`.
    cache: Option<PathBuf>,
    /// `rock-checkpoint/v1` file. Default: `OUTPUT.ckpt`.
    checkpoint: Option<PathBuf>,
    /// Rows per streamed chunk.
    chunk_rows: usize,
    /// Memory ceiling for the streaming run (tracked bytes).
    mem_budget: Option<u64>,
    /// Workers for the chunk labeling kernel; 0 = one per CPU.
    threads: usize,
}

/// Which entry point the command line selected.
#[derive(Debug, Clone)]
enum Command {
    /// Fit a model (optionally saving a snapshot).
    Fit(Box<Options>),
    /// Batch-label a file against a saved snapshot.
    Label(Box<LabelOptions>),
}

const USAGE: &str = "usage: rock-cluster --input FILE --k K --theta T \
[--format table|basket] [--label first|last|none|IDX] [--ignore i,j,...] \
[--missing TOKEN] [--sample N | --chernoff UMIN,XI,DELTA] \
[--min-goodness G] [--seed N] [--threads N] [--summary TOP] [--output FILE] \
[--metrics FILE] [--progress] [--log-level off|error|info|debug] \
[--time-budget SECS] [--step-budget N] [--mem-budget BYTES[K|M|G]] \
[--on-error fail|recover] [--save-model FILE] [--outlier-policy mark|nearest] \
[--trace FILE]\n\
       rock-cluster label --model FILE --input FILE [--format table|basket] \
[--label first|last|none|IDX] [--ignore i,j,...] [--missing TOKEN] \
[--output FILE] [--stream] [--cache FILE] [--checkpoint FILE] \
[--chunk-rows N] [--mem-budget BYTES[K|M|G]] [--threads N]";

/// Parses a byte count with an optional K/M/G (binary) suffix.
fn parse_mem_budget(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (digits, shift) = match t.chars().last() {
        Some('k') | Some('K') => (&t[..t.len() - 1], 10),
        Some('m') | Some('M') => (&t[..t.len() - 1], 20),
        Some('g') | Some('G') => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    let base: u64 = digits
        .trim()
        .parse()
        .map_err(|e| format!("--mem-budget: {e}"))?;
    base.checked_mul(1u64 << shift)
        .ok_or_else(|| format!("--mem-budget: {t:?} overflows u64"))
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut input: Option<PathBuf> = None;
    let mut format = Format::Table;
    let mut k: Option<usize> = None;
    let mut theta: Option<f64> = None;
    let mut label = LabelPosition::Last;
    let mut ignore = Vec::new();
    let mut missing = "?".to_owned();
    let mut sample = SampleStrategy::All;
    let mut min_goodness = None;
    let mut seed = 42u64;
    let mut threads = 0usize;
    let mut summary_top = 0usize;
    let mut output = None;
    let mut metrics = None;
    let mut progress = false;
    let mut log_level = Level::Off;
    let mut time_budget = None;
    let mut step_budget = None;
    let mut mem_budget = None;
    let mut on_error = OnError::Fail;
    let mut save_model = None;
    let mut outlier_policy = OutlierPolicy::Mark;
    let mut trace = None;

    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--input" => input = Some(PathBuf::from(value("--input")?)),
            "--format" => {
                format = match value("--format")?.as_str() {
                    "table" => Format::Table,
                    "basket" => Format::Basket,
                    other => return Err(format!("--format: expected table|basket, got {other:?}")),
                }
            }
            "--k" => k = Some(value("--k")?.parse().map_err(|e| format!("--k: {e}"))?),
            "--theta" => {
                theta = Some(
                    value("--theta")?
                        .parse()
                        .map_err(|e| format!("--theta: {e}"))?,
                )
            }
            "--label" => {
                label = match value("--label")?.as_str() {
                    "first" => LabelPosition::First,
                    "last" => LabelPosition::Last,
                    "none" => LabelPosition::None,
                    idx => LabelPosition::Column(
                        idx.parse()
                            .map_err(|_| format!("--label: bad value {idx:?}"))?,
                    ),
                }
            }
            "--ignore" => {
                for part in value("--ignore")?.split(',') {
                    ignore.push(part.trim().parse().map_err(|e| format!("--ignore: {e}"))?);
                }
            }
            "--missing" => missing = value("--missing")?,
            "--sample" => {
                sample = SampleStrategy::Fixed(
                    value("--sample")?
                        .parse()
                        .map_err(|e| format!("--sample: {e}"))?,
                )
            }
            "--chernoff" => {
                let raw = value("--chernoff")?;
                let parts: Vec<&str> = raw.split(',').collect();
                let [u_min, xi, delta] = parts.as_slice() else {
                    return Err(format!("--chernoff expects UMIN,XI,DELTA, got {raw:?}"));
                };
                sample = SampleStrategy::Chernoff {
                    u_min: u_min
                        .trim()
                        .parse()
                        .map_err(|e| format!("--chernoff u_min: {e}"))?,
                    xi: xi
                        .trim()
                        .parse()
                        .map_err(|e| format!("--chernoff xi: {e}"))?,
                    delta: delta
                        .trim()
                        .parse()
                        .map_err(|e| format!("--chernoff delta: {e}"))?,
                };
            }
            "--min-goodness" => {
                min_goodness = Some(
                    value("--min-goodness")?
                        .parse()
                        .map_err(|e| format!("--min-goodness: {e}"))?,
                )
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--summary" => {
                summary_top = value("--summary")?
                    .parse()
                    .map_err(|e| format!("--summary: {e}"))?
            }
            "--output" => output = Some(PathBuf::from(value("--output")?)),
            "--metrics" => metrics = Some(PathBuf::from(value("--metrics")?)),
            "--progress" => progress = true,
            "--log-level" => {
                log_level = value("--log-level")?
                    .parse()
                    .map_err(|e| format!("--log-level: {e}"))?
            }
            "--time-budget" => {
                let secs: f64 = value("--time-budget")?
                    .parse()
                    .map_err(|e| format!("--time-budget: {e}"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("--time-budget: {secs} is not a valid duration"));
                }
                time_budget = Some(secs);
            }
            "--step-budget" => {
                step_budget = Some(
                    value("--step-budget")?
                        .parse()
                        .map_err(|e| format!("--step-budget: {e}"))?,
                )
            }
            "--mem-budget" => mem_budget = Some(parse_mem_budget(&value("--mem-budget")?)?),
            "--save-model" => save_model = Some(PathBuf::from(value("--save-model")?)),
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--outlier-policy" => {
                let raw = value("--outlier-policy")?;
                outlier_policy = OutlierPolicy::from_name(&raw).ok_or_else(|| {
                    format!("--outlier-policy: expected mark|nearest, got {raw:?}")
                })?;
            }
            "--on-error" => {
                on_error = match value("--on-error")?.as_str() {
                    "fail" => OnError::Fail,
                    "recover" => OnError::Recover,
                    other => {
                        return Err(format!("--on-error: expected fail|recover, got {other:?}"))
                    }
                }
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(Options {
        input: input.ok_or_else(|| format!("--input is required\n{USAGE}"))?,
        format,
        k: k.ok_or_else(|| format!("--k is required\n{USAGE}"))?,
        theta: theta.ok_or_else(|| format!("--theta is required\n{USAGE}"))?,
        label,
        ignore,
        missing,
        sample,
        min_goodness,
        seed,
        threads,
        summary_top,
        output,
        metrics,
        progress,
        log_level,
        time_budget,
        step_budget,
        mem_budget,
        on_error,
        save_model,
        outlier_policy,
        trace,
    })
}

/// Parses the `label` subcommand's flags (the leading `label` token has
/// already been consumed).
fn parse_label_args<I: IntoIterator<Item = String>>(args: I) -> Result<LabelOptions, String> {
    let mut model: Option<PathBuf> = None;
    let mut input: Option<PathBuf> = None;
    let mut format = Format::Table;
    let mut label = LabelPosition::None;
    let mut ignore = Vec::new();
    let mut missing = "?".to_owned();
    let mut output = None;
    let mut stream = false;
    let mut cache = None;
    let mut checkpoint = None;
    let mut chunk_rows = 4096usize;
    let mut mem_budget = None;
    let mut threads = 0usize;

    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--model" => model = Some(PathBuf::from(value("--model")?)),
            "--input" => input = Some(PathBuf::from(value("--input")?)),
            "--format" => {
                format = match value("--format")?.as_str() {
                    "table" => Format::Table,
                    "basket" => Format::Basket,
                    other => return Err(format!("--format: expected table|basket, got {other:?}")),
                }
            }
            "--label" => {
                label = match value("--label")?.as_str() {
                    "first" => LabelPosition::First,
                    "last" => LabelPosition::Last,
                    "none" => LabelPosition::None,
                    idx => LabelPosition::Column(
                        idx.parse()
                            .map_err(|_| format!("--label: bad value {idx:?}"))?,
                    ),
                }
            }
            "--ignore" => {
                for part in value("--ignore")?.split(',') {
                    ignore.push(part.trim().parse().map_err(|e| format!("--ignore: {e}"))?);
                }
            }
            "--missing" => missing = value("--missing")?,
            "--output" => output = Some(PathBuf::from(value("--output")?)),
            "--stream" => stream = true,
            "--cache" => cache = Some(PathBuf::from(value("--cache")?)),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--chunk-rows" => {
                chunk_rows = value("--chunk-rows")?
                    .parse()
                    .map_err(|e| format!("--chunk-rows: {e}"))?;
                if chunk_rows == 0 {
                    return Err("--chunk-rows must be at least 1".to_owned());
                }
            }
            "--mem-budget" => mem_budget = Some(parse_mem_budget(&value("--mem-budget")?)?),
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if stream && output.is_none() {
        return Err(format!("--stream requires --output\n{USAGE}"));
    }
    Ok(LabelOptions {
        model: model.ok_or_else(|| format!("--model is required\n{USAGE}"))?,
        input: input.ok_or_else(|| format!("--input is required\n{USAGE}"))?,
        format,
        label,
        ignore,
        missing,
        output,
        stream,
        cache,
        checkpoint,
        chunk_rows,
        mem_budget,
        threads,
    })
}

/// Dispatches between the fit entry point and the `label` subcommand.
fn parse_command<I: IntoIterator<Item = String>>(args: I) -> Result<Command, String> {
    let mut it = args.into_iter().peekable();
    if it.peek().map(String::as_str) == Some("label") {
        it.next();
        return parse_label_args(it).map(|o| Command::Label(Box::new(o)));
    }
    parse_args(it).map(|o| Command::Fit(Box::new(o)))
}

/// Writes the `rock-metrics/v1` document for this run, whatever the exit
/// path: `model`/`degradation` are whatever is known at that point
/// (zeros/absent when the pipeline failed before producing a model).
/// Metrics-write failures are reported but never mask the run's outcome.
fn write_metrics(
    opts: &Options,
    observer: &Observer,
    model: Option<&RockModel>,
    degradation: Option<&Degradation>,
    n: usize,
    total: Duration,
) {
    let Some(path) = &opts.metrics else {
        return;
    };
    let run = RunInfo {
        experiment: "cli".to_owned(),
        n,
        k: opts.k,
        theta: opts.theta,
        seed: opts.seed,
        sample_size: model.map_or(0, |m| m.stats().sample_size),
        clusters: model.map_or(0, |m| m.num_clusters()),
        outliers: model.map_or(0, |m| m.outliers().len()),
    };
    let mut metrics = Metrics::collect(observer, run, total);
    if let Some(d) = degradation {
        metrics = metrics.with_degradation(d.clone());
    }
    match std::fs::write(path, metrics.to_json() + "\n") {
        Ok(()) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!(
            "warning: could not write metrics to {}: {e}",
            path.display()
        ),
    }
}

fn run(opts: &Options) -> Result<(), RockError> {
    let (data, labels) = match opts.format {
        Format::Table => {
            let load = LoadConfig {
                label: opts.label,
                ignore_columns: opts.ignore.clone(),
                missing: opts.missing.clone(),
                mode: match opts.on_error {
                    OnError::Fail => IngestMode::Strict,
                    OnError::Recover => IngestMode::lenient(),
                },
                ..LoadConfig::default()
            };
            let loaded = load_labeled(&opts.input, &load)?;
            eprintln!(
                "loaded {} records x {} attributes ({:.1}% missing) from {}",
                loaded.table.len(),
                loaded.table.num_attributes(),
                100.0 * loaded.table.missing_fraction(),
                opts.input.display()
            );
            if !loaded.report.is_clean() {
                eprintln!(
                    "quarantined {} of {} rows ({:.1}%), first at line {}",
                    loaded.report.quarantined.len(),
                    loaded.report.rows_read,
                    100.0 * loaded.report.quarantine_fraction(),
                    loaded.report.quarantined[0].line
                );
            }
            (loaded.table.to_transactions(), loaded.labels)
        }
        Format::Basket => {
            let data = load_baskets(&opts.input, None)?;
            eprintln!(
                "loaded {} baskets over {} distinct items from {}",
                data.len(),
                data.universe(),
                opts.input.display()
            );
            (data, Vec::new())
        }
    };

    let mut builder = RockBuilder::new(opts.k, opts.theta)
        .sample(opts.sample)
        .seed(opts.seed)
        .threads(opts.threads);
    if let Some(g) = opts.min_goodness {
        builder = builder.min_goodness(g);
    }
    if let Some(path) = &opts.trace {
        builder = builder.trace(path);
    }
    let observer = if opts.progress || opts.log_level > Level::Off {
        Observer::with_sink(
            Arc::new(StderrSink::new(opts.progress)),
            opts.log_level.max(Level::Error),
        )
    } else {
        Observer::new()
    };

    let mut budget = RunBudget::unlimited();
    if let Some(steps) = opts.step_budget {
        budget = budget.steps(steps);
    }
    if let Some(secs) = opts.time_budget {
        budget = budget.wall(Duration::from_secs_f64(secs));
    }
    if let Some(bytes) = opts.mem_budget {
        budget = budget.memory(bytes);
    }
    let guard = Guard::new(budget);

    let outcome = match builder.build().fit_guarded(&data, &observer, &guard) {
        Ok(outcome) => outcome,
        Err(e) => {
            // Even a failed run flushes its telemetry so partial phase
            // timings and counters are not lost.
            write_metrics(opts, &observer, None, None, data.len(), guard.elapsed());
            return Err(e);
        }
    };
    let model = outcome.model();
    let stats = model.stats();
    eprintln!(
        "clustered sample of {} (avg degree {:.1}) into {} clusters, {} outliers, in {:?}",
        stats.sample_size,
        stats.avg_degree,
        model.num_clusters(),
        model.outliers().len(),
        stats.timings.total
    );

    // Report.
    if labels.is_empty() {
        println!("cluster sizes: {:?}", model.cluster_sizes());
    } else {
        let truth = densify_labels(&labels);
        let pred: Vec<Option<u32>> = model.assignments().iter().map(|a| a.map(|c| c.0)).collect();
        println!("cluster  size  class-breakdown");
        for (i, (size, classes)) in cluster_breakdown(&pred, &truth)?.iter().enumerate() {
            println!("C{i:<6}  {size:<4}  {classes:?}");
        }
        println!(
            "accuracy (optimal matching) = {:.4}, purity = {:.4}",
            matched_accuracy(&pred, &truth)?,
            purity(&pred, &truth)?
        );
    }
    if opts.summary_top > 0 {
        for (i, s) in ClusterSummary::compute_all(&data, model.clusters(), 0.5)
            .iter()
            .enumerate()
        {
            println!(
                "C{i} characteristic items: {}",
                s.describe(&data, opts.summary_top)
            );
        }
    }

    if let Some(path) = &opts.output {
        let mut out = Replacement::create(path)?;
        write_assignments(out.writer(), model.assignments()).map_err(RockError::io(path))?;
        out.commit()?;
        eprintln!("assignments written to {}", path.display());
    }

    if let Some(path) = &opts.save_model {
        let snapshot = ModelSnapshot::from_model(
            &data,
            model,
            opts.theta,
            MarketBasket.f(opts.theta),
            SimilarityKind::Jaccard,
            opts.outlier_policy,
            &LabelingConfig::default(),
            opts.seed,
        )?;
        snapshot.save(path)?;
        eprintln!(
            "model snapshot ({} clusters, {} representatives) written to {}",
            snapshot.num_clusters(),
            snapshot.representatives().total(),
            path.display()
        );
    }

    write_metrics(
        opts,
        &observer,
        Some(model),
        outcome.degradation(),
        data.len(),
        stats.timings.total,
    );

    if let Some(d) = outcome.degradation() {
        println!("degraded: {d}");
        match opts.on_error {
            OnError::Recover => {
                eprintln!("accepting partial partition (--on-error recover)");
            }
            OnError::Fail => {
                return Err(Trip {
                    reason: d.reason,
                    phase: d.phase,
                }
                .into());
            }
        }
    }
    Ok(())
}

/// Loads `opts.input` and maps every record into the snapshot's item-id
/// space (table cells or basket item names, re-interned through the
/// snapshot's vocabulary).
fn load_label_input(
    opts: &LabelOptions,
    snapshot: &ModelSnapshot,
) -> Result<Vec<Transaction>, RockError> {
    match opts.format {
        Format::Table => {
            let load = LoadConfig {
                label: opts.label,
                ignore_columns: opts.ignore.clone(),
                missing: opts.missing.clone(),
                mode: IngestMode::Strict,
                ..LoadConfig::default()
            };
            let loaded = load_labeled(&opts.input, &load)?;
            let table = &loaded.table;
            let attrs: Vec<_> = table.schema().iter().map(|(_, a)| a).collect();
            table
                .rows()
                .map(|row| {
                    // Recover the textual cells (the loader interned them
                    // into its own schema) and re-map them through the
                    // *snapshot's* vocabulary.
                    let cells: Vec<&str> = row
                        .iter()
                        .enumerate()
                        .map(|(j, cell)| {
                            cell.and_then(|code| attrs[j].value(code))
                                .unwrap_or(&opts.missing)
                        })
                        .collect();
                    snapshot.transaction_from_cells(&cells, &opts.missing)
                })
                .collect::<Result<_, _>>()
        }
        Format::Basket => {
            let data = load_baskets(&opts.input, None)?;
            let vocab = data.vocabulary().cloned().unwrap_or_default();
            data.iter()
                .map(|t| {
                    let names: Vec<&str> = t
                        .items()
                        .iter()
                        .filter_map(|&i| vocab.key(ItemId(i)).map(|k| k.value.as_str()))
                        .collect();
                    snapshot.transaction_from_basket(names)
                })
                .collect::<Result<_, _>>()
        }
    }
}

/// The `label --stream` path: ensure a `rock-cache/v1` cache exists for
/// the input, then label it chunk-by-chunk through the crash-safe
/// streaming pipeline. A pre-existing checkpoint resumes; a memory-budget
/// trip degrades to a valid partial assignments file, keeps the
/// checkpoint, and exits 6 so a rerun can finish.
fn run_label_stream(opts: &LabelOptions, snapshot: &ModelSnapshot) -> Result<(), RockError> {
    let Some(output) = &opts.output else {
        // parse_label_args rejects this; keep the error path total anyway.
        return Err(RockError::Io {
            path: "<stdout>".to_owned(),
            message: "--stream requires --output".to_owned(),
        });
    };
    let cache_path = opts
        .cache
        .clone()
        .unwrap_or_else(|| sibling(&opts.input, ".rockcache"));
    if !cache_path.exists() {
        let data = load_label_input(opts, snapshot)?;
        build_cache(&cache_path, snapshot.universe(), opts.chunk_rows, &data)?;
        eprintln!(
            "built cache {} ({} rows, {} rows/chunk)",
            cache_path.display(),
            data.len(),
            opts.chunk_rows
        );
    }
    let cache = DatasetCache::open(&cache_path)?;
    eprintln!(
        "streaming {} rows in {} chunks from {}",
        cache.total_rows(),
        cache.total_chunks(),
        cache_path.display()
    );

    let checkpoint = opts
        .checkpoint
        .clone()
        .unwrap_or_else(|| sibling(output, ".ckpt"));
    let mut budget = RunBudget::unlimited();
    if let Some(bytes) = opts.mem_budget {
        budget = budget.memory(bytes);
    }
    let guard = Guard::new(budget);
    let observer = Observer::new();
    let outcome = StreamLabeler::new(snapshot).threads(opts.threads).run(
        &cache,
        output,
        &checkpoint,
        &guard,
        &observer,
    )?;
    match outcome {
        StreamOutcome::Complete(stats) => {
            eprintln!(
                "labeled {} rows in {} chunks{}: {} assigned, {} outliers -> {}",
                stats.rows,
                stats.chunks_done,
                if stats.resumed { " (resumed)" } else { "" },
                stats.labeled,
                stats.outliers,
                output.display()
            );
            Ok(())
        }
        StreamOutcome::Degraded { stats, degradation } => {
            eprintln!(
                "degraded after {} of {} rows: {degradation}",
                stats.rows,
                cache.total_rows()
            );
            if checkpoint.exists() {
                eprintln!(
                    "partial labeling written to {}; checkpoint kept at {} — rerun to finish",
                    output.display(),
                    checkpoint.display()
                );
            } else {
                // Tripped before the first chunk was durable: nothing to
                // resume from, a rerun starts over.
                eprintln!(
                    "partial labeling written to {}; no chunk completed — rerun to start over",
                    output.display()
                );
            }
            Err(Trip {
                reason: degradation.reason,
                phase: degradation.phase,
            }
            .into())
        }
        StreamOutcome::Paused(stats) => {
            // Unreachable from the CLI (no chunk cap is set), but keep the
            // match total: report and let a rerun resume.
            eprintln!(
                "paused after {} chunks; rerun the same command to resume",
                stats.chunks_done
            );
            Ok(())
        }
    }
}

/// Batch-labels `opts.input` against a saved snapshot: maps every record
/// into item-id space via the snapshot's vocabulary, applies the §4.2
/// rule and writes `rock-assignments v1` to `--output` or stdout. No RNG
/// is involved — output is byte-identical across invocations.
fn run_label(opts: &LabelOptions) -> Result<(), RockError> {
    let snapshot = ModelSnapshot::load(&opts.model)?;
    eprintln!(
        "loaded rock-model/v1 snapshot: {} clusters, {} representatives, theta = {}, policy = {}",
        snapshot.num_clusters(),
        snapshot.representatives().total(),
        snapshot.theta(),
        snapshot.policy().name()
    );

    if opts.stream {
        return run_label_stream(opts, &snapshot);
    }

    let transactions = load_label_input(opts, &snapshot)?;

    let refs: Vec<_> = transactions.iter().collect();
    let assignments: Vec<Option<ClusterId>> = snapshot
        .label_chunk(&refs, opts.threads)
        .into_iter()
        .map(|label| label.map(|c| ClusterId(rock::core::cast::usize_to_u32(c))))
        .collect();
    let assigned = assignments.iter().filter(|a| a.is_some()).count();
    eprintln!(
        "labeled {} records: {} assigned, {} outliers",
        assignments.len(),
        assigned,
        assignments.len() - assigned
    );

    match &opts.output {
        Some(path) => {
            let mut out = Replacement::create(path)?;
            write_assignments(out.writer(), &assignments).map_err(RockError::io(path))?;
            out.commit()?;
            eprintln!("labels written to {}", path.display());
        }
        None => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            write_assignments(&mut out, &assignments)
                .map_err(RockError::io(Path::new("<stdout>")))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let command = match parse_command(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = match &command {
        Command::Fit(opts) => run(opts),
        Command::Label(opts) => run_label(opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn requires_mandatory_flags() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--input", "x.csv"]).is_err());
        assert!(parse(&["--input", "x.csv", "--k", "2"]).is_err());
        assert!(parse(&["--input", "x.csv", "--k", "2", "--theta", "0.5"]).is_ok());
    }

    #[test]
    fn parses_basket_format() {
        let o = parse(&[
            "--input", "b.txt", "--k", "2", "--theta", "0.4", "--format", "basket",
        ])
        .unwrap();
        assert_eq!(o.format, Format::Basket);
        assert!(
            parse(&["--input", "b.txt", "--k", "2", "--theta", "0.4", "--format", "json",])
                .is_err()
        );
    }

    #[test]
    fn end_to_end_on_basket_file() {
        let dir = std::env::temp_dir().join("rock-cli-basket-test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("baskets.txt");
        let mut text = String::new();
        for i in 0..6 {
            text.push_str(&format!("bread milk butter jam{i}\n"));
        }
        for i in 0..6 {
            text.push_str(&format!("charcoal burgers buns sauce{i}\n"));
        }
        std::fs::write(&input, text).unwrap();
        let opts = Options {
            input: input.clone(),
            format: Format::Basket,
            k: 2,
            theta: 0.4,
            label: LabelPosition::None,
            ignore: vec![],
            missing: "?".into(),
            sample: SampleStrategy::All,
            min_goodness: None,
            seed: 1,
            threads: 1,
            summary_top: 2,
            output: None,
            metrics: None,
            progress: false,
            log_level: Level::Off,
            time_budget: None,
            step_budget: None,
            mem_budget: None,
            on_error: OnError::Fail,
            save_model: None,
            outlier_policy: OutlierPolicy::Mark,
            trace: None,
        };
        run(&opts).unwrap();
        std::fs::remove_file(input).ok();
    }

    #[test]
    fn parses_full_flag_set() {
        let o = parse(&[
            "--input",
            "d.csv",
            "--k",
            "3",
            "--theta",
            "0.7",
            "--label",
            "first",
            "--ignore",
            "0,2",
            "--missing",
            "NA",
            "--sample",
            "500",
            "--min-goodness",
            "0.1",
            "--seed",
            "9",
            "--threads",
            "4",
            "--summary",
            "5",
            "--output",
            "out.txt",
            "--metrics",
            "m.json",
            "--progress",
            "--log-level",
            "debug",
        ])
        .unwrap();
        assert_eq!(o.k, 3);
        assert_eq!(o.theta, 0.7);
        assert_eq!(o.label, LabelPosition::First);
        assert_eq!(o.ignore, vec![0, 2]);
        assert_eq!(o.missing, "NA");
        assert_eq!(o.sample, SampleStrategy::Fixed(500));
        assert_eq!(o.min_goodness, Some(0.1));
        assert_eq!(o.seed, 9);
        assert_eq!(o.threads, 4);
        assert_eq!(o.summary_top, 5);
        assert_eq!(o.output, Some(PathBuf::from("out.txt")));
        assert_eq!(o.metrics, Some(PathBuf::from("m.json")));
        assert!(o.progress);
        assert_eq!(o.log_level, Level::Debug);
    }

    #[test]
    fn parses_budget_flags() {
        let o = parse(&[
            "--input",
            "d.csv",
            "--k",
            "2",
            "--theta",
            "0.5",
            "--time-budget",
            "1.5",
            "--step-budget",
            "100",
            "--mem-budget",
            "64M",
            "--on-error",
            "recover",
        ])
        .unwrap();
        assert_eq!(o.time_budget, Some(1.5));
        assert_eq!(o.step_budget, Some(100));
        assert_eq!(o.mem_budget, Some(64 << 20));
        assert_eq!(o.on_error, OnError::Recover);
    }

    #[test]
    fn budgets_default_to_unlimited_and_fail() {
        let o = parse(&["--input", "x", "--k", "2", "--theta", "0.5"]).unwrap();
        assert_eq!(o.time_budget, None);
        assert_eq!(o.step_budget, None);
        assert_eq!(o.mem_budget, None);
        assert_eq!(o.on_error, OnError::Fail);
    }

    #[test]
    fn mem_budget_suffixes() {
        assert_eq!(parse_mem_budget("1024").unwrap(), 1024);
        assert_eq!(parse_mem_budget("512K").unwrap(), 512 << 10);
        assert_eq!(parse_mem_budget("64m").unwrap(), 64 << 20);
        assert_eq!(parse_mem_budget("2G").unwrap(), 2 << 30);
        assert!(parse_mem_budget("lots").is_err());
        assert!(parse_mem_budget("99999999999G").is_err());
    }

    #[test]
    fn rejects_bad_budget_values() {
        assert!(parse(&[
            "--input",
            "x",
            "--k",
            "2",
            "--theta",
            "0.5",
            "--time-budget",
            "-1",
        ])
        .is_err());
        assert!(parse(&[
            "--input",
            "x",
            "--k",
            "2",
            "--theta",
            "0.5",
            "--on-error",
            "panic",
        ])
        .is_err());
    }

    #[test]
    fn degraded_run_recovers_with_metrics() {
        let dir = std::env::temp_dir().join("rock-cli-degraded-test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("toy.csv");
        let mut csv = String::new();
        for _ in 0..10 {
            csv.push_str("a,b,c,left\n");
            csv.push_str("x,y,z,right\n");
        }
        std::fs::write(&input, csv).unwrap();
        let metrics = dir.join("degraded-metrics.json");
        let mut opts = Options {
            input: input.clone(),
            format: Format::Table,
            k: 2,
            theta: 0.5,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            sample: SampleStrategy::All,
            min_goodness: None,
            seed: 1,
            threads: 1,
            summary_top: 0,
            output: None,
            metrics: Some(metrics.clone()),
            progress: false,
            log_level: Level::Off,
            time_budget: None,
            step_budget: Some(3),
            mem_budget: None,
            on_error: OnError::Recover,
            save_model: None,
            outlier_policy: OutlierPolicy::Mark,
            trace: None,
        };
        // Recover: the degraded run is accepted.
        run(&opts).unwrap();
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"degradation\""));
        assert!(json.contains("\"step-budget\""));
        // Fail: the same trip becomes a budget error (exit code 6).
        opts.on_error = OnError::Fail;
        let err = run(&opts).unwrap_err();
        assert!(matches!(err, RockError::BudgetExhausted { .. }));
        assert_eq!(err.exit_code(), 6);
        std::fs::remove_file(input).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn error_exit_still_writes_metrics() {
        let dir = std::env::temp_dir().join("rock-cli-error-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("tiny.csv");
        std::fs::write(&input, "a,b,one\nc,d,two\n").unwrap();
        let metrics = dir.join("error-metrics.json");
        let opts = Options {
            input: input.clone(),
            format: Format::Table,
            k: 99, // more clusters than points: validation error
            theta: 0.5,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            sample: SampleStrategy::All,
            min_goodness: None,
            seed: 1,
            threads: 1,
            summary_top: 0,
            output: None,
            metrics: Some(metrics.clone()),
            progress: false,
            log_level: Level::Off,
            time_budget: None,
            step_budget: None,
            mem_budget: None,
            on_error: OnError::Fail,
            save_model: None,
            outlier_policy: OutlierPolicy::Mark,
            trace: None,
        };
        let err = run(&opts).unwrap_err();
        assert!(matches!(err, RockError::InvalidK { .. }));
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"schema\": \"rock-metrics/v1\""));
        assert!(!json.contains("\"degradation\""));
        std::fs::remove_file(input).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn recover_mode_quarantines_dirty_input() {
        let dir = std::env::temp_dir().join("rock-cli-lenient-test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("dirty.csv");
        let mut csv = String::new();
        for _ in 0..10 {
            csv.push_str("a,b,c,left\n");
            csv.push_str("x,y,z,right\n");
        }
        csv.push_str("oops-short-row\n");
        std::fs::write(&input, csv).unwrap();
        let opts = Options {
            input: input.clone(),
            format: Format::Table,
            k: 2,
            theta: 0.5,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            sample: SampleStrategy::All,
            min_goodness: None,
            seed: 1,
            threads: 1,
            summary_top: 0,
            output: None,
            metrics: None,
            progress: false,
            log_level: Level::Off,
            time_budget: None,
            step_budget: None,
            mem_budget: None,
            on_error: OnError::Recover,
            save_model: None,
            outlier_policy: OutlierPolicy::Mark,
            trace: None,
        };
        run(&opts).unwrap();
        // Strict mode fails on the same file with a CSV error (exit 4).
        let strict = Options {
            on_error: OnError::Fail,
            ..opts
        };
        let err = run(&strict).unwrap_err();
        assert!(matches!(err, RockError::Csv { .. }));
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_file(input).ok();
    }

    #[test]
    fn parses_chernoff_and_label_index() {
        let o = parse(&[
            "--input",
            "d.csv",
            "--k",
            "2",
            "--theta",
            "0.5",
            "--chernoff",
            "100,0.25,0.05",
            "--label",
            "3",
        ])
        .unwrap();
        assert_eq!(
            o.sample,
            SampleStrategy::Chernoff {
                u_min: 100,
                xi: 0.25,
                delta: 0.05
            }
        );
        assert_eq!(o.label, LabelPosition::Column(3));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["--input", "x", "--k", "two", "--theta", "0.5"]).is_err());
        assert!(parse(&[
            "--input",
            "x",
            "--k",
            "2",
            "--theta",
            "0.5",
            "--chernoff",
            "1,2"
        ])
        .is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&[
            "--input",
            "x",
            "--k",
            "2",
            "--theta",
            "0.5",
            "--log-level",
            "verbose",
        ])
        .is_err());
    }

    #[test]
    fn parses_save_model_and_outlier_policy() {
        let o = parse(&[
            "--input",
            "d.csv",
            "--k",
            "2",
            "--theta",
            "0.5",
            "--save-model",
            "m.rockmodel",
            "--outlier-policy",
            "nearest",
            "--trace",
            "fit.trace",
        ])
        .unwrap();
        assert_eq!(o.save_model, Some(PathBuf::from("m.rockmodel")));
        assert_eq!(o.outlier_policy, OutlierPolicy::Nearest);
        assert_eq!(o.trace, Some(PathBuf::from("fit.trace")));
        // Defaults: no snapshot, paper's mark-as-outlier policy, no trace.
        let o = parse(&["--input", "d.csv", "--k", "2", "--theta", "0.5"]).unwrap();
        assert_eq!(o.save_model, None);
        assert_eq!(o.outlier_policy, OutlierPolicy::Mark);
        assert_eq!(o.trace, None);
        assert!(parse(&[
            "--input",
            "d.csv",
            "--k",
            "2",
            "--theta",
            "0.5",
            "--outlier-policy",
            "drop",
        ])
        .is_err());
    }

    #[test]
    fn parses_label_subcommand() {
        let cmd = parse_command(
            [
                "label",
                "--model",
                "m.rockmodel",
                "--input",
                "new.csv",
                "--format",
                "table",
                "--label",
                "last",
                "--missing",
                "NA",
                "--output",
                "out.txt",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let Command::Label(o) = cmd else {
            panic!("expected label subcommand");
        };
        assert_eq!(o.model, PathBuf::from("m.rockmodel"));
        assert_eq!(o.input, PathBuf::from("new.csv"));
        assert_eq!(o.label, LabelPosition::Last);
        assert_eq!(o.missing, "NA");
        assert_eq!(o.output, Some(PathBuf::from("out.txt")));
        // --model and --input are both required.
        assert!(parse_label_args(["--model".to_owned(), "m".to_owned()]).is_err());
        assert!(parse_label_args(["--input".to_owned(), "i".to_owned()]).is_err());
        // Without the leading `label` token we are in fit mode.
        assert!(matches!(
            parse_command(
                ["--input", "x", "--k", "2", "--theta", "0.5"]
                    .iter()
                    .map(|s| s.to_string())
            ),
            Ok(Command::Fit(_))
        ));
    }

    #[test]
    fn save_model_then_label_roundtrip() {
        let dir = std::env::temp_dir().join("rock-cli-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("toy.csv");
        let mut csv = String::new();
        for _ in 0..10 {
            csv.push_str("a,b,c,left\n");
            csv.push_str("x,y,z,right\n");
        }
        std::fs::write(&input, &csv).unwrap();
        let model_path = dir.join("toy.rockmodel");
        let opts = Options {
            input: input.clone(),
            format: Format::Table,
            k: 2,
            theta: 0.5,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            sample: SampleStrategy::All,
            min_goodness: None,
            seed: 1,
            threads: 1,
            summary_top: 0,
            output: None,
            metrics: None,
            progress: false,
            log_level: Level::Off,
            time_budget: None,
            step_budget: None,
            mem_budget: None,
            on_error: OnError::Fail,
            save_model: Some(model_path.clone()),
            outlier_policy: OutlierPolicy::Mark,
            trace: None,
        };
        run(&opts).unwrap();

        // The snapshot is loadable and canonically serialized:
        // load → save produces byte-identical content.
        let snap = ModelSnapshot::load(&model_path).unwrap();
        assert_eq!(snap.num_clusters(), 2);
        let original = std::fs::read(&model_path).unwrap();
        let resaved = dir.join("resaved.rockmodel");
        snap.save(&resaved).unwrap();
        assert_eq!(std::fs::read(&resaved).unwrap(), original);

        // Batch labeling assigns every record of the training file to a
        // cluster (the file has two clean blocks, no outliers).
        let labels_path = dir.join("labels.txt");
        let label_opts = LabelOptions {
            model: model_path.clone(),
            input: input.clone(),
            format: Format::Table,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            output: Some(labels_path.clone()),
            stream: false,
            cache: None,
            checkpoint: None,
            chunk_rows: 4096,
            mem_budget: None,
            threads: 1,
        };
        run_label(&label_opts).unwrap();
        let text = std::fs::read_to_string(&labels_path).unwrap();
        assert!(text.starts_with("rock-assignments v1"));
        assert!(text.contains("n=20 k=2 outliers=0"));

        // Labeling is deterministic: a second pass is byte-identical.
        let labels2 = dir.join("labels2.txt");
        run_label(&LabelOptions {
            output: Some(labels2.clone()),
            ..label_opts
        })
        .unwrap();
        assert_eq!(
            std::fs::read(&labels_path).unwrap(),
            std::fs::read(&labels2).unwrap()
        );

        for f in [&input, &model_path, &resaved, &labels_path, &labels2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn failed_output_writes_leave_no_temp_file() {
        let dir = std::env::temp_dir().join("rock-cli-failed-output");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("toy.csv");
        std::fs::write(&input, "a,b,c,left\nx,y,z,right\n".repeat(10)).unwrap();
        let model = dir.join("toy.rockmodel");
        // A non-empty directory at the output path: the rename fails.
        let output = dir.join("out.txt");
        std::fs::create_dir_all(output.join("inside")).unwrap();
        let opts = Options {
            input: input.clone(),
            format: Format::Table,
            k: 2,
            theta: 0.5,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            sample: SampleStrategy::All,
            min_goodness: None,
            seed: 1,
            threads: 1,
            summary_top: 0,
            output: Some(output.clone()),
            metrics: None,
            progress: false,
            log_level: Level::Off,
            time_budget: None,
            step_budget: None,
            mem_budget: None,
            on_error: OnError::Fail,
            save_model: None,
            outlier_policy: OutlierPolicy::Mark,
            trace: None,
        };
        let err = run(&opts).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(!sibling(&output, ".tmp").exists());
        run(&Options {
            output: None,
            save_model: Some(model.clone()),
            ..opts
        })
        .unwrap();
        let err = run_label(&LabelOptions {
            model,
            input,
            format: Format::Table,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            output: Some(output.clone()),
            stream: false,
            cache: None,
            checkpoint: None,
            chunk_rows: 4096,
            mem_budget: None,
            threads: 1,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(!sibling(&output, ".tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_streaming_label_flags() {
        let args = [
            "--model",
            "m.rockmodel",
            "--input",
            "big.baskets",
            "--format",
            "basket",
            "--output",
            "out.txt",
            "--stream",
            "--cache",
            "big.rockcache",
            "--checkpoint",
            "run.ckpt",
            "--chunk-rows",
            "1000",
            "--mem-budget",
            "64M",
            "--threads",
            "2",
        ];
        let o = parse_label_args(args.iter().map(|s| s.to_string())).unwrap();
        assert!(o.stream);
        assert_eq!(o.cache, Some(PathBuf::from("big.rockcache")));
        assert_eq!(o.checkpoint, Some(PathBuf::from("run.ckpt")));
        assert_eq!(o.chunk_rows, 1000);
        assert_eq!(o.mem_budget, Some(64 << 20));
        assert_eq!(o.threads, 2);
        // Defaults.
        let o = parse_label_args(
            ["--model", "m", "--input", "i"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(!o.stream);
        assert_eq!(o.chunk_rows, 4096);
        // --stream without --output is a usage error, as is --chunk-rows 0.
        assert!(parse_label_args(
            ["--model", "m", "--input", "i", "--stream"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
        assert!(parse_label_args(
            ["--model", "m", "--input", "i", "--chunk-rows", "0"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
    }

    #[test]
    fn streamed_label_matches_batch_label() {
        let dir = std::env::temp_dir().join("rock-cli-stream-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("toy.csv");
        let mut csv = String::new();
        for _ in 0..10 {
            csv.push_str("a,b,c,left\n");
            csv.push_str("x,y,z,right\n");
        }
        std::fs::write(&input, &csv).unwrap();
        let model_path = dir.join("toy.rockmodel");
        run(&Options {
            input: input.clone(),
            format: Format::Table,
            k: 2,
            theta: 0.5,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            sample: SampleStrategy::All,
            min_goodness: None,
            seed: 1,
            threads: 1,
            summary_top: 0,
            output: None,
            metrics: None,
            progress: false,
            log_level: Level::Off,
            time_budget: None,
            step_budget: None,
            mem_budget: None,
            on_error: OnError::Fail,
            save_model: Some(model_path.clone()),
            outlier_policy: OutlierPolicy::Mark,
            trace: None,
        })
        .unwrap();

        let batch_out = dir.join("batch.txt");
        let base = LabelOptions {
            model: model_path.clone(),
            input: input.clone(),
            format: Format::Table,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            output: Some(batch_out.clone()),
            stream: false,
            cache: None,
            checkpoint: None,
            chunk_rows: 7, // short final chunk exercised
            mem_budget: None,
            threads: 1,
        };
        run_label(&base).unwrap();

        let stream_out = dir.join("stream.txt");
        run_label(&LabelOptions {
            output: Some(stream_out.clone()),
            stream: true,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(
            std::fs::read(&batch_out).unwrap(),
            std::fs::read(&stream_out).unwrap(),
            "streamed output must be byte-identical to batch output"
        );
        // The cache was built beside the input and the checkpoint removed.
        assert!(sibling(&input, ".rockcache").exists());
        assert!(!sibling(&stream_out, ".ckpt").exists());
        // A second streamed run reuses the cache and stays identical.
        let stream2 = dir.join("stream2.txt");
        run_label(&LabelOptions {
            output: Some(stream2.clone()),
            stream: true,
            ..base
        })
        .unwrap();
        assert_eq!(
            std::fs::read(&stream_out).unwrap(),
            std::fs::read(&stream2).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn label_subcommand_rejects_corrupt_snapshot() {
        let dir = std::env::temp_dir().join("rock-cli-corrupt-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("bad.rockmodel");
        std::fs::write(&model_path, "rock-model/v7\ngarbage\n").unwrap();
        let err = run_label(&LabelOptions {
            model: model_path.clone(),
            input: dir.join("whatever.csv"),
            format: Format::Table,
            label: LabelPosition::None,
            ignore: vec![],
            missing: "?".into(),
            output: None,
            stream: false,
            cache: None,
            checkpoint: None,
            chunk_rows: 4096,
            mem_budget: None,
            threads: 1,
        })
        .unwrap_err();
        assert!(matches!(err, RockError::SnapshotVersion { .. }));
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_file(model_path).ok();
    }

    #[test]
    fn end_to_end_on_temp_csv() {
        let dir = std::env::temp_dir().join("rock-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("toy.csv");
        let mut csv = String::new();
        for _ in 0..10 {
            csv.push_str("a,b,c,left\n");
            csv.push_str("x,y,z,right\n");
        }
        std::fs::write(&input, csv).unwrap();
        let output = dir.join("assignments.txt");
        let metrics = dir.join("metrics.json");
        let opts = Options {
            input: input.clone(),
            format: Format::Table,
            k: 2,
            theta: 0.5,
            label: LabelPosition::Last,
            ignore: vec![],
            missing: "?".into(),
            sample: SampleStrategy::All,
            min_goodness: None,
            seed: 1,
            threads: 1,
            summary_top: 3,
            output: Some(output.clone()),
            metrics: Some(metrics.clone()),
            progress: false,
            log_level: Level::Off,
            time_budget: None,
            step_budget: None,
            mem_budget: None,
            on_error: OnError::Fail,
            save_model: None,
            outlier_policy: OutlierPolicy::Mark,
            trace: None,
        };
        run(&opts).unwrap();
        let written = std::fs::read_to_string(&output).unwrap();
        assert!(written.starts_with("rock-assignments v1"));
        assert!(written.contains("n=20 k=2"));
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"schema\": \"rock-metrics/v1\""));
        assert!(json.contains("\"similarity_comparisons\""));
        std::fs::remove_file(input).ok();
        std::fs::remove_file(output).ok();
        std::fs::remove_file(metrics).ok();
    }
}
