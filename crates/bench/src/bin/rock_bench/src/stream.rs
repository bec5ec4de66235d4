//! `stream-label`: out-of-core labeling — a rock-cache/v1 file streamed
//! through `StreamLabeler` under a 64 MiB guard, with a durable append
//! and a checkpoint after every chunk.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

use rock_core::prelude::*;
use rock_core::stream::partial_path;
use rock_datasets::cache::{CacheBuilder, DatasetCache};
use rock_datasets::synthetic::BasketModel;

use crate::fit::{ratio, trace_fit, FitSpec};
use crate::harness::{
    layer, repeat_for, repeat_setup, samples, timed, Ctx, Run, MIN_REPS, THREADS,
};

/// Planted structure: 4 clusters over disjoint 20-item pools, 6 to 10
/// items per basket.
const CLUSTERS: usize = 4;
const ITEMS_EACH: u32 = 20;
const BASKET_SIZE: (usize, usize) = (6, 10);
/// Rows generated per slice, bounding generation memory.
const SLICE_ROWS: usize = 62_500;
/// Rows per cache chunk; each chunk gets one durable append and one
/// checkpoint.
const CHUNK_ROWS: usize = 15_625;
/// Memory ceiling of every streaming pass.
const MEM_BUDGET: u64 = 64 << 20;
/// The snapshot is fitted on this many rows at θ = 0.2, which sits
/// between within-pool Jaccard (≈0.25) and cross-pool (0).
const SNAPSHOT_ROWS: usize = 1_000;
const THETA: f64 = 0.2;

/// One generation slice: the same planted pools, a slice-specific seed.
fn slice(seed: u64, index: u64, rows: usize) -> TransactionSet {
    BasketModel::disjoint(CLUSTERS, rows / CLUSTERS, ITEMS_EACH, BASKET_SIZE)
        .seed(seed ^ (0x9e37_79b9 * (index + 1)))
        .generate()
        .0
}

/// Everything set-up builds.
struct Setup {
    cache: DatasetCache,
    sample: TransactionSet,
    spec: FitSpec,
    snapshot: ModelSnapshot,
    /// Seconds spent building the cache.
    cache_s: f64,
}

fn setup(ctx: &Ctx, rows: usize) -> Result<Setup, String> {
    let path = ctx.dir.join("stream.rockcache");
    let (cache, cache_s) = timed(|| -> Result<DatasetCache, String> {
        let universe = CLUSTERS * ITEMS_EACH as usize;
        let mut builder = CacheBuilder::create(&path, universe, ctx.scale(CHUNK_ROWS, 256))
            .map_err(|e| e.to_string())?;
        let mut remaining = rows;
        for index in 0.. {
            if remaining == 0 {
                break;
            }
            let ts = slice(ctx.seed, index, SLICE_ROWS.min(remaining).max(CLUSTERS));
            for t in ts.iter().take(remaining) {
                builder.push(t).map_err(|e| e.to_string())?;
            }
            remaining -= remaining.min(ts.len());
        }
        builder.finish().map_err(|e| e.to_string())
    });
    let cache = cache?;
    let sample = slice(ctx.seed, 0, ctx.scale(SNAPSHOT_ROWS, 400));
    let spec = FitSpec {
        k: CLUSTERS,
        theta: THETA,
        sample: SampleStrategy::All,
        // The default quarter of each cluster (about 250 representatives)
        // makes `label_chunk` most of a pass. With a few dozen, appending
        // and syncing the output took nearly half of it, and the disk's
        // speed drifts so much that passes varied by a third between runs.
        labeling: LabelingConfig::default(),
        seed: ctx.seed,
    };
    let model = spec.fit(&sample)?;
    let snapshot = spec.snapshot(&sample, &model)?;
    Ok(Setup {
        cache,
        sample,
        spec,
        snapshot,
        cache_s,
    })
}

/// Files of one streaming pass.
struct Files {
    output: PathBuf,
    checkpoint: PathBuf,
}

impl Files {
    fn new(dir: &Path) -> Files {
        Files {
            output: dir.join("stream.rockassign"),
            checkpoint: dir.join("stream.ckpt"),
        }
    }

    /// Removes every file a pass leaves, so the next one starts fresh.
    fn clear(&self) {
        for p in [&self.output, &self.checkpoint, &partial_path(&self.output)] {
            std::fs::remove_file(p).ok();
        }
    }

    /// The output's two header lines and the FNV-1a digest of the rest,
    /// read in blocks so the check does not hold the file in memory.
    fn read_output(&self) -> Result<Output, String> {
        let io = |e: std::io::Error| format!("{}: {e}", self.output.display());
        let mut reader = BufReader::new(File::open(&self.output).map_err(io)?);
        let mut header = String::new();
        for _ in 0..2 {
            reader.read_line(&mut header).map_err(io)?;
        }
        let mut body = Fnv1a64::new();
        let mut block = vec![0; 1 << 16];
        loop {
            let got = reader.read(&mut block).map_err(io)?;
            if got == 0 {
                return Ok(Output {
                    header,
                    body: body.finish(),
                });
            }
            body.update(&block[..got]);
        }
    }
}

/// A rock-assignments v1 file, as checked: its header, and a digest of
/// its body lines.
#[derive(Debug, PartialEq, Eq)]
struct Output {
    header: String,
    body: u64,
}

/// One streaming pass from scratch. Returns its stats and seconds; a pass
/// that does not complete is an error.
fn pass(s: &Setup, files: &Files, observer: &Observer) -> Result<(StreamStats, f64), String> {
    files.clear();
    let guard = Guard::new(RunBudget::unlimited().memory(MEM_BUDGET));
    let labeler = StreamLabeler::new(&s.snapshot).threads(THREADS);
    let (outcome, secs) =
        timed(|| labeler.run(&s.cache, &files.output, &files.checkpoint, &guard, observer));
    match outcome.map_err(|e| format!("stream: {e}"))? {
        StreamOutcome::Complete(stats) => Ok((stats, secs)),
        other => Err(format!("stream did not complete: {other:?}")),
    }
}

/// The output a pass must write: `label_chunk` over every cached chunk,
/// rendered as rock-assignments v1. Also returns the seconds spent in
/// `read_chunk` and in `label_chunk`.
fn expected(ctx: &Ctx, s: &Setup) -> Result<(Output, f64, f64), String> {
    let (mut read_s, mut kernel_s) = (0.0, 0.0);
    let (mut rows, mut kmax, mut outliers) = (0u64, 0usize, 0u64);
    let mut body = Fnv1a64::new();
    for index in 0..s.cache.total_chunks() {
        let (chunk, t) = layer(&ctx.tracer, "cache.read_chunk", None, || {
            s.cache.read_chunk(index)
        });
        read_s += t;
        let chunk = chunk.map_err(|e| e.to_string())?;
        let points: Vec<&Transaction> = chunk.iter().collect();
        let (labels, t) = layer(&ctx.tracer, "snapshot.label_chunk", None, || {
            s.snapshot.label_chunk(&points, THREADS)
        });
        kernel_s += t;
        for label in labels {
            let line = match label {
                Some(c) => {
                    kmax = kmax.max(c + 1);
                    format!("{rows} {c}\n")
                }
                None => {
                    outliers += 1;
                    format!("{rows} -\n")
                }
            };
            body.update(line.as_bytes());
            rows += 1;
        }
    }
    let output = Output {
        header: format!("rock-assignments v1\nn={rows} k={kmax} outliers={outliers}\n"),
        body: body.finish(),
    };
    Ok((output, read_s, kernel_s))
}

/// Runs the workload.
pub(crate) fn run(ctx: &Ctx) -> Result<Run, String> {
    let rows = ctx.scale(500_000, 8_192);
    let mut run = Run::default();
    let (s, setup_s) = repeat_setup(ctx, || setup(ctx, rows))?;
    let files = Files::new(&ctx.dir);
    run.report.note(format!(
        "cache: {} rows in {} chunks; snapshot: {} clusters, {} representatives, theta = {THETA}",
        s.cache.total_rows(),
        s.cache.total_chunks(),
        s.snapshot.num_clusters(),
        s.snapshot.representatives().total()
    ));

    // Checked pass (untimed): its output must equal label_chunk over the
    // cache; every timed pass must then write the same bytes.
    let (want, read_s, kernel_s) = expected(ctx, &s)?;
    let observer = Observer::new();
    let (checked, _) = layer(&ctx.tracer, "stream.pass", None, || {
        pass(&s, &files, &observer)
    });
    let (stats, stream_s) = checked?;
    let reference = files.read_output()?;
    run.check(reference == want, || {
        "stream output differs from label_chunk over the cache".into()
    });
    run.report
        .note(format!("digest output body {:016x}", reference.body));

    if ctx.traced() {
        trace_fit(ctx, &mut run, &s.sample, &s.spec)?;
        let c = observer.counters().snapshot();
        let r = &mut run.report;
        let cache_bytes = std::fs::metadata(s.cache.path())
            .map_err(|e| e.to_string())?
            .len();
        r.set("cache.bytes", cache_bytes as f64);
        r.set("cache.build_share", s.cache_s / setup_s.iter().sum::<f64>());
        r.set("stream.read_share", read_s / stream_s);
        r.set("stream.kernel_share", kernel_s / stream_s);
        r.set(
            "stream.write_share",
            (stream_s - read_s - kernel_s) / stream_s,
        );
        r.set("stream.chunks", c.chunks_labeled as f64);
        r.set("stream.checkpoint_writes", c.checkpoint_writes as f64);
        r.set("stream.io_retries", c.io_retries as f64);
        r.set(
            "stream.peak_buffer_bytes",
            observer.memory().snapshot().stream_buffers as f64,
        );
        r.note(format!(
            "stream.s {stream_s:.4} = cache read {read_s:.4} + label_chunk {kernel_s:.4} + write (residual); {} rows, {:.3} labeled",
            stats.rows,
            ratio(stats.labeled, stats.rows)
        ));
        files.clear();
        return Ok(run);
    }

    let mut times = Vec::new();
    repeat_for(ctx.seconds, MIN_REPS, || {
        let (_, secs) = pass(&s, &files, &Observer::new())?;
        run.check(files.read_output()? == reference, || {
            "stream output changed between passes".into()
        });
        times.push(secs);
        Ok(())
    })?;
    files.clear();
    let passes = samples(times.iter().map(|t| t * 1e3).collect(), "pass time")?;
    // Rows per second of the median pass, as for the fits.
    let rows_per_s = stats.rows as f64 * 1e3 / passes.median();
    run.report
        .set_median("setup_s", samples(setup_s, "set-up time")?);
    run.report.set_median("latency_p50_ms", passes);
    run.report.set("throughput", rows_per_s);
    Ok(run)
}
