//! Crash-safe out-of-core labeling: the streaming counterpart of the
//! paper's §4.2 "label the data residing on disk" pass.
//!
//! The batch pipeline materializes every residual point before labeling.
//! At a million rows and up that is exactly where categorical clusterers
//! fall over, so [`StreamLabeler`] labels fixed-size chunks pulled from a
//! [`ChunkSource`] (typically a `rock-cache/v1` dataset cache) through
//! the existing parallel labeling kernel, appending assignment lines to
//! a *partial* output file and writing a `rock-checkpoint/v1` record
//! after every durably labeled chunk. Memory is bounded by one chunk
//! buffer, which streams into the `stream_buffers` gauge so a
//! `--mem-budget` ceiling trips honestly mid-stream.
//!
//! **Crash safety.** The durability order per chunk is: append body
//! lines → sync → atomically replace the checkpoint. A crash between the
//! two leaves a partial file *longer* than the checkpoint records, which
//! resume truncates back to the recorded length and verifies against the
//! recorded running FNV state — so a process killed at *any* point
//! resumes to assignments byte-identical to an uninterrupted run. Power
//! loss is not covered: the checkpoint is an unsynced [`crate::file`]
//! replacement, atomic against process death only ([`StreamCheckpoint::save`](crate::checkpoint::StreamCheckpoint::save)).
//! A corrupt or inconsistent checkpoint fails closed
//! ([`RockError::CheckpointInvalid`], exit code 4); it never silently
//! restarts.
//!
//! **Degradation.** The guard is polled before each chunk read and again
//! after the chunk buffer is gauged. A trip (cancellation, deadline,
//! memory ceiling, injection) finalizes the rows labeled so far into a
//! *valid* `rock-assignments v1` file and returns
//! [`StreamOutcome::Degraded`] with the machine-readable
//! [`Degradation`]; the checkpoint stays on disk so a later run can
//! still finish the job.
//!
//! **Fault tolerance.** Every disk operation runs under a
//! [`RetryPolicy`]: transient [`RockError::Io`] failures (or injected
//! ones — see [`StreamLabeler::write_probe`]) retry on a deterministic
//! backoff schedule and only surface after exhaustion. A failed append
//! is rolled back by truncating to the pre-chunk length before the next
//! attempt, so retries never duplicate lines.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cast;
use crate::checkpoint::StreamCheckpoint;
use crate::data::Transaction;
use crate::error::{Result, RockError};
use crate::export;
use crate::file::{self, Replacement};
use crate::guard::{Degradation, Guard, Trip};
use crate::hash::{fnv1a64, Fnv1a64};
use crate::retry::{RetryOutcome, RetryPolicy};
use crate::snapshot::ModelSnapshot;
use crate::telemetry::trace::Payload;
use crate::telemetry::{MemoryGauges, Observer, Phase, PipelineCounters};

/// A chunked, re-readable supply of transactions — the disk side of the
/// out-of-core pipeline. Implemented by the `rock-cache/v1` dataset
/// cache in `rock-datasets` and by [`MemoryChunkSource`] for tests.
pub trait ChunkSource {
    /// Number of chunks. Every chunk except possibly the last holds the
    /// same number of rows.
    fn total_chunks(&self) -> u64;
    /// Total rows across all chunks.
    fn total_rows(&self) -> u64;
    /// Content identity of the source. A checkpoint records it and
    /// resume refuses to continue against a source with a different
    /// identity.
    fn identity(&self) -> u64;
    /// Reads chunk `index` (0-based).
    ///
    /// # Errors
    /// [`RockError::Io`] for transient read failures (retried by the
    /// labeler), [`RockError::CacheInvalid`] for corruption (not
    /// retried).
    fn read_chunk(&self, index: u64) -> Result<Vec<Transaction>>;
}

/// An in-memory [`ChunkSource`] over a vector of transactions: the chaos
/// suite's stand-in for the on-disk cache, and a convenience for callers
/// that already hold the data but want the checkpointed output path.
#[derive(Debug, Clone)]
pub struct MemoryChunkSource {
    rows: Vec<Transaction>,
    chunk_rows: usize,
    identity: u64,
}

impl MemoryChunkSource {
    /// Wraps `rows`, splitting them into chunks of `chunk_rows` (the
    /// last chunk may be short). `chunk_rows` is clamped to at least 1.
    pub fn new(rows: Vec<Transaction>, chunk_rows: usize) -> Self {
        let mut h = Fnv1a64::new();
        for t in &rows {
            for &item in t.items() {
                h.update(&item.to_le_bytes());
            }
            h.update(b";");
        }
        MemoryChunkSource {
            rows,
            chunk_rows: chunk_rows.max(1),
            identity: h.finish(),
        }
    }
}

impl ChunkSource for MemoryChunkSource {
    fn total_chunks(&self) -> u64 {
        cast::usize_to_u64(self.rows.len().div_ceil(self.chunk_rows))
    }

    fn total_rows(&self) -> u64 {
        cast::usize_to_u64(self.rows.len())
    }

    fn identity(&self) -> u64 {
        self.identity
    }

    fn read_chunk(&self, index: u64) -> Result<Vec<Transaction>> {
        let start = cast::u64_to_usize(index) * self.chunk_rows;
        if start >= self.rows.len() {
            return Err(RockError::CacheInvalid {
                message: format!("chunk {index} out of range"),
            });
        }
        let end = (start + self.chunk_rows).min(self.rows.len());
        Ok(self.rows[start..end].to_vec())
    }
}

/// Final tallies of a streaming run (also the final header's fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Rows labeled and durably written.
    pub rows: u64,
    /// Rows assigned to some cluster.
    pub labeled: u64,
    /// Rows marked outliers.
    pub outliers: u64,
    /// One past the highest cluster id assigned (`0` when none).
    pub k: u64,
    /// Chunks durably labeled across all runs of this job.
    pub chunks_done: u64,
    /// `true` when this run continued from an existing checkpoint.
    pub resumed: bool,
}

/// How a streaming labeling run concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOutcome {
    /// Every chunk was labeled; the final output is in place and the
    /// checkpoint and partial files are gone.
    Complete(StreamStats),
    /// The guard tripped mid-stream. The output file holds a *valid*
    /// labeling of the rows processed so far; the checkpoint and partial
    /// files remain so a later run can finish.
    Degraded {
        /// Tallies at the trip point.
        stats: StreamStats,
        /// The machine-readable trip report.
        degradation: Degradation,
    },
    /// The run stopped deliberately after
    /// [`StreamLabeler::stop_after_chunks`] chunks — the chaos suite's
    /// deterministic crash surrogate. Checkpoint and partial files
    /// remain; no final output was written.
    Paused(StreamStats),
}

/// Pre-write hook for fault injection: called with the destination path
/// before every disk write the labeler performs. Returning an error
/// simulates the write failing; the retry layer handles it exactly like
/// a real fault.
pub type WriteProbe = Arc<dyn Fn(&Path) -> Result<()> + Send + Sync>;

/// The streaming labeler. Construct with [`StreamLabeler::new`], tune
/// with the builder methods, then call [`run`](StreamLabeler::run).
pub struct StreamLabeler<'a> {
    snapshot: &'a ModelSnapshot,
    threads: usize,
    retry: RetryPolicy,
    stop_after_chunks: Option<u64>,
    write_probe: Option<WriteProbe>,
}

impl std::fmt::Debug for StreamLabeler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamLabeler")
            .field("threads", &self.threads)
            .field("retry", &self.retry)
            .field("stop_after_chunks", &self.stop_after_chunks)
            .field("write_probe", &self.write_probe.is_some())
            .finish()
    }
}

impl<'a> StreamLabeler<'a> {
    /// A labeler for `snapshot` with default retry policy, one labeling
    /// thread per CPU, and no stop point.
    pub fn new(snapshot: &'a ModelSnapshot) -> Self {
        StreamLabeler {
            snapshot,
            threads: 0,
            retry: RetryPolicy::default(),
            stop_after_chunks: None,
            write_probe: None,
        }
    }

    /// Labeling threads per chunk (`0` = one per CPU, capped at 16).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The retry policy wrapping every disk read and write.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Stop after durably labeling `chunks` chunks *in this run* and
    /// return [`StreamOutcome::Paused`]. This is the deterministic crash
    /// surrogate (the files on disk are exactly what a `kill -9` right
    /// after the checkpoint rename would leave), mirroring
    /// [`Guard::inject_trip_at`] for budget trips.
    pub fn stop_after_chunks(mut self, chunks: u64) -> Self {
        self.stop_after_chunks = Some(chunks);
        self
    }

    /// Installs a fault-injection probe consulted before every disk
    /// write (partial appends, checkpoint saves, the final rename).
    pub fn write_probe(mut self, probe: WriteProbe) -> Self {
        self.write_probe = Some(probe);
        self
    }

    fn probe(&self, path: &Path) -> Result<()> {
        match &self.write_probe {
            Some(p) => p(path),
            None => Ok(()),
        }
    }

    /// Labels every chunk of `source`, writing the final
    /// `rock-assignments v1` file to `output` and maintaining the resume
    /// record at `checkpoint_path`. See the module docs for the
    /// crash-safety, degradation and retry contracts.
    ///
    /// # Errors
    /// [`RockError::Io`] after retry exhaustion,
    /// [`RockError::CheckpointInvalid`] when an existing checkpoint
    /// cannot be trusted (fails closed), [`RockError::CacheInvalid`]
    /// for source corruption. On error the checkpoint (if any) is left
    /// in place, so a rerun resumes rather than restarts.
    pub fn run(
        &self,
        source: &dyn ChunkSource,
        output: &Path,
        checkpoint_path: &Path,
        guard: &Guard,
        observer: &Observer,
    ) -> Result<StreamOutcome> {
        let cache_id = source.identity();
        let model_id = self.snapshot.fingerprint();
        let total_chunks = source.total_chunks();
        let partial = partial_path(output);

        // --- Resume or fresh start -----------------------------------
        let (mut cp, resumed) = if checkpoint_path.exists() {
            let cp = StreamCheckpoint::load(checkpoint_path)?;
            self.validate_resume(&cp, cache_id, model_id, total_chunks, &partial)?;
            PipelineCounters::add(&observer.counters().stream_resumes, 1);
            (cp, true)
        } else {
            let fresh = StreamCheckpoint {
                cache_id,
                model_id,
                chunks_done: 0,
                chunks_total: total_chunks,
                rows_done: 0,
                labeled: 0,
                outliers: 0,
                kmax: 0,
                partial_bytes: 0,
                partial_fnv: Fnv1a64::new().finish(),
            };
            // Any orphaned partial (crash before the first checkpoint)
            // is garbage: start it empty. Retried like every other disk
            // write — a transient fault on the very first byte must not
            // kill a fresh run.
            match self.retry.run(guard, observer, Phase::Labeling, || {
                self.probe(&partial)?;
                std::fs::write(&partial, b"").map_err(RockError::io(&partial))
            })? {
                RetryOutcome::Done(()) => {}
                RetryOutcome::Tripped(trip) => {
                    // Tripped before anything durable existed: make the
                    // empty partial so the degraded output is still a
                    // valid (zero-row) labeling.
                    std::fs::write(&partial, b"").map_err(RockError::io(&partial))?;
                    return self.degrade(&fresh, false, &partial, output, guard, trip);
                }
            }
            (fresh, false)
        };

        let mut hasher = Fnv1a64::from_state(cp.partial_fnv);
        let mut chunks_this_run = 0u64;
        // One chunk's assignment lines, reused across chunks.
        let mut text: Vec<u8> = Vec::new();

        // --- Chunk loop ----------------------------------------------
        // (A `for` over a fixed range: guard trips are checked at the
        // top of each iteration, so the loop is bounded both ways.)
        for index in cp.chunks_done..total_chunks {
            if let Some(trip) = guard.checkpoint(Phase::Labeling, observer) {
                return self.degrade(&cp, resumed, &partial, output, guard, trip);
            }
            let span = observer.tracer().begin();

            // Read the chunk (retried on transient faults).
            let chunk = match self.retry.run(guard, observer, Phase::Labeling, || {
                source.read_chunk(index)
            })? {
                RetryOutcome::Done(c) => c,
                RetryOutcome::Tripped(trip) => {
                    return self.degrade(&cp, resumed, &partial, output, guard, trip)
                }
            };

            // Gauge the chunk buffer, then re-check the guard so a
            // memory ceiling trips honestly mid-stream.
            let chunk_bytes = estimate_chunk_bytes(&chunk);
            MemoryGauges::observe(&observer.memory().stream_buffers, chunk_bytes);
            if let Some(trip) = guard.checkpoint(Phase::Labeling, observer) {
                return self.degrade(&cp, resumed, &partial, output, guard, trip);
            }

            // Label through the parallel kernel (deterministic order).
            let refs: Vec<&Transaction> = chunk.iter().collect();
            let labels = self.snapshot.label_chunk(&refs, self.threads);

            // Render this chunk's assignment lines.
            text.clear();
            let mut labeled = 0u64;
            let mut outliers = 0u64;
            let mut kmax = cp.kmax;
            for (j, l) in labels.iter().enumerate() {
                let cluster = l.map(cast::usize_to_u64);
                export::render_line(&mut text, cp.rows_done + cast::usize_to_u64(j), cluster);
                match cluster {
                    Some(c) => {
                        labeled += 1;
                        kmax = kmax.max(c + 1);
                    }
                    None => outliers += 1,
                }
            }

            // Durably append (rolled back and retried on failure), then
            // atomically advance the checkpoint. A crash between the two
            // leaves a long partial that resume truncates.
            let pre_len = cp.partial_bytes;
            match self.retry.run(guard, observer, Phase::Labeling, || {
                self.probe(&partial)?;
                append_at(&partial, pre_len, &text)
            })? {
                RetryOutcome::Done(()) => {}
                RetryOutcome::Tripped(trip) => {
                    return self.degrade(&cp, resumed, &partial, output, guard, trip)
                }
            }
            hasher.update(&text);
            let next = StreamCheckpoint {
                chunks_done: index + 1,
                rows_done: cp.rows_done + cast::usize_to_u64(labels.len()),
                labeled: cp.labeled + labeled,
                outliers: cp.outliers + outliers,
                kmax,
                partial_bytes: pre_len + cast::usize_to_u64(text.len()),
                partial_fnv: hasher.finish(),
                ..cp
            };
            match self.retry.run(guard, observer, Phase::Labeling, || {
                self.probe(checkpoint_path)?;
                next.save(checkpoint_path)
            })? {
                RetryOutcome::Done(()) => {}
                RetryOutcome::Tripped(trip) => {
                    // The append is durable but the checkpoint is not:
                    // degrade from the *previous* checkpoint, exactly as
                    // a resume would.
                    return self.degrade(&cp, resumed, &partial, output, guard, trip);
                }
            }
            cp = next;
            chunks_this_run += 1;

            let counters = observer.counters();
            PipelineCounters::add(&counters.chunks_labeled, 1);
            PipelineCounters::add(&counters.checkpoint_writes, 1);
            PipelineCounters::add(
                &counters.labeling_evaluations,
                cast::usize_to_u64(labels.len())
                    * cast::usize_to_u64(self.snapshot.representatives().total()),
            );
            PipelineCounters::add(&counters.points_labeled, labeled);
            if let Some(s) = span {
                observer.tracer().end(
                    s,
                    "stream.chunk",
                    Some(Phase::Labeling),
                    0,
                    Payload::new()
                        .count("chunk", index)
                        .count("rows", cast::usize_to_u64(labels.len()))
                        .count("labeled", labeled)
                        .count("bytes", chunk_bytes),
                );
            }
            observer.progress(Phase::Labeling, cp.rows_done, source.total_rows());

            if self.stop_after_chunks == Some(chunks_this_run) && cp.chunks_done < total_chunks {
                return Ok(StreamOutcome::Paused(stats_of(&cp, resumed)));
            }
        }

        // --- Finalize -------------------------------------------------
        self.finalize(&cp, &partial, output, guard, observer)?;
        // Durability order: drop the checkpoint first. A crash in
        // between leaves an orphaned partial with no checkpoint, which a
        // fresh start simply truncates — never a checkpoint pointing at
        // missing bytes.
        remove_file(checkpoint_path)?;
        remove_file(&partial)?;
        Ok(StreamOutcome::Complete(stats_of(&cp, resumed)))
    }

    /// Validates a loaded checkpoint against the live inputs and repairs
    /// the partial file (truncating a torn tail). Fails closed.
    fn validate_resume(
        &self,
        cp: &StreamCheckpoint,
        cache_id: u64,
        model_id: u64,
        total_chunks: u64,
        partial: &Path,
    ) -> Result<()> {
        let bad = |message: String| RockError::CheckpointInvalid { message };
        if cp.cache_id != cache_id {
            return Err(bad(format!(
                "checkpoint was written for cache {:016x}, not {:016x}",
                cp.cache_id, cache_id
            )));
        }
        if cp.model_id != model_id {
            return Err(bad(format!(
                "checkpoint was written for model {:016x}, not {:016x}",
                cp.model_id, model_id
            )));
        }
        if cp.chunks_total != total_chunks {
            return Err(bad(format!(
                "checkpoint expects {} chunks, source has {total_chunks}",
                cp.chunks_total
            )));
        }
        let io = RockError::io(partial);
        let len = match std::fs::metadata(partial) {
            Ok(m) => m.len(),
            Err(_) if cp.partial_bytes == 0 => {
                // Nothing durable yet; recreate the empty partial.
                std::fs::write(partial, b"").map_err(RockError::io(partial))?;
                0
            }
            Err(e) => return Err(io(e)),
        };
        if len < cp.partial_bytes {
            return Err(bad(format!(
                "partial output shorter than recorded: {len} bytes on disk, checkpoint says {}",
                cp.partial_bytes
            )));
        }
        if len > cp.partial_bytes {
            // Torn tail from a crash after append, before checkpoint.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(partial)
                .map_err(&io)?;
            f.set_len(cp.partial_bytes).map_err(&io)?;
            f.sync_all().map_err(&io)?;
        }
        let mut body = Vec::new();
        std::fs::File::open(partial)
            .map_err(&io)?
            .take(cp.partial_bytes)
            .read_to_end(&mut body)
            .map_err(&io)?;
        let actual = fnv1a64(&body);
        if actual != cp.partial_fnv {
            return Err(bad(format!(
                "partial output hash {actual:016x} does not match recorded {:016x}",
                cp.partial_fnv
            )));
        }
        Ok(())
    }

    /// Writes the final `rock-assignments v1` file: header, then the
    /// partial body streamed across — byte-identical to
    /// `write_assignments` over the same labels. A synced
    /// [`Replacement`]; retried on transient faults.
    fn finalize(
        &self,
        cp: &StreamCheckpoint,
        partial: &Path,
        output: &Path,
        guard: &Guard,
        observer: &Observer,
    ) -> Result<()> {
        match self.retry.run(guard, observer, Phase::Labeling, || {
            self.probe(output)?;
            let mut out = Replacement::create(output)?;
            export::write_header(out.writer(), cp.rows_done, cp.kmax, cp.outliers)
                .map_err(RockError::io(output))?;
            let body = std::fs::File::open(partial).map_err(RockError::io(partial))?;
            // A `BufWriter<File>` destination keeps std's in-kernel copy.
            std::io::copy(&mut body.take(cp.partial_bytes), out.writer())
                .map_err(RockError::io(output))?;
            out.sync()?;
            out.commit()
        })? {
            RetryOutcome::Done(()) => Ok(()),
            // Finalize runs after the guard already allowed the last
            // chunk (or on the degrade path, after a trip was recorded):
            // a trip here still leaves the durable partial+checkpoint,
            // so surface it as the trip's error rather than lose the
            // distinction.
            RetryOutcome::Tripped(trip) => Err(trip.into()),
        }
    }

    /// The degraded exit: finalize the durable prefix into a valid
    /// output file, keep checkpoint + partial for a later resume, and
    /// report the trip.
    fn degrade(
        &self,
        cp: &StreamCheckpoint,
        resumed: bool,
        partial: &Path,
        output: &Path,
        guard: &Guard,
        trip: Trip,
    ) -> Result<StreamOutcome> {
        // The degrade path must not consult the tripped guard again, so
        // finalize under a fresh unlimited guard (pure disk work).
        let free = Guard::unlimited();
        self.finalize(cp, partial, output, &free, &Observer::new())?;
        Ok(StreamOutcome::Degraded {
            stats: stats_of(cp, resumed),
            degradation: guard.degradation(trip),
        })
    }
}

fn stats_of(cp: &StreamCheckpoint, resumed: bool) -> StreamStats {
    StreamStats {
        rows: cp.rows_done,
        labeled: cp.labeled,
        outliers: cp.outliers,
        k: cp.kmax,
        chunks_done: cp.chunks_done,
        resumed,
    }
}

/// Sibling path holding the headerless assignment body while the stream
/// is in flight (`<output>.partial`).
pub fn partial_path(output: &Path) -> PathBuf {
    file::sibling(output, ".partial")
}

/// Estimated heap bytes of a chunk buffer: per row, the `Vec<u32>` items
/// plus container overhead. Feeds the `stream_buffers` memory gauge.
fn estimate_chunk_bytes(chunk: &[Transaction]) -> u64 {
    let per_row_overhead = cast::usize_to_u64(std::mem::size_of::<Transaction>());
    chunk
        .iter()
        .map(|t| cast::usize_to_u64(t.len()) * 4 + per_row_overhead)
        .sum()
}

fn remove_file(path: &Path) -> Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(RockError::io(path)(e)),
    }
}

/// Truncates `path` to `at` bytes and writes `bytes` there, syncing to
/// disk. Re-running after a torn attempt is safe: the truncate discards
/// whatever the failed attempt left behind.
fn append_at(path: &Path, at: u64, bytes: &[u8]) -> Result<()> {
    let io = RockError::io(path);
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(&io)?;
    f.set_len(at).map_err(&io)?;
    f.seek(SeekFrom::Start(at)).map_err(&io)?;
    f.write_all(bytes).map_err(&io)?;
    f.sync_data().map_err(&io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Vocabulary;
    use crate::goodness::{LinkExponent, MarketBasket};
    use crate::labeling::Representatives;
    use crate::snapshot::{OutlierPolicy, SimilarityKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_snapshot() -> ModelSnapshot {
        let mut vocab = Vocabulary::new();
        for name in ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "noise"] {
            vocab.intern_basket(name);
        }
        let sets = vec![
            vec![Transaction::new([0, 1, 2]), Transaction::new([0, 1, 3])],
            vec![Transaction::new([4, 5, 6]), Transaction::new([4, 5, 7])],
        ];
        ModelSnapshot::new(
            0.4,
            MarketBasket.f(0.4),
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            9,
            Some(vocab),
            Representatives::from_sets(sets),
        )
        .unwrap()
    }

    fn test_rows(n: u32) -> Vec<Transaction> {
        (0..n)
            .map(|i| match i % 3 {
                0 => Transaction::new([0, 1, 2]),
                1 => Transaction::new([4, 5, 6]),
                _ => Transaction::new([8]),
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rock-stream-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch_reference(snapshot: &ModelSnapshot, rows: &[Transaction]) -> Vec<u8> {
        let refs: Vec<&Transaction> = rows.iter().collect();
        let labels = snapshot.label_chunk(&refs, 1);
        let assignments: Vec<Option<crate::data::ClusterId>> = labels
            .iter()
            .map(|l| l.map(|c| crate::data::ClusterId(cast::usize_to_u32(c))))
            .collect();
        let mut buf = Vec::new();
        crate::export::write_assignments(&mut buf, &assignments).unwrap();
        buf
    }

    #[test]
    fn streaming_matches_batch_write_assignments() {
        let dir = temp_dir("match-batch");
        let snap = test_snapshot();
        let rows = test_rows(100);
        let source = MemoryChunkSource::new(rows.clone(), 7);
        let out = dir.join("a.rockassign");
        let ckpt = dir.join("a.rockckpt");
        let obs = Observer::new();
        let outcome = StreamLabeler::new(&snap)
            .threads(1)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap();
        let StreamOutcome::Complete(stats) = outcome else {
            panic!("expected completion, got {outcome:?}");
        };
        assert_eq!(stats.rows, 100);
        assert_eq!(stats.chunks_done, 15);
        assert!(!stats.resumed);
        assert_eq!(std::fs::read(&out).unwrap(), batch_reference(&snap, &rows));
        // Clean completion removes the working files.
        assert!(!ckpt.exists());
        assert!(!partial_path(&out).exists());
        assert_eq!(obs.counters().snapshot().chunks_labeled, 15);
        assert_eq!(obs.counters().snapshot().checkpoint_writes, 15);
        assert!(obs.memory().snapshot().stream_buffers > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pause_and_resume_is_byte_identical() {
        let dir = temp_dir("resume");
        let snap = test_snapshot();
        let rows = test_rows(90);
        let source = MemoryChunkSource::new(rows.clone(), 10);
        let reference = batch_reference(&snap, &rows);
        // Kill after every possible chunk boundary, resume to the end.
        for kill_after in 1..9u64 {
            let out = dir.join(format!("k{kill_after}.rockassign"));
            let ckpt = dir.join(format!("k{kill_after}.rockckpt"));
            let obs = Observer::new();
            let paused = StreamLabeler::new(&snap)
                .stop_after_chunks(kill_after)
                .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
                .unwrap();
            let StreamOutcome::Paused(stats) = paused else {
                panic!("expected pause, got {paused:?}");
            };
            assert_eq!(stats.chunks_done, kill_after);
            assert!(ckpt.exists());
            assert!(!out.exists());
            let resumed = StreamLabeler::new(&snap)
                .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
                .unwrap();
            let StreamOutcome::Complete(stats) = resumed else {
                panic!("expected completion, got {resumed:?}");
            };
            assert!(stats.resumed);
            assert_eq!(std::fs::read(&out).unwrap(), reference, "kill={kill_after}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_partial_tail_is_truncated_on_resume() {
        let dir = temp_dir("torn");
        let snap = test_snapshot();
        let rows = test_rows(60);
        let source = MemoryChunkSource::new(rows.clone(), 20);
        let out = dir.join("t.rockassign");
        let ckpt = dir.join("t.rockckpt");
        let obs = Observer::new();
        StreamLabeler::new(&snap)
            .stop_after_chunks(1)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap();
        // Simulate a crash mid-append: garbage past the durable length.
        let partial = partial_path(&out);
        let mut bytes = std::fs::read(&partial).unwrap();
        bytes.extend_from_slice(b"41 torn-garbage");
        std::fs::write(&partial, &bytes).unwrap();
        let outcome = StreamLabeler::new(&snap)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap();
        assert!(matches!(outcome, StreamOutcome::Complete(_)));
        assert_eq!(std::fs::read(&out).unwrap(), batch_reference(&snap, &rows));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_partial_body_fails_closed() {
        let dir = temp_dir("corrupt-partial");
        let snap = test_snapshot();
        let source = MemoryChunkSource::new(test_rows(60), 20);
        let out = dir.join("c.rockassign");
        let ckpt = dir.join("c.rockckpt");
        let obs = Observer::new();
        StreamLabeler::new(&snap)
            .stop_after_chunks(1)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap();
        // Flip a byte *inside* the durable prefix.
        let partial = partial_path(&out);
        let mut bytes = std::fs::read(&partial).unwrap();
        bytes[0] = b'9';
        std::fs::write(&partial, &bytes).unwrap();
        let err = StreamLabeler::new(&snap)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap_err();
        assert!(matches!(err, RockError::CheckpointInvalid { .. }));
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_against_wrong_inputs_fails_closed() {
        let dir = temp_dir("wrong-inputs");
        let snap = test_snapshot();
        let source = MemoryChunkSource::new(test_rows(60), 20);
        let out = dir.join("w.rockassign");
        let ckpt = dir.join("w.rockckpt");
        let obs = Observer::new();
        StreamLabeler::new(&snap)
            .stop_after_chunks(1)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap();
        // A different dataset: identity mismatch.
        let other = MemoryChunkSource::new(test_rows(61), 20);
        let err = StreamLabeler::new(&snap)
            .run(&other, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap_err();
        assert!(matches!(err, RockError::CheckpointInvalid { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn guard_trip_degrades_with_valid_partial_output() {
        let dir = temp_dir("degrade");
        let snap = test_snapshot();
        let rows = test_rows(90);
        let source = MemoryChunkSource::new(rows, 10);
        let out = dir.join("d.rockassign");
        let ckpt = dir.join("d.rockckpt");
        let obs = Observer::new();
        // A tiny memory ceiling: the first chunk's buffer gauge trips it.
        let guard = Guard::new(crate::guard::RunBudget::unlimited().memory(8));
        let outcome = StreamLabeler::new(&snap)
            .run(&source, &out, &ckpt, &guard, &obs)
            .unwrap();
        let StreamOutcome::Degraded { stats, degradation } = outcome else {
            panic!("expected degradation, got {outcome:?}");
        };
        assert_eq!(stats.rows, 0);
        assert_eq!(degradation.phase, Phase::Labeling);
        assert!(matches!(
            degradation.reason,
            crate::guard::TripReason::MemoryBudget { .. }
        ));
        // The output is a valid (empty) labeling.
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("rock-assignments v1\nn=0 "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_faults_are_retried_to_completion() {
        let dir = temp_dir("write-faults");
        let snap = test_snapshot();
        let rows = test_rows(50);
        let source = MemoryChunkSource::new(rows.clone(), 10);
        let out = dir.join("f.rockassign");
        let ckpt = dir.join("f.rockckpt");
        let obs = Observer::new();
        let calls = Arc::new(AtomicU64::new(0));
        let probe_calls = Arc::clone(&calls);
        let probe: WriteProbe = Arc::new(move |path: &Path| {
            // Every third write attempt fails.
            if probe_calls.fetch_add(1, Ordering::Relaxed) % 3 == 2 {
                Err(RockError::Io {
                    path: path.display().to_string(),
                    message: "injected write fault".to_owned(),
                })
            } else {
                Ok(())
            }
        });
        let outcome = StreamLabeler::new(&snap)
            .retry(RetryPolicy {
                max_attempts: 4,
                base_delay_ms: 0,
                max_delay_ms: 0,
            })
            .write_probe(probe)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap();
        assert!(matches!(outcome, StreamOutcome::Complete(_)));
        assert_eq!(std::fs::read(&out).unwrap(), batch_reference(&snap, &rows));
        assert!(obs.counters().snapshot().io_retries > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_write_faults_surface_io_and_keep_the_checkpoint() {
        let dir = temp_dir("write-exhaust");
        let snap = test_snapshot();
        let rows = test_rows(50);
        let source = MemoryChunkSource::new(rows.clone(), 10);
        let out = dir.join("x.rockassign");
        let ckpt = dir.join("x.rockckpt");
        let obs = Observer::new();
        // Two chunks succeed, then every write fails.
        StreamLabeler::new(&snap)
            .stop_after_chunks(2)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap();
        let probe: WriteProbe = Arc::new(|path: &Path| {
            Err(RockError::Io {
                path: path.display().to_string(),
                message: "disk on fire".to_owned(),
            })
        });
        let err = StreamLabeler::new(&snap)
            .retry(RetryPolicy {
                max_attempts: 2,
                base_delay_ms: 0,
                max_delay_ms: 0,
            })
            .write_probe(probe)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap_err();
        assert!(matches!(err, RockError::Io { .. }));
        assert_eq!(err.exit_code(), 3);
        // The checkpoint survives the failure: a healthy rerun finishes.
        assert!(ckpt.exists());
        let outcome = StreamLabeler::new(&snap)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &obs)
            .unwrap();
        assert!(matches!(outcome, StreamOutcome::Complete(_)));
        assert_eq!(std::fs::read(&out).unwrap(), batch_reference(&snap, &rows));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_finalize_whose_rename_fails_leaves_no_temp_file() {
        let dir = temp_dir("failed-rename");
        let snap = test_snapshot();
        let source = MemoryChunkSource::new(test_rows(30), 10);
        // A non-empty directory at the output path: the rename fails.
        let out = dir.join("x.rockassign");
        std::fs::create_dir_all(out.join("inside")).unwrap();
        let ckpt = dir.join("x.rockckpt");
        let err = StreamLabeler::new(&snap)
            .run(&source, &out, &ckpt, &Guard::unlimited(), &Observer::new())
            .unwrap_err();
        assert!(matches!(err, RockError::Io { .. }), "{err}");
        assert!(!file::sibling(&out, ".tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_source_chunks_cover_all_rows() {
        let source = MemoryChunkSource::new(test_rows(25), 10);
        assert_eq!(source.total_chunks(), 3);
        assert_eq!(source.total_rows(), 25);
        assert_eq!(source.read_chunk(0).unwrap().len(), 10);
        assert_eq!(source.read_chunk(2).unwrap().len(), 5);
        assert!(source.read_chunk(3).is_err());
        // Identity is content-sensitive.
        let other = MemoryChunkSource::new(test_rows(26), 10);
        assert_ne!(source.identity(), other.identity());
    }
}
