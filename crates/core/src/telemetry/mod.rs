//! Dependency-free observability for the ROCK pipeline.
//!
//! The paper's evaluation (§4–5) is entirely about *where time and memory
//! go* — neighbor computation vs. link computation vs. agglomeration — so
//! the reproduction instruments every phase. The subsystem is hand-rolled
//! on `std` only (no `tracing`/`log`):
//!
//! * **Phase spans** — [`Observer::phase`] opens a [`PhaseSpan`] for one of
//!   the six pipeline [`Phase`]s; wall time accumulates per phase and
//!   start/end [`Event`]s flow to the attached [`EventSink`].
//! * **Pipeline counters** — [`PipelineCounters`] holds atomic tallies of
//!   the quantities the paper's complexity analysis is written in:
//!   similarity comparisons, neighbor edges, link-kernel steps, link-table
//!   entries, heap pushes/pops, merges, labeling evaluations. Hot loops
//!   accumulate locally and flush per row/chunk, so counting is always on
//!   and costs well under 1%.
//! * **Memory accounting** — [`MemoryGauges`] records estimated bytes held
//!   by the neighbor graph, link table, merge heaps and dendrogram
//!   (see [`MemoryEstimate`]).
//! * **Metrics export** — [`Metrics::collect`] snapshots an observer into
//!   a plain struct serialized as JSON ([`Metrics::to_json`]) or one-line
//!   NDJSON ([`Metrics::to_ndjson_line`]) by the built-in writer in
//!   [`json`]. The schema is versioned (`rock-metrics/v1`).
//!
//! ```
//! use rock_core::prelude::*;
//! use rock_core::telemetry::Observer;
//!
//! let data: TransactionSet = vec![
//!     Transaction::new([0, 1, 2]),
//!     Transaction::new([0, 1, 3]),
//!     Transaction::new([10, 11, 12]),
//!     Transaction::new([10, 11, 13]),
//! ].into_iter().collect();
//!
//! let obs = Observer::new();
//! let outcome = RockBuilder::new(2, 0.4)
//!     .build()
//!     .fit_guarded(&data, &obs, &Guard::unlimited())?;
//! assert!(!outcome.is_degraded());
//! let c = obs.counters().snapshot();
//! assert_eq!(c.similarity_comparisons, 4 * 3); // every ordered pair
//! assert!(obs.memory().snapshot().neighbor_graph > 0);
//! # Ok::<(), rock_core::RockError>(())
//! ```

pub mod json;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use json::JsonObj;

/// Schema identifier embedded in every metrics document.
pub const METRICS_SCHEMA: &str = "rock-metrics/v1";

/// The six instrumented pipeline phases, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Drawing the random sample (paper §4.2).
    Sample,
    /// Neighbor-graph computation on the sample.
    Neighbors,
    /// Up-front outlier filtering of the neighbor graph (paper §4.3).
    Outliers,
    /// Link-table computation.
    Links,
    /// Agglomerative merging.
    Agglomerate,
    /// Labeling of outside-sample points.
    Labeling,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Sample,
        Phase::Neighbors,
        Phase::Outliers,
        Phase::Links,
        Phase::Agglomerate,
        Phase::Labeling,
    ];

    /// Stable lowercase name (used in events, logs and the JSON schema).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sample => "sample",
            Phase::Neighbors => "neighbors",
            Phase::Outliers => "outliers",
            Phase::Links => "links",
            Phase::Agglomerate => "agglomerate",
            Phase::Labeling => "labeling",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Sample => 0,
            Phase::Neighbors => 1,
            Phase::Outliers => 2,
            Phase::Links => 3,
            Phase::Agglomerate => 4,
            Phase::Labeling => 5,
        }
    }
}

/// Verbosity of [`Event::Message`] logging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No messages.
    #[default]
    Off,
    /// Failures only.
    Error,
    /// Phase-level narration (default for `--log-level info`).
    Info,
    /// Per-step details.
    Debug,
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Level::Off),
            "error" => Ok(Level::Error),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!("expected off|error|info|debug, got {other:?}")),
        }
    }
}

/// A telemetry event delivered to an [`EventSink`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A phase span opened.
    PhaseStart {
        /// The phase.
        phase: Phase,
    },
    /// A phase span closed.
    PhaseEnd {
        /// The phase.
        phase: Phase,
        /// Wall time between start and end.
        wall: Duration,
    },
    /// Work progressed within a phase (`done` out of `total` units).
    Progress {
        /// The phase reporting progress.
        phase: Phase,
        /// Units completed.
        done: u64,
        /// Total units expected.
        total: u64,
    },
    /// A log message.
    Message {
        /// Severity.
        level: Level,
        /// The message text.
        text: String,
    },
}

/// Receives [`Event`]s. Implementations must be thread-safe: the neighbor
/// and labeling phases emit progress from worker threads.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn record(&self, event: &Event);
}

/// Default sink: stores every event in memory, in arrival order.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        // Recover from a poisoned lock: a panicking recorder thread must
        // not take the telemetry snapshot down with it.
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl EventSink for RecordingSink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
    }
}

/// Sink that narrates events on stderr — the `--progress` /
/// `--log-level` implementation of the CLI and experiment binaries.
#[derive(Debug, Clone)]
pub struct StderrSink {
    /// Print `Progress` events (phase percentage lines).
    pub show_progress: bool,
}

impl StderrSink {
    /// Creates a sink; `show_progress` enables per-chunk progress lines.
    pub fn new(show_progress: bool) -> Self {
        StderrSink { show_progress }
    }
}

impl EventSink for StderrSink {
    fn record(&self, event: &Event) {
        match event {
            Event::PhaseStart { phase } => eprintln!("[rock] {} ...", phase.name()),
            Event::PhaseEnd { phase, wall } => {
                eprintln!("[rock] {} done in {}", phase.name(), format_secs(*wall));
            }
            Event::Progress { phase, done, total } if self.show_progress => {
                eprintln!("[rock] {} {done}/{total}", phase.name());
            }
            Event::Progress { .. } => {}
            Event::Message { level, text } => {
                eprintln!("[rock] {}: {text}", format!("{level:?}").to_lowercase());
            }
        }
    }
}

/// Atomic tallies of the pipeline's unit operations.
///
/// Counter semantics (also documented in `README.md` › Observability):
///
/// | counter | one unit is |
/// |---|---|
/// | `similarity_comparisons` | one `sim(p, q)` evaluation in the neighbor phase (ordered pairs: a full graph build on `n` points performs `n·(n−1)`) |
/// | `neighbor_edges` | one directed edge stored in the neighbor graph |
/// | `neighbor_candidates` | one candidate row surfaced (deduplicated) by the inverted-index join's posting lists (DESIGN.md §17; 0 on brute-force runs) |
/// | `neighbor_candidates_pruned` | one join candidate discarded by the exact size filter before any intersection work |
/// | `neighbor_pairs_verified` | one join candidate whose intersection was computed and checked against θ (each is also one `similarity_comparisons` unit) |
/// | `link_kernel_steps` | one visit of the link kernel's inner loop (`Σ_i Σ_{l∈N(i)} deg(l)` — the paper's `Σ deg²` cost) |
/// | `link_entries` | one nonzero upper-triangle entry in the link table |
/// | `heap_pushes` | one key pushed onto a merge-engine heap: a global-heap `insert_or_update`, or a key of a built local heap (made by its build, or added by a repair); an unbuilt heap's best is never counted |
/// | `heap_pops` | one key leaving a merge-engine heap: a global-heap removal, or a key leaving a built local heap (dropped as stale, or held when the heap goes back to unbuilt or its slot merges, retires or is pruned) |
/// | `heap_anomalies` | one internal-consistency anomaly inside the global heap (a `remove` whose position index and entry array disagreed) — always 0 on a healthy run |
/// | `merges` | one cluster merge |
/// | `points_sampled` | one point drawn into the clustering sample |
/// | `outliers_filtered` | one point dropped by the up-front neighbor filter |
/// | `outliers_pruned` | one point discarded by mid-merge pruning |
/// | `labeling_evaluations` | one point-vs-representative similarity evaluation in the labeling phase |
/// | `points_labeled` | one outside-sample point assigned to a cluster |
/// | `chunks_labeled` | one dataset-cache chunk labeled end-to-end by the streaming labeler |
/// | `io_retries` | one retried disk read/write in the streaming pipeline (a failure that a later attempt absorbed) |
/// | `stream_resumes` | one streaming run resumed from an on-disk checkpoint instead of starting fresh |
/// | `checkpoint_writes` | one durable `rock-checkpoint/v1` write (atomic temp-file + rename) |
#[derive(Debug, Default)]
pub struct PipelineCounters {
    /// See the table in the type docs.
    pub similarity_comparisons: AtomicU64,
    /// Directed neighbor edges stored.
    pub neighbor_edges: AtomicU64,
    /// Deduplicated candidates surfaced by the inverted-index join.
    pub neighbor_candidates: AtomicU64,
    /// Join candidates discarded by the exact size filter.
    pub neighbor_candidates_pruned: AtomicU64,
    /// Join candidates verified by an exact intersection count.
    pub neighbor_pairs_verified: AtomicU64,
    /// Inner-kernel visits of link computation.
    pub link_kernel_steps: AtomicU64,
    /// Nonzero link-table entries.
    pub link_entries: AtomicU64,
    /// Heap insert/update operations in the merge engine.
    pub heap_pushes: AtomicU64,
    /// Heap removal operations in the merge engine.
    pub heap_pops: AtomicU64,
    /// Internal-consistency anomalies recorded by merge-engine heaps.
    pub heap_anomalies: AtomicU64,
    /// Merges performed.
    pub merges: AtomicU64,
    /// Points drawn into the clustering sample.
    pub points_sampled: AtomicU64,
    /// Points dropped by the up-front neighbor filter.
    pub outliers_filtered: AtomicU64,
    /// Points discarded by mid-merge pruning.
    pub outliers_pruned: AtomicU64,
    /// Similarity evaluations performed while labeling.
    pub labeling_evaluations: AtomicU64,
    /// Outside-sample points labeled into a cluster.
    pub points_labeled: AtomicU64,
    /// Dataset-cache chunks labeled by the streaming labeler.
    pub chunks_labeled: AtomicU64,
    /// Disk reads/writes retried by the streaming retry policy.
    pub io_retries: AtomicU64,
    /// Streaming runs resumed from an on-disk checkpoint.
    pub stream_resumes: AtomicU64,
    /// Durable checkpoint writes performed by the streaming labeler.
    pub checkpoint_writes: AtomicU64,
}

/// Plain-value snapshot of [`PipelineCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on PipelineCounters
pub struct CounterSnapshot {
    pub similarity_comparisons: u64,
    pub neighbor_edges: u64,
    pub neighbor_candidates: u64,
    pub neighbor_candidates_pruned: u64,
    pub neighbor_pairs_verified: u64,
    pub link_kernel_steps: u64,
    pub link_entries: u64,
    pub heap_pushes: u64,
    pub heap_pops: u64,
    pub heap_anomalies: u64,
    pub merges: u64,
    pub points_sampled: u64,
    pub outliers_filtered: u64,
    pub outliers_pruned: u64,
    pub labeling_evaluations: u64,
    pub points_labeled: u64,
    pub chunks_labeled: u64,
    pub io_retries: u64,
    pub stream_resumes: u64,
    pub checkpoint_writes: u64,
}

impl PipelineCounters {
    /// Adds `n` to a counter (relaxed; tallies have no ordering needs).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CounterSnapshot {
            similarity_comparisons: get(&self.similarity_comparisons),
            neighbor_edges: get(&self.neighbor_edges),
            neighbor_candidates: get(&self.neighbor_candidates),
            neighbor_candidates_pruned: get(&self.neighbor_candidates_pruned),
            neighbor_pairs_verified: get(&self.neighbor_pairs_verified),
            link_kernel_steps: get(&self.link_kernel_steps),
            link_entries: get(&self.link_entries),
            heap_pushes: get(&self.heap_pushes),
            heap_pops: get(&self.heap_pops),
            heap_anomalies: get(&self.heap_anomalies),
            merges: get(&self.merges),
            points_sampled: get(&self.points_sampled),
            outliers_filtered: get(&self.outliers_filtered),
            outliers_pruned: get(&self.outliers_pruned),
            labeling_evaluations: get(&self.labeling_evaluations),
            points_labeled: get(&self.points_labeled),
            chunks_labeled: get(&self.chunks_labeled),
            io_retries: get(&self.io_retries),
            stream_resumes: get(&self.stream_resumes),
            checkpoint_writes: get(&self.checkpoint_writes),
        }
    }
}

/// Estimated heap memory held by the pipeline's big structures, in bytes.
/// Gauges keep the **maximum** value ever stored, so a snapshot after a
/// run reports each structure at its largest.
#[derive(Debug, Default)]
pub struct MemoryGauges {
    /// Neighbor-graph adjacency lists.
    pub neighbor_graph: AtomicU64,
    /// Link-table sparse rows, plus the graph's bit matrix when the
    /// bit-matrix link kernel builds one.
    pub link_table: AtomicU64,
    /// Merge-engine state: the global heap, the local heaps (keys of
    /// built ones only) and the link rows, observed after construction
    /// and at the end of the run.
    pub heaps: AtomicU64,
    /// Recorded merge history / dendrogram steps.
    pub dendrogram: AtomicU64,
    /// Streaming-labeler chunk buffers (the transactions of the chunk
    /// currently in flight), so `--mem-budget` trips stay honest while
    /// labeling data that never fully materializes.
    pub stream_buffers: AtomicU64,
}

/// Plain-value snapshot of [`MemoryGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on MemoryGauges
pub struct MemorySnapshot {
    pub neighbor_graph: u64,
    pub link_table: u64,
    pub heaps: u64,
    pub dendrogram: u64,
    pub stream_buffers: u64,
}

impl MemorySnapshot {
    /// Sum of all tracked structures.
    pub fn tracked_total(&self) -> u64 {
        self.neighbor_graph + self.link_table + self.heaps + self.dendrogram + self.stream_buffers
    }
}

impl MemoryGauges {
    /// Raises `gauge` to `bytes` if larger (gauges track the high-water
    /// mark).
    pub fn observe(gauge: &AtomicU64, bytes: u64) {
        gauge.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Reads every gauge.
    pub fn snapshot(&self) -> MemorySnapshot {
        let get = |g: &AtomicU64| g.load(Ordering::Relaxed);
        MemorySnapshot {
            neighbor_graph: get(&self.neighbor_graph),
            link_table: get(&self.link_table),
            heaps: get(&self.heaps),
            dendrogram: get(&self.dendrogram),
            stream_buffers: get(&self.stream_buffers),
        }
    }
}

/// Types that can estimate the heap bytes they hold.
///
/// Estimates count the dominant buffers (element storage at capacity);
/// allocator and hash-table bookkeeping are approximated, not measured.
pub trait MemoryEstimate {
    /// Estimated heap bytes currently held.
    fn estimated_bytes(&self) -> usize;
}

/// The pipeline's telemetry hub: counters + memory gauges + per-phase
/// wall clocks, with an optional [`EventSink`] for streaming events.
///
/// Counting is always on (it is flush-based and effectively free); events
/// are only constructed when a sink is attached. An `Observer` is shared
/// by reference across the pipeline's worker threads.
#[derive(Default)]
pub struct Observer {
    counters: PipelineCounters,
    memory: MemoryGauges,
    phase_nanos: [AtomicU64; 6],
    sink: Option<Arc<dyn EventSink>>,
    level: Level,
    tracer: trace::Tracer,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("counters", &self.counters)
            .field("memory", &self.memory)
            .field("level", &self.level)
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

impl Observer {
    /// A counting-only observer (no sink, no log output).
    pub fn new() -> Self {
        Self::default()
    }

    /// An observer that streams events to `sink`; messages below `level`
    /// are suppressed.
    pub fn with_sink(sink: Arc<dyn EventSink>, level: Level) -> Self {
        Observer {
            sink: Some(sink),
            level,
            ..Self::default()
        }
    }

    /// The pipeline counters.
    pub fn counters(&self) -> &PipelineCounters {
        &self.counters
    }

    /// The memory gauges.
    pub fn memory(&self) -> &MemoryGauges {
        &self.memory
    }

    /// The rock-trace/v1 emitter (disabled until a stream is attached;
    /// see [`trace::Tracer::start_to_path`]).
    pub fn tracer(&self) -> &trace::Tracer {
        &self.tracer
    }

    /// Emits `event` to the sink, if any.
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Opens a span for `phase`: emits [`Event::PhaseStart`] now and, on
    /// [`PhaseSpan::finish`] or drop, [`Event::PhaseEnd`], accumulating
    /// the elapsed wall time into the per-phase clock.
    pub fn phase(&self, phase: Phase) -> PhaseSpan<'_> {
        self.emit(Event::PhaseStart { phase });
        PhaseSpan {
            observer: self,
            phase,
            start: Instant::now(),
            closed: false,
        }
    }

    /// Reports progress within a phase (forwarded to the sink only).
    pub fn progress(&self, phase: Phase, done: u64, total: u64) {
        if self.sink.is_some() {
            self.emit(Event::Progress { phase, done, total });
        }
    }

    /// Logs a message at `level`; the text closure runs only when a sink
    /// is attached and the level passes the filter.
    pub fn log<F: FnOnce() -> String>(&self, level: Level, text: F) {
        if self.sink.is_some() && level <= self.level && level != Level::Off {
            self.emit(Event::Message {
                level,
                text: text(),
            });
        }
    }

    /// Accumulated wall time of `phase` across all its spans.
    pub fn phase_wall(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.phase_nanos[phase.index()].load(Ordering::Relaxed))
    }

    fn close_span(&self, phase: Phase, wall: Duration) {
        // Saturate instead of truncating: u64 nanoseconds cover ~584 years.
        let nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
        self.emit(Event::PhaseEnd { phase, wall });
    }
}

/// An open phase span (see [`Observer::phase`]). Closing is idempotent:
/// explicit [`finish`](Self::finish) or implicit drop.
#[must_use = "a span measures the time until finish()/drop"]
#[derive(Debug)]
pub struct PhaseSpan<'a> {
    observer: &'a Observer,
    phase: Phase,
    start: Instant,
    closed: bool,
}

impl PhaseSpan<'_> {
    /// Closes the span, returning its wall time.
    pub fn finish(mut self) -> Duration {
        let wall = self.start.elapsed();
        self.closed = true;
        self.observer.close_span(self.phase, wall);
        wall
    }
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        if !self.closed {
            self.observer.close_span(self.phase, self.start.elapsed());
        }
    }
}

/// Runs `f`, returning its result and elapsed wall-clock time. The
/// free-standing companion of [`Observer::phase`] for code outside the
/// pipeline (experiment harness, ad-hoc measurements).
pub fn time_it<T, F: FnOnce() -> T>(f: F) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration as fractional seconds with millisecond precision.
pub fn format_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Identification of one clustering run, embedded in [`Metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Free-form run label (e.g. `"cli"`, `"exp_votes"`).
    pub experiment: String,
    /// Input size.
    pub n: usize,
    /// Requested cluster count.
    pub k: usize,
    /// Similarity threshold θ.
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Points actually clustered (after sampling and filtering).
    pub sample_size: usize,
    /// Clusters found.
    pub clusters: usize,
    /// Points declared outliers.
    pub outliers: usize,
}

/// A machine-readable snapshot of one observed run: per-phase wall times,
/// all pipeline counters and memory estimates. Serialized by
/// [`to_json`](Self::to_json) / [`to_ndjson_line`](Self::to_ndjson_line).
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Run identification.
    pub run: RunInfo,
    /// Wall seconds per phase, in [`Phase::ALL`] order.
    pub phase_secs: [f64; 6],
    /// End-to-end wall seconds (includes inter-phase bookkeeping).
    pub total_secs: f64,
    /// Counter values.
    pub counters: CounterSnapshot,
    /// Memory estimates.
    pub memory: MemorySnapshot,
    /// Degradation report, present when the run tripped a budget or was
    /// cancelled (see [`crate::guard`]). Serialized as the `degradation`
    /// block; absent from complete runs.
    pub degradation: Option<crate::guard::Degradation>,
}

impl Metrics {
    /// Snapshots `observer` into a metrics document. `total` is the
    /// end-to-end wall time of the run (phase times alone exclude
    /// inter-phase bookkeeping).
    pub fn collect(observer: &Observer, run: RunInfo, total: Duration) -> Self {
        let mut phase_secs = [0.0f64; 6];
        for p in Phase::ALL {
            phase_secs[p.index()] = observer.phase_wall(p).as_secs_f64();
        }
        Metrics {
            run,
            phase_secs,
            total_secs: total.as_secs_f64(),
            counters: observer.counters().snapshot(),
            memory: observer.memory().snapshot(),
            degradation: None,
        }
    }

    /// Attaches a degradation report (for degraded/early-exit runs).
    pub fn with_degradation(mut self, degradation: crate::guard::Degradation) -> Self {
        self.degradation = Some(degradation);
        self
    }

    fn serialize(&self, pretty: bool) -> String {
        let ind = usize::from(pretty);

        let mut run = JsonObj::new(pretty, ind);
        run.num_u64("n", crate::cast::usize_to_u64(self.run.n))
            .num_u64("k", crate::cast::usize_to_u64(self.run.k))
            .num_f64("theta", self.run.theta)
            .num_u64("seed", self.run.seed)
            .num_u64(
                "sample_size",
                crate::cast::usize_to_u64(self.run.sample_size),
            )
            .num_u64("clusters", crate::cast::usize_to_u64(self.run.clusters))
            .num_u64("outliers", crate::cast::usize_to_u64(self.run.outliers));

        let mut wall = JsonObj::new(pretty, ind);
        for p in Phase::ALL {
            wall.num_f64(p.name(), self.phase_secs[p.index()]);
        }
        wall.num_f64("total", self.total_secs);

        let c = &self.counters;
        let mut counters = JsonObj::new(pretty, ind);
        counters
            .num_u64("similarity_comparisons", c.similarity_comparisons)
            .num_u64("neighbor_edges", c.neighbor_edges)
            .num_u64("neighbor_candidates", c.neighbor_candidates)
            .num_u64("neighbor_candidates_pruned", c.neighbor_candidates_pruned)
            .num_u64("neighbor_pairs_verified", c.neighbor_pairs_verified)
            .num_u64("link_kernel_steps", c.link_kernel_steps)
            .num_u64("link_entries", c.link_entries)
            .num_u64("heap_pushes", c.heap_pushes)
            .num_u64("heap_pops", c.heap_pops)
            .num_u64("heap_anomalies", c.heap_anomalies)
            .num_u64("merges", c.merges)
            .num_u64("points_sampled", c.points_sampled)
            .num_u64("outliers_filtered", c.outliers_filtered)
            .num_u64("outliers_pruned", c.outliers_pruned)
            .num_u64("labeling_evaluations", c.labeling_evaluations)
            .num_u64("points_labeled", c.points_labeled)
            .num_u64("chunks_labeled", c.chunks_labeled)
            .num_u64("io_retries", c.io_retries)
            .num_u64("stream_resumes", c.stream_resumes)
            .num_u64("checkpoint_writes", c.checkpoint_writes);

        let m = &self.memory;
        let mut memory = JsonObj::new(pretty, ind);
        memory
            .num_u64("neighbor_graph", m.neighbor_graph)
            .num_u64("link_table", m.link_table)
            .num_u64("heaps", m.heaps)
            .num_u64("dendrogram", m.dendrogram)
            .num_u64("stream_buffers", m.stream_buffers)
            .num_u64("tracked_total", m.tracked_total());

        let mut doc = JsonObj::new(pretty, 0);
        doc.str("schema", METRICS_SCHEMA)
            .str("experiment", &self.run.experiment)
            .raw("run", &run.end())
            .raw("wall_secs", &wall.end())
            .raw("counters", &counters.end())
            .raw("memory_bytes", &memory.end());
        if let Some(d) = &self.degradation {
            doc.raw("degradation", &d.to_json_fragment(pretty, ind));
        }
        doc.end()
    }

    /// Pretty-printed JSON document (one run).
    pub fn to_json(&self) -> String {
        self.serialize(true)
    }

    /// Compact single-line JSON, suitable for appending to an NDJSON
    /// stream of runs (no trailing newline).
    pub fn to_ndjson_line(&self) -> String {
        self.serialize(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_metrics() -> Metrics {
        Metrics {
            run: RunInfo {
                experiment: "unit \"quoted\"".to_owned(),
                n: 100,
                k: 3,
                theta: 0.73,
                seed: 42,
                sample_size: 80,
                clusters: 3,
                outliers: 2,
            },
            phase_secs: [0.0, 1.25, 0.001, 0.5, 0.25, 0.0],
            total_secs: 2.1,
            counters: CounterSnapshot {
                similarity_comparisons: 9900,
                neighbor_edges: 420,
                neighbor_candidates: 900,
                neighbor_candidates_pruned: 200,
                neighbor_pairs_verified: 700,
                link_kernel_steps: 1234,
                link_entries: 300,
                heap_pushes: 777,
                heap_pops: 555,
                heap_anomalies: 0,
                merges: 77,
                points_sampled: 80,
                outliers_filtered: 1,
                outliers_pruned: 1,
                labeling_evaluations: 640,
                points_labeled: 18,
                chunks_labeled: 2,
                io_retries: 1,
                stream_resumes: 1,
                checkpoint_writes: 2,
            },
            memory: MemorySnapshot {
                neighbor_graph: 2048,
                link_table: 4096,
                heaps: 1024,
                dendrogram: 512,
                stream_buffers: 256,
            },
            degradation: None,
        }
    }

    #[test]
    fn spans_accumulate_wall_time() {
        let obs = Observer::new();
        {
            let span = obs.phase(Phase::Links);
            std::thread::sleep(Duration::from_millis(5));
            let wall = span.finish();
            assert!(wall >= Duration::from_millis(4));
        }
        {
            let _span = obs.phase(Phase::Links); // closed by drop
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(obs.phase_wall(Phase::Links) >= Duration::from_millis(8));
        assert_eq!(obs.phase_wall(Phase::Sample), Duration::ZERO);
    }

    #[test]
    fn recording_sink_sees_span_events_in_order() {
        let sink = Arc::new(RecordingSink::new());
        let obs = Observer::with_sink(sink.clone(), Level::Debug);
        obs.phase(Phase::Neighbors).finish();
        obs.progress(Phase::Neighbors, 5, 10);
        obs.log(Level::Info, || "hello".to_owned());
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0],
            Event::PhaseStart {
                phase: Phase::Neighbors
            }
        );
        assert!(matches!(
            events[1],
            Event::PhaseEnd {
                phase: Phase::Neighbors,
                ..
            }
        ));
        assert_eq!(
            events[2],
            Event::Progress {
                phase: Phase::Neighbors,
                done: 5,
                total: 10
            }
        );
        assert_eq!(
            events[3],
            Event::Message {
                level: Level::Info,
                text: "hello".to_owned()
            }
        );
    }

    #[test]
    fn log_level_filters_messages() {
        let sink = Arc::new(RecordingSink::new());
        let obs = Observer::with_sink(sink.clone(), Level::Error);
        obs.log(Level::Debug, || "dropped".to_owned());
        obs.log(Level::Info, || "dropped".to_owned());
        obs.log(Level::Error, || "kept".to_owned());
        assert_eq!(sink.events().len(), 1);
        // No sink: the closure must not even run.
        let silent = Observer::new();
        silent.log(Level::Error, || panic!("must not format"));
    }

    #[test]
    fn counters_and_gauges_snapshot() {
        let obs = Observer::new();
        PipelineCounters::add(&obs.counters().merges, 3);
        PipelineCounters::add(&obs.counters().merges, 2);
        MemoryGauges::observe(&obs.memory().heaps, 100);
        MemoryGauges::observe(&obs.memory().heaps, 50); // high-water mark kept
        let c = obs.counters().snapshot();
        let m = obs.memory().snapshot();
        assert_eq!(c.merges, 5);
        assert_eq!(m.heaps, 100);
        assert_eq!(m.tracked_total(), 100);
    }

    #[test]
    fn level_parses_and_orders() {
        assert_eq!("debug".parse::<Level>().unwrap(), Level::Debug);
        assert_eq!("off".parse::<Level>().unwrap(), Level::Off);
        assert!("verbose".parse::<Level>().is_err());
        assert!(Level::Error < Level::Info && Level::Info < Level::Debug);
    }

    #[test]
    fn metrics_json_round_trips_through_parser() {
        let metrics = demo_metrics();
        for doc in [metrics.to_json(), metrics.to_ndjson_line().clone()] {
            let v = json::Json::parse(&doc).expect("valid JSON");
            assert_eq!(v.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
            assert_eq!(
                v.get("experiment").unwrap().as_str(),
                Some("unit \"quoted\"")
            );
            let run = v.get("run").unwrap();
            assert_eq!(run.get("n").unwrap().as_u64(), Some(100));
            assert_eq!(run.get("theta").unwrap().as_f64(), Some(0.73));
            let wall = v.get("wall_secs").unwrap();
            assert_eq!(wall.get("neighbors").unwrap().as_f64(), Some(1.25));
            assert_eq!(wall.get("total").unwrap().as_f64(), Some(2.1));
            let counters = v.get("counters").unwrap();
            assert_eq!(
                counters.get("similarity_comparisons").unwrap().as_u64(),
                Some(9900)
            );
            let memory = v.get("memory_bytes").unwrap();
            assert_eq!(memory.get("tracked_total").unwrap().as_u64(), Some(7936));
            assert_eq!(memory.get("stream_buffers").unwrap().as_u64(), Some(256));
            assert_eq!(counters.get("io_retries").unwrap().as_u64(), Some(1));
        }
    }

    #[test]
    fn metrics_schema_is_stable() {
        // The exact key set is a public contract (BENCH_*.json baselines
        // are diffed across PRs); additions are fine, renames are not.
        let v = json::Json::parse(&demo_metrics().to_json()).unwrap();
        let top: Vec<&str> = v
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            top,
            [
                "schema",
                "experiment",
                "run",
                "wall_secs",
                "counters",
                "memory_bytes"
            ]
        );
        let counters: Vec<&str> = v
            .get("counters")
            .unwrap()
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            counters,
            [
                "similarity_comparisons",
                "neighbor_edges",
                "neighbor_candidates",
                "neighbor_candidates_pruned",
                "neighbor_pairs_verified",
                "link_kernel_steps",
                "link_entries",
                "heap_pushes",
                "heap_pops",
                "heap_anomalies",
                "merges",
                "points_sampled",
                "outliers_filtered",
                "outliers_pruned",
                "labeling_evaluations",
                "points_labeled",
                "chunks_labeled",
                "io_retries",
                "stream_resumes",
                "checkpoint_writes",
            ]
        );
        let wall: Vec<&str> = v
            .get("wall_secs")
            .unwrap()
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            wall,
            [
                "sample",
                "neighbors",
                "outliers",
                "links",
                "agglomerate",
                "labeling",
                "total"
            ]
        );
    }

    #[test]
    fn ndjson_line_is_single_line() {
        let line = demo_metrics().to_ndjson_line();
        assert!(!line.contains('\n'));
    }

    #[test]
    fn degraded_run_embeds_degradation_block() {
        use crate::guard::{Degradation, TripReason};
        let metrics = demo_metrics().with_degradation(Degradation {
            reason: TripReason::StepBudget { limit: 40 },
            phase: Phase::Agglomerate,
            merges_completed: 40,
            elapsed_secs: 0.75,
        });
        for doc in [metrics.to_json(), metrics.to_ndjson_line()] {
            let v = json::Json::parse(&doc).expect("valid JSON");
            let d = v.get("degradation").expect("degradation block present");
            assert_eq!(d.get("reason").unwrap().as_str(), Some("step-budget"));
            assert_eq!(d.get("phase").unwrap().as_str(), Some("agglomerate"));
            assert_eq!(d.get("merges_completed").unwrap().as_u64(), Some(40));
            assert_eq!(d.get("step_limit").unwrap().as_u64(), Some(40));
        }
        // Complete runs carry no degradation key at all.
        let clean = json::Json::parse(&demo_metrics().to_json()).unwrap();
        assert!(clean.get("degradation").is_none());
    }

    #[test]
    fn time_it_measures_and_formats() {
        let ((), d) = time_it(|| std::thread::sleep(Duration::from_millis(15)));
        assert!(d >= Duration::from_millis(14), "elapsed {d:?}");
        let (v, _) = time_it(|| 6 * 7);
        assert_eq!(v, 42);
        assert_eq!(format_secs(Duration::from_millis(1500)), "1.500s");
    }
}
