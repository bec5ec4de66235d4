//! Structured event tracing — the **rock-trace/v1** NDJSON stream.
//!
//! `rock-metrics/v1` answers *which phase* was slow; this module answers
//! *which worker, merge batch or request*. A [`Tracer`] (one per
//! [`Observer`](super::Observer), disabled by default) emits a versioned
//! NDJSON event stream:
//!
//! * a **meta** line first: `{"type":"meta","schema":"rock-trace/v1",...}`,
//! * one **span** line per completed unit of work (phase, worker shard,
//!   merge batch, pair-scan chunk, labeling pass, serve request) carrying
//!   monotonic begin timestamp + duration in nanoseconds, a logical
//!   worker id, the owning pipeline phase and typed payload fields
//!   (rows processed, merge goodness, shard ranges, request ids),
//! * **hist** lines at stream end: log₂-bucketed mergeable
//!   [`LatencyHistogram`]s (p50/p90/p99/max) for the hot units.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** [`Tracer::begin`] is a single
//!    relaxed atomic load returning `None`; no clock is read, nothing
//!    allocates, and every instrumentation site is `if let Some(..)`
//!    guarded.
//! 2. **No new wall-clock sites.** All timestamps flow through
//!    [`crate::guard`]'s audited monotonic clock (`monotonic_now`), so
//!    tracing can never influence which merge is chosen.
//! 3. **Canonical serialization.** [`TraceRecord::to_line`] and
//!    [`TraceRecord::parse_line`] are exact inverses on emitted lines:
//!    emit → parse → re-emit is byte-identical, which `rock-trace
//!    --check` enforces on every trace the integration suites produce.
//!    Numbers with an integral value in `[0, 2^53]` are canonicalized to
//!    integer tokens; everything else uses [`json::number`].
//!
//! Span lines are written on span *end* (one buffered write under one
//! mutex acquisition per span), so file order is completion order; the
//! begin timestamp orders spans for timeline rendering.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use super::json::{self, Json, JsonObj};
use super::Phase;
use crate::cast;
use crate::error::RockError;

/// Schema identifier on the leading meta line of every trace stream.
pub const TRACE_SCHEMA: &str = "rock-trace/v1";

/// Largest u64 exactly representable as `f64`; integral payload values up
/// to this bound are canonicalized to integer tokens.
const MAX_EXACT_F64: f64 = 9_007_199_254_740_992.0; // 2^53

/// Formats a payload number canonically: integral values in `[0, 2^53]`
/// as integer tokens, everything else via [`json::number`].
fn canon_num(v: f64) -> String {
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= MAX_EXACT_F64 {
        format!("{}", cast::f64_to_u64(v))
    } else {
        json::number(v)
    }
}

// ───────────────────────── latency histograms ──────────────────────────

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i−1), 2^i)`.
const BUCKETS: usize = 65;

/// A log₂-bucketed, mergeable latency histogram.
///
/// Values are unitless `u64`s (the pipeline records nanoseconds). The
/// bucket scheme trades ≤ 2× relative resolution for O(1) recording,
/// fixed 65-slot storage and lossless merging — the aggregation the
/// k-histograms line of work motivates for cheap summaries. Percentiles
/// report the **upper bound** of the bucket containing the requested
/// rank, clamped to the observed maximum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index holding `v`: 0 for 0, else `64 − leading_zeros`.
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            cast::u32_to_usize(u64::BITS - v.leading_zeros())
        }
    }

    /// Inclusive upper bound of bucket `i` (`2^i − 1`, saturating).
    fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other` into `self` (lossless: buckets align).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the nearest rank, clamped to the observed maximum.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = cast::f64_to_u64((q.clamp(0.0, 1.0) * cast::u64_to_f64(self.count)).ceil())
            .clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Sparse `(bucket_index, count)` pairs, ascending, zeros omitted.
    pub fn sparse_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (cast::usize_to_u64(i), c))
            .collect()
    }

    /// Rebuilds a histogram from its serialized parts (the inverse of
    /// [`sparse_buckets`](Self::sparse_buckets) plus `sum`/`max`).
    ///
    /// # Errors
    /// Returns a message when a bucket index exceeds the fixed range.
    pub fn from_parts(buckets: &[(u64, u64)], sum: u64, max: u64) -> Result<Self, String> {
        let mut h = LatencyHistogram::new();
        for &(i, c) in buckets {
            let idx = cast::u64_to_usize(i);
            if idx >= BUCKETS {
                return Err(format!(
                    "bucket index {i} out of range (max {})",
                    BUCKETS - 1
                ));
            }
            h.buckets[idx] += c;
            h.count += c;
        }
        h.sum = sum;
        h.max = max;
        Ok(h)
    }
}

// ─────────────────────────── trace records ─────────────────────────────

/// A typed payload value on a span record.
#[derive(Debug, Clone, PartialEq)]
pub enum PayloadValue {
    /// A number (canonicalized: integral values in `[0, 2^53]` emit as
    /// integer tokens).
    Num(f64),
    /// A string.
    Str(String),
}

/// Ordered payload fields attached to a span, built fluently:
/// `Payload::new().num("rows", 128.0).str("kind", "shard")`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Payload {
    fields: Vec<(String, PayloadValue)>,
}

impl Payload {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a numeric field.
    #[must_use]
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.fields.push((key.to_owned(), PayloadValue::Num(v)));
        self
    }

    /// Appends a numeric field from a `u64` count.
    #[must_use]
    pub fn count(self, key: &str, v: u64) -> Self {
        self.num(key, cast::u64_to_f64(v.min(1u64 << f64::MANTISSA_DIGITS)))
    }

    /// Appends a string field.
    #[must_use]
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields
            .push((key.to_owned(), PayloadValue::Str(v.to_owned())));
        self
    }

    /// The fields, in insertion order.
    pub fn fields(&self) -> &[(String, PayloadValue)] {
        &self.fields
    }
}

/// One completed span: a unit of work with monotonic begin timestamp and
/// duration (nanoseconds since the trace epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique within the stream, assigned at span begin.
    pub id: u64,
    /// Enclosing span id (0 = root; serialized only when nonzero).
    pub parent: u64,
    /// Span name, dotted by convention (`links.shard`, `serve.request`).
    pub name: String,
    /// Owning pipeline phase, when the span belongs to one.
    pub phase: Option<String>,
    /// Logical worker id (shard index; 0 for the coordinating thread).
    pub worker: u64,
    /// Begin timestamp, nanoseconds since the trace epoch (monotonic).
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Typed payload fields, in emission order.
    pub payload: Vec<(String, PayloadValue)>,
}

/// One serialized histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistRecord {
    /// Histogram name (`links.shard_ns`, `serve.request_ns`, ...).
    pub name: String,
    /// Logical worker id, when the histogram is per-worker.
    pub worker: Option<u64>,
    /// Unit of the recorded values (`"ns"` for every built-in site).
    pub unit: String,
    /// The histogram itself.
    pub hist: LatencyHistogram,
}

/// One line of a rock-trace/v1 stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// The leading stream header.
    Meta {
        /// Schema identifier (always [`TRACE_SCHEMA`] for this version).
        schema: String,
        /// Emitting program (`"rock-cluster"`, `"rock-serve"`, ...).
        source: String,
    },
    /// A completed span.
    Span(SpanRecord),
    /// A latency histogram (boxed: the bucket array dwarfs the other
    /// variants).
    Hist(Box<HistRecord>),
}

/// Structural keys of span lines; everything else is payload.
const SPAN_KEYS: [&str; 8] = [
    "type", "id", "parent", "name", "phase", "worker", "ts_ns", "dur_ns",
];

impl TraceRecord {
    /// Serializes to the canonical single-line form (no newline).
    pub fn to_line(&self) -> String {
        match self {
            TraceRecord::Meta { schema, source } => {
                let mut o = JsonObj::new(false, 0);
                o.str("type", "meta")
                    .str("schema", schema)
                    .str("source", source);
                o.end()
            }
            TraceRecord::Span(s) => {
                let mut o = JsonObj::new(false, 0);
                o.str("type", "span").num_u64("id", s.id);
                if s.parent != 0 {
                    o.num_u64("parent", s.parent);
                }
                o.str("name", &s.name);
                if let Some(phase) = &s.phase {
                    o.str("phase", phase);
                }
                o.num_u64("worker", s.worker)
                    .num_u64("ts_ns", s.ts_ns)
                    .num_u64("dur_ns", s.dur_ns);
                for (k, v) in &s.payload {
                    match v {
                        PayloadValue::Num(x) => o.raw(k, &canon_num(*x)),
                        PayloadValue::Str(x) => o.str(k, x),
                    };
                }
                o.end()
            }
            TraceRecord::Hist(h) => {
                let mut o = JsonObj::new(false, 0);
                o.str("type", "hist").str("name", &h.name);
                if let Some(w) = h.worker {
                    o.num_u64("worker", w);
                }
                o.str("unit", &h.unit)
                    .num_u64("count", h.hist.count())
                    .num_u64("sum", h.hist.sum())
                    .num_u64("max", h.hist.max());
                let mut buckets = String::from("[");
                for (i, (idx, c)) in h.hist.sparse_buckets().iter().enumerate() {
                    if i > 0 {
                        buckets.push(',');
                    }
                    buckets.push_str(&format!("[{idx},{c}]"));
                }
                buckets.push(']');
                o.raw("buckets", &buckets);
                o.end()
            }
        }
    }

    /// Parses one line. Exact inverse of [`to_line`](Self::to_line) on
    /// canonically emitted lines.
    ///
    /// # Errors
    /// Returns a human-readable message on malformed JSON, an unknown
    /// record type, or missing/ill-typed structural fields.
    pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
        let doc = Json::parse(line)?;
        let fields = doc.fields().ok_or("trace line is not a JSON object")?;
        let get_str = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing or non-string {key:?}"))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer {key:?}"))
        };
        match get_str("type")?.as_str() {
            "meta" => Ok(TraceRecord::Meta {
                schema: get_str("schema")?,
                source: get_str("source")?,
            }),
            "span" => {
                let mut payload = Vec::new();
                for (k, v) in fields {
                    if SPAN_KEYS.contains(&k.as_str()) {
                        continue;
                    }
                    let value = match v {
                        Json::Num(x) => PayloadValue::Num(*x),
                        Json::Str(s) => PayloadValue::Str(s.clone()),
                        other => {
                            return Err(format!("payload {k:?} has unsupported type {other:?}"))
                        }
                    };
                    payload.push((k.clone(), value));
                }
                Ok(TraceRecord::Span(SpanRecord {
                    id: get_u64("id")?,
                    parent: doc.get("parent").and_then(Json::as_u64).unwrap_or(0),
                    name: get_str("name")?,
                    phase: doc.get("phase").and_then(Json::as_str).map(str::to_owned),
                    worker: get_u64("worker")?,
                    ts_ns: get_u64("ts_ns")?,
                    dur_ns: get_u64("dur_ns")?,
                    payload,
                }))
            }
            "hist" => {
                let buckets_json = doc.get("buckets").ok_or("missing \"buckets\"")?;
                let Json::Arr(items) = buckets_json else {
                    return Err("\"buckets\" is not an array".to_owned());
                };
                let mut buckets = Vec::with_capacity(items.len());
                for item in items {
                    let pair = match item {
                        Json::Arr(p) if p.len() == 2 => match (p[0].as_u64(), p[1].as_u64()) {
                            (Some(i), Some(c)) => (i, c),
                            _ => return Err("bucket pair is not [u64, u64]".to_owned()),
                        },
                        _ => return Err("bucket entry is not a 2-element array".to_owned()),
                    };
                    buckets.push(pair);
                }
                let hist =
                    LatencyHistogram::from_parts(&buckets, get_u64("sum")?, get_u64("max")?)?;
                if hist.count() != get_u64("count")? {
                    return Err("hist \"count\" disagrees with bucket totals".to_owned());
                }
                Ok(TraceRecord::Hist(Box::new(HistRecord {
                    name: get_str("name")?,
                    worker: doc.get("worker").and_then(Json::as_u64),
                    unit: get_str("unit")?,
                    hist,
                })))
            }
            other => Err(format!("unknown trace record type {other:?}")),
        }
    }
}

// ─────────────────────────── the tracer ────────────────────────────────

/// A begun span: id, restore-parent and start instant. Returned by
/// [`Tracer::begin`]/[`Tracer::begin_scope`], consumed by
/// [`Tracer::end`]/[`Tracer::end_scope`].
#[derive(Debug)]
pub struct SpanStart {
    id: u64,
    prev_parent: u64,
    start: Instant,
}

impl SpanStart {
    /// The id assigned to this span (stable for the stream's lifetime).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A monotonic lap timer handed out by [`Tracer::stopwatch`] for
/// recording successive batch durations into a [`LatencyHistogram`].
#[derive(Debug)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    /// Nanoseconds since the previous lap (or since creation), resetting
    /// the lap base to now.
    pub fn lap_ns(&mut self) -> u64 {
        let now = crate::guard::monotonic_now();
        let d = now.saturating_duration_since(self.last);
        self.last = now;
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Mutable stream state, present only while tracing is active.
struct TraceState {
    epoch: Instant,
    out: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    /// First write error, surfaced by [`Tracer::finish`].
    error: Option<std::io::Error>,
}

/// The rock-trace/v1 emitter. One lives inside every
/// [`Observer`](super::Observer); it stays disabled (a single relaxed
/// atomic load per [`begin`](Self::begin)) until
/// [`start_to_path`](Self::start_to_path) attaches an output file.
#[derive(Default)]
pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU64,
    parent: AtomicU64,
    state: Mutex<Option<TraceState>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Locks the state mutex, recovering from poison: a panicking worker
/// must not take the trace stream down with it.
fn lock_state(tracer: &Tracer) -> std::sync::MutexGuard<'_, Option<TraceState>> {
    tracer
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` while a stream is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Attaches an output file, writes the meta line and enables the
    /// tracer. The epoch is read from the audited monotonic clock in
    /// [`crate::guard`] — tracing adds no wall-clock site of its own.
    ///
    /// # Errors
    /// [`RockError::Io`] when the file cannot be created or written.
    pub fn start_to_path(&self, path: &Path, source: &str) -> crate::Result<()> {
        let io = RockError::io(path);
        let file = std::fs::File::create(path).map_err(&io)?;
        let mut out = std::io::BufWriter::new(file);
        let meta = TraceRecord::Meta {
            schema: TRACE_SCHEMA.to_owned(),
            source: source.to_owned(),
        };
        writeln!(out, "{}", meta.to_line()).map_err(io)?;
        let mut state = lock_state(self);
        *state = Some(TraceState {
            epoch: crate::guard::monotonic_now(),
            out,
            path: path.to_path_buf(),
            error: None,
        });
        self.next_id.store(1, Ordering::Relaxed);
        self.parent.store(0, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Begins a span. `None` when disabled — the only cost on the
    /// disabled path is one relaxed atomic load.
    #[inline]
    pub fn begin(&self) -> Option<SpanStart> {
        if !self.is_enabled() {
            return None;
        }
        Some(SpanStart {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            prev_parent: self.parent.load(Ordering::Relaxed),
            start: crate::guard::monotonic_now(),
        })
    }

    /// Begins a *scope* span: until the matching
    /// [`end_scope`](Self::end_scope), spans begun on any thread record
    /// this span as their parent. Used for the strictly sequential
    /// pipeline phase spans.
    pub fn begin_scope(&self) -> Option<SpanStart> {
        let span = self.begin()?;
        self.parent.store(span.id, Ordering::Relaxed);
        Some(span)
    }

    /// Ends a span and writes its record.
    pub fn end(
        &self,
        span: SpanStart,
        name: &str,
        phase: Option<Phase>,
        worker: u64,
        payload: Payload,
    ) {
        let end = crate::guard::monotonic_now();
        let dur = end.saturating_duration_since(span.start);
        let mut guard = lock_state(self);
        let Some(state) = guard.as_mut() else {
            return; // finished concurrently; drop the record
        };
        let ts = span.start.saturating_duration_since(state.epoch);
        let record = TraceRecord::Span(SpanRecord {
            id: span.id,
            parent: span.prev_parent,
            name: name.to_owned(),
            phase: phase.map(|p| p.name().to_owned()),
            worker,
            ts_ns: u64::try_from(ts.as_nanos()).unwrap_or(u64::MAX),
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            payload: payload.fields().to_vec(),
        });
        Self::write_record(state, &record);
    }

    /// Ends a scope span: restores the previous parent, then writes the
    /// record like [`end`](Self::end) (worker 0, the coordinator).
    pub fn end_scope(&self, span: SpanStart, name: &str, phase: Option<Phase>, payload: Payload) {
        self.parent.store(span.prev_parent, Ordering::Relaxed);
        self.end(span, name, phase, 0, payload);
    }

    /// Elapsed nanoseconds on `span` so far (for histogram recording at
    /// the same instant the span ends).
    pub fn elapsed_ns(span: &SpanStart) -> u64 {
        let d = crate::guard::monotonic_now().saturating_duration_since(span.start);
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    /// A lap timer when tracing is enabled, `None` otherwise — the
    /// disabled path costs one relaxed atomic load and reads no clock.
    /// Instrumentation sites outside this (wall-clock-exempt) module use
    /// it to feed [`LatencyHistogram`]s without a clock site of their own.
    pub fn stopwatch(&self) -> Option<Stopwatch> {
        self.is_enabled().then(|| Stopwatch {
            last: crate::guard::monotonic_now(),
        })
    }

    /// Writes a histogram record.
    pub fn record_hist(&self, name: &str, worker: Option<u64>, hist: &LatencyHistogram) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = lock_state(self);
        let Some(state) = guard.as_mut() else {
            return;
        };
        let record = TraceRecord::Hist(Box::new(HistRecord {
            name: name.to_owned(),
            worker,
            unit: "ns".to_owned(),
            hist: hist.clone(),
        }));
        Self::write_record(state, &record);
    }

    fn write_record(state: &mut TraceState, record: &TraceRecord) {
        if state.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(state.out, "{}", record.to_line()) {
            state.error = Some(e);
        }
    }

    /// Flushes and detaches the stream. Idempotent: returns `Ok(None)`
    /// when no stream was attached.
    ///
    /// # Errors
    /// [`RockError::Io`] when any buffered write (or the final flush)
    /// failed; the path is still detached.
    pub fn finish(&self) -> crate::Result<Option<PathBuf>> {
        self.enabled.store(false, Ordering::Relaxed);
        let taken = lock_state(self).take();
        let Some(mut state) = taken else {
            return Ok(None);
        };
        let flush = state.out.flush();
        let path = state.path;
        if let Some(e) = state.error {
            return Err(RockError::io(&path)(e));
        }
        flush.map_err(RockError::io(&path))?;
        Ok(Some(path))
    }
}

// ─────────────────────────── validation ────────────────────────────────

/// Summary statistics returned by [`validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Source declared by the meta line.
    pub source: String,
    /// Number of span records.
    pub spans: usize,
    /// Number of histogram records.
    pub hists: usize,
}

/// Validates a complete rock-trace/v1 document: leading meta line with
/// the right schema, every line parseable, and every line byte-identical
/// under parse → re-emit (the canonical-form contract `rock-trace
/// --check` enforces).
///
/// # Errors
/// Returns `"line N: reason"` for the first violation.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (first_no, first) = lines.next().ok_or("empty trace (no meta line)")?;
    let meta = TraceRecord::parse_line(first).map_err(|e| format!("line {}: {e}", first_no + 1))?;
    let TraceRecord::Meta { schema, source } = &meta else {
        return Err(format!("line {}: first record is not meta", first_no + 1));
    };
    if schema != TRACE_SCHEMA {
        return Err(format!(
            "line {}: schema {schema:?}, expected {TRACE_SCHEMA:?}",
            first_no + 1
        ));
    }
    if meta.to_line() != first {
        return Err(format!("line {}: not in canonical form", first_no + 1));
    }
    let mut summary = TraceSummary {
        source: source.clone(),
        spans: 0,
        hists: 0,
    };
    for (no, line) in lines {
        let record = TraceRecord::parse_line(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        if record.to_line() != line {
            return Err(format!("line {}: not in canonical form", no + 1));
        }
        match record {
            TraceRecord::Meta { .. } => {
                return Err(format!("line {}: duplicate meta record", no + 1))
            }
            TraceRecord::Span(_) => summary.spans += 1,
            TraceRecord::Hist(_) => summary.hists += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_the_range() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(LatencyHistogram::bucket_bound(0), 0);
        assert_eq!(LatencyHistogram::bucket_bound(3), 7);
        assert_eq!(LatencyHistogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_and_merge() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // p50 rank 50 lands in bucket [32,64) → bound 63.
        assert_eq!(h.percentile(0.50), 63);
        // p99 and p100 land in the top bucket, clamped to max.
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(LatencyHistogram::new().percentile(0.5), 0);

        let mut a = LatencyHistogram::new();
        a.record(5);
        let mut b = LatencyHistogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 505);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn histogram_round_trips_through_parts() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 7, 900, 900, u64::MAX] {
            h.record(v);
        }
        let rebuilt = LatencyHistogram::from_parts(&h.sparse_buckets(), h.sum(), h.max()).unwrap();
        assert_eq!(rebuilt, h);
        assert!(LatencyHistogram::from_parts(&[(65, 1)], 0, 0).is_err());
    }

    #[test]
    fn records_round_trip_byte_identically() {
        let mut hist = LatencyHistogram::new();
        hist.record(100);
        hist.record(90_000);
        let records = vec![
            TraceRecord::Meta {
                schema: TRACE_SCHEMA.to_owned(),
                source: "unit".to_owned(),
            },
            TraceRecord::Span(SpanRecord {
                id: 3,
                parent: 1,
                name: "links.shard".to_owned(),
                phase: Some("links".to_owned()),
                worker: 2,
                ts_ns: 1_000,
                dur_ns: 2_500,
                payload: vec![
                    ("rows".to_owned(), PayloadValue::Num(128.0)),
                    ("goodness".to_owned(), PayloadValue::Num(0.25)),
                    ("kind".to_owned(), PayloadValue::Str("shard".to_owned())),
                ],
            }),
            TraceRecord::Span(SpanRecord {
                id: 4,
                parent: 0,
                name: "serve.request".to_owned(),
                phase: None,
                worker: 0,
                ts_ns: 5,
                dur_ns: 6,
                payload: Vec::new(),
            }),
            TraceRecord::Hist(Box::new(HistRecord {
                name: "links.shard_ns".to_owned(),
                worker: Some(1),
                unit: "ns".to_owned(),
                hist,
            })),
        ];
        for record in records {
            let line = record.to_line();
            let parsed = TraceRecord::parse_line(&line).unwrap();
            assert_eq!(parsed, record);
            assert_eq!(parsed.to_line(), line, "re-emit must be byte-identical");
        }
    }

    #[test]
    fn canonical_numbers() {
        assert_eq!(canon_num(3.0), "3");
        assert_eq!(canon_num(0.25), "0.25");
        assert_eq!(canon_num(-2.0), "-2.0");
        assert_eq!(canon_num(f64::NAN), "null");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceRecord::parse_line("{").is_err());
        assert!(TraceRecord::parse_line("{\"type\":\"wat\"}").is_err());
        assert!(TraceRecord::parse_line("{\"type\":\"span\",\"id\":1}").is_err());
        assert!(
            TraceRecord::parse_line(
                "{\"type\":\"hist\",\"name\":\"h\",\"unit\":\"ns\",\"count\":2,\"sum\":1,\"max\":1,\"buckets\":[[1,1]]}"
            )
            .is_err(),
            "count disagreeing with buckets must be rejected"
        );
    }

    #[test]
    fn tracer_emits_a_valid_stream() {
        let dir = std::env::temp_dir().join("rock-trace-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.trace");
        let tracer = Tracer::new();
        assert!(tracer.begin().is_none(), "disabled tracer begins nothing");

        tracer.start_to_path(&path, "unit").unwrap();
        let scope = tracer.begin_scope().unwrap();
        let child = tracer.begin().unwrap();
        assert_eq!(child.id(), scope.id() + 1);
        tracer.end(
            child,
            "links.shard",
            Some(Phase::Links),
            1,
            Payload::new().count("rows", 42),
        );
        tracer.end_scope(scope, "phase", Some(Phase::Links), Payload::new());
        let mut hist = LatencyHistogram::new();
        hist.record(1_000);
        tracer.record_hist("links.shard_ns", None, &hist);
        let finished = tracer.finish().unwrap();
        assert_eq!(finished, Some(path.clone()));
        assert!(tracer.finish().unwrap().is_none(), "finish is idempotent");

        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate(&text).unwrap();
        assert_eq!(summary.source, "unit");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.hists, 1);

        // The child ends first, so it is line 2; its parent field points
        // at the scope span that ends after it.
        let lines: Vec<&str> = text.lines().collect();
        let TraceRecord::Span(child) = TraceRecord::parse_line(lines[1]).unwrap() else {
            panic!("expected span");
        };
        let TraceRecord::Span(scope) = TraceRecord::parse_line(lines[2]).unwrap() else {
            panic!("expected span");
        };
        assert_eq!(child.parent, scope.id);
        assert_eq!(scope.parent, 0);
        assert_eq!(
            child.payload,
            vec![("rows".to_owned(), PayloadValue::Num(42.0))]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_broken_streams() {
        assert!(validate("").is_err());
        assert!(validate("{\"type\":\"span\"}").is_err());
        let meta = TraceRecord::Meta {
            schema: "rock-trace/v0".to_owned(),
            source: "x".to_owned(),
        };
        assert!(validate(&meta.to_line()).is_err());
        let good = TraceRecord::Meta {
            schema: TRACE_SCHEMA.to_owned(),
            source: "x".to_owned(),
        };
        let doubled = format!("{}\n{}", good.to_line(), good.to_line());
        assert!(validate(&doubled).unwrap_err().contains("duplicate meta"));
        // Non-canonical (reordered keys) is parseable but fails --check.
        let noncanon = format!(
            "{}\n{{\"type\":\"span\",\"name\":\"x\",\"id\":1,\"worker\":0,\"ts_ns\":0,\"dur_ns\":0}}",
            good.to_line()
        );
        assert!(validate(&noncanon).unwrap_err().contains("canonical"));
    }
}
