//! What every workload shares: the run context, the pass/fail tally,
//! and the timing loops.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rock_core::telemetry::trace::{Payload, Tracer};
use rock_core::telemetry::Phase;

use crate::report::Report;
use crate::stats::Samples;

/// Worker threads for every fit, label, stream and serve call, and the
/// most the load generator uses: the benchmark targets two cores.
pub(crate) const THREADS: usize = 2;

/// An untraced run times set-up at least `MIN_SETUPS` times and until
/// `SETUP_SECONDS` have passed (at most `MAX_SETUPS` times), so neither a
/// slow first call nor one stall of the machine moves the `setup_s`
/// median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 3.0;

/// Fewest timed repetitions of a workload's operation per run.
pub(crate) const MIN_REPS: usize = 3;

/// One run's settings.
#[derive(Debug)]
pub(crate) struct Ctx {
    /// Workload seed: every input is generated from it.
    pub(crate) seed: u64,
    /// Length of the measured phase.
    pub(crate) seconds: f64,
    /// Tiny inputs and phases, for tests.
    pub(crate) smoke: bool,
    /// Private scratch directory of this run (removed at exit).
    pub(crate) dir: PathBuf,
    /// Span sink of a traced run; disabled in an untraced run.
    pub(crate) tracer: Tracer,
}

impl Ctx {
    /// Whether this is the traced run.
    pub(crate) fn traced(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// `full` in a normal run, `smoke` in a smoke run.
    pub(crate) fn scale<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What a workload hands back: its metrics and the operation tally.
#[derive(Debug, Default)]
pub(crate) struct Run {
    /// Metrics and notes.
    pub(crate) report: Report,
    /// Operations attempted (fits, stream passes, requests, checks).
    pub(crate) attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub(crate) failed: u64,
}

impl Run {
    /// Counts one operation, failed unless `ok`.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("rock_bench: FAILED: {what}");
            self.report.note(format!("FAILED: {what}"));
        }
    }

    /// Adds `n` operations, `failed` of which failed.
    pub(crate) fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// Runs `f`, returning its value and the elapsed seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `f` as one traced layer call: a span named `name` (in `phase`,
/// if any) around the call when tracing is on. Returns the value and
/// the elapsed seconds, traced or not.
pub(crate) fn layer<T>(
    tracer: &Tracer,
    name: &str,
    phase: Option<Phase>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.begin();
    let (out, secs) = timed(f);
    if let Some(s) = span {
        tracer.end(s, name, phase, 0, Payload::new());
    }
    (out, secs)
}

/// Runs set-up as often as the `setup_s` median needs (once in a traced
/// run, which does not report it), keeping the last result and the time
/// of each.
pub(crate) fn repeat_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let (min, max, seconds) = if ctx.traced() {
        (1, 1, 0.0)
    } else {
        (MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS)
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min || (times.len() < max && Instant::now() < deadline) {
        let (value, secs) = timed(&mut setup);
        // The previous result is dropped outside the timed call.
        last = Some(value?);
        times.push(secs);
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

/// The samples of a repeated measurement, which must exist and be finite.
pub(crate) fn samples(values: Vec<f64>, what: &str) -> Result<Samples, String> {
    Samples::new(values).ok_or_else(|| format!("no finite {what} was measured"))
}

/// Calls `op` until `seconds` have passed and it ran at least `min`
/// times.
pub(crate) fn repeat_for(
    seconds: f64,
    min: usize,
    mut op: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut calls = 0;
    while calls < min || Instant::now() < deadline {
        op()?;
        calls += 1;
    }
    Ok(())
}
