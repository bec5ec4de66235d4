//! Execution guardrails: run budgets, cooperative cancellation and
//! graceful degradation.
//!
//! ROCK's agglomeration is naturally *anytime* — every merge step yields a
//! valid partition, and the labeling phase (paper §4.2) works from
//! whatever representative clusters exist. This module exploits that: a
//! [`Guard`] carries a [`RunBudget`] (merge-step ceiling, wall-clock
//! deadline, memory ceiling) plus a [`CancelToken`], and the pipeline
//! checks it at the six contract-instrumented phase boundaries, inside
//! the merge loop, and from every worker of the sharded link kernel
//! (which also streams its stored-entry bytes into the memory gauge, so
//! the memory ceiling is live *while* the table grows). When a budget
//! trips, [`fit_guarded`] returns
//! [`Outcome::Degraded`] carrying the best partition available at the
//! trip point and a machine-readable [`Degradation`] report — never a
//! panic, never a bare error.
//!
//! The same type doubles as the **deterministic fault-injection harness**:
//! [`Guard::inject_trip_at`] forces a budget trip at a chosen phase, so
//! the chaos suite can drive every degradation path without timing races.
//!
//! ```
//! use rock_core::guard::{Guard, RunBudget};
//! use rock_core::prelude::*;
//!
//! let data: TransactionSet = (0..20u32)
//!     .map(|i| Transaction::new([i % 2 * 100, i % 2 * 100 + 1, i]))
//!     .collect();
//! let guard = Guard::new(RunBudget::unlimited().steps(3));
//! let outcome = RockBuilder::new(2, 0.3)
//!     .build()
//!     .fit_guarded(&data, &Observer::new(), &guard)?;
//! // Whether the run completed or degraded, a valid partition came back.
//! assert_eq!(outcome.model().assignments().len(), 20);
//! # Ok::<(), rock_core::RockError>(())
//! ```
//!
//! [`fit_guarded`]: crate::rock::Rock::fit_guarded
//! [`Outcome::Degraded`]: crate::rock::Outcome::Degraded

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::RockError;
use crate::telemetry::{json::JsonObj, Observer, Phase};

/// How often the merge loop consults the wall clock: checking
/// `Instant::now` every merge would dominate small merges, so the
/// deadline is sampled every `DEADLINE_STRIDE` steps (cancellation and
/// the step budget are plain atomic reads and are checked every step).
const DEADLINE_STRIDE: u64 = 64;

/// The audited wall-clock read for deadline budgets. This is the guard
/// subsystem's **single** clock site: deadlines are observability-class
/// state (they never influence *which* merge happens, only *how many*),
/// so reading the clock here cannot make two runs of the same seed
/// produce different partitions of the work that was done.
#[inline]
fn now() -> Instant {
    // rock-analyze: allow(wall-clock) — the audited deadline clock: budgets bound how much work runs, never which merge is chosen, so the completed prefix stays deterministic.
    Instant::now()
}

/// The monotonic base shared with the trace layer: rock-trace/v1
/// timestamps annotate *completed* work and never influence clustering
/// decisions, so they reuse this audited clock instead of introducing a
/// second wall-clock site.
#[inline]
pub(crate) fn monotonic_now() -> Instant {
    now()
}

/// Cooperative cancellation flag, cheaply cloneable across threads.
///
/// Cancellation is *cooperative*: the pipeline polls the token at phase
/// boundaries and inside the merge loop, finishes the current unit of
/// work, and degrades to the partition built so far. Nothing is killed
/// mid-operation.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource ceilings for one clustering run. All limits default to
/// unlimited; combine with the builder methods.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunBudget {
    /// Maximum merge steps the agglomeration phase may perform.
    pub max_merge_steps: Option<u64>,
    /// Wall-clock deadline for the whole run, measured from
    /// [`Guard::new`].
    pub deadline: Option<Duration>,
    /// Ceiling on the telemetry memory gauges' tracked total (estimated
    /// bytes of the neighbor graph + link table + heaps + dendrogram).
    pub max_memory_bytes: Option<u64>,
}

impl RunBudget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps the number of agglomeration merge steps.
    pub fn steps(mut self, max: u64) -> Self {
        self.max_merge_steps = Some(max);
        self
    }

    /// Sets a wall-clock deadline for the run.
    pub fn wall(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the estimated bytes tracked by the telemetry memory gauges.
    pub fn memory(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// `true` when no limit is set (the guard can never trip on its own).
    pub fn is_unlimited(&self) -> bool {
        self.max_merge_steps.is_none() && self.deadline.is_none() && self.max_memory_bytes.is_none()
    }
}

/// Why a guarded run stopped early.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TripReason {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The merge-step budget ran out.
    StepBudget {
        /// The configured step ceiling.
        limit: u64,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline, in seconds.
        limit_secs: f64,
    },
    /// The memory ceiling was exceeded.
    MemoryBudget {
        /// The configured ceiling, in bytes.
        limit_bytes: u64,
        /// The tracked total observed at the trip.
        observed_bytes: u64,
    },
    /// A fault-injection harness forced the trip
    /// (see [`Guard::inject_trip_at`]).
    Injected,
}

impl TripReason {
    /// Stable machine-readable name (used in the metrics JSON schema).
    pub fn name(&self) -> &'static str {
        match self {
            TripReason::Cancelled => "cancelled",
            TripReason::StepBudget { .. } => "step-budget",
            TripReason::Deadline { .. } => "deadline",
            TripReason::MemoryBudget { .. } => "memory-budget",
            TripReason::Injected => "injected",
        }
    }
}

impl std::fmt::Display for TripReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TripReason::Cancelled => write!(f, "run cancelled"),
            TripReason::StepBudget { limit } => {
                write!(f, "merge-step budget of {limit} exhausted")
            }
            TripReason::Deadline { limit_secs } => {
                write!(f, "wall-clock deadline of {limit_secs}s passed")
            }
            TripReason::MemoryBudget {
                limit_bytes,
                observed_bytes,
            } => write!(
                f,
                "memory ceiling of {limit_bytes} bytes exceeded ({observed_bytes} tracked)"
            ),
            TripReason::Injected => write!(f, "fault injection forced a trip"),
        }
    }
}

/// A budget violation observed at a specific pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trip {
    /// What tripped.
    pub reason: TripReason,
    /// The phase the pipeline had reached when it tripped.
    pub phase: Phase,
}

/// The error for a trip that the caller asked to fail on, not degrade:
/// [`RockError::Cancelled`] for a cancellation, and
/// [`RockError::BudgetExhausted`] with the reason's and the phase's names
/// for any other trip. Both exit with code 6.
impl From<Trip> for RockError {
    fn from(trip: Trip) -> Self {
        match trip.reason {
            TripReason::Cancelled => RockError::Cancelled,
            reason => RockError::BudgetExhausted {
                reason: reason.name().to_owned(),
                phase: trip.phase.name().to_owned(),
            },
        }
    }
}

/// Machine-readable report of a degraded run, embedded in the
/// `rock-metrics/v1` JSON as the `degradation` block and carried by
/// [`Outcome::Degraded`](crate::rock::Outcome::Degraded).
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// What tripped.
    pub reason: TripReason,
    /// The phase the pipeline had reached when it tripped.
    pub phase: Phase,
    /// Merge steps completed before the trip.
    pub merges_completed: u64,
    /// Wall seconds elapsed (from guard creation) at the trip.
    pub elapsed_secs: f64,
}

impl Degradation {
    /// Serializes the report as a JSON object fragment (the `degradation`
    /// block of the metrics schema).
    pub fn to_json_fragment(&self, pretty: bool, indent: usize) -> String {
        let mut obj = JsonObj::new(pretty, indent);
        obj.str("reason", self.reason.name())
            .str("phase", self.phase.name())
            .num_u64("merges_completed", self.merges_completed)
            .num_f64("elapsed_secs", self.elapsed_secs);
        match self.reason {
            TripReason::StepBudget { limit } => {
                obj.num_u64("step_limit", limit);
            }
            TripReason::Deadline { limit_secs } => {
                obj.num_f64("deadline_secs", limit_secs);
            }
            TripReason::MemoryBudget {
                limit_bytes,
                observed_bytes,
            } => {
                obj.num_u64("memory_limit_bytes", limit_bytes)
                    .num_u64("memory_observed_bytes", observed_bytes);
            }
            TripReason::Cancelled | TripReason::Injected => {}
        }
        obj.end()
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at phase `{}` after {} merges ({:.3}s)",
            self.reason,
            self.phase.name(),
            self.merges_completed,
            self.elapsed_secs
        )
    }
}

/// The runtime guardrail the pipeline consults: a [`RunBudget`], a
/// [`CancelToken`] and (for chaos testing) an optional forced trip.
///
/// The wall clock starts at [`Guard::new`]; construct the guard right
/// before calling [`fit_guarded`](crate::rock::Rock::fit_guarded).
#[derive(Debug)]
pub struct Guard {
    budget: RunBudget,
    cancel: CancelToken,
    start: Instant,
    merge_steps: AtomicU64,
    forced: Option<(Phase, TripReason)>,
}

impl Default for Guard {
    fn default() -> Self {
        Guard::unlimited()
    }
}

impl Guard {
    /// A guard with `budget` and a private (never-cancelled) token. The
    /// deadline clock starts now.
    pub fn new(budget: RunBudget) -> Self {
        Guard::with_cancel(budget, CancelToken::new())
    }

    /// A guard sharing an external cancellation token.
    pub fn with_cancel(budget: RunBudget, cancel: CancelToken) -> Self {
        Guard {
            budget,
            cancel,
            start: now(),
            merge_steps: AtomicU64::new(0),
            forced: None,
        }
    }

    /// A guard that can never trip on its own (no budget, fresh token).
    pub fn unlimited() -> Self {
        Guard::new(RunBudget::unlimited())
    }

    /// **Fault injection**: force a [`TripReason::Injected`] trip the
    /// first time the pipeline checks in at `phase` (a checkpoint at that
    /// phase boundary, or any merge tick when `phase` is
    /// [`Phase::Agglomerate`]). Deterministic by construction — no timing
    /// races — which is what the chaos suite needs to drive every
    /// degradation path.
    pub fn inject_trip_at(mut self, phase: Phase) -> Self {
        self.forced = Some((phase, TripReason::Injected));
        self
    }

    /// The budget in force.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// The cancellation token (clone it into other threads to cancel).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Wall time since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Merge steps ticked so far.
    pub fn merge_steps(&self) -> u64 {
        self.merge_steps.load(Ordering::Relaxed)
    }

    /// Phase-boundary check: consults the forced trip, the cancellation
    /// token, the deadline and the memory ceiling (read from `observer`'s
    /// gauges). Returns the trip, if any. Called by the pipeline at each
    /// of the six contract-instrumented phase boundaries, and polled
    /// concurrently by the link-kernel workers every few rows — the
    /// check is read-only over atomics (plus an occasional clock read),
    /// so it is safe and cheap from any thread.
    pub fn checkpoint(&self, phase: Phase, observer: &Observer) -> Option<Trip> {
        if let Some((at, reason)) = self.forced {
            if at == phase {
                return Some(Trip { reason, phase });
            }
        }
        if self.cancel.is_cancelled() {
            return Some(Trip {
                reason: TripReason::Cancelled,
                phase,
            });
        }
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() >= deadline {
                return Some(Trip {
                    reason: TripReason::Deadline {
                        limit_secs: deadline.as_secs_f64(),
                    },
                    phase,
                });
            }
        }
        if let Some(limit) = self.budget.max_memory_bytes {
            let observed = observer.memory().snapshot().tracked_total();
            if observed > limit {
                return Some(Trip {
                    reason: TripReason::MemoryBudget {
                        limit_bytes: limit,
                        observed_bytes: observed,
                    },
                    phase,
                });
            }
        }
        None
    }

    /// Merge-loop check, called once per prospective merge step. Counts
    /// the step and consults the step budget and cancellation every tick;
    /// the deadline is sampled every [`DEADLINE_STRIDE`] ticks (clock
    /// reads are too slow for the inner loop). Returns the trip, if any —
    /// in which case the step was *not* consumed.
    pub fn merge_tick(&self) -> Option<Trip> {
        let phase = Phase::Agglomerate;
        if let Some((at, reason)) = self.forced {
            if at == phase {
                return Some(Trip { reason, phase });
            }
        }
        let done = self.merge_steps.load(Ordering::Relaxed);
        if let Some(limit) = self.budget.max_merge_steps {
            if done >= limit {
                return Some(Trip {
                    reason: TripReason::StepBudget { limit },
                    phase,
                });
            }
        }
        if self.cancel.is_cancelled() {
            return Some(Trip {
                reason: TripReason::Cancelled,
                phase,
            });
        }
        if done.is_multiple_of(DEADLINE_STRIDE) {
            if let Some(deadline) = self.budget.deadline {
                if self.start.elapsed() >= deadline {
                    return Some(Trip {
                        reason: TripReason::Deadline {
                            limit_secs: deadline.as_secs_f64(),
                        },
                        phase,
                    });
                }
            }
        }
        self.merge_steps.store(done + 1, Ordering::Relaxed);
        None
    }

    /// Builds the [`Degradation`] report for a trip observed by this
    /// guard.
    pub fn degradation(&self, trip: Trip) -> Degradation {
        Degradation {
            reason: trip.reason,
            phase: trip.phase,
            merges_completed: self.merge_steps(),
            elapsed_secs: self.start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MemoryGauges;

    #[test]
    fn cancel_token_round_trip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        let obs = Observer::new();
        for p in Phase::ALL {
            assert!(g.checkpoint(p, &obs).is_none());
        }
        for _ in 0..1000 {
            assert!(g.merge_tick().is_none());
        }
        assert_eq!(g.merge_steps(), 1000);
        assert!(g.budget().is_unlimited());
    }

    #[test]
    fn step_budget_trips_after_limit() {
        let g = Guard::new(RunBudget::unlimited().steps(3));
        assert!(g.merge_tick().is_none());
        assert!(g.merge_tick().is_none());
        assert!(g.merge_tick().is_none());
        let trip = g.merge_tick().expect("fourth tick must trip");
        assert_eq!(trip.reason, TripReason::StepBudget { limit: 3 });
        assert_eq!(trip.phase, Phase::Agglomerate);
        // The tripped step was not consumed.
        assert_eq!(g.merge_steps(), 3);
    }

    #[test]
    fn zero_deadline_trips_at_checkpoint() {
        let g = Guard::new(RunBudget::unlimited().wall(Duration::ZERO));
        let obs = Observer::new();
        let trip = g.checkpoint(Phase::Sample, &obs).expect("must trip");
        assert!(matches!(trip.reason, TripReason::Deadline { .. }));
        // The merge loop samples the deadline on its first tick too.
        assert!(g.merge_tick().is_some());
    }

    #[test]
    fn memory_budget_reads_observer_gauges() {
        let g = Guard::new(RunBudget::unlimited().memory(100));
        let obs = Observer::new();
        assert!(g.checkpoint(Phase::Links, &obs).is_none());
        MemoryGauges::observe(&obs.memory().link_table, 500);
        let trip = g.checkpoint(Phase::Links, &obs).expect("must trip");
        assert_eq!(
            trip.reason,
            TripReason::MemoryBudget {
                limit_bytes: 100,
                observed_bytes: 500
            }
        );
    }

    #[test]
    fn cancellation_trips_checkpoints_and_ticks() {
        let g = Guard::unlimited();
        g.cancel_token().cancel();
        let obs = Observer::new();
        assert_eq!(
            g.checkpoint(Phase::Neighbors, &obs).map(|t| t.reason),
            Some(TripReason::Cancelled)
        );
        assert_eq!(
            g.merge_tick().map(|t| t.reason),
            Some(TripReason::Cancelled)
        );
    }

    #[test]
    fn injected_trip_fires_only_at_its_phase() {
        let g = Guard::unlimited().inject_trip_at(Phase::Links);
        let obs = Observer::new();
        assert!(g.checkpoint(Phase::Sample, &obs).is_none());
        assert!(g.checkpoint(Phase::Neighbors, &obs).is_none());
        let trip = g.checkpoint(Phase::Links, &obs).expect("must trip");
        assert_eq!(trip.reason, TripReason::Injected);
        // An agglomerate injection fires on merge ticks instead.
        let g = Guard::unlimited().inject_trip_at(Phase::Agglomerate);
        assert_eq!(g.merge_tick().map(|t| t.reason), Some(TripReason::Injected));
    }

    #[test]
    fn degradation_report_and_json() {
        let g = Guard::new(RunBudget::unlimited().steps(2));
        assert!(g.merge_tick().is_none());
        assert!(g.merge_tick().is_none());
        let trip = g.merge_tick().expect("trip");
        let d = g.degradation(trip);
        assert_eq!(d.merges_completed, 2);
        assert_eq!(d.phase, Phase::Agglomerate);
        assert!(d.to_string().contains("merge-step budget"));
        let json = d.to_json_fragment(false, 0);
        let v = crate::telemetry::json::Json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("reason").unwrap().as_str(), Some("step-budget"));
        assert_eq!(v.get("phase").unwrap().as_str(), Some("agglomerate"));
        assert_eq!(v.get("merges_completed").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("step_limit").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(TripReason::Cancelled.name(), "cancelled");
        assert_eq!(TripReason::StepBudget { limit: 1 }.name(), "step-budget");
        assert_eq!(TripReason::Deadline { limit_secs: 1.0 }.name(), "deadline");
        assert_eq!(
            TripReason::MemoryBudget {
                limit_bytes: 1,
                observed_bytes: 2
            }
            .name(),
            "memory-budget"
        );
        assert_eq!(TripReason::Injected.name(), "injected");
    }

    #[test]
    fn a_trip_maps_to_cancelled_or_budget_exhausted() {
        let trip = |reason| Trip {
            reason,
            phase: Phase::Labeling,
        };
        assert_eq!(
            RockError::from(trip(TripReason::Cancelled)),
            RockError::Cancelled
        );
        for reason in [
            TripReason::StepBudget { limit: 1 },
            TripReason::Deadline { limit_secs: 1.0 },
            TripReason::MemoryBudget {
                limit_bytes: 1,
                observed_bytes: 2,
            },
            TripReason::Injected,
        ] {
            let err = RockError::from(trip(reason));
            assert_eq!(
                err,
                RockError::BudgetExhausted {
                    reason: reason.name().to_owned(),
                    phase: "labeling".to_owned(),
                }
            );
            assert_eq!(err.exit_code(), 6);
        }
        assert_eq!(RockError::Cancelled.exit_code(), 6);
    }

    #[test]
    fn budget_builder_composes() {
        let b = RunBudget::unlimited()
            .steps(10)
            .wall(Duration::from_secs(1))
            .memory(1 << 20);
        assert_eq!(b.max_merge_steps, Some(10));
        assert_eq!(b.deadline, Some(Duration::from_secs(1)));
        assert_eq!(b.max_memory_bytes, Some(1 << 20));
        assert!(!b.is_unlimited());
    }
}
