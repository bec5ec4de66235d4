//! The end-to-end ROCK pipeline (paper §2, figure "Overview of ROCK"):
//! **draw random sample → cluster with links → label data on disk**, with
//! outlier handling at both ends.
//!
//! [`RockBuilder`] is the main public entry point:
//!
//! ```
//! use rock_core::prelude::*;
//!
//! // Two obvious groups of baskets.
//! let data: TransactionSet = vec![
//!     Transaction::new([0, 1, 2]),
//!     Transaction::new([0, 1, 2, 3]),
//!     Transaction::new([0, 1, 2, 4]),
//!     Transaction::new([10, 11, 12]),
//!     Transaction::new([10, 11, 12, 13]),
//!     Transaction::new([10, 11, 12, 14]),
//! ]
//! .into_iter()
//! .collect();
//!
//! let model = RockBuilder::new(2, 0.5).seed(7).build().fit(&data).unwrap();
//! assert_eq!(model.num_clusters(), 2);
//! assert_eq!(model.assignments()[0], model.assignments()[1]);
//! assert_ne!(model.assignments()[0], model.assignments()[3]);
//! ```

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::agglomerate::{
    agglomerate_guarded, partition, AgglomerateConfig, MergeStep, PruneConfig,
};
use crate::cast;
use crate::contracts;
use crate::data::{ClusterId, TransactionSet};
use crate::error::{Result, RockError};
use crate::goodness::{Goodness, LinkExponent, MarketBasket};
use crate::guard::{Degradation, Guard, Trip};
use crate::labeling::{LabelingConfig, Representatives};
use crate::links::LinkTable;
use crate::neighbors::NeighborGraph;
use crate::outliers::NeighborFilter;
use crate::sampling::{chernoff_sample_size, sample_indices, seeded_rng};
use crate::similarity::{Jaccard, Similarity};
use crate::telemetry::trace::Payload;
use crate::telemetry::{Level, MemoryGauges, Observer, Phase, PipelineCounters};

/// How the clustering sample is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleStrategy {
    /// Cluster every point (no labeling phase).
    All,
    /// Cluster a uniform sample of exactly this many points, then label the
    /// rest.
    Fixed(usize),
    /// Size the sample by the Chernoff bound (paper §4.2): capture at least
    /// fraction `xi` of every cluster of at least `u_min` points with
    /// per-cluster failure probability `delta`.
    Chernoff {
        /// Smallest cluster size that must be represented.
        u_min: usize,
        /// Fraction of each cluster the sample should capture.
        xi: f64,
        /// Per-cluster failure probability.
        delta: f64,
    },
}

/// Full pipeline configuration (see [`RockBuilder`] for construction).
#[derive(Debug, Clone)]
pub struct RockConfig {
    /// Target number of clusters.
    pub k: usize,
    /// Similarity threshold θ ∈ (0, 1).
    pub theta: f64,
    /// Sampling strategy.
    pub sample: SampleStrategy,
    /// Up-front outlier filter on the sample's neighbor graph.
    pub neighbor_filter: NeighborFilter,
    /// Mid-merge small-cluster pruning.
    pub prune: Option<PruneConfig>,
    /// Labeling configuration (representatives per cluster).
    pub labeling: LabelingConfig,
    /// Worker threads for the row-sharded phases — neighbor graph, link
    /// kernel and labeling (`0` = auto: one per available CPU, capped).
    pub threads: usize,
    /// RNG seed (sampling + representative selection).
    pub seed: u64,
    /// Record per-merge history in the model.
    pub record_history: bool,
    /// Stop merging once the best available goodness falls below this
    /// value (`None` = merge down to `k` or link exhaustion).
    pub min_goodness: Option<f64>,
    /// Write a rock-trace/v1 NDJSON event stream to this path during
    /// `fit` (`None` = tracing disabled, the near-zero-cost default).
    pub trace: Option<PathBuf>,
}

/// Builder for a [`Rock`] clusterer.
///
/// Defaults: Jaccard similarity, the market-basket exponent
/// `f(θ) = (1−θ)/(1+θ)`, cluster all points, drop isolated points, no
/// mid-merge pruning, seed 0.
#[derive(Debug, Clone)]
pub struct RockBuilder<S: Similarity = Jaccard, F: LinkExponent = MarketBasket> {
    config: RockConfig,
    sim: S,
    f: F,
}

impl RockBuilder {
    /// Starts a builder for `k` clusters at threshold `theta` with the
    /// paper's default similarity and exponent.
    pub fn new(k: usize, theta: f64) -> Self {
        RockBuilder {
            config: RockConfig {
                k,
                theta,
                sample: SampleStrategy::All,
                neighbor_filter: NeighborFilter::default(),
                prune: None,
                labeling: LabelingConfig::default(),
                threads: 0,
                seed: 0,
                record_history: false,
                min_goodness: None,
                trace: None,
            },
            sim: Jaccard,
            f: MarketBasket,
        }
    }
}

impl<S: Similarity, F: LinkExponent> RockBuilder<S, F> {
    /// Replaces the similarity measure.
    pub fn similarity<S2: Similarity>(self, sim: S2) -> RockBuilder<S2, F> {
        RockBuilder {
            config: self.config,
            sim,
            f: self.f,
        }
    }

    /// Replaces the link exponent function `f(θ)`.
    pub fn link_exponent<F2: LinkExponent>(self, f: F2) -> RockBuilder<S, F2> {
        RockBuilder {
            config: self.config,
            sim: self.sim,
            f,
        }
    }

    /// Sets the sampling strategy.
    pub fn sample(mut self, sample: SampleStrategy) -> Self {
        self.config.sample = sample;
        self
    }

    /// Sets the up-front neighbor-count outlier filter.
    pub fn neighbor_filter(mut self, filter: NeighborFilter) -> Self {
        self.config.neighbor_filter = filter;
        self
    }

    /// Enables mid-merge small-cluster pruning (paper §4.3).
    pub fn prune(mut self, prune: PruneConfig) -> Self {
        self.config.prune = Some(prune);
        self
    }

    /// Sets the labeling configuration.
    pub fn labeling(mut self, labeling: LabelingConfig) -> Self {
        self.config.labeling = labeling;
        self
    }

    /// Sets the worker-thread count for the neighbor, link and labeling
    /// phases (`0` = auto). Results are identical for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Record per-merge history in the model.
    pub fn record_history(mut self, record: bool) -> Self {
        self.config.record_history = record;
        self
    }

    /// Stop merging early when the best available goodness drops below
    /// `threshold` (the paper's alternative termination condition).
    pub fn min_goodness(mut self, threshold: f64) -> Self {
        self.config.min_goodness = Some(threshold);
        self
    }

    /// Write a rock-trace/v1 event stream to `path` during `fit`: phase
    /// scopes, per-worker shard spans, merge batches and latency
    /// histograms. See `DESIGN.md` §14 for the format.
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.trace = Some(path.into());
        self
    }

    /// Finalizes the builder.
    pub fn build(self) -> Rock<S, F> {
        Rock {
            config: self.config,
            sim: self.sim,
            f: self.f,
        }
    }
}

/// A configured ROCK clusterer. Create with [`RockBuilder`].
#[derive(Debug, Clone)]
pub struct Rock<S: Similarity = Jaccard, F: LinkExponent = MarketBasket> {
    config: RockConfig,
    sim: S,
    f: F,
}

/// Wall-clock timings of the pipeline phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Neighbor-graph computation on the sample.
    pub neighbors: Duration,
    /// Link-table computation.
    pub links: Duration,
    /// Agglomerative merging.
    pub merge: Duration,
    /// Labeling of outside-sample points.
    pub labeling: Duration,
    /// End-to-end `fit` time.
    pub total: Duration,
}

impl PhaseTimings {
    /// The phase walls `observer` accumulated, and the time since `start`.
    fn of(observer: &Observer, start: Instant) -> Self {
        PhaseTimings {
            neighbors: observer.phase_wall(Phase::Neighbors),
            links: observer.phase_wall(Phase::Links),
            merge: observer.phase_wall(Phase::Agglomerate),
            labeling: observer.phase_wall(Phase::Labeling),
            total: start.elapsed(),
        }
    }
}

/// Run statistics reported alongside the clustering.
#[derive(Debug, Clone, Default)]
pub struct RockStats {
    /// Points in the clustered sample (after outlier filtering).
    pub sample_size: usize,
    /// Average neighbor-list length `m_a` in the sample.
    pub avg_degree: f64,
    /// Maximum neighbor-list length `m_m` in the sample.
    pub max_degree: usize,
    /// Nonzero entries in the link table.
    pub link_entries: usize,
    /// Merges performed.
    pub merges: usize,
    /// Final criterion function value E_l on the sample.
    pub criterion: f64,
    /// Whether the merge phase reached exactly `k` clusters.
    pub reached_k: bool,
    /// Phase timings.
    pub timings: PhaseTimings,
}

/// Result of [`Rock::fit`].
#[derive(Debug, Clone)]
pub struct RockModel {
    assignments: Vec<Option<ClusterId>>,
    clusters: Vec<Vec<u32>>,
    sample_indices: Vec<usize>,
    outliers: Vec<u32>,
    history: Vec<MergeStep>,
    stats: RockStats,
}

impl RockModel {
    /// Per-point cluster assignments (`None` = outlier), aligned with the
    /// input data.
    pub fn assignments(&self) -> &[Option<ClusterId>] {
        &self.assignments
    }

    /// Member point indices per cluster, ordered by decreasing size.
    pub fn clusters(&self) -> &[Vec<u32>] {
        &self.clusters
    }

    /// Number of clusters found (may be more than `k` when link supply ran
    /// out, or fewer after pruning).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Indices of the points that formed the clustered sample.
    pub fn sample_indices(&self) -> &[usize] {
        &self.sample_indices
    }

    /// Points declared outliers (filtered, pruned, or unlabelable).
    pub fn outliers(&self) -> &[u32] {
        &self.outliers
    }

    /// Merge history (empty unless `record_history` was set).
    pub fn history(&self) -> &[MergeStep] {
        &self.history
    }

    /// Run statistics.
    pub fn stats(&self) -> &RockStats {
        &self.stats
    }

    /// Cluster sizes in decreasing order.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(Vec::len).collect()
    }

    /// Builds a [`Dendrogram`](crate::dendrogram::Dendrogram) over the
    /// clustered sample from the recorded merge history.
    ///
    /// Returns `None` unless history was recorded (`record_history(true)`)
    /// — and note the replay is only meaningful when no mid-merge pruning
    /// ran. The tree is over *sample-local* indices; map them through
    /// [`sample_indices`](Self::sample_indices) to reach original points.
    pub fn dendrogram(&self) -> Option<crate::dendrogram::Dendrogram> {
        if self.history.is_empty() {
            return None;
        }
        Some(crate::dendrogram::Dendrogram::new(
            self.stats.sample_size,
            self.history.clone(),
        ))
    }
}

/// Result of a guarded fit ([`Rock::fit_guarded`]).
///
/// ROCK is an *anytime* algorithm: every prefix of the merge sequence is a
/// valid partition, so running out of budget does not mean running out of
/// answers. A guarded fit therefore never panics and never discards work —
/// it either completes or hands back the best partition built so far,
/// together with a machine-readable [`Degradation`] report.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The pipeline ran to completion under budget.
    Complete(RockModel),
    /// A budget tripped (or the run was cancelled) before the pipeline
    /// finished.
    Degraded {
        /// The partial — but internally consistent — clustering. Points
        /// the pipeline never reached are reported as outliers.
        model: RockModel,
        /// What tripped, at which phase, and how far the run got.
        degradation: Degradation,
    },
}

impl Outcome {
    /// The model, complete or partial.
    pub fn model(&self) -> &RockModel {
        match self {
            Outcome::Complete(m) | Outcome::Degraded { model: m, .. } => m,
        }
    }

    /// Consumes the outcome, returning the model.
    pub fn into_model(self) -> RockModel {
        match self {
            Outcome::Complete(m) | Outcome::Degraded { model: m, .. } => m,
        }
    }

    /// The degradation report, when the run was cut short.
    pub fn degradation(&self) -> Option<&Degradation> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Degraded { degradation, .. } => Some(degradation),
        }
    }

    /// Whether the run was cut short by a budget trip or cancellation.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Outcome::Degraded { .. })
    }
}

/// The fallback partition when a guard trips before any clustering
/// structure exists: every point is an outlier. Still a valid partition —
/// [`contracts::check_partition`] holds — so downstream consumers need no
/// special casing.
fn degraded_all_outliers(
    n: usize,
    start: Instant,
    observer: &Observer,
    guard: &Guard,
    trip: Trip,
) -> Outcome {
    let assignments: Vec<Option<ClusterId>> = vec![None; n];
    let outliers: Vec<u32> = (0..n).map(cast::usize_to_u32).collect();
    contracts::check_partition(&assignments, &outliers);
    let stats = RockStats {
        timings: PhaseTimings::of(observer, start),
        ..RockStats::default()
    };
    Outcome::Degraded {
        model: RockModel {
            assignments,
            clusters: Vec::new(),
            sample_indices: Vec::new(),
            outliers,
            history: Vec::new(),
            stats,
        },
        degradation: guard.degradation(trip),
    }
}

/// Runs one pipeline phase: an [`Observer::phase`] span around `body`
/// and, when tracing, a `phase` scope closed with the payload `body`
/// returns. An error from `body` propagates before the scope is closed,
/// so a failed phase writes no `phase` record.
fn run_phase<T>(
    observer: &Observer,
    phase: Phase,
    body: impl FnOnce() -> Result<(T, Payload)>,
) -> Result<T> {
    let span = observer.phase(phase);
    let scope = observer.tracer().begin_scope();
    let (value, payload) = body()?;
    if let Some(scope) = scope {
        observer
            .tracer()
            .end_scope(scope, "phase", Some(phase), payload);
    }
    span.finish();
    Ok(value)
}

impl<S: Similarity, F: LinkExponent> Rock<S, F> {
    /// The configuration in use.
    pub fn config(&self) -> &RockConfig {
        &self.config
    }

    /// Clusters `data`.
    ///
    /// # Errors
    /// Propagates configuration and data validation errors
    /// ([`RockError::InvalidTheta`], [`RockError::InvalidK`],
    /// [`RockError::InvalidFraction`], [`RockError::EmptyDataset`],
    /// [`RockError::EmptySample`], …).
    pub fn fit(&self, data: &TransactionSet) -> Result<RockModel> {
        Ok(self
            .fit_guarded(data, &Observer::new(), &Guard::unlimited())?
            .into_model())
    }

    /// [`fit`](Self::fit) with telemetry and under an execution [`Guard`].
    /// Every pipeline phase runs under an [`Observer`] span, hot-path
    /// counters and memory gauges fill in, and phase/progress events
    /// stream to the observer's sink; collect a
    /// [`Metrics`](crate::telemetry::Metrics) document from the observer
    /// afterwards for machine-readable export. Budgets and cancellation
    /// are checked at every contract-instrumented phase boundary and
    /// inside the agglomeration merge loop. When the guard trips, the
    /// pipeline stops early and returns [`Outcome::Degraded`] carrying the
    /// best valid partition built so far plus a [`Degradation`] report —
    /// never a panic, and never a bare error. Points the pipeline never
    /// assigned are swept into the outlier set so the partition
    /// invariants still hold. Under [`Guard::unlimited`] the outcome is
    /// always [`Outcome::Complete`].
    ///
    /// # Errors
    /// Same validation errors as [`fit`](Self::fit). Budget exhaustion and
    /// cancellation are *not* errors; they degrade — and when `trace` is
    /// configured, the stream is flushed on *every* exit path (complete,
    /// degraded or error), so even a tripped run leaves a well-formed,
    /// truncated-but-parseable trace behind.
    pub fn fit_guarded(
        &self,
        data: &TransactionSet,
        observer: &Observer,
        guard: &Guard,
    ) -> Result<Outcome> {
        let started_trace = match &self.config.trace {
            // An already-enabled tracer (e.g. attached by the caller) is
            // left untouched: the caller owns its lifecycle.
            Some(path) if !observer.tracer().is_enabled() => {
                observer.tracer().start_to_path(path, "rock-core")?;
                true
            }
            _ => false,
        };
        let result = self.fit_guarded_inner(data, observer, guard);
        if started_trace {
            let finished = observer.tracer().finish();
            if result.is_ok() {
                finished?;
            }
        }
        result
    }

    fn fit_guarded_inner(
        &self,
        data: &TransactionSet,
        observer: &Observer,
        guard: &Guard,
    ) -> Result<Outcome> {
        // rock-analyze: allow(wall-clock) — the audited timing site: total wall time for PhaseTimings only, never in clustering decisions.
        let start = Instant::now();
        let n = data.len();
        if n == 0 {
            return Err(RockError::EmptyDataset);
        }
        if self.config.k == 0 || self.config.k > n {
            return Err(RockError::InvalidK {
                k: self.config.k,
                n,
            });
        }
        self.config.labeling.validate()?;
        if let Some(prune) = &self.config.prune {
            prune.validate()?;
        }
        let mut rng = seeded_rng(self.config.seed);

        // ── Phase 1: sample ────────────────────────────────────────────
        let (sample_indices, sample) = run_phase(observer, Phase::Sample, || {
            let sample_indices: Vec<usize> = match self.config.sample {
                SampleStrategy::All => (0..n).collect(),
                SampleStrategy::Fixed(s) => sample_indices(n, s.min(n).max(1), &mut rng)?,
                SampleStrategy::Chernoff { u_min, xi, delta } => {
                    let s = chernoff_sample_size(n, u_min, xi, delta)?.max(self.config.k);
                    sample_indices(n, s.min(n), &mut rng)?
                }
            };
            let sample = data.subset(&sample_indices);
            contracts::check_sample(&sample_indices, n);
            let points = cast::usize_to_u64(sample_indices.len());
            PipelineCounters::add(&observer.counters().points_sampled, points);
            observer.log(Level::Info, || {
                format!("sampled {} of {n} points", sample_indices.len())
            });
            Ok((
                (sample_indices, sample),
                Payload::new().count("points", points),
            ))
        })?;
        if let Some(trip) = guard.checkpoint(Phase::Sample, observer) {
            return Ok(degraded_all_outliers(n, start, observer, guard, trip));
        }

        // ── Phase 2: neighbors on the sample ──────────────────────────
        // The index-join kernel polls the guard from inside its build and
        // probe loops, so a trip stops the phase mid-flight; the partial
        // graph is discarded below and the run degrades.
        let (graph, neighbors_trip) = run_phase(observer, Phase::Neighbors, || {
            let (graph, trip) = NeighborGraph::compute_guarded(
                &sample,
                &self.sim,
                self.config.theta,
                self.config.threads,
                observer,
                guard,
            )?;
            let edges = cast::usize_to_u64(graph.num_edges());
            Ok(((graph, trip), Payload::new().count("edges", edges)))
        })?;
        if let Some(trip) = neighbors_trip.or_else(|| guard.checkpoint(Phase::Neighbors, observer))
        {
            return Ok(degraded_all_outliers(n, start, observer, guard, trip));
        }
        // Only a completed graph satisfies the symmetry contract; a
        // tripped partial graph was discarded above.
        contracts::check_neighbor_graph(&graph);

        // Up-front outlier filter.
        let (kept, graph, clustered, avg_degree, max_degree) =
            run_phase(observer, Phase::Outliers, || {
                let (kept, filtered): (Vec<usize>, Vec<usize>) =
                    self.config.neighbor_filter.split_observed(&graph, observer);
                contracts::check_outlier_split(&kept, &filtered, sample.len());
                if kept.is_empty() {
                    return Err(RockError::EmptySample);
                }
                if kept.len() < self.config.k {
                    return Err(RockError::InvalidK {
                        k: self.config.k,
                        n: kept.len(),
                    });
                }
                let (graph, clustered) = if filtered.is_empty() {
                    (graph, sample.clone())
                } else {
                    (graph.restricted(&kept), sample.subset(&kept))
                };
                let (avg_degree, max_degree) = graph.degree_stats();
                observer.log(Level::Info, || {
                    format!(
                        "filtered {} isolated points; m_a = {avg_degree:.2}, m_m = {max_degree}",
                        filtered.len()
                    )
                });
                let payload = Payload::new()
                    .count("kept", cast::usize_to_u64(kept.len()))
                    .count("filtered", cast::usize_to_u64(filtered.len()));
                Ok(((kept, graph, clustered, avg_degree, max_degree), payload))
            })?;
        if let Some(trip) = guard.checkpoint(Phase::Outliers, observer) {
            return Ok(degraded_all_outliers(n, start, observer, guard, trip));
        }

        // ── Phase 3: links + merge ─────────────────────────────────────
        // The sharded kernel polls the guard from inside its worker
        // loops, so a trip stops the phase mid-flight; the partial table
        // is discarded and the run degrades like any other Links trip.
        let (links, links_trip) = run_phase(observer, Phase::Links, || {
            let (links, trip) =
                LinkTable::compute_guarded(&graph, self.config.threads, observer, guard);
            let entries = cast::usize_to_u64(links.num_entries());
            Ok(((links, trip), Payload::new().count("entries", entries)))
        })?;
        if let Some(trip) = links_trip.or_else(|| guard.checkpoint(Phase::Links, observer)) {
            return Ok(degraded_all_outliers(n, start, observer, guard, trip));
        }
        contracts::check_link_table(&links);
        let link_entries = links.num_entries();

        let goodness = Goodness::new(self.config.theta, &self.f)?;
        let (agg, mut trip) = run_phase(observer, Phase::Agglomerate, || {
            let (agg, trip) = agglomerate_guarded(
                clustered.len(),
                &links,
                &goodness,
                &AgglomerateConfig {
                    k: self.config.k,
                    prune: self.config.prune,
                    record_history: self.config.record_history,
                    min_goodness: self.config.min_goodness,
                },
                observer,
                guard,
            )?;
            MemoryGauges::observe(
                &observer.memory().dendrogram,
                cast::usize_to_u64(
                    std::mem::size_of::<crate::dendrogram::Dendrogram>()
                        + agg.history.capacity() * std::mem::size_of::<MergeStep>(),
                ),
            );
            observer.log(Level::Info, || {
                format!(
                    "merged to {} clusters in {} steps (reached_k = {})",
                    agg.clusters.len(),
                    agg.merges,
                    agg.reached_k
                )
            });
            let payload = Payload::new()
                .count("merges", cast::usize_to_u64(agg.merges))
                .count("clusters", cast::usize_to_u64(agg.clusters.len()));
            Ok(((agg, trip), payload))
        })?;

        // One label per point: its sample cluster, its labeled cluster, or
        // none (filtered, pruned, unlabelable, or never reached). Sample-
        // local point `i` is `kept[i]` in `sample`, which is original point
        // `sample_indices[kept[i]]`.
        let mut labels: Vec<Option<u32>> = vec![None; n];
        for (&i, &cluster) in kept.iter().zip(&agg.assignment) {
            labels[sample_indices[i]] = cluster;
        }

        // ── Phase 4: label points outside the clustered sample ────────
        let outliers = run_phase(observer, Phase::Labeling, || {
            if trip.is_none() {
                trip = guard.checkpoint(Phase::Labeling, observer);
            }
            if trip.is_none() && clustered.len() < n {
                // Clustered sample points are assigned; filtered sample
                // points stay outliers per the paper. Only points never
                // seen by the clustering phase get labeled.
                let mut settled = vec![false; n];
                for &i in &sample_indices {
                    settled[i] = true;
                }
                let reps = Representatives::draw(
                    &clustered,
                    &agg.clusters,
                    &self.config.labeling,
                    &mut rng,
                )?;
                // Rows come from `0..n`, so the lookup cannot fail;
                // pairing each row with its transaction keeps the label
                // zip aligned even if it ever did.
                let rows: Vec<(usize, &crate::data::Transaction)> = (0..n)
                    .filter(|&i| !settled[i])
                    .filter_map(|i| data.transaction(i).map(|t| (i, t)))
                    .collect();
                let points: Vec<&crate::data::Transaction> = rows.iter().map(|&(_, t)| t).collect();
                let found = crate::labeling::label_many_observed(
                    &points,
                    &reps,
                    &self.sim,
                    &self.f,
                    self.config.theta,
                    self.config.threads,
                    observer,
                );
                for (&(i, _), label) in rows.iter().zip(found) {
                    labels[i] = label.map(cast::usize_to_u32);
                }
            }
            // A run cut short leaves the points it never reached
            // (skipped labeling, interrupted merges) unlabeled: outliers.
            let outliers: Vec<u32> = (0..cast::usize_to_u32(n))
                .filter(|&i| labels[cast::u32_to_usize(i)].is_none())
                .collect();
            let payload = Payload::new().count("outliers", cast::usize_to_u64(outliers.len()));
            Ok((outliers, payload))
        })?;

        let (clusters, index) = partition(&labels);
        let assignments: Vec<Option<ClusterId>> =
            index.into_iter().map(|c| c.map(ClusterId)).collect();
        contracts::check_partition(&assignments, &outliers);

        let stats = RockStats {
            sample_size: clustered.len(),
            avg_degree,
            max_degree,
            link_entries,
            merges: agg.merges,
            criterion: agg.criterion,
            reached_k: agg.reached_k,
            timings: PhaseTimings::of(observer, start),
        };
        let model = RockModel {
            assignments,
            clusters,
            sample_indices: kept.iter().map(|&i| sample_indices[i]).collect(),
            outliers,
            history: agg.history,
            stats,
        };
        Ok(match trip {
            None => Outcome::Complete(model),
            Some(t) => Outcome::Degraded {
                model,
                degradation: guard.degradation(t),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Transaction;

    fn blocks(sizes: &[usize], shared: usize) -> (TransactionSet, Vec<usize>) {
        let mut v = Vec::new();
        let mut truth = Vec::new();
        for (b, &size) in sizes.iter().enumerate() {
            let base = (b as u32) * 1000;
            for i in 0..size as u32 {
                let mut items: Vec<u32> = (base..base + shared as u32).collect();
                items.push(base + 500 + i);
                v.push(Transaction::new(items));
                truth.push(b);
            }
        }
        (v.into_iter().collect(), truth)
    }

    #[test]
    fn fit_recovers_two_blocks() {
        let (data, truth) = blocks(&[10, 10], 5);
        let model = RockBuilder::new(2, 0.5).build().fit(&data).unwrap();
        assert_eq!(model.num_clusters(), 2);
        assert_eq!(model.cluster_sizes(), vec![10, 10]);
        let preds: Vec<Option<u32>> = model.assignments().iter().map(|a| a.map(|c| c.0)).collect();
        let acc = crate::metrics::matched_accuracy(&preds, &truth).unwrap();
        assert_eq!(acc, 1.0);
        assert!(model.stats().reached_k);
        assert!(model.stats().criterion > 0.0);
    }

    #[test]
    fn fit_with_sampling_and_labeling() {
        let (data, truth) = blocks(&[40, 40], 6);
        let model = RockBuilder::new(2, 0.5)
            .sample(SampleStrategy::Fixed(30))
            .seed(3)
            .build()
            .fit(&data)
            .unwrap();
        assert_eq!(model.num_clusters(), 2);
        assert_eq!(model.sample_indices().len(), 30);
        // Every point gets labeled into its own block.
        let preds: Vec<Option<u32>> = model.assignments().iter().map(|a| a.map(|c| c.0)).collect();
        let acc = crate::metrics::matched_accuracy(&preds, &truth).unwrap();
        assert_eq!(acc, 1.0, "labeling should be perfect on clean blocks");
        assert!(model.outliers().is_empty());
    }

    #[test]
    fn sampled_fit_orders_clusters_by_their_labeled_size() {
        // Blocks of 20 and 22 points, clustered from 16-point samples:
        // a sample that holds more of the smaller block still puts the
        // larger block first once every point is labeled.
        let (data, _) = blocks(&[20, 22], 6);
        let mut smaller_block_led = false;
        for seed in 0..8 {
            let model = RockBuilder::new(2, 0.5)
                .sample(SampleStrategy::Fixed(16))
                .seed(seed)
                .build()
                .fit(&data)
                .unwrap();
            let from_smaller = model.sample_indices().iter().filter(|&&i| i < 20).count();
            smaller_block_led |= 2 * from_smaller > model.sample_indices().len();
            assert_eq!(model.cluster_sizes(), vec![22, 20], "seed {seed}");
            assert_eq!(model.clusters()[0][0], 20, "seed {seed}");
            assert_eq!(model.assignments()[0], Some(ClusterId(1)), "seed {seed}");
        }
        assert!(
            smaller_block_led,
            "no sample held more of the smaller block"
        );
    }

    #[test]
    fn chernoff_strategy_runs() {
        let (data, _) = blocks(&[50, 50], 6);
        let model = RockBuilder::new(2, 0.5)
            .sample(SampleStrategy::Chernoff {
                u_min: 40,
                xi: 0.2,
                delta: 0.05,
            })
            .seed(11)
            .build()
            .fit(&data)
            .unwrap();
        assert_eq!(model.num_clusters(), 2);
        assert!(model.stats().sample_size <= 100);
        assert!(model.stats().sample_size >= 20);
    }

    #[test]
    fn isolated_points_become_outliers() {
        let (mut data, _) = blocks(&[8, 8], 5);
        let mut v: Vec<Transaction> = data.iter().cloned().collect();
        v.push(Transaction::new([90_000, 90_001]));
        data = v.into_iter().collect();
        let model = RockBuilder::new(2, 0.5).build().fit(&data).unwrap();
        assert_eq!(model.outliers(), &[16]);
        assert!(model.assignments()[16].is_none());
        assert_eq!(model.num_clusters(), 2);
    }

    #[test]
    fn validates_inputs() {
        let (data, _) = blocks(&[5, 5], 4);
        assert!(RockBuilder::new(0, 0.5).build().fit(&data).is_err());
        assert!(RockBuilder::new(99, 0.5).build().fit(&data).is_err());
        assert!(RockBuilder::new(2, 1.5).build().fit(&data).is_err());
        let empty: TransactionSet = Vec::new().into_iter().collect();
        assert!(RockBuilder::new(1, 0.5).build().fit(&empty).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blocks(&[20, 20], 5);
        let run = |seed| {
            RockBuilder::new(2, 0.5)
                .sample(SampleStrategy::Fixed(24))
                .seed(seed)
                .build()
                .fit(&data)
                .unwrap()
                .clusters()
                .to_vec()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn history_recorded_on_request() {
        let (data, _) = blocks(&[6, 6], 5);
        let with = RockBuilder::new(2, 0.5)
            .record_history(true)
            .build()
            .fit(&data)
            .unwrap();
        assert_eq!(with.history().len(), 10);
        let without = RockBuilder::new(2, 0.5).build().fit(&data).unwrap();
        assert!(without.history().is_empty());
    }

    #[test]
    fn builder_accepts_custom_measure_and_exponent() {
        use crate::goodness::ConstantExponent;
        use crate::similarity::Dice;
        let (data, _) = blocks(&[8, 8], 5);
        let model = RockBuilder::new(2, 0.5)
            .similarity(Dice)
            .link_exponent(ConstantExponent(0.5))
            .build()
            .fit(&data)
            .unwrap();
        assert_eq!(model.num_clusters(), 2);
    }

    #[test]
    fn multithreaded_fit_is_deterministic() {
        let (data, _) = blocks(&[150, 150], 6);
        let run = |threads| {
            RockBuilder::new(2, 0.5)
                .threads(threads)
                .sample(SampleStrategy::Fixed(200))
                .seed(4)
                .build()
                .fit(&data)
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.clusters(), b.clusters());
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.outliers(), b.outliers());
    }

    #[test]
    fn all_options_compose() {
        use crate::agglomerate::PruneConfig;
        use crate::goodness::ConstantExponent;
        use crate::labeling::LabelingConfig;
        use crate::outliers::NeighborFilter;
        use crate::similarity::Dice;
        let (data, _) = blocks(&[40, 40, 40], 6);
        let model = RockBuilder::new(3, 0.5)
            .similarity(Dice)
            .link_exponent(ConstantExponent(0.4))
            .sample(SampleStrategy::Fixed(60))
            .neighbor_filter(NeighborFilter::new(2))
            .prune(PruneConfig {
                checkpoint_fraction: 0.1,
                max_prune_size: 1,
            })
            .labeling(LabelingConfig {
                representative_fraction: 0.5,
                max_representatives: 16,
            })
            .min_goodness(0.0)
            .threads(2)
            .seed(6)
            .record_history(true)
            .build()
            .fit(&data)
            .unwrap();
        assert!(model.num_clusters() >= 3);
        assert!(!model.history().is_empty());
        assert_eq!(model.assignments().len(), 120);
    }

    #[test]
    fn invalid_labeling_config_rejected_up_front() {
        let (data, _) = blocks(&[5, 5], 4);
        let err = RockBuilder::new(2, 0.5)
            .labeling(crate::labeling::LabelingConfig {
                representative_fraction: 2.0,
                max_representatives: 0,
            })
            .build()
            .fit(&data)
            .unwrap_err();
        assert!(matches!(err, RockError::InvalidFraction { .. }));
    }

    fn assert_valid_partition(model: &RockModel, n: usize) {
        assert_eq!(model.assignments().len(), n);
        let clustered: usize = model.clusters().iter().map(Vec::len).sum();
        assert_eq!(clustered + model.outliers().len(), n);
        for &o in model.outliers() {
            assert!(model.assignments()[o as usize].is_none());
        }
        for (c, members) in model.clusters().iter().enumerate() {
            for &p in members {
                assert_eq!(model.assignments()[p as usize], Some(ClusterId(c as u32)));
            }
        }
    }

    #[test]
    fn unlimited_guard_completes_and_matches_fit() {
        use crate::telemetry::Observer;
        let (data, _) = blocks(&[10, 10], 5);
        let rock = RockBuilder::new(2, 0.5).build();
        let plain = rock.fit(&data).unwrap();
        let outcome = rock
            .fit_guarded(&data, &Observer::new(), &Guard::unlimited())
            .unwrap();
        assert!(!outcome.is_degraded());
        assert!(outcome.degradation().is_none());
        assert_eq!(outcome.model().clusters(), plain.clusters());
        assert_eq!(outcome.into_model().assignments(), plain.assignments());
    }

    #[test]
    fn step_budget_degrades_to_valid_partition() {
        use crate::guard::{RunBudget, TripReason};
        use crate::telemetry::Observer;
        let (data, _) = blocks(&[10, 10], 5);
        let guard = Guard::new(RunBudget::unlimited().steps(4));
        let outcome = RockBuilder::new(2, 0.5)
            .build()
            .fit_guarded(&data, &Observer::new(), &guard)
            .unwrap();
        assert!(outcome.is_degraded());
        let d = outcome.degradation().unwrap();
        assert_eq!(d.reason, TripReason::StepBudget { limit: 4 });
        assert_eq!(d.merges_completed, 4);
        assert_eq!(d.phase, Phase::Agglomerate);
        let model = outcome.model();
        assert_eq!(model.stats().merges, 4);
        assert!(!model.stats().reached_k);
        assert_valid_partition(model, 20);
    }

    #[test]
    fn early_phase_trip_yields_all_outlier_partition() {
        use crate::telemetry::Observer;
        let (data, _) = blocks(&[8, 8], 5);
        for phase in [
            Phase::Sample,
            Phase::Neighbors,
            Phase::Outliers,
            Phase::Links,
        ] {
            let guard = Guard::unlimited().inject_trip_at(phase);
            let outcome = RockBuilder::new(2, 0.5)
                .build()
                .fit_guarded(&data, &Observer::new(), &guard)
                .unwrap();
            assert!(outcome.is_degraded(), "injection at {phase:?} must degrade");
            assert_eq!(outcome.degradation().unwrap().phase, phase);
            let model = outcome.model();
            assert_eq!(model.num_clusters(), 0);
            assert_eq!(model.outliers().len(), 16);
            assert_valid_partition(model, 16);
        }
    }

    #[test]
    fn labeling_trip_keeps_sample_clusters_and_sweeps_rest() {
        use crate::telemetry::Observer;
        let (data, _) = blocks(&[40, 40], 6);
        let guard = Guard::unlimited().inject_trip_at(Phase::Labeling);
        let outcome = RockBuilder::new(2, 0.5)
            .sample(SampleStrategy::Fixed(30))
            .seed(3)
            .build()
            .fit_guarded(&data, &Observer::new(), &guard)
            .unwrap();
        assert!(outcome.is_degraded());
        assert_eq!(outcome.degradation().unwrap().phase, Phase::Labeling);
        let model = outcome.model();
        // The sample was clustered, the other 50 points were never labeled
        // and must have been swept into the outlier set.
        assert_eq!(model.num_clusters(), 2);
        assert_eq!(model.outliers().len(), 50);
        assert_valid_partition(model, 80);
    }

    #[test]
    fn cancellation_before_fit_degrades_immediately() {
        use crate::telemetry::Observer;
        let (data, _) = blocks(&[8, 8], 5);
        let guard = Guard::unlimited();
        guard.cancel_token().cancel();
        let outcome = RockBuilder::new(2, 0.5)
            .build()
            .fit_guarded(&data, &Observer::new(), &guard)
            .unwrap();
        assert!(outcome.is_degraded());
        assert_eq!(
            outcome.degradation().unwrap().reason,
            crate::guard::TripReason::Cancelled
        );
        assert_valid_partition(outcome.model(), 16);
    }

    #[test]
    fn validation_errors_still_error_under_guard() {
        use crate::telemetry::Observer;
        let (data, _) = blocks(&[5, 5], 4);
        let guard = Guard::unlimited();
        let err = RockBuilder::new(0, 0.5)
            .build()
            .fit_guarded(&data, &Observer::new(), &guard)
            .unwrap_err();
        assert!(matches!(err, RockError::InvalidK { .. }));
    }

    #[test]
    fn stats_are_populated() {
        let (data, _) = blocks(&[10, 10], 5);
        let model = RockBuilder::new(2, 0.5).build().fit(&data).unwrap();
        let s = model.stats();
        assert_eq!(s.sample_size, 20);
        assert!(s.avg_degree > 0.0);
        assert!(s.max_degree >= 9);
        assert!(s.link_entries > 0);
        assert!(s.timings.total >= s.timings.neighbors);
    }
}
