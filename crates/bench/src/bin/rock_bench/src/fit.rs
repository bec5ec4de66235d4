//! The batch fit: the `fit-dense` and `sample-label` workloads, and the
//! outside-in replay of a fit through the public layer calls that every
//! traced run uses.

use std::time::{Duration, Instant};

use rock_core::agglomerate::{agglomerate_guarded, AgglomerateConfig};
use rock_core::labeling::label_many_observed;
use rock_core::prelude::*;
use rock_core::telemetry::trace::{Payload, Tracer};
use rock_core::telemetry::{CounterSnapshot, MemorySnapshot};
use rock_datasets::synthetic::{MushroomModel, PAPER_GROUP_SIZES};

use crate::harness::{
    layer, repeat_for, repeat_setup, samples, timed, Ctx, Run, MIN_REPS, THREADS,
};
use crate::stats::Samples;

/// Rows of the paper's mushroom table.
const PAPER_ROWS: usize = 8124;
/// Mushroom-like fits use the paper's θ and cluster count.
const THETA: f64 = 0.8;
const K: usize = 21;
/// Most points the traced run's labeling-engine probe labels.
const PROBE_ROWS: usize = 5_000;

/// One fit's configuration. Every fit uses Jaccard similarity and the
/// market-basket exponent f(θ) = (1−θ)/(1+θ).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FitSpec {
    /// Target cluster count.
    pub(crate) k: usize,
    /// Similarity threshold.
    pub(crate) theta: f64,
    /// Sampling: `All` or `Fixed`, the two the replay recomposes.
    pub(crate) sample: SampleStrategy,
    /// Representatives drawn per cluster for labeling.
    pub(crate) labeling: LabelingConfig,
    /// Sampling and representative seed.
    pub(crate) seed: u64,
}

impl FitSpec {
    fn rock(&self) -> Rock {
        RockBuilder::new(self.k, self.theta)
            .sample(self.sample)
            .labeling(self.labeling)
            .threads(THREADS)
            .seed(self.seed)
            .build()
    }

    /// One guarded fit. A fit that errors or degrades is an error.
    pub(crate) fn fit(&self, data: &TransactionSet) -> Result<RockModel, String> {
        match self
            .rock()
            .fit_guarded(data, &Observer::new(), &Guard::unlimited())
        {
            Ok(Outcome::Complete(model)) => Ok(model),
            Ok(Outcome::Degraded { degradation, .. }) => {
                Err(format!("fit degraded: {degradation:?}"))
            }
            Err(e) => Err(format!("fit failed: {e}")),
        }
    }

    /// The labeling snapshot of a fitted model.
    pub(crate) fn snapshot(
        &self,
        data: &TransactionSet,
        model: &RockModel,
    ) -> Result<ModelSnapshot, String> {
        ModelSnapshot::from_model(
            data,
            model,
            self.theta,
            MarketBasket.f(self.theta),
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            &self.labeling,
            self.seed,
        )
        .map_err(|e| format!("snapshot: {e}"))
    }
}

/// A mushroom-like table of about `rows` rows: the paper's 21 group
/// sizes scaled by `rows / 8124`.
pub(crate) fn mushroom(rows: usize, seed: u64) -> TransactionSet {
    let group_sizes = PAPER_GROUP_SIZES
        .iter()
        .map(|&s| (s * rows / PAPER_ROWS).max(1))
        .collect();
    let (table, _, _) = MushroomModel {
        group_sizes,
        ..MushroomModel::default()
    }
    .seed(seed)
    .generate();
    table.to_transactions()
}

/// FNV-1a digest of an assignment vector (outliers hash as `u32::MAX`).
pub(crate) fn digest(assignments: &[Option<ClusterId>]) -> u64 {
    let mut h = Fnv1a64::new();
    for a in assignments {
        h.update(&a.map_or(u32::MAX, |c| c.0).to_le_bytes());
    }
    h.finish()
}

/// `fit-dense`: every point of a 2,989-row table is clustered, so the
/// merge loop dominates and nothing is labeled.
pub(crate) fn dense(ctx: &Ctx) -> Result<Run, String> {
    let rows = ctx.scale(3_000, 400);
    workload(ctx, rows, SampleStrategy::All)
}

/// `sample-label`: the paper's large-data path on an 81,240-row table
/// (ten times the paper's) — cluster a 1,000-point sample, label the
/// other 80,240 rows. With a 2,000-point sample the merge heaps vary so
/// much with the rows drawn that peak memory falls into two groups 8 MiB
/// apart from seed to seed.
pub(crate) fn sample_label(ctx: &Ctx) -> Result<Run, String> {
    let (rows, sample) = ctx.scale((PAPER_ROWS * 10, 1_000), (2_000, 300));
    workload(ctx, rows, SampleStrategy::Fixed(sample))
}

fn workload(ctx: &Ctx, rows: usize, sample: SampleStrategy) -> Result<Run, String> {
    let spec = FitSpec {
        k: K,
        theta: THETA,
        sample,
        labeling: LabelingConfig::default(),
        seed: ctx.seed,
    };
    let mut run = Run::default();
    let (data, mut setup) = repeat_setup(ctx, || Ok(mushroom(rows, ctx.seed)))?;
    run.report.note(format!(
        "data: {} rows, k = {K}, theta = {THETA}, sample = {sample:?}",
        data.len()
    ));
    if ctx.traced() {
        trace_fit(ctx, &mut run, &data, &spec)?;
        return Ok(run);
    }

    // The composed pipeline runs first: it is the reference every timed
    // fit must equal, and it warms the allocator and caches.
    let reference = replay(&data, &spec, &ctx.tracer)?.assignments;
    run.report
        .note(format!("digest assignments {:016x}", digest(&reference)));
    let mut times = Vec::new();
    repeat_for(ctx.seconds, MIN_REPS, || {
        let (model, secs) = timed(|| spec.fit(&data));
        match model {
            Ok(model) => {
                run.check(model.assignments() == reference.as_slice(), || {
                    "fit differs from the composed pipeline".into()
                });
                times.push(secs);
            }
            Err(e) => run.check(false, || e),
        }
        // Set-up is cheap next to a fit: time it again after every fit,
        // so `setup_s` samples the whole run, not only its first second.
        setup.push(timed(|| mushroom(rows, ctx.seed)).1);
        Ok(())
    })?;
    let fits = samples(times.iter().map(|t| t * 1e3).collect(), "fit time")?;
    // Rows per second of the median fit: a mean over the run would let
    // one stalled fit move it.
    let rows_per_s = data.len() as f64 * 1e3 / fits.median();
    run.report
        .set_median("setup_s", samples(setup, "set-up time")?);
    run.report.set_median("latency_p50_ms", fits);
    run.report.set("throughput", rows_per_s);
    Ok(run)
}

/// Wall time of each layer call in one replay.
#[derive(Debug, Clone, Copy, Default)]
struct LayerSecs {
    sampling: f64,
    neighbors: f64,
    outliers: f64,
    links: f64,
    agglomerate: f64,
    labeling: f64,
}

impl LayerSecs {
    fn sum(&self) -> f64 {
        self.sampling
            + self.neighbors
            + self.outliers
            + self.links
            + self.agglomerate
            + self.labeling
    }
}

/// A fit recomposed from its public layer calls.
struct Replay {
    assignments: Vec<Option<ClusterId>>,
    secs: LayerSecs,
    /// Wall time of the whole replay.
    total: f64,
    counters: CounterSnapshot,
    memory: MemorySnapshot,
    /// Points the labeling layer labeled, and how many got a cluster.
    label_points: usize,
    label_hits: usize,
    /// The sample, and the filtered neighbor graph and link table the
    /// merge ran on, for the single-worker and heap-build calls.
    sample: TransactionSet,
    graph: NeighborGraph,
    links: LinkTable,
}

fn err(e: RockError) -> String {
    e.to_string()
}

/// Runs `spec`'s fit as the public calls `fit_guarded` is made of —
/// `sample_indices` → `subset` → `NeighborGraph::compute_guarded` →
/// `NeighborFilter::split_observed` + `restricted` →
/// `LinkTable::compute_guarded` → `agglomerate_guarded` →
/// `Representatives::draw` → `label_many_observed` — with one span per
/// layer on `tracer`, under a `fit.replay` span. Its assignments must
/// equal the fit's.
fn replay(data: &TransactionSet, spec: &FitSpec, tracer: &Tracer) -> Result<Replay, String> {
    let root = tracer.begin_scope();
    let (replay, total) = timed(|| compose(data, spec, tracer));
    if let Some(span) = root {
        tracer.end_scope(span, "fit.replay", None, Payload::new());
    }
    replay.map(|r| Replay { total, ..r })
}

fn compose(data: &TransactionSet, spec: &FitSpec, tracer: &Tracer) -> Result<Replay, String> {
    let obs = Observer::new();
    let guard = Guard::unlimited();
    let tripped = |what: &str| format!("{what} tripped an unlimited guard");
    let n = data.len();
    let mut secs = LayerSecs::default();
    let mut rng = seeded_rng(spec.seed);
    let fixed = match spec.sample {
        SampleStrategy::All => None,
        SampleStrategy::Fixed(s) => Some(s),
        other => return Err(format!("the replay does not recompose {other:?}")),
    };

    let (drawn, t) = layer(tracer, "phase", Some(Phase::Sample), || {
        let idx: Vec<usize> = match fixed {
            None => (0..n).collect(),
            Some(s) => sample_indices(n, s.min(n).max(1), &mut rng)?,
        };
        let sample = data.subset(&idx);
        Ok::<_, RockError>((idx, sample))
    });
    secs.sampling = t;
    let (idx, sample) = drawn.map_err(err)?;

    let (graph, t) = layer(tracer, "phase", Some(Phase::Neighbors), || {
        NeighborGraph::compute_guarded(&sample, &Jaccard, spec.theta, THREADS, &obs, &guard)
    });
    secs.neighbors = t;
    let (graph, trip) = graph.map_err(err)?;
    if trip.is_some() {
        return Err(tripped("neighbors"));
    }

    let ((kept, filtered, graph, clustered), t) =
        layer(tracer, "phase", Some(Phase::Outliers), || {
            let (kept, filtered) = NeighborFilter::default().split_observed(&graph, &obs);
            let (graph, clustered) = if filtered.is_empty() {
                (graph, sample.clone())
            } else {
                (graph.restricted(&kept), sample.subset(&kept))
            };
            (kept, filtered, graph, clustered)
        });
    secs.outliers = t;
    if kept.len() < spec.k {
        return Err(format!(
            "{} points kept, fewer than k = {}",
            kept.len(),
            spec.k
        ));
    }

    let ((links, trip), t) = layer(tracer, "phase", Some(Phase::Links), || {
        LinkTable::compute_guarded(&graph, THREADS, &obs, &guard)
    });
    secs.links = t;
    if trip.is_some() {
        return Err(tripped("links"));
    }

    let goodness = Goodness::new(spec.theta, &MarketBasket).map_err(err)?;
    let config = AgglomerateConfig {
        k: spec.k,
        prune: None,
        record_history: false,
        min_goodness: None,
    };
    let (agg, t) = layer(tracer, "phase", Some(Phase::Agglomerate), || {
        agglomerate_guarded(clustered.len(), &links, &goodness, &config, &obs, &guard)
    });
    secs.agglomerate = t;
    let (agg, trip) = agg.map_err(err)?;
    if trip.is_some() {
        return Err(tripped("agglomerate"));
    }

    // Sample-local indices back to dataset rows, as `fit_guarded` does.
    let original = |local: u32| idx[kept[local as usize]] as u32;
    let mut assignments: Vec<Option<ClusterId>> = vec![None; n];
    let mut clusters: Vec<Vec<u32>> = agg
        .clusters
        .iter()
        .map(|members| {
            let mut m: Vec<u32> = members.iter().map(|&p| original(p)).collect();
            m.sort_unstable();
            m
        })
        .collect();
    for (c, members) in clusters.iter().enumerate() {
        for &p in members {
            assignments[p as usize] = Some(ClusterId(c as u32));
        }
    }
    let mut outliers: Vec<u32> = filtered
        .iter()
        .map(|&i| idx[i] as u32)
        .chain(agg.outliers.iter().map(|&p| original(p)))
        .collect();

    // Points outside the clustered sample that are not already outliers.
    let (labeled, t) = layer(tracer, "phase", Some(Phase::Labeling), || {
        if clustered.len() >= n {
            return Ok((0, 0));
        }
        let mut settled = vec![false; n];
        for &i in &kept {
            settled[idx[i]] = true;
        }
        for &o in &outliers {
            settled[o as usize] = true;
        }
        let reps = Representatives::draw(&clustered, &agg.clusters, &spec.labeling, &mut rng)?;
        let rows: Vec<usize> = (0..n).filter(|&i| !settled[i]).collect();
        let points: Vec<&Transaction> = rows.iter().map(|&i| &data.transactions()[i]).collect();
        let labels = label_many_observed(
            &points,
            &reps,
            &Jaccard,
            &MarketBasket,
            spec.theta,
            THREADS,
            &obs,
        );
        let mut hits = 0;
        for (&i, label) in rows.iter().zip(labels) {
            match label {
                Some(c) => {
                    assignments[i] = Some(ClusterId(c as u32));
                    clusters[c].push(i as u32);
                    hits += 1;
                }
                None => outliers.push(i as u32),
            }
        }
        for members in &mut clusters {
            members.sort_unstable();
        }
        Ok::<_, RockError>((rows.len(), hits))
    });
    secs.labeling = t;
    let (label_points, label_hits) = labeled.map_err(err)?;

    // Final numbering: clusters by decreasing size, ties by first member.
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    order.sort_by(|&a, &b| {
        clusters[b]
            .len()
            .cmp(&clusters[a].len())
            .then_with(|| clusters[a].first().cmp(&clusters[b].first()))
    });
    let mut assignments: Vec<Option<ClusterId>> = vec![None; n];
    for (c, &i) in order.iter().enumerate() {
        for &p in &clusters[i] {
            assignments[p as usize] = Some(ClusterId(c as u32));
        }
    }
    Ok(Replay {
        assignments,
        secs,
        total: 0.0,
        counters: obs.counters().snapshot(),
        memory: obs.memory().snapshot(),
        label_points,
        label_hits,
        sample,
        graph,
        links,
    })
}

/// Untraced fits and traced replays, alternating (at most three pairs,
/// within half the run's seconds); each replay must equal its fit.
/// Then the threaded layers with one worker, the heap build alone, and
/// both labeling engines on the same points. Fills every fit, labeling
/// and snapshot metric.
pub(crate) fn trace_fit(
    ctx: &Ctx,
    run: &mut Run,
    data: &TransactionSet,
    spec: &FitSpec,
) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds / 2.0);
    let mut fits = Vec::new();
    let mut replays = Vec::new();
    let mut model = None;
    while replays.is_empty() || (replays.len() < 3 && Instant::now() < deadline) {
        let (fitted, secs) = timed(|| spec.fit(data));
        let fitted = fitted?;
        let replayed = replay(data, spec, tracer)?;
        run.check(
            fitted.assignments() == replayed.assignments.as_slice(),
            || "replayed pipeline differs from fit_guarded".into(),
        );
        fits.push(secs);
        replays.push(replayed);
        model = Some(fitted);
    }
    let model = model.ok_or("no traced fit ran")?;
    let median = |f: &dyn Fn(&Replay) -> f64| {
        Samples::new(replays.iter().map(f).collect()).map_or(0.0, |s| s.median())
    };
    let layers = LayerSecs {
        sampling: median(&|r| r.secs.sampling),
        neighbors: median(&|r| r.secs.neighbors),
        outliers: median(&|r| r.secs.outliers),
        links: median(&|r| r.secs.links),
        agglomerate: median(&|r| r.secs.agglomerate),
        labeling: median(&|r| r.secs.labeling),
    };
    let replay_s = median(&|r| r.total);
    let fit_s = samples(fits, "fit time")?.median();
    let last = replays.last().ok_or("no replay ran")?;
    let c = &last.counters;
    let r = &mut run.report;
    r.note(format!(
        "digest assignments {:016x}; {} fit/replay pairs: fit_guarded {fit_s:.4}s, traced replay {replay_s:.4}s",
        digest(model.assignments()),
        replays.len()
    ));
    r.set("sampling.s", layers.sampling);
    r.set("neighbors.s", layers.neighbors);
    r.set("neighbors.candidates", c.neighbor_candidates as f64);
    r.set("neighbors.pairs_verified", c.neighbor_pairs_verified as f64);
    r.set("neighbors.edges", c.neighbor_edges as f64);
    r.set(
        "neighbors.verify_yield",
        ratio(c.neighbor_edges, c.neighbor_pairs_verified),
    );
    r.set("outliers.s", layers.outliers);
    r.set("outliers.filtered", c.outliers_filtered as f64);
    r.set("links.s", layers.links);
    r.set("links.kernel_steps", c.link_kernel_steps as f64);
    r.set("links.entries", c.link_entries as f64);
    r.set(
        "links.entries_per_step",
        ratio(c.link_entries, c.link_kernel_steps),
    );
    r.set("links.table_bytes", last.memory.link_table as f64);
    r.set("agglomerate.s", layers.agglomerate);
    r.set("agglomerate.merges", c.merges as f64);
    r.set("agglomerate.heap_pushes", c.heap_pushes as f64);
    r.set("agglomerate.heap_pops", c.heap_pops as f64);
    r.set(
        "agglomerate.pushes_per_merge",
        ratio(c.heap_pushes, c.merges),
    );
    r.set("agglomerate.heap_bytes", last.memory.heaps as f64);
    r.set("labeling.share", layers.labeling / replay_s);
    r.set("labeling.points", last.label_points as f64);
    r.set(
        "labeling.labeled_share",
        ratio(last.label_hits as u64, last.label_points as u64),
    );
    r.set("fit.layer_sum_s", median(&|r| r.secs.sum()));
    r.set(
        "fit.unattributed_share",
        median(&|r| (r.total - r.secs.sum()) / r.total),
    );
    r.set("trace.overhead_share", (replay_s - fit_s) / fit_s);

    // The threaded layers again with one worker, and the heap build
    // alone: agglomerate_guarded with k = n performs no merge.
    let one = Observer::new();
    let guard = Guard::unlimited();
    let (_, t) = layer(tracer, "neighbors.1w", Some(Phase::Neighbors), || {
        NeighborGraph::compute_guarded(&last.sample, &Jaccard, spec.theta, 1, &one, &guard)
    });
    r.set("neighbors.s_1w", t);
    r.set("neighbors.speedup_2w", t / layers.neighbors);
    let (_, t) = layer(tracer, "links.1w", Some(Phase::Links), || {
        LinkTable::compute_guarded(&last.graph, 1, &one, &guard)
    });
    r.set("links.s_1w", t);
    r.set("links.speedup_2w", t / layers.links);
    let goodness = Goodness::new(spec.theta, &MarketBasket).map_err(err)?;
    let n = last.links.len();
    let (init, t) = layer(tracer, "agglomerate.init", Some(Phase::Agglomerate), || {
        agglomerate_guarded(
            n,
            &last.links,
            &goodness,
            &AgglomerateConfig::new(n),
            &one,
            &guard,
        )
    });
    r.set("agglomerate.init_s", t);
    r.set("agglomerate.loop_s", layers.agglomerate - t);
    run.check(init.is_ok_and(|(a, _)| a.merges == 0), || {
        "heap build with k = n merged".into()
    });

    labeling_probe(ctx, run, data, spec, &model)
}

/// Both labeling engines on the same points with the same
/// representatives: the scalar `label_many_observed` (what the batch fit
/// uses) with two workers and one, and `ModelSnapshot::label_chunk` on the
/// bit-packed index (what the stream and the server use). All three must
/// agree.
fn labeling_probe(
    ctx: &Ctx,
    run: &mut Run,
    data: &TransactionSet,
    spec: &FitSpec,
    model: &RockModel,
) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let (snapshot, build_s) = layer(tracer, "snapshot.build", None, || {
        spec.snapshot(data, model)
    });
    let snapshot = snapshot?;
    // `from_model` draws the snapshot's representatives with this seed.
    let reps = Representatives::draw(
        data,
        model.clusters(),
        &spec.labeling,
        &mut seeded_rng(spec.seed),
    )
    .map_err(err)?;
    let points: Vec<&Transaction> = data.transactions().iter().take(PROBE_ROWS).collect();
    let obs = Observer::new();
    let (two, t2) = layer(tracer, "labeling.probe", Some(Phase::Labeling), || {
        label_many_observed(
            &points,
            &reps,
            &Jaccard,
            &MarketBasket,
            spec.theta,
            THREADS,
            &obs,
        )
    });
    let (one, t1) = layer(tracer, "labeling.probe_1w", Some(Phase::Labeling), || {
        label_many_observed(
            &points,
            &reps,
            &Jaccard,
            &MarketBasket,
            spec.theta,
            1,
            &Observer::new(),
        )
    });
    let (dense, td) = layer(tracer, "snapshot.label_chunk", None, || {
        snapshot.label_chunk(&points, THREADS)
    });
    run.check(two == one && two == dense, || {
        "labeling engines disagree on the same points".into()
    });
    let evaluations = obs.counters().snapshot().labeling_evaluations;
    let r = &mut run.report;
    r.set("labeling.ns_per_eval", t2 * 1e9 / evaluations as f64);
    r.set("labeling.speedup_2w", t1 / t2);
    r.set("labeling.evaluations", evaluations as f64);
    r.set("snapshot.build_s", build_s);
    r.set(
        "snapshot.representatives",
        snapshot.representatives().total() as f64,
    );
    r.set(
        "snapshot.label_chunk_ns_per_point",
        td * 1e9 / points.len() as f64,
    );
    Ok(())
}

/// `num / den`, 0 when nothing was attempted.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
