//! A paper-literal ROCK (Guha, Rastogi & Shim, §3–§4), checked end to end
//! against `Rock::fit_guarded`.
//!
//! The reference is dense and naive on purpose: an n×n neighbor matrix
//! from `sim(p, q) ≥ θ`, the link matrix as its square (§4.1), a linear
//! scan over every live pair for the best merge (§4), and labeling by
//! `N_i / (|L_i| + 1)^{f(θ)}` over the model's representatives (§4.2).
//! What it shares with the library is only what defines the result: the
//! measures, the goodness arithmetic (`Goodness::merge_goodness`, each
//! side with its own size first, and `criterion_term`), the
//! `GoodnessKey` tie-break (smaller id wins), the seeded sampler and the
//! representative draw. The merge sequence, its goodness bits, the
//! clusters, the outliers and the labels must come out identical — for
//! every measure, thread count, pruning setting and step budget, on
//! degenerate inputs, and on graphs either side of the link-kernel
//! switch.

use rock::core::agglomerate::GoodnessKey;
use rock::core::telemetry::trace::{PayloadValue, TraceRecord};
use rock::datasets::synthetic::MushroomModel;
use rock::prelude::*;

/// One pipeline configuration.
#[derive(Debug, Clone)]
struct Case {
    k: usize,
    theta: f64,
    /// `None` clusters every point; `Some(s)` a uniform sample of `s`.
    sample: Option<usize>,
    min_neighbors: usize,
    prune: Option<PruneConfig>,
    min_goodness: Option<f64>,
    steps: Option<u64>,
    threads: usize,
    seed: u64,
}

impl Case {
    fn new(k: usize, theta: f64) -> Self {
        Case {
            k,
            theta,
            sample: None,
            min_neighbors: 1,
            prune: None,
            min_goodness: None,
            steps: None,
            threads: 1,
            seed: 0,
        }
    }
}

/// One merge: `(kept, absorbed, goodness bits, sizes, criterion bits)`.
type Step = (u32, u32, u64, (u32, u32), u64);

/// What a fit must produce.
#[derive(Debug, PartialEq)]
struct Fit {
    history: Vec<Step>,
    clusters: Vec<Vec<u32>>,
    outliers: Vec<u32>,
    assignments: Vec<Option<u32>>,
    criterion: u64,
    degraded: bool,
}

fn sort_clusters(clusters: &mut [Vec<u32>]) {
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
}

/// Criterion `E_l` over the live clusters, summed in slot order.
fn criterion(goodness: &Goodness, members: &[Vec<u32>], internal: &[u64]) -> f64 {
    members
        .iter()
        .zip(internal)
        .filter(|(m, _)| !m.is_empty())
        .map(|(m, &l)| goodness.criterion_term(l, m.len()))
        .sum()
}

/// The best merge by linear scan: every live slot's best partner under
/// its own-side goodness, then the best slot, ties to the smaller id.
fn best_merge(
    goodness: &Goodness,
    members: &[Vec<u32>],
    cross: &[Vec<u64>],
) -> Option<(f64, usize, usize)> {
    let mut best: Option<(GoodnessKey, usize)> = None;
    for (a, row) in cross.iter().enumerate() {
        let mut local: Option<GoodnessKey> = None;
        for (b, &links) in row.iter().enumerate() {
            if links > 0 {
                let g = goodness.merge_goodness(links, members[a].len(), members[b].len());
                let key = GoodnessKey::new(g, b as u32);
                if local.is_none_or(|l| key > l) {
                    local = Some(key);
                }
            }
        }
        if let Some(local) = local {
            let key = GoodnessKey::new(local.goodness(), a as u32);
            if best.is_none_or(|(b, _)| key > b) {
                best = Some((key, local.tie() as usize));
            }
        }
    }
    best.map(|(key, v)| (key.goodness(), key.tie() as usize, v))
}

/// The paper's pipeline, naively. `None` when the fit must fail (fewer
/// than `k` points survive the neighbor filter).
#[allow(clippy::needless_range_loop)] // the link matrix is updated by row and column at once
fn reference<S: Similarity>(data: &TransactionSet, sim: &S, case: &Case) -> Option<Fit> {
    let n = data.len();
    let mut rng = seeded_rng(case.seed);
    let sample: Vec<usize> = match case.sample {
        None => (0..n).collect(),
        Some(s) => sample_indices(n, s.min(n).max(1), &mut rng).unwrap(),
    };
    let points: Vec<&Transaction> = sample
        .iter()
        .map(|&i| data.transaction(i).unwrap())
        .collect();

    // §3.1: the neighbor matrix; isolated points dropped up front.
    let s = points.len();
    let neighbor: Vec<Vec<bool>> = (0..s)
        .map(|p| {
            (0..s)
                .map(|q| p != q && sim.sim(points[p], points[q]) >= case.theta)
                .collect()
        })
        .collect();
    let (kept, filtered): (Vec<usize>, Vec<usize>) =
        (0..s).partition(|&p| neighbor[p].iter().filter(|&&b| b).count() >= case.min_neighbors);
    if kept.is_empty() || kept.len() < case.k {
        return None;
    }

    // §4.1: links are the square of the kept points' adjacency matrix.
    let m = kept.len();
    let adjacent = |a: usize, b: usize| neighbor[kept[a]][kept[b]];
    let mut cross = vec![vec![0u64; m]; m];
    for (a, row) in cross.iter_mut().enumerate() {
        for c in (0..m).filter(|&c| adjacent(a, c)) {
            for (b, link) in row.iter_mut().enumerate() {
                if b != a && adjacent(c, b) {
                    *link += 1;
                }
            }
        }
    }

    // §4: merge the best pair until k clusters, no links, the goodness
    // floor or the step budget; prune small clusters once at the
    // checkpoint (§4.3).
    let goodness = Goodness::new(case.theta, &MarketBasket).unwrap();
    let mut members: Vec<Vec<u32>> = (0..m as u32).map(|a| vec![a]).collect();
    let mut internal = vec![0u64; m];
    let mut pruned: Vec<u32> = Vec::new();
    let mut history: Vec<Step> = Vec::new();
    let checkpoint = case.prune.map(|p| {
        let at = (p.checkpoint_fraction * m as f64).ceil() as usize;
        (at.clamp(case.k, m), p.max_prune_size)
    });
    let mut pruned_once = checkpoint.is_none();
    let mut active = m;
    let mut tripped = false;
    while active > case.k {
        if let Some((at, max_size)) = checkpoint {
            if !pruned_once && active <= at {
                let victims: Vec<usize> = (0..m)
                    .filter(|&c| !members[c].is_empty() && members[c].len() <= max_size)
                    .collect();
                if victims.len() < active {
                    for &v in &victims {
                        pruned.append(&mut members[v]);
                        internal[v] = 0;
                        for x in 0..m {
                            cross[v][x] = 0;
                            cross[x][v] = 0;
                        }
                        active -= 1;
                    }
                }
                pruned_once = true;
                if active <= case.k {
                    break;
                }
            }
        }
        let found = best_merge(&goodness, &members, &cross);
        if let Some(floor) = case.min_goodness {
            if found.is_none_or(|(g, _, _)| g < floor) {
                break;
            }
        }
        if case.steps.is_some_and(|s| history.len() as u64 >= s) {
            tripped = true;
            break;
        }
        let Some((g, u, v)) = found else {
            break;
        };
        let sizes = (members[u].len() as u32, members[v].len() as u32);
        let absorbed = std::mem::take(&mut members[v]);
        members[u].extend(absorbed);
        internal[u] += internal[v] + 2 * cross[u][v];
        internal[v] = 0;
        for x in 0..m {
            if x != u && x != v {
                cross[u][x] += cross[v][x];
                cross[x][u] = cross[u][x];
            }
            cross[v][x] = 0;
            cross[x][v] = 0;
        }
        cross[u][v] = 0;
        active -= 1;
        let e = criterion(&goodness, &members, &internal);
        history.push((u as u32, v as u32, g.to_bits(), sizes, e.to_bits()));
    }
    let final_criterion = criterion(&goodness, &members, &internal);
    let mut local: Vec<Vec<u32>> = members.into_iter().filter(|c| !c.is_empty()).collect();
    for c in &mut local {
        c.sort_unstable();
    }
    sort_clusters(&mut local);

    // Back to dataset indices.
    let original = |p: u32| sample[kept[p as usize]] as u32;
    let mut clusters: Vec<Vec<u32>> = local
        .iter()
        .map(|c| c.iter().map(|&p| original(p)).collect())
        .collect();
    let mut outliers: Vec<u32> = filtered
        .iter()
        .map(|&p| sample[p] as u32)
        .chain(pruned.iter().map(|&p| original(p)))
        .collect();

    // §4.2: label every point the clustering never saw.
    if !tripped && m < n {
        let mut settled = vec![false; n];
        for &p in &kept {
            settled[sample[p]] = true;
        }
        for &o in &outliers {
            settled[o as usize] = true;
        }
        let clustered = data.subset(&kept.iter().map(|&p| sample[p]).collect::<Vec<_>>());
        let reps = Representatives::draw(&clustered, &local, &LabelingConfig::default(), &mut rng)
            .unwrap();
        let f = MarketBasket.f(case.theta);
        for i in (0..n).filter(|&i| !settled[i]) {
            let point = data.transaction(i).unwrap();
            let mut best: Option<(f64, usize)> = None;
            for c in 0..reps.num_clusters() {
                let set = reps.set(c);
                let hits = set
                    .iter()
                    .filter(|r| sim.sim(point, r) >= case.theta)
                    .count();
                if hits == 0 {
                    continue;
                }
                let score = hits as f64 / ((set.len() + 1) as f64).powf(f);
                if best.is_none_or(|(b, _)| score > b) {
                    best = Some((score, c));
                }
            }
            match best {
                Some((_, c)) => clusters[c].push(i as u32),
                None => outliers.push(i as u32),
            }
        }
        for c in &mut clusters {
            c.sort_unstable();
        }
    }
    let mut assignments: Vec<Option<u32>> = vec![None; n];
    for (c, members) in clusters.iter().enumerate() {
        for &p in members {
            assignments[p as usize] = Some(c as u32);
        }
    }
    if tripped {
        // A cut run leaves every point it never assigned as an outlier.
        outliers.extend((0..n as u32).filter(|&i| assignments[i as usize].is_none()));
    }
    sort_clusters(&mut clusters);
    let mut assignments: Vec<Option<u32>> = vec![None; n];
    for (c, members) in clusters.iter().enumerate() {
        for &p in members {
            assignments[p as usize] = Some(c as u32);
        }
    }
    outliers.sort_unstable();
    outliers.dedup();
    Some(Fit {
        history,
        clusters,
        outliers,
        assignments,
        criterion: final_criterion.to_bits(),
        degraded: tripped,
    })
}

/// `fit_guarded` under `case`, in the reference's terms. A `trace` path
/// records the run's rock-trace/v1 stream there.
fn library<S: Similarity>(
    data: &TransactionSet,
    sim: S,
    case: &Case,
    trace: Option<&std::path::Path>,
) -> Option<Fit> {
    let mut rock = RockBuilder::new(case.k, case.theta)
        .similarity(sim)
        .neighbor_filter(NeighborFilter::new(case.min_neighbors))
        .threads(case.threads)
        .seed(case.seed)
        .record_history(true)
        .sample(match case.sample {
            None => SampleStrategy::All,
            Some(s) => SampleStrategy::Fixed(s),
        });
    if let Some(prune) = case.prune {
        rock = rock.prune(prune);
    }
    if let Some(floor) = case.min_goodness {
        rock = rock.min_goodness(floor);
    }
    if let Some(path) = trace {
        rock = rock.trace(path);
    }
    let guard = match case.steps {
        Some(s) => Guard::new(RunBudget::unlimited().steps(s)),
        None => Guard::unlimited(),
    };
    let outcome = rock
        .build()
        .fit_guarded(data, &Observer::new(), &guard)
        .ok()?;
    let degraded = outcome.is_degraded();
    let model = outcome.into_model();
    Some(Fit {
        history: model
            .history()
            .iter()
            .map(|s| {
                (
                    s.kept,
                    s.absorbed,
                    s.goodness.to_bits(),
                    s.sizes,
                    s.criterion.to_bits(),
                )
            })
            .collect(),
        clusters: model.clusters().to_vec(),
        outliers: model.outliers().to_vec(),
        assignments: model.assignments().iter().map(|a| a.map(|c| c.0)).collect(),
        criterion: model.stats().criterion.to_bits(),
        degraded,
    })
}

/// Asserts the library reproduces the reference on `case`; returns the
/// reference's merge count.
fn check<S: Similarity + Copy>(data: &TransactionSet, sim: S, case: &Case, ctx: &str) -> usize {
    let want = reference(data, &sim, case);
    let got = library(data, sim, case, None);
    assert_eq!(got, want, "{ctx}: {case:?}");
    want.map_or(0, |w| w.history.len())
}

/// [`check`] under each of the four count-based measures.
fn check_every_measure(data: &TransactionSet, case: &Case, ctx: &str) {
    check(data, Jaccard, case, &format!("{ctx} jaccard"));
    check(data, Dice, case, &format!("{ctx} dice"));
    check(data, Overlap, case, &format!("{ctx} overlap"));
    check(data, Cosine, case, &format!("{ctx} cosine"));
}

fn mushroom_like(n: usize, groups: usize, seed: u64) -> TransactionSet {
    let (table, _, _) = MushroomModel::scaled(n, groups).seed(seed).generate();
    table.to_transactions()
}

/// `groups` templates of `width` items drawn from `vocab`, each row with
/// every item swapped for a random one with probability `noise`.
fn baskets(
    n: usize,
    groups: usize,
    width: usize,
    vocab: u64,
    noise: f64,
    seed: u64,
) -> TransactionSet {
    let mut rng = Rng::seed_from_u64(seed);
    let templates: Vec<Vec<u32>> = (0..groups)
        .map(|_| (0..width).map(|_| rng.gen_range(0..vocab) as u32).collect())
        .collect();
    let rows: Vec<Transaction> = (0..n)
        .map(|_| {
            let t = &templates[rng.gen_range(0..groups)];
            Transaction::new(t.iter().map(|&item| {
                if rng.gen_bool(noise) {
                    rng.gen_range(0..vocab) as u32
                } else {
                    item
                }
            }))
        })
        .collect();
    TransactionSet::new(rows, vocab as usize)
}

#[test]
fn reference_matches_across_measures_seeds_and_thetas() {
    for seed in 0..3u64 {
        let data = mushroom_like(90, 3, seed);
        for theta in [0.5, 0.7, 0.8] {
            let mut case = Case::new(3, theta);
            case.seed = seed;
            check_every_measure(&data, &case, &format!("mushroom seed {seed} θ {theta}"));
        }
        let data = baskets(80, 4, 6, 40, 0.2, seed);
        for theta in [0.2, 0.4] {
            let mut case = Case::new(4, theta);
            case.seed = seed;
            check_every_measure(&data, &case, &format!("baskets seed {seed} θ {theta}"));
        }
    }
}

#[test]
fn reference_matches_with_sampling_labels_and_goodness_floor() {
    let data = mushroom_like(160, 4, 11);
    for seed in [1u64, 2] {
        let mut case = Case::new(4, 0.7);
        case.sample = Some(60);
        case.seed = seed;
        check_every_measure(&data, &case, &format!("sampled seed {seed}"));
        case.min_goodness = Some(1.0);
        check(
            &data,
            Jaccard,
            &case,
            &format!("goodness floor seed {seed}"),
        );
        case.min_goodness = None;
        case.min_neighbors = 3;
        check(&data, Jaccard, &case, &format!("filter 3 seed {seed}"));
    }
}

#[test]
fn reference_matches_with_pruning_on_and_off() {
    let data = baskets(120, 4, 6, 60, 0.35, 5);
    for prune in [
        None,
        Some(PruneConfig::default()),
        Some(PruneConfig {
            checkpoint_fraction: 0.5,
            max_prune_size: 3,
        }),
    ] {
        for sample in [None, Some(70)] {
            let mut case = Case::new(4, 0.3);
            case.prune = prune;
            case.sample = sample;
            check_every_measure(&data, &case, &format!("prune {prune:?} sample {sample:?}"));
        }
    }
}

#[test]
fn reference_matches_under_every_step_budget() {
    let data = mushroom_like(60, 3, 4);
    for (sample, prune) in [
        (None, None),
        (Some(40), None),
        (None, Some(PruneConfig::default())),
    ] {
        let mut case = Case::new(3, 0.7);
        case.sample = sample;
        case.prune = prune;
        let merges = check(&data, Jaccard, &case, "unbudgeted");
        assert!(merges > 10, "the fixture must merge: {merges}");
        for steps in 0..=merges as u64 + 1 {
            case.steps = Some(steps);
            check(&data, Jaccard, &case, &format!("steps {steps}"));
        }
    }
}

#[test]
fn reference_matches_on_degenerate_inputs() {
    // All rows identical: one clique, every pair equally good.
    let same = TransactionSet::new((0..30).map(|_| Transaction::new([1, 2, 3])).collect(), 4);
    check_every_measure(&same, &Case::new(2, 0.5), "identical rows");
    // Empty transactions among clustered rows (a clique of their own
    // under Jaccard; neighbors of everything under the overlap measure).
    let mut rows: Vec<Transaction> = baskets(40, 2, 5, 30, 0.1, 3).iter().cloned().collect();
    for i in (0..40).step_by(7) {
        rows[i] = Transaction::empty();
    }
    let empties = TransactionSet::new(rows, 30);
    check_every_measure(&empties, &Case::new(2, 0.4), "empty transactions");
    let data = baskets(50, 3, 6, 40, 0.15, 8);
    // k = 1 and k = n (nothing to merge; the filter off so n points stay).
    check_every_measure(&data, &Case::new(1, 0.3), "k = 1");
    let mut all = Case::new(50, 0.3);
    all.min_neighbors = 0;
    check_every_measure(&data, &all, "k = n");
    // k above what the neighbor filter keeps: the fit fails.
    let lonely = TransactionSet::new((0..10u32).map(|i| Transaction::new([i])).collect(), 10);
    assert_eq!(
        check(&lonely, Jaccard, &Case::new(2, 0.5), "all isolated"),
        0
    );
    // Disconnected components: merging stops with no links left.
    let blocks: Vec<Transaction> = (0..45u32)
        .map(|i| Transaction::new([(i % 3) * 10, (i % 3) * 10 + 1, 100 + i]))
        .collect();
    let blocks = TransactionSet::new(blocks, 200);
    check_every_measure(&blocks, &Case::new(1, 0.4), "three components, k = 1");
    // A vocabulary above 4096 items: the join and the labeling index
    // fall back to sorted merges.
    let wide = baskets(140, 3, 8, 10_000, 0.2, 9);
    let mut case = Case::new(3, 0.4);
    case.sample = Some(130);
    check_every_measure(&wide, &case, "vocabulary 10,000");
}

/// The kernel the `links.select` span of a traced fit reports.
fn traced_kernel(data: &TransactionSet, case: &Case, name: &str) -> String {
    let path = std::env::temp_dir().join(format!("rock-reference-{name}.trace"));
    let fit = library(data, Jaccard, case, Some(&path));
    assert_eq!(fit, reference(data, &Jaccard, case), "{name}: {case:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    text.lines()
        .find_map(|line| match TraceRecord::parse_line(line).ok()? {
            TraceRecord::Span(s) if s.name == "links.select" => {
                s.payload.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("kernel", PayloadValue::Str(kernel)) => Some(kernel.clone()),
                    _ => None,
                })
            }
            _ => None,
        })
        .expect("a traced fit reports its link kernel")
}

#[test]
fn reference_matches_on_both_sides_of_the_link_kernel_switch() {
    // Dense clustered rows: each linked pair shares many neighbors, so
    // the bit-matrix kernel runs. 300 rows clear the single-thread
    // cutoff, so 2 workers really shard the kernels.
    let dense = mushroom_like(300, 3, 21);
    // 3-item baskets over 150 items: dense enough for the matrix, but
    // most linked pairs share one or two neighbors, so the list kernel
    // runs.
    let mut rng = Rng::seed_from_u64(22);
    let sparse = TransactionSet::new(
        (0..300)
            .map(|_| Transaction::new((0..3).map(|_| rng.gen_range(0..150u64) as u32)))
            .collect(),
        150,
    );
    for threads in [1, 2] {
        let mut case = Case::new(3, 0.8);
        case.threads = threads;
        assert_eq!(
            traced_kernel(&dense, &case, &format!("dense-{threads}")),
            "bits"
        );
        check_every_measure(&dense, &case, &format!("dense threads {threads}"));
        let mut case = Case::new(8, 0.2);
        case.threads = threads;
        assert_eq!(
            traced_kernel(&sparse, &case, &format!("sparse-{threads}")),
            "lists"
        );
        case.prune = Some(PruneConfig::default());
        check(
            &sparse,
            Dice,
            &case,
            &format!("sparse pruned threads {threads}"),
        );
    }
}
