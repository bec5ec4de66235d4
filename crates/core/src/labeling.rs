//! Labeling data on disk (paper §4.2).
//!
//! After clustering a sample, the remaining points are assigned in one
//! pass. From each cluster `i` ROCK selects a set `L_i` of representative
//! points; an outside point `p` joins the cluster maximizing
//!
//! ```text
//! N_i / (|L_i| + 1)^{f(θ)}
//! ```
//!
//! where `N_i` is the number of `p`'s θ-neighbors inside `L_i`. The
//! denominator is the expected number of neighbors a genuine member would
//! have among `L_i ∪ {p}`, so large representative sets do not
//! automatically attract every point. Points with no neighbors in any
//! `L_i` are labeled outliers.

use crate::cast;
use crate::data::{Transaction, TransactionSet};
use crate::error::{Result, RockError};
use crate::goodness::{ConstantExponent, LinkExponent};
use crate::rng::{Rng, SliceRandom};
use crate::shard;
use crate::similarity::Similarity;
use crate::snapshot::SimilarityKind;
use crate::telemetry::trace::Payload;
use crate::telemetry::{Observer, Phase, PipelineCounters};

/// Configuration for the labeling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelingConfig {
    /// Fraction of each cluster drawn as representatives (`L_i`), in
    /// `(0, 1]`.
    pub representative_fraction: f64,
    /// Upper bound on `|L_i|` per cluster (keeps the pass `O(n·Σ|L_i|)`
    /// affordable for huge clusters). `0` means unbounded.
    pub max_representatives: usize,
}

impl Default for LabelingConfig {
    fn default() -> Self {
        LabelingConfig {
            representative_fraction: 0.25,
            max_representatives: 256,
        }
    }
}

impl LabelingConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.representative_fraction > 0.0 && self.representative_fraction <= 1.0) {
            return Err(RockError::InvalidFraction {
                name: "representative_fraction",
                value: self.representative_fraction,
            });
        }
        Ok(())
    }
}

/// Representative points (`L_i`) drawn from each cluster.
#[derive(Debug, Clone)]
pub struct Representatives {
    /// Per cluster: the representative transactions.
    sets: Vec<Vec<Transaction>>,
}

impl Representatives {
    /// Draws representatives from `clusters` (member index lists into
    /// `sample`) according to `config`.
    ///
    /// # Errors
    /// Propagates config validation; returns [`RockError::EmptyDataset`]
    /// when `clusters` is empty.
    pub fn draw(
        sample: &TransactionSet,
        clusters: &[Vec<u32>],
        config: &LabelingConfig,
        rng: &mut Rng,
    ) -> Result<Self> {
        config.validate()?;
        if clusters.is_empty() {
            return Err(RockError::EmptyDataset);
        }
        let sets = clusters
            .iter()
            .map(|members| {
                let want = cast::f64_to_usize(
                    (cast::usize_to_f64(members.len()) * config.representative_fraction).ceil(),
                )
                .max(1);
                let want = if config.max_representatives > 0 {
                    want.min(config.max_representatives)
                } else {
                    want
                };
                let mut ids: Vec<u32> = members.clone();
                ids.shuffle(rng);
                ids.truncate(want);
                ids.iter()
                    // Member indices come from the clustering over this
                    // sample, so the lookup cannot miss; skip defensively
                    // instead of panicking.
                    .filter_map(|&i| sample.transaction(cast::u32_to_usize(i)).cloned())
                    .collect()
            })
            .collect();
        Ok(Representatives { sets })
    }

    /// Reconstructs representative sets from explicit per-cluster
    /// transactions (the model-snapshot load path; `draw` is the fitting
    /// path).
    pub fn from_sets(sets: Vec<Vec<Transaction>>) -> Self {
        Representatives { sets }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.sets.len()
    }

    /// Representatives of cluster `i`.
    pub fn set(&self, i: usize) -> &[Transaction] {
        &self.sets[i]
    }

    /// Total number of representatives across clusters.
    pub fn total(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Assigns one point: returns `Some(cluster)` with the best labeling score,
/// or `None` when the point has no neighbor in any representative set.
pub fn label_point<S: Similarity, F: LinkExponent>(
    point: &Transaction,
    reps: &Representatives,
    sim: &S,
    f: &F,
    theta: f64,
) -> Option<usize> {
    let exponent = f.f(theta);
    let mut best: Option<(f64, usize)> = None;
    for (i, set) in reps.sets.iter().enumerate() {
        let n_i = set.iter().filter(|r| sim.sim(point, r) >= theta).count();
        if n_i == 0 {
            continue;
        }
        let score = cast::usize_to_f64(n_i) / cast::usize_to_f64(set.len() + 1).powf(exponent);
        // Deterministic tie-break: keep the lower cluster index.
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Largest universe (in items) a bit-packed index covers — the labeling
/// index here and the neighbor join's verification matrix alike. Beyond
/// it the per-row bitsets stop paying for themselves (64 words each) and
/// both fall back to sorted-merge intersections.
pub const MAX_DENSE_UNIVERSE: usize = 4096;

/// Bit-packed representative index: one bitset per representative over
/// the items `0..=max representative item`, so the θ-neighbor test of the
/// labeling rule becomes a handful of `AND` + popcount words instead of a
/// branchy sorted merge per representative.
///
/// The index is exact, not approximate: transactions are sorted
/// deduplicated sets, so popcounting `point ∧ rep` yields the same
/// integer `|A ∩ B|` the merge in
/// [`Transaction::intersection_len`](crate::data::Transaction::intersection_len)
/// produces, and the similarity is evaluated through the measure's
/// [`SimilarityKind::sim_from_counts`], which [`Similarity::count_kind`]
/// promises equals [`Similarity::sim`] bit for bit — identical floats,
/// identical labels, only faster. Queries reuse a caller-provided
/// scratch bitset so the hot path allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct DenseReps {
    /// The measure's count form.
    kind: SimilarityKind,
    /// Words per bitset row (`ceil((max item + 1) / 64)`).
    words: usize,
    /// Rep-major bit matrix: representative `r` is
    /// `bits[r * words .. (r + 1) * words]`.
    bits: Vec<u64>,
    /// `|B|` of each representative, in row order.
    lens: Vec<usize>,
    /// Per cluster: (first row, representative count).
    clusters: Vec<(usize, usize)>,
}

impl DenseReps {
    /// The labeling kernel choice, made once per representative set:
    /// builds the index when `sim` has a [`Similarity::count_kind`] and
    /// every representative item is below [`MAX_DENSE_UNIVERSE`], and
    /// returns `None` — scalar [`label_point`] — otherwise.
    pub(crate) fn build<S: Similarity>(reps: &Representatives, sim: &S) -> Option<DenseReps> {
        let kind = sim.count_kind()?;
        let universe = reps
            .sets
            .iter()
            .flatten()
            .filter_map(|rep| rep.items().last())
            .max()
            .map_or(0, |&item| cast::u32_to_usize(item) + 1);
        if universe > MAX_DENSE_UNIVERSE {
            return None;
        }
        let words = universe.div_ceil(64);
        let total = reps.total();
        let mut bits = vec![0u64; total * words];
        let mut lens = Vec::with_capacity(total);
        let mut clusters = Vec::with_capacity(reps.num_clusters());
        let mut row = 0usize;
        for set in &reps.sets {
            clusters.push((row, set.len()));
            for rep in set {
                let base = row * words;
                for &item in rep.items() {
                    let i = cast::u32_to_usize(item);
                    bits[base + i / 64] |= 1u64 << (i % 64);
                }
                lens.push(rep.len());
                row += 1;
            }
        }
        Some(DenseReps {
            kind,
            words,
            bits,
            lens,
            clusters,
        })
    }

    /// [`label_point`] over the packed index: same scores, same
    /// deterministic lower-index tie-break, same `None`-for-outlier
    /// contract. `scratch` is resized to the row width and overwritten.
    pub(crate) fn label_point(
        &self,
        point: &Transaction,
        theta: f64,
        exponent: f64,
        scratch: &mut Vec<u64>,
    ) -> Option<usize> {
        scratch.clear();
        scratch.resize(self.words, 0);
        for &item in point.items() {
            let i = cast::u32_to_usize(item);
            // Items outside the index can never match a representative;
            // they still count toward |A| below.
            if i / 64 < self.words {
                scratch[i / 64] |= 1u64 << (i % 64);
            }
        }
        let a_len = point.len();
        let mut best: Option<(f64, usize)> = None;
        for (c, &(start, count)) in self.clusters.iter().enumerate() {
            let mut n_i = 0usize;
            for r in start..start + count {
                let row = &self.bits[r * self.words..(r + 1) * self.words];
                let mut inter = 0usize;
                for (pw, rw) in scratch.iter().zip(row) {
                    inter += cast::u32_to_usize((pw & rw).count_ones());
                }
                if self.kind.sim_from_counts(inter, a_len, self.lens[r]) >= theta {
                    n_i += 1;
                }
            }
            if n_i == 0 {
                continue;
            }
            let score = cast::usize_to_f64(n_i) / cast::usize_to_f64(count + 1).powf(exponent);
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, c));
            }
        }
        best.map(|(_, i)| i)
    }
}

/// The §4.2 rule bound to one representative set: the single labeling
/// path behind the batch fit ([`label_many_observed`]) and every
/// [`ModelSnapshot`](crate::snapshot::ModelSnapshot). `dense` is the
/// kernel [`DenseReps::build`] chose; without it points go through
/// scalar [`label_point`]. Both evaluate the same similarity on the same
/// integer counts, so the answer is identical either way.
pub(crate) struct Labeler<'a, S> {
    pub(crate) reps: &'a Representatives,
    pub(crate) dense: Option<&'a DenseReps>,
    pub(crate) sim: &'a S,
    pub(crate) theta: f64,
    /// `f(θ)`, evaluated once.
    pub(crate) exponent: f64,
}

impl<S: Similarity> Labeler<'_, S> {
    /// Labels one point (`None` = no θ-neighbor in any representative set).
    fn label(&self, point: &Transaction, scratch: &mut Vec<u64>) -> Option<usize> {
        match self.dense {
            Some(dense) => dense.label_point(point, self.theta, self.exponent, scratch),
            None => label_point(
                point,
                self.reps,
                self.sim,
                &ConstantExponent(self.exponent),
                self.theta,
            ),
        }
    }

    /// Labels `points` over `threads` workers (`0` = one per CPU, capped
    /// at 16; tiny inputs stay on the caller's thread) in equal
    /// contiguous chunks. Output order matches input order for every
    /// thread count.
    pub(crate) fn label_many(&self, points: &[&Transaction], threads: usize) -> Vec<Option<usize>> {
        let n = points.len();
        let mut out: Vec<Option<usize>> = vec![None; n];
        let bounds = shard::equal_bounds(n, shard::effective_threads(threads, n));
        shard::fan_out(&mut out, &bounds, |_, start, slice| {
            let mut scratch = Vec::new();
            for (p, o) in points[start..].iter().zip(slice) {
                *o = self.label(p, &mut scratch);
            }
        });
        out
    }
}

/// Labels many points over `threads` workers (`0` = one per CPU, capped
/// at 16) with telemetry: labeling similarity evaluations (`points ×
/// total representatives` — the rule scores every point against every
/// representative) and the labeled/outlier split flow into `observer`'s
/// counters. Deterministic: output order matches input, for every thread
/// count, and the labels are [`label_point`]'s.
pub fn label_many_observed<S: Similarity, F: LinkExponent>(
    points: &[&Transaction],
    reps: &Representatives,
    sim: &S,
    f: &F,
    theta: f64,
    threads: usize,
    observer: &Observer,
) -> Vec<Option<usize>> {
    let span = observer.tracer().begin();
    let dense = DenseReps::build(reps, sim);
    let out = Labeler {
        reps,
        dense: dense.as_ref(),
        sim,
        theta,
        exponent: f.f(theta),
    }
    .label_many(points, threads);
    let counters = observer.counters();
    PipelineCounters::add(
        &counters.labeling_evaluations,
        cast::usize_to_u64(points.len()) * cast::usize_to_u64(reps.total()),
    );
    let labeled = cast::usize_to_u64(out.iter().filter(|l| l.is_some()).count());
    PipelineCounters::add(&counters.points_labeled, labeled);
    let total = cast::usize_to_u64(points.len());
    if let Some(s) = span {
        observer.tracer().end(
            s,
            "labeling.pass",
            Some(Phase::Labeling),
            0,
            Payload::new()
                .count("points", total)
                .count("representatives", cast::usize_to_u64(reps.total()))
                .count("labeled", labeled),
        );
    }
    observer.progress(Phase::Labeling, total, total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goodness::MarketBasket;
    use crate::sampling::seeded_rng;
    use crate::similarity::Jaccard;

    fn ts(v: Vec<Transaction>) -> TransactionSet {
        v.into_iter().collect()
    }

    fn two_cluster_fixture() -> (TransactionSet, Vec<Vec<u32>>) {
        let sample = ts(vec![
            Transaction::new([0, 1, 2]),
            Transaction::new([0, 1, 2, 3]),
            Transaction::new([10, 11, 12]),
            Transaction::new([10, 11, 12, 13]),
        ]);
        let clusters = vec![vec![0, 1], vec![2, 3]];
        (sample, clusters)
    }

    #[test]
    fn draw_respects_fraction_and_cap() {
        let (sample, clusters) = two_cluster_fixture();
        let mut rng = seeded_rng(1);
        let cfg = LabelingConfig {
            representative_fraction: 0.5,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut rng).unwrap();
        assert_eq!(reps.num_clusters(), 2);
        assert_eq!(reps.set(0).len(), 1);
        assert_eq!(reps.set(1).len(), 1);

        let capped = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 1,
        };
        let reps = Representatives::draw(&sample, &clusters, &capped, &mut rng).unwrap();
        assert_eq!(reps.total(), 2);
    }

    #[test]
    fn draw_always_takes_at_least_one() {
        let (sample, _) = two_cluster_fixture();
        let clusters = vec![vec![0], vec![2]];
        let cfg = LabelingConfig {
            representative_fraction: 0.01,
            max_representatives: 8,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(3)).unwrap();
        assert_eq!(reps.set(0).len(), 1);
        assert_eq!(reps.set(1).len(), 1);
    }

    #[test]
    fn draw_validates_config() {
        let (sample, clusters) = two_cluster_fixture();
        let bad = LabelingConfig {
            representative_fraction: 0.0,
            max_representatives: 0,
        };
        assert!(Representatives::draw(&sample, &clusters, &bad, &mut seeded_rng(0)).is_err());
        assert!(Representatives::draw(
            &sample,
            &[],
            &LabelingConfig::default(),
            &mut seeded_rng(0)
        )
        .is_err());
    }

    #[test]
    fn points_label_to_their_block() {
        let (sample, clusters) = two_cluster_fixture();
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        let data = ts(vec![
            Transaction::new([0, 1, 2, 4]),
            Transaction::new([10, 11, 12, 14]),
            Transaction::new([50, 51, 52]),
        ]);
        let points: Vec<&Transaction> = data.iter().collect();
        let labels = label_many_observed(
            &points,
            &reps,
            &Jaccard,
            &MarketBasket,
            0.5,
            1,
            &Observer::new(),
        );
        assert_eq!(labels, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn labeling_normalizes_by_representative_count() {
        // Cluster 0 has many representatives, cluster 1 few. A point with
        // one neighbor in each must prefer the *smaller* set: the
        // normalization (|L|+1)^f penalizes big sets.
        let sample = ts(vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1, 2, 3, 4, 5]),
        ]);
        let clusters = vec![vec![0, 1, 2, 3], vec![4]];
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        // This point neighbors exactly one rep of cluster 0 (none — it
        // neighbors all 4 identical reps) — craft instead a point whose
        // similarity passes only for one rep in each set is impossible with
        // identical reps; instead verify the score formula directly.
        let p = Transaction::new([0, 1]);
        let exponent = MarketBasket.f(0.5);
        let score0 = 4.0 / 5f64.powf(exponent);
        let score1 = 0.0; // sim([0,1], [0..6]) = 2/6 < 0.5
        assert!(score0 > score1);
        assert_eq!(
            label_point(&p, &reps, &Jaccard, &MarketBasket, 0.5),
            Some(0)
        );
    }

    #[test]
    fn parallel_labeling_matches_sequential() {
        // 300 points (past the parallel threshold) labeled both ways.
        let sample = ts(vec![
            Transaction::new([0, 1, 2]),
            Transaction::new([0, 1, 2, 3]),
            Transaction::new([10, 11, 12]),
            Transaction::new([10, 11, 12, 13]),
        ]);
        let clusters = vec![vec![0, 1], vec![2, 3]];
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        let points: Vec<Transaction> = (0..300u32)
            .map(|i| {
                if i % 3 == 0 {
                    Transaction::new([0, 1, 2, 100 + i])
                } else if i % 3 == 1 {
                    Transaction::new([10, 11, 12, 100 + i])
                } else {
                    Transaction::new([500 + i])
                }
            })
            .collect();
        let refs: Vec<&Transaction> = points.iter().collect();
        let label = |threads| {
            label_many_observed(
                &refs,
                &reps,
                &Jaccard,
                &MarketBasket,
                0.4,
                threads,
                &Observer::new(),
            )
        };
        let seq = label(1);
        let par = label(4);
        assert_eq!(seq, par);
        assert_eq!(seq[0], Some(0));
        assert_eq!(seq[1], Some(1));
        assert_eq!(seq[2], None);
    }

    const KINDS: [SimilarityKind; 4] = [
        SimilarityKind::Jaccard,
        SimilarityKind::Dice,
        SimilarityKind::Overlap,
        SimilarityKind::Cosine,
    ];

    /// A count measure with its count form hidden: the same `sim`, but no
    /// `count_kind()`, so labeling must take the scalar path.
    struct Uncounted(SimilarityKind);

    impl Similarity for Uncounted {
        fn sim(&self, a: &Transaction, b: &Transaction) -> f64 {
            self.0.sim(a, b)
        }

        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    fn random_set(rng: &mut Rng, lo: u32, span: u32, max_len: usize) -> Transaction {
        let len = rng.gen_range(0..=max_len);
        Transaction::new((0..len).map(|_| lo + rng.gen_range(0..u64::from(span)) as u32))
    }

    #[test]
    fn dense_index_matches_scalar_labeling() {
        // The bit-packed index must reproduce the scalar path bit for
        // bit: same integer intersection counts through the measure's
        // count form, so identical labels for every measure, θ and point
        // — including empty points, empty representatives, a cluster
        // with no representative, and points carrying items outside the
        // index.
        for seed in 0..4u64 {
            let mut rng = seeded_rng(seed);
            let universe = 40 + 13 * u32::try_from(seed).unwrap();
            let sets: Vec<Vec<Transaction>> = (0..6u32)
                .map(|c| {
                    let reps = if c == 4 { 0 } else { rng.gen_range(1..9usize) };
                    (0..reps)
                        .map(|_| {
                            let t = random_set(&mut rng, c * 8, 20, 7);
                            Transaction::new(t.items().iter().map(|&i| i % universe))
                        })
                        .collect()
                })
                .collect();
            let reps = Representatives::from_sets(sets);
            let points: Vec<Transaction> = (0..300)
                .map(|_| random_set(&mut rng, 0, universe + 80, 8))
                .collect();
            assert!(points.iter().any(Transaction::is_empty), "seed {seed}");
            assert!(
                (0..reps.num_clusters()).any(|c| reps.set(c).iter().any(Transaction::is_empty)),
                "seed {seed}"
            );
            let refs: Vec<&Transaction> = points.iter().collect();
            let mut scratch = Vec::new();
            for kind in KINDS {
                let dense = DenseReps::build(&reps, &kind).expect("fits");
                for theta in [0.05, 0.2, 1.0 / 3.0, 0.5, 0.73, 0.8, 0.95] {
                    let exponent = MarketBasket.f(theta);
                    let scalar: Vec<Option<usize>> = points
                        .iter()
                        .map(|p| label_point(p, &reps, &kind, &MarketBasket, theta))
                        .collect();
                    for (p, want) in points.iter().zip(&scalar) {
                        let got = dense.label_point(p, theta, exponent, &mut scratch);
                        assert_eq!(
                            got,
                            *want,
                            "seed {seed} {kind:?} θ {theta} point {:?}",
                            p.items()
                        );
                    }
                    for threads in [1, 3] {
                        let many = label_many_observed(
                            &refs,
                            &reps,
                            &kind,
                            &MarketBasket,
                            theta,
                            threads,
                            &Observer::new(),
                        );
                        assert_eq!(many, scalar, "seed {seed} {kind:?} θ {theta} t {threads}");
                    }
                }
            }
        }
    }

    /// Asserts which kernel [`DenseReps::build`] picks for `sim` and that
    /// the labeling path answers exactly like scalar [`label_point`].
    fn assert_path<S: Similarity>(
        points: &[Transaction],
        reps: &Representatives,
        sim: &S,
        dense: bool,
    ) {
        assert_eq!(
            DenseReps::build(reps, sim).is_some(),
            dense,
            "{}",
            sim.name()
        );
        let refs: Vec<&Transaction> = points.iter().collect();
        let many = label_many_observed(&refs, reps, sim, &MarketBasket, 0.3, 2, &Observer::new());
        let scalar: Vec<Option<usize>> = points
            .iter()
            .map(|p| label_point(p, reps, sim, &MarketBasket, 0.3))
            .collect();
        assert_eq!(many, scalar, "{}", sim.name());
        assert!(scalar.iter().any(Option::is_some), "{}", sim.name());
    }

    #[test]
    fn uncounted_measures_and_wide_items_take_the_scalar_path() {
        let mut rng = seeded_rng(11);
        let sets: Vec<Vec<Transaction>> = (0..3u32)
            .map(|c| {
                (0..5)
                    .map(|_| random_set(&mut rng, c * 10, 14, 6))
                    .collect()
            })
            .collect();
        let points: Vec<Transaction> = (0..300).map(|_| random_set(&mut rng, 0, 40, 6)).collect();

        // Measures without a count form: no index, scalar labels.
        let reps = Representatives::from_sets(sets.clone());
        assert_path(
            &points,
            &reps,
            &crate::similarity::HammingRecord::new(6),
            false,
        );
        assert_path(&points, &reps, &Uncounted(SimilarityKind::Jaccard), false);
        assert_path(&points, &reps, &Jaccard, true);

        // A representative holding item 4096 is past the index; 4095 fits.
        for (item, dense) in [(MAX_DENSE_UNIVERSE, false), (MAX_DENSE_UNIVERSE - 1, true)] {
            let mut sets = sets.clone();
            sets[1].push(Transaction::new([10, 11, u32::try_from(item).unwrap()]));
            assert_path(&points, &Representatives::from_sets(sets), &Jaccard, dense);
        }
    }

    /// Four planted groups of baskets plus noise items.
    fn planted(seed: u64, n: usize) -> TransactionSet {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|i| {
                let group = u32::try_from(i % 4).unwrap() * 10;
                let mut items: Vec<u32> = (0..6u32)
                    .filter(|_| rng.gen_bool(0.7))
                    .map(|j| group + j)
                    .collect();
                items.push(100 + rng.gen_range(0..60u64) as u32);
                Transaction::new(items)
            })
            .collect()
    }

    fn fit_with<S: Similarity>(
        sim: S,
        data: &TransactionSet,
        threads: usize,
    ) -> (crate::rock::RockModel, crate::telemetry::CounterSnapshot) {
        let observer = Observer::new();
        let model = crate::rock::RockBuilder::new(4, 0.4)
            .similarity(sim)
            .sample(crate::rock::SampleStrategy::Fixed(100))
            .threads(threads)
            .seed(5)
            .record_history(true)
            .build()
            .fit_guarded(data, &observer, &crate::guard::Guard::unlimited())
            .unwrap()
            .into_model();
        (model, observer.counters().snapshot())
    }

    #[test]
    fn pipeline_labels_identically_through_the_scalar_path() {
        // The fit labels through the dense index for every count measure;
        // hiding the count form sends the same fit through scalar
        // `label_point`. A 100-point sample stays below the index join's
        // cutoff, so both fits run the brute-force neighbor scan and
        // every counter is comparable; 300 points are left to label, past
        // the single-thread cutoff.
        let data = planted(3, 400);
        for kind in KINDS {
            for threads in [1, 2] {
                let (dense, dense_counters) = fit_with(kind, &data, threads);
                let (scalar, scalar_counters) = fit_with(Uncounted(kind), &data, threads);
                let what = format!("{kind:?} threads {threads}");
                assert_eq!(dense.assignments(), scalar.assignments(), "{what}");
                assert_eq!(dense.clusters(), scalar.clusters(), "{what}");
                assert_eq!(dense.outliers(), scalar.outliers(), "{what}");
                assert_eq!(dense.sample_indices(), scalar.sample_indices(), "{what}");
                assert_eq!(dense.history(), scalar.history(), "{what}");
                assert_eq!(dense_counters, scalar_counters, "{what}");
                assert!(dense_counters.points_labeled > 0, "{what}");
            }
        }
    }

    #[test]
    fn tie_breaks_to_lower_cluster_index() {
        let sample = ts(vec![Transaction::new([0, 1]), Transaction::new([0, 1])]);
        let clusters = vec![vec![0], vec![1]];
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        let p = Transaction::new([0, 1]);
        assert_eq!(
            label_point(&p, &reps, &Jaccard, &MarketBasket, 0.5),
            Some(0)
        );
    }
}
