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
/// it the bit matrices stop paying for themselves (one word per item for
/// every 64 representatives here, 64 words per row in the join) and both
/// fall back to sorted-merge intersections.
pub const MAX_DENSE_UNIVERSE: usize = 4096;

/// Counter planes a labeling index can need: `2^(MAX_PLANES − 1)`
/// exceeds every representative length it admits (at most
/// [`MAX_DENSE_UNIVERSE`] items).
const MAX_PLANES: usize = 14;
const _: () = assert!(1 << (MAX_PLANES - 1) > MAX_DENSE_UNIVERSE);

/// Bit-sliced representative index: the labeling rule scores one point
/// against 64 representatives per word operation, with no
/// per-representative popcount, float or branch.
///
/// Representatives keep their row order, so each cluster is a contiguous
/// row range, and are grouped into blocks of 64: block `b` stores one
/// word per item in `0..universe`, whose bit `r % 64` is set when
/// representative `r` holds the item. To label a point, each block adds
/// the words of the point's items into bit-sliced counters (plane `k`
/// holds bit `k` of the 64 counters; the carry ripples up), which counts
/// the exact integer `|p ∩ r|` for all 64 representatives at once —
/// transactions are sorted deduplicated sets.
///
/// The neighbor test is decided in the threshold form the neighbor join
/// uses. Every count measure is monotone in the intersection, so
/// `sim_from_counts(i, |p|, |r|) ≥ θ` holds exactly when
/// `i ≥ t_min(|p|, |r|)` ([`SimilarityKind::t_min`]). Counter `r` starts
/// at `2^top − t_min(|p|, |r|)`, or at 0 when no intersection reaches θ,
/// where `2^top` exceeds every representative length; after the point's
/// items are added, the top plane is the hit mask. The starts depend only
/// on `|p|` and `|r|`, so they are built from one mask per distinct
/// representative length, once per point length and call. `N_i` is the
/// popcount of the hit mask over the cluster's row range, and the score
/// `N_i / norm_i` divides by the same `(|L_i| + 1)^{f(θ)}` scalar
/// [`label_point`] computes — identical labels, bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct DenseReps {
    /// The measure's count form.
    kind: SimilarityKind,
    /// The θ the hit masks decide.
    theta: f64,
    /// Words per block: `max representative item + 1`, at least 1.
    universe: usize,
    /// Blocks of 64 representatives (the last one padded).
    blocks: usize,
    /// Counter planes per block (`top + 1`, at most [`MAX_PLANES`]).
    planes: usize,
    /// [`block_hits`] for `planes`.
    block_hits: fn(&[u64], &[usize], &[u64]) -> u64,
    /// Block-major transposed bits: block `b`, item `i` is
    /// `bits[b * universe + i]`.
    bits: Vec<u64>,
    /// Distinct representative lengths, ascending.
    lens: Vec<usize>,
    /// Per length class `l`, per block `b`: the block's representatives
    /// of length `lens[l]`, at `len_masks[l * blocks + b]`.
    len_masks: Vec<u64>,
    /// Per cluster: (first row, representative count).
    clusters: Vec<(usize, usize)>,
    /// Per cluster: `(|L_i| + 1)^{f(θ)}`.
    norms: Vec<f64>,
}

/// Per-worker scratch of [`DenseReps::label_into`], valid for one index.
#[derive(Default)]
struct Scratch {
    /// The point's items inside the index.
    items: Vec<usize>,
    /// The point's hit mask, one word per block.
    hits: Vec<u64>,
    /// Per point length: one past the offset of its start planes in
    /// `starts`, or 0 before the first point of that length.
    start_at: Vec<usize>,
    /// Start planes, `blocks * planes` words per point length seen.
    starts: Vec<u64>,
}

impl DenseReps {
    /// The labeling kernel choice, made once per representative set and θ:
    /// builds the index when `sim` has a [`Similarity::count_kind`] and
    /// every representative item is below [`MAX_DENSE_UNIVERSE`], and
    /// returns `None` — scalar [`label_point`] — otherwise. `exponent` is
    /// `f(θ)`.
    pub(crate) fn build<S: Similarity>(
        reps: &Representatives,
        sim: &S,
        theta: f64,
        exponent: f64,
    ) -> Option<DenseReps> {
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
        let universe = universe.max(1);
        let blocks = reps.total().div_ceil(64);
        let mut lens: Vec<usize> = reps.sets.iter().flatten().map(Transaction::len).collect();
        lens.sort_unstable();
        lens.dedup();
        let max_len = lens.last().copied().unwrap_or(0);
        let planes = cast::u32_to_usize(usize::BITS - max_len.leading_zeros()) + 1;
        let block_hits = match planes {
            1 => block_hits::<1>,
            2 => block_hits::<2>,
            3 => block_hits::<3>,
            4 => block_hits::<4>,
            5 => block_hits::<5>,
            6 => block_hits::<6>,
            7 => block_hits::<7>,
            8 => block_hits::<8>,
            9 => block_hits::<9>,
            10 => block_hits::<10>,
            11 => block_hits::<11>,
            12 => block_hits::<12>,
            13 => block_hits::<13>,
            _ => block_hits::<MAX_PLANES>,
        };
        let mut bits = vec![0u64; blocks * universe];
        let mut len_masks = vec![0u64; lens.len() * blocks];
        for (r, rep) in reps.sets.iter().flatten().enumerate() {
            let (b, bit) = (r / 64, 1u64 << (r % 64));
            for &item in rep.items() {
                bits[b * universe + cast::u32_to_usize(item)] |= bit;
            }
            let (Ok(l) | Err(l)) = lens.binary_search(&rep.len());
            len_masks[l * blocks + b] |= bit;
        }
        let mut row = 0usize;
        let clusters = reps
            .sets
            .iter()
            .map(|set| {
                row += set.len();
                (row - set.len(), set.len())
            })
            .collect();
        let norms = reps
            .sets
            .iter()
            .map(|set| cast::usize_to_f64(set.len() + 1).powf(exponent))
            .collect();
        Some(DenseReps {
            kind,
            theta,
            universe,
            blocks,
            planes,
            block_hits,
            bits,
            lens,
            len_masks,
            clusters,
            norms,
        })
    }

    /// [`label_point`] for each of `points` into `out`: same scores, same
    /// deterministic lower-index tie-break, same `None`-for-outlier
    /// contract.
    pub(crate) fn label_into(&self, points: &[&Transaction], out: &mut [Option<usize>]) {
        let mut scratch = Scratch::default();
        for (p, o) in points.iter().zip(out) {
            *o = self.label_point(p, &mut scratch);
        }
    }

    /// Labels one point: its hit mask, block by block, then `N_i` per
    /// cluster row range and the best score.
    fn label_point(&self, point: &Transaction, scratch: &mut Scratch) -> Option<usize> {
        let Scratch {
            items,
            hits,
            start_at,
            starts,
        } = scratch;
        let a = point.len();
        if start_at.len() <= a {
            start_at.resize(a + 1, 0);
        }
        if start_at[a] == 0 {
            start_at[a] = starts.len() + 1;
            self.push_starts(a, starts);
        }
        let starts = &starts[start_at[a] - 1..][..self.blocks * self.planes];
        items.clear();
        // Items outside the index can never match a representative; they
        // still count toward |p| through the start planes.
        items.extend(
            point
                .items()
                .iter()
                .map(|&i| cast::u32_to_usize(i))
                .filter(|&i| i < self.universe),
        );
        hits.clear();
        for (block, start) in self
            .bits
            .chunks_exact(self.universe)
            .zip(starts.chunks_exact(self.planes))
        {
            hits.push((self.block_hits)(block, items, start));
        }
        let mut best: Option<(f64, usize)> = None;
        for (c, (&(start, count), &norm)) in self.clusters.iter().zip(&self.norms).enumerate() {
            let n_i = count_ones_in(hits, start, start + count);
            if n_i == 0 {
                continue;
            }
            let score = cast::usize_to_f64(n_i) / norm;
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// Appends the counter start planes for points of length `a`, block
    /// by block: counter `r` starts at `2^top − t_min(a, |r|)`, or at 0
    /// when no intersection reaches θ, so it reaches the top plane
    /// exactly when `|p ∩ r| ≥ t_min(a, |r|)`.
    fn push_starts(&self, a: usize, starts: &mut Vec<u64>) {
        let blocks = self.blocks;
        let base = starts.len();
        starts.resize(base + blocks * self.planes, 0);
        let top = 1usize << (self.planes - 1);
        for (l, &len) in self.lens.iter().enumerate() {
            let start = self.kind.t_min(self.theta, a, len).map_or(0, |t| top - t);
            let masks = &self.len_masks[l * blocks..(l + 1) * blocks];
            for k in (0..self.planes).filter(|k| start >> k & 1 == 1) {
                for (b, &mask) in masks.iter().enumerate() {
                    starts[base + b * self.planes + k] |= mask;
                }
            }
        }
    }
}

/// One block's hit mask: each of its 64 counters starts at `start` and
/// gains one for each of `items` its representative holds, summed in `P`
/// bit-sliced planes with a rippling carry; the top plane is the mask of
/// counters that reached `2^(P − 1)`. `P` is a constant so the planes
/// stay in registers.
fn block_hits<const P: usize>(block: &[u64], items: &[usize], start: &[u64]) -> u64 {
    let mut counters = [0u64; P];
    counters.copy_from_slice(start);
    for &i in items {
        let mut carry = block[i];
        for plane in &mut counters {
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
    }
    counters[P - 1]
}

/// Set bits of the bitset `words` at positions `lo..hi`.
fn count_ones_in(words: &[u64], lo: usize, hi: usize) -> usize {
    if lo >= hi {
        return 0;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    let mut n = 0usize;
    for (w, &word) in words[first..=last].iter().enumerate() {
        let mut word = word;
        if w == 0 {
            word &= u64::MAX << (lo % 64);
        }
        if first + w == last {
            word &= u64::MAX >> (63 - (hi - 1) % 64);
        }
        if word != 0 {
            n += cast::u32_to_usize(word.count_ones());
        }
    }
    n
}

/// The §4.2 rule bound to one representative set: the single labeling
/// path behind the batch fit ([`label_many_observed`]) and every
/// [`ModelSnapshot`](crate::snapshot::ModelSnapshot). `dense` is the
/// kernel [`DenseReps::build`] chose for `theta` and `exponent`; without
/// it points go through scalar [`label_point`]. Both decide the same
/// similarity on the same integer counts, so the answer is identical
/// either way.
pub(crate) struct Labeler<'a, S> {
    pub(crate) reps: &'a Representatives,
    pub(crate) dense: Option<&'a DenseReps>,
    pub(crate) sim: &'a S,
    pub(crate) theta: f64,
    /// `f(θ)`, evaluated once.
    pub(crate) exponent: f64,
}

impl<S: Similarity> Labeler<'_, S> {
    /// Labels `points` over `threads` workers (`0` = one per CPU, capped
    /// at 16; tiny inputs stay on the caller's thread) in equal
    /// contiguous chunks. Output order matches input order for every
    /// thread count; `None` means no θ-neighbor in any representative
    /// set.
    pub(crate) fn label_many(&self, points: &[&Transaction], threads: usize) -> Vec<Option<usize>> {
        let n = points.len();
        let mut out: Vec<Option<usize>> = vec![None; n];
        let bounds = shard::equal_bounds(n, shard::effective_threads(threads, n));
        shard::fan_out(&mut out, &bounds, |_, start, slice| {
            let points = &points[start..start + slice.len()];
            match self.dense {
                Some(dense) => dense.label_into(points, slice),
                None => {
                    let f = ConstantExponent(self.exponent);
                    for (p, o) in points.iter().zip(slice) {
                        *o = label_point(p, self.reps, self.sim, &f, self.theta);
                    }
                }
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
    let exponent = f.f(theta);
    let dense = DenseReps::build(reps, sim, theta, exponent);
    let out = Labeler {
        reps,
        dense: dense.as_ref(),
        sim,
        theta,
        exponent,
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

    /// Asserts that the index labels every point exactly like scalar
    /// [`label_point`], for every count measure and each of `thetas`:
    /// point by point through one scratch (so start planes are reused
    /// across point lengths), and through `label_many_observed` at 1 and
    /// 3 threads. Returns how many labels scalar labeling put in a
    /// cluster.
    fn assert_dense_matches_scalar(
        reps: &Representatives,
        points: &[Transaction],
        thetas: &[f64],
        what: &str,
    ) -> usize {
        let refs: Vec<&Transaction> = points.iter().collect();
        let mut labeled = 0;
        for kind in KINDS {
            for &theta in thetas {
                let what = format!("{what} {kind:?} θ {theta}");
                let dense =
                    DenseReps::build(reps, &kind, theta, MarketBasket.f(theta)).expect("fits");
                let scalar: Vec<Option<usize>> = points
                    .iter()
                    .map(|p| label_point(p, reps, &kind, &MarketBasket, theta))
                    .collect();
                let mut got = vec![None; points.len()];
                dense.label_into(&refs, &mut got);
                for ((p, got), want) in points.iter().zip(&got).zip(&scalar) {
                    assert_eq!(got, want, "{what} point {:?}", p.items());
                }
                for threads in [1, 3] {
                    let many = label_many_observed(
                        &refs,
                        reps,
                        &kind,
                        &MarketBasket,
                        theta,
                        threads,
                        &Observer::new(),
                    );
                    assert_eq!(many, scalar, "{what} threads {threads}");
                }
                labeled += scalar.iter().filter(|l| l.is_some()).count();
            }
        }
        labeled
    }

    #[test]
    fn dense_index_matches_scalar_labeling() {
        // The bit-sliced index must reproduce the scalar path bit for
        // bit: the same θ-neighbor decisions through the measure's count
        // form, so identical labels for every measure, θ and point —
        // including empty points, empty representatives, a cluster with
        // no representative, and points carrying items outside the index.
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
            let thetas = [0.05, 0.2, 1.0 / 3.0, 0.5, 0.73, 0.8, 0.95];
            let labeled = assert_dense_matches_scalar(&reps, &points, &thetas, &format!("{seed}"));
            assert!(labeled > 0, "seed {seed}");
        }
    }

    /// `template` with each item dropped with probability `drop`, plus
    /// `extra` random items below `span`.
    fn perturb(rng: &mut Rng, template: &[u32], drop: f64, extra: usize, span: u32) -> Transaction {
        let kept: Vec<u32> = template
            .iter()
            .copied()
            .filter(|_| !rng.gen_bool(drop))
            .collect();
        let noise: Vec<u32> = (0..extra)
            .map(|_| rng.gen_range(0..u64::from(span)) as u32)
            .collect();
        Transaction::new(kept.into_iter().chain(noise))
    }

    #[test]
    fn dense_index_matches_scalar_labeling_across_blocks() {
        // Clusters of 0, 1, 63, 64, 65 and 130 representatives start and
        // end inside, on and across the 64-representative blocks;
        // representatives of 64 items and more need 8 counter planes; the
        // universes sit on and just past a word boundary and at the index
        // limit, each with a representative holding its last item. 256
        // points are enough for `label_many_observed` to use 3 workers.
        let sizes = [0usize, 1, 63, 64, 65, 130];
        let template_lens = [5usize, 70, 64, 3, 12, 8];
        for (seed, universe) in [(0u64, 64u32), (1, 65), (2, 4096)] {
            let mut rng = seeded_rng(seed);
            let templates: Vec<Vec<u32>> = template_lens
                .iter()
                .map(|&len| {
                    let mut items: Vec<u32> = (0..universe).collect();
                    items.shuffle(&mut rng);
                    items.truncate(len);
                    items
                })
                .collect();
            let mut sets: Vec<Vec<Transaction>> = sizes
                .iter()
                .zip(&templates)
                .map(|(&size, template)| {
                    (0..size)
                        .map(|r| match r % 4 {
                            0 => Transaction::new(template.iter().copied()),
                            _ => perturb(&mut rng, template, 0.15, r % 5, universe),
                        })
                        .collect()
                })
                .collect();
            sets[5][7] = Transaction::new([0, universe / 2, universe - 1]);
            let reps = Representatives::from_sets(sets);
            let max_rep = (0..reps.num_clusters())
                .flat_map(|c| reps.set(c).iter().map(Transaction::len))
                .max()
                .unwrap();
            assert!(max_rep >= 64, "universe {universe}");

            let outside = |rng: &mut Rng, n: usize| -> Vec<u32> {
                (0..n)
                    .map(|_| universe + rng.gen_range(0..100u64) as u32)
                    .collect()
            };
            let mut points: Vec<Transaction> = vec![
                Transaction::new([]),
                Transaction::new(outside(&mut rng, 5)),
                Transaction::new(outside(&mut rng, 90)),
                Transaction::new([0, universe / 2, universe - 1]),
            ];
            for i in 0..252usize {
                let template = &templates[i % templates.len()];
                let p = match i % 5 {
                    0 => Transaction::new(template.iter().copied()),
                    1 => perturb(&mut rng, template, 0.05, 2, universe + 40),
                    2 => perturb(&mut rng, template, 0.3, 6, universe),
                    3 => {
                        // Longer than every representative: the template
                        // plus items of another cluster and outside ones.
                        let other = &templates[(i + 1) % templates.len()];
                        let mut items = template.clone();
                        items.extend(other);
                        items.extend(outside(&mut rng, max_rep + 1));
                        Transaction::new(items)
                    }
                    _ => random_set(&mut rng, 0, universe, 12),
                };
                points.push(p);
            }
            assert!(points.iter().any(|p| p.len() > max_rep));

            let kind = SimilarityKind::Jaccard;
            let dense = DenseReps::build(&reps, &kind, 0.5, MarketBasket.f(0.5)).expect("fits");
            assert_eq!(dense.universe, cast::u32_to_usize(universe));
            assert_eq!(dense.planes, 8, "universe {universe}");
            assert_eq!(dense.blocks, 6, "323 representatives");

            let thetas = [0.05, 0.2, 1.0 / 3.0, 0.5, 0.8, 0.95];
            let labeled = assert_dense_matches_scalar(
                &reps,
                &points,
                &thetas,
                &format!("universe {universe}"),
            );
            assert!(labeled > points.len() * thetas.len(), "universe {universe}");
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
            DenseReps::build(reps, sim, 0.3, MarketBasket.f(0.3)).is_some(),
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
