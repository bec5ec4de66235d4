//! Similarity measures between transactions.
//!
//! ROCK defines *neighbors* through a similarity function and a threshold θ:
//! `p` and `q` are neighbors iff `sim(p, q) ≥ θ`. The paper uses the
//! Jaccard coefficient for market-basket and categorical data; this module
//! provides it along with common drop-in alternatives. All measures return
//! values in `[0, 1]` with `sim(x, x) = 1` for non-empty `x`.

use crate::cast;
use crate::data::Transaction;
use crate::snapshot::SimilarityKind;

/// A symmetric similarity measure on transactions with range `[0, 1]`.
///
/// Implementors must be cheap to copy/share across threads — the neighbor
/// phase evaluates the measure `O(n²)` times from a thread pool.
pub trait Similarity: Sync {
    /// Similarity of `a` and `b` in `[0, 1]`.
    fn sim(&self, a: &Transaction, b: &Transaction) -> f64;

    /// Short human-readable name, used in experiment output.
    fn name(&self) -> &'static str;

    /// The count-based measure this implementation evaluates, if any.
    ///
    /// Returning `Some(kind)` is a promise that `self.sim(a, b)` is
    /// **bit-for-bit equal** to
    /// `kind.sim_from_counts(a.intersection_len(b), a.len(), b.len())`.
    /// The neighbor phase uses it to route the graph build through the
    /// inverted-index similarity join (DESIGN.md §17), whose size/prefix
    /// filters and candidate verification evaluate exactly that
    /// expression — so the joined graph is byte-identical to the
    /// brute-force scan. Measures without a faithful count form (e.g.
    /// [`HammingRecord`], whose denominator is the schema arity rather
    /// than the set sizes) keep the default `None` and the brute-force
    /// scan.
    fn count_kind(&self) -> Option<SimilarityKind> {
        None
    }
}

/// Jaccard coefficient `|A ∩ B| / |A ∪ B|` — the measure used throughout
/// the ROCK paper. Two empty transactions are defined to have similarity 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jaccard;

impl Jaccard {
    /// The coefficient from precomputed set sizes. This is the single
    /// definition [`Similarity::sim`], the bit-packed labeling index and
    /// the neighbor join all evaluate, so the paths cannot drift.
    #[inline]
    #[must_use]
    pub fn from_counts(inter: usize, a_len: usize, b_len: usize) -> f64 {
        let union = a_len + b_len - inter;
        if union == 0 {
            1.0
        } else {
            cast::usize_to_f64(inter) / cast::usize_to_f64(union)
        }
    }
}

impl Similarity for Jaccard {
    #[inline]
    fn sim(&self, a: &Transaction, b: &Transaction) -> f64 {
        Self::from_counts(a.intersection_len(b), a.len(), b.len())
    }

    fn count_kind(&self) -> Option<SimilarityKind> {
        Some(SimilarityKind::Jaccard)
    }

    fn name(&self) -> &'static str {
        "jaccard"
    }
}

/// Dice coefficient `2|A ∩ B| / (|A| + |B|)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dice;

impl Dice {
    /// The coefficient from precomputed set sizes (see
    /// [`Jaccard::from_counts`] for why this form exists).
    #[inline]
    #[must_use]
    pub fn from_counts(inter: usize, a_len: usize, b_len: usize) -> f64 {
        let denom = a_len + b_len;
        if denom == 0 {
            1.0
        } else {
            2.0 * cast::usize_to_f64(inter) / cast::usize_to_f64(denom)
        }
    }
}

impl Similarity for Dice {
    #[inline]
    fn sim(&self, a: &Transaction, b: &Transaction) -> f64 {
        Self::from_counts(a.intersection_len(b), a.len(), b.len())
    }

    fn count_kind(&self) -> Option<SimilarityKind> {
        Some(SimilarityKind::Dice)
    }

    fn name(&self) -> &'static str {
        "dice"
    }
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Overlap;

impl Overlap {
    /// The coefficient from precomputed set sizes (see
    /// [`Jaccard::from_counts`] for why this form exists).
    #[inline]
    #[must_use]
    pub fn from_counts(inter: usize, a_len: usize, b_len: usize) -> f64 {
        let denom = a_len.min(b_len);
        if denom == 0 {
            1.0
        } else {
            cast::usize_to_f64(inter) / cast::usize_to_f64(denom)
        }
    }
}

impl Similarity for Overlap {
    #[inline]
    fn sim(&self, a: &Transaction, b: &Transaction) -> f64 {
        Self::from_counts(a.intersection_len(b), a.len(), b.len())
    }

    fn count_kind(&self) -> Option<SimilarityKind> {
        Some(SimilarityKind::Overlap)
    }

    fn name(&self) -> &'static str {
        "overlap"
    }
}

/// Cosine similarity on set indicators: `|A ∩ B| / sqrt(|A| · |B|)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cosine;

impl Cosine {
    /// The coefficient from precomputed set sizes (see
    /// [`Jaccard::from_counts`] for why this form exists).
    #[inline]
    #[must_use]
    pub fn from_counts(inter: usize, a_len: usize, b_len: usize) -> f64 {
        if a_len == 0 && b_len == 0 {
            return 1.0;
        }
        if a_len == 0 || b_len == 0 {
            return 0.0;
        }
        cast::usize_to_f64(inter) / cast::usize_to_f64(a_len * b_len).sqrt()
    }
}

impl Similarity for Cosine {
    #[inline]
    fn sim(&self, a: &Transaction, b: &Transaction) -> f64 {
        Self::from_counts(a.intersection_len(b), a.len(), b.len())
    }

    fn count_kind(&self) -> Option<SimilarityKind> {
        Some(SimilarityKind::Cosine)
    }

    fn name(&self) -> &'static str {
        "cosine"
    }
}

/// Hamming-derived similarity for fixed-arity records: `matches / d`,
/// where a *match* is an attribute both records fill with the same value.
///
/// When records (one item per present attribute, over `d` attributes) are
/// encoded as transactions, the intersection size is exactly the number of
/// matching attributes, so this is `|A ∩ B| / d` — i.e. `1 − normalized
/// Hamming distance` when no values are missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammingRecord {
    /// Total number of attributes in the schema.
    pub num_attributes: usize,
}

impl HammingRecord {
    /// Creates the measure for records over `d` attributes.
    pub fn new(num_attributes: usize) -> Self {
        HammingRecord { num_attributes }
    }
}

impl Similarity for HammingRecord {
    #[inline]
    fn sim(&self, a: &Transaction, b: &Transaction) -> f64 {
        if self.num_attributes == 0 {
            return 1.0;
        }
        cast::usize_to_f64(a.intersection_len(b)) / cast::usize_to_f64(self.num_attributes)
    }

    fn name(&self) -> &'static str {
        "hamming-record"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(items: &[u32]) -> Transaction {
        Transaction::new(items.iter().copied())
    }

    #[test]
    fn jaccard_basic() {
        let a = t(&[1, 2, 3]);
        let b = t(&[2, 3, 4]);
        assert!((Jaccard.sim(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(Jaccard.sim(&a, &a), 1.0);
        assert_eq!(Jaccard.sim(&a, &t(&[9])), 0.0);
    }

    #[test]
    fn jaccard_empty_edge_cases() {
        let e = Transaction::empty();
        assert_eq!(Jaccard.sim(&e, &e), 1.0);
        assert_eq!(Jaccard.sim(&e, &t(&[1])), 0.0);
    }

    #[test]
    fn dice_basic() {
        let a = t(&[1, 2]);
        let b = t(&[2, 3]);
        assert!((Dice.sim(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(Dice.sim(&Transaction::empty(), &Transaction::empty()), 1.0);
    }

    #[test]
    fn overlap_basic() {
        let a = t(&[1, 2]);
        let b = t(&[1, 2, 3, 4]);
        assert_eq!(Overlap.sim(&a, &b), 1.0);
        assert_eq!(Overlap.sim(&Transaction::empty(), &b), 1.0);
    }

    #[test]
    fn cosine_basic() {
        let a = t(&[1, 2, 3, 4]);
        let b = t(&[1]);
        assert!((Cosine.sim(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(
            Cosine.sim(&Transaction::empty(), &Transaction::empty()),
            1.0
        );
        assert_eq!(Cosine.sim(&Transaction::empty(), &a), 0.0);
    }

    #[test]
    fn hamming_record_counts_matches() {
        // Records over 4 attributes: items are (attr, value) codes.
        let a = t(&[0, 10, 20, 30]);
        let b = t(&[0, 11, 20, 31]);
        let h = HammingRecord::new(4);
        assert!((h.sim(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(HammingRecord::new(0).sim(&a, &b), 1.0);
    }

    #[test]
    fn all_measures_symmetric_and_bounded() {
        let pairs = [
            (t(&[1, 2, 3]), t(&[3, 4])),
            (t(&[]), t(&[1])),
            (t(&[5]), t(&[5])),
            (t(&[1, 2, 3, 4, 5]), t(&[6, 7])),
        ];
        let measures: Vec<Box<dyn Similarity>> = vec![
            Box::new(Jaccard),
            Box::new(Dice),
            Box::new(Overlap),
            Box::new(Cosine),
            Box::new(HammingRecord::new(8)),
        ];
        for m in &measures {
            for (a, b) in &pairs {
                let s1 = m.sim(a, b);
                let s2 = m.sim(b, a);
                assert_eq!(s1, s2, "{} not symmetric", m.name());
                assert!((0.0..=1.0).contains(&s1), "{} out of range: {s1}", m.name());
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Jaccard.name(),
            Dice.name(),
            Overlap.name(),
            Cosine.name(),
            HammingRecord::new(1).name(),
        ];
        let set: std::collections::HashSet<&str> = names.into_iter().collect();
        assert_eq!(set.len(), 5);
    }
}
