//! Persisting fitted models: the `rock-model/v1` snapshot format.
//!
//! ROCK's labeling pass (paper §4.2) makes a fitted model *servable*: the
//! per-cluster representative sets `L_i`, the threshold θ and the link
//! exponent `f(θ)` are everything needed to assign an arbitrary outside
//! point via `N_i / (|L_i| + 1)^{f(θ)}`. A [`ModelSnapshot`] captures
//! exactly that closure — plus the interned item table so textual records
//! can be mapped into item-id space — in a versioned, line-oriented,
//! dependency-free text format with a content checksum:
//!
//! ```text
//! rock-model/v1
//! checksum fnv1a64 91ec59a92b3f0ab0
//! theta 3fe999999999999a 0.8
//! exponent 3fbc71c71c71c71c 0.11111111111111113
//! similarity jaccard
//! policy mark
//! universe 5
//! clusters 2
//! vocab 5
//! v 65535 bread
//! v 65535 milk
//! ...
//! reps 0 2
//! r 0 1 3
//! r 0 1
//! reps 1 1
//! r 2 4
//! end rock-model/v1
//! ```
//!
//! The checksum is FNV-1a 64 over every byte *after* the checksum line;
//! any corruption — truncation, bit flips, hand edits — is detected at
//! load time. Loading never panics: malformed input surfaces as
//! [`RockError::SnapshotVersion`], [`RockError::SnapshotChecksum`],
//! [`RockError::SnapshotFormat`] or [`RockError::SnapshotInvalid`], all
//! mapped to the CLI's "malformed input" exit code (4).
//!
//! Serialization is canonical: saving, loading and saving again produces
//! byte-identical output (floats round-trip through their IEEE-754 bit
//! patterns; the human-readable decimal on the same line is advisory).

use std::io::Write;
use std::path::Path;

use crate::cast;
use crate::data::{AttrId, Transaction, TransactionSet, Vocabulary};
use crate::error::{Result, RockError};
use crate::hash::fnv1a64;
use crate::labeling::{DenseReps, Labeler, LabelingConfig, Representatives};
use crate::rock::RockModel;
use crate::sampling::seeded_rng;
use crate::similarity::{Cosine, Dice, Jaccard, Overlap, Similarity};

/// Format header (and footer) line; the version is part of the name.
const HEADER: &str = "rock-model/v1";

/// Escapes a vocabulary value for single-line storage (`\` → `\\`,
/// newline → `\n`, carriage return → `\r`).
fn escape_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape_value`]; rejects dangling or unknown escapes.
fn unescape_value(s: &str) -> std::result::Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("dangling escape at end of value".to_owned()),
        }
    }
    Ok(out)
}

/// The similarity measure a snapshot was fitted with, by name.
///
/// Snapshots store the measure as a string; this enum is the closed set
/// of *stateless* measures the loader can reconstruct (parameterized
/// measures like `HammingRecord` would need their parameters persisted
/// and are not servable today). It implements [`Similarity`] by dispatch
/// so a loaded model labels with the exact fitted measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityKind {
    /// Jaccard coefficient (the paper's measure).
    Jaccard,
    /// Dice coefficient.
    Dice,
    /// Overlap coefficient.
    Overlap,
    /// Cosine similarity of indicator vectors.
    Cosine,
}

impl SimilarityKind {
    /// Parses a measure name as written by [`Similarity::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "jaccard" => Some(SimilarityKind::Jaccard),
            "dice" => Some(SimilarityKind::Dice),
            "overlap" => Some(SimilarityKind::Overlap),
            "cosine" => Some(SimilarityKind::Cosine),
            _ => None,
        }
    }
}

impl SimilarityKind {
    /// The measure from precomputed set sizes — the dispatch the neighbor
    /// join and the labeling index decide θ-neighbors on, in the
    /// threshold form `t_min` derives from it. Every arm calls the same
    /// `from_counts` definition [`Similarity::sim`] is built on, so the
    /// count-based and merge-based paths produce bit-identical floats.
    #[inline]
    #[must_use]
    pub fn sim_from_counts(self, inter: usize, a_len: usize, b_len: usize) -> f64 {
        match self {
            SimilarityKind::Jaccard => Jaccard::from_counts(inter, a_len, b_len),
            SimilarityKind::Dice => Dice::from_counts(inter, a_len, b_len),
            SimilarityKind::Overlap => Overlap::from_counts(inter, a_len, b_len),
            SimilarityKind::Cosine => Cosine::from_counts(inter, a_len, b_len),
        }
    }

    /// The threshold form of `sim ≥ θ`: the smallest integer intersection
    /// `t` with `sim_from_counts(t, a, b) ≥ θ`, or `None` when even the
    /// best possible intersection (`min(a, b)`) stays below θ. Every
    /// kind is monotone non-decreasing in the intersection, so
    /// `sim_from_counts(i, a, b) ≥ θ` holds exactly when `i ≥ t`, and a
    /// binary search against the predicate itself is exact — unlike an
    /// analytic `ceil`, it cannot disagree with `sim_from_counts` in the
    /// last float bit. The neighbor join's verification and the
    /// labeling index both decide θ-neighbors through it.
    pub(crate) fn t_min(self, theta: f64, a: usize, b: usize) -> Option<usize> {
        let cap = a.min(b);
        // No intersection reaches a NaN θ, just as `sim ≥ NaN` never holds.
        if self.sim_from_counts(cap, a, b) < theta || theta.is_nan() {
            return None;
        }
        let (mut lo, mut hi) = (0usize, cap);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.sim_from_counts(mid, a, b) >= theta {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }
}

impl Similarity for SimilarityKind {
    fn sim(&self, a: &Transaction, b: &Transaction) -> f64 {
        match self {
            SimilarityKind::Jaccard => Jaccard.sim(a, b),
            SimilarityKind::Dice => Dice.sim(a, b),
            SimilarityKind::Overlap => Overlap.sim(a, b),
            SimilarityKind::Cosine => Cosine.sim(a, b),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            SimilarityKind::Jaccard => Jaccard.name(),
            SimilarityKind::Dice => Dice.name(),
            SimilarityKind::Overlap => Overlap.name(),
            SimilarityKind::Cosine => Cosine.name(),
        }
    }

    fn count_kind(&self) -> Option<SimilarityKind> {
        Some(*self)
    }
}

/// What a loaded model does with points that have no θ-neighbor in any
/// representative set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutlierPolicy {
    /// Report the point as an outlier (`None`) — the paper's behavior.
    #[default]
    Mark,
    /// Fall back to the cluster holding the most similar representative
    /// (ties to the lower cluster index); still an outlier when every
    /// similarity is zero.
    Nearest,
}

impl OutlierPolicy {
    /// Stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            OutlierPolicy::Mark => "mark",
            OutlierPolicy::Nearest => "nearest",
        }
    }

    /// Parses a serialized name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "mark" => Some(OutlierPolicy::Mark),
            "nearest" => Some(OutlierPolicy::Nearest),
            _ => None,
        }
    }
}

/// A self-contained, servable fitted model: everything §4.2 labeling
/// needs, detached from the process that fitted it.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    theta: f64,
    exponent: f64,
    similarity: SimilarityKind,
    policy: OutlierPolicy,
    universe: usize,
    vocabulary: Option<Vocabulary>,
    reps: Representatives,
    /// Bit-sliced representative index for θ and `f(θ)`, built at
    /// construction when every representative item fits
    /// ([`DenseReps::build`]). Derived from `reps` — never rendered,
    /// never compared; [`ModelSnapshot::label`] answers identically with
    /// or without it.
    dense: Option<DenseReps>,
}

impl ModelSnapshot {
    /// Assembles a snapshot from explicit parts, validating invariants.
    ///
    /// # Errors
    /// [`RockError::SnapshotInvalid`] when θ or `f(θ)` is out of range,
    /// the vocabulary size disagrees with the universe, there are no
    /// clusters, or a representative references an item outside the
    /// universe.
    pub fn new(
        theta: f64,
        exponent: f64,
        similarity: SimilarityKind,
        policy: OutlierPolicy,
        universe: usize,
        vocabulary: Option<Vocabulary>,
        reps: Representatives,
    ) -> Result<Self> {
        let mut snapshot = ModelSnapshot {
            theta,
            exponent,
            similarity,
            policy,
            universe,
            vocabulary,
            reps,
            dense: None,
        };
        snapshot.validate()?;
        snapshot.dense = DenseReps::build(
            &snapshot.reps,
            &snapshot.similarity,
            snapshot.theta,
            snapshot.exponent,
        );
        Ok(snapshot)
    }

    /// Captures a fitted model as a snapshot: draws the representative
    /// sets `L_i` from the model's final clusters over `data` (seeded —
    /// the same seed always draws the same sets) and records the labeling
    /// closure.
    ///
    /// # Errors
    /// Propagates labeling-config validation and snapshot invariants.
    #[allow(clippy::too_many_arguments)] // a snapshot is exactly this closure
    pub fn from_model(
        data: &TransactionSet,
        model: &RockModel,
        theta: f64,
        exponent: f64,
        similarity: SimilarityKind,
        policy: OutlierPolicy,
        labeling: &LabelingConfig,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = seeded_rng(seed);
        let reps = Representatives::draw(data, model.clusters(), labeling, &mut rng)?;
        Self::new(
            theta,
            exponent,
            similarity,
            policy,
            data.universe(),
            data.vocabulary().cloned(),
            reps,
        )
    }

    fn validate(&self) -> Result<()> {
        if !(self.theta > 0.0 && self.theta < 1.0) {
            return Err(RockError::SnapshotInvalid {
                message: format!("theta {} outside (0, 1)", self.theta),
            });
        }
        if !self.exponent.is_finite() || self.exponent < 0.0 {
            return Err(RockError::SnapshotInvalid {
                message: format!(
                    "exponent {} is not a finite non-negative value",
                    self.exponent
                ),
            });
        }
        if self.reps.num_clusters() == 0 {
            return Err(RockError::SnapshotInvalid {
                message: "snapshot has no clusters".to_owned(),
            });
        }
        if let Some(vocab) = &self.vocabulary {
            if vocab.len() != self.universe {
                return Err(RockError::SnapshotInvalid {
                    message: format!(
                        "vocabulary has {} items but universe is {}",
                        vocab.len(),
                        self.universe
                    ),
                });
            }
        }
        for c in 0..self.reps.num_clusters() {
            for t in self.reps.set(c) {
                if let Some(&item) = t
                    .items()
                    .iter()
                    .find(|&&i| cast::u32_to_usize(i) >= self.universe)
                {
                    return Err(RockError::SnapshotInvalid {
                        message: format!(
                            "cluster {c} representative references item {item} outside universe {}",
                            self.universe
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// The fitted similarity threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The fitted link exponent value `f(θ)`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The fitted similarity measure.
    pub fn similarity(&self) -> SimilarityKind {
        self.similarity
    }

    /// The outlier policy applied by [`ModelSnapshot::label`].
    pub fn policy(&self) -> OutlierPolicy {
        self.policy
    }

    /// Number of items in the universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.reps.num_clusters()
    }

    /// The persisted representative sets.
    pub fn representatives(&self) -> &Representatives {
        &self.reps
    }

    /// The interned item table, when the fit carried one.
    pub fn vocabulary(&self) -> Option<&Vocabulary> {
        self.vocabulary.as_ref()
    }

    /// Labels one point with the paper's §4.2 rule, applying the
    /// snapshot's outlier policy. Deterministic: no RNG, ties break to
    /// the lower cluster index.
    pub fn label(&self, point: &Transaction) -> Option<usize> {
        self.label_chunk(&[point], 1)[0]
    }

    /// Labels a chunk of points through the fit's labeling path (over the
    /// index built at construction) and the parallel executor (`threads`
    /// workers over contiguous slices; `0` = one per CPU, capped at 16),
    /// applying the snapshot's outlier policy to every point.
    /// Deterministic: output order matches input order and is
    /// independent of the thread count — the invariant the streaming
    /// checkpoint layer's byte-identical-resume guarantee rests on.
    pub fn label_chunk(&self, points: &[&Transaction], threads: usize) -> Vec<Option<usize>> {
        let labeler = Labeler {
            reps: &self.reps,
            dense: self.dense.as_ref(),
            sim: &self.similarity,
            theta: self.theta,
            exponent: self.exponent,
        };
        let mut out = labeler.label_many(points, threads);
        if self.policy == OutlierPolicy::Nearest {
            for (p, l) in points.iter().zip(out.iter_mut()) {
                if l.is_none() {
                    *l = self.nearest(p);
                }
            }
        }
        out
    }

    /// Nearest-representative fallback: the cluster with the most similar
    /// representative, provided any similarity is positive.
    fn nearest(&self, point: &Transaction) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for c in 0..self.reps.num_clusters() {
            for r in self.reps.set(c) {
                let s = self.similarity.sim(point, r);
                if s > 0.0 && best.is_none_or(|(b, _)| s > b) {
                    best = Some((s, c));
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Maps a textual table record (one cell per schema column, in the
    /// fitted column order) into item-id space via the snapshot's
    /// vocabulary. Cells equal to `missing` and values never seen at fit
    /// time contribute no item — exactly how the offline pipeline treats
    /// missing cells.
    ///
    /// # Errors
    /// [`RockError::SnapshotInvalid`] when the snapshot carries no
    /// vocabulary or the record has more columns than the attribute id
    /// space.
    pub fn transaction_from_cells(&self, cells: &[&str], missing: &str) -> Result<Transaction> {
        let vocab = self.require_vocabulary()?;
        let mut items: Vec<u32> = Vec::with_capacity(cells.len());
        for (j, &cell) in cells.iter().enumerate() {
            if j >= usize::from(u16::MAX) {
                return Err(RockError::SnapshotInvalid {
                    message: format!(
                        "record has {} columns, beyond the attribute id space",
                        cells.len()
                    ),
                });
            }
            if cell == missing {
                continue;
            }
            if let Some(id) = vocab.get(AttrId(cast::usize_to_u16(j)), cell) {
                items.push(id.0);
            }
        }
        Ok(Transaction::new(items))
    }

    /// Maps market-basket item names into item-id space via the
    /// snapshot's vocabulary; unknown items contribute nothing.
    ///
    /// # Errors
    /// [`RockError::SnapshotInvalid`] when the snapshot carries no
    /// vocabulary.
    pub fn transaction_from_basket<'a, I: IntoIterator<Item = &'a str>>(
        &self,
        names: I,
    ) -> Result<Transaction> {
        let vocab = self.require_vocabulary()?;
        let items: Vec<u32> = names
            .into_iter()
            .filter_map(|name| vocab.get(Vocabulary::BASKET_ATTR, name))
            .map(|id| id.0)
            .collect();
        Ok(Transaction::new(items))
    }

    fn require_vocabulary(&self) -> Result<&Vocabulary> {
        self.vocabulary
            .as_ref()
            .ok_or_else(|| RockError::SnapshotInvalid {
                message: "snapshot has no vocabulary; textual records cannot be mapped".to_owned(),
            })
    }

    /// Renders the canonical `rock-model/v1` text. Rendering the same
    /// snapshot always yields the same bytes, and `parse(render(s))`
    /// re-renders byte-identically.
    pub fn render(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "theta {:016x} {}\n",
            self.theta.to_bits(),
            self.theta
        ));
        body.push_str(&format!(
            "exponent {:016x} {}\n",
            self.exponent.to_bits(),
            self.exponent
        ));
        body.push_str(&format!("similarity {}\n", self.similarity.name()));
        body.push_str(&format!("policy {}\n", self.policy.name()));
        body.push_str(&format!("universe {}\n", self.universe));
        body.push_str(&format!("clusters {}\n", self.reps.num_clusters()));
        match &self.vocabulary {
            None => body.push_str("vocab 0\n"),
            Some(vocab) => {
                body.push_str(&format!("vocab {}\n", vocab.len()));
                for (_, key) in vocab.iter() {
                    body.push_str(&format!("v {} {}\n", key.attr.0, escape_value(&key.value)));
                }
            }
        }
        for c in 0..self.reps.num_clusters() {
            let set = self.reps.set(c);
            body.push_str(&format!("reps {c} {}\n", set.len()));
            for t in set {
                body.push('r');
                for &item in t.items() {
                    body.push_str(&format!(" {item}"));
                }
                body.push('\n');
            }
        }
        body.push_str(&format!("end {HEADER}\n"));
        format!(
            "{HEADER}\nchecksum fnv1a64 {:016x}\n{body}",
            fnv1a64(body.as_bytes())
        )
    }

    /// Writes the canonical text to `out`.
    ///
    /// # Errors
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        out.write_all(self.render().as_bytes())
    }

    /// Content fingerprint of the snapshot: FNV-1a 64 over the canonical
    /// rendering. Two snapshots fingerprint equal iff they render to the
    /// same bytes, so the streaming checkpoint layer uses this to refuse
    /// resuming a run against a different model.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.render().as_bytes())
    }

    /// [`ModelSnapshot::fingerprint`] rendered the canonical way every
    /// subsystem prints it: 16 lowercase hex digits, zero-padded. The
    /// checkpoint `model` line and the serve registry's model-identity
    /// headers both use this form, so logs and traces cross-reference
    /// byte-for-byte.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Saves the snapshot to `path`.
    ///
    /// # Errors
    /// [`RockError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.render()).map_err(|e| RockError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Parses snapshot text, verifying version, checksum, grammar and
    /// semantic invariants. Never panics on malformed input.
    ///
    /// # Errors
    /// [`RockError::SnapshotVersion`] for an unknown header,
    /// [`RockError::SnapshotChecksum`] when the body was altered,
    /// [`RockError::SnapshotFormat`] for grammar defects and
    /// [`RockError::SnapshotInvalid`] for semantic ones.
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |line: usize, message: String| RockError::SnapshotFormat { line, message };
        let Some((first, rest)) = text.split_once('\n') else {
            return Err(RockError::SnapshotVersion {
                found: text.trim().to_owned(),
            });
        };
        if first.trim_end_matches('\r') != HEADER {
            return Err(RockError::SnapshotVersion {
                found: first.trim_end_matches('\r').to_owned(),
            });
        }
        let Some((checksum_line, body)) = rest.split_once('\n') else {
            return Err(bad(2, "missing checksum line".to_owned()));
        };
        let expected = match checksum_line
            .split_whitespace()
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["checksum", "fnv1a64", hex] => u64::from_str_radix(hex, 16)
                .map_err(|e| bad(2, format!("bad checksum value {hex:?}: {e}")))?,
            _ => return Err(bad(2, format!("bad checksum line {checksum_line:?}"))),
        };
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(RockError::SnapshotChecksum {
                expected: format!("fnv1a64:{expected:016x}"),
                actual: format!("fnv1a64:{actual:016x}"),
            });
        }

        // Body grammar: fixed key order, then vocab block, reps blocks, end.
        let mut lines = body.lines();
        let mut lineno = 2usize;
        let mut next = |what: &str| -> Result<(usize, &str)> {
            lineno += 1;
            lines
                .next()
                .map(|l| (lineno, l))
                .ok_or_else(|| RockError::SnapshotFormat {
                    line: lineno,
                    message: format!("truncated snapshot: expected {what}"),
                })
        };
        let mut keyed = |key: &str| -> Result<(usize, String)> {
            let (no, line) = next(&format!("`{key}` line"))?;
            let rest = line.strip_prefix(key).and_then(|r| r.strip_prefix(' '));
            match rest {
                Some(r) => Ok((no, r.to_owned())),
                None => Err(bad(no, format!("expected `{key} ...`, found {line:?}"))),
            }
        };

        let parse_f64_bits = |no: usize, value: &str, key: &str| -> Result<f64> {
            let bits_token = value.split_whitespace().next().unwrap_or("");
            let bits = u64::from_str_radix(bits_token, 16)
                .map_err(|e| bad(no, format!("bad {key} bits {bits_token:?}: {e}")))?;
            Ok(f64::from_bits(bits))
        };

        let (no, v) = keyed("theta")?;
        let theta = parse_f64_bits(no, &v, "theta")?;
        let (no, v) = keyed("exponent")?;
        let exponent = parse_f64_bits(no, &v, "exponent")?;
        let (no, v) = keyed("similarity")?;
        let similarity = SimilarityKind::from_name(v.trim())
            .ok_or_else(|| bad(no, format!("unknown similarity {v:?}")))?;
        let (no, v) = keyed("policy")?;
        let policy = OutlierPolicy::from_name(v.trim())
            .ok_or_else(|| bad(no, format!("unknown outlier policy {v:?}")))?;
        let (no, v) = keyed("universe")?;
        let universe: usize = v
            .trim()
            .parse()
            .map_err(|e| bad(no, format!("bad universe {v:?}: {e}")))?;
        let (no, v) = keyed("clusters")?;
        let clusters: usize = v
            .trim()
            .parse()
            .map_err(|e| bad(no, format!("bad cluster count {v:?}: {e}")))?;
        let (no, v) = keyed("vocab")?;
        let vocab_len: usize = v
            .trim()
            .parse()
            .map_err(|e| bad(no, format!("bad vocab size {v:?}: {e}")))?;

        let vocabulary = if vocab_len == 0 {
            None
        } else {
            let mut vocab = Vocabulary::new();
            for i in 0..vocab_len {
                let (no, line) = next("vocabulary entry")?;
                let Some(rest) = line.strip_prefix("v ") else {
                    return Err(bad(
                        no,
                        format!("expected `v <attr> <value>`, found {line:?}"),
                    ));
                };
                let (attr_token, value) = rest.split_once(' ').unwrap_or((rest, ""));
                let attr: u16 = attr_token
                    .parse()
                    .map_err(|e| bad(no, format!("bad attribute id {attr_token:?}: {e}")))?;
                let value = unescape_value(value).map_err(|e| bad(no, e))?;
                let id = vocab.intern(AttrId(attr), &value);
                if id.index() != i {
                    return Err(bad(no, format!("duplicate vocabulary entry {value:?}")));
                }
            }
            Some(vocab)
        };

        // The counts below are only checksummed, not trusted: the vectors
        // grow line by line, so a count that lies ends in the truncation
        // error instead of a huge allocation.
        let mut sets: Vec<Vec<Transaction>> = Vec::new();
        for c in 0..clusters {
            let (no, line) = next("reps header")?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            let ["reps", idx, count] = toks.as_slice() else {
                return Err(bad(
                    no,
                    format!("expected `reps <cluster> <count>`, found {line:?}"),
                ));
            };
            if idx.parse::<usize>().ok() != Some(c) {
                return Err(bad(no, format!("expected cluster {c}, found {idx:?}")));
            }
            let count: usize = count
                .parse()
                .map_err(|e| bad(no, format!("bad representative count {count:?}: {e}")))?;
            let mut set = Vec::new();
            for _ in 0..count {
                let (no, line) = next("representative line")?;
                if line != "r" && !line.starts_with("r ") {
                    return Err(bad(no, format!("expected `r <items...>`, found {line:?}")));
                }
                let mut items: Vec<u32> = Vec::new();
                for tok in line[1..].split_whitespace() {
                    let item: u32 = tok
                        .parse()
                        .map_err(|e| bad(no, format!("bad item id {tok:?}: {e}")))?;
                    if items.last().is_some_and(|&prev| prev >= item) {
                        return Err(bad(no, format!("items not strictly increasing at {item}")));
                    }
                    items.push(item);
                }
                set.push(Transaction::from_sorted(items));
            }
            sets.push(set);
        }

        let (no, line) = next("end line")?;
        if line != format!("end {HEADER}") {
            return Err(bad(no, format!("expected `end {HEADER}`, found {line:?}")));
        }
        if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
            return Err(bad(lineno + 1, format!("trailing content {extra:?}")));
        }

        Self::new(
            theta,
            exponent,
            similarity,
            policy,
            universe,
            vocabulary,
            Representatives::from_sets(sets),
        )
    }

    /// Loads a snapshot from `path`.
    ///
    /// # Errors
    /// [`RockError::Io`] on filesystem failure, otherwise the same
    /// classes as [`ModelSnapshot::parse`].
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| RockError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goodness::{LinkExponent, MarketBasket};
    use crate::rock::{RockBuilder, SampleStrategy};

    fn toy_snapshot() -> ModelSnapshot {
        let mut vocab = Vocabulary::new();
        for name in ["bread", "milk", "charcoal", "butter", "buns"] {
            vocab.intern_basket(name);
        }
        let sets = vec![
            vec![Transaction::new([0, 1, 3]), Transaction::new([0, 1])],
            vec![Transaction::new([2, 4])],
        ];
        ModelSnapshot::new(
            0.5,
            MarketBasket.f(0.5),
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            5,
            Some(vocab),
            Representatives::from_sets(sets),
        )
        .unwrap()
    }

    #[test]
    fn render_parse_render_is_byte_identical() {
        let snap = toy_snapshot();
        let text = snap.render();
        let back = ModelSnapshot::parse(&text).unwrap();
        assert_eq!(back.render(), text);
        assert_eq!(back.theta(), snap.theta());
        assert_eq!(back.exponent(), snap.exponent());
        assert_eq!(back.similarity(), snap.similarity());
        assert_eq!(back.num_clusters(), 2);
        assert_eq!(back.universe(), 5);
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let dir = std::env::temp_dir().join("rock-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("m1.rockmodel");
        let p2 = dir.join("m2.rockmodel");
        let snap = toy_snapshot();
        snap.save(&p1).unwrap();
        let loaded = ModelSnapshot::load(&p1).unwrap();
        loaded.save(&p2).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(p1).ok();
        std::fs::remove_file(p2).ok();
    }

    #[test]
    fn labels_match_label_point_and_honor_policy() {
        let snap = toy_snapshot();
        assert_eq!(snap.label(&Transaction::new([0, 1, 4])), Some(0));
        assert_eq!(snap.label(&Transaction::new([2, 4])), Some(1));
        // A lone shared item is below theta for cluster 0 and has no
        // neighbor anywhere: an outlier under Mark...
        let weak = Transaction::new([3]);
        assert_eq!(snap.label(&weak), None);
        // ...but Nearest falls back to the most similar representative.
        let nearest = ModelSnapshot::new(
            snap.theta(),
            snap.exponent(),
            snap.similarity(),
            OutlierPolicy::Nearest,
            snap.universe(),
            snap.vocabulary().cloned(),
            snap.representatives().clone(),
        )
        .unwrap();
        assert_eq!(nearest.label(&weak), Some(0));
        // Zero similarity everywhere stays an outlier even under Nearest.
        assert_eq!(nearest.label(&Transaction::new([])), None);
    }

    #[test]
    fn textual_records_map_through_vocabulary() {
        let snap = toy_snapshot();
        let t = snap
            .transaction_from_basket(["bread", "milk", "unseen-item"])
            .unwrap();
        assert_eq!(t.items(), &[0, 1]);

        // Cells map per (column, value); toy vocab is basket-keyed, so
        // build a small tabular vocabulary to exercise the cell path.
        let mut vocab = Vocabulary::new();
        vocab.intern(AttrId(0), "y");
        vocab.intern(AttrId(0), "n");
        vocab.intern(AttrId(1), "y");
        let tab = ModelSnapshot::new(
            0.5,
            0.2,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            3,
            Some(vocab),
            Representatives::from_sets(vec![vec![Transaction::new([0, 2])]]),
        )
        .unwrap();
        let t = tab.transaction_from_cells(&["n", "?"], "?").unwrap();
        assert_eq!(t.items(), &[1]);
        let t = tab.transaction_from_cells(&["y", "y"], "?").unwrap();
        assert_eq!(t.items(), &[0, 2]);
        // Unseen value contributes nothing rather than failing.
        let t = tab.transaction_from_cells(&["maybe", "y"], "?").unwrap();
        assert_eq!(t.items(), &[2]);
    }

    #[test]
    fn textual_records_require_a_vocabulary() {
        let snap = ModelSnapshot::new(
            0.5,
            0.2,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            3,
            None,
            Representatives::from_sets(vec![vec![Transaction::new([0])]]),
        )
        .unwrap();
        assert!(matches!(
            snap.transaction_from_cells(&["a"], "?"),
            Err(RockError::SnapshotInvalid { .. })
        ));
        assert!(matches!(
            snap.transaction_from_basket(["a"]),
            Err(RockError::SnapshotInvalid { .. })
        ));
    }

    #[test]
    fn vocabulary_values_with_spaces_and_escapes_roundtrip() {
        let mut vocab = Vocabulary::new();
        vocab.intern(AttrId(0), "two words");
        vocab.intern(AttrId(0), "back\\slash");
        vocab.intern(AttrId(0), "new\nline");
        vocab.intern(AttrId(0), "car\rriage");
        vocab.intern(AttrId(0), " leading and trailing ");
        let snap = ModelSnapshot::new(
            0.4,
            0.3,
            SimilarityKind::Dice,
            OutlierPolicy::Nearest,
            5,
            Some(vocab),
            Representatives::from_sets(vec![vec![Transaction::new([0, 2, 4])]]),
        )
        .unwrap();
        let text = snap.render();
        let back = ModelSnapshot::parse(&text).unwrap();
        assert_eq!(back.render(), text);
        let vocab = back.vocabulary().unwrap();
        assert_eq!(vocab.get(AttrId(0), "new\nline").map(|i| i.0), Some(2));
        assert_eq!(
            vocab.get(AttrId(0), " leading and trailing ").map(|i| i.0),
            Some(4)
        );
    }

    #[test]
    fn rejects_unknown_version() {
        let err = ModelSnapshot::parse("rock-model/v9\njunk\n").unwrap_err();
        assert!(matches!(err, RockError::SnapshotVersion { .. }));
        let err = ModelSnapshot::parse("").unwrap_err();
        assert!(matches!(err, RockError::SnapshotVersion { .. }));
    }

    #[test]
    fn rejects_corrupted_body() {
        let text = toy_snapshot().render();
        // Flip one byte in the body: the checksum must catch it.
        let corrupted = text.replace("similarity jaccard", "similarity jaccarD");
        let err = ModelSnapshot::parse(&corrupted).unwrap_err();
        assert!(matches!(err, RockError::SnapshotChecksum { .. }));
    }

    #[test]
    fn rejects_truncation() {
        let text = toy_snapshot().render();
        for keep in [1, 2, 3] {
            let truncated: String = text.lines().take(keep).map(|l| format!("{l}\n")).collect();
            let err = ModelSnapshot::parse(&truncated).unwrap_err();
            // Dropping body lines breaks the checksum (or, for very short
            // prefixes, the framing itself).
            assert!(
                matches!(
                    err,
                    RockError::SnapshotChecksum { .. } | RockError::SnapshotFormat { .. }
                ),
                "keep={keep}: {err}"
            );
        }
    }

    #[test]
    fn rejects_semantic_violations() {
        // Item id outside the declared universe.
        assert!(matches!(
            ModelSnapshot::new(
                0.5,
                0.2,
                SimilarityKind::Jaccard,
                OutlierPolicy::Mark,
                2,
                None,
                Representatives::from_sets(vec![vec![Transaction::new([5])]]),
            ),
            Err(RockError::SnapshotInvalid { .. })
        ));
        // No clusters at all.
        assert!(matches!(
            ModelSnapshot::new(
                0.5,
                0.2,
                SimilarityKind::Jaccard,
                OutlierPolicy::Mark,
                2,
                None,
                Representatives::from_sets(vec![]),
            ),
            Err(RockError::SnapshotInvalid { .. })
        ));
        // Theta outside (0, 1).
        assert!(matches!(
            ModelSnapshot::new(
                1.5,
                0.2,
                SimilarityKind::Jaccard,
                OutlierPolicy::Mark,
                2,
                None,
                Representatives::from_sets(vec![vec![Transaction::new([0])]]),
            ),
            Err(RockError::SnapshotInvalid { .. })
        ));
    }

    #[test]
    fn parse_never_panics_on_garbage(/* fuzz-lite */) {
        let samples = [
            "rock-model/v1\nchecksum fnv1a64 zz\n",
            "rock-model/v1\nchecksum fnv1a64 0000000000000000\n",
            "rock-model/v1\nchecksum md5 abc\nbody\n",
            "rock-model/v1\n",
            "\n\n\n",
            "rock-model/v1\r\nchecksum fnv1a64 0\r\n",
        ];
        for s in samples {
            assert!(ModelSnapshot::parse(s).is_err(), "{s:?}");
        }
        // A valid checksum over a garbage body still fails cleanly, and so
        // do counts that lie: the checksum is no proof, anyone can
        // recompute it, so a huge cluster or representative count must end
        // in the truncation error, not in an allocation sized from it.
        let header = "theta 3fe0000000000000 0.5\nexponent 3fd0000000000000 0.25\n\
                      similarity jaccard\npolicy mark\nuniverse 5\n";
        for body in [
            "theta zz zz\n".to_owned(),
            format!("{header}clusters 4000000000000000000\nvocab 0\n"),
            format!("{header}clusters 1\nvocab 0\nreps 0 4000000000000000000\nr 0 1\n"),
        ] {
            let text = format!(
                "rock-model/v1\nchecksum fnv1a64 {:016x}\n{body}",
                super::fnv1a64(body.as_bytes())
            );
            assert!(
                matches!(
                    ModelSnapshot::parse(&text).unwrap_err(),
                    RockError::SnapshotFormat { .. }
                ),
                "{body:?}"
            );
        }
    }

    const KINDS: [SimilarityKind; 4] = [
        SimilarityKind::Jaccard,
        SimilarityKind::Dice,
        SimilarityKind::Overlap,
        SimilarityKind::Cosine,
    ];

    #[test]
    fn t_min_matches_linear_scan_for_every_kind() {
        for kind in KINDS {
            for theta in [0.2, 0.5, 0.8, 0.999, f64::NAN] {
                for a in 0..=24usize {
                    for b in 0..=24usize {
                        let linear =
                            (0..=a.min(b)).find(|&t| kind.sim_from_counts(t, a, b) >= theta);
                        assert_eq!(
                            kind.t_min(theta, a, b),
                            linear,
                            "{kind:?} θ={theta} a={a} b={b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn t_min_is_symmetric() {
        for a in 1..=16usize {
            for b in 1..=16usize {
                assert_eq!(
                    SimilarityKind::Jaccard.t_min(0.5, a, b),
                    SimilarityKind::Jaccard.t_min(0.5, b, a),
                );
            }
        }
    }

    #[test]
    fn every_kind_is_monotone_in_the_intersection() {
        // The binary search in t_min, and so the neighbor join and the
        // labeling index, assume it; pin it down.
        for kind in KINDS {
            for a in 1..=12usize {
                for b in 1..=12usize {
                    let mut prev = -1.0f64;
                    for t in 0..=a.min(b) {
                        let s = kind.sim_from_counts(t, a, b);
                        assert!(s >= prev, "{kind:?} a={a} b={b} t={t}");
                        prev = s;
                    }
                }
            }
        }
    }

    #[test]
    fn from_model_is_seed_deterministic() {
        let data: TransactionSet = (0..40u32)
            .map(|i| {
                if i % 2 == 0 {
                    Transaction::new([0, 1, 2, 3 + (i % 4)])
                } else {
                    Transaction::new([20, 21, 22, 23 + (i % 4)])
                }
            })
            .collect();
        let model = RockBuilder::new(2, 0.4)
            .sample(SampleStrategy::All)
            .seed(7)
            .build()
            .fit(&data)
            .unwrap();
        let cfg = LabelingConfig::default();
        let mb = MarketBasket.f(0.4);
        let a = ModelSnapshot::from_model(
            &data,
            &model,
            0.4,
            mb,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            &cfg,
            99,
        )
        .unwrap();
        let b = ModelSnapshot::from_model(
            &data,
            &model,
            0.4,
            mb,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            &cfg,
            99,
        )
        .unwrap();
        assert_eq!(a.render(), b.render());
        // A different representative seed may draw different sets, but the
        // snapshot stays valid and parseable.
        let c = ModelSnapshot::from_model(
            &data,
            &model,
            0.4,
            mb,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            &cfg,
            100,
        )
        .unwrap();
        assert_eq!(
            ModelSnapshot::parse(&c.render()).unwrap().render(),
            c.render()
        );
    }

    #[test]
    fn similarity_kind_roundtrips_names() {
        for kind in KINDS {
            assert_eq!(SimilarityKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SimilarityKind::from_name("euclid"), None);
        let a = Transaction::new([0, 1, 2]);
        let b = Transaction::new([1, 2, 3]);
        assert_eq!(SimilarityKind::Jaccard.sim(&a, &b), Jaccard.sim(&a, &b));
        assert_eq!(SimilarityKind::Cosine.sim(&a, &b), Cosine.sim(&a, &b));
    }
}
