//! Error types for the `rock-core` crate.
//!
//! All fallible public entry points return [`Result`]. Errors are plain
//! enums implementing [`std::error::Error`]; no external error-handling
//! crates are used.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T, E = RockError> = std::result::Result<T, E>;

/// Errors produced by configuration validation and clustering entry points.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RockError {
    /// The dataset contained no points.
    EmptyDataset,
    /// The requested number of clusters is zero or exceeds the number of
    /// (non-outlier) points.
    InvalidK {
        /// Requested number of clusters.
        k: usize,
        /// Number of points available for clustering.
        n: usize,
    },
    /// The similarity threshold θ must lie in `(0, 1)`.
    InvalidTheta(f64),
    /// A fractional parameter (sampling fraction, labeling fraction,
    /// checkpoint fraction, confidence δ, …) was outside its valid range.
    InvalidFraction {
        /// Human-readable name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Two collections that must be index-aligned had different lengths.
    LengthMismatch {
        /// Name of the first collection.
        left_name: &'static str,
        /// Length of the first collection.
        left: usize,
        /// Name of the second collection.
        right_name: &'static str,
        /// Length of the second collection.
        right: usize,
    },
    /// A transaction referenced an item id outside the vocabulary/universe.
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// The number of items in the universe.
        universe: usize,
    },
    /// The sample drawn for clustering was empty (e.g. every point was
    /// filtered as an outlier).
    EmptySample,
    /// An attribute's value domain grew past the `u16` code space while
    /// interning. Categorical domains this large are almost certainly a
    /// parsing bug (e.g. a numeric column read as categorical).
    DomainTooLarge {
        /// Name of the offending attribute.
        attribute: String,
        /// Domain size at the point of failure (already `u16::MAX + 1`).
        cardinality: usize,
    },
    /// Clustering could not reach the requested number of clusters because
    /// no cross-cluster links remain; carries the number of clusters left.
    ///
    /// This is surfaced as an error only when the caller demanded an exact
    /// cluster count; the default pipeline treats it as normal termination.
    NoLinksRemain {
        /// Clusters remaining when the link supply was exhausted.
        remaining: usize,
        /// The requested number of clusters.
        requested: usize,
    },
    /// A filesystem operation failed. The underlying [`std::io::Error`]
    /// is flattened to a message so the error stays `Clone + PartialEq`.
    Io {
        /// Path involved in the failed operation.
        path: String,
        /// The I/O error message.
        message: String,
    },
    /// Input text was malformed (ragged row, unterminated quote, …).
    Csv {
        /// 1-based line number of the offending row.
        line: usize,
        /// Human-readable description of the defect.
        message: String,
    },
    /// The requested label column index is out of range.
    InvalidLabelColumn {
        /// Requested 0-based column index.
        index: usize,
        /// Number of columns in the file.
        columns: usize,
    },
    /// Lenient ingestion quarantined more rows than the configured
    /// ceiling allows; the file is too dirty to trust.
    QuarantineExceeded {
        /// Rows quarantined.
        quarantined: usize,
        /// Rows read in total.
        rows: usize,
        /// The configured maximum quarantine fraction.
        max_fraction: f64,
    },
    /// A run budget (merge steps, wall-clock deadline, or memory ceiling)
    /// was exhausted and the caller asked for strict failure instead of a
    /// degraded result.
    BudgetExhausted {
        /// Machine-readable trip reason (see `guard::TripReason::name`).
        reason: String,
        /// Name of the pipeline phase that tripped.
        phase: String,
    },
    /// The run was cancelled via a `guard::CancelToken` and the caller
    /// asked for strict failure instead of a degraded result.
    Cancelled,
    /// A model snapshot's header named an unknown format or version.
    SnapshotVersion {
        /// The header line actually found.
        found: String,
    },
    /// A model snapshot's content checksum did not match its body —
    /// the file was corrupted or hand-edited.
    SnapshotChecksum {
        /// Checksum declared in the header.
        expected: String,
        /// Checksum recomputed from the body.
        actual: String,
    },
    /// A model snapshot line could not be parsed.
    SnapshotFormat {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the defect.
        message: String,
    },
    /// A model snapshot parsed cleanly but violated a semantic invariant
    /// (item id outside the universe, cluster count mismatch, …).
    SnapshotInvalid {
        /// Human-readable description of the violated invariant.
        message: String,
    },
    /// A `rock-cache/v1` binary dataset cache was unreadable: unknown
    /// magic/version, malformed structure, or a chunk whose checksum did
    /// not match its payload.
    CacheInvalid {
        /// Human-readable description of the defect.
        message: String,
    },
    /// A `rock-checkpoint/v1` resume record was corrupt, truncated, or
    /// inconsistent with the cache/model/partial output it describes.
    /// Resume fails closed on this error — it never silently restarts.
    CheckpointInvalid {
        /// Human-readable description of the defect.
        message: String,
    },
}

impl RockError {
    /// The `map_err` adapter for a filesystem call on `path`: flattens the
    /// [`std::io::Error`] into [`RockError::Io`] tagged with the path.
    pub fn io(path: &std::path::Path) -> impl Fn(std::io::Error) -> RockError + '_ {
        move |e| RockError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }

    /// Stable process exit code for this error, used by the CLI:
    ///
    /// | code | class |
    /// |------|-------|
    /// | 0    | success (including recovered/degraded runs) |
    /// | 1    | internal / non-`RockError` failure (mapped by the CLI) |
    /// | 2    | usage error (bad flags — produced by the CLI, not here) |
    /// | 3    | I/O failure |
    /// | 4    | malformed input data |
    /// | 5    | invalid configuration or data shape (default class) |
    /// | 6    | budget exhausted / cancelled |
    pub fn exit_code(&self) -> u8 {
        match self {
            RockError::Io { .. } => 3,
            RockError::Csv { .. }
            | RockError::DomainTooLarge { .. }
            | RockError::ItemOutOfRange { .. }
            | RockError::QuarantineExceeded { .. }
            | RockError::SnapshotVersion { .. }
            | RockError::SnapshotChecksum { .. }
            | RockError::SnapshotFormat { .. }
            | RockError::SnapshotInvalid { .. }
            | RockError::CacheInvalid { .. }
            | RockError::CheckpointInvalid { .. } => 4,
            RockError::BudgetExhausted { .. } | RockError::Cancelled => 6,
            _ => 5,
        }
    }
}

impl fmt::Display for RockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RockError::EmptyDataset => write!(f, "dataset contains no points"),
            RockError::InvalidK { k, n } => {
                write!(f, "invalid cluster count k={k} for {n} points")
            }
            RockError::InvalidTheta(t) => {
                write!(f, "similarity threshold theta={t} must lie in (0, 1)")
            }
            RockError::InvalidFraction { name, value } => {
                write!(f, "parameter `{name}`={value} outside its valid range")
            }
            RockError::LengthMismatch {
                left_name,
                left,
                right_name,
                right,
            } => write!(
                f,
                "length mismatch: {left_name} has {left} entries but {right_name} has {right}"
            ),
            RockError::ItemOutOfRange { item, universe } => {
                write!(
                    f,
                    "item id {item} out of range for universe of {universe} items"
                )
            }
            RockError::EmptySample => {
                write!(f, "sample for clustering is empty (all points filtered?)")
            }
            RockError::DomainTooLarge {
                attribute,
                cardinality,
            } => write!(
                f,
                "attribute `{attribute}` has {cardinality} distinct values, exceeding the u16 code space"
            ),
            RockError::NoLinksRemain {
                remaining,
                requested,
            } => write!(
                f,
                "no cross-cluster links remain with {remaining} clusters (requested {requested})"
            ),
            RockError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            RockError::Csv { line, message } => write!(f, "csv error: {message} (line {line})"),
            RockError::InvalidLabelColumn { index, columns } => {
                write!(f, "label column {index} out of range for {columns} columns")
            }
            RockError::QuarantineExceeded {
                quarantined,
                rows,
                max_fraction,
            } => write!(
                f,
                "quarantined {quarantined} of {rows} rows, above the {max_fraction} ceiling"
            ),
            RockError::BudgetExhausted { reason, phase } => {
                write!(f, "run budget exhausted ({reason}) at phase `{phase}`")
            }
            RockError::Cancelled => write!(f, "run cancelled"),
            RockError::SnapshotVersion { found } => {
                write!(f, "unknown snapshot format/version: {found:?}")
            }
            RockError::SnapshotChecksum { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected}, body hashes to {actual}"
            ),
            RockError::SnapshotFormat { line, message } => {
                write!(f, "snapshot format error: {message} (line {line})")
            }
            RockError::SnapshotInvalid { message } => {
                write!(f, "snapshot invariant violated: {message}")
            }
            RockError::CacheInvalid { message } => {
                write!(f, "dataset cache invalid: {message}")
            }
            RockError::CheckpointInvalid { message } => {
                write!(f, "checkpoint invalid: {message}")
            }
        }
    }
}

impl std::error::Error for RockError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(RockError, &str)> = vec![
            (RockError::EmptyDataset, "no points"),
            (RockError::InvalidK { k: 5, n: 2 }, "k=5"),
            (RockError::InvalidTheta(1.5), "theta=1.5"),
            (
                RockError::InvalidFraction {
                    name: "delta",
                    value: -0.2,
                },
                "delta",
            ),
            (
                RockError::LengthMismatch {
                    left_name: "labels",
                    left: 3,
                    right_name: "points",
                    right: 4,
                },
                "labels",
            ),
            (
                RockError::ItemOutOfRange {
                    item: 9,
                    universe: 4,
                },
                "item id 9",
            ),
            (RockError::EmptySample, "sample"),
            (
                RockError::DomainTooLarge {
                    attribute: "odor".to_owned(),
                    cardinality: 70_000,
                },
                "odor",
            ),
            (
                RockError::NoLinksRemain {
                    remaining: 7,
                    requested: 2,
                },
                "7 clusters",
            ),
            (
                RockError::Io {
                    path: "/tmp/x.csv".to_owned(),
                    message: "permission denied".to_owned(),
                },
                "/tmp/x.csv",
            ),
            (
                RockError::Csv {
                    line: 12,
                    message: "unterminated quote".to_owned(),
                },
                "line 12",
            ),
            (
                RockError::InvalidLabelColumn {
                    index: 9,
                    columns: 4,
                },
                "label column 9",
            ),
            (
                RockError::QuarantineExceeded {
                    quarantined: 30,
                    rows: 100,
                    max_fraction: 0.2,
                },
                "30 of 100",
            ),
            (
                RockError::BudgetExhausted {
                    reason: "step-budget".to_owned(),
                    phase: "agglomerate".to_owned(),
                },
                "step-budget",
            ),
            (RockError::Cancelled, "cancelled"),
            (
                RockError::SnapshotVersion {
                    found: "rock-model/v9".to_owned(),
                },
                "rock-model/v9",
            ),
            (
                RockError::SnapshotChecksum {
                    expected: "fnv1a64:00".to_owned(),
                    actual: "fnv1a64:ff".to_owned(),
                },
                "checksum mismatch",
            ),
            (
                RockError::SnapshotFormat {
                    line: 7,
                    message: "bad reps header".to_owned(),
                },
                "line 7",
            ),
            (
                RockError::SnapshotInvalid {
                    message: "item 9 outside universe 4".to_owned(),
                },
                "item 9",
            ),
            (
                RockError::CacheInvalid {
                    message: "chunk 3 checksum mismatch".to_owned(),
                },
                "chunk 3",
            ),
            (
                RockError::CheckpointInvalid {
                    message: "partial output shorter than recorded".to_owned(),
                },
                "partial output",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&RockError::EmptyDataset);
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(RockError::EmptyDataset, RockError::EmptyDataset);
        assert_ne!(RockError::InvalidTheta(0.0), RockError::InvalidTheta(1.0));
    }

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(
            RockError::Io {
                path: "f".into(),
                message: "m".into()
            }
            .exit_code(),
            3
        );
        assert_eq!(
            RockError::Csv {
                line: 1,
                message: "m".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            RockError::DomainTooLarge {
                attribute: "a".into(),
                cardinality: 70_000
            }
            .exit_code(),
            4
        );
        assert_eq!(
            RockError::QuarantineExceeded {
                quarantined: 3,
                rows: 4,
                max_fraction: 0.1
            }
            .exit_code(),
            4
        );
        assert_eq!(
            RockError::SnapshotVersion { found: "x".into() }.exit_code(),
            4
        );
        assert_eq!(
            RockError::SnapshotChecksum {
                expected: "a".into(),
                actual: "b".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            RockError::SnapshotFormat {
                line: 1,
                message: "m".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            RockError::SnapshotInvalid {
                message: "m".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            RockError::CacheInvalid {
                message: "m".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            RockError::CheckpointInvalid {
                message: "m".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(RockError::EmptyDataset.exit_code(), 5);
        assert_eq!(RockError::InvalidK { k: 9, n: 2 }.exit_code(), 5);
        assert_eq!(
            RockError::InvalidLabelColumn {
                index: 9,
                columns: 2
            }
            .exit_code(),
            5
        );
        assert_eq!(
            RockError::BudgetExhausted {
                reason: "deadline".into(),
                phase: "links".into()
            }
            .exit_code(),
            6
        );
        assert_eq!(RockError::Cancelled.exit_code(), 6);
    }
}
