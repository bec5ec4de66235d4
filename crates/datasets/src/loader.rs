//! Loading labeled categorical tables from UCI-style CSV files.
//!
//! All loading errors are [`RockError`] values, so the CLI and tests deal
//! with exactly one error type (and one table of stable exit codes)
//! across the core and dataset layers.
//!
//! Two ingestion modes are supported ([`IngestMode`]): **strict** fails
//! on the first malformed row, while **lenient** quarantines malformed
//! rows (ragged, unterminated quote, over-full value domains) into an
//! [`IngestReport`] and keeps going — up to a configurable ceiling on the
//! quarantined fraction, past which the file is considered too dirty to
//! trust ([`RockError::QuarantineExceeded`]).

use std::path::Path;

use rock_core::data::{CategoricalTable, Schema};
use rock_core::file::read_text;
use rock_core::{Result, RockError};

use crate::csv;

/// Where the class label lives in each record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelPosition {
    /// First column (e.g. mushroom, votes).
    First,
    /// Last column (e.g. nursery, tic-tac-toe).
    Last,
    /// Column by 0-based index.
    Column(usize),
    /// No label column.
    None,
}

/// How malformed rows are treated during ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IngestMode {
    /// The first malformed row fails the whole load.
    #[default]
    Strict,
    /// Malformed rows are quarantined into the [`IngestReport`] and the
    /// load continues, unless more than `max_quarantine_fraction` of the
    /// data rows end up quarantined.
    Lenient {
        /// Ceiling on `quarantined / rows_read` (e.g. `0.2` = 20%).
        max_quarantine_fraction: f64,
    },
}

impl IngestMode {
    /// Lenient mode with the default 20% quarantine ceiling.
    pub fn lenient() -> Self {
        IngestMode::Lenient {
            max_quarantine_fraction: 0.2,
        }
    }
}

/// Parsing configuration for a labeled categorical CSV file.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Token marking a missing value (default `?`).
    pub missing: String,
    /// Label column position (default [`LabelPosition::Last`]).
    pub label: LabelPosition,
    /// Skip this many leading data lines (headers). Default 0 — UCI
    /// `.data` files have no header.
    pub skip_lines: usize,
    /// 0-based column indices to drop entirely (e.g. record identifiers
    /// like the Zoo dataset's animal-name column, which would otherwise
    /// make every record trivially unique).
    pub ignore_columns: Vec<usize>,
    /// Malformed-row policy (default [`IngestMode::Strict`]).
    pub mode: IngestMode,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            delimiter: ',',
            missing: "?".to_owned(),
            label: LabelPosition::Last,
            skip_lines: 0,
            ignore_columns: Vec::new(),
            mode: IngestMode::Strict,
        }
    }
}

/// One quarantined row: where it was and why it was set aside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 1-based line number in the source file.
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

/// Per-file ingestion accounting, filled in by [`parse_labeled`].
///
/// Under [`IngestMode::Strict`] the quarantine list is always empty (a
/// malformed row errors instead); under lenient mode it records every row
/// that was set aside.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Data rows encountered (after header skipping; blank and comment
    /// lines never count).
    pub rows_read: usize,
    /// Rows that made it into the table.
    pub rows_kept: usize,
    /// Rows set aside, in file order.
    pub quarantined: Vec<QuarantinedRow>,
}

impl IngestReport {
    /// Fraction of read rows that were quarantined (0 when nothing was
    /// read).
    pub fn quarantine_fraction(&self) -> f64 {
        if self.rows_read == 0 {
            return 0.0;
        }
        rock_core::cast::usize_to_f64(self.quarantined.len())
            / rock_core::cast::usize_to_f64(self.rows_read)
    }

    /// `true` when every row read was kept.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// A loaded dataset: the categorical feature table plus string labels
/// (empty when [`LabelPosition::None`]) and the ingestion report.
#[derive(Debug, Clone)]
pub struct LabeledTable {
    /// Feature table (label column removed).
    pub table: CategoricalTable,
    /// Per-row class label.
    pub labels: Vec<String>,
    /// What was read, kept, and quarantined.
    pub report: IngestReport,
}

/// Parses CSV text into a labeled categorical table.
///
/// # Errors
/// [`RockError::Csv`] on a malformed row (strict mode),
/// [`RockError::QuarantineExceeded`] when lenient mode sets aside more
/// than the configured fraction, [`RockError::EmptyDataset`] when no rows
/// survive, [`RockError::InvalidLabelColumn`] for an out-of-range label
/// index, and [`RockError::DomainTooLarge`] when a value domain overflows
/// `u16` (strict mode; lenient quarantines the row).
pub fn parse_labeled(text: &str, config: &LoadConfig) -> Result<LabeledTable> {
    let mut report = IngestReport::default();
    let rows: Vec<(usize, Vec<String>)> = match config.mode {
        IngestMode::Strict => csv::parse(text, config.delimiter)?
            .into_iter()
            .enumerate()
            .map(|(i, fields)| (i + 1, fields))
            .skip(config.skip_lines)
            .collect(),
        IngestMode::Lenient { .. } => {
            let parsed = csv::parse_lenient(text, config.delimiter);
            for (line, err) in parsed.rejected {
                report.quarantined.push(QuarantinedRow {
                    line,
                    reason: err.to_string(),
                });
            }
            report.rows_read += report.quarantined.len();
            parsed.rows.into_iter().skip(config.skip_lines).collect()
        }
    };
    report.rows_read += rows.len();
    if rows.is_empty() && report.quarantined.is_empty() {
        return Err(RockError::EmptyDataset);
    }
    let width = rows.first().map_or(0, |(_, fields)| fields.len());
    let label_idx = match config.label {
        LabelPosition::First => Some(0),
        LabelPosition::Last => width.checked_sub(1),
        LabelPosition::Column(i) => {
            if i >= width {
                return Err(RockError::InvalidLabelColumn {
                    index: i,
                    columns: width,
                });
            }
            Some(i)
        }
        LabelPosition::None => None,
    };
    let dropped = |i: usize| config.ignore_columns.contains(&i);
    let num_features = width
        - usize::from(label_idx.is_some())
        - (0..width)
            .filter(|&i| dropped(i) && Some(i) != label_idx)
            .count();
    let mut table = CategoricalTable::new(Schema::with_unnamed(num_features));
    let mut labels = Vec::with_capacity(rows.len());
    for (line, row) in &rows {
        let mut features: Vec<&str> = Vec::with_capacity(num_features);
        let mut label: Option<&str> = None;
        for (i, cell) in row.iter().enumerate() {
            if Some(i) == label_idx {
                label = Some(cell);
            } else if !dropped(i) {
                features.push(cell);
            }
        }
        match table.push_textual(&features, &config.missing) {
            Ok(()) => {
                if let Some(l) = label {
                    labels.push(l.to_owned());
                }
            }
            Err(e) if matches!(config.mode, IngestMode::Lenient { .. }) => {
                report.quarantined.push(QuarantinedRow {
                    line: *line,
                    reason: e.to_string(),
                });
            }
            Err(e) => return Err(e),
        }
    }
    report.rows_kept = table.len();
    if let IngestMode::Lenient {
        max_quarantine_fraction,
    } = config.mode
    {
        if report.quarantine_fraction() > max_quarantine_fraction {
            return Err(RockError::QuarantineExceeded {
                quarantined: report.quarantined.len(),
                rows: report.rows_read,
                max_fraction: max_quarantine_fraction,
            });
        }
    }
    if table.is_empty() {
        return Err(RockError::EmptyDataset);
    }
    Ok(LabeledTable {
        table,
        labels,
        report,
    })
}

/// Loads a labeled categorical table from a file.
///
/// # Errors
/// [`RockError::Io`] on filesystem failure, [`RockError::Csv`] at the
/// line of the first byte that is not UTF-8, plus everything
/// [`parse_labeled`] can return.
pub fn load_labeled(path: &Path, config: &LoadConfig) -> Result<LabeledTable> {
    let text = read_text(path, |line, message| RockError::Csv { line, message })?;
    parse_labeled(&text, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    const VOTES_SAMPLE: &str = "\
republican,n,y,n,y
democrat,?,y,y,n
democrat,y,y,y,n
";

    #[test]
    fn parses_label_first() {
        let cfg = LoadConfig {
            label: LabelPosition::First,
            ..LoadConfig::default()
        };
        let out = parse_labeled(VOTES_SAMPLE, &cfg).unwrap();
        assert_eq!(out.labels, vec!["republican", "democrat", "democrat"]);
        assert_eq!(out.table.len(), 3);
        assert_eq!(out.table.num_attributes(), 4);
        // Missing value became None.
        assert_eq!(out.table.row(1).unwrap()[0], None);
        assert!(out.report.is_clean());
        assert_eq!(out.report.rows_read, 3);
        assert_eq!(out.report.rows_kept, 3);
    }

    #[test]
    fn parses_label_last() {
        let text = "x,o,win\no,x,lose\n";
        let out = parse_labeled(text, &LoadConfig::default()).unwrap();
        assert_eq!(out.labels, vec!["win", "lose"]);
        assert_eq!(out.table.num_attributes(), 2);
    }

    #[test]
    fn parses_label_by_column() {
        let text = "a,L1,b\nc,L2,d\n";
        let cfg = LoadConfig {
            label: LabelPosition::Column(1),
            ..LoadConfig::default()
        };
        let out = parse_labeled(text, &cfg).unwrap();
        assert_eq!(out.labels, vec!["L1", "L2"]);
        assert_eq!(out.table.num_attributes(), 2);
    }

    #[test]
    fn unlabeled_mode() {
        let text = "a,b\nc,d\n";
        let cfg = LoadConfig {
            label: LabelPosition::None,
            ..LoadConfig::default()
        };
        let out = parse_labeled(text, &cfg).unwrap();
        assert!(out.labels.is_empty());
        assert_eq!(out.table.num_attributes(), 2);
    }

    #[test]
    fn bad_label_column_rejected() {
        let cfg = LoadConfig {
            label: LabelPosition::Column(9),
            ..LoadConfig::default()
        };
        assert!(matches!(
            parse_labeled("a,b\n", &cfg),
            Err(RockError::InvalidLabelColumn {
                index: 9,
                columns: 2
            })
        ));
    }

    #[test]
    fn empty_file_rejected() {
        assert!(matches!(
            parse_labeled("\n\n", &LoadConfig::default()),
            Err(RockError::EmptyDataset)
        ));
    }

    #[test]
    fn malformed_row_is_csv_error_in_strict_mode() {
        let err = parse_labeled("a,b\nc\n", &LoadConfig::default()).unwrap_err();
        assert!(matches!(err, RockError::Csv { line: 2, .. }));
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn skip_lines_drops_header() {
        let text = "col1,col2,class\na,b,pos\n";
        let cfg = LoadConfig {
            skip_lines: 1,
            ..LoadConfig::default()
        };
        let out = parse_labeled(text, &cfg).unwrap();
        assert_eq!(out.labels, vec!["pos"]);
        assert_eq!(out.table.len(), 1);
    }

    #[test]
    fn ignore_columns_drops_identifiers() {
        let text = "aardvark,1,0,mammal\nbass,0,1,fish\n";
        let cfg = LoadConfig {
            label: LabelPosition::Last,
            ignore_columns: vec![0],
            ..LoadConfig::default()
        };
        let out = parse_labeled(text, &cfg).unwrap();
        assert_eq!(out.table.num_attributes(), 2);
        assert_eq!(out.labels, vec!["mammal", "fish"]);
        assert_eq!(out.table.row(0).unwrap().len(), 2);
    }

    #[test]
    fn ignoring_the_label_column_is_harmless() {
        // The label wins over ignore: it is still extracted, not dropped.
        let text = "a,b,L\n";
        let cfg = LoadConfig {
            label: LabelPosition::Column(2),
            ignore_columns: vec![2],
            ..LoadConfig::default()
        };
        let out = parse_labeled(text, &cfg).unwrap();
        assert_eq!(out.labels, vec!["L"]);
        assert_eq!(out.table.num_attributes(), 2);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err =
            load_labeled(Path::new("/nonexistent/file.data"), &LoadConfig::default()).unwrap_err();
        assert!(matches!(err, RockError::Io { .. }));
        assert!(err.to_string().contains("/nonexistent/file.data"));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn a_file_that_is_not_utf8_is_malformed_at_its_line() {
        let dir = std::env::temp_dir().join("rock-loader-not-utf8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.data");
        std::fs::write(&path, b"a,b,one\nc,d,two\ne,\xff,three\n").unwrap();
        let err = load_labeled(&path, &LoadConfig::default()).unwrap_err();
        assert!(matches!(err, RockError::Csv { line: 3, .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_converts_to_transactions() {
        let cfg = LoadConfig {
            label: LabelPosition::First,
            ..LoadConfig::default()
        };
        let out = parse_labeled(VOTES_SAMPLE, &cfg).unwrap();
        let ts = out.table.to_transactions();
        assert_eq!(ts.len(), 3);
        // Row 1 has one missing value → 3 items; others have 4.
        assert_eq!(ts.transaction(1).unwrap().len(), 3);
        assert_eq!(ts.transaction(0).unwrap().len(), 4);
    }

    #[test]
    fn lenient_quarantines_ragged_rows() {
        let text = "republican,n,y,n,y\nbroken\ndemocrat,y,y,y,n\n";
        let cfg = LoadConfig {
            label: LabelPosition::First,
            mode: IngestMode::lenient(),
            ..LoadConfig::default()
        };
        // 1 of 3 rows quarantined = 33% > default 20% ceiling.
        let err = parse_labeled(text, &cfg).unwrap_err();
        assert!(matches!(
            err,
            RockError::QuarantineExceeded {
                quarantined: 1,
                rows: 3,
                ..
            }
        ));
        // A laxer ceiling accepts the file and reports the quarantine.
        let cfg = LoadConfig {
            mode: IngestMode::Lenient {
                max_quarantine_fraction: 0.5,
            },
            ..cfg
        };
        let out = parse_labeled(text, &cfg).unwrap();
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.labels, vec!["republican", "democrat"]);
        assert_eq!(out.report.rows_read, 3);
        assert_eq!(out.report.rows_kept, 2);
        assert_eq!(out.report.quarantined.len(), 1);
        assert_eq!(out.report.quarantined[0].line, 2);
        assert!((out.report.quarantine_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lenient_quarantines_unterminated_quotes() {
        let text = "a,b,c\n\"oops,x,y\nd,e,f\n";
        let cfg = LoadConfig {
            mode: IngestMode::Lenient {
                max_quarantine_fraction: 0.5,
            },
            ..LoadConfig::default()
        };
        let out = parse_labeled(text, &cfg).unwrap();
        assert_eq!(out.table.len(), 2);
        assert!(out.report.quarantined[0].reason.contains("unterminated"));
    }

    #[test]
    fn lenient_labels_stay_aligned_with_kept_rows() {
        let text = "a,b,keep1\nragged\nc,d,keep2\ne,f,keep3\nragged,again,too,wide\n";
        let cfg = LoadConfig {
            mode: IngestMode::Lenient {
                max_quarantine_fraction: 0.5,
            },
            ..LoadConfig::default()
        };
        let out = parse_labeled(text, &cfg).unwrap();
        assert_eq!(out.labels, vec!["keep1", "keep2", "keep3"]);
        assert_eq!(out.table.len(), out.labels.len());
        let lines: Vec<usize> = out.report.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(lines, vec![2, 5]);
    }

    #[test]
    fn lenient_on_fully_garbage_file_errors() {
        let cfg = LoadConfig {
            mode: IngestMode::Lenient {
                max_quarantine_fraction: 1.0,
            },
            ..LoadConfig::default()
        };
        // Everything quarantined but under the (100%) ceiling: the load
        // still fails because no data survived.
        let err = parse_labeled("\"x\n\"y\n", &cfg).unwrap_err();
        assert!(matches!(err, RockError::EmptyDataset));
    }

    #[test]
    fn strict_is_the_default_mode() {
        assert_eq!(LoadConfig::default().mode, IngestMode::Strict);
        assert_eq!(IngestMode::default(), IngestMode::Strict);
    }
}
