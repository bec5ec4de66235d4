//! Plain-text export/import of clustering results.
//!
//! Clusterings routinely feed downstream tools (plotting, scoring,
//! joins); this module writes and reads a minimal line-oriented format
//! with no external dependencies:
//!
//! ```text
//! rock-assignments v1
//! n=6 k=2 outliers=1
//! 0 0
//! 1 0
//! 2 1
//! 3 1
//! 4 1
//! 5 -
//! ```
//!
//! One `point cluster` pair per line, `-` marking outliers.

use std::io::{BufRead, Write};

use crate::cast;
use crate::data::ClusterId;
use crate::error::{Result, RockError};

/// Format header line.
const HEADER: &str = "rock-assignments v1";

/// Writes the header: the format line, then `n=… k=… outliers=…`.
pub(crate) fn write_header<W: Write>(
    out: &mut W,
    n: u64,
    k: u64,
    outliers: u64,
) -> std::io::Result<()> {
    write!(out, "{HEADER}\nn={n} k={k} outliers={outliers}\n")
}

/// Appends the line of point `row` to `buf`: `"{row} {cluster}\n"`, or
/// `"{row} -\n"` for an outlier. Callers reuse `buf`, so once it has
/// grown a line costs no allocation.
pub(crate) fn render_line(buf: &mut Vec<u8>, row: u64, cluster: Option<u64>) {
    // Writing into a Vec<u8> cannot fail.
    let _ = match cluster {
        Some(c) => writeln!(buf, "{row} {c}"),
        None => writeln!(buf, "{row} -"),
    };
}

/// Writes assignments (`None` = outlier) to `out`.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_assignments<W: Write>(
    out: &mut W,
    assignments: &[Option<ClusterId>],
) -> std::io::Result<()> {
    let k = assignments
        .iter()
        .flatten()
        .map(|c| u64::from(c.0) + 1)
        .max()
        .unwrap_or(0);
    let outliers = assignments.iter().filter(|a| a.is_none()).count();
    let n = cast::usize_to_u64(assignments.len());
    write_header(out, n, k, cast::usize_to_u64(outliers))?;
    let mut line = Vec::new();
    for (i, a) in assignments.iter().enumerate() {
        line.clear();
        render_line(&mut line, cast::usize_to_u64(i), a.map(|c| u64::from(c.0)));
        out.write_all(&line)?;
    }
    Ok(())
}

/// Errors from parsing the assignment format.
#[derive(Debug)]
pub enum ImportError {
    /// Underlying reader failure.
    Io(std::io::Error),
    /// Header missing or wrong version.
    BadHeader(String),
    /// A malformed line, with its 1-based number.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// Fewer/more rows than the header declared, or ids out of order.
    Inconsistent(String),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "io error: {e}"),
            ImportError::BadHeader(h) => write!(f, "bad header: {h:?}"),
            ImportError::BadLine { line, content } => {
                write!(f, "malformed line {line}: {content:?}")
            }
            ImportError::Inconsistent(msg) => write!(f, "inconsistent file: {msg}"),
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ImportError {
    fn from(e: std::io::Error) -> Self {
        ImportError::Io(e)
    }
}

/// Reads assignments previously written by [`write_assignments`].
///
/// Tolerant of transport mangling that leaves the data intact (mirroring
/// the CSV loader's hardening): CRLF line endings, a UTF-8 BOM before the
/// header, blank lines and a trailing newline are all accepted. `lines()`
/// strips `\r\n` pairs; the explicit `\r`-trimming below additionally
/// covers lone carriage returns from pre-split or mixed-ending input.
pub fn read_assignments<R: BufRead>(
    input: R,
) -> std::result::Result<Vec<Option<ClusterId>>, ImportError> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| ImportError::BadHeader(String::new()))??;
    if header.trim_start_matches('\u{feff}').trim() != HEADER {
        return Err(ImportError::BadHeader(header));
    }
    let meta = lines
        .next()
        .ok_or_else(|| ImportError::Inconsistent("missing meta line".into()))??;
    let meta = meta.trim_end_matches('\r');
    let n: usize = meta
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("n=").and_then(|v| v.parse().ok()))
        .ok_or_else(|| ImportError::Inconsistent(format!("meta line lacks n=: {meta:?}")))?;
    let mut out: Vec<Option<ClusterId>> = Vec::with_capacity(n);
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let line = line.trim_end_matches('\r').to_owned();
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(idx), Some(cluster), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(ImportError::BadLine {
                line: lineno + 3,
                content: line,
            });
        };
        let idx: usize = idx.parse().map_err(|_| ImportError::BadLine {
            line: lineno + 3,
            content: line.clone(),
        })?;
        if idx != out.len() {
            return Err(ImportError::Inconsistent(format!(
                "expected point {} on line {}, found {idx}",
                out.len(),
                lineno + 3
            )));
        }
        let value = if cluster == "-" {
            None
        } else {
            Some(ClusterId(cluster.parse().map_err(|_| {
                ImportError::BadLine {
                    line: lineno + 3,
                    content: line.clone(),
                }
            })?))
        };
        out.push(value);
    }
    if out.len() != n {
        return Err(ImportError::Inconsistent(format!(
            "header declared n={n} but found {} rows",
            out.len()
        )));
    }
    Ok(out)
}

/// Round-trips assignments through the text format (testing/diagnostics).
pub fn roundtrip(assignments: &[Option<ClusterId>]) -> Result<Vec<Option<ClusterId>>> {
    let mut buf = Vec::new();
    write_assignments(&mut buf, assignments).map_err(|_| RockError::EmptyDataset)?;
    read_assignments(std::io::Cursor::new(buf)).map_err(|_| RockError::EmptyDataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Vec<Option<ClusterId>> {
        vec![
            Some(ClusterId(0)),
            Some(ClusterId(0)),
            Some(ClusterId(1)),
            None,
            Some(ClusterId(2)),
        ]
    }

    #[test]
    fn roundtrip_preserves_assignments() {
        let a = sample();
        let mut buf = Vec::new();
        write_assignments(&mut buf, &a).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("rock-assignments v1\n"));
        assert!(text.contains("n=5 k=3 outliers=1"));
        assert!(text.contains("3 -"));
        let back = read_assignments(Cursor::new(buf)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn empty_assignments() {
        let a: Vec<Option<ClusterId>> = vec![];
        let mut buf = Vec::new();
        write_assignments(&mut buf, &a).unwrap();
        let back = read_assignments(Cursor::new(buf)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_bad_header() {
        let err =
            read_assignments(Cursor::new(b"wrong v9\nn=0 k=0 outliers=0\n".to_vec())).unwrap_err();
        assert!(matches!(err, ImportError::BadHeader(_)));
        assert!(err.to_string().contains("bad header"));
    }

    #[test]
    fn rejects_malformed_line() {
        let text = "rock-assignments v1\nn=1 k=1 outliers=0\n0 zero\n";
        let err = read_assignments(Cursor::new(text.as_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, ImportError::BadLine { line: 3, .. }));
    }

    #[test]
    fn rejects_out_of_order_points() {
        let text = "rock-assignments v1\nn=2 k=1 outliers=0\n1 0\n0 0\n";
        let err = read_assignments(Cursor::new(text.as_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, ImportError::Inconsistent(_)));
    }

    #[test]
    fn rejects_count_mismatch() {
        let text = "rock-assignments v1\nn=3 k=1 outliers=0\n0 0\n";
        let err = read_assignments(Cursor::new(text.as_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, ImportError::Inconsistent(_)));
    }

    #[test]
    fn convenience_roundtrip() {
        assert_eq!(roundtrip(&sample()).unwrap(), sample());
    }

    #[test]
    fn tolerates_crlf_line_endings() {
        let a = sample();
        let mut buf = Vec::new();
        write_assignments(&mut buf, &a).unwrap();
        let crlf = String::from_utf8(buf).unwrap().replace('\n', "\r\n");
        let back = read_assignments(Cursor::new(crlf.into_bytes())).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn tolerates_trailing_newlines_and_bom() {
        let a = sample();
        let mut buf = Vec::new();
        write_assignments(&mut buf, &a).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // A trailing newline (already present) plus extra blank lines.
        text.push('\n');
        text.push_str("\r\n");
        let bom = format!("\u{feff}{text}");
        assert_eq!(read_assignments(Cursor::new(text.into_bytes())).unwrap(), a);
        assert_eq!(read_assignments(Cursor::new(bom.into_bytes())).unwrap(), a);
    }

    #[test]
    fn tolerates_missing_final_newline() {
        let text = "rock-assignments v1\nn=2 k=1 outliers=1\n0 0\n1 -";
        let back = read_assignments(Cursor::new(text.as_bytes().to_vec())).unwrap();
        assert_eq!(back, vec![Some(ClusterId(0)), None]);
    }

    #[test]
    fn crlf_malformed_lines_still_rejected() {
        let text = "rock-assignments v1\r\nn=1 k=1 outliers=0\r\n0 zero\r\n";
        let err = read_assignments(Cursor::new(text.as_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, ImportError::BadLine { line: 3, .. }));
    }
}
