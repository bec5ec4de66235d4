//! Crash-safe resume records: the `rock-checkpoint/v1` format.
//!
//! The streaming labeler writes one checkpoint after every durably
//! labeled chunk. A checkpoint captures everything a fresh process needs
//! to continue the run *byte-identically*: which cache and model the run
//! was labeling (by content fingerprint — resuming against different
//! inputs fails closed), how many chunks/rows are already in the partial
//! output, the running labeled/outlier/cluster tallies the final header
//! needs, and the partial file's length plus its **running FNV-1a 64
//! state** — the digest is the hasher's whole state (see
//! [`crate::hash::Fnv1a64`]), so verification after a crash costs one
//! hash of the surviving bytes and resumption continues the same stream.
//!
//! ```text
//! rock-checkpoint/v1
//! checksum fnv1a64 91ec59a92b3f0ab0
//! cache 00000000deadbeef
//! model 00000000cafebabe
//! chunks 7 40
//! rows 7000
//! labeled 6800
//! outliers 200
//! kmax 4
//! partial 123456 00000000feedf00d
//! end rock-checkpoint/v1
//! ```
//!
//! Writes are atomic (temp file + rename in the destination directory),
//! so a crash mid-write leaves either the previous checkpoint or the new
//! one, never a torn file. Parsing never panics; every defect surfaces
//! as [`RockError::CheckpointInvalid`] (exit code 4) — resume **fails
//! closed**, it never silently restarts from scratch on a corrupt
//! record.

use std::path::Path;

use crate::error::{Result, RockError};
use crate::hash::fnv1a64;

/// Format header (and footer) line; the version is part of the name.
const HEADER: &str = "rock-checkpoint/v1";

/// A `rock-checkpoint/v1` resume record: the durable progress of one
/// streaming labeling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// Content identity of the dataset cache being labeled.
    pub cache_id: u64,
    /// Content fingerprint of the model snapshot doing the labeling.
    pub model_id: u64,
    /// Chunks durably labeled so far.
    pub chunks_done: u64,
    /// Total chunks in the cache (recorded so a resume can detect a
    /// cache swap even when ids collide on length).
    pub chunks_total: u64,
    /// Rows durably labeled so far (the next global row index).
    pub rows_done: u64,
    /// Rows assigned to some cluster so far.
    pub labeled: u64,
    /// Rows marked outliers so far.
    pub outliers: u64,
    /// One past the highest cluster id assigned so far (`0` = none yet);
    /// becomes the final header's `k`.
    pub kmax: u64,
    /// Length in bytes of the partial assignment body.
    pub partial_bytes: u64,
    /// Running FNV-1a 64 state over the partial assignment body.
    pub partial_fnv: u64,
}

impl StreamCheckpoint {
    /// The canonical text rendering (always the same bytes for the same
    /// record).
    pub fn render(&self) -> String {
        let body = format!(
            "cache {:016x}\nmodel {:016x}\nchunks {} {}\nrows {}\nlabeled {}\noutliers {}\nkmax {}\npartial {} {:016x}\nend {HEADER}\n",
            self.cache_id,
            self.model_id,
            self.chunks_done,
            self.chunks_total,
            self.rows_done,
            self.labeled,
            self.outliers,
            self.kmax,
            self.partial_bytes,
            self.partial_fnv,
        );
        format!(
            "{HEADER}\nchecksum fnv1a64 {:016x}\n{body}",
            fnv1a64(body.as_bytes())
        )
    }

    /// Parses checkpoint text, verifying the header, checksum and
    /// grammar. Never panics.
    ///
    /// # Errors
    /// [`RockError::CheckpointInvalid`] for every defect — version,
    /// checksum, grammar or framing. One error class: resume either
    /// trusts the record completely or fails closed.
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |message: String| RockError::CheckpointInvalid { message };
        let Some((first, rest)) = text.split_once('\n') else {
            return Err(bad(format!("missing header, found {:?}", text.trim())));
        };
        if first.trim_end_matches('\r') != HEADER {
            return Err(bad(format!("unknown format/version {first:?}")));
        }
        let Some((checksum_line, body)) = rest.split_once('\n') else {
            return Err(bad("missing checksum line".to_owned()));
        };
        let expected = match checksum_line
            .split_whitespace()
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["checksum", "fnv1a64", hex] => u64::from_str_radix(hex, 16)
                .map_err(|e| bad(format!("bad checksum value {hex:?}: {e}")))?,
            _ => return Err(bad(format!("bad checksum line {checksum_line:?}"))),
        };
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(bad(format!(
                "checksum mismatch: header says {expected:016x}, body hashes to {actual:016x} (truncated or corrupt)"
            )));
        }

        let mut lines = body.lines();
        let mut field = |key: &str| -> Result<Vec<String>> {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("truncated: expected `{key}` line")))?;
            let rest = line
                .strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| bad(format!("expected `{key} ...`, found {line:?}")))?;
            Ok(rest.split_whitespace().map(str::to_owned).collect())
        };
        let hex1 = |key: &str, toks: &[String]| -> Result<u64> {
            match toks {
                [h] => u64::from_str_radix(h, 16)
                    .map_err(|e| bad(format!("bad {key} value {h:?}: {e}"))),
                _ => Err(bad(format!("expected `{key} <hex>`, found {toks:?}"))),
            }
        };
        let dec1 = |key: &str, toks: &[String]| -> Result<u64> {
            match toks {
                [d] => d
                    .parse()
                    .map_err(|e| bad(format!("bad {key} value {d:?}: {e}"))),
                _ => Err(bad(format!("expected `{key} <n>`, found {toks:?}"))),
            }
        };

        let cache_id = hex1("cache", &field("cache")?)?;
        let model_id = hex1("model", &field("model")?)?;
        let chunks = field("chunks")?;
        let (chunks_done, chunks_total) = match chunks.as_slice() {
            [done, total] => (
                done.parse()
                    .map_err(|e| bad(format!("bad chunks done {done:?}: {e}")))?,
                total
                    .parse()
                    .map_err(|e| bad(format!("bad chunks total {total:?}: {e}")))?,
            ),
            _ => {
                return Err(bad(format!(
                    "expected `chunks <done> <total>`, found {chunks:?}"
                )))
            }
        };
        let rows_done = dec1("rows", &field("rows")?)?;
        let labeled = dec1("labeled", &field("labeled")?)?;
        let outliers = dec1("outliers", &field("outliers")?)?;
        let kmax = dec1("kmax", &field("kmax")?)?;
        let partial = field("partial")?;
        let (partial_bytes, partial_fnv) = match partial.as_slice() {
            [bytes, fnv] => (
                bytes
                    .parse()
                    .map_err(|e| bad(format!("bad partial bytes {bytes:?}: {e}")))?,
                u64::from_str_radix(fnv, 16)
                    .map_err(|e| bad(format!("bad partial fnv {fnv:?}: {e}")))?,
            ),
            _ => {
                return Err(bad(format!(
                    "expected `partial <bytes> <fnv-hex>`, found {partial:?}"
                )))
            }
        };
        match lines.next() {
            Some(l) if l == format!("end {HEADER}") => {}
            other => return Err(bad(format!("expected `end {HEADER}`, found {other:?}"))),
        }
        if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
            return Err(bad(format!("trailing content {extra:?}")));
        }

        let cp = StreamCheckpoint {
            cache_id,
            model_id,
            chunks_done,
            chunks_total,
            rows_done,
            labeled,
            outliers,
            kmax,
            partial_bytes,
            partial_fnv,
        };
        if cp.chunks_done > cp.chunks_total {
            return Err(bad(format!(
                "chunks done {} exceeds total {}",
                cp.chunks_done, cp.chunks_total
            )));
        }
        if cp.labeled + cp.outliers != cp.rows_done {
            return Err(bad(format!(
                "labeled {} + outliers {} does not equal rows done {}",
                cp.labeled, cp.outliers, cp.rows_done
            )));
        }
        Ok(cp)
    }

    /// Replaces the checkpoint at `path`: the text is written to
    /// `<path>.tmp` in the same directory, then renamed over `path`.
    /// Neither the temp file nor the directory is synced, so the
    /// replacement is atomic against process death — a `kill -9` leaves
    /// either the old record or the new one — but not against power
    /// loss: after a power cut the checkpoint can be empty or missing. An
    /// empty one fails resume closed ([`RockError::CheckpointInvalid`],
    /// exit 4); a missing one makes the rerun start over.
    ///
    /// # Errors
    /// [`RockError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        let io = |e: std::io::Error| RockError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let tmp = tmp_path(path);
        std::fs::write(&tmp, self.render()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Loads and verifies a checkpoint from `path`.
    ///
    /// # Errors
    /// [`RockError::Io`] when the file cannot be read,
    /// [`RockError::CheckpointInvalid`] when it can be read but not
    /// trusted.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| RockError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse(&text)
    }
}

/// Sibling temp path used for atomic replacement (same directory, so the
/// rename cannot cross filesystems).
pub(crate) fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamCheckpoint {
        StreamCheckpoint {
            cache_id: 0xdead_beef,
            model_id: 0xcafe_babe,
            chunks_done: 7,
            chunks_total: 40,
            rows_done: 7000,
            labeled: 6800,
            outliers: 200,
            kmax: 4,
            partial_bytes: 123_456,
            partial_fnv: 0xfeed_f00d,
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let cp = sample();
        let text = cp.render();
        assert_eq!(StreamCheckpoint::parse(&text).unwrap(), cp);
        // Canonical: re-render is byte-identical.
        assert_eq!(StreamCheckpoint::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn save_load_round_trips_atomically() {
        let dir = std::env::temp_dir().join("rock-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.rockckpt");
        let cp = sample();
        cp.save(&path).unwrap();
        assert_eq!(StreamCheckpoint::load(&path).unwrap(), cp);
        // Overwrite with new progress; no temp file left behind.
        let mut next = cp;
        next.chunks_done = 8;
        next.rows_done = 8000;
        next.labeled = 7800;
        next.save(&path).unwrap();
        assert_eq!(StreamCheckpoint::load(&path).unwrap(), next);
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_fails_closed() {
        let text = sample().render();
        // Flip a digit in the body: checksum must catch it.
        let corrupt = text.replace("rows 7000", "rows 7001");
        assert!(matches!(
            StreamCheckpoint::parse(&corrupt).unwrap_err(),
            RockError::CheckpointInvalid { .. }
        ));
    }

    #[test]
    fn truncation_fails_closed() {
        let text = sample().render();
        for keep in 1..text.lines().count() {
            let truncated: String = text.lines().take(keep).map(|l| format!("{l}\n")).collect();
            assert!(
                matches!(
                    StreamCheckpoint::parse(&truncated).unwrap_err(),
                    RockError::CheckpointInvalid { .. }
                ),
                "keep={keep}"
            );
        }
    }

    #[test]
    fn garbage_never_panics() {
        for s in [
            "",
            "\n",
            "rock-checkpoint/v9\nx\n",
            "rock-checkpoint/v1\nchecksum md5 00\nbody\n",
            "rock-checkpoint/v1\nchecksum fnv1a64 zz\n",
            "rock-checkpoint/v1\nchecksum fnv1a64 0000000000000000\n",
        ] {
            assert!(
                matches!(
                    StreamCheckpoint::parse(s).unwrap_err(),
                    RockError::CheckpointInvalid { .. }
                ),
                "{s:?}"
            );
        }
        // A valid checksum over a garbage body still fails cleanly.
        let body = "cache zz\n";
        let text = format!(
            "rock-checkpoint/v1\nchecksum fnv1a64 {:016x}\n{body}",
            fnv1a64(body.as_bytes())
        );
        assert!(matches!(
            StreamCheckpoint::parse(&text).unwrap_err(),
            RockError::CheckpointInvalid { .. }
        ));
    }

    #[test]
    fn semantic_invariants_fail_closed() {
        let mut cp = sample();
        cp.chunks_done = 99; // > total
        assert!(StreamCheckpoint::parse(&cp.render()).is_err());
        let mut cp = sample();
        cp.labeled = 1; // labeled + outliers != rows
        assert!(StreamCheckpoint::parse(&cp.render()).is_err());
    }

    #[test]
    fn exit_code_is_malformed_input() {
        let err = StreamCheckpoint::parse("junk").unwrap_err();
        assert_eq!(err.exit_code(), 4);
    }
}
