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
//! Writes are [`crate::file`] replacements (temp file + rename), so a
//! crash mid-write leaves either the previous checkpoint or the new one,
//! never a torn file. Parsing never panics; every defect surfaces as
//! [`RockError::CheckpointInvalid`] (exit code 4) — resume **fails
//! closed**, it never silently restarts from scratch on a corrupt
//! record.

use std::path::Path;

use crate::error::{Result, RockError};
use crate::file::{self, Defect, Sealed};

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

/// Every framing defect is one more way a checkpoint cannot be trusted.
fn invalid(defect: Defect) -> RockError {
    let message = match defect {
        Defect::Version(found) => format!("unknown format/version {found:?}"),
        Defect::Checksum(expected, actual) => format!(
            "checksum mismatch: header says {expected:016x}, body hashes to {actual:016x} (truncated or corrupt)"
        ),
        Defect::Format(line, message) => format!("{message} (line {line})"),
    };
    RockError::CheckpointInvalid { message }
}

/// The values on the body line keyed `key`: exactly one per radix.
fn values<const N: usize>(
    record: &mut Sealed<'_>,
    key: &str,
    radixes: [u32; N],
) -> Result<[u64; N]> {
    let bad = |message: String| RockError::CheckpointInvalid { message };
    let tokens: Vec<&str> = record.keyed(key)?.1.split_whitespace().collect();
    if tokens.len() != N {
        return Err(bad(format!(
            "wrong number of values after `{key}`: {tokens:?}"
        )));
    }
    let mut out = [0; N];
    for ((slot, token), radix) in out.iter_mut().zip(tokens).zip(radixes) {
        *slot = u64::from_str_radix(token, radix)
            .map_err(|e| bad(format!("bad {key} value {token:?}: {e}")))?;
    }
    Ok(out)
}

impl StreamCheckpoint {
    /// The canonical text rendering (always the same bytes for the same
    /// record).
    pub fn render(&self) -> String {
        let body = format!(
            "cache {:016x}\nmodel {:016x}\nchunks {} {}\nrows {}\nlabeled {}\noutliers {}\nkmax {}\npartial {} {:016x}\n",
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
        file::seal(HEADER, &body)
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
        let mut record = Sealed::open(HEADER, text, invalid)?;
        let [cache_id] = values(&mut record, "cache", [16])?;
        let [model_id] = values(&mut record, "model", [16])?;
        let [chunks_done, chunks_total] = values(&mut record, "chunks", [10, 10])?;
        let [rows_done] = values(&mut record, "rows", [10])?;
        let [labeled] = values(&mut record, "labeled", [10])?;
        let [outliers] = values(&mut record, "outliers", [10])?;
        let [kmax] = values(&mut record, "kmax", [10])?;
        let [partial_bytes, partial_fnv] = values(&mut record, "partial", [10, 16])?;
        record.finish()?;

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
        if cp.labeled.checked_add(cp.outliers) != Some(cp.rows_done) {
            return Err(bad(format!(
                "labeled {} + outliers {} does not equal rows done {}",
                cp.labeled, cp.outliers, cp.rows_done
            )));
        }
        Ok(cp)
    }

    /// Replaces the checkpoint at `path` through [`file::Replacement`]:
    /// the text is written to `<path>.tmp` in the same directory, then
    /// renamed over `path`. Neither the temp file nor the directory is
    /// synced, so the replacement is atomic against process death — a
    /// `kill -9` leaves either the old record or the new one — but not
    /// against power loss: after a power cut the checkpoint can be empty
    /// or missing. An empty one fails resume closed
    /// ([`RockError::CheckpointInvalid`], exit 4); a missing one makes the
    /// rerun start over.
    ///
    /// # Errors
    /// [`RockError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        file::replace(path, self.render().as_bytes())
    }

    /// Loads and verifies a checkpoint from `path`.
    ///
    /// # Errors
    /// [`RockError::Io`] when the file cannot be read,
    /// [`RockError::CheckpointInvalid`] when it can be read but not
    /// trusted, invalid UTF-8 included.
    pub fn load(path: &Path) -> Result<Self> {
        let text = file::read_text(path, |line, message| RockError::CheckpointInvalid {
            message: format!("{message} (line {line})"),
        })?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a64;

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
        assert!(!file::sibling(&path, ".tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_save_whose_rename_fails_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("rock-checkpoint-failed-rename");
        std::fs::remove_dir_all(&dir).ok();
        // A non-empty directory at the target path: the rename fails.
        let path = dir.join("run.rockckpt");
        std::fs::create_dir_all(path.join("inside")).unwrap();
        let err = sample().save(&path).unwrap_err();
        assert!(matches!(err, RockError::Io { .. }), "{err}");
        assert!(!file::sibling(&path, ".tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
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
    fn an_edit_that_keeps_the_invariants_fails_the_checksum() {
        let text = sample().render().replace("kmax 4", "kmax 5");
        assert!(matches!(
            StreamCheckpoint::parse(&text),
            Err(RockError::CheckpointInvalid { message }) if message.contains("checksum mismatch")
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
    fn framing_defects_fail_closed() {
        let text = sample().render();
        let (_, after_checksum) = text.split_once("\nchecksum fnv1a64 ").unwrap();
        let (_, body) = after_checksum.split_once('\n').unwrap();
        let before_end = body.strip_suffix("end rock-checkpoint/v1\n").unwrap();
        let checksummed = |body: &str| {
            format!(
                "rock-checkpoint/v1\nchecksum fnv1a64 {:016x}\n{body}",
                fnv1a64(body.as_bytes())
            )
        };
        // Sanity: the helper reproduces the rendered framing.
        assert_eq!(checksummed(body), text);
        assert!(StreamCheckpoint::parse(&checksummed(&format!("{body}\n\n"))).is_ok());
        for bad in [
            format!("rock-checkpoint/v1\nchecksum crc32 00\n{body}"),
            checksummed(&body.replace("kmax 4", "kmax four")),
            checksummed(before_end),
            checksummed(&format!("{before_end}end rock-model/v1\n")),
            checksummed(&format!("{body}junk\n")),
            checksummed(&format!("{body}\n\njunk\n")),
        ] {
            assert!(
                matches!(
                    StreamCheckpoint::parse(&bad),
                    Err(RockError::CheckpointInvalid { .. })
                ),
                "{bad:?}"
            );
        }
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
    fn a_checkpoint_that_is_not_utf8_fails_closed() {
        let dir = std::env::temp_dir().join("rock-checkpoint-not-utf8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.rockckpt");
        let mut bytes = sample().render().into_bytes();
        let at = bytes.iter().position(|&b| b == b'\n').unwrap() + 3;
        bytes[at] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = StreamCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, RockError::CheckpointInvalid { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tallies_that_overflow_fail_closed() {
        let mut cp = sample();
        cp.rows_done = 0;
        cp.labeled = u64::MAX;
        cp.outliers = 1;
        assert!(matches!(
            StreamCheckpoint::parse(&cp.render()),
            Err(RockError::CheckpointInvalid { .. })
        ));
    }

    #[test]
    fn exit_code_is_malformed_input() {
        let err = StreamCheckpoint::parse("junk").unwrap_err();
        assert_eq!(err.exit_code(), 4);
    }
}
