//! How rock reads, names, replaces and checksums its own files
//! (snapshots, checkpoints, dataset caches and assignment outputs), each
//! rule in one place: path-tagged I/O errors ([`RockError::io`]), working
//! files named by a suffix beside the file they serve ([`sibling`]),
//! replacement by temp file and rename ([`Replacement`]; DESIGN.md §15
//! lists which writers sync), the checksummed line framing snapshots and
//! checkpoints share, and text reads that report invalid UTF-8 as
//! malformed input ([`read_text`]).

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::error::{Result, RockError};
use crate::hash::{fnv1a64, Fnv1a64};

/// `path` with `suffix` appended to its file name, in the same
/// directory (`out.txt` + `.ckpt` → `out.txt.ckpt`).
pub fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// A replacement of the file at `path` in progress: writes go to
/// `<path>.tmp`, and [`commit`](Self::commit) renames it over `path`.
/// Until then `path` is untouched. A replacement that fails or is dropped
/// uncommitted removes the temp file, so `path` stays as it was and
/// nothing is left beside it.
#[derive(Debug)]
pub struct Replacement<'a> {
    path: Cow<'a, Path>,
    out: BufWriter<File>,
    /// Declared after `out`, so the file is closed before it is removed.
    tmp: TempFile,
}

/// A temp file that is removed when dropped, unless it was renamed into
/// place.
#[derive(Debug)]
struct TempFile {
    path: PathBuf,
    renamed: bool,
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if !self.renamed {
            // A temp file that cannot be removed stays where it is; a drop
            // has no caller to report that to.
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl<'a> Replacement<'a> {
    /// Creates `<path>.tmp` behind an 8 KiB write buffer.
    ///
    /// # Errors
    /// [`RockError::Io`] when the temp file cannot be created.
    pub fn create(path: impl Into<Cow<'a, Path>>) -> Result<Self> {
        Self::open(path.into(), 8 * 1024)
    }

    fn open(path: Cow<'a, Path>, capacity: usize) -> Result<Self> {
        let tmp = sibling(&path, ".tmp");
        let file = File::create(&tmp).map_err(RockError::io(&tmp))?;
        let out = BufWriter::with_capacity(capacity, file);
        let tmp = TempFile {
            path: tmp,
            renamed: false,
        };
        Ok(Replacement { path, out, tmp })
    }

    /// The buffered temp file, for writers that take a [`Write`]; their
    /// errors are the caller's to tag.
    pub fn writer(&mut self) -> &mut BufWriter<File> {
        &mut self.out
    }

    /// Writes all of `bytes` to the temp file.
    ///
    /// # Errors
    /// [`RockError::Io`] on write failure.
    pub fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.out
            .write_all(bytes)
            .map_err(RockError::io(&self.tmp.path))
    }

    /// Flushes the buffer and syncs the temp file (`sync_all`).
    ///
    /// # Errors
    /// [`RockError::Io`] on flush or sync failure.
    pub fn sync(&mut self) -> Result<()> {
        let io = RockError::io(&self.tmp.path);
        self.out.flush().map_err(&io)?;
        self.out.get_ref().sync_all().map_err(io)
    }

    /// Flushes the buffer, closes the temp file and renames it over
    /// `path`. Syncs nothing. On failure the temp file is removed.
    ///
    /// # Errors
    /// [`RockError::Io`] on flush or rename failure.
    pub fn commit(self) -> Result<()> {
        let Replacement { path, out, mut tmp } = self;
        let io = RockError::io(&tmp.path);
        drop(out.into_inner().map_err(|e| io(e.into_error()))?);
        std::fs::rename(&tmp.path, &path).map_err(RockError::io(&path))?;
        tmp.renamed = true;
        Ok(())
    }
}

/// Replaces the file at `path` with `bytes`, unsynced, with the syscalls
/// and allocations of writing it in place plus the rename: a
/// zero-capacity buffer allocates nothing and passes the write through.
pub(crate) fn replace(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut replacement = Replacement::open(Cow::Borrowed(path), 0)?;
    replacement.write_all(bytes)?;
    replacement.commit()
}

/// Reads the file at `path` as text.
///
/// # Errors
/// [`RockError::Io`] when the file cannot be read; on invalid UTF-8,
/// `malformed(line, message)` with the 1-based line of the first bad
/// byte.
pub fn read_text(
    path: &Path,
    malformed: impl FnOnce(usize, String) -> RockError,
) -> Result<String> {
    let bytes = std::fs::read(path).map_err(RockError::io(path))?;
    String::from_utf8(bytes).map_err(|e| {
        let at = e.utf8_error().valid_up_to();
        let line = 1 + e.as_bytes()[..at].iter().filter(|&&b| b == b'\n').count();
        malformed(line, format!("invalid UTF-8 at byte {at}"))
    })
}

/// Seals `body` (whole lines) as a record under `header`.
pub(crate) fn seal(header: &str, body: &str) -> String {
    let mut hash = Fnv1a64::new();
    for part in [body, "end ", header, "\n"] {
        hash.update(part.as_bytes());
    }
    let mut text = String::with_capacity(2 * header.len() + body.len() + 40);
    // Writing into a String cannot fail.
    let _ = write!(
        text,
        "{header}\nchecksum fnv1a64 {:016x}\n{body}end {header}\n",
        hash.finish()
    );
    text
}

/// What is wrong with a sealed record; each format maps it to its own
/// error class.
#[derive(Debug)]
pub(crate) enum Defect {
    /// The first line is not the header; carries what is there.
    Version(String),
    /// The checksum line's value and the hash of what follows it.
    Checksum(u64, u64),
    /// A 1-based line that breaks the framing or the grammar.
    Format(usize, String),
}

/// A sealed record whose header and checksum are verified, handing out
/// its body one numbered line at a time.
pub(crate) struct Sealed<'a> {
    header: &'a str,
    lines: std::str::Lines<'a>,
    /// Number of the last line handed out (the checksum line is 2).
    line: usize,
    defect: fn(Defect) -> RockError,
}

impl<'a> Sealed<'a> {
    /// Checks the header line and the checksum of `text`.
    pub(crate) fn open(
        header: &'a str,
        text: &'a str,
        defect: fn(Defect) -> RockError,
    ) -> Result<Self> {
        let Some((first, rest)) = text.split_once('\n') else {
            return Err(defect(Defect::Version(text.trim().to_owned())));
        };
        let first = first.trim_end_matches('\r');
        if first != header {
            return Err(defect(Defect::Version(first.to_owned())));
        }
        let bad = |message: String| defect(Defect::Format(2, message));
        let Some((checksum_line, body)) = rest.split_once('\n') else {
            return Err(bad("missing checksum line".to_owned()));
        };
        let mut words = checksum_line.split_whitespace();
        let (Some("checksum"), Some("fnv1a64"), Some(hex), None) =
            (words.next(), words.next(), words.next(), words.next())
        else {
            return Err(bad(format!("bad checksum line {checksum_line:?}")));
        };
        let expected = u64::from_str_radix(hex, 16)
            .map_err(|e| bad(format!("bad checksum value {hex:?}: {e}")))?;
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(defect(Defect::Checksum(expected, actual)));
        }
        Ok(Sealed {
            header,
            lines: body.lines(),
            line: 2,
            defect,
        })
    }

    fn format(&self, line: usize, message: String) -> RockError {
        (self.defect)(Defect::Format(line, message))
    }

    /// The next body line and its number; `what` names the line expected
    /// in the truncation error.
    pub(crate) fn next(&mut self, what: impl fmt::Display) -> Result<(usize, &'a str)> {
        self.line += 1;
        match self.lines.next() {
            Some(line) => Ok((self.line, line)),
            None => Err(self.format(self.line, format!("truncated: expected {what}"))),
        }
    }

    /// The next body line, which must read `<key> <rest>`: its number and
    /// `rest`.
    pub(crate) fn keyed(&mut self, key: &str) -> Result<(usize, &'a str)> {
        let (no, line) = self.next(format_args!("`{key}` line"))?;
        match line.strip_prefix(key).and_then(|r| r.strip_prefix(' ')) {
            Some(rest) => Ok((no, rest)),
            None => Err(self.format(no, format!("expected `{key} ...`, found {line:?}"))),
        }
    }

    /// Checks the `end <header>` line and that only blank lines follow
    /// it; content after them is reported at the line after `end`.
    pub(crate) fn finish(mut self) -> Result<()> {
        let (no, line) = self.next("end line")?;
        if line.strip_prefix("end ") != Some(self.header) {
            let message = format!("expected `end {}`, found {line:?}", self.header);
            return Err(self.format(no, message));
        }
        match self.lines.find(|l| !l.trim().is_empty()) {
            Some(extra) => Err(self.format(no + 1, format!("trailing content {extra:?}"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_replacement_leaves_the_file_alone_until_commit() {
        let dir = std::env::temp_dir().join("rock-file-replace");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.txt");
        std::fs::write(&path, "old").unwrap();
        let mut out = Replacement::create(&path).unwrap();
        out.write_all(b"new").unwrap();
        out.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        out.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!sibling(&path, ".tmp").exists());
        // Dropped without commit: the file stays as it was, and the temp
        // file is gone.
        let mut out = Replacement::create(&path).unwrap();
        out.write_all(b"lost").unwrap();
        drop(out);
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!sibling(&path, ".tmp").exists());
        replace(&path, b"whole").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"whole");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_replacement_removes_its_temp_file() {
        let dir = std::env::temp_dir().join("rock-file-replace-failed");
        std::fs::remove_dir_all(&dir).ok();
        // A non-empty directory at the target path: the rename fails.
        let path = dir.join("a.txt");
        std::fs::create_dir_all(path.join("inside")).unwrap();
        let mut out = Replacement::create(&path).unwrap();
        out.write_all(b"new").unwrap();
        assert!(matches!(out.commit(), Err(RockError::Io { .. })));
        assert!(!sibling(&path, ".tmp").exists());
        assert!(matches!(replace(&path, b"new"), Err(RockError::Io { .. })));
        assert!(!sibling(&path, ".tmp").exists());
        assert!(path.join("inside").is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }
}
