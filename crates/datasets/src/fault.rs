//! Deterministic fault injection for robustness testing.
//!
//! The chaos suite (see `tests/chaos.rs`) needs to manufacture the
//! failure modes real deployments hit — truncated downloads, rows mangled
//! by a flaky proxy, disks that error mid-read — *reproducibly*, so a
//! failing case can be replayed from its seed alone. [`FaultInjector`]
//! wraps the crate's vendored RNG ([`rock_core::rng`], splitmix64-seeded)
//! and offers three text-level corruptions plus injectable I/O failures
//! on both the read path ([`read_to_string`](FaultInjector::read_to_string),
//! [`read`](FaultInjector::read)) and the write path
//! ([`write`](FaultInjector::write), which can also *tear* a write,
//! persisting only a prefix before failing — the crash mode the
//! streaming checkpoint layer must survive). Forced budget exhaustion,
//! the remaining fault class, lives in the core layer
//! (`rock_core::guard::Guard::inject_trip_at`) because it must fire
//! inside the pipeline.
//!
//! Everything here is pure: the same seed and inputs produce the same
//! corruption, byte for byte.

use std::path::Path;

use rock_core::rng::Rng;
use rock_core::{Result, RockError};

/// A seeded source of deterministic faults.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng,
    io_failure_rate: f64,
    write_failure_rate: f64,
}

impl FaultInjector {
    /// Creates an injector. All randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: Rng::seed_from_u64(seed),
            io_failure_rate: 0.0,
            write_failure_rate: 0.0,
        }
    }

    /// Sets the probability that a read ([`read_to_string`](Self::read_to_string),
    /// [`read`](Self::read), [`fail_io`](Self::fail_io)) fails with an
    /// injected I/O error (default 0).
    pub fn io_failure_rate(mut self, rate: f64) -> Self {
        self.io_failure_rate = rate;
        self
    }

    /// Sets the probability that a [`write`](Self::write) fails with an
    /// injected I/O error — half the time cleanly (nothing persisted),
    /// half the time *torn* (a prefix persisted, then failure). Default 0.
    pub fn write_failure_rate(mut self, rate: f64) -> Self {
        self.write_failure_rate = rate;
        self
    }

    /// Samples the read-failure gate alone: returns the injected
    /// [`RockError::Io`] at the configured rate, `Ok` otherwise. This is
    /// the hook the dataset cache and the streaming labeler's write
    /// probe use to thread injected faults through code that performs
    /// its own I/O.
    ///
    /// # Errors
    /// The injected failure, at `io_failure_rate`.
    pub fn fail_io(&mut self, path: &Path) -> Result<()> {
        if self.rng.gen_bool(self.io_failure_rate) {
            return Err(RockError::Io {
                path: path.display().to_string(),
                message: "injected i/o failure".to_owned(),
            });
        }
        Ok(())
    }

    /// Reads a file, or fails with an injected [`RockError::Io`] at the
    /// configured rate. Real filesystem errors surface the same way, so
    /// callers exercise one code path for both.
    ///
    /// # Errors
    /// The injected or real I/O failure.
    pub fn read_to_string(&mut self, path: &Path) -> Result<String> {
        self.fail_io(path)?;
        std::fs::read_to_string(path).map_err(RockError::io(path))
    }

    /// Binary sibling of [`read_to_string`](Self::read_to_string).
    ///
    /// # Errors
    /// The injected or real I/O failure.
    pub fn read(&mut self, path: &Path) -> Result<Vec<u8>> {
        self.fail_io(path)?;
        std::fs::read(path).map_err(RockError::io(path))
    }

    /// Writes `bytes` to `path`, or fails at the configured
    /// [`write_failure_rate`](Self::write_failure_rate). An injected
    /// failure is clean (nothing written) or torn (a random prefix
    /// persisted before the error) with equal probability — the torn
    /// case is the partial write a power cut leaves behind, which
    /// checkpoint/resume must detect and repair.
    ///
    /// # Errors
    /// The injected or real I/O failure.
    pub fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<()> {
        let io = RockError::io(path);
        if self.rng.gen_bool(self.write_failure_rate) {
            if !bytes.is_empty() && self.rng.gen_bool(0.5) {
                let keep = self.rng.gen_range(0..bytes.len());
                std::fs::write(path, &bytes[..keep]).map_err(&io)?;
                return Err(RockError::Io {
                    path: path.display().to_string(),
                    message: format!("injected torn write ({keep} of {} bytes)", bytes.len()),
                });
            }
            return Err(RockError::Io {
                path: path.display().to_string(),
                message: "injected write failure".to_owned(),
            });
        }
        std::fs::write(path, bytes).map_err(io)
    }

    /// Corrupts roughly `fraction` of the lines in `text`, choosing per
    /// line among: truncating it mid-field, opening an unterminated
    /// quote, appending a spurious extra field, or replacing it with a
    /// single-field garbage token. All four read as ragged/quote defects
    /// downstream, exactly what lenient ingestion must quarantine.
    pub fn poison_rows(&mut self, text: &str, fraction: f64) -> String {
        let mut out = String::with_capacity(text.len());
        for line in text.lines() {
            if line.trim().is_empty() || !self.rng.gen_bool(fraction) {
                out.push_str(line);
            } else {
                match self.rng.gen_range(0..4usize) {
                    0 => {
                        let cut = floor_char_boundary(line, line.len() / 2);
                        out.push_str(&line[..cut]);
                    }
                    1 => {
                        out.push('"');
                        out.push_str(line);
                    }
                    2 => {
                        out.push_str(line);
                        out.push_str(",spurious");
                    }
                    _ => out.push_str("!!corrupted!!"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Keeps only the leading `keep_fraction` of `text` (by bytes,
    /// snapped to a character boundary) — a truncated download. The cut
    /// usually lands mid-row, leaving a ragged final record.
    pub fn truncate(&mut self, text: &str, keep_fraction: f64) -> String {
        let target = rock_core::cast::f64_to_usize(
            rock_core::cast::usize_to_f64(text.len()) * keep_fraction.clamp(0.0, 1.0),
        );
        let cut = floor_char_boundary(text, target.min(text.len()));
        text[..cut].to_owned()
    }
}

/// Largest byte index `<= at` that is a char boundary of `s`.
fn floor_char_boundary(s: &str, at: usize) -> usize {
    let mut i = at.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::parse_lenient;

    const CLEAN: &str = "a,b,c\nd,e,f\ng,h,i\nj,k,l\nm,n,o\n";

    #[test]
    fn same_seed_same_corruption() {
        let a = FaultInjector::new(42).poison_rows(CLEAN, 0.5);
        let b = FaultInjector::new(42).poison_rows(CLEAN, 0.5);
        assert_eq!(a, b);
        let c = FaultInjector::new(43).poison_rows(CLEAN, 0.5);
        assert_ne!(a, c, "different seeds should corrupt differently");
    }

    #[test]
    fn poisoned_rows_are_quarantined_not_fatal() {
        let dirty = FaultInjector::new(7).poison_rows(CLEAN, 0.6);
        let parsed = parse_lenient(&dirty, ',');
        assert!(
            !parsed.rejected.is_empty(),
            "60% poison over 5 rows should reject something"
        );
        // Kept rows are mutually consistent: all carry the majority arity.
        let arity = parsed.rows[0].1.len();
        for (_, fields) in &parsed.rows {
            assert_eq!(fields.len(), arity, "kept rows must agree on arity");
        }
    }

    #[test]
    fn zero_fraction_is_identity_modulo_final_newline() {
        let out = FaultInjector::new(1).poison_rows(CLEAN, 0.0);
        assert_eq!(out, CLEAN);
    }

    #[test]
    fn truncation_cuts_at_char_boundary() {
        let text = "héllo,wörld\nrow,two\n";
        let mut inj = FaultInjector::new(9);
        for pct in [0.0, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let cut = inj.truncate(text, pct);
            assert!(text.starts_with(&cut));
        }
        assert_eq!(inj.truncate(text, 1.0), text);
        assert_eq!(inj.truncate(text, 0.0), "");
    }

    #[test]
    fn injected_io_failure_is_a_rock_error() {
        let mut always = FaultInjector::new(3).io_failure_rate(1.0);
        let err = always
            .read_to_string(Path::new("/tmp/whatever"))
            .unwrap_err();
        assert!(matches!(err, RockError::Io { .. }));
        assert!(err.to_string().contains("injected"));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn injected_write_failures_are_deterministic_and_sometimes_torn() {
        let dir = std::env::temp_dir().join("rock-fault-write-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        let payload = vec![0xabu8; 256];
        // With rate 1.0 every write fails; over several attempts both the
        // clean and the torn variant must appear, and the torn variant
        // must leave a strict prefix on disk.
        let mut inj = FaultInjector::new(11).write_failure_rate(1.0);
        let mut saw_torn = false;
        let mut saw_clean = false;
        for _ in 0..32 {
            std::fs::remove_file(&path).ok();
            let err = inj.write(&path, &payload).unwrap_err();
            assert_eq!(err.exit_code(), 3);
            let on_disk = std::fs::read(&path).unwrap_or_default();
            assert!(on_disk.len() < payload.len());
            assert_eq!(on_disk, payload[..on_disk.len()]);
            if err.to_string().contains("torn") {
                saw_torn = true;
                assert!(!on_disk.is_empty() || on_disk.is_empty()); // prefix may be empty
            } else {
                saw_clean = true;
            }
        }
        assert!(saw_torn && saw_clean, "both failure shapes should occur");
        // Same seed, same schedule.
        let mut a = FaultInjector::new(99).write_failure_rate(0.5);
        let mut b = FaultInjector::new(99).write_failure_rate(0.5);
        let results_a: Vec<bool> = (0..16).map(|_| a.write(&path, &payload).is_ok()).collect();
        let results_b: Vec<bool> = (0..16).map(|_| b.write(&path, &payload).is_ok()).collect();
        assert_eq!(results_a, results_b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_passthrough_when_rate_is_zero() {
        let dir = std::env::temp_dir().join("rock-fault-write-ok");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.bin");
        let mut never = FaultInjector::new(5);
        never.write(&path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        assert_eq!(never.read(&path).unwrap(), b"payload");
        assert!(never.fail_io(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_passthrough_when_rate_is_zero() {
        let dir = std::env::temp_dir().join("rock-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.csv");
        std::fs::write(&path, "x,y\n").unwrap();
        let mut never = FaultInjector::new(5).io_failure_rate(0.0);
        assert_eq!(never.read_to_string(&path).unwrap(), "x,y\n");
        let missing = never
            .read_to_string(Path::new("/no/such/file"))
            .unwrap_err();
        assert!(matches!(missing, RockError::Io { .. }));
        std::fs::remove_file(path).ok();
    }
}
