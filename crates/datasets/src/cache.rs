//! The `rock-cache/v1` binary dataset cache: chunked, checksummed,
//! re-readable transaction storage for the out-of-core pipeline.
//!
//! The CSV/basket loaders parse text once; at a million rows and up,
//! re-parsing on every labeling run (or resume) wastes minutes and —
//! worse — ties the streaming labeler's identity checks to mutable text
//! files. A cache is built once beside the source data and then serves
//! fixed-size chunks by direct seek, each verified against a per-chunk
//! FNV-1a 64 checksum on read. The whole file is written as one synced
//! [`Replacement`] (temp file + rename, see [`rock_core::file`]), so a
//! crashed build never leaves a half-cache that a later run could trust.
//!
//! ## Layout (all integers little-endian u64 unless noted)
//!
//! ```text
//! magic     "rock-cache/v1\n"                      (14 bytes)
//! universe  item-id universe size
//! chunk_rows  rows per chunk (last chunk may be short)
//! payload for chunk 0, chunk 1, ...                 (see below)
//! directory: per chunk { offset, rows, bytes, fnv } (32 bytes each)
//! footer:   rows, num_chunks, directory_offset, footer_fnv
//! ```
//!
//! A chunk payload is a sequence of rows, each `count: u32 LE` followed
//! by `count` item ids (`u32 LE`, strictly increasing). The footer FNV
//! covers the directory and the first three footer fields, so a
//! truncated or bit-flipped tail is detected at open; chunk payload
//! corruption is detected at read. The cache's **content identity**
//! ([`DatasetCache::cache_id`]) chains the shape fields and every chunk
//! checksum — the value `rock-checkpoint/v1` records so a resume
//! refuses to run against swapped data.
//!
//! Every failure surfaces as [`RockError::CacheInvalid`] (malformed,
//! exit code 4) or [`RockError::Io`] (filesystem, exit code 3, retried
//! by the streaming labeler); nothing here panics on bad bytes.

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rock_core::cast;
use rock_core::data::Transaction;
use rock_core::file::Replacement;
use rock_core::hash::Fnv1a64;
use rock_core::stream::ChunkSource;
use rock_core::{Result, RockError};

use crate::fault::FaultInjector;

/// Magic bytes opening every cache file; the version is part of them.
pub const MAGIC: &[u8; 14] = b"rock-cache/v1\n";

/// One directory entry: where a chunk lives and how to verify it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkEntry {
    /// Absolute file offset of the chunk payload.
    offset: u64,
    /// Rows in the chunk.
    rows: u64,
    /// Payload length in bytes.
    bytes: u64,
    /// FNV-1a 64 of the payload.
    fnv: u64,
}

fn invalid(message: String) -> RockError {
    RockError::CacheInvalid { message }
}

/// Streaming builder: push transactions in row order, then
/// [`finish`](CacheBuilder::finish). Rows are buffered one chunk at a
/// time, so building a cache never holds more than `chunk_rows` rows in
/// memory. The file materializes at `<path>.tmp` and is renamed into
/// place only when complete.
#[derive(Debug)]
pub struct CacheBuilder {
    path: PathBuf,
    out: Replacement<'static>,
    universe: u64,
    chunk_rows: usize,
    pending: Vec<Transaction>,
    entries: Vec<ChunkEntry>,
    offset: u64,
    rows: u64,
}

impl CacheBuilder {
    /// Opens a builder writing to `<path>.tmp`. `chunk_rows` is clamped
    /// to at least 1.
    ///
    /// # Errors
    /// [`RockError::Io`] when the temp file cannot be created.
    pub fn create(path: &Path, universe: usize, chunk_rows: usize) -> Result<Self> {
        let mut out = Replacement::create(path.to_path_buf())?;
        out.write_all(MAGIC)?;
        let universe = cast::usize_to_u64(universe);
        let chunk_rows = chunk_rows.max(1);
        out.write_all(&universe.to_le_bytes())?;
        out.write_all(&cast::usize_to_u64(chunk_rows).to_le_bytes())?;
        Ok(CacheBuilder {
            path: path.to_path_buf(),
            out,
            universe,
            chunk_rows,
            pending: Vec::with_capacity(chunk_rows),
            entries: Vec::new(),
            offset: cast::usize_to_u64(MAGIC.len()) + 16,
            rows: 0,
        })
    }

    /// Appends one transaction.
    ///
    /// # Errors
    /// [`RockError::ItemOutOfRange`] when an item exceeds the declared
    /// universe; [`RockError::Io`] on write failure.
    pub fn push(&mut self, t: &Transaction) -> Result<()> {
        if let Some(&item) = t.items().iter().find(|&&i| u64::from(i) >= self.universe) {
            return Err(RockError::ItemOutOfRange {
                item,
                universe: cast::u64_to_usize(self.universe),
            });
        }
        self.pending.push(t.clone());
        self.rows += 1;
        if self.pending.len() == self.chunk_rows {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::new();
        for t in &self.pending {
            payload.extend_from_slice(&cast::usize_to_u32(t.len()).to_le_bytes());
            for &item in t.items() {
                payload.extend_from_slice(&item.to_le_bytes());
            }
        }
        let mut h = Fnv1a64::new();
        h.update(&payload);
        self.out.write_all(&payload)?;
        self.entries.push(ChunkEntry {
            offset: self.offset,
            rows: cast::usize_to_u64(self.pending.len()),
            bytes: cast::usize_to_u64(payload.len()),
            fnv: h.finish(),
        });
        self.offset += cast::usize_to_u64(payload.len());
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final (possibly short) chunk, writes the directory
    /// and footer, syncs, renames `<path>.tmp` over `path` and reopens
    /// the finished cache.
    ///
    /// # Errors
    /// [`RockError::Io`] on write/rename failure; any
    /// [`RockError::CacheInvalid`] from the verification re-open.
    pub fn finish(mut self) -> Result<DatasetCache> {
        self.flush_chunk()?;
        let directory_offset = self.offset;
        let mut tail = Vec::new();
        for e in &self.entries {
            tail.extend_from_slice(&e.offset.to_le_bytes());
            tail.extend_from_slice(&e.rows.to_le_bytes());
            tail.extend_from_slice(&e.bytes.to_le_bytes());
            tail.extend_from_slice(&e.fnv.to_le_bytes());
        }
        tail.extend_from_slice(&self.rows.to_le_bytes());
        tail.extend_from_slice(&cast::usize_to_u64(self.entries.len()).to_le_bytes());
        tail.extend_from_slice(&directory_offset.to_le_bytes());
        let mut h = Fnv1a64::new();
        h.update(&tail);
        tail.extend_from_slice(&h.finish().to_le_bytes());
        self.out.write_all(&tail)?;
        self.out.sync()?;
        self.out.commit()?;
        DatasetCache::open(&self.path)
    }
}

/// Builds a cache at `path` from an iterator of transactions.
///
/// # Errors
/// As [`CacheBuilder::push`] and [`CacheBuilder::finish`].
pub fn build_cache<'a, I: IntoIterator<Item = &'a Transaction>>(
    path: &Path,
    universe: usize,
    chunk_rows: usize,
    rows: I,
) -> Result<DatasetCache> {
    let mut b = CacheBuilder::create(path, universe, chunk_rows)?;
    for t in rows {
        b.push(t)?;
    }
    b.finish()
}

/// An open, verified `rock-cache/v1` file, serving chunks by seek. The
/// shape and directory are validated at [`open`](DatasetCache::open);
/// payloads are verified per [`read_chunk`](ChunkSource::read_chunk).
#[derive(Debug)]
pub struct DatasetCache {
    path: PathBuf,
    universe: u64,
    chunk_rows: u64,
    rows: u64,
    entries: Vec<ChunkEntry>,
    cache_id: u64,
    // Interior mutability: ChunkSource reads take `&self`, but the
    // injector's RNG advances per sampled fault.
    injector: Mutex<Option<FaultInjector>>,
}

impl DatasetCache {
    /// Opens and validates a cache file: magic, footer checksum,
    /// directory shape, per-chunk accounting.
    ///
    /// # Errors
    /// [`RockError::Io`] when the file cannot be read,
    /// [`RockError::CacheInvalid`] when it can be read but not trusted.
    pub fn open(path: &Path) -> Result<Self> {
        let io = RockError::io(path);
        let mut f = std::fs::File::open(path).map_err(&io)?;
        let file_len = f.metadata().map_err(&io)?.len();
        let head_len = cast::usize_to_u64(MAGIC.len()) + 16;
        if file_len < head_len + 32 {
            return Err(invalid(format!("file too short ({file_len} bytes)")));
        }
        let mut head = [0u8; 30];
        f.read_exact(&mut head).map_err(&io)?;
        if &head[..MAGIC.len()] != MAGIC {
            return Err(invalid("bad magic: not a rock-cache/v1 file".to_owned()));
        }
        let universe = le_u64(&head[14..22]);
        let chunk_rows = le_u64(&head[22..30]);
        if chunk_rows == 0 {
            return Err(invalid("chunk_rows is zero".to_owned()));
        }

        // Footer: rows, num_chunks, directory_offset, footer_fnv.
        f.seek(SeekFrom::End(-32)).map_err(&io)?;
        let mut foot = [0u8; 32];
        f.read_exact(&mut foot).map_err(&io)?;
        let rows = le_u64(&foot[0..8]);
        let num_chunks = le_u64(&foot[8..16]);
        let directory_offset = le_u64(&foot[16..24]);
        let footer_fnv = le_u64(&foot[24..32]);
        let dir_bytes = num_chunks
            .checked_mul(32)
            .ok_or_else(|| invalid(format!("absurd chunk count {num_chunks}")))?;
        let expected_dir_offset = file_len
            .checked_sub(32 + dir_bytes)
            .ok_or_else(|| invalid("directory larger than file".to_owned()))?;
        if directory_offset != expected_dir_offset || directory_offset < head_len {
            return Err(invalid(format!(
                "directory offset {directory_offset} inconsistent with file length {file_len}"
            )));
        }
        f.seek(SeekFrom::Start(directory_offset)).map_err(&io)?;
        let mut tail = vec![0u8; cast::u64_to_usize(dir_bytes)];
        f.read_exact(&mut tail).map_err(&io)?;
        let mut h = Fnv1a64::new();
        h.update(&tail);
        h.update(&foot[0..24]);
        if h.finish() != footer_fnv {
            return Err(invalid(
                "footer checksum mismatch (truncated or corrupt)".to_owned(),
            ));
        }

        let mut entries = Vec::with_capacity(cast::u64_to_usize(num_chunks));
        let mut expect_offset = head_len;
        let mut total_rows = 0u64;
        for (i, rec) in tail.chunks_exact(32).enumerate() {
            let e = ChunkEntry {
                offset: le_u64(&rec[0..8]),
                rows: le_u64(&rec[8..16]),
                bytes: le_u64(&rec[16..24]),
                fnv: le_u64(&rec[24..32]),
            };
            if e.offset != expect_offset {
                return Err(invalid(format!(
                    "chunk {i} offset {} should be {expect_offset}",
                    e.offset
                )));
            }
            if e.rows == 0 || e.rows > chunk_rows {
                return Err(invalid(format!("chunk {i} has {} rows", e.rows)));
            }
            expect_offset += e.bytes;
            total_rows += e.rows;
            entries.push(e);
        }
        if expect_offset != directory_offset {
            return Err(invalid(
                "chunk payloads do not abut the directory".to_owned(),
            ));
        }
        if total_rows != rows {
            return Err(invalid(format!(
                "directory rows {total_rows} disagree with footer rows {rows}"
            )));
        }

        // Content identity: shape + every payload checksum.
        let mut id = Fnv1a64::new();
        id.update(&universe.to_le_bytes());
        id.update(&chunk_rows.to_le_bytes());
        id.update(&rows.to_le_bytes());
        id.update(&num_chunks.to_le_bytes());
        for e in &entries {
            id.update(&e.fnv.to_le_bytes());
        }

        Ok(DatasetCache {
            path: path.to_path_buf(),
            universe,
            chunk_rows,
            rows,
            entries,
            cache_id: id.finish(),
            injector: Mutex::new(None),
        })
    }

    /// Attaches a seeded fault injector: every chunk read first samples
    /// its read-failure gate, surfacing injected [`RockError::Io`]
    /// faults through the same path as real ones.
    pub fn with_fault_injector(self, injector: FaultInjector) -> Self {
        if let Ok(mut slot) = self.injector.lock() {
            *slot = Some(injector);
        }
        self
    }

    /// The item-id universe the cache was declared with.
    pub fn universe(&self) -> usize {
        cast::u64_to_usize(self.universe)
    }

    /// Rows per full chunk.
    pub fn chunk_rows(&self) -> u64 {
        self.chunk_rows
    }

    /// The content identity recorded by checkpoints.
    pub fn cache_id(&self) -> u64 {
        self.cache_id
    }

    /// The file backing this cache.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl ChunkSource for DatasetCache {
    fn total_chunks(&self) -> u64 {
        cast::usize_to_u64(self.entries.len())
    }

    fn total_rows(&self) -> u64 {
        self.rows
    }

    fn identity(&self) -> u64 {
        self.cache_id
    }

    fn read_chunk(&self, index: u64) -> Result<Vec<Transaction>> {
        let Some(entry) = self.entries.get(cast::u64_to_usize(index)) else {
            return Err(invalid(format!(
                "chunk {index} out of range ({} chunks)",
                self.entries.len()
            )));
        };
        if let Ok(mut slot) = self.injector.lock() {
            if let Some(inj) = slot.as_mut() {
                inj.fail_io(&self.path)?;
            }
        }
        let io = RockError::io(&self.path);
        let mut f = std::fs::File::open(&self.path).map_err(&io)?;
        f.seek(SeekFrom::Start(entry.offset)).map_err(&io)?;
        let mut payload = vec![0u8; cast::u64_to_usize(entry.bytes)];
        f.read_exact(&mut payload).map_err(&io)?;
        let mut h = Fnv1a64::new();
        h.update(&payload);
        if h.finish() != entry.fnv {
            return Err(invalid(format!("chunk {index} checksum mismatch")));
        }
        decode_chunk(&payload, entry.rows, self.universe)
            .map_err(|m| invalid(format!("chunk {index}: {m}")))
    }
}

/// Decodes one verified payload into transactions. Defensive: the
/// checksum already matched, but the encoder could have been buggy, so
/// framing errors report instead of panicking.
fn decode_chunk(
    payload: &[u8],
    rows: u64,
    universe: u64,
) -> std::result::Result<Vec<Transaction>, String> {
    let mut out = Vec::with_capacity(cast::u64_to_usize(rows));
    let mut at = 0usize;
    for r in 0..rows {
        let Some(head) = payload.get(at..at + 4) else {
            return Err(format!("row {r} header past payload end"));
        };
        let count = cast::u32_to_usize(u32::from_le_bytes([head[0], head[1], head[2], head[3]]));
        at += 4;
        let Some(body) = payload.get(at..at + count * 4) else {
            return Err(format!("row {r} items past payload end"));
        };
        let mut items = Vec::with_capacity(count);
        for quad in body.chunks_exact(4) {
            let item = u32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]);
            if u64::from(item) >= universe {
                return Err(format!("row {r} item {item} outside universe {universe}"));
            }
            if items.last().is_some_and(|&prev| prev >= item) {
                return Err(format!("row {r} items not strictly increasing"));
            }
            items.push(item);
        }
        at += count * 4;
        out.push(Transaction::from_sorted(items));
    }
    if at != payload.len() {
        return Err(format!("{} trailing payload bytes", payload.len() - at));
    }
    Ok(out)
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: u32) -> Vec<Transaction> {
        (0..n)
            .map(|i| match i % 3 {
                0 => Transaction::new([0, 1, 2]),
                1 => Transaction::new([3, 4]),
                _ => Transaction::new([5]),
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rock-cache-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn build_open_read_round_trips() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("d.rockcache");
        let data = rows(25);
        let cache = build_cache(&path, 6, 10, &data).unwrap();
        assert_eq!(cache.total_chunks(), 3);
        assert_eq!(cache.total_rows(), 25);
        assert_eq!(cache.universe(), 6);
        assert_eq!(cache.chunk_rows(), 10);
        let mut seen = Vec::new();
        for i in 0..cache.total_chunks() {
            seen.extend(cache.read_chunk(i).unwrap());
        }
        assert_eq!(seen, data);
        // Reopen: identical identity, no temp file left behind.
        let again = DatasetCache::open(&path).unwrap();
        assert_eq!(again.cache_id(), cache.cache_id());
        assert!(!rock_core::file::sibling(&path, ".tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_build_whose_rename_fails_leaves_no_temp_file() {
        let dir = temp_dir("failed-rename");
        // A non-empty directory at the target path: the rename fails.
        let path = dir.join("d.rockcache");
        std::fs::create_dir_all(path.join("inside")).unwrap();
        let err = build_cache(&path, 6, 10, &rows(25)).unwrap_err();
        assert!(matches!(err, RockError::Io { .. }), "{err}");
        assert!(!rock_core::file::sibling(&path, ".tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identity_is_content_sensitive() {
        let dir = temp_dir("identity");
        let a = build_cache(&dir.join("a.rockcache"), 6, 10, &rows(25)).unwrap();
        let b = build_cache(&dir.join("b.rockcache"), 6, 10, &rows(26)).unwrap();
        let c = build_cache(&dir.join("c.rockcache"), 6, 7, &rows(25)).unwrap();
        assert_ne!(a.cache_id(), b.cache_id(), "different rows");
        assert_ne!(a.cache_id(), c.cache_id(), "different chunking");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_corruption_is_detected_on_read() {
        let dir = temp_dir("corrupt");
        let path = dir.join("d.rockcache");
        let cache = build_cache(&path, 6, 10, &rows(25)).unwrap();
        let entry1_offset = cast::u64_to_usize(cache.entries[1].offset);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[entry1_offset + 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let reopened = DatasetCache::open(&path).unwrap();
        assert!(
            reopened.read_chunk(0).is_ok(),
            "untouched chunk still reads"
        );
        let err = reopened.read_chunk(1).unwrap_err();
        assert!(matches!(err, RockError::CacheInvalid { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_and_garbage_fail_closed_at_open() {
        let dir = temp_dir("truncate");
        let path = dir.join("d.rockcache");
        build_cache(&path, 6, 10, &rows(25)).unwrap();
        let full = std::fs::read(&path).unwrap();
        for keep in [0, 5, MAGIC.len(), 40, full.len() - 9, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let err = DatasetCache::open(&path).unwrap_err();
            assert!(
                matches!(err, RockError::CacheInvalid { .. } | RockError::Io { .. }),
                "keep={keep}: {err}"
            );
        }
        std::fs::write(
            &path,
            b"not a cache at all, but long enough to have a footer read",
        )
        .unwrap();
        assert!(matches!(
            DatasetCache::open(&path).unwrap_err(),
            RockError::CacheInvalid { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_rejects_items_outside_universe() {
        let dir = temp_dir("universe");
        let path = dir.join("d.rockcache");
        let mut b = CacheBuilder::create(&path, 3, 10).unwrap();
        let err = b.push(&Transaction::new([0, 7])).unwrap_err();
        assert!(matches!(err, RockError::ItemOutOfRange { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dataset_builds_an_empty_cache() {
        let dir = temp_dir("empty");
        let path = dir.join("d.rockcache");
        let cache = build_cache(&path, 4, 10, &[]).unwrap();
        assert_eq!(cache.total_chunks(), 0);
        assert_eq!(cache.total_rows(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_read_faults_surface_as_io() {
        let dir = temp_dir("faults");
        let path = dir.join("d.rockcache");
        let cache = build_cache(&path, 6, 10, &rows(25))
            .unwrap()
            .with_fault_injector(FaultInjector::new(3).io_failure_rate(1.0));
        let err = cache.read_chunk(0).unwrap_err();
        assert!(matches!(err, RockError::Io { .. }));
        assert!(err.to_string().contains("injected"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streams_through_the_labeler_end_to_end() {
        use rock_core::goodness::{LinkExponent, MarketBasket};
        use rock_core::labeling::Representatives;
        use rock_core::prelude::*;
        use rock_core::snapshot::{OutlierPolicy, SimilarityKind};
        use rock_core::stream::{StreamLabeler, StreamOutcome};

        let dir = temp_dir("e2e");
        let path = dir.join("d.rockcache");
        let data = rows(40);
        let cache = build_cache(&path, 6, 8, &data).unwrap();
        let snap = ModelSnapshot::new(
            0.4,
            MarketBasket.f(0.4),
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            6,
            None,
            Representatives::from_sets(vec![
                vec![Transaction::new([0, 1, 2])],
                vec![Transaction::new([3, 4])],
            ]),
        )
        .unwrap();
        let out = dir.join("d.rockassign");
        let ckpt = dir.join("d.rockckpt");
        let outcome = StreamLabeler::new(&snap)
            .run(&cache, &out, &ckpt, &Guard::unlimited(), &Observer::new())
            .unwrap();
        let StreamOutcome::Complete(stats) = outcome else {
            panic!("expected completion, got {outcome:?}");
        };
        assert_eq!(stats.rows, 40);
        assert_eq!(stats.chunks_done, 5);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("rock-assignments v1\nn=40 "));
        std::fs::remove_dir_all(&dir).ok();
    }
}
