//! The append-log cache store.
//!
//! On disk a cache is one file, `<dir>/cache.log`: a magic header
//! followed by self-describing records
//! `(key: u128, version: u32, payload_len: u64, payload, fnv64(payload))`.
//! Appending is the only write pattern a mining run needs, so the
//! format never rewrites in place; [`CacheStore::vacuum`] produces a
//! compacted file when asked.
//!
//! The log is the store. In memory a [`CacheStore`] keeps only an
//! index, `key → (version, offset, length)` for every flushed record,
//! plus the payloads recorded since the last flush. A hit reads its
//! payload back with one positional read on the store's long-lived log
//! handle, and flush appends through that same handle. Every payload
//! checksum is verified once, by the scan at open, which streams the
//! log through a fixed buffer. A read afterwards checks the record
//! header (key, version, length) against the index instead of
//! re-hashing the payload: a mismatch or a short read — the file
//! changed under the store — is a [`Lookup::Miss`], never a wrong
//! payload.
//!
//! One writer at a time: an open store holds an exclusive lock on its
//! log handle, and a second open of the same directory fails fast with
//! [`StoreError::Locked`]. Without it, the later of two writers'
//! flushes would truncate the other's appended records. [`verify`] and
//! [`stats`] read without the lock, so a cache a running writer holds
//! can still be inspected.
//!
//! Crash safety is by construction: a flush that dies mid-record
//! leaves a truncated tail that fails its length or checksum check, so
//! the next [`CacheStore::open`] indexes every record up to the tail
//! and ignores the rest; the next [`CacheStore::flush`] truncates the
//! garbage before appending. Corruption in the *middle* of the log —
//! a checksum-failed record with valid records after it, i.e. bitrot
//! rather than a crash — is a different animal: truncating there would
//! destroy good data, so the strict open refuses with
//! [`StoreError::CorruptRecord`] and the tolerant
//! [`CacheStore::open_tolerant`] + [`CacheStore::vacuum`] path is how
//! such a log is inspected and repaired. Entries are immutable once
//! written — a duplicate key appended later supersedes the earlier
//! record at load time (last write wins), which vacuum then compacts
//! away.

use crate::fingerprint::Fingerprint;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs::{File, TryLockError};
use std::io::{self, BufRead as _, BufReader, BufWriter, Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes opening every cache log (format, not analysis, version;
/// bump only on layout change).
const MAGIC: &[u8] = b"DIFFCACHE1\n";

/// The log file name inside a cache directory.
const LOG_NAME: &str = "cache.log";

/// Bytes of a record before its payload: key, version, payload length.
const HEADER_LEN: usize = 16 + 4 + 8;

/// Bytes of a record after its payload: the checksum.
const TRAILER_LEN: usize = 8;

/// The read buffer the open-time scan streams the log through.
const SCAN_BUF: usize = 64 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64 hash state.
fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 of `bytes` — the per-record payload checksum.
fn checksum(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, bytes)
}

/// Why a cache store could not be opened.
///
/// Distinguishes plain filesystem failures from *mid-log corruption*:
/// a record whose framing is intact but whose payload fails its
/// checksum, with valid records after it. Tail damage (a crash
/// mid-append) is not an error — it is truncated away on the next
/// flush — but a bad record in the middle means real data loss is on
/// the table, so the strict [`CacheStore::open`] refuses rather than
/// silently dropping the valid records that follow it.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure creating the directory or reading the log.
    Io(io::Error),
    /// A record in the middle of the log failed its checksum while
    /// later records are still valid.
    CorruptRecord {
        /// Byte offset of the corrupt record within the log file.
        offset: u64,
        /// Valid records indexed before the corrupt one.
        valid_before: usize,
        /// Valid records found after it — the data a naive
        /// truncate-at-first-error load would have dropped.
        valid_after: usize,
    },
    /// Another open store — in this process or another — holds the
    /// log's writer lock.
    Locked {
        /// The locked log file.
        log: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "cache I/O error: {err}"),
            StoreError::CorruptRecord {
                offset,
                valid_before,
                valid_after,
            } => write!(
                f,
                "cache log record at byte {offset} failed its checksum with \
                 {valid_after} valid record(s) after it ({valid_before} before); \
                 refusing to drop them silently — run `cache verify` to inspect \
                 the damage and `cache vacuum` to rebuild a clean log"
            ),
            StoreError::Locked { log } => write!(
                f,
                "cache log {} is locked by another writer; a cache directory \
                 takes one writer at a time (`cache stats` and `cache verify` \
                 can still read it)",
                log.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::CorruptRecord { .. } | StoreError::Locked { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// Where one flushed record sits in the log.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The analysis version it was written under.
    version: u32,
    /// Byte offset of the record's first (key) byte.
    offset: u64,
    /// Payload length in bytes.
    len: u64,
}

/// The result of a cache lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup<'a> {
    /// The key is present at the store's analysis version: its payload,
    /// borrowed when the entry is not flushed yet, read back from the
    /// log when it is.
    Hit(Cow<'a, [u8]>),
    /// The key is present but was written under a different analysis
    /// version — the cached outcome may no longer be what the pipeline
    /// would compute, so it must be recomputed.
    StaleVersion,
    /// The key is absent (or its record no longer reads back intact).
    Miss,
}

/// Write log for one mining shard: an ordered append buffer plus its
/// own lookup index, so a shard sees its *own* writes (duplicate file
/// pairs within a shard hit on the second encounter) without any
/// shared mutable state. Dropped without being absorbed — e.g. when
/// the shard's worker thread dies — its entries simply never reach the
/// store, which is exactly what the accounting wants: a dead shard's
/// changes were folded in as skips, so caching their half-finished
/// outcomes would let a later warm run disagree with the cold one.
#[derive(Debug, Default)]
pub struct ShardLog {
    order: Vec<Fingerprint>,
    entries: HashMap<u128, Vec<u8>>,
}

impl ShardLog {
    /// An empty log.
    pub fn new() -> Self {
        ShardLog::default()
    }

    /// Records `payload` for `key` (first write wins within a shard —
    /// the pipeline only records a key it just missed on).
    pub fn record(&mut self, key: Fingerprint, payload: Vec<u8>) {
        if !self.entries.contains_key(&key.0) {
            self.order.push(key);
            self.entries.insert(key.0, payload);
        }
    }

    /// This shard's own payload for `key`, if it wrote one.
    pub fn get(&self, key: Fingerprint) -> Option<&[u8]> {
        self.entries.get(&key.0).map(Vec::as_slice)
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Aggregate facts about a store, for `diffcode cache stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Indexed entries at the store's analysis version.
    pub current_entries: usize,
    /// Indexed entries written under another analysis version.
    pub stale_entries: usize,
    /// Well-formed records in the log — those scanned at open plus
    /// those flushed since (superseded duplicates included).
    pub records_loaded: usize,
    /// Bytes of unreadable tail ignored at open.
    pub corrupt_tail_bytes: u64,
    /// Checksum-failed mid-log records skipped by a tolerant open
    /// (always zero for a store opened strictly).
    pub corrupt_records: usize,
    /// Size of the log file in bytes (as of open plus flushed writes).
    pub file_bytes: u64,
    /// Entries recorded but not yet flushed.
    pub pending_entries: usize,
}

/// What [`CacheStore::vacuum`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VacuumReport {
    /// Entries kept (current version, one record per key).
    pub kept: usize,
    /// Indexed entries dropped for carrying a stale version.
    pub dropped_stale: usize,
    /// On-disk records dropped as superseded duplicates or corrupt.
    pub dropped_records: usize,
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction.
    pub bytes_after: u64,
}

/// What [`verify`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Well-formed records (checksum passed).
    pub valid_records: usize,
    /// Records whose payload failed its checksum.
    pub checksum_failures: usize,
    /// Bytes of unreadable tail after the last well-framed record.
    pub corrupt_tail_bytes: u64,
    /// Distinct keys among valid records.
    pub distinct_keys: usize,
    /// Record count per analysis version, ascending.
    pub versions: BTreeMap<u32, usize>,
}

impl VerifyReport {
    /// `true` when the log has no integrity problems.
    pub fn is_clean(&self) -> bool {
        self.checksum_failures == 0 && self.corrupt_tail_bytes == 0
    }
}

/// The on-disk half of a store: what the open-time scan indexed, kept
/// current by flush and vacuum.
#[derive(Debug, Default)]
struct LogIndex {
    /// Flushed records by key (last write wins).
    slots: HashMap<u128, Slot>,
    /// Byte length of the well-formed prefix of the log file; flush
    /// appends here.
    valid_len: u64,
    records_loaded: usize,
    corrupt_tail_bytes: u64,
    corrupt_records: usize,
}

impl LogIndex {
    /// Scans `file` front to back, verifying every payload checksum,
    /// and indexes the valid records. Returns the index plus the
    /// [`StoreError::CorruptRecord`] a strict open raises when a
    /// checksum-failed record has valid records after it (the index
    /// then skips it, as a tolerant open does).
    fn scan(file: &File) -> io::Result<(LogIndex, Option<StoreError>)> {
        let end = file.metadata()?.len();
        let mut index = LogIndex::default();
        let Some(mut log) = RecordReader::new(file, end)? else {
            // Foreign or empty file: treat everything as corrupt tail
            // so flush rewrites from scratch.
            index.corrupt_tail_bytes = end;
            return Ok((index, None));
        };
        let mut consumed = MAGIC.len() as u64;
        // A checksum-failed record whose *framing* parsed is only a
        // benign "corrupt tail" if nothing valid follows it. Track how
        // many such records a later valid record turns into mid-log
        // corruption (`skipped`), versus ones still waiting at the end
        // of the scan (`pending` — absorbed into the corrupt tail).
        let mut first_corrupt: Option<(u64, usize)> = None; // (offset, valid records before it)
        let mut valid_seen = 0usize;
        let mut pending_corrupt = 0usize;
        let mut skipped_corrupt = 0usize;
        while let Some(record) = log.next_record()? {
            if record.intact {
                consumed = log.pos;
                index.records_loaded += 1;
                valid_seen += 1;
                skipped_corrupt += pending_corrupt;
                pending_corrupt = 0;
                index.slots.insert(
                    record.key,
                    Slot {
                        version: record.version,
                        offset: record.offset,
                        len: record.len,
                    },
                );
            } else {
                // Framing intact, payload untrustworthy. Keep scanning:
                // whether this is tail damage or mid-log corruption
                // depends on what comes after.
                if first_corrupt.is_none() {
                    first_corrupt = Some((record.offset, valid_seen));
                }
                pending_corrupt += 1;
            }
        }
        let mut strict_error = None;
        if skipped_corrupt > 0 {
            if let Some((offset, valid_before)) = first_corrupt {
                strict_error = Some(StoreError::CorruptRecord {
                    offset,
                    valid_before,
                    valid_after: valid_seen - valid_before,
                });
            }
            index.corrupt_records = skipped_corrupt;
        }
        index.valid_len = consumed;
        index.corrupt_tail_bytes = end - consumed;
        Ok((index, strict_error))
    }

    /// Indexed entries at `version`.
    fn current(&self, version: u32) -> usize {
        self.slots.values().filter(|s| s.version == version).count()
    }

    fn stats(&self, version: u32, pending_entries: usize) -> CacheStats {
        let flushed_current = self.current(version);
        CacheStats {
            current_entries: flushed_current + pending_entries,
            stale_entries: self.slots.len() - flushed_current,
            records_loaded: self.records_loaded,
            corrupt_tail_bytes: self.corrupt_tail_bytes,
            corrupt_records: self.corrupt_records,
            file_bytes: self.valid_len + self.corrupt_tail_bytes,
            pending_entries,
        }
    }
}

/// A persistent content-addressed store bound to one analysis version.
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    version: u32,
    /// The log, open for reading and writing and exclusively locked for
    /// as long as the store lives.
    log: File,
    disk: LogIndex,
    /// Entries recorded since the last flush, in recording order — the
    /// only payload bytes the store holds in memory. A key is either
    /// here or in `disk.slots`, never both.
    pending: Vec<(Fingerprint, Vec<u8>)>,
    /// Position of each pending key in `pending`.
    pending_at: HashMap<u128, usize>,
    /// Bytes past `disk.valid_len` may be on disk (a torn tail found at
    /// open, or a failed append): the next flush truncates first.
    truncate_first: bool,
}

impl CacheStore {
    /// Opens (creating if needed) the cache under `dir` for writing,
    /// taking its writer lock and indexing every well-formed record of
    /// its log. `version` is the caller's current analysis version:
    /// entries written under any other version will report
    /// [`Lookup::StaleVersion`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] while another open store holds the log;
    /// [`StoreError::Io`] on filesystem failures creating the directory
    /// or reading the log. A corrupt *tail* (crash mid-append) is not
    /// an error — unreadable trailing bytes are skipped, reported via
    /// [`CacheStore::stats`], and truncated on the next flush. A
    /// checksum-failed record in the *middle* of the log, with valid
    /// records after it, fails with [`StoreError::CorruptRecord`]
    /// instead of silently dropping those later records; use
    /// [`CacheStore::open_tolerant`] (and then
    /// [`CacheStore::vacuum`]) to inspect and repair such a log.
    pub fn open(dir: &Path, version: u32) -> Result<CacheStore, StoreError> {
        CacheStore::open_inner(dir, version, false)
    }

    /// Opens the cache under `dir` like [`CacheStore::open`], but skips
    /// checksum-failed mid-log records (counting them in
    /// [`CacheStats::corrupt_records`]) instead of failing. This is the
    /// repair path: vacuum's rewrite is how the damage is healed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] and [`StoreError::Io`] only.
    pub fn open_tolerant(dir: &Path, version: u32) -> Result<CacheStore, StoreError> {
        CacheStore::open_inner(dir, version, true)
    }

    fn open_inner(dir: &Path, version: u32, tolerant: bool) -> Result<CacheStore, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOG_NAME);
        let log = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if !lock(&log)? {
            return Err(StoreError::Locked { log: path });
        }
        let (disk, strict_error) = LogIndex::scan(&log)?;
        if let (false, Some(err)) = (tolerant, strict_error) {
            return Err(err);
        }
        Ok(CacheStore {
            dir: dir.to_owned(),
            version,
            log,
            truncate_first: disk.corrupt_tail_bytes > 0,
            disk,
            pending: Vec::new(),
            pending_at: HashMap::new(),
        })
    }

    /// The path of the backing log file.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_NAME)
    }

    /// The analysis version lookups are checked against.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Looks up `key`. A flushed entry is read back from the log; a
    /// record whose header no longer matches the index, or that reads
    /// short, is a [`Lookup::Miss`].
    pub fn get(&self, key: Fingerprint) -> Lookup<'_> {
        if let Some(&at) = self.pending_at.get(&key.0) {
            return Lookup::Hit(Cow::Borrowed(&self.pending[at].1));
        }
        match self.disk.slots.get(&key.0) {
            Some(slot) if slot.version == self.version => {
                match self.read_payload(key, *slot, false) {
                    Some(payload) => Lookup::Hit(Cow::Owned(payload)),
                    None => Lookup::Miss,
                }
            }
            Some(_) => Lookup::StaleVersion,
            None => Lookup::Miss,
        }
    }

    /// Reads the payload of the record at `slot` back, if its header
    /// still says what the index expects there. With `verify` the
    /// payload must also match its checksum — vacuum's copy check.
    fn read_payload(&self, key: Fingerprint, slot: Slot, verify: bool) -> Option<Vec<u8>> {
        let len = usize::try_from(slot.len).ok()?;
        let trailer = if verify { TRAILER_LEN } else { 0 };
        let mut record = vec![0u8; HEADER_LEN.checked_add(len)?.checked_add(trailer)?];
        read_at(&self.log, &mut record, slot.offset).ok()?;
        if record[..HEADER_LEN] != header(key, slot.version, slot.len) {
            return None;
        }
        if verify {
            let (payload, stored) = record[HEADER_LEN..].split_at(len);
            if stored != checksum(payload).to_le_bytes() {
                return None;
            }
            record.truncate(HEADER_LEN + len);
        }
        record.drain(..HEADER_LEN);
        Some(record)
    }

    /// Records `payload` for `key` at the store's version. Visible to
    /// [`CacheStore::get`] immediately; durable after
    /// [`CacheStore::flush`].
    pub fn insert(&mut self, key: Fingerprint, payload: Vec<u8>) {
        // The pending entry supersedes whatever the log holds for the
        // key (last write wins): the index forgets the old record until
        // flush indexes the new one.
        self.disk.slots.remove(&key.0);
        match self.pending_at.get(&key.0) {
            Some(&at) => self.pending[at].1 = payload,
            None => {
                self.pending_at.insert(key.0, self.pending.len());
                self.pending.push((key, payload));
            }
        }
    }

    /// Merges a shard's write log into the store (in the shard's append
    /// order, so flushed files are deterministic for a deterministic
    /// mining order).
    pub fn absorb(&mut self, log: ShardLog) {
        let ShardLog { order, mut entries } = log;
        for key in order {
            if let Some(payload) = entries.remove(&key.0) {
                // Skip keys the store already holds at this version
                // (e.g. a previously-absorbed shard wrote them):
                // identical content produces identical payloads, so
                // first-wins and last-wins agree; not re-appending just
                // keeps the log smaller.
                let current = self.pending_at.contains_key(&key.0)
                    || self
                        .disk
                        .slots
                        .get(&key.0)
                        .is_some_and(|s| s.version == self.version);
                if !current {
                    self.insert(key, payload);
                }
            }
        }
    }

    /// Appends every pending entry to the log file. Returns the number
    /// of records written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; pending entries stay queued on error,
    /// and the next flush truncates whatever part of them reached the
    /// file before appending again.
    pub fn flush(&mut self) -> io::Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let start = self.disk.valid_len;
        if let Err(err) = self.append(start) {
            self.truncate_first = true;
            return Err(err);
        }
        self.truncate_first = false;
        let flushed = self.pending.len();
        // A log without a valid record starts over with the magic.
        let mut offset = start.max(MAGIC.len() as u64);
        for (key, payload) in std::mem::take(&mut self.pending) {
            let len = payload.len() as u64;
            self.disk.slots.insert(
                key.0,
                Slot {
                    version: self.version,
                    offset,
                    len,
                },
            );
            offset += record_len(len);
        }
        self.pending_at = HashMap::new();
        self.disk.valid_len = offset;
        self.disk.corrupt_tail_bytes = 0;
        // Keep the on-disk record count honest: vacuum and stats derive
        // the superseded-duplicate count from it.
        self.disk.records_loaded += flushed;
        Ok(flushed)
    }

    /// Writes the pending records at byte `start`, after the magic when
    /// the log holds no valid record yet.
    fn append(&self, start: u64) -> io::Result<()> {
        if self.truncate_first {
            // Drop the torn tail (or foreign content) before appending.
            self.log.set_len(start)?;
        }
        (&self.log).seek(io::SeekFrom::Start(start))?;
        let mut out = BufWriter::new(&self.log);
        if start == 0 {
            out.write_all(MAGIC)?;
        }
        for (key, payload) in &self.pending {
            write_record(&mut out, *key, self.version, payload)?;
        }
        out.flush()
    }

    /// Number of indexed entries at the current version.
    pub fn len(&self) -> usize {
        self.disk.current(self.version) + self.pending.len()
    }

    /// `true` when no entry is indexed at the current version.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate store facts.
    pub fn stats(&self) -> CacheStats {
        self.disk.stats(self.version, self.pending.len())
    }

    /// Rewrites the log to exactly one record per current-version key
    /// (sorted by key, so vacuumed files are canonical), dropping stale
    /// versions, superseded duplicates, and any corrupt tail. Each kept
    /// payload is checked against its checksum again on the way through.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the original file is left in
    /// place (the rewrite goes through a temp file + rename).
    pub fn vacuum(&mut self) -> io::Result<VacuumReport> {
        self.flush()?;
        let bytes_before = self.disk.valid_len + self.disk.corrupt_tail_bytes;
        let mut live: Vec<(u128, Slot)> = self
            .disk
            .slots
            .iter()
            .filter(|(_, s)| s.version == self.version)
            .map(|(k, s)| (*k, *s))
            .collect();
        live.sort_unstable_by_key(|(k, _)| *k);
        let dropped_stale = self.disk.slots.len() - live.len();

        let tmp_path = self.dir.join(format!("{LOG_NAME}.tmp"));
        let tmp = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        // Lock the new log before the rename makes it visible under the
        // log's name, so no other writer can open it in between.
        if !lock(&tmp)? {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("{} is locked by another vacuum", tmp_path.display()),
            ));
        }
        let mut slots = HashMap::with_capacity(live.len());
        let mut end = MAGIC.len() as u64;
        {
            let mut out = BufWriter::new(&tmp);
            out.write_all(MAGIC)?;
            for (key, slot) in live {
                let key = Fingerprint(key);
                let Some(payload) = self.read_payload(key, slot, true) else {
                    continue;
                };
                write_record(&mut out, key, slot.version, &payload)?;
                slots.insert(
                    key.0,
                    Slot {
                        offset: end,
                        ..slot
                    },
                );
                end += record_len(slot.len);
            }
            out.flush()?;
        }
        std::fs::rename(&tmp_path, self.log_path())?;

        // Skipped corrupt records count as dropped: the rewrite is what
        // finally removes their bytes from the log.
        let kept = slots.len();
        let dropped_records =
            (self.disk.records_loaded + self.disk.corrupt_records).saturating_sub(kept);
        self.log = tmp;
        self.disk = LogIndex {
            slots,
            valid_len: end,
            records_loaded: kept,
            corrupt_tail_bytes: 0,
            corrupt_records: 0,
        };
        self.truncate_first = false;
        Ok(VacuumReport {
            kept,
            dropped_stale,
            dropped_records,
            bytes_before,
            bytes_after: end,
        })
    }
}

/// Takes `file`'s exclusive lock without waiting: `false` when another
/// handle holds it. A platform or filesystem without file locks leaves
/// the log unlocked rather than the cache unusable.
fn lock(file: &File) -> io::Result<bool> {
    match file.try_lock() {
        Ok(()) => Ok(true),
        Err(TryLockError::WouldBlock) => Ok(false),
        Err(TryLockError::Error(err)) if err.kind() == io::ErrorKind::Unsupported => Ok(true),
        Err(TryLockError::Error(err)) => Err(err),
    }
}

/// Fills `buf` from `file` at byte `offset`, without moving the
/// handle's cursor — so readers share one handle with no lock.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt as _;
    while !buf.is_empty() {
        match file.seek_read(buf, offset)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

#[cfg(not(any(unix, windows)))]
fn read_at(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

/// The log under `dir`, opened for reading; `None` when there is none.
fn open_existing(dir: &Path) -> io::Result<Option<File>> {
    match File::open(dir.join(LOG_NAME)) {
        Ok(file) => Ok(Some(file)),
        Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(err) => Err(err),
    }
}

/// Scans the log under `dir` without building an index: record
/// well-formedness, payload checksums, per-version counts. Reads
/// without the writer lock, so it works on a cache a running writer
/// holds (a record appended mid-scan may show as corrupt tail).
///
/// # Errors
///
/// I/O failures only; an absent log verifies as an empty clean report.
pub fn verify(dir: &Path) -> io::Result<VerifyReport> {
    let mut report = VerifyReport::default();
    let Some(file) = open_existing(dir)? else {
        return Ok(report);
    };
    let end = file.metadata()?.len();
    let Some(mut log) = RecordReader::new(&file, end)? else {
        report.corrupt_tail_bytes = end;
        return Ok(report);
    };
    let mut keys = HashSet::new();
    while let Some(record) = log.next_record()? {
        if record.intact {
            report.valid_records += 1;
            keys.insert(record.key);
            *report.versions.entry(record.version).or_insert(0) += 1;
        } else {
            report.checksum_failures += 1;
        }
    }
    report.corrupt_tail_bytes = end - log.pos;
    report.distinct_keys = keys.len();
    Ok(report)
}

/// [`CacheStore::stats`] for the log under `dir` at analysis `version`,
/// read without the writer lock — how a cache a running writer holds is
/// inspected. Tolerant like [`CacheStore::open_tolerant`]; a record
/// appended mid-scan may show as corrupt tail.
///
/// # Errors
///
/// I/O failures only; an absent log has all-zero stats.
pub fn stats(dir: &Path, version: u32) -> io::Result<CacheStats> {
    let Some(file) = open_existing(dir)? else {
        return Ok(CacheStats::default());
    };
    let (disk, _) = LogIndex::scan(&file)?;
    Ok(disk.stats(version, 0))
}

/// The header bytes a record for `(key, version, len)` starts with.
fn header(key: Fingerprint, version: u32, len: u64) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..16].copy_from_slice(&key.0.to_le_bytes());
    out[16..20].copy_from_slice(&version.to_le_bytes());
    out[20..].copy_from_slice(&len.to_le_bytes());
    out
}

/// The `N` bytes of `bytes` starting at `at`.
fn field<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[at..at + N]);
    out
}

/// On-disk size of a record with a `len`-byte payload.
fn record_len(len: u64) -> u64 {
    (HEADER_LEN + TRAILER_LEN) as u64 + len
}

/// Serializes one record into `out`.
fn write_record(
    out: &mut impl io::Write,
    key: Fingerprint,
    version: u32,
    payload: &[u8],
) -> io::Result<()> {
    out.write_all(&header(key, version, payload.len() as u64))?;
    out.write_all(payload)?;
    out.write_all(&checksum(payload).to_le_bytes())
}

/// One record met by a [`RecordReader`].
struct RawRecord {
    /// Byte offset of the record's first byte.
    offset: u64,
    key: u128,
    version: u32,
    /// Payload length.
    len: u64,
    /// The payload matched its checksum.
    intact: bool,
}

/// Walks a log front to back through a fixed buffer, checksumming each
/// payload as it streams past — memory stays at the buffer size
/// whatever the size of the log.
struct RecordReader<'f> {
    input: BufReader<&'f File>,
    /// Offset of the next unread record.
    pos: u64,
    /// File length when the scan began; nothing past it is read.
    end: u64,
}

impl<'f> RecordReader<'f> {
    /// A reader positioned after the magic; `None` when the file does
    /// not start with it (foreign or empty).
    fn new(file: &'f File, end: u64) -> io::Result<Option<RecordReader<'f>>> {
        if end < MAGIC.len() as u64 {
            return Ok(None);
        }
        (&*file).seek(io::SeekFrom::Start(0))?;
        let mut reader = RecordReader {
            input: BufReader::with_capacity(SCAN_BUF, file),
            pos: 0,
            end,
        };
        let mut magic = [0u8; MAGIC.len()];
        if !reader.fill(&mut magic)? || magic != MAGIC {
            return Ok(None);
        }
        reader.pos = MAGIC.len() as u64;
        Ok(Some(reader))
    }

    /// Reads exactly `buf.len()` bytes; `false` if the file ended first.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<bool> {
        match self.input.read_exact(buf) {
            Ok(()) => Ok(true),
            Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
            Err(err) => Err(err),
        }
    }

    /// The next record. `None` where the well-framed log ends — at
    /// `end`, or at a record too short for its own length prefix (a
    /// torn tail); `pos` is then where that tail begins.
    fn next_record(&mut self) -> io::Result<Option<RawRecord>> {
        let framing = (HEADER_LEN + TRAILER_LEN) as u64;
        let left = self.end - self.pos;
        if left < framing {
            return Ok(None);
        }
        let mut head = [0u8; HEADER_LEN];
        if !self.fill(&mut head)? {
            return Ok(None);
        }
        let key = u128::from_le_bytes(field(&head, 0));
        let version = u32::from_le_bytes(field(&head, 16));
        let len = u64::from_le_bytes(field(&head, 20));
        if len > left - framing {
            return Ok(None);
        }
        let mut hash = FNV_OFFSET;
        let mut remaining = len;
        while remaining > 0 {
            let chunk = self.input.fill_buf()?;
            if chunk.is_empty() {
                // The file shrank under the scan.
                return Ok(None);
            }
            let take = chunk
                .len()
                .min(usize::try_from(remaining).unwrap_or(usize::MAX));
            hash = fnv(hash, &chunk[..take]);
            self.input.consume(take);
            remaining -= take as u64;
        }
        let mut stored = [0u8; TRAILER_LEN];
        if !self.fill(&mut stored)? {
            return Ok(None);
        }
        let offset = self.pos;
        self.pos += framing + len;
        Ok(Some(RawRecord {
            offset,
            key,
            version,
            len,
            intact: u64::from_le_bytes(stored) == hash,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("diffcache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn hit(payload: &[u8]) -> Lookup<'_> {
        Lookup::Hit(Cow::Borrowed(payload))
    }

    #[test]
    fn insert_get_flush_reopen() {
        let dir = temp_dir("roundtrip");
        let key = fingerprint(&[b"a", b"b"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), Lookup::Miss);
        store.insert(key, vec![1, 2, 3]);
        assert_eq!(store.get(key), hit(&[1, 2, 3]));
        assert_eq!(store.flush().unwrap(), 1);
        assert_eq!(store.flush().unwrap(), 0, "nothing pending");
        assert_eq!(store.get(key), hit(&[1, 2, 3]), "read back from the log");
        drop(store);

        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), hit(&[1, 2, 3]));
        assert_eq!(store.len(), 1);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bump_invalidates_without_deleting() {
        let dir = temp_dir("version");
        let key = fingerprint(&[b"k"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(key, b"v1".to_vec());
        store.flush().unwrap();
        drop(store);

        let store = CacheStore::open(&dir, 2).unwrap();
        assert_eq!(store.get(key), Lookup::StaleVersion);
        assert_eq!(store.len(), 0);
        assert_eq!(store.stats().stale_entries, 1);
        drop(store);

        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), hit(b"v1"), "old version intact");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_ignored_and_healed_by_flush() {
        let dir = temp_dir("corrupt");
        let key = fingerprint(&[b"good"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(key, b"payload".to_vec());
        store.flush().unwrap();
        let log = store.log_path();
        drop(store);
        // Simulate a crash mid-append: garbage after the valid record.
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(&[0xAB; 13]);
        std::fs::write(&log, &bytes).unwrap();

        let mut store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), hit(b"payload"));
        assert_eq!(store.stats().corrupt_tail_bytes, 13);
        let key2 = fingerprint(&[b"second"]);
        store.insert(key2, b"two".to_vec());
        store.flush().unwrap();
        drop(store);

        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(
            store.stats().corrupt_tail_bytes,
            0,
            "flush truncated the tail"
        );
        assert_eq!(store.get(key), hit(b"payload"));
        assert_eq!(store.get(key2), hit(b"two"));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_logs_see_their_own_writes_and_absorb_in_order() {
        let dir = temp_dir("shards");
        let mut store = CacheStore::open(&dir, 1).unwrap();
        let (ka, kb) = (fingerprint(&[b"a"]), fingerprint(&[b"b"]));

        let mut log1 = ShardLog::new();
        log1.record(ka, b"A".to_vec());
        assert_eq!(log1.get(ka), Some(b"A".as_slice()), "own write visible");
        log1.record(ka, b"IGNORED".to_vec());
        assert_eq!(log1.get(ka), Some(b"A".as_slice()), "first write wins");

        let mut log2 = ShardLog::new();
        log2.record(kb, b"B".to_vec());
        log2.record(ka, b"A".to_vec()); // duplicate across shards

        store.absorb(log1);
        store.absorb(log2);
        assert_eq!(store.get(ka), hit(b"A"));
        assert_eq!(store.get(kb), hit(b"B"));
        assert_eq!(
            store.stats().pending_entries,
            2,
            "cross-shard duplicate skipped"
        );
        store.flush().unwrap();

        // A key flushed earlier is not appended again by a later shard.
        let mut log3 = ShardLog::new();
        log3.record(ka, b"A".to_vec());
        store.absorb(log3);
        assert_eq!(store.stats().pending_entries, 0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_shard_log_leaves_no_trace() {
        let dir = temp_dir("dead-shard");
        let mut store = CacheStore::open(&dir, 1).unwrap();
        let key = fingerprint(&[b"dead"]);
        {
            let mut log = ShardLog::new();
            log.record(key, b"half-finished".to_vec());
            // The worker died: the log is dropped, never absorbed.
        }
        store.flush().unwrap();
        drop(store);
        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), Lookup::Miss);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vacuum_compacts_stale_and_duplicates() {
        let dir = temp_dir("vacuum");
        let key = fingerprint(&[b"x"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(key, b"old".to_vec());
        store.flush().unwrap();
        drop(store);
        // Same key re-recorded at a newer version, plus a fresh key.
        let mut store = CacheStore::open(&dir, 2).unwrap();
        store.insert(key, b"new".to_vec());
        store.insert(fingerprint(&[b"y"]), b"why".to_vec());
        store.flush().unwrap();
        drop(store);

        let mut store = CacheStore::open(&dir, 2).unwrap();
        assert_eq!(store.stats().records_loaded, 3);
        let report = store.vacuum().unwrap();
        assert_eq!(report.kept, 2);
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(store.get(key), hit(b"new"), "served from the new log");
        drop(store);

        let store = CacheStore::open(&dir, 2).unwrap();
        assert_eq!(store.get(key), hit(b"new"));
        assert_eq!(store.stats().records_loaded, 2);
        assert_eq!(store.stats().stale_entries, 0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_integrity() {
        let dir = temp_dir("verify");
        assert_eq!(
            verify(&dir).unwrap(),
            VerifyReport::default(),
            "absent log is clean"
        );
        let mut store = CacheStore::open(&dir, 3).unwrap();
        store.insert(fingerprint(&[b"1"]), b"one".to_vec());
        store.insert(fingerprint(&[b"2"]), b"two".to_vec());
        store.flush().unwrap();

        // Verify and stats read a log an open store holds.
        let report = verify(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.valid_records, 2);
        assert_eq!(report.distinct_keys, 2);
        assert_eq!(report.versions.get(&3), Some(&2));
        let unlocked = stats(&dir, 3).unwrap();
        assert_eq!(
            unlocked,
            CacheStats {
                pending_entries: 0,
                ..store.stats()
            }
        );
        drop(store);

        // Flip a payload byte: framing intact, checksum broken.
        let log = dir.join(LOG_NAME);
        let mut bytes = std::fs::read(&log).unwrap();
        let flip = MAGIC.len() + HEADER_LEN; // first payload byte
        bytes[flip] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        let report = verify(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.checksum_failures, 1);
        assert_eq!(report.valid_records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_record_fails_strict_open_and_heals_via_vacuum() {
        let dir = temp_dir("mid-corrupt");
        let (k1, k2, k3) = (
            fingerprint(&[b"first"]),
            fingerprint(&[b"second"]),
            fingerprint(&[b"third"]),
        );
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(k1, b"one".to_vec());
        store.insert(k2, b"two".to_vec());
        store.insert(k3, b"three".to_vec());
        store.flush().unwrap();
        let log = store.log_path();
        drop(store);

        // Byte-flip the *middle* record's payload: framing stays
        // intact, the checksum fails, and records 1 and 3 stay valid.
        let mut bytes = std::fs::read(&log).unwrap();
        let rec1_len = record_len(3) as usize;
        let flip = MAGIC.len() + rec1_len + HEADER_LEN;
        bytes[flip] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();

        // Strict open refuses instead of silently dropping record 3.
        let err = match CacheStore::open(&dir, 1) {
            Err(err) => err,
            Ok(_) => panic!("strict open must fail on mid-log corruption"),
        };
        match &err {
            StoreError::CorruptRecord {
                offset,
                valid_before,
                valid_after,
            } => {
                assert_eq!(*offset, (MAGIC.len() + rec1_len) as u64);
                assert_eq!(*valid_before, 1);
                assert_eq!(*valid_after, 1);
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("cache verify"), "hint missing: {msg}");
        assert!(msg.contains("cache vacuum"), "hint missing: {msg}");

        // Tolerant open skips the bad record but keeps both neighbours.
        let mut store = CacheStore::open_tolerant(&dir, 1).unwrap();
        assert_eq!(store.get(k1), hit(b"one"));
        assert_eq!(store.get(k2), Lookup::Miss, "corrupt record not indexed");
        assert_eq!(store.get(k3), hit(b"three"));
        assert_eq!(store.stats().corrupt_records, 1);

        // Vacuum rewrites a clean log; strict open works again.
        let report = store.vacuum().unwrap();
        assert_eq!(report.kept, 2);
        assert_eq!(report.dropped_records, 1);
        drop(store);
        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(k1), hit(b"one"));
        assert_eq!(store.get(k3), hit(b"three"));
        assert_eq!(store.stats().corrupt_records, 0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_final_record_is_still_tail_damage() {
        let dir = temp_dir("last-corrupt");
        let (k1, k2) = (fingerprint(&[b"keep"]), fingerprint(&[b"flip"]));
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(k1, b"keep".to_vec());
        store.insert(k2, b"flip".to_vec());
        store.flush().unwrap();
        let log = store.log_path();
        drop(store);
        let mut bytes = std::fs::read(&log).unwrap();
        let last = bytes.len() - 9; // inside the last record's payload/checksum
        bytes[last] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();

        // No valid record follows the damage, so this is the ordinary
        // corrupt-tail case: strict open succeeds and flush heals.
        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(k1), hit(b"keep"));
        assert_eq!(store.get(k2), Lookup::Miss);
        assert!(store.stats().corrupt_tail_bytes > 0);
        assert_eq!(store.stats().corrupt_records, 0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_treated_as_fully_corrupt() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_NAME), b"not a cache file at all").unwrap();
        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.stats().corrupt_tail_bytes > 0);
        drop(store);
        let report = verify(&dir).unwrap();
        assert!(!report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two handles on one directory: the second open fails fast with a
    /// typed error instead of later truncating the first one's records
    /// (each writer flushes from its own idea of the file end).
    #[test]
    fn second_writer_is_locked_out_and_loses_nothing() {
        let dir = temp_dir("two-writers");
        let mut a = CacheStore::open(&dir, 1).unwrap();
        match CacheStore::open(&dir, 1) {
            Err(StoreError::Locked { log }) => assert_eq!(log, a.log_path()),
            other => panic!("expected Locked, got {other:?}"),
        }
        assert!(matches!(
            CacheStore::open_tolerant(&dir, 1),
            Err(StoreError::Locked { .. })
        ));
        let keys: Vec<Fingerprint> = (0u8..4).map(|i| fingerprint(&[&[i]])).collect();
        a.insert(keys[0], b"a0".to_vec());
        a.flush().unwrap();
        drop(a);

        // Once A is gone, B opens, appends three records and sees A's.
        let mut b = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(b.get(keys[0]), hit(b"a0"));
        for (i, key) in keys.iter().enumerate().skip(1) {
            b.insert(*key, format!("b{i}").into_bytes());
        }
        assert_eq!(b.flush().unwrap(), 3);
        drop(b);

        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.get(keys[3]), hit(b"b3"));
        assert!(verify(&dir).unwrap().is_clean());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash can stop the log at any byte. Open never fails or panics,
    /// keeps exactly the records that were complete, and every surviving
    /// hit returns the payload that was written — after reopen and after
    /// vacuum.
    #[test]
    fn log_cut_at_every_byte_keeps_exactly_the_complete_records() {
        let dir = temp_dir("cut");
        let entries: Vec<(Fingerprint, Vec<u8>)> = (0u8..5)
            .map(|i| (fingerprint(&[&[i]]), vec![i; usize::from(i) * 3]))
            .collect();
        let mut store = CacheStore::open(&dir, 1).unwrap();
        for (key, payload) in &entries {
            store.insert(*key, payload.clone());
        }
        store.flush().unwrap();
        let log = store.log_path();
        drop(store);
        let full = std::fs::read(&log).unwrap();
        // Byte offset at which each record ends.
        let mut ends = Vec::new();
        let mut end = MAGIC.len();
        for (_, payload) in &entries {
            end += record_len(payload.len() as u64) as usize;
            ends.push(end);
        }
        assert_eq!(end, full.len());

        for cut in 0..=full.len() {
            std::fs::write(&log, &full[..cut]).unwrap();
            let mut store = CacheStore::open(&dir, 1)
                .unwrap_or_else(|e| panic!("cut at {cut}: open failed: {e}"));
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            let kept_len = if complete == 0 {
                if cut >= MAGIC.len() {
                    MAGIC.len()
                } else {
                    0
                }
            } else {
                ends[complete - 1]
            };
            assert_eq!(
                store.stats().corrupt_tail_bytes,
                (cut - kept_len) as u64,
                "cut at {cut}: only the torn suffix is dropped"
            );
            let check = |store: &CacheStore, when: &str| {
                for (i, (key, payload)) in entries.iter().enumerate() {
                    let want = if i < complete {
                        hit(payload)
                    } else {
                        Lookup::Miss
                    };
                    assert_eq!(store.get(*key), want, "cut at {cut}, {when}, record {i}");
                }
            };
            check(&store, "after reopen");
            store.vacuum().unwrap();
            check(&store, "after vacuum");
            drop(store);
            let store = CacheStore::open(&dir, 1).unwrap();
            check(&store, "after vacuum and reopen");
            assert!(verify(&dir).unwrap().is_clean(), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The index trusts the file only as far as each record's header: a
    /// log that changes under an open store degrades lookups to misses.
    #[test]
    fn record_changed_under_an_open_store_reads_as_a_miss() {
        let dir = temp_dir("changed");
        let (k1, k2) = (fingerprint(&[b"first"]), fingerprint(&[b"second"]));
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(k1, b"one".to_vec());
        store.insert(k2, b"two".to_vec());
        store.flush().unwrap();
        let log = store.log_path();

        // Overwrite the first record's key bytes in place.
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[MAGIC.len()] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        assert_eq!(store.get(k1), Lookup::Miss, "header no longer matches");
        assert_eq!(store.get(k2), hit(b"two"));

        // An external truncate cuts the second record short.
        let short = bytes.len() as u64 - record_len(3) + 4;
        File::options()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(short)
            .unwrap();
        assert_eq!(store.get(k2), Lookup::Miss, "short read");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
