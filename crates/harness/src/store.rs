//! Durable, content-addressed result store: finished cells survive the
//! process.
//!
//! The checkpoint file ([`crate::checkpoint`]) makes one *run* crash-safe;
//! this store makes completed work durable *across* runs and processes.
//! Every clean finished cell is memoized on disk keyed by its [`JobId`]
//! (itself a content hash over the job definition) plus the shared
//! [`SCHEMA_VERSION`], so a warm rerun of any grid — same scale, same
//! methods, same seeds — does zero simulation work and reproduces the
//! results document byte-for-byte.
//!
//! # Entry layout
//!
//! One file per cell at `<dir>/<id>.json`, exactly two lines:
//!
//! ```text
//! {"schema_version":4,"suite":"drs-store","cell":{...}}
//! #drs-store len=<body bytes> fnv=<16-hex FNV-1a of body>
//! ```
//!
//! The footer makes truncation (length mismatch) and bit rot (checksum
//! mismatch) detectable without trusting the JSON parser to notice.
//! Entries are written through a temp file + atomic rename, so a reader
//! never observes a half-written entry; a `kill -9` mid-write leaves at
//! worst an orphaned temp file.
//!
//! # Failure policy
//!
//! Reads never panic and never silently serve bad data: a corrupt,
//! truncated, or schema-mismatched entry yields a typed [`StoreError`],
//! the file is moved into `<dir>/quarantine/` (preserving the evidence),
//! and the cell is recomputed. Writes are serialized per entry via a
//! `<id>.lock` file; locks abandoned by a crashed writer are reclaimed
//! after [`STALE_LOCK_MS`]. A store that cannot be written degrades the
//! run to "results complete in memory, durability lost" — it never fails
//! the run.

use crate::checkpoint::CheckpointCell;
use crate::job::{fnv1a64, JobId};
use crate::results::write_atomic;
use crate::SCHEMA_VERSION;
use drs_sim::JsonBuf;
use drs_telemetry::check;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

/// Age (milliseconds) past which another writer's lock file is presumed
/// abandoned (crashed writer) and reclaimed. Entry writes take well under
/// a millisecond, so ten seconds is orders of magnitude past any live
/// writer.
pub const STALE_LOCK_MS: u64 = 10_000;

/// Total time a writer waits for a contended lock before giving up with
/// [`StoreError::LockTimeout`] (the run continues without durability for
/// that cell).
const LOCK_WAIT_MS: u64 = 2_000;

/// Poll interval while waiting on a contended lock.
const LOCK_POLL_MS: u64 = 10;

/// Why a store read or write failed. Every variant is survivable: the
/// pool recomputes on read errors and warns on write errors.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error reading or writing an entry.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// Entry bytes fail validation: truncated, checksum mismatch, not
    /// UTF-8, unparseable JSON, or an id that does not match the file.
    Corrupt {
        /// Entry path.
        path: PathBuf,
        /// What failed, for the quarantine log line.
        why: String,
    },
    /// Entry was written by a different schema generation.
    SchemaMismatch {
        /// Entry path.
        path: PathBuf,
        /// The version the entry claims.
        found: u64,
    },
    /// A concurrent writer held the entry lock past the patience window.
    LockTimeout {
        /// Lock path.
        path: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error at {}: {source}", path.display())
            }
            StoreError::Corrupt { path, why } => {
                write!(f, "corrupt store entry {}: {why}", path.display())
            }
            StoreError::SchemaMismatch { path, found } => write!(
                f,
                "store entry {} has schema v{found}, expected v{SCHEMA_VERSION}",
                path.display()
            ),
            StoreError::LockTimeout { path } => {
                write!(f, "timed out waiting for store lock {}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Store traffic counters, snapshotted into the run document.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups served from disk (cells that skipped simulation).
    pub hits: u64,
    /// Lookups with no usable entry (includes quarantined entries).
    pub misses: u64,
    /// Entries successfully persisted.
    pub writes: u64,
    /// Corrupt / truncated / version-mismatched entries moved aside.
    pub quarantined: u64,
    /// Entry writes that failed (I/O error or lock timeout); the cell's
    /// result stayed in memory, only durability was lost.
    pub write_failures: u64,
    /// Abandoned writer locks reclaimed.
    pub lock_reclaims: u64,
}

/// A content-addressed on-disk store of finished cells. Cheap to create;
/// all state lives on disk plus a few counters. Safe to share across
/// threads and processes (writers serialize via lock files, readers rely
/// on atomic renames).
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
    write_failures: AtomicU64,
    lock_reclaims: AtomicU64,
}

/// Removes the lock file when the writer is done, on success and error
/// paths alike.
struct LockGuard(PathBuf);

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl ResultStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> ResultStore {
        ResultStore {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            lock_reclaims: AtomicU64::new(0),
        }
    }

    /// The conventional store location: `$DRS_STORE_DIR` if set, else
    /// `target/drs-store` (beside the capture cache).
    pub fn default_dir() -> PathBuf {
        match std::env::var_os("DRS_STORE_DIR") {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from("target/drs-store"),
        }
    }

    /// Store root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the entry for `id` lives.
    pub fn entry_path(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}.json"))
    }

    fn lock_path(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}.lock"))
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Counter snapshot for the run document.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            lock_reclaims: self.lock_reclaims.load(Ordering::Relaxed),
        }
    }

    /// Serialize an entry: single-line JSON body + checksum footer.
    fn encode(id: JobId, cell: &CheckpointCell) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.kv_u64("schema_version", SCHEMA_VERSION as u64);
        j.kv_str("suite", "drs-store");
        j.key("cell");
        cell.write_json(&mut j, id);
        j.end_obj();
        let body = j.finish();
        let sum = fnv1a64(body.as_bytes());
        format!("{body}\n#drs-store len={} fnv={sum:016x}\n", body.len())
    }

    /// Validate and parse raw entry bytes back into the cell.
    fn decode(path: &Path, bytes: &[u8], id: JobId) -> Result<CheckpointCell, StoreError> {
        let corrupt = |why: String| StoreError::Corrupt { path: path.to_path_buf(), why };
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt("not UTF-8".into()))?;
        let (body, footer) = text
            .split_once('\n')
            .ok_or_else(|| corrupt("missing checksum footer (truncated?)".into()))?;
        let footer = footer.trim_end_matches('\n');
        let rest = footer
            .strip_prefix("#drs-store len=")
            .ok_or_else(|| corrupt("malformed footer".into()))?;
        let (len_s, fnv_s) =
            rest.split_once(" fnv=").ok_or_else(|| corrupt("malformed footer".into()))?;
        let len: usize = len_s.parse().map_err(|_| corrupt("malformed footer length".into()))?;
        let sum = u64::from_str_radix(fnv_s, 16)
            .map_err(|_| corrupt("malformed footer checksum".into()))?;
        if body.len() != len {
            return Err(corrupt(format!("length {} != footer {len} (truncated?)", body.len())));
        }
        if fnv1a64(body.as_bytes()) != sum {
            return Err(corrupt("checksum mismatch".into()));
        }
        let doc = check::parse(body).map_err(|e| corrupt(format!("unparseable JSON: {e}")))?;
        let version = doc
            .get("schema_version")
            .and_then(check::Value::as_num)
            .ok_or_else(|| corrupt("missing schema_version".into()))?;
        if version != f64::from(SCHEMA_VERSION) {
            return Err(StoreError::SchemaMismatch {
                path: path.to_path_buf(),
                found: version as u64,
            });
        }
        if doc.get("suite").and_then(check::Value::as_str) != Some("drs-store") {
            return Err(corrupt("wrong suite".into()));
        }
        let cell_v = doc.get("cell").ok_or_else(|| corrupt("missing cell".into()))?;
        let (entry_id, cell) =
            CheckpointCell::parse(cell_v).ok_or_else(|| corrupt("unparseable cell".into()))?;
        if entry_id != id {
            return Err(corrupt(format!("id {entry_id} does not match requested {id}")));
        }
        Ok(cell)
    }

    /// Typed read of the entry for `id`. `Ok(None)` means "no entry";
    /// every error is survivable (the caller recomputes). No side
    /// effects beyond the filesystem read — quarantining is the caller's
    /// (or [`ResultStore::lookup`]'s) decision.
    pub fn read_entry(&self, id: JobId) -> Result<Option<CheckpointCell>, StoreError> {
        let path = self.entry_path(id);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io { path, source: e }),
        };
        Self::decode(&path, &bytes, id).map(Some)
    }

    /// Move a bad entry into the quarantine directory (best effort —
    /// falls back to deletion so a corrupt entry can never be served
    /// twice) and count it.
    fn quarantine(&self, id: JobId, err: &StoreError) {
        let from = self.entry_path(id);
        let qdir = self.quarantine_dir();
        let to = qdir.join(format!("{id}.{}.json", std::process::id()));
        let moved = std::fs::create_dir_all(&qdir).is_ok() && std::fs::rename(&from, &to).is_ok();
        if !moved {
            let _ = std::fs::remove_file(&from);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        eprintln!("warning: quarantined store entry for {id} ({err}); the cell will be recomputed");
    }

    /// The pool-facing read: a clean cell if the store has one, `None`
    /// otherwise. Never fails and never panics — corrupt, truncated, or
    /// version-mismatched entries are quarantined (moved to
    /// `quarantine/`, counted, warned) and reported as a miss so the
    /// cell is recomputed.
    pub fn lookup(&self, id: JobId) -> Option<CheckpointCell> {
        match self.read_entry(id) {
            Ok(Some(cell)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(err) => {
                self.quarantine(id, &err);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Acquire the per-entry writer lock, reclaiming stale ones.
    fn acquire_lock(&self, id: JobId) -> Result<LockGuard, StoreError> {
        let path = self.lock_path(id);
        let deadline = Instant::now() + Duration::from_millis(LOCK_WAIT_MS);
        loop {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    return Ok(LockGuard(path));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| SystemTime::now().duration_since(t).ok())
                        .is_some_and(|age| age >= Duration::from_millis(STALE_LOCK_MS));
                    if stale {
                        // Another reclaimer may race us to the unlink;
                        // both outcomes leave the lock free.
                        if std::fs::remove_file(&path).is_ok() {
                            self.lock_reclaims.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(StoreError::LockTimeout { path });
                    }
                    std::thread::sleep(Duration::from_millis(LOCK_POLL_MS));
                }
                Err(e) => return Err(StoreError::Io { path, source: e }),
            }
        }
    }

    /// Persist a finished cell. Only clean cells belong in the store
    /// (failed ones must be re-attempted next run); non-clean cells are
    /// rejected as a programming error in debug builds and skipped in
    /// release builds.
    ///
    /// # Errors
    ///
    /// I/O failures and lock timeouts are returned (and counted as
    /// `write_failures`); callers treat them as "durability lost", never
    /// as a failed cell.
    pub fn store(&self, id: JobId, cell: &CheckpointCell) -> Result<(), StoreError> {
        debug_assert!(cell.is_clean(), "only clean cells are stored");
        if !cell.is_clean() {
            return Ok(());
        }
        let result = (|| {
            std::fs::create_dir_all(&self.dir)
                .map_err(|e| StoreError::Io { path: self.dir.clone(), source: e })?;
            let _lock = self.acquire_lock(id)?;
            let path = self.entry_path(id);
            write_atomic(&path, |w| w.write_all(Self::encode(id, cell).as_bytes()))
                .map_err(|e| StoreError::Io { path, source: e })
        })();
        match &result {
            Ok(()) => self.writes.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.write_failures.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Chaos hook: flip one bit of the on-disk entry for `id`, if it
    /// exists. Used by the [`FaultKind::StoreCorrupt`](crate::FaultKind)
    /// injection and the golden tests to prove the quarantine path
    /// end-to-end; returns whether an entry was actually damaged.
    pub fn scramble(&self, id: JobId) -> bool {
        let path = self.entry_path(id);
        let Ok(mut bytes) = std::fs::read(&path) else { return false };
        if bytes.is_empty() {
            return false;
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::SimStats;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("drs-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn cell(cycles: u64) -> CheckpointCell {
        CheckpointCell {
            empty: false,
            completed: true,
            attempts: 1,
            wall_ms: 2.5,
            stats: SimStats { cycles, rays_completed: cycles / 2, ..Default::default() },
            chip: None,
            failure: None,
        }
    }

    #[test]
    fn round_trip_is_exact_and_counted() {
        let store = ResultStore::new(dir("roundtrip"));
        let id = JobId(0xabcd);
        assert!(store.lookup(id).is_none(), "cold store misses");
        store.store(id, &cell(100)).unwrap();
        assert_eq!(store.lookup(id), Some(cell(100)));
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.writes, c.quarantined), (1, 1, 1, 0));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_recomputable() {
        let store = ResultStore::new(dir("corrupt"));
        let id = JobId(1);
        store.store(id, &cell(7)).unwrap();
        assert!(store.scramble(id), "entry exists to damage");
        assert!(store.lookup(id).is_none(), "damaged entry must not be served");
        assert_eq!(store.counters().quarantined, 1);
        assert!(!store.entry_path(id).exists(), "entry moved aside");
        let quarantined: Vec<_> =
            std::fs::read_dir(store.dir().join("quarantine")).unwrap().collect();
        assert_eq!(quarantined.len(), 1, "evidence preserved");
        // The slot is reusable: store + read back works again.
        store.store(id, &cell(7)).unwrap();
        assert_eq!(store.lookup(id), Some(cell(7)));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncated_entries_are_detected_by_the_footer() {
        let store = ResultStore::new(dir("truncated"));
        let id = JobId(2);
        store.store(id, &cell(9)).unwrap();
        let path = store.entry_path(id);
        let text = std::fs::read_to_string(&path).unwrap();
        // Drop bytes from the middle of the body, keeping the footer: the
        // length check fires even when the JSON stays parseable-ish.
        let cut = text.replace("\"empty\":false,", "");
        std::fs::write(&path, cut).unwrap();
        let err = store.read_entry(id).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "got {err}");
        assert!(store.lookup(id).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn schema_mismatch_is_typed_and_quarantined() {
        let store = ResultStore::new(dir("schema"));
        let id = JobId(3);
        store.store(id, &cell(11)).unwrap();
        let path = store.entry_path(id);
        let text = std::fs::read_to_string(&path).unwrap();
        let (body, _) = text.split_once('\n').unwrap();
        let old =
            body.replace(&format!("\"schema_version\":{SCHEMA_VERSION}"), "\"schema_version\":1");
        // Re-checksum so only the version differs — a valid v1 entry.
        let sum = fnv1a64(old.as_bytes());
        std::fs::write(&path, format!("{old}\n#drs-store len={} fnv={sum:016x}\n", old.len()))
            .unwrap();
        match store.read_entry(id) {
            Err(StoreError::SchemaMismatch { found, .. }) => assert_eq!(found, 1),
            other => panic!("expected schema mismatch, got {other:?}"),
        }
        assert!(store.lookup(id).is_none(), "old-schema entries are never served");
        assert_eq!(store.counters().quarantined, 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn failed_rename_is_counted_and_leaves_no_temp_file() {
        // A directory squats on the entry path: the temp file is written,
        // then the rename over the directory fails.
        let store = ResultStore::new(dir("squatted"));
        let id = JobId(0xbeef);
        std::fs::create_dir_all(store.entry_path(id)).unwrap();
        let err = store.store(id, &cell(17)).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "got {err}");
        assert_eq!(store.counters().write_failures, 1);
        let temps: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(temps.is_empty(), "temp files left behind: {temps:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_locks_are_reclaimed() {
        let store = ResultStore::new(dir("stale-lock"));
        let id = JobId(4);
        std::fs::create_dir_all(store.dir()).unwrap();
        let lock = store.dir().join(format!("{id}.lock"));
        std::fs::write(&lock, "dead-writer").unwrap();
        let past = SystemTime::now() - Duration::from_millis(STALE_LOCK_MS * 2);
        let f = std::fs::OpenOptions::new().write(true).open(&lock).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(past)).unwrap();
        drop(f);
        store.store(id, &cell(13)).unwrap();
        assert_eq!(store.counters().lock_reclaims, 1);
        assert_eq!(store.lookup(id), Some(cell(13)));
        assert!(!lock.exists(), "lock released after write");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn concurrent_writers_serialize_without_damage() {
        let store = std::sync::Arc::new(ResultStore::new(dir("concurrent")));
        let id = JobId(5);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || store.store(id, &cell(21)).is_ok())
            })
            .collect();
        let ok = threads.into_iter().filter_map(|t| t.join().unwrap().then_some(())).count();
        assert_eq!(ok, 8, "every writer should succeed within the lock window");
        assert_eq!(store.lookup(id), Some(cell(21)), "final entry is valid");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
