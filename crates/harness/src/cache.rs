//! On-disk ray-stream capture cache.
//!
//! Capturing a workload (build scene, build BVH, path-trace thousands of
//! rays with instrumented traversal) dominates experiment start-up and is
//! identical across every figure that uses the same scene. The cache
//! persists each captured [`BounceStreams`] once, keyed by the workload's
//! content hash — (scene kind, triangle budget, ray budget, capture
//! depth, seed, trace format version) — so a full `experiments all` run
//! captures each scene exactly once *ever*, not once per figure per run.
//!
//! Corrupt, truncated, or stale files are detected by the typed
//! [`TraceIoError`] decoder, evicted, and transparently recaptured; a
//! cache can never make a run fail, only make it faster.
//!
//! Growth is bounded on request (`--cache-limit`): the cache becomes a
//! size-bounded LRU, with hits refreshing a file's mtime and stores
//! evicting least-recently-used entries until the directory fits the
//! byte budget again. Size evictions ride the same eviction path as
//! corruption evictions but are counted separately.

use crate::job::WorkloadSpec;
use crate::results::write_atomic;
use drs_trace::{BounceStreams, TraceIoError};
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Snapshot of cache activity for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheCounters {
    /// Workloads served from disk.
    pub hits: u64,
    /// Workloads captured because no cache entry existed.
    pub misses: u64,
    /// Unreadable entries that were deleted and recaptured.
    pub evictions: u64,
    /// Readable entries evicted to keep the cache under its byte limit.
    pub size_evictions: u64,
    /// Captured workloads that could not be persisted (the run continues
    /// with the in-memory copy; the failure is recorded, not fatal).
    pub store_failures: u64,
    /// Wall time of the run's capture phase in milliseconds: cache reads
    /// and fresh captures alike. Set by [`crate::run_jobs`], with or
    /// without a cache; a cache's own [`StreamCache::counters`] leave it 0.
    pub capture_ms: f64,
}

/// A cache entry that could not be written: the destination path and the
/// underlying I/O error. Never fatal — the captured streams stay usable in
/// memory — but typed so callers can count and report it instead of the
/// failure vanishing into stderr.
#[derive(Debug)]
pub struct CacheStoreError {
    /// The entry path the write was aimed at.
    pub path: PathBuf,
    /// The I/O failure.
    pub source: std::io::Error,
}

impl std::fmt::Display for CacheStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to write cache entry {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for CacheStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A directory of serialized bounce streams, safe for concurrent use from
/// the worker pool (counters are atomic; writes go through a temp file +
/// rename so parallel processes never observe torn entries).
#[derive(Debug)]
pub struct StreamCache {
    dir: PathBuf,
    limit_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    size_evictions: AtomicU64,
    store_failures: AtomicU64,
}

impl StreamCache {
    /// A cache rooted at `dir` (created lazily on first store), with no
    /// size bound.
    pub fn new(dir: impl Into<PathBuf>) -> StreamCache {
        StreamCache::with_limit(dir, None)
    }

    /// A cache rooted at `dir`, LRU-bounded to `limit_bytes` total entry
    /// bytes when `Some` (`--cache-limit`). Hits refresh an entry's
    /// mtime; a store that pushes the directory over the budget evicts
    /// least-recently-used entries (never the one just written) until it
    /// fits.
    pub fn with_limit(dir: impl Into<PathBuf>, limit_bytes: Option<u64>) -> StreamCache {
        StreamCache {
            dir: dir.into(),
            limit_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            size_evictions: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
        }
    }

    /// The default cache location: `$DRS_CACHE_DIR` or `target/drs-cache`
    /// relative to the working directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("DRS_CACHE_DIR")
            .map_or_else(|| PathBuf::from("target").join("drs-cache"), PathBuf::from)
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache file for a workload.
    pub fn path_for(&self, spec: &WorkloadSpec) -> PathBuf {
        self.dir.join(format!("{:016x}.bin", spec.content_key()))
    }

    /// Counters accumulated since construction.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            size_evictions: self.size_evictions.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
            capture_ms: 0.0,
        }
    }

    /// Load `spec` from the cache, or capture it and populate the cache.
    ///
    /// Decode failures evict the entry (it is stale or corrupt — the key
    /// covers the format version, so this mostly means bit rot or a
    /// torn write from a crashed run) and fall through to recapture.
    /// Store failures are reported to stderr but never fail the run.
    pub fn get_or_capture(&self, spec: &WorkloadSpec) -> BounceStreams {
        let path = self.path_for(spec);
        if let Ok(file) = fs::File::open(&path) {
            match BounceStreams::load(BufReader::new(file)) {
                Ok(streams) if streams.depth() == spec.bounces => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if self.limit_bytes.is_some() {
                        Self::touch(&path);
                    }
                    return streams;
                }
                Ok(_) => {
                    // Key collision or hand-edited file: depth disagrees
                    // with the spec. Treat exactly like corruption.
                    self.evict(
                        &path,
                        &TraceIoError::Corrupt("cached depth mismatch"),
                        &self.evictions,
                    );
                }
                Err(e) => self.evict(&path, &e, &self.evictions),
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let streams = spec.capture();
        if let Err(e) = self.store(spec, &streams) {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("drs-harness: {e}");
        }
        streams
    }

    /// The single eviction path: corruption evictions and size evictions
    /// both delete through here, differing only in the counter charged.
    fn evict(&self, path: &Path, why: &dyn std::fmt::Display, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        eprintln!("drs-harness: evicting cache entry {} ({why})", path.display());
        let _ = fs::remove_file(path);
    }

    /// Refresh an entry's mtime so LRU ordering tracks use, not just
    /// creation. Best effort: a failed touch only ages the entry.
    fn touch(path: &Path) {
        if let Ok(f) = fs::OpenOptions::new().append(true).open(path) {
            let _ = f.set_times(fs::FileTimes::new().set_modified(SystemTime::now()));
        }
    }

    /// Evict least-recently-used entries until the directory fits the
    /// byte budget again. `keep` (the entry just written) is never
    /// evicted, even if it alone exceeds the limit — evicting it would
    /// turn every oversized workload into a capture-per-use.
    fn enforce_limit(&self, keep: &Path) {
        let Some(limit) = self.limit_bytes else { return };
        let Ok(dir) = fs::read_dir(&self.dir) else { return };
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = dir
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                Some((e.path(), meta.len(), meta.modified().ok()?))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= limit {
            return;
        }
        // Oldest first; path as tie-break so same-mtime entries evict in
        // a deterministic order.
        entries.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        for (path, len, _) in entries {
            if total <= limit {
                break;
            }
            if path == keep {
                continue;
            }
            self.evict(&path, &format!("LRU: cache over {limit}-byte limit"), &self.size_evictions);
            total -= len;
        }
    }

    /// Persist a captured workload (temp file + rename for atomicity).
    ///
    /// # Errors
    ///
    /// Returns the typed [`CacheStoreError`] on any filesystem failure;
    /// the captured streams remain usable and the run continues.
    pub fn store(
        &self,
        spec: &WorkloadSpec,
        streams: &BounceStreams,
    ) -> Result<(), CacheStoreError> {
        let path = self.path_for(spec);
        let result = write_atomic(&path, |w| streams.save(w))
            .map_err(|source| CacheStoreError { path: path.clone(), source });
        if result.is_ok() {
            self.enforce_limit(&path);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Scale;
    use drs_scene::SceneKind;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_cache() -> StreamCache {
        let dir = std::env::temp_dir().join(format!(
            "drs-cache-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        StreamCache::new(dir)
    }

    fn tiny_spec() -> WorkloadSpec {
        let scale = Scale { rays: 120, tris_scale: 0.005, warps_scale: 1.0 };
        WorkloadSpec::standard(SceneKind::Conference, &scale, 2)
    }

    #[test]
    fn miss_then_hit_with_identical_content() {
        let cache = temp_cache();
        let spec = tiny_spec();
        let first = cache.get_or_capture(&spec);
        assert_eq!(cache.counters(), CacheCounters { hits: 0, misses: 1, ..Default::default() });
        let second = cache.get_or_capture(&spec);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1, ..Default::default() });
        for b in 1..=spec.bounces {
            assert_eq!(first.bounce(b).scripts, second.bounce(b).scripts);
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_is_evicted_and_recaptured() {
        let cache = temp_cache();
        let spec = tiny_spec();
        let clean = cache.get_or_capture(&spec);
        // Truncate the cached file to garbage.
        let path = cache.path_for(&spec);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let recaptured = cache.get_or_capture(&spec);
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.misses, 2);
        assert_eq!(clean.bounce(1).scripts, recaptured.bounce(1).scripts);
        // The bad entry was replaced by a good one.
        let third = cache.get_or_capture(&spec);
        assert_eq!(cache.counters().hits, 1);
        assert_eq!(third.bounce(1).scripts, clean.bounce(1).scripts);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn store_failure_is_typed_counted_and_nonfatal() {
        // Root the cache under a path whose parent is a regular file:
        // create_dir_all must fail, so every store fails.
        let blocker = std::env::temp_dir().join(format!(
            "drs-cache-blocker-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&blocker, b"not a directory").unwrap();
        let cache = StreamCache::new(blocker.join("sub"));
        let spec = tiny_spec();
        let streams = cache.get_or_capture(&spec);
        assert!(streams.depth() >= 1, "capture still succeeds in memory");
        let c = cache.counters();
        assert_eq!(c.store_failures, 1, "failed persist must be counted");
        assert_eq!(c.misses, 1);
        let err = cache.store(&spec, &streams).unwrap_err();
        assert!(err.to_string().contains("failed to write cache entry"), "{err}");
        let _ = fs::remove_file(&blocker);
    }

    #[test]
    fn failed_rename_is_counted_and_leaves_no_temp_file() {
        // A directory squats on the entry path: the temp file is written
        // and flushed, then the rename over the directory fails.
        let cache = temp_cache();
        let spec = tiny_spec();
        fs::create_dir_all(cache.path_for(&spec)).unwrap();
        let streams = cache.get_or_capture(&spec);
        assert!(streams.depth() >= 1, "capture still succeeds in memory");
        assert_eq!(cache.counters().store_failures, 1, "failed rename must be counted");
        assert!(cache.store(&spec, &streams).is_err());
        let temps: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(temps.is_empty(), "temp files left behind: {temps:?}");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_final_flush_is_counted_and_never_renamed_into_place() {
        // The entry is smaller than the BufWriter's buffer, so every byte
        // reaches the file in the final flush — and the temp path leads to
        // /dev/full, where that flush fails with ENOSPC.
        let cache = temp_cache();
        let spec = WorkloadSpec { rays: 4, bounces: 1, ..tiny_spec() };
        let mut bytes = Vec::new();
        spec.capture().save(&mut bytes).unwrap();
        assert!(bytes.len() < 8 * 1024, "entry of {} bytes overflows the buffer", bytes.len());
        fs::create_dir_all(cache.dir()).unwrap();
        let path = cache.path_for(&spec);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
        let streams = cache.get_or_capture(&spec);
        assert_eq!(streams.depth(), 1, "capture still succeeds in memory");
        assert_eq!(cache.counters().store_failures, 1, "failed flush must be counted");
        assert!(fs::symlink_metadata(&path).is_err(), "torn entry renamed into place");
        assert!(fs::symlink_metadata(&tmp).is_err(), "temp file left behind");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn size_limit_evicts_least_recently_used_first() {
        let base = temp_cache();
        let dir = base.dir().to_path_buf();
        let specs: Vec<WorkloadSpec> = [120usize, 121, 122]
            .iter()
            .map(|&rays| {
                let scale = Scale { rays, tris_scale: 0.005, warps_scale: 1.0 };
                WorkloadSpec::standard(SceneKind::Conference, &scale, 1)
            })
            .collect();
        // Populate two entries with no limit, then learn the entry size.
        base.get_or_capture(&specs[0]);
        base.get_or_capture(&specs[1]);
        let entry_len = fs::metadata(base.path_for(&specs[0])).unwrap().len();
        // Budget for two entries: storing a third must evict exactly one.
        let cache = StreamCache::with_limit(&dir, Some(2 * entry_len + entry_len / 2));
        // Make spec[0] the older entry, then refresh it with a hit: LRU
        // order must follow use, so spec[1] becomes the victim.
        let old = SystemTime::now() - std::time::Duration::from_mins(5);
        for spec in &specs[..2] {
            let f = fs::OpenOptions::new().append(true).open(cache.path_for(spec)).unwrap();
            f.set_times(fs::FileTimes::new().set_modified(old)).unwrap();
        }
        cache.get_or_capture(&specs[0]);
        assert_eq!(cache.counters().hits, 1);
        cache.get_or_capture(&specs[2]);
        let c = cache.counters();
        assert_eq!(c.size_evictions, 1, "exactly one entry over budget");
        assert_eq!(c.evictions, 0, "size evictions are counted separately");
        assert!(cache.path_for(&specs[0]).exists(), "recently-used entry survives");
        assert!(!cache.path_for(&specs[1]).exists(), "LRU entry evicted");
        assert!(cache.path_for(&specs[2]).exists(), "just-written entry never evicted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn just_written_entry_survives_even_when_alone_over_budget() {
        let base = temp_cache();
        let dir = base.dir().to_path_buf();
        let spec = tiny_spec();
        let cache = StreamCache::with_limit(&dir, Some(1));
        cache.get_or_capture(&spec);
        assert!(cache.path_for(&spec).exists(), "sole oversized entry is kept");
        assert_eq!(cache.counters().size_evictions, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn depth_mismatch_is_treated_as_corruption() {
        let cache = temp_cache();
        let spec = tiny_spec();
        let streams = cache.get_or_capture(&spec);
        // Forge an entry under the wrong key: same bytes, different depth.
        let deeper = WorkloadSpec { bounces: 3, ..spec };
        let mut buf = Vec::new();
        streams.save(&mut buf).unwrap();
        fs::create_dir_all(cache.dir()).unwrap();
        fs::write(cache.path_for(&deeper), &buf).unwrap();
        let recaptured = cache.get_or_capture(&deeper);
        assert_eq!(recaptured.depth(), 3);
        assert_eq!(cache.counters().evictions, 1);
        let _ = fs::remove_dir_all(cache.dir());
    }
}
