//! Crash-safe run checkpoints: rerun only what is missing.
//!
//! The pool appends every finished cell to an on-disk checkpoint (whole
//! file rewritten through a temp file + atomic rename, so a crash or
//! `kill -9` at any instant leaves either the previous consistent
//! snapshot or the new one — never a torn file). A rerun with `--resume`
//! loads the checkpoint, reuses every *clean* cell byte-for-byte, and
//! simulates only the missing or failed ones; the merged results are
//! bit-identical to an uninterrupted run (proven by the fault test suite
//! and the CI crash-recovery smoke).
//!
//! A checkpoint is bound to its run by a `run_key` — a content hash over
//! the ordered job ids, the fast-path setting, and the schema version —
//! so a stale checkpoint from a different grid, scale, or engine mode is
//! ignored rather than merged. Corrupt or unparseable checkpoints are
//! ignored the same way: resuming can never produce worse results than
//! starting over.

use crate::job::{fnv1a64, JobId, SimJob};
use crate::results::{write_atomic, CellFailure, ChipSummary};
use drs_sim::{ActiveHistogram, JsonBuf, SimStats};
use drs_telemetry::check::{self, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::SCHEMA_VERSION;

/// Where the checkpoint lives and whether to read it back.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path (conventionally `<out stem>_checkpoint.json`).
    pub path: PathBuf,
    /// Reuse clean cells from an existing checkpoint (`--resume`).
    pub resume: bool,
}

/// One finished cell as persisted in a checkpoint: everything needed to
/// reconstruct its [`CellResult`](crate::results::CellResult) except the
/// job itself (jobs are re-derived from the deterministic figure
/// enumeration and matched by content id).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointCell {
    /// No surviving rays at this bounce.
    pub empty: bool,
    /// Ran to full completion.
    pub completed: bool,
    /// Attempts the pool made.
    pub attempts: u32,
    /// Wall-clock of the original attempt (carried through so merged
    /// full-results files stay plausible; excluded from stats dumps).
    pub wall_ms: f64,
    /// Full counter set.
    pub stats: SimStats,
    /// Shared-memory-system summary, for full-chip cells.
    pub chip: Option<ChipSummary>,
    /// Failure record, for failed cells.
    pub failure: Option<CellFailure>,
}

impl CheckpointCell {
    /// Clean cells are safe to reuse on resume; failed ones are rerun.
    pub fn is_clean(&self) -> bool {
        self.completed && self.failure.is_none()
    }

    /// Capture the persistable part of a finished [`CellResult`](crate::results::CellResult)
    /// (everything except the job identity and telemetry reports, which
    /// are re-derived / re-collected rather than persisted).
    pub fn from_cell(cell: &crate::results::CellResult) -> CheckpointCell {
        CheckpointCell {
            empty: cell.empty,
            completed: cell.completed,
            attempts: cell.attempts,
            wall_ms: cell.wall_ms,
            stats: cell.stats.clone(),
            chip: cell.chip.clone(),
            failure: cell.failure.clone(),
        }
    }

    /// Reconstruct the [`CellResult`](crate::results::CellResult) this cell
    /// persisted, given the job
    /// it was matched to. Telemetry is `None`: persisted cells carry
    /// counters, not interval series.
    pub fn to_cell(&self, job: SimJob) -> crate::results::CellResult {
        crate::results::CellResult {
            job,
            empty: self.empty,
            completed: self.completed,
            stats: self.stats.clone(),
            telemetry: None,
            sm_telemetry: Vec::new(),
            chip_telemetry: None,
            failure: self.failure.clone(),
            chip: self.chip.clone(),
            attempts: self.attempts,
            wall_ms: self.wall_ms,
        }
    }

    /// Append this cell (with its job `id`) as a JSON object — the single
    /// on-disk cell layout shared by the checkpoint file and the result
    /// store, so both round-trip through the same parser.
    pub fn write_json(&self, j: &mut JsonBuf, id: JobId) {
        j.begin_obj();
        j.kv_str("id", &id.to_string());
        j.kv_bool("empty", self.empty);
        j.kv_bool("completed", self.completed);
        j.kv_u64("attempts", self.attempts as u64);
        j.kv_f64("wall_ms", self.wall_ms);
        if let Some(failure) = &self.failure {
            j.key("failure");
            failure.write_json(j, self.attempts);
        }
        j.key("stats");
        self.stats.write_json(j);
        if let Some(chip) = &self.chip {
            j.key("chip");
            chip.write_json(j);
        }
        j.end_obj();
    }

    /// Invert [`CheckpointCell::write_json`]: parse one cell object back
    /// into its id and contents. Any malformed or out-of-range field
    /// yields `None` — callers treat the enclosing document as stale.
    pub fn parse(cell: &Value) -> Option<(JobId, CheckpointCell)> {
        let id = JobId(u64::from_str_radix(cell.get("id")?.as_str()?, 16).ok()?);
        Some((
            id,
            CheckpointCell {
                empty: get_bool(cell, "empty")?,
                completed: get_bool(cell, "completed")?,
                attempts: get_u64(cell, "attempts")? as u32,
                wall_ms: cell.get("wall_ms")?.as_num()?,
                stats: parse_stats(cell.get("stats")?)?,
                chip: match cell.get("chip") {
                    Some(c) => Some(parse_chip(c)?),
                    None => None,
                },
                failure: match cell.get("failure") {
                    Some(f) => Some(parse_failure(f)?),
                    None => None,
                },
            },
        ))
    }
}

/// An in-memory checkpoint: the run it belongs to plus every finished
/// cell keyed by job id.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// Content hash binding the checkpoint to one (job grid, fastpath)
    /// run configuration.
    pub run_key: u64,
    /// Finished cells by job id (BTreeMap for deterministic file order).
    pub cells: BTreeMap<JobId, CheckpointCell>,
}

/// The content key binding a checkpoint to its run: ordered job ids, the
/// engine fast-path flag, and the schema version. Any difference — a
/// different grid, scale, seed, or engine mode — yields a different key.
pub fn run_key(jobs: &[SimJob], fastpath: bool) -> u64 {
    let mut canon = format!("drs-checkpoint;v={SCHEMA_VERSION};fastpath={fastpath}");
    for job in jobs {
        canon.push(';');
        canon.push_str(&job.id().to_string());
    }
    fnv1a64(canon.as_bytes())
}

impl Checkpoint {
    /// An empty checkpoint for a run.
    pub fn new(run_key: u64) -> Checkpoint {
        Checkpoint { run_key, cells: BTreeMap::new() }
    }

    /// Serialize to the on-disk JSON form.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.kv_u64("schema_version", SCHEMA_VERSION as u64);
        j.kv_str("suite", "drs-checkpoint");
        j.kv_str("run_key", &format!("{:016x}", self.run_key));
        j.key("cells");
        j.begin_arr();
        for (id, cell) in &self.cells {
            cell.write_json(&mut j, *id);
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Atomically persist to `spec.path` (temp file + rename): a reader —
    /// including a resume after `kill -9` mid-write — sees either the old
    /// snapshot or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the pool treats them as non-fatal
    /// (the run continues, only resumability is lost).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, |w| {
            w.write_all(self.to_json().as_bytes())?;
            w.write_all(b"\n")
        })
    }

    /// Load the checkpoint at `path` if it exists, parses, and was written
    /// by the run identified by `expected_key`. Any failure — missing
    /// file, corrupt JSON, schema or run-key mismatch, out-of-range
    /// counter — returns `None`: a bad checkpoint means "start fresh",
    /// never "merge garbage".
    pub fn load(path: &Path, expected_key: u64) -> Option<Checkpoint> {
        let text = std::fs::read_to_string(path).ok()?;
        let doc = check::parse(&text).ok()?;
        if get_u64(&doc, "schema_version")? != SCHEMA_VERSION as u64 {
            return None;
        }
        let key = u64::from_str_radix(doc.get("run_key")?.as_str()?, 16).ok()?;
        if key != expected_key {
            return None;
        }
        let mut cp = Checkpoint::new(key);
        for cell in doc.get("cells")?.as_arr()? {
            let (id, parsed) = CheckpointCell::parse(cell)?;
            cp.cells.insert(id, parsed);
        }
        Some(cp)
    }
}

/// A u64 read back through JSON's number type. Counters are exact while
/// `< 2^53`; anything larger means the file is not one of ours — reject
/// it so a resume never merges a silently-rounded counter.
fn num_to_u64(n: f64) -> Option<u64> {
    if n.fract() == 0.0 && (0.0..9007199254740992.0).contains(&n) {
        Some(n as u64)
    } else {
        None
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    num_to_u64(v.get(key)?.as_num()?)
}

fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn parse_histogram(v: &Value) -> Option<ActiveHistogram> {
    let raw = v.get("buckets")?.as_arr()?;
    if raw.len() != 4 {
        return None;
    }
    let mut buckets = [0u64; 4];
    for (slot, item) in buckets.iter_mut().zip(raw) {
        *slot = num_to_u64(item.as_num()?)?;
    }
    Some(ActiveHistogram {
        buckets,
        total: get_u64(v, "total")?,
        active_sum: get_u64(v, "active_sum")?,
    })
}

fn parse_cache(v: &Value) -> Option<drs_sim::CacheStats> {
    Some(drs_sim::CacheStats { hits: get_u64(v, "hits")?, misses: get_u64(v, "misses")? })
}

/// Invert [`SimStats::write_json`]: field for field, so a checkpointed
/// cell round-trips bit-identically (all counters are integers `< 2^53`).
fn parse_stats(v: &Value) -> Option<SimStats> {
    let mut block_profile = Vec::new();
    for entry in v.get("block_profile")?.as_arr()? {
        block_profile.push((
            entry.get("block")?.as_str()?.to_string(),
            get_u64(entry, "issues")?,
            get_u64(entry, "active_sum")?,
        ));
    }
    Some(SimStats {
        cycles: get_u64(v, "cycles")?,
        rays_completed: get_u64(v, "rays_completed")?,
        issued: parse_histogram(v.get("issued")?)?,
        issued_si: parse_histogram(v.get("issued_si")?)?,
        loads: get_u64(v, "loads")?,
        stores: get_u64(v, "stores")?,
        mem_transactions: get_u64(v, "mem_transactions")?,
        rdctrl_stalls: get_u64(v, "rdctrl_stalls")?,
        rdctrl_issued: get_u64(v, "rdctrl_issued")?,
        regfile_reads: get_u64(v, "regfile_reads")?,
        regfile_writes: get_u64(v, "regfile_writes")?,
        bank_conflicts: get_u64(v, "bank_conflicts")?,
        swap_accesses: get_u64(v, "swap_accesses")?,
        swaps_completed: get_u64(v, "swaps_completed")?,
        swap_cycle_sum: get_u64(v, "swap_cycle_sum")?,
        spawn_bank_conflict_cycles: get_u64(v, "spawn_bank_conflict_cycles")?,
        sync_wait_cycles: get_u64(v, "sync_wait_cycles")?,
        l1t: parse_cache(v.get("l1t")?)?,
        l1d: parse_cache(v.get("l1d")?)?,
        l2: parse_cache(v.get("l2")?)?,
        block_profile,
    })
}

fn parse_u64_arr(v: &Value) -> Option<Vec<u64>> {
    v.as_arr()?.iter().map(|item| num_to_u64(item.as_num()?)).collect()
}

/// Invert [`ChipSummary::write_json`], field for field.
fn parse_chip(v: &Value) -> Option<ChipSummary> {
    Some(ChipSummary {
        sms: get_u64(v, "sms")? as usize,
        l2_hits: get_u64(v, "l2_hits")?,
        l2_misses: get_u64(v, "l2_misses")?,
        l2_evictions: get_u64(v, "l2_evictions")?,
        requests: get_u64(v, "requests")?,
        dram_lines: get_u64(v, "dram_lines")?,
        dram_busy_q: get_u64(v, "dram_busy_q")?,
        dram_queue_cycles: get_u64(v, "dram_queue_cycles")?,
        bank_conflict_cycles: get_u64(v, "bank_conflict_cycles")?,
        mshr_merges: get_u64(v, "mshr_merges")?,
        mshr_waits: get_u64(v, "mshr_waits")?,
        per_sm_cycles: parse_u64_arr(v.get("per_sm_cycles")?)?,
        per_sm_rays: parse_u64_arr(v.get("per_sm_rays")?)?,
    })
}

fn parse_failure(v: &Value) -> Option<CellFailure> {
    Some(CellFailure {
        kind: v.get("kind")?.as_str()?.to_string(),
        message: v.get("message")?.as_str()?.to_string(),
        cycle: match v.get("cycle") {
            Some(c) => Some(num_to_u64(c.as_num()?)?),
            None => None,
        },
        injected: get_bool(v, "injected")?,
        warp_dump: v.get("warp_dump").and_then(|d| d.as_str()).map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Method, Scale, WorkloadSpec};
    use crate::results::write_text;
    use drs_scene::SceneKind;

    fn sample_stats() -> SimStats {
        SimStats {
            cycles: 12345,
            rays_completed: 678,
            issued: ActiveHistogram { buckets: [1, 2, 3, 4], total: 10, active_sum: 200 },
            issued_si: ActiveHistogram { buckets: [0, 0, 1, 0], total: 1, active_sum: 20 },
            loads: 9,
            stores: 8,
            mem_transactions: 7,
            rdctrl_stalls: 6,
            rdctrl_issued: 5,
            regfile_reads: 4,
            regfile_writes: 3,
            bank_conflicts: 2,
            swap_accesses: 1,
            swaps_completed: 11,
            swap_cycle_sum: 22,
            spawn_bank_conflict_cycles: 33,
            sync_wait_cycles: 44,
            l1t: drs_sim::CacheStats { hits: 100, misses: 10 },
            l1d: drs_sim::CacheStats { hits: 200, misses: 20 },
            l2: drs_sim::CacheStats { hits: 300, misses: 30 },
            block_profile: vec![("outer".into(), 5, 80), ("inner".into(), 7, 160)],
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut cp = Checkpoint::new(0xdead_beef);
        cp.cells.insert(
            JobId(0x1234),
            CheckpointCell {
                empty: false,
                completed: true,
                attempts: 1,
                wall_ms: 4.5,
                stats: sample_stats(),
                chip: Some(ChipSummary {
                    sms: 3,
                    l2_hits: 510,
                    l2_misses: 170,
                    l2_evictions: 25,
                    requests: 700,
                    dram_lines: 160,
                    dram_busy_q: 160 * 2048,
                    dram_queue_cycles: 42,
                    bank_conflict_cycles: 13,
                    mshr_merges: 20,
                    mshr_waits: 4,
                    per_sm_cycles: vec![4000, 4100, 3990],
                    per_sm_rays: vec![226, 226, 226],
                }),
                failure: None,
            },
        );
        cp.cells.insert(
            JobId(0x5678),
            CheckpointCell {
                empty: false,
                completed: false,
                attempts: 2,
                wall_ms: 1.0,
                stats: SimStats { cycles: 99, ..Default::default() },
                chip: None,
                failure: Some(CellFailure {
                    kind: "watchdog".into(),
                    message: "no instruction issued for 11 cycles".into(),
                    cycle: Some(99),
                    injected: true,
                    warp_dump: Some("warp 0: exited=false blocked_until=7\n".into()),
                }),
            },
        );
        cp
    }

    #[test]
    fn json_round_trip_is_exact() {
        let cp = sample_checkpoint();
        let dir = std::env::temp_dir()
            .join(format!("drs-checkpoint-test-{}", std::process::id()))
            .join("cp.json");
        cp.write_to(&dir).unwrap();
        let back = Checkpoint::load(&dir, cp.run_key).expect("round trip");
        assert_eq!(back.run_key, cp.run_key);
        assert_eq!(back.cells, cp.cells);
        assert!(back.cells[&JobId(0x1234)].is_clean());
        assert!(!back.cells[&JobId(0x5678)].is_clean());
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn stale_corrupt_and_missing_checkpoints_are_ignored() {
        let dir = std::env::temp_dir().join(format!("drs-checkpoint-tol-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cp.json");
        assert!(Checkpoint::load(&path, 1).is_none(), "missing file");

        let cp = sample_checkpoint();
        cp.write_to(&path).unwrap();
        assert!(Checkpoint::load(&path, cp.run_key ^ 1).is_none(), "run-key mismatch");

        write_text(&path, "{\"schema_version\":1,\"truncated").unwrap();
        assert!(Checkpoint::load(&path, cp.run_key).is_none(), "corrupt JSON");

        write_text(&path, "not json at all").unwrap();
        assert!(Checkpoint::load(&path, cp.run_key).is_none(), "garbage");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_key_tracks_jobs_and_fastpath() {
        let scale = Scale::default();
        let wl = WorkloadSpec::standard(SceneKind::Conference, &scale, 8);
        let jobs: Vec<SimJob> = (1..=3)
            .map(|b| SimJob { workload: wl, bounce: b, method: Method::Aila, warps: 8, chip: None })
            .collect();
        let base = run_key(&jobs, true);
        assert_eq!(base, run_key(&jobs, true), "stable");
        assert_ne!(base, run_key(&jobs, false), "fastpath is part of the key");
        assert_ne!(base, run_key(&jobs[..2], true), "grid is part of the key");
        let mut reordered = jobs.clone();
        reordered.swap(0, 2);
        assert_ne!(base, run_key(&reordered, true), "order is part of the key");
    }

    #[test]
    fn out_of_range_counters_reject_the_file() {
        // 2^53 + 1 is not exactly representable; a file claiming such a
        // counter is not one we wrote.
        assert_eq!(num_to_u64(9007199254740992.0), None);
        assert_eq!(num_to_u64(9007199254740991.0), Some(9007199254740991));
        assert_eq!(num_to_u64(1.5), None);
        assert_eq!(num_to_u64(-1.0), None);
    }
}
