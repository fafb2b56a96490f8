//! Default-scale benchmark of the DRS simulator; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --digest <stats-dump.json> [--filter <part of cell name>]
//! perfbench --spread <run output>...
//! ```
//!
//! Prints a human-readable account on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

mod arith;
mod shims;
mod spans;
mod traced;
mod workloads;

use arith::{median, ns_per_cycle};
use drs_bvh::{BuildParams, Bvh};
use drs_harness::{
    run_jobs, CaptureMode, CellResult, CheckpointCell, CheckpointSpec, ResultStore, ResultsFile,
    RunOptions, RunReport, StreamCache, WorkloadSpec,
};
use drs_sim::JsonBuf;
use drs_trace::BounceStreams;
use shims::CallTotals;
use spans::{At, Spans};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <fig11-conf|fig9-drs|chip-sponza|store-rerun> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     perfbench --digest <stats-dump.json> [--filter <part of cell name>]\n       \
                     perfbench --spread <run output>...";

/// Cold set-ups per run, at least, and more until [`SETUP_SECONDS`]
/// have been spent in them; `setup_s` is their median.
const SETUP_REPEATS: usize = 4;
const SETUP_SECONDS: f64 = 3.0;
/// Threads capturing a set-up's scenes (the container's two cores).
const SETUP_THREADS: usize = 2;
/// Back-to-back write halves after a simulated workload's passes, at
/// least, and more until [`PERSIST_SECONDS`] have been spent in them.
const PERSIST_REPEATS: usize = 10;
const PERSIST_SECONDS: f64 = 2.0;

/// Scratch space for caches and stores, under the working directory.
const WORK_ROOT: &str = ".perfbench-work";
/// Where traced runs leave their Chrome traces.
const TRACE_ROOT: &str = ".perfbench-traces";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 12.0, trace: false };
    let mut it = std::env::args().skip(1);
    let mut digest: Option<String> = None;
    let mut filter = String::new();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--digest" => digest = Some(value()?),
            "--spread" => {
                spread(&it.collect::<Vec<_>>())?;
                std::process::exit(0);
            }
            "--filter" => filter = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(path) = digest {
        let doc = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let cells = arith::cell_objects(&doc).len();
        let digest = arith::cells_digest(&doc, &filter);
        println!("{digest:016x}  ({cells} cells in document, filter {filter:?})");
        std::process::exit(0);
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", workloads::NAMES.join(", ")));
    }
    Ok(args)
}

/// Print, per metric over the runs whose output files are named, the
/// median and the inter-quartile distance as a share of it.
fn spread(files: &[String]) -> Result<(), String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let last = text.lines().last().ok_or_else(|| format!("{path}: empty"))?;
        let doc = drs_telemetry::check::parse(last).map_err(|e| format!("{path}: {e}"))?;
        let Some(drs_telemetry::check::Value::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{path}: no metrics object"));
        };
        for (name, m) in metrics {
            let v = m.get("value").and_then(drs_telemetry::check::Value::as_num);
            values.entry(name.clone()).or_default().extend(v);
        }
    }
    for (name, v) in &values {
        let share = if v.len() >= 2 { arith::iqr_share(v) } else { 0.0 };
        println!("{name:24} n={:2} median {:>14.6} iqr/median {:.4}", v.len(), median(v), share);
    }
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let wl = workloads::workload(&args.workload, args.seed).expect("name checked by parse_args");
    let work = PathBuf::from(WORK_ROOT).join(format!("{}-{}", wl.name, std::process::id()));
    let mut bench = Bench { wl, seed: args.seed, work, attempted: 0, failed: 0 };
    let metrics = if args.trace { bench.traced_run() } else { bench.timed_run(args.seconds) };
    let _ = std::fs::remove_dir_all(&bench.work);
    let _ = std::fs::remove_dir(WORK_ROOT); // only succeeds when no other run is using it
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.kv_bool("correct", bench.failed == 0);
    j.kv_u64("attempted", bench.attempted);
    j.kv_u64("failed", bench.failed);
    j.key("metrics");
    j.begin_obj();
    for (name, unit, value) in &metrics {
        j.key(name);
        j.begin_obj();
        j.kv_f64("value", *value);
        j.kv_str("unit", unit);
        j.end_obj();
    }
    j.end_obj();
    j.end_obj();
    println!("{}", j.finish());
}

/// Metric rows: name, unit, value.
type Metrics = Vec<(String, &'static str, f64)>;

fn put(m: &mut Metrics, name: &str, unit: &'static str, value: f64) {
    let value = if value.is_finite() { value } else { 0.0 };
    m.push((name.to_string(), unit, value));
}

/// The captures one set-up produced, by workload content key.
struct Captures {
    cache_dir: PathBuf,
    specs: Vec<WorkloadSpec>,
    streams: HashMap<u64, Arc<BounceStreams>>,
}

/// The timed half of one pass: its document and cells.
struct Pass {
    secs: f64,
    results: ResultsFile,
    doc: String,
}

struct Bench {
    wl: Workload,
    seed: u64,
    work: PathBuf,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// Count one operation; a false `ok` counts it failed and says why.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Cold capture of the workload's scenes into a fresh capture cache
    /// (plus, for `store-rerun`, deriving the stored cells), repeated as
    /// [`SETUP_REPEATS`] asks. Returns the median seconds, the last
    /// set-up's warm cache and captures, and the derived cells.
    fn setup(&mut self) -> (f64, Captures, Vec<CellResult>) {
        let mut secs = Vec::new();
        let mut last = None;
        while secs.len() < SETUP_REPEATS || secs.iter().sum::<f64>() < SETUP_SECONDS {
            let k = secs.len();
            // Free the previous set-up's captures first, so one set of
            // captures is resident at a time.
            if let Some((old, _, _)) = last.take() {
                let _ = std::fs::remove_dir_all::<PathBuf>(old);
            }
            let dir = self.fresh_dir(&format!("setup{k}"));
            let t = Instant::now();
            let cache = StreamCache::new(&dir);
            let streams: Vec<BounceStreams> =
                drs_harness::parallel_map(&self.wl.specs, SETUP_THREADS, |_, s| {
                    cache.get_or_capture(s)
                });
            let cells: Vec<CellResult> = if self.wl.from_store {
                self.wl.jobs.iter().map(|j| workloads::derived_cell(j, self.seed)).collect()
            } else {
                Vec::new()
            };
            secs.push(t.elapsed().as_secs_f64());
            let c = cache.counters();
            let n = self.wl.specs.len() as u64;
            self.check(c.misses == n && c.hits == 0 && c.store_failures == 0, || {
                format!("cold set-up expected {n} misses, got {c:?}")
            });
            last = Some((dir, streams, cells));
        }
        let (cache_dir, streams, cells) = last.expect("at least one set-up");
        let captures = Captures {
            cache_dir,
            specs: self.wl.specs.clone(),
            streams: self
                .wl
                .specs
                .iter()
                .zip(streams)
                .map(|(s, st)| (s.content_key(), Arc::new(st)))
                .collect(),
        };
        eprintln!("set-up: {} x {:?} s", secs.len(), rounded(&secs));
        (median(&secs), captures, cells)
    }

    /// The options `experiments` builds: warm capture cache, checkpoint
    /// spec set, result store where the workload uses one.
    fn options(&self, cache_dir: &Path, store: Option<Arc<ResultStore>>) -> RunOptions {
        RunOptions {
            workers: self.wl.workers,
            capture: CaptureMode::Cached(StreamCache::new(cache_dir)),
            checkpoint: Some(CheckpointSpec {
                path: self.work.join("checkpoint.json"),
                resume: false,
            }),
            store,
            ..RunOptions::serial()
        }
    }

    /// One simulated pass: regenerate the results document from the warm
    /// capture cache through the harness pool.
    fn grid_pass(&mut self, cap: &Captures) -> Pass {
        let opts = self.options(&cap.cache_dir, None);
        let t = Instant::now();
        let report = run_jobs(&self.wl.jobs, &opts);
        let results = ResultsFile::from_report(
            self.wl.mode,
            self.wl.workers,
            report,
            self.wl.figures_of.clone(),
        );
        let doc = results.to_json();
        let secs = t.elapsed().as_secs_f64();
        let n = cap.specs.len() as u64;
        let c = results.cache;
        self.check(c.hits == n && c.misses == 0, || {
            format!("warm pass expected {n} cache hits, got {c:?}")
        });
        for (_, cell) in &results.cells {
            let stream = &cap.streams[&cell.job.workload.content_key()];
            let want = if cell.job.bounce > stream.depth() {
                0
            } else {
                stream.bounce(cell.job.bounce).scripts.len() as u64
            };
            let ok = cell.completed && cell.failure.is_none() && cell.stats.rays_completed == want;
            self.check(ok, || {
                format!(
                    "cell {} completed={} failure={:?} rays {} of {want}",
                    cell.cell_name(),
                    cell.completed,
                    cell.failure.as_ref().map(|f| &f.message),
                    cell.stats.rays_completed
                )
            });
        }
        Pass { secs, results, doc }
    }

    /// Compare the pass's cells with the digest recorded at seed 0.
    fn check_digest(&mut self, results: &ResultsFile) {
        let digest = arith::cells_digest(&results.stats_json(), "");
        eprintln!("cells digest: {digest:016x}");
        if self.seed == 0 {
            let want = self.wl.digest_seed0;
            self.check(digest == want, || format!("digest {digest:016x}, recorded {want:016x}"));
        }
    }

    /// The write half: every cell into a fresh result store and every
    /// capture into a fresh capture cache. Returns (store s, cache s) and
    /// the two directories.
    fn persist(
        &mut self,
        cells: &[&CellResult],
        cap: &Captures,
        tag: &str,
    ) -> (f64, f64, PathBuf, PathBuf) {
        let dir = self.fresh_dir(tag);
        let (store_dir, cache_dir) = (dir.join("store"), dir.join("cache"));
        let store = ResultStore::new(&store_dir);
        let t = Instant::now();
        let mut store_ok = 0;
        for cell in cells {
            store_ok +=
                u64::from(store.store(cell.job.id(), &CheckpointCell::from_cell(cell)).is_ok());
        }
        let store_s = t.elapsed().as_secs_f64();
        let cache = StreamCache::new(&cache_dir);
        let t = Instant::now();
        let mut cache_ok = 0;
        for spec in &cap.specs {
            cache_ok += u64::from(cache.store(spec, &cap.streams[&spec.content_key()]).is_ok());
        }
        let cache_s = t.elapsed().as_secs_f64();
        let (n, m) = (cells.len() as u64, cap.specs.len() as u64);
        self.attempted += n + m;
        self.failed += (n - store_ok) + (m - cache_ok);
        if store_ok < n || cache_ok < m {
            eprintln!(
                "perfbench: CHECK FAILED: persisted {store_ok}/{n} cells, {cache_ok}/{m} captures"
            );
        }
        (store_s, cache_s, store_dir, cache_dir)
    }

    /// The read half of `store-rerun`: a warm store rerun through the
    /// pool (zero simulation) emitting the results document, then the
    /// captures loaded back from the persisted cache.
    fn store_pass(
        &mut self,
        store_dir: &Path,
        cache_dir: &Path,
        want_doc: &str,
        cap: &Captures,
    ) -> Pass {
        let store = Arc::new(ResultStore::new(store_dir));
        let opts = self.options(cache_dir, Some(Arc::clone(&store)));
        let t = Instant::now();
        let report = run_jobs(&self.wl.jobs, &opts);
        let results = ResultsFile::from_report(
            self.wl.mode,
            self.wl.workers,
            report,
            self.wl.figures_of.clone(),
        );
        let doc = results.to_json();
        let CaptureMode::Cached(cache) = &opts.capture else { unreachable!("options() caches") };
        // Each capture is checked and dropped as it loads, so at most one
        // read-back copy is resident.
        let depths: Vec<usize> =
            cap.specs.iter().map(|s| cache.get_or_capture(s).depth()).collect();
        let secs = t.elapsed().as_secs_f64();
        let (n, s, c) = (self.wl.jobs.len() as u64, results.store, cache.counters());
        self.check(doc == want_doc, || "warm store document differs from the written one".into());
        self.check(s.hits == n && s.quarantined == 0, || {
            format!("store rerun: {s:?} for {n} cells")
        });
        let m = cap.specs.len() as u64;
        self.check(c.hits == m && c.misses == 0, || format!("capture read-back: {c:?}"));
        for (spec, depth) in cap.specs.iter().zip(depths) {
            self.check(depth == spec.bounces, || format!("{} read back short", spec.canonical()));
        }
        Pass { secs, results, doc }
    }

    /// The document the write half's cells make, before any store.
    fn written_doc(&self, cells: &[CellResult]) -> String {
        let report = RunReport {
            cells: cells.to_vec(),
            cache: drs_harness::CacheCounters::default(),
            resumed: 0,
            checkpoint_writes: 0,
            store: drs_harness::StoreCounters::default(),
            wall_ms: 0.0,
        };
        ResultsFile::from_report(self.wl.mode, self.wl.workers, report, self.wl.figures_of.clone())
            .to_json()
    }

    /// `--trace 0`: every end-to-end metric, from untraced passes.
    fn timed_run(&mut self, seconds: f64) -> Metrics {
        let (setup_s, cap, derived) = self.setup();
        let want_doc = self.wl.from_store.then(|| self.written_doc(&derived));
        let (mut grid, mut persist, mut mcyc, mut minst) = (vec![], vec![], vec![], vec![]);
        let start = Instant::now();
        let mut stats_doc: Option<String> = None;
        let last = loop {
            let pass = if let Some(want) = &want_doc {
                let cells: Vec<&CellResult> = derived.iter().collect();
                let (st, ca, store_dir, cache_dir) = self.persist(&cells, &cap, "persist");
                persist.push(st + ca);
                self.store_pass(&store_dir, &cache_dir, want, &cap)
            } else {
                self.grid_pass(&cap)
            };
            let stats = pass.results.stats_json();
            match &stats_doc {
                None => self.check_digest(&pass.results),
                Some(first) => {
                    let same = *first == stats;
                    self.check(same, || "a repeated pass changed the results".into());
                }
            }
            stats_doc.get_or_insert(stats);
            let (cycles, insts) = work_done(&pass.results);
            grid.push(pass.secs);
            mcyc.push(cycles as f64 / pass.secs / 1e6);
            minst.push(insts as f64 / pass.secs / 1e6);
            if start.elapsed().as_secs_f64() >= seconds {
                break pass;
            }
        };
        if !self.wl.from_store {
            // The write half of a simulated workload, after its passes:
            // sub-second writes of the cells and captures, back to back,
            // each removed at once so that no dirty pages linger.
            let cells: Vec<&CellResult> = last.results.cells.iter().map(|(_, c)| c).collect();
            while persist.len() < PERSIST_REPEATS || persist.iter().sum::<f64>() < PERSIST_SECONDS {
                let (st, ca, _, _) = self.persist(&cells, &cap, "persist");
                let _ = std::fs::remove_dir_all(self.work.join("persist"));
                persist.push(st + ca);
            }
        }
        eprintln!("grid passes: {:?} s; persist: {:?} s", rounded(&grid), rounded(&persist));
        let mut m = Metrics::new();
        put(&mut m, "setup_s", "s", setup_s);
        put(&mut m, "grid_s", "s", median(&grid));
        put(&mut m, "persist_s", "s", median(&persist));
        put(&mut m, "sim_mcycles_per_s", "Mcycles/s", median(&mcyc));
        put(&mut m, "sim_minsts_per_s", "Minsts/s", median(&minst));
        put(&mut m, "peak_rss_mb", "MB", peak_rss_mb());
        m
    }

    /// `--trace 1`: every per-layer metric. Calls into each layer are
    /// timed from here; spans go to a Chrome trace at the end.
    fn traced_run(&mut self) -> Metrics {
        let spans = Spans::new();
        let main = At { parent: None, tid: 0, job: None };
        let run_t = Instant::now();
        let run_id = spans.id();
        let top = At { parent: Some(run_id), ..main };
        let mut m = Metrics::new();

        // Capture layer, stage by stage, then the capture cache.
        let capture_id = spans.id();
        let capture_t = Instant::now();
        let stage = At { parent: Some(capture_id), ..main };
        let (mut scene_s, mut bvh_s, mut walk_s) = (0.0, 0.0, 0.0);
        let (mut rays, mut steps, mut bytes) = (0u64, 0u64, 0u64);
        let mut streams = HashMap::new();
        for spec in &self.wl.specs.clone() {
            let t = Instant::now();
            let scene = spec.scene.build_with_tris(spec.tris);
            scene_s += t.elapsed().as_secs_f64();
            spans.record("capture.scene", stage, t);
            let t = Instant::now();
            let bvh = Bvh::build(scene.mesh(), &BuildParams::default());
            bvh_s += t.elapsed().as_secs_f64();
            spans.record("capture.bvh", stage, t);
            let t = Instant::now();
            let st =
                BounceStreams::capture_with_bvh(&scene, &bvh, spec.rays, spec.bounces, spec.seed);
            walk_s += t.elapsed().as_secs_f64();
            spans.record("capture.walk", stage, t);
            for b in st.iter() {
                rays += b.scripts.len() as u64;
                steps += b.scripts.iter().map(|s| s.steps().len() as u64).sum::<u64>();
            }
            let staged = encode(&st);
            let reference = encode(&spec.capture());
            self.check(staged == reference, || {
                format!("{}: staged capture differs", spec.canonical())
            });
            bytes += staged.len() as u64;
            streams.insert(spec.content_key(), Arc::new(st));
        }
        spans.record_as(capture_id, "capture", top, capture_t, capture_t.elapsed());
        let mut cap = Captures { cache_dir: PathBuf::new(), specs: self.wl.specs.clone(), streams };
        put(&mut m, "capture.scene_s", "s", scene_s);
        put(&mut m, "capture.bvh_s", "s", bvh_s);
        put(&mut m, "capture.walk_s", "s", walk_s);
        put(&mut m, "capture.rays", "count", rays as f64);
        put(&mut m, "capture.steps", "count", steps as f64);
        put(&mut m, "capture.bytes", "bytes", bytes as f64);

        let derived: Vec<CellResult> = if self.wl.from_store {
            self.wl.jobs.iter().map(|j| workloads::derived_cell(j, self.seed)).collect()
        } else {
            Vec::new()
        };

        // Untraced reference pass (pool metrics, trace overhead base).
        let t = Instant::now();
        let (untraced, cache_write_s, store_write_s, store_dir, cache_dir) = if self.wl.from_store {
            let cells: Vec<&CellResult> = derived.iter().collect();
            let (st, ca, sd, cd) = self.persist(&cells, &cap, "persist");
            cap.cache_dir.clone_from(&cd);
            let want = self.written_doc(&derived);
            (self.store_pass(&sd, &cd, &want, &cap), ca, st, sd, cd)
        } else {
            let cells: Vec<&CellResult> = Vec::new();
            let (_, ca, _, cd) = self.persist(&cells, &cap, "warm");
            cap.cache_dir.clone_from(&cd);
            let pass = self.grid_pass(&cap);
            let cells: Vec<&CellResult> = pass.results.cells.iter().map(|(_, c)| c).collect();
            let (st, _, sd, _) = self.persist(&cells, &cap, "persist");
            (pass, ca, st, sd, cd)
        };
        spans.record("pass.untraced", top, t);
        self.check_digest(&untraced.results);

        // Traced pass.
        let traced_id = spans.id();
        let t = Instant::now();
        let pass_at = At { parent: Some(traced_id), ..main };
        let (doc, json_s, traced_cells) = if self.wl.from_store {
            // The same warm store rerun as the untraced pass; per-entry
            // store reads are timed after the pass, outside its span.
            let opts = self.options(&cache_dir, Some(Arc::new(ResultStore::new(&store_dir))));
            let tp = Instant::now();
            let report = run_jobs(&self.wl.jobs, &opts);
            spans.record("pool.store_rerun", pass_at, tp);
            let tj = Instant::now();
            let results = ResultsFile::from_report(
                self.wl.mode,
                self.wl.workers,
                report,
                self.wl.figures_of.clone(),
            );
            let doc = results.to_json();
            spans.record("results.json", pass_at, tj);
            let json_s = tj.elapsed().as_secs_f64();
            self.check(doc == untraced.doc, || "traced store rerun differs from the pass".into());
            (doc, json_s, Vec::new())
        } else {
            let traced =
                traced::run_cells(&self.wl.jobs, &cap.streams, self.wl.workers, &spans, traced_id);
            let tj = Instant::now();
            let doc = untraced.results.to_json();
            spans.record("results.json", pass_at, tj);
            (doc, tj.elapsed().as_secs_f64(), traced)
        };
        let tc = Instant::now();
        let cache = StreamCache::new(&cache_dir);
        let mut depths_ok = true;
        for spec in &cap.specs {
            depths_ok &= cache.get_or_capture(spec).depth() == spec.bounces;
        }
        let cache_read_s = tc.elapsed().as_secs_f64();
        let read_bytes: u64 = cap
            .specs
            .iter()
            .map(|s| std::fs::metadata(cache.path_for(s)).map_or(0, |m| m.len()))
            .sum();
        spans.record("cache.read", pass_at, tc);
        let traced_s = t.elapsed().as_secs_f64();
        spans.record_as(traced_id, "pass.traced", top, t, t.elapsed());
        let c = cache.counters();
        self.check(depths_ok && c.hits == cap.specs.len() as u64 && read_bytes == bytes, || {
            format!("capture cache read-back: {c:?}, {read_bytes} of {bytes} bytes")
        });
        // Every cell read back from the store, one lookup at a time.
        let read_store = ResultStore::new(&store_dir);
        let tl = Instant::now();
        for (_, cell) in &untraced.results.cells {
            let ok = read_store.lookup(cell.job.id()).is_some();
            self.check(ok, || format!("store miss for {}", cell.job.id()));
        }
        let store_read_s = tl.elapsed().as_secs_f64();
        spans.record("store.read", top, tl);
        let quarantined = read_store.counters().quarantined + untraced.results.store.quarantined;
        self.check(quarantined == 0, || format!("{quarantined} store entries quarantined"));

        put(&mut m, "cache.write_s", "s", cache_write_s);
        put(&mut m, "cache.read_s", "s", cache_read_s);
        put(&mut m, "cache.read_mb_per_s", "MB/s", read_bytes as f64 / cache_read_s / 1e6);
        put(&mut m, "cache.hits", "count", c.hits as f64);
        put(&mut m, "cache.misses", "count", c.misses as f64);
        put(&mut m, "store.write_s", "s", store_write_s);
        put(&mut m, "store.read_s", "s", store_read_s);
        put(&mut m, "store.entries", "count", untraced.results.cells.len() as f64);
        put(&mut m, "store.quarantined", "count", quarantined as f64);
        put(&mut m, "results.json_s", "s", json_s);
        put(&mut m, "results.bytes", "bytes", doc.len() as f64);

        // Pool, from the untraced pass.
        let cells: Vec<&CellResult> = untraced.results.cells.iter().map(|(_, c)| c).collect();
        let cell_s_sum: f64 = cells.iter().map(|c| c.wall_ms / 1e3).sum();
        let workers = self.wl.workers;
        put(&mut m, "pool.cell_s_sum", "s", if self.wl.from_store { 0.0 } else { cell_s_sum });
        let (idle, overhead) = if self.wl.from_store {
            (0.0, 0.0)
        } else {
            (
                arith::idle_frac(cell_s_sum, workers, untraced.secs),
                untraced.results.wall_ms / 1e3 - cell_s_sum / workers as f64,
            )
        };
        put(&mut m, "pool.idle_frac", "ratio", idle);
        put(&mut m, "pool.overhead_s", "s", overhead);

        self.sim_metrics(&mut m, &cells, &traced_cells);
        self.accuracy_metrics(&mut m, &cells);

        let overhead_pct = (traced_s - untraced.secs) / untraced.secs * 100.0;
        eprintln!("untraced pass {:.3} s, traced pass {traced_s:.3} s", untraced.secs);
        put(&mut m, "trace.overhead_pct", "%", overhead_pct);

        spans.record_as(
            run_id,
            &format!("workload.{}", self.wl.name),
            main,
            run_t,
            run_t.elapsed(),
        );
        self.write_trace(&spans);
        // Last, so that it counts every check, the trace's included.
        put(&mut m, "failed_frac", "ratio", ratio(self.failed, self.attempted));
        m
    }

    /// Engine, special-unit, modelled-memory and chip metrics.
    fn sim_metrics(
        &mut self,
        m: &mut Metrics,
        cells: &[&CellResult],
        traced: &[Option<traced::TracedCell>],
    ) {
        let mut fam_s: BTreeMap<&str, f64> = BTreeMap::new();
        let mut fam_cycles: BTreeMap<&str, u64> = BTreeMap::new();
        let mut fam_calls: BTreeMap<&str, CallTotals> = BTreeMap::new();
        let mut fam_traced_s: BTreeMap<&str, f64> = BTreeMap::new();
        let (mut traced_s, mut all_calls, mut all_cycles) = (0.0, CallTotals::default(), 0u64);
        let (mut rd_stall, mut rd_issue, mut swaps) = (0u64, 0u64, 0u64);
        let (mut l1t, mut l1d, mut l2) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
        let (mut trans, mut conflicts) = (0u64, 0u64);
        let (mut chip_s, mut chip_sm_cycles, mut imbalance) = (0.0, 0u64, Vec::new());
        let (mut requests, mut dramq, mut bankc, mut mshr, mut chip_l2) =
            (0u64, 0u64, 0u64, 0u64, (0u64, 0u64));
        if !self.wl.from_store {
            for (cell, tc) in cells.iter().zip(traced) {
                let Some(tc) = tc else { continue };
                let fam = traced::family(cell.job.method);
                let st = &cell.stats;
                let cycles = sm_cycles(cell);
                *fam_s.entry(fam).or_default() += cell.wall_ms / 1e3;
                *fam_cycles.entry(fam).or_default() += cycles;
                fam_calls.entry(fam).or_default().add(&tc.calls);
                *fam_traced_s.entry(fam).or_default() += tc.cell_s;
                traced_s += tc.cell_s;
                all_calls.add(&tc.calls);
                all_cycles += tc.cycles();
                let same = tc.stats.as_ref().is_ok_and(|s| s == st);
                self.check(same && tc.cycles() == cycles, || {
                    format!("traced {} differs from the untraced cell", cell.cell_name())
                });
                rd_stall += st.rdctrl_stalls;
                rd_issue += st.rdctrl_issued;
                swaps += st.swaps_completed;
                for (acc, c) in [(&mut l1t, st.l1t), (&mut l1d, st.l1d), (&mut l2, st.l2)] {
                    acc.0 += c.hits;
                    acc.1 += c.misses;
                }
                trans += st.mem_transactions;
                conflicts += st.bank_conflicts;
                if let Some(chip) = &cell.chip {
                    chip_s += cell.wall_ms / 1e3;
                    chip_sm_cycles += cycles;
                    let per = &chip.per_sm_cycles;
                    let mean = per.iter().sum::<u64>() as f64 / per.len().max(1) as f64;
                    imbalance.push(per.iter().copied().max().unwrap_or(0) as f64 / mean);
                    requests += chip.requests;
                    dramq += chip.dram_queue_cycles;
                    bankc += chip.bank_conflict_cycles;
                    mshr += chip.mshr_waits;
                    chip_l2.0 += chip.l2_hits;
                    chip_l2.1 += chip.l2_misses;
                }
            }
        }
        let get = |map: &BTreeMap<&str, f64>, k: &str| map.get(k).copied().unwrap_or(0.0);
        for fam in ["aila", "dmk", "tbc", "drs"] {
            let s = get(&fam_s, fam);
            put(m, &format!("sim.{fam}.cell_s"), "s", s);
            let cyc = fam_cycles.get(fam).copied().unwrap_or(0);
            put(m, &format!("sim.{fam}.ns_per_cycle"), "ns", ns_per_cycle(s, cyc));
        }
        put(m, "sim.engine_self_s", "s", traced_s - all_calls.unit_s());
        let skipped = all_cycles.saturating_sub(all_calls.tick_calls);
        put(m, "sim.steps", "count", all_calls.tick_calls as f64);
        put(m, "sim.skipped_cycles", "count", skipped as f64);
        put(m, "sim.skip_frac", "ratio", ratio(skipped, all_cycles));
        put(m, "sim.wake_queries", "count", all_calls.wake_calls as f64);
        put(m, "sim.skip_per_query", "cycles", ratio(skipped, all_calls.wake_calls));
        put(m, "behavior.calls", "count", all_calls.behavior_calls as f64);

        let drs = fam_calls.get("drs").copied().unwrap_or_default();
        put(m, "drs.tick_s", "s", drs.tick_s);
        put(m, "drs.issue_s", "s", drs.issue_s);
        put(m, "drs.wake_s", "s", drs.wake_s);
        put(m, "drs.share", "ratio", share(drs.unit_s(), get(&fam_traced_s, "drs")));
        put(m, "drs.issue_calls", "count", drs.issue_calls as f64);
        put(m, "drs.rdctrl_stall_frac", "ratio", ratio(rd_stall, rd_stall + rd_issue));
        put(m, "drs.swaps", "count", swaps as f64);
        for fam in ["dmk", "tbc"] {
            let c = fam_calls.get(fam).copied().unwrap_or_default();
            put(m, &format!("{fam}.tick_s"), "s", c.tick_s);
            put(m, &format!("{fam}.issue_s"), "s", c.issue_s);
            put(m, &format!("{fam}.share"), "ratio", share(c.unit_s(), get(&fam_traced_s, fam)));
        }
        put(m, "mem.l1t_hit_rate", "ratio", ratio(l1t.0, l1t.0 + l1t.1));
        put(m, "mem.l1d_hit_rate", "ratio", ratio(l1d.0, l1d.0 + l1d.1));
        put(m, "mem.l2_hit_rate", "ratio", ratio(l2.0, l2.0 + l2.1));
        put(m, "mem.transactions", "count", trans as f64);
        put(m, "mem.bank_conflicts", "count", conflicts as f64);
        put(m, "chip.cell_s", "s", chip_s);
        put(m, "chip.ns_per_sm_cycle", "ns", ns_per_cycle(chip_s, chip_sm_cycles));
        put(m, "chip.requests", "count", requests as f64);
        put(m, "chip.l2_hit_rate", "ratio", ratio(chip_l2.0, chip_l2.0 + chip_l2.1));
        put(m, "chip.dram_queue_cycles", "cycles", dramq as f64);
        put(m, "chip.bank_conflict_cycles", "cycles", bankc as f64);
        put(m, "chip.mshr_waits", "count", mshr as f64);
        let imb = if imbalance.is_empty() { 0.0 } else { median(&imbalance) };
        put(m, "chip.sm_imbalance", "ratio", imb);
    }

    /// DRS speedup over Aila from aggregate rates over the workload's
    /// bounces, against the paper's Fig. 11 value.
    fn accuracy_metrics(&mut self, m: &mut Metrics, cells: &[&CellResult]) {
        let (mut speedup, mut err) = (0.0, 0.0);
        if let Some((scene, paper)) = self.wl.paper {
            let sum = |pick: &dyn Fn(&CellResult) -> bool| {
                cells.iter().filter(|c| pick(c)).fold((0u64, 0u64), |(r, y), c| {
                    (r + c.stats.rays_completed, y + c.stats.cycles)
                })
            };
            let aila = sum(&|c| c.job.method == drs_harness::Method::Aila);
            let drs = sum(&|c| c.job.method == drs_harness::Method::drs_default());
            speedup = arith::rate(drs.0, drs.1) / arith::rate(aila.0, aila.1);
            err = arith::paper_err_pct(speedup, paper);
            eprintln!(
                "{scene}: DRS speedup over Aila {speedup:.4} (paper {paper}), error {err:.2}%"
            );
        }
        put(m, "paper_err_pct", "%", err);
        put(m, "drs_speedup", "x", speedup);
    }

    fn write_trace(&mut self, spans: &Spans) {
        let json = spans.chrome_json(&format!("perfbench {} seed {}", self.wl.name, self.seed));
        let valid = drs_telemetry::check::validate_chrome_trace(&json);
        self.check(valid.is_ok(), || format!("chrome trace invalid: {valid:?}"));
        let path =
            PathBuf::from(TRACE_ROOT).join(format!("{}-seed{}.json", self.wl.name, self.seed));
        let written =
            std::fs::create_dir_all(TRACE_ROOT).and_then(|()| std::fs::write(&path, &json));
        self.check(written.is_ok(), || format!("{}: {written:?}", path.display()));
        if let Ok(summary) = valid {
            eprintln!("chrome trace -> {} ({} spans)", path.display(), summary.duration_events);
        }
    }
}

/// A cell's simulated cycles, summed over SMs for a chip cell.
fn sm_cycles(cell: &CellResult) -> u64 {
    cell.chip.as_ref().map_or(cell.stats.cycles, |chip| chip.per_sm_cycles.iter().sum())
}

/// Simulated cycles (summed over SMs) and warp instructions in a document.
fn work_done(results: &ResultsFile) -> (u64, u64) {
    results.cells.iter().fold((0, 0), |(cyc, ins), (_, c)| {
        (cyc + sm_cycles(c), ins + c.stats.issued.total + c.stats.issued_si.total)
    })
}

fn encode(streams: &BounceStreams) -> Vec<u8> {
    let mut out = Vec::new();
    streams.save(&mut out).expect("writing to memory cannot fail");
    out
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}

/// The process's high-water resident set, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
