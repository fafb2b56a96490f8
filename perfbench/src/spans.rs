//! In-memory span recording for the traced run, written out once at the
//! end as a Chrome trace (`chrome://tracing` / Perfetto).
//!
//! Spans nest workload → stage (capture, pass, persist) → cell →
//! special-unit totals. Each span carries its own id and its parent's;
//! every span of a cell carries that cell's `JobId`.

use drs_harness::JobId;
use drs_sim::JsonBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    tid: u64,
    start: Duration,
    dur: Duration,
    job: Option<JobId>,
    calls: Option<u64>,
}

/// A thread-safe span log with one time origin.
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Where a new span hangs: its parent and the thread row it draws on.
#[derive(Debug, Clone, Copy)]
pub struct At {
    pub parent: Option<u64>,
    pub tid: u64,
    pub job: Option<JobId>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Reserve an id, so children can name their parent before the
    /// parent span is closed.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a closed span under a reserved `id`.
    pub fn record_as(&self, id: u64, name: &str, at: At, start: Instant, dur: Duration) {
        self.push(Span {
            id,
            parent: at.parent,
            name: name.to_string(),
            tid: at.tid,
            start: start.saturating_duration_since(self.origin),
            dur,
            job: at.job,
            calls: None,
        });
    }

    /// Record a closed span `[start, now)` and return its id.
    pub fn record(&self, name: &str, at: At, start: Instant) -> u64 {
        let id = self.id();
        self.record_as(id, name, at, start, start.elapsed());
        id
    }

    /// Record a summed per-call total (time inside one special-unit
    /// entry point over a whole cell) as a child drawn from `start`.
    pub fn total(&self, name: &str, at: At, start: Instant, secs: f64, calls: u64) {
        self.push(Span {
            id: self.id(),
            parent: at.parent,
            name: name.to_string(),
            tid: at.tid,
            start: start.saturating_duration_since(self.origin),
            dur: Duration::from_secs_f64(secs.max(0.0)),
            job: at.job,
            calls: Some(calls),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log lock poisoned by a panicking recorder").push(span);
    }

    /// The Chrome trace document: one process named `process`, one
    /// thread row per `tid`.
    pub fn chrome_json(&self, process: &str) -> String {
        let spans = self.spans.lock().expect("span log lock poisoned by a panicking recorder");
        let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("traceEvents");
        j.begin_arr();
        meta(&mut j, None, "process_name", process);
        for tid in tids {
            let label = if tid == 0 { "main".to_string() } else { format!("worker {tid}") };
            meta(&mut j, Some(tid), "thread_name", &label);
        }
        for s in spans.iter() {
            j.begin_obj();
            j.kv_str("name", &s.name);
            j.kv_str("cat", s.name.split('.').next().unwrap_or("span"));
            j.kv_str("ph", "X");
            j.kv_u64("pid", 1);
            j.kv_u64("tid", s.tid);
            j.kv_f64("ts", s.start.as_secs_f64() * 1e6);
            j.kv_f64("dur", s.dur.as_secs_f64() * 1e6);
            j.key("args");
            j.begin_obj();
            j.kv_u64("span", s.id);
            if let Some(p) = s.parent {
                j.kv_u64("parent", p);
            }
            if let Some(job) = s.job {
                j.kv_str("job", &job.to_string());
            }
            if let Some(calls) = s.calls {
                j.kv_u64("calls", calls);
            }
            j.end_obj();
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

fn meta(j: &mut JsonBuf, tid: Option<u64>, what: &str, name: &str) {
    j.begin_obj();
    j.kv_str("name", what);
    j.kv_str("ph", "M");
    j.kv_u64("pid", 1);
    if let Some(tid) = tid {
        j.kv_u64("tid", tid);
    }
    j.key("args");
    j.begin_obj();
    j.kv_str("name", name);
    j.end_obj();
    j.end_obj();
}
