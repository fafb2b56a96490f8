//! The traced pass: every cell's engine built from the simulator's public
//! constructors, exactly as `drs_harness::runner` builds it, with the
//! special unit and the kernel behaviour wrapped in the benchmark's
//! shims. Chip cells shard the stream over per-SM engines and run
//! `drs_chip::run_chip` with one chip thread.

use crate::shims::{CallTotals, CountingBehavior, TimedUnit};
use crate::spans::{At, Spans};
use drs_baselines::{DmkConfig, DmkKernel, DmkUnit, TbcConfig, TbcUnit};
use drs_core::system::RowedWhileIf;
use drs_core::{DrsConfig, DrsUnit, RAY_REGISTERS};
use drs_harness::{Method, SimJob};
use drs_kernels::{WhileIfKernel, WhileWhileConfig, WhileWhileKernel};
use drs_sim::{GpuConfig, NullSpecial, SimStats, Simulation};
use drs_trace::{BounceStreams, RayScript};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One traced cell's outcome.
pub struct TracedCell {
    /// Single-SMX stats, or the chip-wide aggregate.
    pub stats: Result<SimStats, String>,
    /// Per-SM cycles (one entry for a single-SMX cell).
    pub sm_cycles: Vec<u64>,
    /// Host seconds from engine construction to finished stats.
    pub cell_s: f64,
    pub calls: CallTotals,
}

impl TracedCell {
    /// Simulated cycles summed over SMs.
    pub fn cycles(&self) -> u64 {
        self.sm_cycles.iter().sum()
    }
}

/// The method family a cell's special unit belongs to.
pub fn family(method: Method) -> &'static str {
    match method {
        Method::Aila | Method::AilaVariant { .. } => "aila",
        Method::Dmk => "dmk",
        Method::Tbc => "tbc",
        Method::Drs { .. } | Method::IdealDrs => "drs",
    }
}

/// Run every non-empty cell of `jobs` traced, on `workers` threads
/// pulling cells in order (like the pool). `None` marks an empty cell.
pub fn run_cells(
    jobs: &[SimJob],
    streams: &HashMap<u64, Arc<BounceStreams>>,
    workers: usize,
    spans: &Spans,
    parent: u64,
) -> Vec<Option<TracedCell>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TracedCell>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for worker in 1..=workers.max(1) {
            let (next, slots) = (&next, &slots);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let stream = &streams[&job.workload.content_key()];
                if job.bounce > stream.depth() || stream.bounce(job.bounce).scripts.is_empty() {
                    continue;
                }
                let at = At { parent: Some(parent), tid: worker as u64, job: Some(job.id()) };
                let cell = run_cell(job, &stream.bounce(job.bounce).scripts, spans, at);
                *slots[i].lock().expect("slot lock poisoned") = Some(cell);
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner().expect("slot lock poisoned")).collect()
}

fn run_cell(job: &SimJob, scripts: &[RayScript], spans: &Spans, at: At) -> TracedCell {
    let id = spans.id();
    let totals = Mutex::new(CallTotals::default());
    let gpu = GpuConfig { max_warps: job.warps, max_cycles: 4_000_000_000, ..GpuConfig::gtx780() };
    let start = Instant::now();
    let (stats, sm_cycles) = match job.chip {
        None => {
            let mut sim = build(job, gpu, scripts, &totals);
            sim.set_fastpath(true);
            match sim.run() {
                Ok(s) => {
                    let c = s.cycles;
                    (Ok(s), vec![c])
                }
                Err(e) => (Err(e.to_string()), Vec::new()),
            }
        }
        Some(chip) => {
            let n = scripts.len();
            let lanes: Vec<Simulation<'_>> = (0..chip.sms)
                .map(|sm| {
                    let shard = &scripts[sm * n / chip.sms..(sm + 1) * n / chip.sms];
                    let mut sim = build(job, gpu.clone(), shard, &totals);
                    sim.set_fastpath(true);
                    sim
                })
                .collect();
            match drs_chip::run_chip(lanes, &gpu, &chip, 1) {
                Ok(r) => (Ok(r.aggregate), r.per_sm.iter().map(|s| s.cycles).collect()),
                Err(e) => (Err(e.to_string()), Vec::new()),
            }
        }
    };
    let cell_s = start.elapsed().as_secs_f64();
    // The engines (and the shims inside them) are dropped by now, so
    // every shim has flushed into `totals`.
    let calls = totals.into_inner().expect("totals lock poisoned");
    let cell_at = At { parent: Some(id), ..at };
    let fam = family(job.method);
    spans.total(&format!("special.{fam}.tick"), cell_at, start, calls.tick_s, calls.tick_calls);
    spans.total(&format!("special.{fam}.issue"), cell_at, start, calls.issue_s, calls.issue_calls);
    spans.total(&format!("special.{fam}.wake"), cell_at, start, calls.wake_s, calls.wake_calls);
    spans.record_as(id, &format!("cell.{fam}"), at, start, start.elapsed());
    TracedCell { stats, sm_cycles, cell_s, calls }
}

/// One engine for `job` over `scripts`, its unit and behaviour wrapped.
fn build<'w>(
    job: &SimJob,
    gpu: GpuConfig,
    scripts: &'w [RayScript],
    totals: &'w Mutex<CallTotals>,
) -> Simulation<'w> {
    let warps = job.warps;
    match job.method {
        Method::Aila => aila(WhileWhileConfig::default(), gpu, scripts, totals),
        Method::AilaVariant { speculative_traversal, replace_terminated } => aila(
            WhileWhileConfig { speculative_traversal, replace_terminated },
            gpu,
            scripts,
            totals,
        ),
        Method::Dmk => {
            let dmk = DmkConfig { warps, lanes: 32, pool_slots: warps * 32 };
            let k = DmkKernel::new(dmk);
            Simulation::new(
                gpu,
                k.program(),
                Box::new(CountingBehavior::new(k, totals)),
                Box::new(TimedUnit::new(DmkUnit::new(dmk), totals)),
                scripts,
            )
        }
        Method::Tbc => {
            let k = WhileIfKernel::new();
            let tbc = TbcConfig { warps, lanes: 32, warps_per_block: 6.min(warps) };
            Simulation::new(
                gpu,
                k.program(),
                Box::new(CountingBehavior::new(k, totals)),
                Box::new(TimedUnit::new(TbcUnit::new(tbc), totals)),
                scripts,
            )
        }
        Method::Drs { backup_rows, swap_buffers, .. } => {
            let drs = DrsConfig { warps, backup_rows, swap_buffers, ideal: false, lanes: 32 };
            drs_sim(drs, gpu, scripts, totals)
        }
        Method::IdealDrs => {
            let drs = DrsConfig { warps, backup_rows: 1, swap_buffers: 6, ideal: true, lanes: 32 };
            drs_sim(drs, gpu, scripts, totals)
        }
    }
}

fn aila<'w>(
    cfg: WhileWhileConfig,
    gpu: GpuConfig,
    scripts: &'w [RayScript],
    totals: &'w Mutex<CallTotals>,
) -> Simulation<'w> {
    let k = WhileWhileKernel::new(cfg);
    Simulation::new(
        gpu,
        k.program(),
        Box::new(CountingBehavior::new(k, totals)),
        Box::new(TimedUnit::new(NullSpecial, totals)),
        scripts,
    )
}

fn drs_sim<'w>(
    drs: DrsConfig,
    gpu: GpuConfig,
    scripts: &'w [RayScript],
    totals: &'w Mutex<CallTotals>,
) -> Simulation<'w> {
    let program = WhileIfKernel::new().program();
    let behavior = RowedWhileIf::new(drs.rows());
    let unit = DrsUnit::with_ray_regs(drs, RAY_REGISTERS as u8);
    Simulation::new(
        gpu,
        program,
        Box::new(CountingBehavior::new(behavior, totals)),
        Box::new(TimedUnit::new(unit, totals)),
        scripts,
    )
}
