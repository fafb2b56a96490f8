//! The four named workloads: which cells each runs, on how many threads,
//! and what a seed changes.

use drs_harness::{
    figures, CellResult, ChipConfig, JobId, JobSet, Method, Scale, SimJob, WorkloadSpec,
};
use drs_scene::SceneKind;
use drs_sim::{ActiveHistogram, CacheStats, SimStats};
use std::collections::HashMap;

/// The paper's Fig. 11 DRS-over-Aila speedups the accuracy figure is
/// taken against — the only reference values the benchmark uses.
pub const PAPER_SPEEDUP_CONFERENCE: f64 = 1.84;
pub const PAPER_SPEEDUP_SPONZA: f64 = 1.67;

/// One benchmark workload, fully resolved for a seed.
pub struct Workload {
    pub name: &'static str,
    /// Mode label of the results document.
    pub mode: &'static str,
    /// The cells, in document order, with the figures that use each.
    pub jobs: Vec<SimJob>,
    pub figures_of: Vec<Vec<String>>,
    /// Distinct captures the cells read, in first-use order.
    pub specs: Vec<WorkloadSpec>,
    pub workers: usize,
    /// Serve every cell from a result store instead of simulating.
    pub from_store: bool,
    /// Scene label and paper speedup for the accuracy figure.
    pub paper: Option<(&'static str, f64)>,
    /// `cells_digest` of the results at seed 0 (the standard seeds).
    pub digest_seed0: u64,
}

/// Names accepted by `--workload`.
pub const NAMES: [&str; 4] = ["fig11-conf", "fig9-drs", "chip-sponza", "store-rerun"];

/// The capture seed for `seed`: seed 0 is the standard
/// `0xD125_0000 + tris` formula `experiments` uses; other seeds shift it
/// by whole multiples of 2^32, clear of every scene's standard seed.
pub fn reseed(spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    WorkloadSpec { seed: spec.seed.wrapping_add(seed << 32), ..spec }
}

fn reseeded(jobs: Vec<SimJob>, seed: u64) -> Vec<SimJob> {
    jobs.into_iter().map(|j| SimJob { workload: reseed(j.workload, seed), ..j }).collect()
}

fn distinct_specs(mode: &str, jobs: &[SimJob]) -> Vec<WorkloadSpec> {
    JobSet { name: mode.to_string(), jobs: jobs.to_vec() }.distinct_workloads()
}

/// Resolve a workload by name for `seed`, at the default scale.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let scale = Scale::default();
    let fig11 = figures::fig11(&scale).jobs;
    let (mode, jobs, workers, paper, digest_seed0) = match name {
        "fig11-conf" => {
            let jobs = fig11.into_iter().filter(|j| j.workload.scene == SceneKind::Conference);
            let paper = Some(("conference room", PAPER_SPEEDUP_CONFERENCE));
            ("fig11", reseeded(jobs.collect(), seed), 2, paper, 0xe747_974b_4fc9_ddd6)
        }
        "fig9-drs" => {
            // Bounce 2 of each (scene, M) point: the divergent
            // secondary-ray regime, in a run length the time budget fits.
            let jobs = figures::fig9(&scale).jobs.into_iter().filter(|j| j.bounce == 2);
            ("fig9", reseeded(jobs.collect(), seed), 1, None, 0x5080_3c58_e643_8e22)
        }
        "chip-sponza" => {
            // Chip cells run on one chip thread (the `RunOptions` default):
            // with two, the window barrier parks a core on every window,
            // and on a shared two-core VM the wake-up latency made pass
            // times vary fourfold from run to run.
            let chip = ChipConfig::gtx780(15);
            let jobs = fig11
                .into_iter()
                .filter(|j| {
                    j.workload.scene == SceneKind::CrytekSponza
                        && matches!(j.method, Method::Aila | Method::Drs { .. })
                        && (2..=4).contains(&j.bounce)
                })
                .map(|j| SimJob { chip: Some(chip), ..j });
            let paper = Some(("crytek sponza", PAPER_SPEEDUP_SPONZA));
            ("fig11", reseeded(jobs.collect(), seed), 1, paper, 0x0416_2949_2eec_7211)
        }
        "store-rerun" => return Some(store_rerun(&scale, seed)),
        _ => return None,
    };
    let figures_of = vec![vec![mode.to_string()]; jobs.len()];
    let specs = distinct_specs(mode, &jobs);
    Some(Workload {
        name: NAMES.iter().copied().find(|n| *n == name).expect("known name"),
        mode,
        jobs,
        figures_of,
        specs,
        workers,
        from_store: false,
        paper,
        digest_seed0,
    })
}

/// Every default-scale cell of the `all` grid, deduped by id exactly as
/// `experiments all` dedupes it, with the figures that use each.
fn store_rerun(scale: &Scale, seed: u64) -> Workload {
    let mut jobs: Vec<SimJob> = Vec::new();
    let mut figures_of: Vec<Vec<String>> = Vec::new();
    let mut index: HashMap<JobId, usize> = HashMap::new();
    for mode in ["fig2", "fig8", "fig9", "table2", "fig10", "fig11", "ablation", "energy"] {
        let set = figures::by_name(mode, scale).expect("simulated figure");
        for job in reseeded(set.jobs, seed) {
            let slot = *index.entry(job.id()).or_insert_with(|| {
                jobs.push(job);
                figures_of.push(Vec::new());
                jobs.len() - 1
            });
            figures_of[slot].push(mode.to_string());
        }
    }
    let specs = distinct_specs("all", &jobs);
    Workload {
        name: "store-rerun",
        mode: "all",
        jobs,
        figures_of,
        specs,
        workers: 1,
        from_store: true,
        paper: None,
        digest_seed0: 0x0be3_21f1_0c90_dcb5,
    }
}

/// A deterministic stand-in result for a store-served cell: counters
/// drawn from the job id and the seed, shaped like a real cell's (every
/// histogram and cache counter populated, a per-block issue profile).
/// The store and the results writer see the same bytes a simulated cell
/// of this shape would give them; no simulation runs. Cycle and issue
/// counts stay within ±10% of fixed magnitudes, so the served totals the
/// `sim_*` rates divide by barely move with the seed.
pub fn derived_cell(job: &SimJob, seed: u64) -> CellResult {
    let mut x = job.id().0 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |lo: u64, span: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        lo + x % span
    };
    let hist = |next: &mut dyn FnMut(u64, u64) -> u64| {
        let buckets = [0; 4].map(|_| next(450_000, 100_000));
        let total = buckets.iter().sum();
        ActiveHistogram { buckets, total, active_sum: total * next(4, 28) }
    };
    let issued = hist(&mut next);
    let issued_si =
        if job.method == Method::Dmk { hist(&mut next) } else { ActiveHistogram::default() };
    let cache = |next: &mut dyn FnMut(u64, u64) -> u64| CacheStats {
        hits: next(1, 1 << 22),
        misses: next(1, 1 << 20),
    };
    let stats = SimStats {
        cycles: next(900_000, 200_000),
        issued,
        issued_si,
        loads: next(1, 1 << 20),
        stores: next(1, 1 << 16),
        mem_transactions: next(1, 1 << 22),
        rdctrl_stalls: next(0, 1 << 16),
        rdctrl_issued: next(0, 1 << 18),
        regfile_reads: next(1, 1 << 24),
        regfile_writes: next(1, 1 << 23),
        bank_conflicts: next(0, 1 << 18),
        swap_accesses: next(0, 1 << 18),
        swaps_completed: next(0, 1 << 14),
        swap_cycle_sum: next(0, 1 << 20),
        spawn_bank_conflict_cycles: next(0, 1 << 12),
        sync_wait_cycles: next(0, 1 << 16),
        l1t: cache(&mut next),
        l1d: cache(&mut next),
        l2: cache(&mut next),
        rays_completed: job.workload.rays as u64,
        block_profile: ["fetch", "trav_inner", "trav_leaf", "prim_test", "shade", "exit"]
            .iter()
            .map(|b| ((*b).to_string(), next(1, 1 << 20), next(1, 1 << 24)))
            .collect(),
    };
    CellResult {
        job: *job,
        empty: false,
        completed: true,
        stats,
        telemetry: None,
        sm_telemetry: Vec::new(),
        chip_telemetry: None,
        failure: None,
        chip: None,
        attempts: 1,
        wall_ms: next(100, 3_000) as f64 / 4.0,
    }
}
