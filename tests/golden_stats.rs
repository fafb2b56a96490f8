//! Golden `--stats-dump` check: a small reduced-scale grid covering every
//! method (Aila, DMK, TBC, DRS at M=1 and M=4, ideal DRS) plus one 2-SM
//! full-chip cell, run with the engine fast path on and off. Each cell's
//! stats document must hash to the digest recorded for it, so any change
//! to simulated behaviour — in the engine, a special unit or the chip
//! memory system — fails here, in tier-1, rather than in a figure run.
//!
//! A deliberate change to simulated results must re-record the digests
//! (the failure message prints the new value) and say so in CHANGES.md.

use drs::harness::{
    fnv1a64, pool, CacheCounters, ChipConfig, Method, ResultsFile, RunOptions, Scale, SimJob,
    StoreCounters, WorkloadSpec,
};
use drs::scene::SceneKind;

fn scale() -> Scale {
    Scale { rays: 1500, tris_scale: 0.01, warps_scale: 0.5 }
}

/// The grid, with each cell's recorded digest.
fn golden_cells() -> Vec<(SimJob, u64)> {
    let scale = scale();
    let wl = WorkloadSpec::standard(SceneKind::Conference, &scale, 2);
    let job = |method: Method, chip: Option<ChipConfig>| SimJob {
        workload: wl,
        bounce: 2,
        method,
        warps: scale.warps(method.paper_warps()),
        chip,
    };
    let drs = |m: usize| Method::Drs { backup_rows: m, swap_buffers: 6, extra_bank: false };
    vec![
        (job(Method::Aila, None), 0xd2e0_1abe_27c1_2a23),
        (job(Method::Dmk, None), 0xbd43_ba3b_e594_0a34),
        (job(Method::Tbc, None), 0x9646_b834_657c_0632),
        (job(drs(1), None), 0x84b6_0e03_8645_9fea),
        (job(drs(4), None), 0x9e7b_0983_671e_a4ed),
        (job(Method::IdealDrs, None), 0xcf8a_fe23_a964_1b46),
        (job(drs(1), Some(ChipConfig::gtx780(2))), 0x4503_29ad_f027_d4f2),
    ]
}

/// FNV-1a digest of each cell's stats document, in job order.
fn digests(jobs: &[SimJob], fastpath: bool) -> Vec<u64> {
    let report = pool::run_jobs(jobs, &RunOptions { fastpath, ..RunOptions::serial() });
    let failures: Vec<String> = report
        .failed_cells()
        .filter_map(|c| c.failure.as_ref().map(|f| format!("{}: {}", c.cell_name(), f.message)))
        .collect();
    assert!(failures.is_empty(), "golden cells failed: {failures:#?}");
    assert!(report.all_clean(), "every golden cell must complete");
    report
        .cells
        .into_iter()
        .map(|cell| {
            let one = ResultsFile {
                mode: "golden".into(),
                workers: 1,
                cache: CacheCounters::default(),
                store: StoreCounters::default(),
                wall_ms: 0.0,
                resumed: 0,
                checkpoint_writes: 0,
                cells: vec![(vec!["golden".into()], cell)],
            };
            fnv1a64(one.stats_json().as_bytes())
        })
        .collect()
}

#[test]
fn reduced_grid_stats_match_recorded_digests() {
    let cells = golden_cells();
    let jobs: Vec<SimJob> = cells.iter().map(|(j, _)| *j).collect();
    for fastpath in [true, false] {
        for ((job, want), got) in cells.iter().zip(digests(&jobs, fastpath)) {
            assert_eq!(
                got,
                *want,
                "{} (chip: {}, fast path {}): stats digest {got:#018x}, recorded {want:#018x}",
                job.method.label(),
                job.chip.is_some(),
                if fastpath { "on" } else { "off" },
            );
        }
    }
}
