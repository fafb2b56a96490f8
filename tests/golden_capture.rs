//! Golden capture check: the encoded bounce streams of all four scenes at
//! a reduced scale must hash to the digests recorded for them. The path
//! walk runs on every available core; any change to what it records — a
//! reordered merge, a dropped or extra script, a changed step — fails
//! here, in tier-1, before it reaches a simulated statistic.
//!
//! A deliberate change to the captured streams must re-record the digests
//! (the failure message prints the new value) and say so in CHANGES.md.

use drs::harness::{figures::CANONICAL_DEPTH, fnv1a64, Scale, WorkloadSpec};
use drs::scene::SceneKind;

/// Each scene's workload with its recorded digest. 1500 rays over eight
/// bounces makes plants and fairy forest walk several thousand paths
/// before their deep buckets fill.
fn golden_captures() -> Vec<(WorkloadSpec, u64)> {
    let scale = Scale { rays: 1500, tris_scale: 0.01, warps_scale: 1.0 };
    let wl = |scene| WorkloadSpec::standard(scene, &scale, CANONICAL_DEPTH);
    vec![
        (wl(SceneKind::Conference), 0x1aae_7b0e_2c31_6296),
        (wl(SceneKind::FairyForest), 0x94e4_064d_46a7_61cd),
        (wl(SceneKind::CrytekSponza), 0x5147_892e_c1d8_249f),
        (wl(SceneKind::Plants), 0x6e6d_438d_9fb3_5035),
    ]
}

#[test]
fn reduced_captures_match_recorded_digests() {
    let mismatches: Vec<String> = golden_captures()
        .into_iter()
        .filter_map(|(spec, want)| {
            let mut bytes = Vec::new();
            spec.capture().save(&mut bytes).expect("encoding into memory cannot fail");
            let got = fnv1a64(&bytes);
            (got != want).then(|| {
                format!("{}: capture digest {got:#018x}, recorded {want:#018x}", spec.canonical())
            })
        })
        .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
