//! Bounce-stream capture: walking paths and recording ray scripts.

use crate::script::{RayScript, Step, Termination};
use drs_bvh::{BuildParams, Bvh, TraversalEvent};
use drs_math::{dot, LowDiscrepancy, Ray, RAY_EPSILON};
use drs_render::sample_bsdf;
use drs_scene::Scene;
use std::num::NonZero;
use std::sync::atomic::{AtomicUsize, Ordering};

/// All rays captured for one bounce depth.
#[derive(Debug, Clone)]
pub struct BounceStream {
    /// 1-based bounce index (1 = primary rays).
    pub bounce: usize,
    /// One script per captured ray, in dispatch order.
    pub scripts: Vec<RayScript>,
}

impl BounceStream {
    /// Aggregate statistics over the stream.
    pub fn stats(&self) -> StreamStats {
        let mut s = StreamStats { rays: self.scripts.len(), ..Default::default() };
        if self.scripts.is_empty() {
            return s;
        }
        for script in &self.scripts {
            s.total_inner += script.inner_count();
            s.total_leaf += script.leaf_count();
            s.total_prim_tests += script.prim_tests();
            match script.termination() {
                Termination::Hit => s.hits += 1,
                Termination::Escaped => s.escaped += 1,
                Termination::HitLight => s.hit_light += 1,
            }
        }
        s
    }
}

/// Aggregate statistics of a [`BounceStream`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of rays in the stream.
    pub rays: usize,
    /// Total inner-node visits across rays.
    pub total_inner: usize,
    /// Total leaf visits across rays.
    pub total_leaf: usize,
    /// Total primitive tests across rays.
    pub total_prim_tests: usize,
    /// Rays that hit non-emissive geometry.
    pub hits: usize,
    /// Rays that left the scene.
    pub escaped: usize,
    /// Rays that hit a light source.
    pub hit_light: usize,
}

impl StreamStats {
    /// Mean inner-node visits per ray.
    pub fn avg_inner(&self) -> f64 {
        self.total_inner as f64 / self.rays.max(1) as f64
    }

    /// Mean leaf visits per ray.
    pub fn avg_leaf(&self) -> f64 {
        self.total_leaf as f64 / self.rays.max(1) as f64
    }

    /// Fraction of rays that terminated (escape or light) at this bounce.
    pub fn termination_rate(&self) -> f64 {
        (self.escaped + self.hit_light) as f64 / self.rays.max(1) as f64
    }
}

/// Captured per-bounce ray streams for one scene.
#[derive(Debug, Clone)]
pub struct BounceStreams {
    streams: Vec<BounceStream>,
}

impl BounceStreams {
    /// Assemble from already-built streams (used by the binary loader).
    ///
    /// # Panics
    ///
    /// Panics if the streams' bounce indices are not `1..=n` in order.
    pub fn from_streams(streams: Vec<BounceStream>) -> BounceStreams {
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(s.bounce, i + 1, "bounce indices must be 1..=n in order");
        }
        BounceStreams { streams }
    }

    /// Capture up to `target_per_bounce` ray scripts for each bounce depth
    /// `1..=max_bounces` by walking complete paths through `scene`.
    ///
    /// Primary samples sweep the film in scanline order (one sample per
    /// virtual pixel, re-sweeping with new jitter until every bucket fills
    /// or the path budget runs out). Deep-bounce buckets can end up short in
    /// open scenes where most paths escape early — exactly the behaviour
    /// that makes some scenes "easy" in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `target_per_bounce == 0` or `max_bounces == 0`.
    pub fn capture(
        scene: &Scene,
        target_per_bounce: usize,
        max_bounces: usize,
        seed: u64,
    ) -> BounceStreams {
        let bvh = Bvh::build(scene.mesh(), &BuildParams::default());
        Self::capture_with_bvh(scene, &bvh, target_per_bounce, max_bounces, seed)
    }

    /// [`BounceStreams::capture`] with a caller-provided BVH.
    ///
    /// The paths are walked on every core the process may use
    /// ([`std::thread::available_parallelism`]); the streams are
    /// byte-identical for any number of walk threads.
    pub fn capture_with_bvh(
        scene: &Scene,
        bvh: &Bvh,
        target_per_bounce: usize,
        max_bounces: usize,
        seed: u64,
    ) -> BounceStreams {
        let threads = std::thread::available_parallelism().map_or(1, NonZero::get);
        Self::capture_on_threads(scene, bvh, target_per_bounce, max_bounces, seed, threads)
    }

    /// [`BounceStreams::capture_with_bvh`] on `threads` walk threads.
    ///
    /// Paths are walked in rounds of [`ROUND_PATHS`] and merged in path
    /// order under the serial walk's rules: stop before a path once every
    /// bucket is full, and drop a script whose bucket is full. A path
    /// depends only on its own pixel's sampler and the read-only scene and
    /// BVH, and a bucket full when a round starts stays full through it, so
    /// the round's paths can be walked in any order on any thread.
    pub(crate) fn capture_on_threads(
        scene: &Scene,
        bvh: &Bvh,
        target_per_bounce: usize,
        max_bounces: usize,
        seed: u64,
        threads: usize,
    ) -> BounceStreams {
        assert!(target_per_bounce > 0, "target_per_bounce must be positive");
        assert!(max_bounces > 0, "max_bounces must be positive");
        let mut streams: Vec<BounceStream> = (1..=max_bounces)
            .map(|b| BounceStream { bounce: b, scripts: Vec::with_capacity(target_per_bounce) })
            .collect();
        let film = Film::new(target_per_bounce);
        let mut paths = film.paths();
        loop {
            let open: Vec<bool> =
                streams.iter().map(|s| s.scripts.len() < target_per_bounce).collect();
            if !open.contains(&true) {
                break;
            }
            let round: Vec<PathId> = paths.by_ref().take(ROUND_PATHS).collect();
            if round.is_empty() {
                break;
            }
            let walked = walk_round(&round, threads, |path| {
                let (ray, mut sampler) = film.primary_sample(scene, seed, path);
                walk_one_path(scene, bvh, ray, &mut sampler, &open)
            });
            for scripts in walked {
                if streams.iter().all(|s| s.scripts.len() >= target_per_bounce) {
                    break;
                }
                for (bucket, script) in streams.iter_mut().zip(scripts) {
                    if bucket.scripts.len() < target_per_bounce {
                        // Open now, so open when the round began: recorded.
                        bucket.scripts.push(script.expect("an open bucket's script is recorded"));
                    }
                }
            }
        }
        BounceStreams { streams }
    }

    /// The stream for a 1-based bounce index.
    ///
    /// # Panics
    ///
    /// Panics if `bounce` is 0 or exceeds the captured depth.
    pub fn bounce(&self, bounce: usize) -> &BounceStream {
        assert!(bounce >= 1 && bounce <= self.streams.len(), "bounce {bounce} out of range");
        &self.streams[bounce - 1]
    }

    /// Number of captured bounce depths.
    pub fn depth(&self) -> usize {
        self.streams.len()
    }

    /// Iterate over all streams in bounce order.
    pub fn iter(&self) -> impl Iterator<Item = &BounceStream> {
        self.streams.iter()
    }
}

/// Paths walked per round. Buckets are checked only between rounds, so a
/// bucket that fills mid-round records scripts until the round ends only
/// for the merge to drop them; larger rounds trade that waste for fewer
/// thread joins.
const ROUND_PATHS: usize = 2048;

/// Paths a walk thread claims at a time: one warp-shaped film tile.
const CHUNK_PATHS: usize = 32;

/// Film re-sweeps allowed: escape decay means deep buckets fill slower
/// than the primary one, so the film is swept again with new jitter, a
/// bounded number of times.
const MAX_SWEEPS: usize = 32;

/// One primary sample: the sweep it belongs to and its film pixel.
#[derive(Debug, Clone, Copy)]
struct PathId {
    sweep: usize,
    px: usize,
    py: usize,
}

/// The virtual film the primary samples sweep: 4:3, one sample per pixel
/// per sweep.
#[derive(Debug, Clone, Copy)]
struct Film {
    width: usize,
    height: usize,
}

impl Film {
    fn new(target_per_bounce: usize) -> Film {
        let width = ((target_per_bounce as f32 * 4.0 / 3.0).sqrt().ceil() as usize).max(1);
        Film { width, height: target_per_bounce.div_ceil(width) }
    }

    /// Every primary sample in capture order. Pixels are visited in
    /// warp-shaped 8x4 tiles, matching how a GPU rasterizes primary-ray
    /// dispatches: each group of 32 consecutive rays (one warp) covers a
    /// compact screen tile, which is what makes primary rays coherent in
    /// the paper's Figure 2.
    fn paths(self) -> impl Iterator<Item = PathId> {
        let tiles_x = self.width.div_ceil(8);
        let tiles = tiles_x * self.height.div_ceil(4);
        (0..MAX_SWEEPS).flat_map(move |sweep| {
            (0..tiles * 32).filter_map(move |i| {
                let (tile, local) = (i / 32, i % 32);
                let px = (tile % tiles_x) * 8 + local % 8;
                let py = (tile / tiles_x) * 4 + local / 8;
                (px < self.width && py < self.height).then_some(PathId { sweep, px, py })
            })
        })
    }

    /// The primary ray of `path` and the pixel sampler the rest of its
    /// path draws from.
    fn primary_sample(self, scene: &Scene, seed: u64, path: PathId) -> (Ray, LowDiscrepancy) {
        let pixel_id = (path.py * self.width + path.px) as u64;
        let mut sampler = LowDiscrepancy::new(seed ^ pixel_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        sampler.start_sample(path.sweep as u64);
        let (jx, jy) = sampler.next_2d();
        let u = (path.px as f32 + jx) / self.width as f32;
        let v = 1.0 - (path.py as f32 + jy) / self.height as f32;
        (scene.camera().primary_ray(u, v), sampler)
    }
}

/// Walk every path of `round` on up to `threads` threads, the caller's
/// included. Threads claim contiguous chunks of [`CHUNK_PATHS`] paths
/// until none is left; results come back in path order.
fn walk_round<T: Send>(
    round: &[PathId],
    threads: usize,
    walk: impl Fn(PathId) -> T + Sync,
) -> Vec<T> {
    let chunks: Vec<&[PathId]> = round.chunks(CHUNK_PATHS).collect();
    // Hands out chunk indices only; the walked paths travel through the
    // joins, so no ordering beyond the counter's own is needed.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = chunks.get(k) else { return done };
            done.push((k, chunk.iter().map(|&p| walk(p)).collect::<Vec<T>>()));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(chunks.len())).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().flat_map(|(_, walked)| walked).collect()
}

/// Trace one full path, returning one entry per bounce walked: the ray's
/// script where `open` says its bucket still takes scripts, `None` where
/// the bucket is full and the ray is traced uninstrumented, only to
/// continue the path. The walk ends early once no later bucket is open.
fn walk_one_path(
    scene: &Scene,
    bvh: &Bvh,
    mut ray: Ray,
    sampler: &mut LowDiscrepancy,
    open: &[bool],
) -> Vec<Option<RayScript>> {
    let walked = open.iter().rposition(|&o| o).map_or(0, |last| last + 1);
    let mut scripts = Vec::with_capacity(walked);
    for &record in &open[..walked] {
        let mut steps: Vec<Step> = Vec::new();
        let hit = if record {
            steps.reserve(48);
            bvh.intersect_instrumented(scene.mesh(), &ray, &mut |e| {
                steps.push(match e {
                    TraversalEvent::Inner { node_index, both_children_hit } => Step::Inner {
                        node_addr: bvh.node_addr(node_index as usize),
                        both_children_hit,
                    },
                    TraversalEvent::Leaf { node_index, prim_count, first_prim } => Step::Leaf {
                        node_addr: bvh.node_addr(node_index as usize),
                        prim_base_addr: bvh.prim_addr(first_prim as usize),
                        prim_count,
                    },
                });
            })
        } else {
            bvh.intersect(scene.mesh(), &ray)
        };
        let (termination, continuation) = match hit {
            None => (Termination::Escaped, None),
            Some(h) => {
                let material = scene.material_of(h.tri_index as usize);
                if material.is_emissive() {
                    (Termination::HitLight, None)
                } else {
                    let tri = &scene.mesh().triangles()[h.tri_index as usize];
                    let mut normal = tri.unit_normal();
                    if dot(normal, ray.direction) > 0.0 {
                        normal = -normal;
                    }
                    let u2 = sampler.next_2d();
                    let lobe = sampler.next_1d();
                    let next = sample_bsdf(material, ray.direction, normal, u2, lobe)
                        .map(|s| Ray::new(ray.at(h.t) + normal * RAY_EPSILON, s.direction));
                    (Termination::Hit, next)
                }
            }
        };
        scripts.push(record.then(|| RayScript::new(steps, termination)));
        match continuation {
            Some(next) => ray = next,
            None => break,
        }
    }
    scripts
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_scene::SceneKind;

    #[test]
    fn capture_fills_primary_bucket_exactly() {
        let scene = SceneKind::Conference.build_with_tris(600);
        let streams = BounceStreams::capture(&scene, 200, 3, 1);
        assert_eq!(streams.depth(), 3);
        assert_eq!(streams.bounce(1).scripts.len(), 200);
    }

    #[test]
    fn deep_buckets_fill_in_closed_scene() {
        let scene = SceneKind::CrytekSponza.build_with_tris(1_500);
        let streams = BounceStreams::capture(&scene, 100, 4, 2);
        for b in 1..=4 {
            let len = streams.bounce(b).scripts.len();
            assert!(len >= 50, "bounce {b} has only {len} rays in a hard-to-escape scene");
        }
    }

    #[test]
    fn primary_rays_mostly_hit_something_indoors() {
        let scene = SceneKind::Conference.build_with_tris(800);
        let streams = BounceStreams::capture(&scene, 300, 2, 3);
        let stats = streams.bounce(1).stats();
        assert!(stats.escaped == 0, "closed room leaked {} rays", stats.escaped);
        assert!(stats.hits > 200);
    }

    #[test]
    fn secondary_rays_are_less_coherent_than_primary() {
        // Coherence proxy: average pairwise-consecutive script-prefix
        // agreement. Primary rays from adjacent pixels share long BVH
        // prefixes; bounced rays do not.
        let scene = SceneKind::Conference.build_with_tris(1_000);
        let streams = BounceStreams::capture(&scene, 300, 2, 4);
        let prefix_agreement = |s: &BounceStream| -> f64 {
            let mut total = 0usize;
            let mut pairs = 0usize;
            for w in s.scripts.windows(2) {
                let (a, b) = (w[0].steps(), w[1].steps());
                let shared = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
                total += shared;
                pairs += 1;
            }
            total as f64 / pairs.max(1) as f64
        };
        let p1 = prefix_agreement(streams.bounce(1));
        let p2 = prefix_agreement(streams.bounce(2));
        assert!(p1 > p2 * 1.5, "primary coherence {p1:.2} not clearly above secondary {p2:.2}");
    }

    #[test]
    fn stats_totals_are_consistent() {
        let scene = SceneKind::Plants.build_with_tris(1_200);
        let streams = BounceStreams::capture(&scene, 150, 3, 5);
        for s in streams.iter() {
            let st = s.stats();
            assert_eq!(st.rays, s.scripts.len());
            assert_eq!(st.hits + st.escaped + st.hit_light, st.rays);
            let manual_inner: usize =
                s.scripts.iter().map(super::super::script::RayScript::inner_count).sum();
            assert_eq!(st.total_inner, manual_inner);
            assert!(st.avg_inner() >= 0.0);
        }
    }

    #[test]
    fn capture_is_deterministic() {
        let scene = SceneKind::FairyForest.build_with_tris(900);
        let a = BounceStreams::capture(&scene, 100, 3, 9);
        let b = BounceStreams::capture(&scene, 100, 3, 9);
        for bounce in 1..=3 {
            assert_eq!(a.bounce(bounce).scripts, b.bounce(bounce).scripts);
        }
    }

    /// The encoded bytes of a capture walked on `threads` threads.
    fn encoded(scene: &Scene, target: usize, bounces: usize, threads: usize) -> Vec<u8> {
        let bvh = Bvh::build(scene.mesh(), &BuildParams::default());
        let streams = BounceStreams::capture_on_threads(scene, &bvh, target, bounces, 7, threads);
        let mut bytes = Vec::new();
        streams.save(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn walk_thread_count_does_not_change_the_bytes() {
        // One bounce: the only bucket fills after exactly `target` paths,
        // so the final stop lands 100 paths into the second round.
        let mid_round = (SceneKind::Conference.build_with_tris(600), ROUND_PATHS + 100, 1);
        // An open scene: the deep buckets fill rounds after the primary one.
        let open_scene = (SceneKind::Plants.build_with_tris(1_200), 400, 6);
        // Deep buckets that never fill: the walk ends when the sweeps
        // (several rounds' worth of paths) run out.
        let exhausted = (SceneKind::FairyForest.build_with_tris(900), 200, 8);
        for (scene, target, bounces) in [mid_round, open_scene, exhausted] {
            let serial = encoded(&scene, target, bounces, 1);
            for threads in [2, 3] {
                assert!(
                    encoded(&scene, target, bounces, threads) == serial,
                    "{} ({target} rays, {bounces} bounces): {threads} threads differ from 1",
                    scene.kind()
                );
            }
        }
    }

    #[test]
    fn exhausted_case_runs_out_of_sweeps() {
        // Guards the third case above: its deepest bucket must stay short.
        let scene = SceneKind::FairyForest.build_with_tris(900);
        let bvh = Bvh::build(scene.mesh(), &BuildParams::default());
        let streams = BounceStreams::capture_on_threads(&scene, &bvh, 200, 8, 7, 1);
        assert!(streams.bounce(8).scripts.len() < 200, "fairy forest's deepest bucket filled");
    }

    #[test]
    #[should_panic]
    fn bounce_out_of_range_panics() {
        let scene = SceneKind::Conference.build_with_tris(500);
        let streams = BounceStreams::capture(&scene, 50, 2, 1);
        let _ = streams.bounce(3);
    }
}
