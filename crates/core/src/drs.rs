//! The DRS control unit: ray-state table, warp renaming and ray swapping.

use drs_kernels::{CTRL_EXIT, CTRL_FETCH, CTRL_TRAV_INNER, CTRL_TRAV_LEAF, TOKEN_RDCTRL};
use drs_sim::{MachineState, RayState, SimStats, SpecialOutcome, SpecialUnit};

/// Live registers per ray moved by one swap (17 × 32-bit, per the paper).
pub const RAY_REGISTERS: usize = 17;

/// Configuration of the DRS hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrsConfig {
    /// Resident warps `N` (rows 0..N start bound to warps).
    pub warps: usize,
    /// Backup ray rows `M` (the paper examines 1, 2, 4, 8).
    pub backup_rows: usize,
    /// Total swap buffers, divided evenly across the three shuffle tasks
    /// (the paper examines 6, 9, 12, 18; default 6).
    pub swap_buffers: usize,
    /// Idealized DRS: shuffling completes in zero cycles and `rdctrl`
    /// never stalls while work exists.
    pub ideal: bool,
    /// Lanes per warp / slots per row.
    pub lanes: usize,
}

impl DrsConfig {
    /// The paper's recommended default: one backup row, six swap buffers,
    /// no extra register bank (so the kernel spawns 58 warps instead of 60).
    pub fn paper_default() -> DrsConfig {
        DrsConfig { warps: 58, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 }
    }

    /// Total logical ray rows: `N + M + 2` (two rows of empty slots).
    pub fn rows(&self) -> usize {
        self.warps + self.backup_rows + 2
    }

    /// Swap buffers available to each of the three shuffle tasks.
    pub fn buffers_per_task(&self) -> usize {
        (self.swap_buffers / 3).max(1)
    }

    /// Validate the configuration.
    ///
    /// # Panics
    ///
    /// Panics when any parameter is zero where that makes no sense.
    pub fn validate(&self) {
        assert!(self.warps > 0, "need at least one warp");
        assert!(self.lanes > 0 && self.lanes <= 32, "lanes in 1..=32");
        assert!(self.swap_buffers >= 3, "need at least one buffer per task");
    }
}

impl Default for DrsConfig {
    fn default() -> Self {
        DrsConfig::paper_default()
    }
}

/// Aggregated state of one logical ray row (derived from the ray-state
/// table). `no_ray` counts slots awaiting a fetch (or drained).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowSummary {
    /// Slots with no resident ray.
    pub no_ray: u16,
    /// Slots whose ray needs inner-node traversal.
    pub inner: u16,
    /// Slots whose ray needs leaf intersection.
    pub leaf: u16,
}

impl RowSummary {
    /// Rays resident in the row.
    pub fn rays(&self) -> u16 {
        self.inner + self.leaf
    }

    /// The single state of the row's occupied slots, or `None` when mixed.
    /// An all-empty row reports `RayState::Fetching`.
    pub fn uniform_state(&self) -> Option<RayState> {
        match (self.inner > 0, self.leaf > 0) {
            (false, false) => Some(RayState::Fetching),
            (true, false) if self.no_ray == 0 => Some(RayState::Inner),
            (false, true) if self.no_ray == 0 => Some(RayState::Leaf),
            // Occupied slots uniform but row has holes: still usable for
            // its state (empty lanes are masked off by the kernel guards),
            // so report the state of the occupied slots.
            (true, false) => Some(RayState::Inner),
            (false, true) => Some(RayState::Leaf),
            (true, true) => None,
        }
    }

    /// True when the occupied slots are in one state AND the row has no
    /// holes that a fetch could not fill (strict uniformity; preferred when
    /// choosing rename targets).
    pub fn is_full_uniform(&self) -> bool {
        matches!((self.no_ray, self.inner, self.leaf), (0, _, 0) | (0, 0, _)) && self.rays() > 0
    }
}

/// An in-flight ray transfer between two slots.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    src_slot: u32,
    dst_slot: u32,
    /// Registers to move: 17 for a move into a hole, 34 for an exchange.
    total_regs: u8,
    /// Registers read into swap buffers so far.
    reads: u8,
    /// Registers written to the destination so far (≤ reads of previous
    /// cycles — the buffer adds one cycle between read and write).
    writes: u8,
    /// Reads completed before this cycle (writable this cycle).
    writable: u8,
    start_cycle: u64,
}

/// The DRS control unit.
///
/// Plugs into the simulator as its
/// [`SpecialUnit`](drs_sim::SpecialUnit): `rdctrl` issues consult the
/// renaming and ray-state tables, and the per-cycle tick advances the
/// swap engine. A minimal end-to-end run:
///
/// ```
/// use drs_core::system::RowedWhileIf;
/// use drs_core::{DrsConfig, DrsUnit};
/// use drs_kernels::WhileIfKernel;
/// use drs_sim::{GpuConfig, Simulation};
/// use drs_trace::{RayScript, Step, Termination};
///
/// let scripts: Vec<RayScript> = (0..64)
///     .map(|i| {
///         let steps = (0..2 + i % 5)
///             .map(|k| Step::Inner { node_addr: 0x1000 + k as u64 * 64, both_children_hit: false })
///             .collect();
///         RayScript::new(steps, Termination::Hit)
///     })
///     .collect();
///
/// let cfg = DrsConfig { warps: 2, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 };
/// let kernel = WhileIfKernel::new();
/// let gpu = GpuConfig { max_warps: 2, max_cycles: 10_000_000, ..GpuConfig::gtx780() };
/// let out = Simulation::new(
///     gpu,
///     kernel.program(),
///     Box::new(RowedWhileIf::new(cfg.rows())),
///     Box::new(DrsUnit::new(cfg)),
///     &scripts,
/// )
/// .run()
/// .expect("completes");
/// assert_eq!(out.rays_completed, 64);
/// ```
#[derive(Debug)]
pub struct DrsUnit {
    cfg: DrsConfig,
    /// Renaming table: warp → row.
    row_of_warp: Vec<usize>,
    /// Reverse map: row → bound warp.
    warp_of_row: Vec<Option<usize>>,
    /// Ray-state table aggregated per row.
    counts: Vec<RowSummary>,
    /// Per-row lane mask of the slots involved in a transfer (no
    /// execution, no re-plan): bit `l` of `busy[row]` is lane `l`.
    busy: Vec<u32>,
    /// Active transfers (at most one per shuffle task).
    transfers: Vec<Transfer>,
    /// Something `plan_transfers` reads may have changed since its last
    /// run: an `issue` call (park, unpark, rename), a non-empty dirty
    /// drain, a finished transfer, or a plan that pushed a transfer (a
    /// plan is not idempotent: another call may take a further slot from
    /// the same row). Otherwise a plan would repeat the last one, which
    /// planned nothing, so the tick skips it.
    replan: bool,
    /// Reusable per-tick scratch: bank ports left idle, and the indices of
    /// transfers that finished this tick.
    idle_scratch: Vec<bool>,
    done_scratch: Vec<usize>,
    /// `DRS_DEBUG` was set when the unit was built: dump the row table
    /// every 500 000 cycles.
    debug: bool,
    /// Warps currently stalled at `rdctrl` (their rows are register-
    /// quiescent, so the swap engine may shuffle them).
    parked: Vec<bool>,
    /// Sticky designation of the leaf-state ray collecting row.
    leaf_collector: Option<usize>,
    /// Registers one ray-state move must copy (the paper's fixed 17, or a
    /// per-kernel value derived by `drs-verify` shuffle liveness).
    ray_regs: u8,
    initialized: bool,
}

impl DrsUnit {
    /// Build the unit for a configuration with the paper's fixed
    /// 17-register transfer cost.
    pub fn new(cfg: DrsConfig) -> DrsUnit {
        Self::with_ray_regs(cfg, RAY_REGISTERS as u8)
    }

    /// Build the unit with an explicit per-ray transfer cost in registers,
    /// e.g. one statically derived from the kernel's shuffle live sets.
    pub fn with_ray_regs(cfg: DrsConfig, ray_regs: u8) -> DrsUnit {
        cfg.validate();
        assert!(ray_regs > 0, "a ray transfer must move at least one register");
        let rows = cfg.rows();
        DrsUnit {
            cfg,
            row_of_warp: (0..cfg.warps).collect(),
            warp_of_row: (0..rows).map(|r| (r < cfg.warps).then_some(r)).collect(),
            counts: vec![RowSummary::default(); rows],
            busy: vec![0; rows],
            transfers: Vec::with_capacity(3),
            replan: true,
            idle_scratch: Vec::new(),
            done_scratch: Vec::with_capacity(3),
            debug: std::env::var_os("DRS_DEBUG").is_some(),
            parked: vec![false; cfg.warps],
            leaf_collector: None,
            ray_regs,
            initialized: false,
        }
    }

    /// Registers one ray-state move copies between register files.
    pub fn ray_regs(&self) -> u8 {
        self.ray_regs
    }

    /// The configuration this unit was built with.
    pub fn config(&self) -> &DrsConfig {
        &self.cfg
    }

    /// Row currently bound to `warp` (for introspection/examples).
    pub fn row_of(&self, warp: usize) -> usize {
        self.row_of_warp[warp]
    }

    /// Aggregated ray-state-table summary for `row`.
    pub fn row_summary(&self, row: usize) -> RowSummary {
        self.counts[row]
    }

    fn slot_index(&self, row: usize, lane: usize) -> usize {
        row * self.cfg.lanes + lane
    }

    /// Recount one row from the machine's state cache.
    fn recount_row(&mut self, row: usize, m: &MachineState<'_>) {
        let mut s = RowSummary::default();
        for lane in 0..self.cfg.lanes {
            match m.state_cache[self.slot_index(row, lane)] {
                RayState::Inner => s.inner += 1,
                RayState::Leaf => s.leaf += 1,
                _ => s.no_ray += 1,
            }
        }
        self.counts[row] = s;
    }

    /// Rebuild all row counts from the machine's state cache.
    fn rebuild_counts(&mut self, m: &MachineState<'_>) {
        for row in 0..self.cfg.rows() {
            self.recount_row(row, m);
        }
    }

    /// Drain the machine's dirty-slot log into the row counts.
    fn drain_dirty(&mut self, m: &mut MachineState<'_>) {
        if m.dirty.is_empty() {
            return;
        }
        self.replan = true;
        m.dirty.sort_unstable();
        let mut last = usize::MAX;
        for i in 0..m.dirty.len() {
            let row = m.dirty[i] as usize / self.cfg.lanes;
            if row != last {
                last = row;
                self.recount_row(row, m);
            }
        }
        m.dirty.clear();
    }

    /// Control value for a row the warp will work on.
    fn ctrl_for(&self, row: usize, m: &MachineState<'_>) -> Option<u32> {
        match self.counts[row].uniform_state()? {
            RayState::Inner => Some(CTRL_TRAV_INNER),
            RayState::Leaf => Some(CTRL_TRAV_LEAF),
            RayState::Fetching => {
                if m.queue.is_empty() {
                    None // nothing to fetch; not a usable work row
                } else {
                    Some(CTRL_FETCH)
                }
            }
            _ => None,
        }
    }

    /// How much useful SIMD work a row offers a warp right now: the number
    /// of lanes that would be active in its if-body. Mixed rows score 0.
    fn row_score(&self, row: usize, m: &MachineState<'_>) -> u32 {
        let s = self.counts[row];
        match s.uniform_state() {
            Some(RayState::Inner | RayState::Leaf) => s.rays() as u32,
            Some(RayState::Fetching) if !m.queue.is_empty() => {
                // A fetch fills every hole (bounded by queued rays).
                (s.no_ray as usize).min(m.queue.remaining()).max(1) as u32
            }
            _ => 0,
        }
    }

    /// Strict acceptance: the control value for a row that is state-uniform
    /// AND hole-free (or entirely empty with rays left to fetch). This is
    /// the paper's operating point: warps stall rather than run partially
    /// occupied rows, and the swap engine keeps manufacturing full rows.
    fn strict_ctrl(&self, row: usize, m: &MachineState<'_>) -> Option<u32> {
        let c = self.counts[row];
        // Tolerate a bounded number of holes: insisting on completely full
        // rows would demand more shuffle bandwidth than the swap buffers
        // provide, while a 3/4-occupied uniform row still issues its
        // if-body at >=75% SIMD utilization.
        let min_occupancy = self.cfg.lanes - self.cfg.lanes / 4;
        if c.leaf == 0 && c.inner as usize >= min_occupancy {
            return Some(CTRL_TRAV_INNER);
        }
        if c.inner == 0 && c.leaf as usize >= min_occupancy {
            return Some(CTRL_TRAV_LEAF);
        }
        if c.rays() == 0 && !m.queue.is_empty() {
            return Some(CTRL_FETCH);
        }
        None
    }

    /// Pick the best unbound row for `warp` to rename onto: the row
    /// offering the most active lanes.
    fn best_free_row(&self, m: &MachineState<'_>) -> Option<(usize, u32)> {
        let mut best: Option<(usize, u32)> = None;
        for row in 0..self.cfg.rows() {
            if self.warp_of_row[row].is_some() || self.row_has_busy_slot(row) {
                continue;
            }
            let score = self.row_score(row, m);
            if score == 0 {
                continue;
            }
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((row, score));
            }
        }
        best
    }

    fn row_has_busy_slot(&self, row: usize) -> bool {
        self.busy[row] != 0
    }

    /// Mark `slot` busy (`true`) or free in its row's mask.
    fn set_busy(&mut self, slot: usize, busy: bool) {
        let bit = 1u32 << (slot % self.cfg.lanes);
        let mask = &mut self.busy[slot / self.cfg.lanes];
        if busy {
            *mask |= bit;
        } else {
            *mask &= !bit;
        }
    }

    /// A row may be shuffled when it is unbound, or bound to a warp that is
    /// parked at `rdctrl` (its ray registers are quiescent).
    fn row_shufflable(&self, row: usize) -> bool {
        match self.warp_of_row[row] {
            None => true,
            Some(w) => self.parked[w],
        }
    }

    /// Move a warp's binding to `row`.
    fn rename(&mut self, warp: usize, row: usize) {
        let old = self.row_of_warp[warp];
        self.warp_of_row[old] = None;
        self.warp_of_row[row] = Some(warp);
        self.row_of_warp[warp] = row;
    }

    /// Update the lane→slot map so `warp` addresses `row`'s slots.
    fn map_warp_to_row(&self, warp: usize, row: usize, m: &mut MachineState<'_>) {
        for lane in 0..self.cfg.lanes {
            m.map_lane(warp, lane, Some(self.slot_index(row, lane)));
        }
    }

    /// True when no ray work remains reachable by `warp`: the queue is
    /// drained, its row has no rays, and no unbound row has rays.
    fn no_work_left(&self, warp: usize, m: &MachineState<'_>) -> bool {
        if !m.queue.is_empty() {
            return false;
        }
        if self.counts[self.row_of_warp[warp]].rays() > 0 {
            return false;
        }
        if !self.transfers.is_empty() {
            return false; // rays in flight
        }
        (0..self.cfg.rows())
            .filter(|&r| self.warp_of_row[r].is_none())
            .all(|r| self.counts[r].rays() == 0)
    }

    /// Idealized shuffling: instantly gather rays of one state from unbound
    /// rows into the warp's row. Returns the ctrl value, or EXIT-fallback.
    fn ideal_reshuffle(&mut self, warp: usize, m: &mut MachineState<'_>) -> Option<u32> {
        let row = self.row_of_warp[warp];
        // Choose the state with the most available rays among this row and
        // all unbound rows.
        let mut avail_inner = self.counts[row].inner as u32;
        let mut avail_leaf = self.counts[row].leaf as u32;
        for r in 0..self.cfg.rows() {
            if self.warp_of_row[r].is_none() {
                avail_inner += self.counts[r].inner as u32;
                avail_leaf += self.counts[r].leaf as u32;
            }
        }
        let want = if avail_inner >= avail_leaf { RayState::Inner } else { RayState::Leaf };
        let want_ctrl = if want == RayState::Inner { CTRL_TRAV_INNER } else { CTRL_TRAV_LEAF };
        if avail_inner == 0 && avail_leaf == 0 {
            return None;
        }
        // Evict non-matching rays from the warp's row into unbound holes,
        // then pull matching rays in. Zero cost (ideal).
        let lanes = self.cfg.lanes;
        let unbound: Vec<usize> =
            (0..self.cfg.rows()).filter(|&r| self.warp_of_row[r].is_none()).collect();
        for lane in 0..lanes {
            let dst = self.slot_index(row, lane);
            let dst_state = m.state_cache[dst];
            let dst_matches = dst_state == want;
            if dst_matches {
                continue;
            }
            // Find a donor slot with the wanted state in an unbound row.
            let mut donor = None;
            'outer: for &r in &unbound {
                for l in 0..lanes {
                    let s = self.slot_index(r, l);
                    if m.state_cache[s] == want {
                        donor = Some(s);
                        break 'outer;
                    }
                }
            }
            let Some(src) = donor else { break };
            m.slots.swap(dst, src);
            m.state_cache.swap(dst, src);
        }
        self.rebuild_counts(m);
        Some(want_ctrl)
    }

    /// Finish a completed transfer: move the ray data.
    fn finalize_transfer(
        &mut self,
        t: Transfer,
        now: u64,
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) {
        let (src, dst) = (t.src_slot as usize, t.dst_slot as usize);
        m.slots.swap(src, dst);
        m.state_cache.swap(src, dst);
        self.set_busy(src, false);
        self.set_busy(dst, false);
        self.replan = true;
        self.recount_row(src / self.cfg.lanes, m);
        self.recount_row(dst / self.cfg.lanes, m);
        stats.swaps_completed += 1;
        stats.swap_cycle_sum += now.saturating_sub(t.start_cycle);
    }

    /// Re-validate or re-pick the designated leaf-collecting row: a
    /// shufflable row accumulating leaf-state rays until it is leaf-full.
    fn refresh_leaf_collector(&mut self) {
        if let Some(r) = self.leaf_collector {
            let c = self.counts[r];
            let full_leaf = c.inner == 0 && c.no_ray == 0;
            if self.row_shufflable(r) && !full_leaf && c.rays() > 0 {
                return; // still serving
            }
            self.leaf_collector = None;
        }
        // Pick the shufflable row with the most leaf rays (that is not
        // already leaf-complete).
        let mut best: Option<(usize, u16)> = None;
        for r in 0..self.cfg.rows() {
            if !self.row_shufflable(r) {
                continue;
            }
            let c = self.counts[r];
            if c.leaf == 0 || (c.inner == 0 && c.no_ray == 0) {
                continue;
            }
            if best.is_none_or(|(_, b)| c.leaf > b) {
                best = Some((r, c.leaf));
            }
        }
        self.leaf_collector = best.map(|(r, _)| r);
    }

    /// Plan new transfers toward state-uniform rows — the paper's greedy
    /// scheme with three designated tasks:
    ///
    /// 1. **leaf collection**: leaf rays from state-mixed rows move into
    ///    holes of the designated collecting row, or exchange against its
    ///    inner rays;
    /// 2. **inner ejection**: inner-minority rows push inner rays into
    ///    holes of inner-compatible rows (including the empty rows);
    /// 3. **hole (fetch) collection**: sparse unbound rows consolidate
    ///    their rays into strictly fuller compatible rows, leaving behind
    ///    an all-empty row a warp can rename onto and refill by fetching.
    ///
    /// Every transfer strictly reduces a disorder measure (leaf rays
    /// outside the collector + inner rays inside it; inner rays in
    /// inner-minority rows; the count of non-empty sparse rows), so
    /// shuffling always converges.
    fn plan_transfers(&mut self, now: u64, m: &MachineState<'_>) {
        let max_tasks = 3;
        if self.transfers.len() >= max_tasks {
            return;
        }
        let rows = self.cfg.rows();
        self.refresh_leaf_collector();

        // Task 1: leaf collection.
        if let Some(col) = self.leaf_collector {
            'srcs: for r in 0..rows {
                if self.transfers.len() >= max_tasks {
                    return;
                }
                if r == col || !self.row_shufflable(r) {
                    continue;
                }
                let c = self.counts[r];
                if c.leaf == 0 || c.inner == 0 {
                    continue; // only drain state-mixed rows
                }
                let Some(src) = self.find_slot(r, m, |s| m.state_cache[s] == RayState::Leaf) else {
                    continue;
                };
                // Collector hole, else exchange for a collector inner ray.
                let (dst, regs) = if self.counts[col].no_ray > 0 {
                    match self.find_slot(col, m, |s| m.slots[s].ray.is_none()) {
                        Some(h) => (h, self.ray_regs),
                        None => continue 'srcs,
                    }
                } else if self.counts[col].inner > 0 {
                    match self.find_slot(col, m, |s| m.state_cache[s] == RayState::Inner) {
                        Some(x) => (x, 2 * self.ray_regs),
                        None => continue 'srcs,
                    }
                } else {
                    break; // collector is already leaf-complete
                };
                self.push_transfer(src, dst, regs, now);
            }
        }

        // Task 2: minority-state ejection (the paper's inner-state ray
        // ejecting row, generalized to either minority). A state-mixed row
        // — including the leaf collector, which must shed its inner rays —
        // pushes its minority-state rays into holes of state-compatible
        // rows (the empty rows always qualify).
        for r in 0..rows {
            if self.transfers.len() >= max_tasks {
                return;
            }
            if !self.row_shufflable(r) {
                continue;
            }
            let c = self.counts[r];
            if c.inner == 0 || c.leaf == 0 {
                continue;
            }
            let eject = if c.inner <= c.leaf { RayState::Inner } else { RayState::Leaf };
            let Some(src) = self.find_slot(r, m, |s| m.state_cache[s] == eject) else {
                continue;
            };
            // A hole in a state-compatible row (covers the empty rows).
            let mut dst = None;
            for d in 0..rows {
                if d == r || Some(d) == self.leaf_collector || !self.row_shufflable(d) {
                    continue;
                }
                let dc = self.counts[d];
                let compatible = match eject {
                    RayState::Inner => dc.leaf == 0,
                    _ => dc.inner == 0,
                };
                if compatible && dc.no_ray > 0 {
                    if let Some(h) = self.find_slot(d, m, |s| m.slots[s].ray.is_none()) {
                        dst = Some(h);
                        break;
                    }
                }
            }
            if let Some(dst) = dst {
                self.push_transfer(src, dst, self.ray_regs, now);
            }
        }

        // Task 3: consolidate sparse unbound uniform rows (fetch-state ray
        // collection: the vacated row becomes an all-fetching rename
        // target).
        for r in 0..rows {
            if self.transfers.len() >= max_tasks {
                return;
            }
            if Some(r) == self.leaf_collector || !self.row_shufflable(r) {
                continue;
            }
            let c = self.counts[r];
            if c.rays() == 0 || c.no_ray == 0 || (c.inner > 0 && c.leaf > 0) {
                continue; // only sparse uniform rows
            }
            let state = if c.inner > 0 { RayState::Inner } else { RayState::Leaf };
            let Some(src) = self.find_slot(r, m, |s| m.state_cache[s] == state) else {
                continue;
            };
            let mut dst = None;
            for d in 0..rows {
                if d == r || Some(d) == self.leaf_collector || !self.row_shufflable(d) {
                    continue;
                }
                let dc = self.counts[d];
                let compatible = match state {
                    RayState::Inner => dc.leaf == 0,
                    _ => dc.inner == 0,
                };
                if compatible && dc.no_ray > 0 && dc.rays() > c.rays() {
                    if let Some(h) = self.find_slot(d, m, |s| m.slots[s].ray.is_none()) {
                        dst = Some(h);
                        break;
                    }
                }
            }
            if let Some(dst) = dst {
                self.push_transfer(src, dst, self.ray_regs, now);
            }
        }
    }

    /// First non-busy slot of `row` satisfying `pred`.
    fn find_slot(
        &self,
        row: usize,
        m: &MachineState<'_>,
        pred: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let _ = m;
        let mut free = !self.busy[row] & (u32::MAX >> (32 - self.cfg.lanes));
        while free != 0 {
            let s = self.slot_index(row, free.trailing_zeros() as usize);
            if pred(s) {
                return Some(s);
            }
            free &= free - 1;
        }
        None
    }

    /// The per-row busy masks the active transfers name (asserting that
    /// no slot is in two transfers).
    #[cfg(any(test, feature = "validate"))]
    fn transfer_masks(&self) -> Vec<u32> {
        let mut masks = vec![0u32; self.busy.len()];
        for t in &self.transfers {
            for slot in [t.src_slot as usize, t.dst_slot as usize] {
                let bit = 1u32 << (slot % self.cfg.lanes);
                let row = &mut masks[slot / self.cfg.lanes];
                assert_eq!(*row & bit, 0, "slot {slot} is in two transfers");
                *row |= bit;
            }
        }
        masks
    }

    fn push_transfer(&mut self, src: usize, dst: usize, total_regs: u8, now: u64) {
        self.set_busy(src, true);
        self.set_busy(dst, true);
        self.replan = true;
        self.transfers.push(Transfer {
            src_slot: src as u32,
            dst_slot: dst as u32,
            total_regs,
            reads: 0,
            writes: 0,
            writable: 0,
            start_cycle: now,
        });
    }
}

impl SpecialUnit for DrsUnit {
    fn issue(
        &mut self,
        warp: usize,
        token: u16,
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) -> SpecialOutcome {
        debug_assert_eq!(token, TOKEN_RDCTRL);
        if !self.initialized {
            self.rebuild_counts(m);
            self.initialized = true;
        }
        // Whatever the outcome, the warp's park state or binding may move.
        self.replan = true;
        self.drain_dirty(m);
        let row = self.row_of_warp[warp];
        let cur_busy = self.row_has_busy_slot(row);
        // Strict path: a full uniform (or refillable-empty) current row
        // proceeds immediately.
        if !cur_busy {
            if let Some(ctrl) = self.strict_ctrl(row, m) {
                self.parked[warp] = false;
                self.map_warp_to_row(warp, row, m);
                return SpecialOutcome::Proceed { ctrl };
            }
        }
        // Rename to a strictly acceptable unbound row if one exists.
        for r in 0..self.cfg.rows() {
            if self.warp_of_row[r].is_some() || self.row_has_busy_slot(r) {
                continue;
            }
            if let Some(ctrl) = self.strict_ctrl(r, m) {
                self.parked[warp] = false;
                self.rename(warp, r);
                self.map_warp_to_row(warp, r, m);
                return SpecialOutcome::Proceed { ctrl };
            }
        }
        // Relaxed fallback — only once the queue has drained (full rows can
        // no longer be manufactured): run the best partially-filled
        // uniform row rather than stalling forever.
        let cur_score = if cur_busy || !m.queue.is_empty() { 0 } else { self.row_score(row, m) };
        let best = if m.queue.is_empty() { self.best_free_row(m) } else { None };
        if cur_score > 0 && best.is_none_or(|(_, s)| s <= cur_score) {
            if let Some(ctrl) = self.ctrl_for(row, m) {
                self.parked[warp] = false;
                self.map_warp_to_row(warp, row, m);
                return SpecialOutcome::Proceed { ctrl };
            }
        }
        if self.cfg.ideal {
            if let Some(ctrl) = self.ideal_reshuffle(warp, m) {
                let row = self.row_of_warp[warp];
                self.parked[warp] = false;
                self.map_warp_to_row(warp, row, m);
                return SpecialOutcome::Proceed { ctrl };
            }
            if self.no_work_left(warp, m) {
                self.parked[warp] = false;
                return SpecialOutcome::Proceed { ctrl: CTRL_EXIT };
            }
            self.parked[warp] = true;
            return SpecialOutcome::Stall;
        }
        // Relaxed rename (drain phase only).
        if let Some((new_row, _)) = best {
            if let Some(ctrl) = self.ctrl_for(new_row, m) {
                self.parked[warp] = false;
                self.rename(warp, new_row);
                self.map_warp_to_row(warp, new_row, m);
                return SpecialOutcome::Proceed { ctrl };
            }
        }
        if self.no_work_left(warp, m) {
            self.parked[warp] = false;
            return SpecialOutcome::Proceed { ctrl: CTRL_EXIT };
        }
        let _ = stats;
        self.parked[warp] = true;
        SpecialOutcome::Stall
    }

    fn tick(
        &mut self,
        cycle: u64,
        idle_banks: &[bool],
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) {
        if self.cfg.ideal {
            return;
        }
        if !self.initialized {
            self.rebuild_counts(m);
            self.initialized = true;
        }
        self.drain_dirty(m);
        if self.debug && cycle.is_multiple_of(500_000) && cycle > 0 {
            eprintln!("cycle {cycle}: transfers={:?}", self.transfers);
            for r in 0..self.cfg.rows() {
                eprintln!(
                    "  row {r}: {:?} bound={:?} busy={} parked={:?}",
                    self.counts[r],
                    self.warp_of_row[r],
                    self.row_has_busy_slot(r),
                    self.warp_of_row[r].map(|w| self.parked[w])
                );
            }
            eprintln!(
                "  queue remaining={} rays_completed={}",
                m.queue.remaining(),
                m.rays_completed
            );
        }
        // Progress active transfers through idle bank ports.
        let idle = &mut self.idle_scratch;
        idle.clear();
        idle.extend_from_slice(idle_banks);
        let nbanks = idle.len().max(1);
        let bpt = self.cfg.buffers_per_task() as u8;
        let mut done = std::mem::take(&mut self.done_scratch);
        for (ti, t) in self.transfers.iter_mut().enumerate() {
            let regs = t.total_regs;
            // Writes first: registers read in earlier cycles drain to the
            // destination row's banks.
            while t.writes < t.writable {
                let bank = (t.dst_slot as usize / 32 + t.writes as usize) % nbanks;
                if !idle[bank] {
                    break;
                }
                idle[bank] = false;
                t.writes += 1;
                stats.swap_accesses += 1;
            }
            // Reads limited by buffer capacity (reads in flight ≤ bpt).
            while t.reads < regs && t.reads - t.writes < bpt {
                let bank = (t.src_slot as usize / 32 + t.reads as usize) % nbanks;
                if !idle[bank] {
                    break;
                }
                idle[bank] = false;
                t.reads += 1;
                stats.swap_accesses += 1;
            }
            t.writable = t.reads;
            if t.writes == regs {
                done.push(ti);
            }
        }
        for &ti in done.iter().rev() {
            let t = self.transfers.remove(ti);
            self.finalize_transfer(t, cycle + 1, m, stats);
        }
        done.clear();
        self.done_scratch = done;
        if self.replan {
            self.replan = false;
            self.plan_transfers(cycle, m);
        }
        #[cfg(feature = "validate")]
        assert_eq!(
            self.busy,
            self.transfer_masks(),
            "validate: DRS busy masks disagree with the transfer list"
        );
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Ideal DRS never ticks; real DRS is quiescent once no transfers
        // are in flight: the tick that follows an issue consumes the
        // re-plan it asks for, and with no issues in between the dirty
        // queue stays drained and no further plan runs — so every tick
        // until the next issue is a pure no-op. Before the first tick the unit still has to initialize,
        // so it pins the engine to the current cycle.
        if self.cfg.ideal {
            return None;
        }
        if !self.initialized || !self.transfers.is_empty() {
            return Some(now);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_kernels::WhileIfKernel;
    use drs_sim::{GpuConfig, Simulation};
    use drs_trace::{RayScript, Step, Termination};

    fn scripts(n: usize) -> Vec<RayScript> {
        (0..n)
            .map(|i| {
                let mut steps = Vec::new();
                for k in 0..2 + (i * 7 % 13) {
                    steps.push(Step::Inner {
                        node_addr: 0x1000_0000 + ((i * 37 + k * 5) % 4096) as u64 * 64,
                        both_children_hit: (i + k) % 3 == 0,
                    });
                    if (i + k) % 4 == 0 {
                        steps.push(Step::Leaf {
                            node_addr: 0x1100_0000 + ((i + k) % 1024) as u64 * 64,
                            prim_base_addr: 0x4000_0000 + ((i * 3 + k) % 1024) as u64 * 48,
                            prim_count: 1 + ((i + k) % 4) as u16,
                        });
                    }
                }
                RayScript::new(steps, Termination::Hit)
            })
            .collect()
    }

    fn run_drs(nrays: usize, warps: usize, drs: DrsConfig) -> drs_sim::SimStats {
        let s = scripts(nrays);
        let k = WhileIfKernel::new();
        let cfg = GpuConfig { max_warps: warps, max_cycles: 80_000_000, ..GpuConfig::gtx780() };
        let unit = DrsUnit::new(drs);
        struct SlotCountKernel(WhileIfKernel, usize);
        impl drs_sim::KernelBehavior for SlotCountKernel {
            fn eval_cond(&self, t: u16, w: usize, l: usize, m: &MachineState<'_>) -> bool {
                self.0.eval_cond(t, w, l, m)
            }
            fn eval_addr(&self, t: u16, w: usize, l: usize, m: &MachineState<'_>) -> u64 {
                self.0.eval_addr(t, w, l, m)
            }
            fn apply_effect(&self, t: u16, w: usize, l: usize, m: &mut MachineState<'_>) {
                self.0.apply_effect(t, w, l, m);
            }
            fn slot_count(&self, _warps: usize, lanes: usize) -> usize {
                self.1 * lanes
            }
            fn initialize(&self, m: &mut MachineState<'_>) {
                self.0.initialize(m);
            }
        }
        let behavior = SlotCountKernel(k.clone(), drs.rows());
        Simulation::new(cfg, k.program(), Box::new(behavior), Box::new(unit), &s)
            .run()
            .expect("DRS run hit the cycle cap")
    }

    #[test]
    fn config_row_arithmetic() {
        let c = DrsConfig::paper_default();
        assert_eq!(c.rows(), 58 + 1 + 2);
        assert_eq!(c.buffers_per_task(), 2);
        c.validate();
    }

    #[test]
    fn row_summary_uniformity() {
        let full_inner = RowSummary { no_ray: 0, inner: 32, leaf: 0 };
        assert_eq!(full_inner.uniform_state(), Some(RayState::Inner));
        assert!(full_inner.is_full_uniform());
        let holey_leaf = RowSummary { no_ray: 4, inner: 0, leaf: 28 };
        assert_eq!(holey_leaf.uniform_state(), Some(RayState::Leaf));
        assert!(!holey_leaf.is_full_uniform());
        let mixed = RowSummary { no_ray: 0, inner: 16, leaf: 16 };
        assert_eq!(mixed.uniform_state(), None);
        let empty = RowSummary { no_ray: 32, inner: 0, leaf: 0 };
        assert_eq!(empty.uniform_state(), Some(RayState::Fetching));
    }

    #[test]
    fn drs_completes_all_rays_small() {
        let out = run_drs(
            600,
            6,
            DrsConfig { warps: 6, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        assert_eq!(out.rays_completed, 600);
        assert!(out.rdctrl_issued > 0);
    }

    #[test]
    fn drs_improves_simd_efficiency_over_while_while() {
        use drs_kernels::{WhileWhileConfig, WhileWhileKernel};
        use drs_sim::NullSpecial;
        let s = scripts(800);
        let cfg = GpuConfig { max_warps: 6, max_cycles: 80_000_000, ..GpuConfig::gtx780() };
        let ww = WhileWhileKernel::new(WhileWhileConfig::default());
        let base = Simulation::new(
            cfg.clone(),
            ww.program(),
            Box::new(ww.clone()),
            Box::new(NullSpecial),
            &s,
        )
        .run()
        .expect("completes");
        let drs = run_drs(
            800,
            6,
            DrsConfig { warps: 6, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        let e_base = base.issued.simd_efficiency();
        let e_drs = drs.issued.simd_efficiency();
        assert!(
            e_drs > e_base + 0.1,
            "DRS should clearly beat while-while: {e_drs:.3} vs {e_base:.3}"
        );
    }

    #[test]
    fn ideal_drs_completes_and_never_swaps() {
        let out = run_drs(
            400,
            4,
            DrsConfig { warps: 4, backup_rows: 1, swap_buffers: 6, ideal: true, lanes: 32 },
        );
        assert_eq!(out.rays_completed, 400);
        assert_eq!(out.swaps_completed, 0, "ideal shuffling is free");
        assert_eq!(out.rdctrl_stall_rate(), 0.0, "ideal DRS never stalls");
    }

    #[test]
    fn real_drs_performs_swaps() {
        let out = run_drs(
            800,
            6,
            DrsConfig { warps: 6, backup_rows: 2, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        assert!(out.swaps_completed > 0, "shuffling should move rays");
        assert!(out.swap_accesses >= out.swaps_completed * RAY_REGISTERS as u64 * 2);
        assert!(
            out.avg_swap_cycles()
                >= (RAY_REGISTERS / DrsConfig::paper_default().buffers_per_task()) as f64
        );
    }

    #[test]
    fn more_backup_rows_reduce_stall_rate() {
        let few = run_drs(
            1000,
            6,
            DrsConfig { warps: 6, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        let many = run_drs(
            1000,
            6,
            DrsConfig { warps: 6, backup_rows: 8, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        assert!(
            many.rdctrl_stall_rate() <= few.rdctrl_stall_rate() + 0.02,
            "more backup rows must not increase stalls: {} vs {}",
            many.rdctrl_stall_rate(),
            few.rdctrl_stall_rate()
        );
    }

    #[test]
    fn more_swap_buffers_reduce_swap_latency() {
        let slow = run_drs(
            800,
            6,
            DrsConfig { warps: 6, backup_rows: 2, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        let fast = run_drs(
            800,
            6,
            DrsConfig { warps: 6, backup_rows: 2, swap_buffers: 18, ideal: false, lanes: 32 },
        );
        assert!(slow.swaps_completed > 0 && fast.swaps_completed > 0);
        assert!(
            fast.avg_swap_cycles() <= slow.avg_swap_cycles(),
            "18 buffers should swap no slower than 6: {} vs {}",
            fast.avg_swap_cycles(),
            slow.avg_swap_cycles()
        );
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use drs_sim::{MachineState, SpecialOutcome, SpecialUnit};
    use drs_trace::{RayScript, Step, Termination};

    const LANES: usize = 8;

    fn scripts(n: usize, steps_each: usize) -> Vec<RayScript> {
        (0..n)
            .map(|i| {
                RayScript::new(
                    (0..steps_each)
                        .map(|k| Step::Inner {
                            node_addr: 0x1000 + (i * steps_each + k) as u64 * 64,
                            both_children_hit: false,
                        })
                        .collect(),
                    Termination::Escaped,
                )
            })
            .collect()
    }

    fn unit_and_machine(
        scripts: &[RayScript],
        warps: usize,
        backup: usize,
    ) -> (DrsUnit, MachineState<'_>) {
        let cfg =
            DrsConfig { warps, backup_rows: backup, swap_buffers: 6, ideal: false, lanes: LANES };
        let unit = DrsUnit::new(cfg);
        let mut m = MachineState::new(scripts, warps, LANES, cfg.rows() * LANES);
        m.track_dirty = true;
        (unit, m)
    }

    /// A ray with a single inner (or leaf) step.
    fn one_step_ray(i: usize, leaf: bool) -> RayScript {
        let step = if leaf {
            Step::Leaf { node_addr: 0x2000 + i as u64 * 64, prim_base_addr: 0x4000, prim_count: 2 }
        } else {
            Step::Inner { node_addr: 0x1000 + i as u64 * 64, both_children_hit: false }
        };
        RayScript::new(vec![step], Termination::Escaped)
    }

    /// One warp on a half-inner, half-leaf row with the queue drained,
    /// after a first tick has counted the rows. The warp's row is bound
    /// and unparked, so nothing is shufflable and the unit is quiet.
    fn quiet_mixed_row(s: &[RayScript]) -> (DrsUnit, MachineState<'_>, drs_sim::SimStats) {
        let (mut unit, mut m) = unit_and_machine(s, 1, 1);
        let mut stats = drs_sim::SimStats::default();
        for slot in 0..s.len() {
            m.fetch_into(slot);
        }
        assert!(m.queue.is_empty());
        unit.tick(0, &[true; 32], &mut m, &mut stats);
        unit.tick(1, &[true; 32], &mut m, &mut stats);
        assert!(unit.transfers.is_empty());
        assert!(!unit.replan, "an unchanged unit does not plan again");
        assert_eq!(unit.next_event(2), None);
        (unit, m, stats)
    }

    #[test]
    fn park_in_issue_replans_on_next_tick() {
        let s: Vec<RayScript> = (0..LANES).map(|i| one_step_ray(i, i % 2 == 1)).collect();
        let (mut unit, mut m, mut stats) = quiet_mixed_row(&s);
        assert_eq!(unit.issue(0, 0, &mut m, &mut stats), SpecialOutcome::Stall);
        unit.tick(2, &[true; 32], &mut m, &mut stats);
        assert!(!unit.transfers.is_empty(), "the parked warp's row must be shuffled");
    }

    #[test]
    fn rename_in_issue_replans_on_next_tick() {
        // Row 0 (warp 0) mixed, row 1 (unbound) full of inner rays: the
        // warp renames onto row 1, which leaves row 0 unbound and
        // shufflable.
        let s: Vec<RayScript> =
            (0..2 * LANES).map(|i| one_step_ray(i, i < LANES && i % 2 == 1)).collect();
        let (mut unit, mut m, mut stats) = quiet_mixed_row(&s);
        let outcome = unit.issue(0, 0, &mut m, &mut stats);
        assert_eq!(outcome, SpecialOutcome::Proceed { ctrl: drs_kernels::CTRL_TRAV_INNER });
        assert_eq!(unit.row_of(0), 1);
        unit.tick(2, &[true; 32], &mut m, &mut stats);
        assert!(!unit.transfers.is_empty(), "the vacated mixed row must be shuffled");
    }

    #[test]
    fn finished_transfers_clear_both_rows_busy_bits() {
        let s: Vec<RayScript> = (0..LANES).map(|i| one_step_ray(i, i % 2 == 1)).collect();
        let (mut unit, mut m, mut stats) = quiet_mixed_row(&s);
        assert_eq!(unit.issue(0, 0, &mut m, &mut stats), SpecialOutcome::Stall);
        let mut cross_row = false;
        for cycle in 2..2000 {
            unit.tick(cycle, &[true; 32], &mut m, &mut stats);
            assert_eq!(unit.busy, unit.transfer_masks(), "cycle {cycle}");
            cross_row |= unit
                .transfers
                .iter()
                .any(|t| t.src_slot as usize / LANES != t.dst_slot as usize / LANES);
            if unit.transfers.is_empty() {
                break;
            }
        }
        assert!(cross_row, "the transfers moved rays between rows");
        assert!(stats.swaps_completed > 0);
        assert!(unit.transfers.is_empty(), "shuffling settles");
        assert!(unit.busy.iter().all(|&b| b == 0), "no busy bit outlives its transfer");
    }

    #[test]
    fn empty_row_with_queue_returns_fetch() {
        let s = scripts(32, 3);
        let (mut unit, mut m) = unit_and_machine(&s, 2, 1);
        let mut stats = drs_sim::SimStats::default();
        match unit.issue(0, 0, &mut m, &mut stats) {
            SpecialOutcome::Proceed { ctrl } => {
                assert_eq!(ctrl, drs_kernels::CTRL_FETCH);
            }
            SpecialOutcome::Stall => panic!("empty row with queued rays must fetch"),
        }
    }

    #[test]
    fn full_uniform_inner_row_proceeds_without_rename() {
        let s = scripts(32, 3);
        let (mut unit, mut m) = unit_and_machine(&s, 2, 1);
        let mut stats = drs_sim::SimStats::default();
        // Fill warp 0's row with inner-state rays.
        for lane in 0..LANES {
            m.fetch_into(lane);
        }
        let row_before = unit.row_of(0);
        match unit.issue(0, 0, &mut m, &mut stats) {
            SpecialOutcome::Proceed { ctrl } => {
                assert_eq!(ctrl, drs_kernels::CTRL_TRAV_INNER);
                assert_eq!(unit.row_of(0), row_before, "no rename needed");
            }
            SpecialOutcome::Stall => panic!("full uniform row must proceed"),
        }
    }

    #[test]
    fn mixed_row_parks_then_swap_engine_unblocks() {
        // One warp whose row is half inner, half leaf; queue drained so no
        // fetch escape. The warp must stall, and after enough swap-engine
        // ticks it must be able to proceed (minority ejected to spare rows).
        let s: Vec<RayScript> = (0..LANES).map(|i| one_step_ray(i, i % 2 == 1)).collect();
        let (mut unit, mut m) = unit_and_machine(&s, 1, 1);
        let mut stats = drs_sim::SimStats::default();
        for lane in 0..LANES {
            m.fetch_into(lane);
        }
        assert!(m.queue.is_empty());
        // Mixed and nothing uniform to rename onto with rays -> stall.
        let first = unit.issue(0, 0, &mut m, &mut stats);
        assert_eq!(first, SpecialOutcome::Stall);
        // Let the swap engine work with fully idle banks.
        let idle = vec![true; 32];
        let mut proceeded = false;
        for cycle in 0..3000u64 {
            unit.tick(cycle, &idle, &mut m, &mut stats);
            if let SpecialOutcome::Proceed { ctrl } = unit.issue(0, 0, &mut m, &mut stats) {
                assert!(
                    ctrl == drs_kernels::CTRL_TRAV_INNER || ctrl == drs_kernels::CTRL_TRAV_LEAF,
                    "unexpected ctrl {ctrl}"
                );
                proceeded = true;
                break;
            }
        }
        assert!(proceeded, "swap engine never produced a usable row");
        assert!(stats.swaps_completed > 0);
    }

    #[test]
    fn drained_machine_exits() {
        let s = scripts(4, 1);
        let (mut unit, mut m) = unit_and_machine(&s, 1, 1);
        let mut stats = drs_sim::SimStats::default();
        // Consume every ray functionally.
        for i in 0..4 {
            m.fetch_into(i);
            m.consume_step(i);
            m.retire_ray(i);
        }
        assert!(m.all_work_drained());
        match unit.issue(0, 0, &mut m, &mut stats) {
            SpecialOutcome::Proceed { ctrl } => assert_eq!(ctrl, drs_kernels::CTRL_EXIT),
            SpecialOutcome::Stall => panic!("drained machine must exit"),
        }
    }
}
