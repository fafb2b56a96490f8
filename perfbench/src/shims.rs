//! Benchmark-side wrappers around the simulator's public extension
//! traits. They time (special unit) or count (kernel behaviour) every
//! call and forward it unchanged, so a traced cell computes exactly what
//! an untraced one does — the benchmark checks that its `SimStats` match.
//!
//! Each wrapper accumulates in plain fields and adds its totals into a
//! shared [`CallTotals`] when the engine drops it, so a chip cell's
//! per-SM wrappers sum into one record per cell.

use drs_sim::{KernelBehavior, MachineState, SimStats, SpecialOutcome, SpecialUnit};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// Calls into one cell's special units and kernel behaviours.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTotals {
    /// `SpecialUnit::issue` calls and host seconds.
    pub issue_calls: u64,
    pub issue_s: f64,
    /// `SpecialUnit::tick` calls (one per engine step) and host seconds.
    pub tick_calls: u64,
    pub tick_s: f64,
    /// `SpecialUnit::next_event` calls (one per fast-path wake query) and
    /// host seconds.
    pub wake_calls: u64,
    pub wake_s: f64,
    /// `KernelBehavior` per-lane hook calls.
    pub behavior_calls: u64,
}

impl CallTotals {
    /// Fold another record in.
    pub fn add(&mut self, o: &CallTotals) {
        self.issue_calls += o.issue_calls;
        self.issue_s += o.issue_s;
        self.tick_calls += o.tick_calls;
        self.tick_s += o.tick_s;
        self.wake_calls += o.wake_calls;
        self.wake_s += o.wake_s;
        self.behavior_calls += o.behavior_calls;
    }

    /// Host seconds spent inside the special unit.
    pub fn unit_s(&self) -> f64 {
        self.issue_s + self.tick_s + self.wake_s
    }
}

fn flush(out: &Mutex<CallTotals>, acc: &CallTotals) {
    // A poisoned lock means another wrapper panicked mid-add; the cell
    // has failed anyway and its totals are not reported.
    if let Ok(mut totals) = out.lock() {
        totals.add(acc);
    }
}

/// Times `issue`, `tick` and `next_event` of the wrapped unit.
pub struct TimedUnit<'a, U> {
    inner: U,
    acc: CallTotals,
    // `next_event` takes `&self`.
    wake_calls: Cell<u64>,
    wake_s: Cell<f64>,
    out: &'a Mutex<CallTotals>,
}

impl<'a, U: SpecialUnit> TimedUnit<'a, U> {
    pub fn new(inner: U, out: &'a Mutex<CallTotals>) -> TimedUnit<'a, U> {
        TimedUnit {
            inner,
            acc: CallTotals::default(),
            wake_calls: Cell::new(0),
            wake_s: Cell::new(0.0),
            out,
        }
    }
}

impl<U: SpecialUnit> SpecialUnit for TimedUnit<'_, U> {
    fn issue(
        &mut self,
        warp: usize,
        token: u16,
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) -> SpecialOutcome {
        let t = Instant::now();
        let out = self.inner.issue(warp, token, m, stats);
        self.acc.issue_s += t.elapsed().as_secs_f64();
        self.acc.issue_calls += 1;
        out
    }

    fn tick(
        &mut self,
        cycle: u64,
        idle_banks: &[bool],
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) {
        let t = Instant::now();
        self.inner.tick(cycle, idle_banks, m, stats);
        self.acc.tick_s += t.elapsed().as_secs_f64();
        self.acc.tick_calls += 1;
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        let t = Instant::now();
        let out = self.inner.next_event(now);
        self.wake_s.set(self.wake_s.get() + t.elapsed().as_secs_f64());
        self.wake_calls.set(self.wake_calls.get() + 1);
        out
    }
}

impl<U> Drop for TimedUnit<'_, U> {
    fn drop(&mut self) {
        let acc =
            CallTotals { wake_calls: self.wake_calls.get(), wake_s: self.wake_s.get(), ..self.acc };
        flush(self.out, &acc);
    }
}

/// Counts the per-lane hook calls of the wrapped kernel behaviour.
pub struct CountingBehavior<'a, B> {
    inner: B,
    calls: Cell<u64>,
    out: &'a Mutex<CallTotals>,
}

impl<'a, B: KernelBehavior> CountingBehavior<'a, B> {
    pub fn new(inner: B, out: &'a Mutex<CallTotals>) -> CountingBehavior<'a, B> {
        CountingBehavior { inner, calls: Cell::new(0), out }
    }

    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }
}

impl<B: KernelBehavior> KernelBehavior for CountingBehavior<'_, B> {
    fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
        self.count();
        self.inner.eval_cond(token, warp, lane, m)
    }

    fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
        self.count();
        self.inner.eval_addr(token, warp, lane, m)
    }

    fn apply_effect(&self, token: u16, warp: usize, lane: usize, m: &mut MachineState<'_>) {
        self.count();
        self.inner.apply_effect(token, warp, lane, m);
    }

    fn slot_count(&self, warps: usize, lanes: usize) -> usize {
        self.inner.slot_count(warps, lanes)
    }

    fn initialize(&self, m: &mut MachineState<'_>) {
        self.inner.initialize(m);
    }
}

impl<B> Drop for CountingBehavior<'_, B> {
    fn drop(&mut self) {
        let acc = CallTotals { behavior_calls: self.calls.get(), ..CallTotals::default() };
        flush(self.out, &acc);
    }
}
