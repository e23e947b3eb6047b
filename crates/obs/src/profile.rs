//! Wall-time phase profiling for the hot-path hunt.
//!
//! This is the one obs module that is *allowed* to read the wall clock:
//! it measures how long the host spends in each phase of a run so the
//! next optimisation targets the right loop. It never feeds back into
//! simulation state — spans record into process-global atomics that the
//! deterministic output paths never read — so enabling `--profile`
//! cannot change a single simulated byte.
//!
//! Accounting is **self-time**: each thread keeps a span stack, and
//! elapsed wall time is always attributed to the phase on top of the
//! stack at the moment it passed. Entering a nested span charges the
//! time so far to the parent, then switches attribution to the child;
//! leaving charges the child and switches back. A nanosecond is
//! therefore counted **at most once** no matter how spans nest, which is
//! what lets a profile report claim "phases sum to ≈ total run time"
//! instead of double-counting parents and children.
//!
//! Profiling is off by default and gated by one relaxed atomic load, so
//! instrumented loops cost ~nothing when disabled.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A profiled phase of the run. Variants double as accumulator indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Workload/trace generation before the event loop starts.
    TraceGen,
    /// Building the datacenter model and seeding the event queue.
    SimSetup,
    /// Job arrival handling (placement, admission) in the event loop.
    Arrivals,
    /// Job departure handling in the event loop.
    Departures,
    /// Consolidation scans (evacuate-and-zombify sweeps).
    Consolidation,
    /// Waking sleeping servers to place or reclaim.
    WakeUps,
    /// Periodic timeline sampling at tick events.
    Sampling,
    /// Filing the stacking order's pending booking and load changes,
    /// run at the start of the admission or consolidation walk that needs
    /// them (so a departure's re-filing shows here, not in that walk).
    StackDrain,
    /// Hypervisor engine setup and teardown around a fault batch.
    HvSetup,
    /// The hypervisor remote-fault batch loop itself.
    FaultBatch,
    /// Replay client: encoding and writing request frames.
    ReplaySend,
    /// Replay client: reading and decoding response frames.
    ReplayRecv,
    /// Rendering tables and writing artifacts after the run.
    Render,
    /// Never entered: the simulator's scans are serial and have no
    /// phase of their own. Kept only because `perfbench/src/dc.rs`
    /// still maps it to `sim.shard_round_s`, which therefore reads 0;
    /// a later benchmark-only change removes both.
    ShardRound,
}

/// Every phase, in accumulator-index order.
pub const PHASES: [Phase; 14] = [
    Phase::TraceGen,
    Phase::SimSetup,
    Phase::Arrivals,
    Phase::Departures,
    Phase::Consolidation,
    Phase::WakeUps,
    Phase::Sampling,
    Phase::StackDrain,
    Phase::HvSetup,
    Phase::FaultBatch,
    Phase::ReplaySend,
    Phase::ReplayRecv,
    Phase::Render,
    Phase::ShardRound,
];

const PHASE_COUNT: usize = PHASES.len();

impl Phase {
    /// The snake_case spelling used in tables and `PROFILE_*.json`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::TraceGen => "trace_gen",
            Phase::SimSetup => "sim_setup",
            Phase::Arrivals => "arrivals",
            Phase::Departures => "departures",
            Phase::Consolidation => "consolidation",
            Phase::WakeUps => "wake_ups",
            Phase::Sampling => "sampling",
            Phase::StackDrain => "stack_drain",
            Phase::HvSetup => "hv_setup",
            Phase::FaultBatch => "fault_batch",
            Phase::ReplaySend => "replay_send",
            Phase::ReplayRecv => "replay_recv",
            Phase::Render => "render",
            Phase::ShardRound => "shard_round",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static WALL_NS: [AtomicU64; PHASE_COUNT] = [ZERO; PHASE_COUNT];
static SPANS: [AtomicU64; PHASE_COUNT] = [ZERO; PHASE_COUNT];

thread_local! {
    static STACK: RefCell<SpanStack> = const { RefCell::new(SpanStack { frames: Vec::new(), last: None }) };
}

struct SpanStack {
    /// Phase indices of the open spans, innermost last.
    frames: Vec<usize>,
    /// When attribution last switched (span entry or exit).
    last: Option<Instant>,
}

impl SpanStack {
    /// Charges the time since `last` to the span currently on top.
    fn settle(&mut self, now: Instant) {
        if let (Some(&top), Some(last)) = (self.frames.last(), self.last) {
            let ns = now.duration_since(last).as_nanos() as u64;
            WALL_NS[top].fetch_add(ns, Ordering::Relaxed);
        }
        self.last = Some(now);
    }
}

/// Turns profiling on or off process-wide. Spans opened while disabled
/// stay no-ops even if profiling is enabled before they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes all accumulators (call before a profiled run).
pub fn reset() {
    for a in &WALL_NS {
        a.store(0, Ordering::Relaxed);
    }
    for a in &SPANS {
        a.store(0, Ordering::Relaxed);
    }
}

/// Opens a span for `phase` on this thread. Time passing while this
/// guard is the innermost open span is attributed to `phase`; dropping
/// it resumes attribution to the enclosing span (if any).
#[must_use = "a span only measures while the guard is alive"]
pub fn span(phase: Phase) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: false };
    }
    let idx = phase as usize;
    SPANS[idx].fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.settle(Instant::now());
        s.frames.push(idx);
    });
    SpanGuard { armed: true }
}

/// Closes its phase's span on drop (see [`span`]).
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.settle(Instant::now());
            s.frames.pop();
            if s.frames.is_empty() {
                s.last = None;
            }
        });
    }
}

/// One phase's accumulated totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Self-time attributed to the phase, in wall nanoseconds.
    pub wall_ns: u64,
    /// How many spans were opened for the phase.
    pub spans: u64,
}

/// Reads every phase that recorded at least one span, in index order.
pub fn snapshot() -> Vec<PhaseStat> {
    PHASES
        .iter()
        .map(|&phase| PhaseStat {
            phase,
            wall_ns: WALL_NS[phase as usize].load(Ordering::Relaxed),
            spans: SPANS[phase as usize].load(Ordering::Relaxed),
        })
        .filter(|s| s.spans > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// One test function on purpose: the accumulators are process-global,
    /// and `cargo test` runs test functions in parallel.
    #[test]
    fn spans_partition_time_and_respect_the_enable_gate() {
        // Disabled: spans are free and record nothing.
        set_enabled(false);
        reset();
        {
            let _g = span(Phase::Arrivals);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(snapshot().is_empty(), "disabled spans must not record");

        // Enabled, nested: child time comes out of the parent's account.
        set_enabled(true);
        reset();
        let start = Instant::now();
        {
            let _outer = span(Phase::FaultBatch);
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = span(Phase::WakeUps);
                std::thread::sleep(Duration::from_millis(4));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let total = start.elapsed().as_nanos() as u64;
        let stats = snapshot();
        let get = |p: Phase| stats.iter().find(|s| s.phase == p).copied().unwrap();
        let outer = get(Phase::FaultBatch);
        let inner = get(Phase::WakeUps);
        assert_eq!(outer.spans, 1);
        assert_eq!(inner.spans, 1);
        assert!(inner.wall_ns >= Duration::from_millis(4).as_nanos() as u64);
        // Self-time: the sum of phases never exceeds covered wall time.
        let sum = outer.wall_ns + inner.wall_ns;
        assert!(
            sum <= total,
            "self-time must not double-count: {sum} > {total}"
        );
        // And the two phases together cover (almost) the whole window.
        assert!(
            sum >= Duration::from_millis(9).as_nanos() as u64,
            "phases should cover the slept time, got {sum}ns"
        );

        // An empty stack after all guards dropped: a fresh span still works.
        {
            let _g = span(Phase::Render);
        }
        assert_eq!(get(Phase::FaultBatch).wall_ns, outer.wall_ns);

        set_enabled(false);
        reset();
    }
}
