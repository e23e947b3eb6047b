//! The shard scan crew: worker threads running read-only decision
//! scans across the simulator's rack shards in lock-step rounds.
//!
//! The sharded event loop (see `dc.rs` and DESIGN §12) keeps every
//! *mutation* on the coordinator thread, in the exact serial order —
//! that is what preserves bit-identical float accounting. What
//! decomposes is the *search*: each placement/wake/demotion decision is
//! a pure query over per-shard index sets, answered shard-by-shard and
//! merged by a total-order key. The crew exists to run those per-shard
//! queries concurrently when the fleet is large enough to pay for the
//! handoff.
//!
//! Protocol: one round per decision. The coordinator publishes
//! `(epoch, req, &Dc)` under the mutex and wakes the workers; worker
//! `w` scans shards `w, w + stride, …` (the coordinator takes stripe 0
//! itself), writes its best candidate into its slot, and the last
//! worker signals completion. The coordinator blocks until every worker
//! is done, so the `&Dc` published for the round never outlives it.
//! Whether a scan ran inline or on the crew is unobservable in the
//! output: both compute the same per-shard candidates and the same
//! merged minimum.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::dc::Dc;
use crate::policy::MigrantVm;

/// One shard-decomposable decision scan. Every variant is a read-only
/// query over one shard's index sets; all mutation stays with the
/// coordinator.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ScanReq {
    /// First active host in stacking order that admits an arrival. The
    /// walk starts at stacking-order key `from` (see `dc::seek_key`).
    Admit {
        cpu: f64,
        cpu_used: f64,
        mem: f64,
        from: u64,
    },
    /// First active host in stacking order that accepts a migration,
    /// skipping the evacuation source; the walk starts at key `from`.
    Migrate {
        vm: MigrantVm,
        skip: usize,
        from: u64,
    },
    /// Least-lending zombie (the `IdleZombieFirst` wake preference).
    WakeZombie,
    /// Lowest-index non-active host (the wake fallback).
    Sleeping,
    /// Least-used active host (the overcommit fallback).
    LeastUsed,
    /// Lowest-index zombie lending nothing (§4.4 demotion candidate).
    IdleZombie,
}

/// A scan's answer over one or more shards.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ScanHit {
    /// The best candidate, `(merge key, host index)`. Keys are
    /// constructed so the tuple minimum across shards is exactly the
    /// host the serial full scan would have picked — see
    /// [`Dc::scan_shard`].
    pub(crate) best: Option<(u64, usize)>,
    /// Hosts an `Admit`/`Migrate` walk visited (0 for the other scans).
    pub(crate) examined: u64,
    /// Blocks an `Admit`/`Migrate` walk skipped on their best-case
    /// summary (0 for the other scans).
    pub(crate) skipped: u64,
}

/// Merges two shard answers: tuple minimum (`None` loses to anything),
/// examined and skipped counts add.
pub(crate) fn merge_hit(a: ScanHit, b: ScanHit) -> ScanHit {
    let best = match (a.best, b.best) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    };
    ScanHit {
        best,
        examined: a.examined + b.examined,
        skipped: a.skipped + b.skipped,
    }
}

/// Fleet size below which the crew never spawns: per-round condvar
/// handoff costs microseconds, which swamps the scan itself on small
/// fleets. Determinism does not depend on this gate — inline and crew
/// scans compute identical answers — so tests may pin any fleet size on
/// either side of it.
pub(crate) const CREW_MIN_FLEET: usize = 512;

/// State of the round in flight, guarded by the [`Shared`] mutex.
struct Round {
    /// Bumped once per round; workers wait for a change.
    epoch: u64,
    /// The coordinator's `&Dc` for this round, as a pointer-sized int
    /// (`0` between rounds). See the SAFETY note on [`Crew::round`].
    dc: usize,
    req: ScanReq,
    /// Workers still scanning this round.
    pending: usize,
    /// One result slot per worker.
    out: Vec<ScanHit>,
    quit: bool,
}

struct Shared {
    round: Mutex<Round>,
    go: Condvar,
    done: Condvar,
}

/// The crew handle owned by `Dc`. Dropping it shuts the workers down.
pub(crate) struct Crew {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Worker `w` owns shards `w, w + stride, …`; the coordinator is
    /// "worker 0".
    stride: usize,
}

impl Crew {
    /// Spawns a crew for `nshards` shards under a thread budget of
    /// `budget` (coordinator included). Returns `None` when the budget
    /// leaves no room for an extra worker.
    pub(crate) fn spawn(nshards: usize, budget: usize) -> Option<Crew> {
        let workers = budget.min(nshards).saturating_sub(1);
        if workers == 0 {
            return None;
        }
        let stride = workers + 1;
        let shared = Arc::new(Shared {
            round: Mutex::new(Round {
                epoch: 0,
                dc: 0,
                req: ScanReq::Sleeping,
                pending: 0,
                out: vec![ScanHit::default(); workers],
                quit: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..=workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_main(&shared, w, stride))
            })
            .collect();
        Some(Crew {
            shared,
            handles,
            stride,
        })
    }

    /// Runs one scan round over every shard of `dc`, returning the
    /// merged best candidate. The coordinator scans its own shard
    /// stripe while the workers scan theirs.
    pub(crate) fn round(&self, dc: &Dc, req: ScanReq) -> ScanHit {
        {
            let mut st = self.shared.round.lock().expect("crew mutex");
            st.req = req;
            st.dc = dc as *const Dc as usize;
            st.pending = self.handles.len();
            st.epoch += 1;
            self.shared.go.notify_all();
        }
        let mut best = ScanHit::default();
        let mut s = 0;
        while s < dc.shard_count() {
            best = merge_hit(best, dc.scan_shard(s, &req));
            s += self.stride;
        }
        let mut st = self.shared.round.lock().expect("crew mutex");
        while st.pending > 0 {
            st = self.shared.done.wait(st).expect("crew mutex");
        }
        st.dc = 0;
        for &hit in &st.out {
            best = merge_hit(best, hit);
        }
        best
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        {
            let mut st = self.shared.round.lock().expect("crew mutex");
            st.quit = true;
            self.shared.go.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(shared: &Shared, w: usize, stride: usize) {
    let mut seen = 0u64;
    loop {
        let (epoch, req, dc_addr) = {
            let mut st = shared.round.lock().expect("crew mutex");
            loop {
                if st.quit {
                    return;
                }
                if st.epoch != seen {
                    break;
                }
                st = shared.go.wait(st).expect("crew mutex");
            }
            (st.epoch, st.req, st.dc)
        };
        seen = epoch;
        // SAFETY: `dc_addr` is the coordinator's `&Dc`, published under
        // the mutex for exactly this epoch. The coordinator blocks in
        // `round` until `pending` hits zero, so the reference is live
        // for the whole scan; `scan_shard` takes `&Dc` and the
        // coordinator performs no mutation while it waits, so the reads
        // are race-free. The mutex hand-offs order the publication
        // before our read and our results before the coordinator's
        // merge.
        let dc = unsafe { &*(dc_addr as *const Dc) };
        let mut best = ScanHit::default();
        let mut s = w;
        while s < dc.shard_count() {
            best = merge_hit(best, dc.scan_shard(s, &req));
            s += stride;
        }
        let mut st = shared.round.lock().expect("crew mutex");
        st.out[w - 1] = best;
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_one();
        }
    }
}
