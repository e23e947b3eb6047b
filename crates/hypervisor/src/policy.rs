//! Page replacement policies (§6.2).
//!
//! "The efficiency of RAM Ext depends on the replacement policy which
//! selects the page that should be transferred to a remote memory when
//! the local memory becomes scarce." The paper compares three policies
//! over a FIFO list of faulted pages:
//!
//! - **FIFO** — evict the page with the oldest fault. O(1), but blind to
//!   reuse: it happily evicts hot pages.
//! - **Clock** — walk the list clearing accessed bits, giving accessed
//!   pages a second chance. Fewest faults, but the walk is expensive
//!   (Fig. 8 bottom).
//! - **Mixed** — Clock over the first `x` entries only (x = 5 in the
//!   paper), falling back to FIFO on the rest: most of Clock's fault
//!   avoidance at a fraction of its iteration cost. The paper's winner.
//!
//! [`Policy::Random`] is not one of the paper's hypervisor policies; it
//! approximates the *guest kernel's* active/inactive LRU for the Explicit
//! SD model, whose partial hot-set protection behaves like random
//! eviction under adversarial sweeps.

use zombieland_mem::{Gfn, GuestPageTable};
use zombieland_simcore::{Cycles, DetRng};

/// A replacement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Oldest fault first.
    Fifo,
    /// Second-chance walk over the whole list.
    Clock,
    /// Clock over the first `x` entries, FIFO afterwards.
    Mixed {
        /// How many entries the Clock phase examines (paper: 5).
        x: usize,
    },
    /// Uniform random victim (guest-LRU approximation, not a paper
    /// policy).
    Random,
}

impl Policy {
    /// The paper's Mixed configuration (x = 5).
    pub const MIXED_DEFAULT: Policy = Policy::Mixed { x: 5 };

    /// Table/figure label.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "FIFO",
            Policy::Clock => "Clock",
            Policy::Mixed { .. } => "Mixed",
            Policy::Random => "Random",
        }
    }
}

/// Cycle costs of the list operations, calibrated so the Fig. 8 (bottom)
/// magnitudes come out: FIFO ~100 cycles, Mixed ~hundreds, Clock up to
/// ~2000 when the walk is long.
mod cost {
    /// Fixed entry/bookkeeping cost of any selection.
    pub const BASE: u64 = 80;
    /// Popping/re-queuing one list entry.
    pub const LIST_OP: u64 = 20;
    /// Examining one entry's accessed bit (EPT/page-table walk).
    pub const EXAMINE: u64 = 130;
}

/// Sentinel for "no neighbor" in the intrusive list.
const NIL: u32 = u32::MAX;

/// The FIFO list of faulted pages plus the victim-selection logic.
///
/// The list is *intrusive*: each guest frame number indexes dense
/// `next`/`prev` arrays, so push, pop-front and Clock's re-queue are a
/// handful of array writes with no per-node allocation — the fault path
/// pays the same cost whether the list holds ten pages or ten million.
/// Order semantics are exactly those of the deque it replaces (FIFO
/// insertion order, [`Policy::Random`] removes the i-th entry from the
/// front).
#[derive(Debug)]
pub struct FaultList {
    /// `next[g]`/`prev[g]`: neighbors of page `g` toward the tail/head.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Whether page `g` is currently on the list (NIL neighbors are
    /// ambiguous at the ends).
    linked: Vec<bool>,
    head: u32,
    tail: u32,
    len: usize,
    /// Entries whose accessed bit Clock or Mixed examined since creation
    /// or the last reset.
    examined: u64,
    rng: DetRng,
}

impl FaultList {
    /// Creates an empty list. `seed` only matters for [`Policy::Random`].
    pub fn new(seed: u64) -> Self {
        Self::with_capacity(seed, 0)
    }

    /// Creates an empty list with node storage for frame numbers
    /// `0..pages` preallocated (it still grows on demand past that).
    pub fn with_capacity(seed: u64, pages: u64) -> Self {
        let n = pages as usize;
        FaultList {
            next: vec![NIL; n],
            prev: vec![NIL; n],
            linked: vec![false; n],
            head: NIL,
            tail: NIL,
            len: 0,
            examined: 0,
            rng: DetRng::new(seed),
        }
    }

    /// Returns the list to the empty state `with_capacity(seed, pages)`
    /// would produce, reusing the node arrays and re-seeding the RNG —
    /// the scratch-pool recycling path. A reset list is observably
    /// identical to a fresh one, including the [`Policy::Random`] draw
    /// sequence.
    pub fn reset(&mut self, seed: u64, pages: u64) {
        let n = pages as usize;
        self.next.clear();
        self.next.resize(n, NIL);
        self.prev.clear();
        self.prev.resize(n, NIL);
        self.linked.clear();
        self.linked.resize(n, false);
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        self.examined = 0;
        self.rng = DetRng::new(seed);
    }

    /// Records a fresh fault (page just became local). A page is on the
    /// list at most once — the engine only pushes on the fault that makes
    /// it local, and eviction removes it.
    pub fn push(&mut self, gfn: Gfn) {
        let i = gfn.get() as usize;
        if i >= self.linked.len() {
            self.next.resize(i + 1, NIL);
            self.prev.resize(i + 1, NIL);
            self.linked.resize(i + 1, false);
        }
        debug_assert!(!self.linked[i], "page {gfn:?} pushed while listed");
        let i32b = i as u32;
        self.next[i] = NIL;
        self.prev[i] = self.tail;
        if self.tail == NIL {
            self.head = i32b;
        } else {
            self.next[self.tail as usize] = i32b;
        }
        self.tail = i32b;
        self.linked[i] = true;
        self.len += 1;
    }

    /// Detaches and returns the oldest entry.
    fn pop_front(&mut self) -> Option<Gfn> {
        if self.head == NIL {
            return None;
        }
        let i = self.head;
        self.unlink(i);
        Some(Gfn::new(i as u64))
    }

    /// Detaches node `i`, stitching its neighbors together.
    fn unlink(&mut self, i: u32) {
        let iu = i as usize;
        debug_assert!(self.linked[iu]);
        let (p, n) = (self.prev[iu], self.next[iu]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[iu] = NIL;
        self.next[iu] = NIL;
        self.linked[iu] = false;
        self.len -= 1;
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Entries whose accessed bit Clock or Mixed examined since creation
    /// or the last [`FaultList::reset`] (the `hv.policy.examined` count).
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Selects and removes a victim according to `policy`, returning the
    /// page and the policy's own cost in CPU cycles (the Fig. 8 bottom
    /// metric). Returns `None` when the list is empty.
    pub fn select_victim(
        &mut self,
        policy: Policy,
        gpt: &mut GuestPageTable,
    ) -> Option<(Gfn, Cycles)> {
        if self.len == 0 {
            return None;
        }
        let mut cycles = cost::BASE;
        let victim = match policy {
            Policy::Fifo => {
                cycles += cost::LIST_OP;
                self.pop_front()?
            }
            Policy::Clock => {
                // Second chance: accessed pages are cleared and re-queued;
                // the first un-accessed page is the victim. Bounded by one
                // full revolution plus one entry (everything cleared by
                // then).
                let mut victim = None;
                for _ in 0..=self.len {
                    let gfn = self.pop_front()?;
                    cycles += cost::EXAMINE;
                    self.examined += 1;
                    if gpt.accessed(gfn).unwrap_or(false) {
                        let _ = gpt.clear_accessed(gfn);
                        self.push(gfn);
                        cycles += cost::LIST_OP;
                    } else {
                        victim = Some(gfn);
                        break;
                    }
                }
                victim?
            }
            Policy::Mixed { x } => {
                // Clock over the first x entries (clearing as it goes);
                // if all were accessed, FIFO takes the oldest of the rest
                // — which by now is the front.
                let mut victim = None;
                let probe = x.min(self.len);
                for _ in 0..probe {
                    let gfn = self.pop_front()?;
                    cycles += cost::EXAMINE;
                    self.examined += 1;
                    if gpt.accessed(gfn).unwrap_or(false) {
                        let _ = gpt.clear_accessed(gfn);
                        self.push(gfn);
                        cycles += cost::LIST_OP;
                    } else {
                        victim = Some(gfn);
                        break;
                    }
                }
                match victim {
                    Some(v) => v,
                    None => {
                        cycles += cost::LIST_OP;
                        self.pop_front()?
                    }
                }
            }
            Policy::Random => {
                // The i-th entry from the head, exactly what the deque's
                // `remove(idx)` returned.
                let idx = self.rng.below(self.len as u64) as usize;
                cycles += cost::LIST_OP + cost::EXAMINE;
                let mut node = self.head;
                for _ in 0..idx {
                    node = self.next[node as usize];
                }
                if node == NIL {
                    return None;
                }
                self.unlink(node);
                Gfn::new(node as u64)
            }
        };
        Some((victim, Cycles::new(cycles)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zombieland_mem::FrameId;
    use zombieland_simcore::Pages;

    fn table_with(n: u64) -> (GuestPageTable, FaultList) {
        let mut gpt = GuestPageTable::new(Pages::new(n));
        let mut list = FaultList::new(0);
        for i in 0..n {
            gpt.map_local(Gfn::new(i), FrameId::new(i)).unwrap();
            list.push(Gfn::new(i));
        }
        (gpt, list)
    }

    #[test]
    fn fifo_takes_oldest() {
        let (mut gpt, mut list) = table_with(4);
        let (v, c) = list.select_victim(Policy::Fifo, &mut gpt).unwrap();
        assert_eq!(v, Gfn::new(0));
        assert_eq!(c.get(), 100);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn clock_gives_second_chances() {
        let (mut gpt, mut list) = table_with(4);
        // All pages were just mapped (accessed = true) except page 2.
        gpt.clear_accessed(Gfn::new(2)).unwrap();
        let (v, c) = list.select_victim(Policy::Clock, &mut gpt).unwrap();
        assert_eq!(v, Gfn::new(2), "first un-accessed page wins");
        // Pages 0 and 1 got their accessed bits cleared and re-queued.
        assert!(!gpt.accessed(Gfn::new(0)).unwrap());
        assert!(!gpt.accessed(Gfn::new(1)).unwrap());
        assert!(gpt.accessed(Gfn::new(3)).unwrap(), "never examined");
        // Cost grew with the 3 examinations.
        assert!(c.get() > 3 * 100);
        assert_eq!(list.examined(), 3);
    }

    #[test]
    fn clock_terminates_when_everything_accessed() {
        let (mut gpt, mut list) = table_with(64);
        // Every page accessed: the first revolution clears, the second
        // finds a victim — bounded, no infinite loop.
        let (v, c) = list.select_victim(Policy::Clock, &mut gpt).unwrap();
        assert_eq!(v, Gfn::new(0));
        assert!(c.get() > 64 * cost::EXAMINE, "walked the whole list: {c:?}");
        assert_eq!(list.len(), 63);
    }

    #[test]
    fn mixed_probes_then_fifo() {
        let (mut gpt, mut list) = table_with(10);
        // All accessed: Mixed examines 5, finds nothing, FIFOs entry 5.
        let (v, c) = list
            .select_victim(Policy::Mixed { x: 5 }, &mut gpt)
            .unwrap();
        assert_eq!(v, Gfn::new(5));
        assert_eq!(list.examined(), 5);
        // Cost is bounded by x examinations regardless of list length.
        assert!(c.get() < 1_000, "{c:?}");
        // But an un-accessed page within the window is preferred.
        let (mut gpt2, mut list2) = table_with(10);
        gpt2.clear_accessed(Gfn::new(1)).unwrap();
        let (v2, _) = list2
            .select_victim(Policy::Mixed { x: 5 }, &mut gpt2)
            .unwrap();
        assert_eq!(v2, Gfn::new(1));
        assert_eq!(list2.examined(), 2);
        list2.select_victim(Policy::Fifo, &mut gpt2).unwrap();
        assert_eq!(list2.examined(), 2, "FIFO examines nothing");
        list2.reset(0, 10);
        assert_eq!(list2.examined(), 0);
    }

    #[test]
    fn mixed_cost_between_fifo_and_clock() {
        // With everything accessed, FIFO < Mixed < Clock in cycles.
        let run = |p: Policy| {
            let (mut gpt, mut list) = table_with(128);
            list.select_victim(p, &mut gpt).unwrap().1.get()
        };
        let fifo = run(Policy::Fifo);
        let mixed = run(Policy::MIXED_DEFAULT);
        let clock = run(Policy::Clock);
        assert!(fifo < mixed, "{fifo} < {mixed}");
        assert!(mixed < clock, "{mixed} < {clock}");
        assert!(
            clock > 10 * mixed,
            "Clock's walk dominates: {clock} vs {mixed}"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let pick = |seed| {
            let mut gpt = GuestPageTable::new(Pages::new(32));
            let mut list = FaultList::new(seed);
            for i in 0..32 {
                gpt.map_local(Gfn::new(i), FrameId::new(i)).unwrap();
                list.push(Gfn::new(i));
            }
            list.select_victim(Policy::Random, &mut gpt).unwrap().0
        };
        assert_eq!(pick(1), pick(1));
    }

    #[test]
    fn interleaved_evictions_keep_fifo_order() {
        // Exercise middle unlinks + re-push: evict from the middle
        // (Random), re-fault the page, and confirm FIFO order follows
        // insertion order throughout.
        let (mut gpt, mut list) = table_with(8);
        let (victim, _) = list.select_victim(Policy::Random, &mut gpt).unwrap();
        list.push(victim); // Page faults back in: now the newest entry.
        let mut order = Vec::new();
        while let Some((v, _)) = list.select_victim(Policy::Fifo, &mut gpt) {
            order.push(v);
        }
        assert_eq!(order.len(), 8);
        assert_eq!(*order.last().unwrap(), victim, "re-pushed page is newest");
        let mut sorted = order.clone();
        sorted.sort_unstable_by_key(|g| g.get());
        assert_eq!(sorted.len(), 8, "every page came out exactly once");
    }

    #[test]
    fn reset_matches_fresh_construction() {
        let (mut gpt, mut list) = table_with(8);
        list.select_victim(Policy::Random, &mut gpt).unwrap();
        list.select_victim(Policy::Fifo, &mut gpt).unwrap();
        list.reset(3, 16);
        let fresh = FaultList::with_capacity(3, 16);
        assert_eq!(format!("{list:?}"), format!("{fresh:?}"));
        // The RNG is re-seeded, so Random draws repeat from the start.
        let draws = |l: &mut FaultList| {
            let mut gpt = GuestPageTable::new(Pages::new(16));
            for i in 0..16 {
                gpt.map_local(Gfn::new(i), FrameId::new(i)).unwrap();
                l.push(Gfn::new(i));
            }
            l.select_victim(Policy::Random, &mut gpt).unwrap().0
        };
        let mut fresh = fresh;
        assert_eq!(draws(&mut list), draws(&mut fresh));
    }

    #[test]
    fn empty_list_yields_none() {
        let mut gpt = GuestPageTable::new(Pages::new(1));
        let mut list = FaultList::new(0);
        assert!(list.select_victim(Policy::Fifo, &mut gpt).is_none());
        assert!(list.is_empty());
    }
}
