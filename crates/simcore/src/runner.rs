//! Deterministic parallel execution of independent simulation runs.
//!
//! Every experiment in the workspace is a batch of *independent*
//! simulations: the Fig. 10 policy×profile×trace grid, the Table 1/2
//! local-percentage sweeps, the ablation suite. Each run is a pure
//! function of its inputs (seeded [`crate::DetRng`], virtual
//! [`crate::SimTime`] clock, no OS entropy or wall-clock reads), so the
//! batch can fan out across threads without changing a single output
//! bit: results are collected *by index*, never by completion order, and
//! per-run seeds come from [`crate::rng::derive_seed`] rather than any
//! shared RNG stream.
//!
//! The implementation uses `std::thread::scope` — plain std, keeping the
//! workspace's no-external-dependencies rule — with a shared atomic
//! cursor handing out run indices. Worker count changes scheduling only;
//! a panic in any run propagates to the caller once the scope joins.
//!
//! Two properties keep the fan-out from *costing* time at small per-run
//! budgets:
//!
//! * **Lock-free result collection.** Each result lands in its own
//!   [`UnsafeCell`] slot. The atomic cursor hands every index to exactly
//!   one worker, so slot writes are disjoint by construction and need no
//!   lock; the scope join sequences all writes before the caller reads
//!   the slots back.
//! * **A shared worker budget.** Nested fan-outs (an experiment grid
//!   whose cells fan out again) *split* the inherited worker count
//!   instead of multiplying it: a top-level `run_indexed(jobs = N, ..)`
//!   grants the whole call tree a budget of `N` live workers, and each
//!   worker passes an equal share to whatever it runs. Total live worker
//!   threads never exceed the top-level `jobs`, at any nesting depth.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The worker budget this thread may spend on fan-outs. `None`
    /// outside any runner scope, meaning the next `run_indexed` call is
    /// top-level and its `jobs` argument *is* the budget; `Some(n)`
    /// inside a worker, meaning nested calls may keep at most `n`
    /// workers (this thread included) live.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Restores a thread's previous budget when a fan-out ends or unwinds.
struct BudgetGuard(Option<usize>);

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        BUDGET.with(|b| b.set(self.0));
    }
}

/// The number of worker threads to use when nothing configures one: the
/// machine's available parallelism (1 if that cannot be probed).
///
/// Configuration overrides (`--jobs`, `ZL_JOBS`, a scenario file's
/// `jobs` key) are resolved by the `zombieland-core` scenario layer,
/// which falls back to this probe — simcore itself never reads the
/// environment, so nested fan-outs stay a pure function of their
/// arguments.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One result slot per run index, written without locks.
///
/// Safety argument (why the `Sync` impl below is sound): indices come
/// from a single `fetch_add` cursor, so each index — and therefore each
/// cell — is handed to exactly one worker, and no two threads ever touch
/// the same cell. The caller only reads the cells after
/// `std::thread::scope` joins every worker, which happens-before the
/// reads. On unwind the `Vec` drops each cell's contents normally.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: disjoint-index write discipline plus the scope-join barrier,
// as argued on the struct.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(count: usize) -> Self {
        Slots((0..count).map(|_| UnsafeCell::new(None)).collect())
    }

    /// Stores the result for index `i`.
    ///
    /// # Safety
    ///
    /// The caller must be the one worker the cursor handed index `i` to.
    unsafe fn put(&self, i: usize, value: T) {
        *self.0[i].get() = Some(value);
    }

    /// Consumes the table after every worker has joined.
    fn into_results(self) -> Vec<T> {
        self.0
            .into_iter()
            .map(|c| c.into_inner().expect("every index was produced"))
            .collect()
    }
}

/// Runs `count` independent jobs, `f(index)` each, on up to `jobs`
/// worker threads, returning results ordered by index.
///
/// `f` must be a pure function of its index (plus captured immutable
/// state) for the determinism guarantee to hold; the function signature
/// (`Fn` + `Sync`, results `Send`) enforces the sharing rules, and
/// index-ordered collection erases scheduling order from the output.
///
/// `jobs == 1` (or a single job) degenerates to a plain serial loop on
/// the calling thread — byte-identical to what the scoped workers
/// produce, which tests assert.
///
/// The calling thread participates as a worker, so `jobs = N` means `N`
/// live workers, not `N` spawned threads plus an idle caller. When
/// called from inside another `run_indexed` worker, `jobs` is clamped to
/// that worker's budget share and the share is split further among the
/// nested workers — see the module docs.
pub fn run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let inherited = BUDGET.with(|b| b.get());
    // The budget is the total number of live workers this call tree may
    // use: the inherited share when nested, else this call's own `jobs`.
    let total = inherited.unwrap_or_else(|| jobs.max(1));
    let workers = total.min(jobs.max(1)).min(count.max(1));
    if workers <= 1 {
        // Serial path. The budget is deliberately left untouched: under
        // `jobs = 1` a nested call may still use its own `jobs`, and
        // under an exhausted share (`Some(1)`) nested calls stay serial.
        return (0..count).map(f).collect();
    }
    // Each worker inherits an equal share of the budget, so nested
    // fan-outs split the worker count instead of multiplying it:
    // `workers` live threads each owning `total / workers` keeps the
    // whole tree at `workers · floor(total / workers) ≤ total`.
    let share = (total / workers).max(1);
    let slots = Slots::new(count);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let _restore = BudgetGuard(BUDGET.with(|b| b.replace(Some(share))));
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let result = f(i);
            // SAFETY: the cursor handed index `i` to this worker alone
            // (see `Slots`).
            unsafe { slots.put(i, result) };
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        // The calling thread is worker 0: it would otherwise idle at the
        // scope join while a spawned thread burned a core on its behalf.
        worker();
    });
    slots.into_results()
}

/// One task slot per batch index; ownership is *taken* (not locked) by
/// the single worker the cursor hands that index to.
///
/// Same disjoint-index safety argument as [`Slots`]: one worker per
/// index, scope join before any further access, and the `Vec` drops
/// un-taken tasks normally on unwind.
struct Tasks<F>(Vec<UnsafeCell<Option<F>>>);

// SAFETY: disjoint-index take discipline, as argued on the struct.
unsafe impl<F: Send> Sync for Tasks<F> {}

impl<F> Tasks<F> {
    /// Takes ownership of task `i`.
    ///
    /// # Safety
    ///
    /// The caller must be the one worker the cursor handed index `i` to.
    unsafe fn take(&self, i: usize) -> F {
        (*self.0[i].get())
            .take()
            .expect("each task runs exactly once")
    }
}

/// Runs a batch of one-shot closures on up to `jobs` threads, returning
/// results in batch order.
///
/// The closure-per-run form suits heterogeneous batches (e.g. "run these
/// four policies, then these two sweeps"); for uniform grids prefer
/// [`run_indexed`]. Each closure is handed to its worker through the
/// same lock-free disjoint-index mechanism the result slots use — no
/// per-task mutex.
pub fn run_batch<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let count = tasks.len();
    let tasks = Tasks(
        tasks
            .into_iter()
            .map(|t| UnsafeCell::new(Some(t)))
            .collect(),
    );
    run_indexed(jobs, count, |i| {
        // SAFETY: the cursor hands index `i` to exactly one worker (see
        // `Tasks`), so this is the only `take` of slot `i`.
        let task = unsafe { tasks.take(i) };
        task()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_seed;
    use crate::DetRng;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// A stand-in for a simulation: hash a few thousand RNG draws.
    fn fake_sim(seed: u64) -> u64 {
        let mut rng = DetRng::new(seed);
        (0..5_000).fold(0u64, |acc, _| acc.wrapping_add(rng.next_u64()))
    }

    #[test]
    fn results_are_index_ordered_and_jobs_invariant() {
        let serial = run_indexed(1, 40, |i| fake_sim(derive_seed(99, i as u64)));
        for jobs in [2, 3, 8, 64] {
            let parallel = run_indexed(jobs, 40, |i| fake_sim(derive_seed(99, i as u64)));
            assert_eq!(serial, parallel, "jobs={jobs} must not change results");
        }
    }

    #[test]
    fn batch_runs_every_closure_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let tasks: Vec<_> = (0..17)
            .map(|i| {
                let calls = &calls;
                move || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i * 2
                }
            })
            .collect();
        let out = run_batch(4, tasks);
        assert_eq!(out, (0..17).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn empty_and_single_batches_work() {
        let none: Vec<u32> = run_indexed(8, 0, |_| unreachable!());
        assert!(none.is_empty());
        assert_eq!(run_indexed(8, 1, |i| i), vec![0]);
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(run_batch(8, empty).is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_indexed(4, 8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn batch_worker_panic_drops_untaken_tasks() {
        // A panicking batch must not leak or double-run the remaining
        // closures: the slot table drops un-taken tasks on unwind.
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("boom");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_batch(2, tasks)));
        assert!(caught.is_err());
    }

    /// Records every distinct thread that executed a closure. Thread IDs
    /// are never reused while the process lives, so the set size bounds
    /// the peak number of live workers from above.
    fn record(threads: &Mutex<HashSet<ThreadId>>) {
        threads
            .lock()
            .expect("no poisoned thread set")
            .insert(std::thread::current().id());
    }

    #[test]
    fn thread_budget_reflects_grants_and_shares() {
        let budget = || BUDGET.with(|b| b.get());
        // Outside any scope there is no budget: the next fan-out is
        // top-level and its own `jobs` is the grant.
        assert_eq!(budget(), None);
        // Inside a fan-out each worker sees its split share.
        let shares = run_indexed(4, 4, |_| budget());
        assert!(
            shares.iter().all(|&s| s == Some(1)),
            "4 workers split 4 ways"
        );
        let shares = run_indexed(4, 2, |_| budget());
        assert!(shares.iter().all(|&s| s == Some(2)), "2 workers split 4");
        // The share is restored when the fan-out ends.
        assert_eq!(budget(), None);
    }

    #[test]
    fn nested_fan_out_splits_the_budget() {
        let threads = Mutex::new(HashSet::new());
        let run = |outer_jobs, inner_jobs| {
            threads.lock().expect("no poisoned thread set").clear();
            run_indexed(outer_jobs, 6, |i| {
                record(&threads);
                run_indexed(inner_jobs, 5, |j| {
                    record(&threads);
                    fake_sim(derive_seed(i as u64, j as u64))
                })
            })
        };
        let serial = run(1, 1);
        for (outer, inner) in [(4, 8), (2, 2), (8, 1)] {
            let nested = run(outer, inner);
            assert_eq!(serial, nested, "outer={outer} inner={inner}");
            let used = threads.lock().expect("no poisoned thread set").len();
            assert!(
                used <= outer,
                "outer={outer} inner={inner}: {used} distinct workers exceed the budget"
            );
        }
    }

    #[test]
    fn budget_shares_split_across_wide_outer_items() {
        // Two outer items under jobs = 4 leave each worker a share of 2:
        // the inner fan-outs may go parallel, but the whole tree stays
        // within 4 live workers.
        let threads = Mutex::new(HashSet::new());
        run_indexed(4, 2, |i| {
            record(&threads);
            run_indexed(8, 6, |j| {
                record(&threads);
                fake_sim(derive_seed(i as u64, j as u64))
            })
        });
        let used = threads.lock().expect("no poisoned thread set").len();
        assert!(used <= 4, "{used} distinct workers exceed the budget of 4");
    }

    #[test]
    fn serial_top_level_does_not_pin_nested_calls() {
        // `jobs = 1` at the top level sets no budget, so a nested call
        // is free to use its own `jobs` — and still stays deterministic.
        // The two nested calls run one after the other, each with its
        // own fresh threads, so each is bounded on its own.
        let out = run_indexed(1, 2, |i| {
            let threads = Mutex::new(HashSet::new());
            let out = run_indexed(3, 9, |j| {
                record(&threads);
                fake_sim(derive_seed(i as u64, j as u64))
            });
            let used = threads.lock().expect("no poisoned thread set").len();
            assert!(
                used <= 3,
                "{used} distinct workers exceed the inner jobs of 3"
            );
            out
        });
        let serial = run_indexed(1, 2, |i| {
            run_indexed(1, 9, |j| fake_sim(derive_seed(i as u64, j as u64)))
        });
        assert_eq!(out, serial);
    }
}
