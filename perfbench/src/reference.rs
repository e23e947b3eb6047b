//! A fixed reference kernel that tracks how fast the host runs
//! memory-heavy code right now.
//!
//! On a shared virtual machine the same `run_ops` cell can take twice
//! as long from one tenth of a second to the next. A plain arithmetic
//! loop barely moves with it, and neither does a loop whose data fits
//! the core's own caches. What moves with it is work that writes
//! across a few MiB: the cache and memory the host shares between its
//! guests. The kernel below refills a hashed table of 4.5 MiB, the kind
//! of table the simulator and the hypervisor keep, but the benchmark's
//! own code, so a change to the program never changes it. Timing it
//! right before and right after a piece of work and scaling the work's
//! time by [`NOMINAL_S`] over the kernel's time gives that work's time
//! on a host where the kernel takes [`NOMINAL_S`]: see [`scaled`] and
//! [`normalize`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::stats;

/// About the kernel's CPU time on the machine the benchmark was written
/// on (a 2-vCPU Sapphire Rapids virtual machine) when its host was
/// quiet; normalized times are in seconds of such a host.
pub const NOMINAL_S: f64 = 0.0035;
/// Entries the table has room for: 2^18 buckets of 17 bytes.
const CAPACITY: usize = 150_000;
/// Entries inserted, then looked up, per kernel call.
const ENTRIES: u64 = 75_000;

/// A multiply-rotate hash, the kind the program's tables use, written
/// out here so that the kernel stays fixed.
#[derive(Default)]
struct MulHash(u64);

impl Hasher for MulHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type Table = HashMap<u64, u64, BuildHasherDefault<MulHash>>;

/// Empties the table (keeping its memory), inserts [`ENTRIES`] seeded
/// keys and looks as many up. Every call does the same work.
fn refill(table: &mut Table) -> u64 {
    table.clear();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % (ENTRIES * 3)
    };
    for i in 0..ENTRIES {
        table.insert(next(), i);
    }
    let mut acc = 0u64;
    for _ in 0..ENTRIES {
        if let Some(v) = table.get(&next()) {
            acc = acc.wrapping_add(*v);
        }
    }
    acc
}

thread_local! {
    static TABLE: RefCell<Table> =
        RefCell::new(Table::with_capacity_and_hasher(CAPACITY, Default::default()));
}

/// CPU seconds of one kernel call.
pub fn kernel_s() -> f64 {
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let start = stats::cpu_s();
        std::hint::black_box(refill(&mut t));
        stats::cpu_s() - start
    })
}

/// Runs `f` between two kernel calls; returns its result and the factor
/// that scales host time spent in `f` to the nominal host: [`NOMINAL_S`]
/// over the mean of the two kernel times.
pub fn scaled<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel_s();
    let v = f();
    let after = kernel_s();
    (v, NOMINAL_S / ((before + after) / 2.0))
}

/// Runs `f` between two kernel calls; returns its result, its CPU
/// seconds, and those seconds scaled to the nominal host ([`scaled`]).
pub fn normalize<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let ((v, secs), scale) = scaled(|| {
        let t = stats::cpu_s();
        let v = f();
        (v, stats::cpu_s() - t)
    });
    (v, secs, secs * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_keeps_its_memory() {
        let mut t = Table::with_capacity_and_hasher(CAPACITY, Default::default());
        let room = t.capacity();
        let first = refill(&mut t);
        assert_eq!(refill(&mut t), first, "every call does the same work");
        assert_eq!(t.capacity(), room);
    }

    #[test]
    fn normalize_scales_by_the_kernel() {
        let (v, secs, norm) = normalize(|| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0 && norm >= 0.0);
        let (_, secs, norm) = normalize(kernel_s);
        // The work is the kernel itself: about NOMINAL_S on any host.
        assert!(secs > 0.0);
        assert!(norm > NOMINAL_S / 4.0 && norm < NOMINAL_S * 4.0, "{norm}");
    }
}
