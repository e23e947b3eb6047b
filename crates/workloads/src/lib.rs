//! The evaluation's benchmark workloads as memory access-pattern models.
//!
//! §6.1: "We evaluated ZombieStack with both micro and macro benchmarks."
//! What Tables 1–2 and Fig. 8 measure is how each application's *memory
//! locality* interacts with hypervisor paging, so each workload is modeled
//! as a deterministic stream of page accesses plus the CPU work per
//! access:
//!
//! - [`MicroBench`] — the paper's worst case: an application sweeping a
//!   big array of 4 KiB entries. Its hot region is just under half the
//!   VM's reserved memory, which produces the sharp penalty cliff between
//!   40 % and 50 % local memory that made the authors pick 50 % as
//!   ZombieStack's operating point.
//! - [`DataCaching`] — CloudSuite's Memcached-based Twitter cache:
//!   Zipf-skewed GETs with a small write fraction and µs-scale per-op
//!   work.
//! - [`Elasticsearch`] — the nightly NYC-taxis benchmark: structured
//!   queries mixing hot index/metadata pages with segment range scans.
//! - [`SparkSql`] — BigBench query 23 on a 100 GB dataset: phase-wise
//!   partition scans with shuffle writes; the least cache-friendly of the
//!   macro set.
//!
//! All patterns implement [`Workload`]; the hypervisor's paging engine
//! consumes the stream without knowing which application produced it.

use zombieland_simcore::{DetRng, Pages, SimDuration, Zipf};

/// One memory access emitted by a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Guest page touched (within `0..wss()`).
    pub page: u64,
    /// Whether the access dirties the page.
    pub write: bool,
}

/// A deterministic stream of page accesses with an associated CPU cost.
pub trait Workload {
    /// Workload name (table row label).
    fn name(&self) -> &'static str;

    /// Working-set size in pages.
    fn wss(&self) -> Pages;

    /// CPU work per access, charged whether or not the page faults.
    /// Micro-benchmarks do almost nothing per touched page; macro
    /// applications parse requests, score documents, evaluate operators.
    ///
    /// Must be constant for the lifetime of a workload instance: the
    /// batched engine samples it once per run and charges it per access,
    /// which is only equivalent to per-access sampling when the value
    /// never changes.
    fn base_op_cost(&self) -> SimDuration;

    /// The next access.
    fn next_access(&mut self) -> Access;

    /// Fills `buf` with the next `buf.len()` accesses — exactly the
    /// stream repeated [`Workload::next_access`] calls would produce.
    ///
    /// The default implementation is that loop; because default methods
    /// are monomorphized per implementor, the inner calls dispatch
    /// statically, so a batch costs one virtual call instead of one per
    /// access. Implementors overriding this must keep the stream
    /// byte-identical to `next_access`.
    fn fill(&mut self, buf: &mut [Access]) {
        for slot in buf {
            *slot = self.next_access();
        }
    }

    /// Suggested number of accesses for one measured run.
    fn suggested_ops(&self) -> u64;

    /// Clones the workload's full state behind the trait object.
    ///
    /// Construction is a pure function of `(wss, seed)`, so a clone of a
    /// freshly built workload replays the same access stream a fresh
    /// build would — which is what lets experiment grids cache one
    /// prototype per distinct parameter set and clone on use instead of
    /// reconstructing per cell.
    fn clone_box(&self) -> Box<dyn Workload>;
}

/// The paper's micro-benchmark: iterating read/write over the entries of
/// a large array (one entry = one 4 KiB page).
///
/// The guest's pages split into three regions, as in any real VM running
/// the benchmark:
///
/// - a small, intensely hot **OS region** (kernel, libc, the benchmark's
///   own code/stack) — the pages whose accessed bits let Clock and Mixed
///   beat FIFO in Fig. 8: FIFO cycles them out with the sweep and
///   re-faults them, Clock's second chance protects them;
/// - the cyclic **sweep region** over the array's hot part — just under
///   half the working set, producing the sharp Table 1 penalty cliff
///   between 40 % and 50 % local memory that made the authors pick 50 %
///   as ZombieStack's operating point;
/// - rare uniform strays over the rest of the array.
#[derive(Clone, Debug)]
pub struct MicroBench {
    wss: Pages,
    os_len: u64,
    sweep_len: u64,
    cursor: u64,
    rng: DetRng,
    ops: u64,
}

impl MicroBench {
    /// Fraction of the working set that is intensely hot OS/runtime
    /// pages.
    pub const OS_FRACTION: f64 = 0.08;
    /// Fraction of the working set the cyclic sweep covers; together with
    /// the OS region this is just under half the VM's memory.
    pub const SWEEP_FRACTION: f64 = 0.40;
    /// Fraction of the working set covered by the hot regions combined.
    pub const HOT_FRACTION: f64 = Self::OS_FRACTION + Self::SWEEP_FRACTION;
    /// Share of accesses hitting the OS region.
    const OS_RATE: f64 = 0.20;
    /// Share of accesses straying uniformly over the whole array. These
    /// cold misses are what separates the policies when the hot set fits:
    /// each stray forces an eviction, and FIFO's victim (the *oldest*
    /// page) is usually hot, while Clock's second chance steers the
    /// eviction onto another stray.
    const STRAY_RATE: f64 = 0.02;

    /// Creates the micro-benchmark over `wss` pages.
    pub fn new(wss: Pages, seed: u64) -> Self {
        let n = wss.count();
        MicroBench {
            wss,
            os_len: ((n as f64 * Self::OS_FRACTION) as u64).max(1),
            sweep_len: ((n as f64 * Self::SWEEP_FRACTION) as u64).max(1),
            cursor: 0,
            rng: DetRng::new(seed),
            ops: n * 6,
        }
    }
}

impl Workload for MicroBench {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "micro-bench"
    }

    fn wss(&self) -> Pages {
        self.wss
    }

    fn base_op_cost(&self) -> SimDuration {
        // Touching and updating one 4 KiB entry: ~70 ns (memory-bandwidth
        // bound loop).
        SimDuration::from_nanos(70)
    }

    fn next_access(&mut self) -> Access {
        let roll = self.rng.f64();
        let hot = self.os_len + self.sweep_len;
        let page = if roll < Self::STRAY_RATE && hot < self.wss.count() {
            // Cold strays: uniform over the array beyond the hot part.
            hot + self.rng.below(self.wss.count() - hot)
        } else if roll < Self::STRAY_RATE + Self::OS_RATE {
            self.rng.below(self.os_len)
        } else {
            let p = self.os_len + self.cursor;
            self.cursor += 1;
            if self.cursor == self.sweep_len {
                self.cursor = 0;
            }
            p
        };
        // "Performs read/write operations": array entries alternate
        // read/write; OS pages are read-mostly.
        Access {
            page,
            write: page >= self.os_len && page % 2 == 0,
        }
    }

    fn suggested_ops(&self) -> u64 {
        self.ops
    }
}

/// CloudSuite Data Caching (Memcached with a Twitter dataset): highly
/// skewed key popularity, read-mostly.
#[derive(Clone, Debug)]
pub struct DataCaching {
    wss: Pages,
    zipf: Zipf,
    rng: DetRng,
}

impl DataCaching {
    /// Creates the workload over `wss` pages of cache data.
    pub fn new(wss: Pages, seed: u64) -> Self {
        DataCaching {
            wss,
            zipf: Zipf::new(wss.count(), 0.85),
            rng: DetRng::new(seed),
        }
    }
}

impl Workload for DataCaching {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "data-caching"
    }

    fn wss(&self) -> Pages {
        self.wss
    }

    fn base_op_cost(&self) -> SimDuration {
        // One memcached op: parse + hash + respond, ~12 µs server side.
        SimDuration::from_micros(12)
    }

    fn next_access(&mut self) -> Access {
        Access {
            page: self.zipf.sample(&mut self.rng),
            write: self.rng.chance(0.05),
        }
    }

    fn suggested_ops(&self) -> u64 {
        self.wss.count() * 3
    }
}

/// Elasticsearch nightly benchmark (NYC taxis, structured queries): hot
/// index/metadata pages plus bounded segment range scans.
#[derive(Clone, Debug)]
pub struct Elasticsearch {
    wss: Pages,
    zipf: Zipf,
    rng: DetRng,
    scan_left: u64,
    scan_pos: u64,
}

impl Elasticsearch {
    /// Pages read per segment scan burst.
    const SCAN_LEN: u64 = 64;

    /// Creates the workload over `wss` pages of index data.
    pub fn new(wss: Pages, seed: u64) -> Self {
        Elasticsearch {
            wss,
            zipf: Zipf::new(wss.count(), 0.85),
            rng: DetRng::new(seed),
            scan_left: 0,
            scan_pos: 0,
        }
    }
}

impl Workload for Elasticsearch {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "elasticsearch"
    }

    fn wss(&self) -> Pages {
        self.wss
    }

    fn base_op_cost(&self) -> SimDuration {
        // Per-page work while evaluating a structured query: ~9 µs.
        SimDuration::from_micros(9)
    }

    fn next_access(&mut self) -> Access {
        if self.scan_left > 0 {
            self.scan_left -= 1;
            let p = self.scan_pos;
            self.scan_pos = (self.scan_pos + 1) % self.wss.count();
            return Access {
                page: p,
                write: false,
            };
        }
        // 15 % of ops start a segment scan; the rest hit the skewed
        // index/docvalue set. ~8 % of ops are indexing writes.
        if self.rng.chance(0.15) {
            self.scan_left = Self::SCAN_LEN.min(self.wss.count()) - 1;
            self.scan_pos = self.rng.below(self.wss.count());
            let p = self.scan_pos;
            self.scan_pos = (self.scan_pos + 1) % self.wss.count();
            Access {
                page: p,
                write: false,
            }
        } else {
            Access {
                page: self.zipf.sample(&mut self.rng),
                write: self.rng.chance(0.08),
            }
        }
    }

    fn suggested_ops(&self) -> u64 {
        self.wss.count() * 3
    }
}

/// Spark SQL running BigBench query 23: repeated partition scans with
/// shuffle writes — weak temporal locality, strong spatial locality.
#[derive(Clone, Debug)]
pub struct SparkSql {
    wss: Pages,
    partitions: u64,
    rng: DetRng,
    scan_left: u64,
    scan_pos: u64,
    zipf: Zipf,
}

impl SparkSql {
    /// Creates the workload over `wss` pages of RDD/shuffle data.
    pub fn new(wss: Pages, seed: u64) -> Self {
        SparkSql {
            wss,
            partitions: 32,
            rng: DetRng::new(seed),
            scan_left: 0,
            scan_pos: 0,
            zipf: Zipf::new(wss.count(), 0.75),
        }
    }
}

impl Workload for SparkSql {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "spark-sql"
    }

    fn wss(&self) -> Pages {
        self.wss
    }

    fn base_op_cost(&self) -> SimDuration {
        // Row-batch operator work per touched page: ~7 µs.
        SimDuration::from_micros(7)
    }

    fn next_access(&mut self) -> Access {
        if self.scan_left > 0 {
            self.scan_left -= 1;
            let p = self.scan_pos;
            self.scan_pos = (self.scan_pos + 1) % self.wss.count();
            return Access {
                page: p,
                write: self.rng.chance(0.2),
            };
        }
        // 25 % of ops start scanning a random partition chunk; the rest
        // hit hot shuffle/broadcast pages.
        if self.rng.chance(0.25) {
            let part_len = (self.wss.count() / self.partitions).max(1);
            let burst = part_len.min(128);
            self.scan_left = burst - 1;
            // A random burst-aligned window inside a random partition, so
            // scans sweep the whole dataset over time.
            let offset = if part_len > burst {
                self.rng.below(part_len - burst + 1)
            } else {
                0
            };
            self.scan_pos = self.rng.below(self.partitions) * part_len + offset;
            Access {
                page: self.scan_pos,
                write: self.rng.chance(0.2),
            }
        } else {
            Access {
                page: self.zipf.sample(&mut self.rng),
                write: self.rng.chance(0.1),
            }
        }
    }

    fn suggested_ops(&self) -> u64 {
        self.wss.count() * 3
    }
}

/// The four paper workloads' table-row names, in Table 1 order.
pub const WORKLOAD_NAMES: [&str; 4] = ["micro-bench", "data-caching", "elasticsearch", "spark-sql"];

/// Builds one of the four paper workloads by table-row name.
pub fn by_name(name: &str, wss: Pages, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "micro-bench" => Some(Box::new(MicroBench::new(wss, seed))),
        "data-caching" => Some(Box::new(DataCaching::new(wss, seed))),
        "elasticsearch" => Some(Box::new(Elasticsearch::new(wss, seed))),
        "spark-sql" => Some(Box::new(SparkSql::new(wss, seed))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(wss: Pages) -> Vec<Box<dyn Workload>> {
        ["micro-bench", "data-caching", "elasticsearch", "spark-sql"]
            .iter()
            .map(|n| by_name(n, wss, 42).unwrap())
            .collect()
    }

    #[test]
    fn clone_box_replays_the_fresh_stream() {
        // A clone of a freshly built prototype is indistinguishable from
        // another fresh build — the contract prototype caching relies on.
        for name in WORKLOAD_NAMES {
            let mut fresh = by_name(name, Pages::new(512), 9).unwrap();
            let prototype = by_name(name, Pages::new(512), 9).unwrap();
            let mut cloned = prototype.clone_box();
            assert_eq!(cloned.name(), fresh.name());
            assert_eq!(cloned.wss(), fresh.wss());
            assert_eq!(cloned.suggested_ops(), fresh.suggested_ops());
            for _ in 0..2_000 {
                assert_eq!(cloned.next_access(), fresh.next_access(), "{name}");
            }
        }
    }

    #[test]
    fn fill_matches_repeated_next_access() {
        // The batched engine consumes the stream through `fill`; it must
        // be byte-identical to the per-op path, including across uneven
        // batch boundaries.
        for name in WORKLOAD_NAMES {
            let mut by_fill = by_name(name, Pages::new(512), 7).unwrap();
            let mut by_next = by_name(name, Pages::new(512), 7).unwrap();
            let mut buf = [Access {
                page: 0,
                write: false,
            }; 257];
            for batch in [1usize, 257, 64, 3, 256] {
                by_fill.fill(&mut buf[..batch]);
                for (i, got) in buf[..batch].iter().enumerate() {
                    assert_eq!(*got, by_next.next_access(), "{name} op {i} of {batch}");
                }
            }
        }
    }

    #[test]
    fn clone_box_snapshots_midstream_state() {
        let mut w = by_name("micro-bench", Pages::new(256), 3).unwrap();
        for _ in 0..100 {
            w.next_access();
        }
        let mut snap = w.clone_box();
        for _ in 0..500 {
            assert_eq!(snap.next_access(), w.next_access());
        }
    }

    #[test]
    fn accesses_stay_in_bounds() {
        for mut w in all(Pages::new(512)) {
            for _ in 0..5_000 {
                let a = w.next_access();
                assert!(a.page < 512, "{} emitted page {}", w.name(), a.page);
            }
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = MicroBench::new(Pages::new(256), 7);
        let mut b = MicroBench::new(Pages::new(256), 7);
        for _ in 0..1_000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn micro_sweeps_hot_region() {
        let mut w = MicroBench::new(Pages::new(1_000), 1);
        let hot = (1_000.0 * MicroBench::HOT_FRACTION) as u64;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..(hot * 3) {
            seen.insert(w.next_access().page);
        }
        // The sweep + OS accesses cover the whole hot region quickly.
        let covered = (0..hot).filter(|p| seen.contains(p)).count() as u64;
        assert!(covered > hot * 90 / 100, "covered {covered}/{hot}");
    }

    #[test]
    fn micro_os_region_is_hot() {
        let mut w = MicroBench::new(Pages::new(1_000), 2);
        let os = (1_000.0 * MicroBench::OS_FRACTION) as u64;
        let mut os_hits = 0u64;
        for _ in 0..10_000 {
            if w.next_access().page < os {
                os_hits += 1;
            }
        }
        // ~20 % of accesses land on the 8 % OS region.
        let frac = os_hits as f64 / 10_000.0;
        assert!((0.15..0.30).contains(&frac), "os fraction {frac}");
    }

    #[test]
    fn data_caching_is_skewed() {
        let mut w = DataCaching::new(Pages::new(10_000), 2);
        let mut counts = vec![0u32; 10_000];
        for _ in 0..50_000 {
            counts[w.next_access().page as usize] += 1;
        }
        // The top 10 % of pages absorb most accesses.
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let head: u32 = sorted[..1_000].iter().sum();
        assert!(head as f64 > 0.6 * 50_000.0, "head {head}");
    }

    #[test]
    fn macro_ops_cost_more_than_micro() {
        let wss = Pages::new(100);
        let micro = MicroBench::new(wss, 0);
        for w in all(wss).iter().skip(1) {
            assert!(w.base_op_cost() > micro.base_op_cost() * 10, "{}", w.name());
        }
    }

    #[test]
    fn scans_are_sequential() {
        let mut w = SparkSql::new(Pages::new(4_096), 3);
        // Find a scan burst and check consecutive pages.
        let mut last: Option<u64> = None;
        let mut sequential = 0u32;
        for _ in 0..10_000 {
            let a = w.next_access();
            if let Some(l) = last {
                if a.page == l + 1 {
                    sequential += 1;
                }
            }
            last = Some(a.page);
        }
        assert!(sequential > 2_000, "sequential pairs {sequential}");
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("nginx", Pages::new(1), 0).is_none());
    }
}
