//! Pluggable remote-memory fabric backends.
//!
//! The paper's data path is RDMA one-sided verbs against zombie-lent
//! DRAM, but that is one point in the disaggregated-memory design space.
//! A [`FabricBackend`] captures the properties that distinguish the
//! points: how remote-page operations are priced, whether the pooled
//! tier is carved out of suspended hosts' RAM (so reclaiming it means
//! waking the lender) or lives on an always-on shared device, and what
//! the tier itself draws.
//!
//! Two backends register here:
//!
//! - [`RdmaZombie`] — the paper's design. Quoted fabric times pass
//!   through untouched and the pool is host memory, so every committed
//!   golden report stays byte-identical: the backend layer adds no
//!   arithmetic to the default path.
//! - [`CxlPool`] — a CXL-style pooled-memory tier: load/store latencies
//!   an order of magnitude below RDMA verbs, no wake-up cost to reclaim
//!   (the tier never sleeps), but a capacity cap per rack and a static
//!   draw that is paid whether or not the capacity is used.
//!
//! Backends resolve by CLI key through [`lookup`] (`--backend`,
//! `ZL_BACKEND`, a scenario file's `backend` key — same precedence as
//! every scenario knob); [`suggest`] powers the did-you-mean hint on a
//! typo.
//!
//! # Determinism rules
//!
//! A backend prices operations as a *pure function* of the quoted fabric
//! time and the operation's shape (count, payload bytes). No backend may
//! sample wall clocks, RNGs or global state: the simulator's bit-for-bit
//! determinism contract (same trace + config ⇒ identical report at any
//! job count) extends through this trait.

use core::fmt;

use zombieland_simcore::{Bytes, SimDuration};

/// A remote-memory backend: prices the data path and describes the
/// pooled tier's semantics. See the module docs for the determinism
/// rules implementations must follow.
pub trait FabricBackend: Send + Sync {
    /// Completion time of one remote read of `len` bytes. `quoted` is
    /// what the RDMA fabric model would charge; pass-through backends
    /// return it untouched.
    fn read_time(&self, quoted: SimDuration, len: Bytes) -> SimDuration;

    /// Completion time of one remote write of `len` bytes.
    fn write_time(&self, quoted: SimDuration, len: Bytes) -> SimDuration;

    /// Completion time of `reads` pipelined reads totalling `payload`
    /// bytes posted as one batch (the `read_batch_timed` shape: one base
    /// latency plus the serialized payload).
    fn batch_read_time(&self, quoted: SimDuration, reads: usize, payload: Bytes) -> SimDuration;

    /// Whether the pooled tier is lent by suspended hosts (the zombie
    /// design): reclaiming capacity then requires waking the lender, and
    /// the tier's draw is already priced by the host power model.
    /// `false` means a shared always-on tier with its own draw.
    fn pools_host_memory(&self) -> bool;

    /// Draw of one rack's pooled tier, as a fraction of one host's max
    /// power, given the tier's `capacity` and currently `allocated`
    /// memory (both in server-equivalents). `None` when the tier is host
    /// memory (no separate draw).
    fn pool_power_fraction(&self, capacity: f64, allocated: f64) -> Option<f64>;
}

/// The paper's backend: RDMA one-sided verbs against zombie-lent DRAM.
/// A strict pass-through — the conformance bar is byte-identical golden
/// reports, so this impl performs no arithmetic at all.
#[derive(Debug)]
pub struct RdmaZombie;

impl FabricBackend for RdmaZombie {
    fn read_time(&self, quoted: SimDuration, _len: Bytes) -> SimDuration {
        quoted
    }

    fn write_time(&self, quoted: SimDuration, _len: Bytes) -> SimDuration {
        quoted
    }

    fn batch_read_time(&self, quoted: SimDuration, _reads: usize, _payload: Bytes) -> SimDuration {
        quoted
    }

    fn pools_host_memory(&self) -> bool {
        true
    }

    fn pool_power_fraction(&self, _capacity: f64, _allocated: f64) -> Option<f64> {
        None
    }
}

/// A CXL-style pooled-memory tier: a switch-attached memory appliance
/// every host in the rack reaches with load/store semantics.
///
/// The latency point is calibrated to published CXL 2.0 switch numbers:
/// a few hundred nanoseconds per access versus the fabric's 1.6 µs READ
/// verb, and DDR-class streaming bandwidth. The tier never sleeps, so
/// reclaiming capacity has no wake-up cost — but the appliance draws
/// static power for its full capacity around the clock, which is the
/// trade the CXL-vs-zombie comparison is about.
#[derive(Debug)]
pub struct CxlPool {
    /// Port-to-port load latency of one access.
    read_base: SimDuration,
    /// Write latency (posted; slightly cheaper than a load).
    write_base: SimDuration,
    /// Streaming throughput in bytes per second.
    bandwidth_bps: f64,
    /// Idle draw per server-equivalent of *capacity*, as a fraction of
    /// one host's max power (DRAM refresh + controller + switch port).
    idle_fraction: f64,
    /// Additional draw per server-equivalent of *allocated* memory.
    active_fraction: f64,
}

impl CxlPool {
    /// Time to move `len` payload bytes once the access is in flight.
    fn serialize(&self, len: Bytes) -> SimDuration {
        SimDuration::from_secs_f64(len.get() as f64 / self.bandwidth_bps)
    }
}

impl FabricBackend for CxlPool {
    fn read_time(&self, _quoted: SimDuration, len: Bytes) -> SimDuration {
        self.read_base + self.serialize(len)
    }

    fn write_time(&self, _quoted: SimDuration, len: Bytes) -> SimDuration {
        self.write_base + self.serialize(len)
    }

    fn batch_read_time(&self, _quoted: SimDuration, reads: usize, payload: Bytes) -> SimDuration {
        if reads == 0 {
            return SimDuration::ZERO;
        }
        // Pipelined like the RDMA batch: one base latency, then the
        // serialized payload.
        self.read_base + self.serialize(payload)
    }

    fn pools_host_memory(&self) -> bool {
        false
    }

    fn pool_power_fraction(&self, capacity: f64, allocated: f64) -> Option<f64> {
        Some(self.idle_fraction * capacity + self.active_fraction * allocated)
    }
}

/// Default per-rack capacity of the CXL tier, in server-equivalents of
/// memory (the scenario `cxl_cap` key / `ZL_CXL_CAP` override it).
pub const DEFAULT_CXL_CAPACITY: f64 = 4.0;

/// One registered backend: its CLI key, report label and the pricing
/// object the rack/simulator layers call through.
pub struct BackendSpec {
    /// CLI name (lowercase; `--backend <key>` and [`lookup`]).
    pub key: &'static str,
    /// Report/daemon label.
    pub label: &'static str,
    /// One-line description for `--list-backends`.
    pub summary: &'static str,
    /// The pricing/semantics object.
    pub backend: &'static dyn FabricBackend,
}

impl fmt::Debug for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendSpec")
            .field("key", &self.key)
            .finish()
    }
}

static RDMA_ZOMBIE_IMPL: RdmaZombie = RdmaZombie;
static CXL_POOL_IMPL: CxlPool = CxlPool {
    read_base: SimDuration::from_nanos(350),
    write_base: SimDuration::from_nanos(300),
    bandwidth_bps: 28.0e9,
    idle_fraction: 0.08,
    active_fraction: 0.04,
};

/// The paper's RDMA-to-zombie backend (the default).
pub static RDMA_ZOMBIE: BackendSpec = BackendSpec {
    key: "rdma",
    label: "RdmaZombie",
    summary: "RDMA one-sided verbs against zombie-lent DRAM (the paper's design)",
    backend: &RDMA_ZOMBIE_IMPL,
};

/// The CXL-style pooled tier.
pub static CXL_POOL: BackendSpec = BackendSpec {
    key: "cxl",
    label: "CxlPool",
    summary: "CXL-style shared tier: ~350ns loads, no wake-up cost, capacity-capped, static draw",
    backend: &CXL_POOL_IMPL,
};

/// Every registered backend, in listing order (the paper's design
/// first).
pub static REGISTRY: [&BackendSpec; 2] = [&RDMA_ZOMBIE, &CXL_POOL];

/// Resolves a backend by CLI key or label, case-insensitively.
pub fn lookup(name: &str) -> Option<&'static BackendSpec> {
    REGISTRY
        .iter()
        .copied()
        .find(|s| s.key.eq_ignore_ascii_case(name) || s.label.eq_ignore_ascii_case(name))
}

/// The registry key closest to `name` (edit distance ≤ 2), for
/// did-you-mean hints on unknown-backend errors.
pub fn suggest(name: &str) -> Option<&'static str> {
    REGISTRY
        .iter()
        .map(|s| (edit_distance(&name.to_ascii_lowercase(), s.key), s.key))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, key)| key)
}

/// Plain Levenshtein distance over bytes — the registry keys are short
/// ASCII, so the O(n·m) table is a few dozen cells.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use zombieland_simcore::PAGE_SIZE;

    #[test]
    fn registry_keys_are_unique_and_lowercase() {
        for (i, s) in REGISTRY.iter().enumerate() {
            assert_eq!(s.key, s.key.to_ascii_lowercase(), "{}", s.key);
            for other in &REGISTRY[i + 1..] {
                assert_ne!(s.key, other.key);
                assert_ne!(s.label, other.label);
            }
        }
    }

    #[test]
    fn lookup_is_case_insensitive_over_key_and_label() {
        assert!(std::ptr::eq(lookup("rdma").unwrap(), &RDMA_ZOMBIE));
        assert!(std::ptr::eq(lookup("RdmaZombie").unwrap(), &RDMA_ZOMBIE));
        assert!(std::ptr::eq(lookup("CXL").unwrap(), &CXL_POOL));
        assert!(lookup("nvlink").is_none());
    }

    #[test]
    fn suggestions_catch_typos_but_not_nonsense() {
        assert_eq!(suggest("cx1"), Some("cxl"));
        assert_eq!(suggest("rmda"), Some("rdma"));
        assert_eq!(suggest("CXL"), Some("cxl"));
        assert_eq!(suggest("infiniband"), None);
    }

    #[test]
    fn rdma_is_a_strict_pass_through() {
        let q = SimDuration::from_nanos(2_282);
        let page = Bytes::new(PAGE_SIZE);
        let b = RDMA_ZOMBIE.backend;
        assert_eq!(b.read_time(q, page), q);
        assert_eq!(b.write_time(q, page), q);
        assert_eq!(b.batch_read_time(q, 8, Bytes::kib(32)), q);
        assert!(b.pools_host_memory());
        assert!(b.pool_power_fraction(4.0, 2.0).is_none());
    }

    #[test]
    fn cxl_is_faster_than_the_quoted_fabric_page_read() {
        let page = Bytes::new(PAGE_SIZE);
        // The FDR fabric's 4 KiB READ quote is ~2.3 µs; a CXL load of the
        // same page must land well under it.
        let quoted = SimDuration::from_nanos(2_282);
        let cxl = CXL_POOL.backend.read_time(quoted, page);
        assert!(cxl < quoted / 2, "{cxl} vs {quoted}");
        assert!(cxl.as_nanos() > 300, "payload time is not free: {cxl}");
        // Batches pipeline: one base latency, not eight.
        let batch = CXL_POOL
            .backend
            .batch_read_time(quoted, 8, Bytes::new(8 * PAGE_SIZE));
        assert!(batch < cxl * 8);
        assert_eq!(
            CXL_POOL.backend.batch_read_time(quoted, 0, Bytes::ZERO),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cxl_tier_draw_scales_with_capacity_and_use() {
        let b = CXL_POOL.backend;
        assert!(!b.pools_host_memory());
        let idle = b.pool_power_fraction(4.0, 0.0).unwrap();
        let busy = b.pool_power_fraction(4.0, 4.0).unwrap();
        assert!(idle > 0.0, "static draw is paid even when unused");
        assert!(busy > idle);
        assert_eq!(b.pool_power_fraction(0.0, 0.0), Some(0.0));
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("cxl", "cxl"), 0);
        assert_eq!(edit_distance("cx1", "cxl"), 1);
        assert_eq!(edit_distance("", "ab"), 2);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
