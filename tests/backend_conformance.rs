//! Backend-conformance suite for the `FabricBackend` refactor.
//!
//! The refactor lifted the RDMA-to-zombie remote-memory path behind
//! [`zombieland::core::backend::FabricBackend`]. Its contract has two
//! halves, and this suite pins both:
//!
//! 1. **RdmaZombie is the identity.** Selecting the paper's backend
//!    explicitly — through the trait, at any job count — must
//!    reproduce the pre-refactor goldens byte for byte. The goldens in
//!    `tests/golden/` were captured *before* the trait existed, so any
//!    repricing sneaking into the default path fails here.
//! 2. **CxlPool is a genuinely different point.** The shared-tier
//!    backend must change fault latency and fleet energy (that is its
//!    purpose) while leaving the trace-replay semantics intact: same
//!    events, nothing dropped, no host ever in Sz.

use zombieland::core::backend::{self, CXL_POOL, RDMA_ZOMBIE};
use zombieland::core::manager::PoolKind;
use zombieland::core::rack::{Rack, RackConfig};
use zombieland::energy::MachineProfile;
use zombieland::simcore::Bytes;
use zombieland::simulator::{simulate, PolicyKind, SimConfig, SimReport};
use zombieland_bench::experiments;

const PAPER_POLICIES: [PolicyKind; 4] = [
    PolicyKind::AlwaysOn,
    PolicyKind::Neat,
    PolicyKind::Oasis,
    PolicyKind::ZombieStack,
];

/// Renders one report with bit-exact floats (the
/// `policy_conformance.rs` format, reused so the same golden pins both
/// suites).
fn render(label: &str, r: &SimReport) -> String {
    format!
        ("{label} energy={:#018x} migrations={} wakeups={} dropped={} overcommitted={} state_s=[{:#018x},{:#018x},{:#018x}] peak_parked={:#018x}\n",
        r.energy.get().to_bits(),
        r.migrations,
        r.wakeups,
        r.dropped,
        r.overcommitted,
        r.state_seconds[0].to_bits(),
        r.state_seconds[1].to_bits(),
        r.state_seconds[2].to_bits(),
        r.peak_parked.to_bits(),
    )
}

/// (1a) The explicit `--backend rdma` path is byte-identical to the
/// pre-refactor policy-conformance golden.
#[test]
fn rdma_through_the_trait_matches_prerefactor_golden() {
    let golden = include_str!("golden/policy_conformance_40x1.txt");
    let trace = experiments::fig10_trace(40, 1, 11);
    let mut out = String::new();
    for p in PAPER_POLICIES {
        let cfg = SimConfig {
            backend: &RDMA_ZOMBIE,
            ..SimConfig::new(p, MachineProfile::hp())
        };
        let r = simulate(&trace, &cfg);
        out.push_str(&render(r.policy, &r));
    }
    assert_eq!(
        out, golden,
        "explicit rdma backend drifted from the pre-trait golden"
    );
}

/// (1b) The Fig. 10 grid — the report the paper's headline numbers come
/// from — is byte-identical under the default (rdma) backend at one and
/// two jobs. The golden was captured with `--jobs 2` before the trait
/// existed.
#[test]
fn figure10_grid_is_backend_invariant_across_jobs() {
    let trace = experiments::fig10_trace(48, 1, 11);
    let modified = trace.modified();
    let golden = include_str!("golden/fig10_48x1.txt");
    for jobs in [1usize, 2] {
        let groups = experiments::figure10_grid(&trace, &modified, jobs);
        let rendered = experiments::render_figure10(&groups);
        assert_eq!(
            rendered, golden,
            "Fig. 10 bytes drifted from the pre-trait golden at jobs={jobs}"
        );
    }
}

/// (2a) Rack level: a CXL load is faster than an RDMA fetch from a
/// zombie, and writes land quicker too — the backend reprices the same
/// quoted operation.
#[test]
fn cxl_fetches_beat_rdma_at_the_rack() {
    let run = |spec: &'static backend::BackendSpec| {
        let mut rack = Rack::new(RackConfig {
            backend: spec,
            ..RackConfig::default()
        });
        let ids = rack.server_ids();
        let (user, zombie) = (ids[0], ids[1]);
        rack.goto_zombie(zombie).unwrap();
        rack.alloc_ext(user, Bytes::gib(1)).unwrap();
        let (h, w) = rack.place_page(user, PoolKind::Ext).unwrap();
        let r = rack.fetch_page(user, h, true).unwrap();
        (w, r)
    };
    let (rdma_w, rdma_r) = run(&RDMA_ZOMBIE);
    let (cxl_w, cxl_r) = run(&CXL_POOL);
    assert!(
        cxl_r < rdma_r,
        "CXL page fault must be faster: {cxl_r} vs {rdma_r}"
    );
    assert!(
        cxl_w < rdma_w,
        "CXL page write must be faster: {cxl_w} vs {rdma_w}"
    );
    // The repriced latencies stay in the regime the backend advertises:
    // hundreds of nanoseconds, not the RDMA path's microseconds.
    assert!(cxl_r.as_nanos() < 1_000, "{cxl_r}");
    assert!(rdma_r.as_micros() >= 1, "{rdma_r}");
}

/// (2b) Datacenter level: the shared tier changes the energy point and
/// eliminates zombies without changing what the trace does.
#[test]
fn cxl_pool_changes_energy_not_events() {
    let trace = experiments::fig10_trace(40, 1, 11);
    let base = SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp());
    let rdma = simulate(&trace, &base);
    let cxl = simulate(
        &trace,
        &SimConfig {
            backend: &CXL_POOL,
            cxl_capacity: 4.0,
            ..base.clone()
        },
    );
    // Same trace, same feasibility: nothing dropped either way.
    assert_eq!(cxl.dropped, 0);
    assert_eq!(rdma.dropped, 0);
    // The CXL fleet has no zombie tier at all; its evacuated hosts all
    // reach S3 (deeper sleep than the rdma fleet can afford).
    assert_eq!(cxl.state_seconds[1], 0.0, "no Sz under a shared tier");
    assert!(cxl.state_seconds[2] > 0.0, "S3 time exists");
    assert!(rdma.state_seconds[1] > 0.0, "rdma still runs zombies");
    // And the energy point moves — the whole reason the backend exists.
    assert_ne!(
        cxl.energy.get().to_bits(),
        rdma.energy.get().to_bits(),
        "CxlPool priced identically to RdmaZombie"
    );
}

/// The registry resolves keys and labels case-insensitively and
/// suggests near-misses, mirroring the policy registry's ergonomics.
#[test]
fn registry_lookup_and_suggestions() {
    assert!(std::ptr::eq(backend::lookup("RDMA").unwrap(), &RDMA_ZOMBIE));
    assert!(std::ptr::eq(backend::lookup("cxlpool").unwrap(), &CXL_POOL));
    assert!(backend::lookup("infiniband").is_none());
    assert_eq!(backend::suggest("xcl"), Some("cxl"));
    assert_eq!(backend::suggest("rdna"), Some("rdma"));
    assert_eq!(backend::suggest("totally-unrelated"), None);
}
