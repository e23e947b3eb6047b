//! Differential sweep of the summarized stacking order (DESIGN §7).
//!
//! Admission and migration walks skip whole blocks of the stacking
//! order whose best case the policy rejects. In debug builds every such
//! walk is re-run from the first entry without seek or skipping and must
//! pick the same host, and `Dc::validate` checks every block summary
//! against its hosts after each consolidation round. This sweep drives
//! those checks over random small fleets × every registered policy ×
//! both backends × uniform and heterogeneous generations, at shard
//! counts 1–3, and pins the reports byte-identical across shard counts.

use zombieland::core::backend::{CXL_POOL, RDMA_ZOMBIE};
use zombieland::energy::MachineProfile;
use zombieland::simcore::{DetRng, SimDuration};
use zombieland::simulator::policy::REGISTRY;
use zombieland::simulator::{simulate, SimConfig, SimReport};
use zombieland::trace::{ClusterTrace, TraceConfig};

/// A mix of memory-light and memory-heavy generations.
const HETERO: [u16; 3] = [2007, 2010, 2013];

/// The report with every float rendered as its bits, so a `-0.0`/`+0.0`
/// or last-ulp divergence shows up as a byte difference.
fn bytes(r: &SimReport) -> String {
    format!(
        "{r:?} {:x} {:x?} {:x}",
        r.energy.get().to_bits(),
        r.state_seconds.map(f64::to_bits),
        r.peak_parked.to_bits()
    )
}

#[test]
fn summarized_walks_match_full_walks_at_every_shard_count() {
    let mut rng = DetRng::new(0x5ac0_0de5);
    let mut runs = 0;
    for fleet in 0..3 {
        let servers = rng.range(18, 48) as u32;
        let trace = ClusterTrace::generate(TraceConfig {
            servers,
            duration: SimDuration::from_hours(rng.range(8, 16)),
            seed: rng.next_u64(),
            mem_cpu_ratio: 1.0,
            avg_utilization: rng.range_f64(0.2, 0.45),
        });
        // Alternate the original and the memory-heavy modified trace.
        let trace = if fleet % 2 == 1 {
            trace.modified()
        } else {
            trace
        };
        let racks = rng.range(3, 6) as u32;
        for spec in REGISTRY {
            for backend in [&RDMA_ZOMBIE, &CXL_POOL] {
                for generations in [Vec::new(), HETERO.to_vec()] {
                    let mut reference = None;
                    for shards in 1..=3 {
                        let mut cfg = SimConfig::with_spec(spec, MachineProfile::hp());
                        cfg.racks = racks;
                        cfg.shards = shards;
                        cfg.backend = backend;
                        cfg.generations = generations.clone();
                        let report = bytes(&simulate(&trace, &cfg));
                        runs += 1;
                        let what = format!(
                            "fleet {fleet} ({servers} hosts, {racks} racks) {} {} \
                             generations {generations:?}",
                            spec.key, backend.key
                        );
                        match &reference {
                            None => reference = Some(report),
                            Some(r) => assert_eq!(r, &report, "{what}: shards {shards} diverged"),
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runs, 3 * REGISTRY.len() * 2 * 2 * 3);
}
