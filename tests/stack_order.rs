//! Differential sweep of the summarized stacking order (DESIGN §7).
//!
//! Admission and migration walks skip whole blocks of the stacking
//! order whose best case the policy rejects. In debug builds every such
//! walk is re-run from the first entry without seek or skipping and must
//! pick the same host, and `Dc::validate` checks every block summary
//! against its hosts after each consolidation round. This sweep drives
//! those checks over random small fleets × every registered policy ×
//! both backends × uniform and heterogeneous generations.

use zombieland::core::backend::{CXL_POOL, RDMA_ZOMBIE};
use zombieland::energy::MachineProfile;
use zombieland::simcore::{DetRng, SimDuration};
use zombieland::simulator::policy::REGISTRY;
use zombieland::simulator::{simulate, SimConfig};
use zombieland::trace::{ClusterTrace, TraceConfig};

/// A mix of memory-light and memory-heavy generations.
const HETERO: [u16; 3] = [2007, 2010, 2013];

#[test]
fn summarized_walks_match_full_walks() {
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
                    let mut cfg = SimConfig::with_spec(spec, MachineProfile::hp());
                    cfg.racks = racks;
                    cfg.backend = backend;
                    cfg.generations = generations;
                    // The checks run inside the loop; a mismatch panics.
                    simulate(&trace, &cfg);
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 3 * REGISTRY.len() * 2 * 2);
}
