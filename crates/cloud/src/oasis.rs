//! The Oasis baseline (§6.6.2): hybrid consolidation with partial VM
//! migration.
//!
//! Oasis \[55\] saves energy by *partially* migrating idle VMs: only the
//! VM's working set moves to another host, the rest of its memory is
//! parked on a dedicated low-power **memory server** (consuming "about
//! 40 % of a regular server's total energy consumption, as stated in the
//! original paper"), and the emptied source suspends. The comparison in
//! Fig. 10 pits this against plain Neat and against ZombieStack. Oasis
//! evacuates underused hosts under the registry's shared underload
//! threshold ([`crate::policy::ConsolidationPolicy::underload_threshold`]).

/// CPU utilization below which a VM counts as idle (paper: 1 %).
pub const IDLE_VM_THRESHOLD: f64 = 0.01;

/// Power of a memory server relative to a regular server (paper: 40 %).
const MEMORY_SERVER_FRACTION: f64 = 0.40;

/// Power drawn by the memory servers holding `parked` memory, in units
/// of one regular server's maximum power: one memory server (of capacity
/// 1.0) per started unit of parked memory.
pub fn memory_server_power(parked: f64) -> f64 {
    parked.ceil() as u32 as f64 * MEMORY_SERVER_FRACTION
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_servers_cost_forty_percent() {
        assert_eq!(memory_server_power(0.0), 0.0);
        assert_eq!(memory_server_power(0.3), MEMORY_SERVER_FRACTION);
        assert!((memory_server_power(2.4) - 1.2).abs() < 1e-12, "3 servers");
    }
}
