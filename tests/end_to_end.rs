//! End-to-end: from the §5 datacenter run down to RDMA verbs.

use zombieland::core::manager::PoolKind;
use zombieland::core::{RackConfig, ServerId};
use zombieland::energy::MachineProfile;
use zombieland::hypervisor::engine::{self, Backing, EngineConfig};
use zombieland::rdma::NodeId;
use zombieland::simcore::{Bytes, SimDuration, PAGE_SIZE};
use zombieland::simulator::{simulate, PolicyKind, SimConfig};
use zombieland::trace::{ClusterTrace, TraceConfig};
use zombieland::workloads::DataCaching;

/// Take the zombies a seeded ZombieStack run leaves, as the daemon's
/// boot does, send that many hosts of a rack to Sz, and page a workload
/// through the buffers they lend.
#[test]
fn simulated_zombies_lend_buffers_a_workload_pages_through() {
    let trace = ClusterTrace::generate(TraceConfig {
        servers: 12,
        duration: SimDuration::from_hours(6),
        seed: 1,
        mem_cpu_ratio: 1.0,
        avg_utilization: 0.25,
    });
    let report = simulate(
        &trace,
        &SimConfig {
            sample_interval: Some(SimDuration::from_hours(1)),
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        },
    );
    let zombies = report.timeline.last().map_or(0, |s| s.counts[1]) as u32;
    assert!(zombies >= 1, "the run left a zombie");

    // Host 0 runs the workload; hosts 1..=zombies go to Sz.
    let mut rack = zombieland::core::Rack::new(RackConfig {
        servers: zombies + 1,
        ..RackConfig::default()
    });
    let user = ServerId::new(0);
    let mut lent = 0;
    for z in 1..=zombies {
        lent += rack.goto_zombie(ServerId::new(z)).unwrap().buffers.len() as u64;
    }
    assert_eq!(rack.db().free_buffers(), lent);

    let alloc = rack.alloc_ext(user, Bytes::mib(256)).unwrap();
    // Controllers sit on nodes 0 and 1, server `i` on node `2 + i`.
    let nodes = rack.fabric().node_count() as u32;
    let traffic = |rack: &zombieland::core::Rack| -> Vec<_> {
        (0..nodes)
            .map(|n| rack.fabric().stats(NodeId::new(n)).unwrap())
            .collect()
    };
    let before = traffic(&rack);
    let mut w = DataCaching::new(Bytes::mib(96).pages(), 5);
    let cfg = EngineConfig::ram_ext(Bytes::mib(128), Bytes::mib(48));
    let stats = engine::run(
        &mut w,
        &cfg,
        Backing::Rack {
            rack: &mut rack,
            user,
            pool: PoolKind::Ext,
        },
    )
    .unwrap();
    assert!(stats.remote_faults > 0, "workload actually paged");
    let after = traffic(&rack);

    // Inbound paging traffic lands on the zombies' NICs only, and their
    // CPUs stay idle.
    let mut inbound = Bytes::ZERO;
    let user_node = 2 + user.get() as usize;
    for (n, (b, a)) in before.iter().zip(&after).enumerate() {
        let delta = a.inbound_bytes - b.inbound_bytes;
        if n > user_node {
            inbound += delta;
            assert_eq!(a.outbound_ops, b.outbound_ops, "zombie CPU idle");
        } else {
            assert_eq!(delta, Bytes::ZERO, "node {n} is no zombie");
        }
    }
    assert!(inbound.get() / PAGE_SIZE >= stats.remote_faults);

    // Teardown: no live pages, buffers releasable, pool restored.
    assert_eq!(rack.manager(user).live_pages(), 0);
    rack.release(user, &alloc.buffers).unwrap();
    assert_eq!(rack.db().free_buffers(), lent);
    for z in 1..=zombies {
        let wake = rack.wake(ServerId::new(z), None).unwrap();
        assert_eq!(wake.revoked, 0, "nothing left allocated");
    }
    assert_eq!(rack.db().free_buffers(), 0);
}

/// The full data path under an engine-driven workload across the rack the
/// examples use, ending with clean teardown.
#[test]
fn engine_workload_over_rack_is_leak_free() {
    let mut rack = zombieland::core::Rack::new(RackConfig::default());
    let ids = rack.server_ids();
    let (user, zombie) = (ids[0], ids[1]);
    rack.goto_zombie(zombie).unwrap();
    let free_before = rack.db().free_buffers();
    let alloc = rack.alloc_ext(user, Bytes::mib(256)).unwrap();

    let mut w = DataCaching::new(Bytes::mib(96).pages(), 5);
    let cfg = EngineConfig::ram_ext(Bytes::mib(128), Bytes::mib(48));
    let stats = engine::run(
        &mut w,
        &cfg,
        Backing::Rack {
            rack: &mut rack,
            user,
            pool: PoolKind::Ext,
        },
    )
    .unwrap();
    assert!(stats.remote_faults > 0, "workload actually paged");
    assert!(stats.exec_time > SimDuration::ZERO);

    // Teardown: no live pages, buffers releasable, pool restored.
    assert_eq!(rack.manager(user).live_pages(), 0);
    rack.release(user, &alloc.buffers).unwrap();
    assert_eq!(rack.db().free_buffers(), free_before);

    // The zombie wakes into a clean state.
    let wake = rack.wake(zombie, None).unwrap();
    assert_eq!(wake.revoked, 0, "nothing left allocated");
    assert_eq!(rack.db().free_buffers(), 0);
}

/// Cross-layer traffic accounting: every byte the engine paged shows up
/// on the zombie's NIC as inbound one-sided traffic.
#[test]
fn paging_traffic_lands_on_the_zombie_nic() {
    let mut rack = zombieland::core::Rack::new(RackConfig::default());
    let ids = rack.server_ids();
    let (user, zombie) = (ids[0], ids[1]);
    rack.goto_zombie(zombie).unwrap();
    rack.alloc_ext(user, Bytes::mib(256)).unwrap();
    let znode = zombieland::rdma::NodeId::new(2 + zombie.get());
    let before = rack.fabric().stats(znode).unwrap();

    let mut w = DataCaching::new(Bytes::mib(64).pages(), 6);
    let cfg = EngineConfig::ram_ext(Bytes::mib(96), Bytes::mib(24));
    let stats = engine::run(
        &mut w,
        &cfg,
        Backing::Rack {
            rack: &mut rack,
            user,
            pool: PoolKind::Ext,
        },
    )
    .unwrap();

    let after = rack.fabric().stats(znode).unwrap();
    let inbound_pages = (after.inbound_bytes - before.inbound_bytes).get() / PAGE_SIZE;
    // Demotion writes + promotion reads, minus the clean-demotion
    // optimization, all land on the zombie.
    assert!(
        inbound_pages >= stats.remote_faults,
        "inbound {inbound_pages} >= faults {}",
        stats.remote_faults
    );
    assert_eq!(after.outbound_ops, before.outbound_ops, "zombie CPU idle");
}
