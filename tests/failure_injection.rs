//! Failure injection: crashes at awkward moments must never lose pages.

use zombieland::core::manager::{PageLoc, PoolKind};
use zombieland::core::{Rack, RackConfig};
use zombieland::simcore::{Bytes, SimDuration, SimTime};

fn rack_with_two_zombies() -> (
    Rack,
    zombieland::core::ServerId,
    Vec<zombieland::core::ServerId>,
) {
    let mut rack = Rack::new(RackConfig::default());
    let ids = rack.server_ids();
    rack.goto_zombie(ids[1]).unwrap();
    rack.goto_zombie(ids[2]).unwrap();
    (rack, ids[0], vec![ids[1], ids[2]])
}

/// A zombie crashes (no reclaim handshake): every page it served is
/// immediately reachable again via the local backup, and the pool
/// keeps working.
#[test]
fn zombie_crash_degrades_but_never_loses_pages() {
    let (mut rack, user, zombies) = rack_with_two_zombies();
    rack.alloc_ext(user, Bytes::gib(4)).unwrap();
    let mut handles = Vec::new();
    for _ in 0..128 {
        handles.push(rack.place_page(user, PoolKind::Ext).unwrap().0);
    }

    let lost = rack.crash_server(zombies[0]).unwrap();
    assert!(lost > 0, "the dead zombie served pages");
    rack.manager(user).validate().unwrap();

    let mut backup_served = 0;
    for &h in &handles {
        let cost = rack.fetch_page(user, h, false).expect("page reachable");
        if rack.manager(user).locate(h).unwrap() == PageLoc::LocalBackup {
            assert_eq!(cost, rack.config().backup_read_4k);
            backup_served += 1;
        }
    }
    assert_eq!(backup_served as u64, lost);
    rack.manager(user).validate().unwrap();

    // New placements keep landing on the surviving zombie.
    let (h, _) = rack.place_page(user, PoolKind::Ext).unwrap();
    assert!(matches!(
        rack.manager(user).locate(h).unwrap(),
        PageLoc::Remote(_)
    ));
}

/// Controller crash *between* an allocation and the data path: the
/// promoted secondary has the allocation mirrored and the data path never
/// notices.
#[test]
fn failover_mid_allocation_preserves_grants() {
    let (mut rack, user, _) = rack_with_two_zombies();
    let alloc = rack.alloc_ext(user, Bytes::gib(2)).unwrap();

    rack.heartbeat(SimTime::ZERO);
    rack.crash_primary();
    assert!(rack.check_failover(SimTime::ZERO + SimDuration::from_secs(60)));

    // The grant survives: pages flow, release works.
    let (h, _) = rack.place_page(user, PoolKind::Ext).unwrap();
    rack.fetch_page(user, h, true).unwrap();
    rack.release(user, &alloc.buffers).unwrap();
}

/// Double failure: the controller dies, then a zombie dies. Data is still
/// served; the (promoted) controller's database stays consistent.
#[test]
fn controller_then_zombie_crash() {
    let (mut rack, user, zombies) = rack_with_two_zombies();
    rack.alloc_ext(user, Bytes::gib(4)).unwrap();
    let mut handles = Vec::new();
    for _ in 0..64 {
        handles.push(rack.place_page(user, PoolKind::Ext).unwrap().0);
    }

    rack.crash_primary();
    assert!(rack.check_failover(SimTime::ZERO + SimDuration::from_secs(60)));
    rack.crash_server(zombies[1]).unwrap();
    rack.manager(user).validate().unwrap();

    for &h in &handles {
        rack.fetch_page(user, h, false).expect("still reachable");
    }
    rack.manager(user).validate().unwrap();
    // The purged host no longer appears in the database.
    assert!(rack.db().buffers_of_host(zombies[1]).is_empty());
}

/// A crashed zombie that later reboots re-enters the pool cleanly.
#[test]
fn crashed_zombie_can_rejoin_after_reboot() {
    let (mut rack, user, zombies) = rack_with_two_zombies();
    rack.alloc_ext(user, Bytes::gib(1)).unwrap();
    rack.crash_server(zombies[0]).unwrap();
    rack.manager(user).validate().unwrap();

    // Reboot: wake the platform (S5-ish path is modeled by wake) and lend
    // again.
    rack.wake(zombies[0], None).unwrap();
    rack.manager(user).validate().unwrap();
    let z = rack.goto_zombie(zombies[0]).unwrap();
    assert!(!z.buffers.is_empty());
    assert!(rack.db().is_zombie(zombies[0]));
}
