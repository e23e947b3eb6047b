//! VM migration timing models (§5.3, evaluated in Fig. 9).
//!
//! Vanilla live migration pre-copies: it transfers the whole VM memory,
//! then a fixed number of dirty-page rounds, then stop-and-copies the
//! residue. Its duration is dominated by the full-memory first round, so
//! it barely depends on the working-set size — exactly what Fig. 9 shows.
//!
//! ZombieStack migration is post-copy-flavoured: the VM stops, only the
//! *local hot part* (about half the WSS under the 50 % rule) crosses the
//! wire, and the VM resumes on the destination; the remote part needs no
//! migration at all — only its ownership pointers change. Duration
//! therefore scales with the WSS and beats vanilla everywhere, most
//! dramatically at small working sets.

use zombieland_simcore::{Bytes, SimDuration, SimTime};

/// Migration-network throughput. The paper's management network moves
/// pre-copy traffic at sub-GB/s effective rates (TCP, page-diff
/// bookkeeping), far below the InfiniBand data plane.
pub const MIGRATION_BANDWIDTH_BPS: f64 = 0.35e9;

/// Dirty-page rounds a vanilla pre-copy performs after the first full
/// pass ("the number of iteration\[s\] performed by the hypervisor for
/// transferring dirty pages is fixed").
pub const PRECOPY_ROUNDS: u32 = 4;

/// Fraction of the working set dirtied during one pre-copy round.
pub const DIRTY_PER_ROUND: f64 = 0.08;

/// Fixed protocol overhead: connection setup, listener VM creation,
/// final handoff.
pub const HANDOFF: SimDuration = SimDuration::from_millis(900);

/// Result of one migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationStats {
    /// Wall-clock duration of the whole migration.
    pub total: SimDuration,
    /// VM unavailability (stop-and-copy window).
    pub downtime: SimDuration,
    /// Bytes moved across the migration network.
    pub bytes: Bytes,
}

fn wire_time(bytes: Bytes) -> SimDuration {
    SimDuration::from_secs_f64(bytes.get() as f64 / MIGRATION_BANDWIDTH_BPS)
}

/// Records one migration decision on the current observability
/// collector, stamped at its own completion time.
fn observe_migration(protocol: &'static str, stats: &MigrationStats) {
    zombieland_obs::sink::counter_add("cloud.migrations", 1);
    zombieland_obs::sink::hist_record("cloud.migration_ns", stats.total.as_nanos());
    zombieland_obs::sink::hist_record("cloud.downtime_ns", stats.downtime.as_nanos());
    zombieland_obs::trace_event!(SimTime::ZERO + stats.total, "cloud", "migration",
        "protocol" => protocol,
        "total_ns" => stats.total.as_nanos(),
        "downtime_ns" => stats.downtime.as_nanos(),
        "bytes" => stats.bytes.get());
}

/// Vanilla pre-copy of a VM with `vm_mem` reserved memory and `wss`
/// working set.
pub fn vanilla_precopy(vm_mem: Bytes, wss: Bytes) -> MigrationStats {
    // Round 0 copies everything; each later round copies the pages the
    // running VM dirtied meanwhile; the final stop-copy moves the last
    // round's residue.
    let dirty = wss.mul_f64(DIRTY_PER_ROUND);
    let bytes = vm_mem + dirty * PRECOPY_ROUNDS as u64;
    let downtime = wire_time(dirty) + HANDOFF;
    let stats = MigrationStats {
        total: wire_time(bytes) + HANDOFF,
        downtime,
        bytes,
    };
    observe_migration("vanilla_precopy", &stats);
    stats
}

/// ZombieStack migration of a VM whose local (hot) memory part is
/// `local_part`; the remote part stays where it is.
pub fn zombiestack_migration(local_part: Bytes) -> MigrationStats {
    // Stop, copy the hot pages, update remote-buffer ownership, resume.
    let copy = wire_time(local_part);
    let stats = MigrationStats {
        total: copy + HANDOFF,
        downtime: copy + HANDOFF,
        bytes: local_part,
    };
    observe_migration("zombiestack", &stats);
    stats
}

/// One Fig. 9 data point: both protocols on a VM of `vm_mem`, with the
/// working set at `wss_ratio` of the VM memory, under ZombieStack's 50 %
/// local split.
pub fn figure9_point(vm_mem: Bytes, wss_ratio: f64) -> (MigrationStats, MigrationStats) {
    let wss = vm_mem.mul_f64(wss_ratio);
    let native = vanilla_precopy(vm_mem, wss);
    // "Only the memory pages within the local memory (about 50 % of the
    // WSS - see Section 5) are transferred."
    let zombie = zombiestack_migration(wss.mul_f64(0.5));
    (native, zombie)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_nearly_flat_in_wss() {
        let mem = Bytes::gib(7);
        let (low, _) = figure9_point(mem, 0.2);
        let (high, _) = figure9_point(mem, 0.8);
        let ratio = high.total.as_secs_f64() / low.total.as_secs_f64();
        assert!(
            ratio < 1.25,
            "native migration almost unaffected by WSS: ratio {ratio}"
        );
        // And in the paper's ~20-30 s ballpark for a 7 GiB VM.
        assert!(low.total.as_secs_f64() > 15.0 && high.total.as_secs_f64() < 35.0);
    }

    #[test]
    fn zombiestack_scales_with_wss_and_wins() {
        let mem = Bytes::gib(7);
        for ratio in [0.2, 0.4, 0.6, 0.8] {
            let (native, zombie) = figure9_point(mem, ratio);
            assert!(
                zombie.total < native.total,
                "zombie wins at wss={ratio}: {:?} vs {:?}",
                zombie.total,
                native.total
            );
        }
        let (_, z_low) = figure9_point(mem, 0.2);
        let (_, z_high) = figure9_point(mem, 0.8);
        // Scales with WSS: ~4× more data, ~4× longer (minus handoff).
        assert!(z_high.total.as_secs_f64() / z_low.total.as_secs_f64() > 2.5);
        // The advantage is largest at low WSS.
        let (n_low, _) = figure9_point(mem, 0.2);
        assert!(n_low.total.as_secs_f64() / z_low.total.as_secs_f64() > 5.0);
    }

    #[test]
    fn zombie_moves_fewer_bytes() {
        let (native, zombie) = figure9_point(Bytes::gib(7), 0.5);
        assert!(zombie.bytes.get() * 3 < native.bytes.get());
    }

    #[test]
    fn downtime_tradeoff() {
        // Pre-copy's price for the long total is a short stop-and-copy;
        // ZombieStack stops for its whole (much shorter) copy.
        let (native, zombie) = figure9_point(Bytes::gib(7), 0.5);
        assert!(native.downtime < native.total);
        assert_eq!(zombie.downtime, zombie.total);
    }
}
