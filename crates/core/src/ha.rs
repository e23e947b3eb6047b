//! High availability of the global memory controller (§4.1–4.2).
//!
//! "Secondary Memory Controller (secondary-ctr) enforces transparent high
//! availability of the global controller. It monitors the main
//! controller's state (periodic heart beat) and synchronously mirrors all
//! operations." [`CtrlDb`] is a deterministic state machine, so mirroring
//! is implemented by replaying every mutating call on the replica; a
//! missed heartbeat promotes the replica.

use zombieland_simcore::{SimDuration, SimTime};

use crate::db::CtrlDb;

/// The primary/secondary controller pair.
#[derive(Clone, Debug)]
pub struct HaPair {
    primary: CtrlDb,
    secondary: CtrlDb,
    primary_alive: bool,
    last_heartbeat: SimTime,
    heartbeat_timeout: SimDuration,
    failovers: u32,
}

impl HaPair {
    /// Creates a fresh pair. `heartbeat_timeout` is how long the secondary
    /// waits before declaring the primary dead.
    pub fn new(now: SimTime, heartbeat_timeout: SimDuration) -> Self {
        HaPair {
            primary: CtrlDb::new(),
            secondary: CtrlDb::new(),
            primary_alive: true,
            last_heartbeat: now,
            heartbeat_timeout,
            failovers: 0,
        }
    }

    /// Applies a mutating operation to the active controller *and* its
    /// mirror (synchronous mirroring), returning the active controller's
    /// result. After a failover only the promoted secondary is updated.
    ///
    /// Determinism of [`CtrlDb`] guarantees the two replicas stay
    /// identical; debug builds assert that, and recompute the active
    /// controller's indexes from its rows ([`CtrlDb::check_index`]).
    pub fn apply<R>(&mut self, op: impl Fn(&mut CtrlDb) -> R) -> R {
        let r = if self.primary_alive {
            let r = op(&mut self.primary);
            let _mirror = op(&mut self.secondary);
            debug_assert_eq!(
                self.primary, self.secondary,
                "mirroring diverged: CtrlDb op was not deterministic"
            );
            r
        } else {
            op(&mut self.secondary)
        };
        if cfg!(debug_assertions) {
            self.db().check_index();
        }
        r
    }

    /// Read access to the active controller's database.
    pub fn db(&self) -> &CtrlDb {
        if self.primary_alive {
            &self.primary
        } else {
            &self.secondary
        }
    }

    /// The primary sends a heartbeat.
    pub fn heartbeat(&mut self, now: SimTime) {
        if self.primary_alive {
            self.last_heartbeat = now;
        }
    }

    /// The secondary's monitor: promotes itself when the heartbeat is
    /// overdue. Returns `true` if a failover happened on this check.
    pub fn check(&mut self, now: SimTime) -> bool {
        if self.primary_alive && now.saturating_since(self.last_heartbeat) > self.heartbeat_timeout
        {
            self.primary_alive = false;
            self.failovers += 1;
            true
        } else {
            false
        }
    }

    /// Simulates a primary crash (it stops heartbeating; detection happens
    /// on the next overdue [`HaPair::check`]).
    pub fn kill_primary(&mut self) {
        // The crash itself is silent: the monitor notices via timeouts.
        // Freeze the heartbeat clock by doing nothing here.
        self.last_heartbeat = SimTime::ZERO;
    }

    /// Whether the original primary is still in charge.
    pub fn primary_alive(&self) -> bool {
        self.primary_alive
    }

    /// How many failovers occurred.
    pub fn failovers(&self) -> u32 {
        self.failovers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerId;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn mirror_stays_in_sync() {
        let mut ha = HaPair::new(t(0), SimDuration::from_secs(3));
        ha.apply(|db| db.register_host(ServerId::new(1)));
        assert_eq!(ha.db().len(), 0);
        // Internal replicas are equal (debug_assert in apply verified it).
        assert!(ha.primary_alive());
    }

    #[test]
    fn healthy_heartbeats_prevent_failover() {
        let mut ha = HaPair::new(t(0), SimDuration::from_secs(3));
        for s in 1..10 {
            ha.heartbeat(t(s));
            assert!(!ha.check(t(s)));
        }
        assert_eq!(ha.failovers(), 0);
    }

    #[test]
    fn missed_heartbeat_promotes_secondary() {
        let mut ha = HaPair::new(t(0), SimDuration::from_secs(3));
        ha.apply(|db| db.register_host(ServerId::new(1)));
        ha.heartbeat(t(1));
        ha.kill_primary();
        assert!(!ha.check(t(2)), "not yet overdue");
        assert!(ha.check(t(10)), "overdue now");
        assert!(!ha.primary_alive());
        assert_eq!(ha.failovers(), 1);
        // State survived: the promoted replica knows the host.
        ha.apply(|db| db.register_host(ServerId::new(2)));
        assert!(!ha.check(t(20)), "no second failover");
    }

    #[test]
    fn operations_continue_after_failover() {
        let mut ha = HaPair::new(t(0), SimDuration::from_secs(1));
        ha.apply(|db| db.register_host(ServerId::new(7)));
        ha.kill_primary();
        ha.check(t(5));
        // The controller keeps serving from the mirror.
        let zombie = ha.apply(|db| db.is_zombie(ServerId::new(7)));
        assert!(!zombie);
    }

    #[test]
    fn late_heartbeat_from_dead_primary_ignored() {
        let mut ha = HaPair::new(t(0), SimDuration::from_secs(1));
        ha.kill_primary();
        ha.check(t(5));
        ha.heartbeat(t(6)); // Zombie primary reappears: ignored.
        assert!(!ha.primary_alive());
    }
}
