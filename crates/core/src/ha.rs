//! High availability of the global memory controller (§4.1–4.2).
//!
//! "Secondary Memory Controller (secondary-ctr) enforces transparent high
//! availability of the global controller. It monitors the main
//! controller's state (periodic heart beat) and synchronously mirrors all
//! operations." Every [`CtrlDb`] mutation is a pure decision followed by
//! the commit of its [`Effect`], so mirroring is implemented by deciding
//! once on the active controller and committing the same effect to both
//! replicas before answering; a missed heartbeat promotes the replica.

use zombieland_simcore::{SimDuration, SimTime};

use crate::db::{CtrlDb, DbError, Effect};
use crate::server::ServerId;

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
    /// Creates a fresh pair whose replicas register `hosts`.
    /// `heartbeat_timeout` is how long the secondary waits before
    /// declaring the primary dead.
    pub fn new(
        now: SimTime,
        heartbeat_timeout: SimDuration,
        hosts: impl IntoIterator<Item = ServerId>,
    ) -> Self {
        let primary = CtrlDb::with_hosts(hosts);
        HaPair {
            secondary: primary.clone(),
            primary,
            primary_alive: true,
            last_heartbeat: now,
            heartbeat_timeout,
            failovers: 0,
        }
    }

    /// The one mutation entry: decides on the active controller, then
    /// commits the decided effect to the primary and its mirror
    /// (synchronous mirroring) before returning it. After a failover only
    /// the promoted secondary commits. A refused (or panicking) decision
    /// commits nothing, so both replicas stay as they were.
    ///
    /// Debug builds also decide on the secondary and assert that both
    /// decisions are equal, that the replicas stay identical, and that
    /// the active controller's indexes match its rows
    /// ([`CtrlDb::check_index`]).
    pub fn mutate<E: Effect>(
        &mut self,
        decide: impl Fn(&CtrlDb) -> Result<E, DbError>,
    ) -> Result<E, DbError> {
        let decided = decide(self.db());
        if self.primary_alive {
            debug_assert_eq!(
                decide(&self.secondary),
                decided,
                "mirroring diverged: the replicas decided differently"
            );
        }
        let effect = decided?;
        if self.primary_alive {
            effect.commit(&mut self.primary);
        }
        effect.commit(&mut self.secondary);
        if cfg!(debug_assertions) {
            if self.primary_alive {
                assert_eq!(
                    self.primary, self.secondary,
                    "mirroring diverged: one effect left the replicas unequal"
                );
            }
            self.db().check_index();
        }
        Ok(effect)
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
    use crate::db::{BufferRecord, MarkAwake, ReclaimPlan};
    use zombieland_mem::buffer::{BufferId, BUFF_SIZE};
    use zombieland_rdma::{Fabric, MrKey, NodeId};
    use zombieland_simcore::DetRng;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn srv(n: u32) -> ServerId {
        ServerId::new(n)
    }

    fn mrs(fabric: &mut Fabric, node: NodeId, n: u64) -> Vec<MrKey> {
        (0..n)
            .map(|_| fabric.register(node, BUFF_SIZE).expect("node attached"))
            .collect()
    }

    fn pair(timeout_s: u64, hosts: u32) -> HaPair {
        HaPair::new(t(0), SimDuration::from_secs(timeout_s), (0..hosts).map(srv))
    }

    #[test]
    fn mirror_stays_in_sync() {
        let mut ha = pair(3, 2);
        let mut fabric = Fabric::new();
        let node = fabric.attach();
        let keys = mrs(&mut fabric, node, 2);
        ha.mutate(|db| db.decide_lend(srv(1), &keys, true)).unwrap();
        assert_eq!(ha.db().len(), 2);
        assert_eq!(ha.primary, ha.secondary);
        assert!(ha.primary_alive());
    }

    #[test]
    fn healthy_heartbeats_prevent_failover() {
        let mut ha = pair(3, 0);
        for s in 1..10 {
            ha.heartbeat(t(s));
            assert!(!ha.check(t(s)));
        }
        assert_eq!(ha.failovers(), 0);
    }

    #[test]
    fn missed_heartbeat_promotes_secondary() {
        let mut ha = pair(3, 2);
        ha.heartbeat(t(1));
        ha.kill_primary();
        assert!(!ha.check(t(2)), "not yet overdue");
        assert!(ha.check(t(10)), "overdue now");
        assert!(!ha.primary_alive());
        assert_eq!(ha.failovers(), 1);
        // State survived: the promoted replica knows the host.
        ha.mutate(|db| db.decide_mark_awake(srv(1))).unwrap();
        assert!(!ha.check(t(20)), "no second failover");
    }

    #[test]
    fn operations_continue_after_failover() {
        let mut ha = pair(1, 8);
        ha.kill_primary();
        ha.check(t(5));
        // The controller keeps serving from the mirror.
        let mut fabric = Fabric::new();
        let node = fabric.attach();
        let keys = mrs(&mut fabric, node, 1);
        ha.mutate(|db| db.decide_lend(srv(7), &keys, true)).unwrap();
        assert!(ha.db().is_zombie(srv(7)));
        assert_eq!(ha.db().free_buffers(), 1);
    }

    #[test]
    fn late_heartbeat_from_dead_primary_ignored() {
        let mut ha = pair(1, 0);
        ha.kill_primary();
        ha.check(t(5));
        ha.heartbeat(t(6)); // Zombie primary reappears: ignored.
        assert!(!ha.primary_alive());
    }

    #[test]
    fn panicking_decision_commits_to_neither_replica() {
        let mut ha = pair(1, 2);
        let before = ha.primary.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ha.mutate(|_| -> Result<MarkAwake, DbError> { panic!("a decision that panics") })
        }));
        assert!(r.is_err());
        assert_eq!(ha.primary, before);
        assert_eq!(ha.secondary, before);
    }

    /// Hosts in the random streams; `ServerId(HOSTS)` is unregistered.
    const HOSTS: u32 = 5;

    /// One random controller request.
    #[derive(Clone, Debug)]
    enum Op {
        Lend {
            host: ServerId,
            mrs: Vec<MrKey>,
            zombie: bool,
        },
        Alloc {
            user: ServerId,
            nb: u64,
            guaranteed: bool,
        },
        Release {
            user: ServerId,
            ids: Vec<BufferId>,
        },
        Reclaim {
            host: ServerId,
            nb: u64,
        },
        Wake {
            host: ServerId,
        },
    }

    /// A request's answer, comparable across runs.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Lent(Vec<BufferId>),
        Granted(Vec<BufferRecord>),
        Reclaimed(ReclaimPlan),
        Done,
    }

    /// Draws a request against `db`'s state. About one in five names an
    /// unknown host, a bogus id or another user's buffer, so the stream
    /// mixes refused decisions in; duplicated ids ride along too.
    fn gen_op(rng: &mut DetRng, db: &CtrlDb, fabric: &mut Fabric, node: NodeId) -> Op {
        let host = |rng: &mut DetRng| {
            if rng.chance(0.1) {
                srv(HOSTS)
            } else {
                srv(rng.below(HOSTS as u64) as u32)
            }
        };
        match rng.below(6) {
            0 => Op::Lend {
                host: host(rng),
                mrs: mrs(fabric, node, rng.below(4)),
                zombie: rng.chance(0.5),
            },
            1 => Op::Alloc {
                user: host(rng),
                nb: rng.range(1, 8),
                guaranteed: rng.chance(0.5),
            },
            2 | 3 => {
                let user = host(rng);
                let owner = if rng.chance(0.8) { user } else { host(rng) };
                let mut ids: Vec<BufferId> = db
                    .buffers_of_user(owner)
                    .iter()
                    .take(2)
                    .map(|r| r.id)
                    .collect();
                if rng.chance(0.1) {
                    ids.push(BufferId::new(u64::MAX));
                }
                if let (Some(&first), true) = (ids.first(), rng.chance(0.2)) {
                    ids.push(first);
                }
                Op::Release { user, ids }
            }
            4 => Op::Reclaim {
                host: host(rng),
                nb: rng.range(1, 6),
            },
            _ => Op::Wake { host: host(rng) },
        }
    }

    fn apply(ha: &mut HaPair, op: &Op) -> Result<Answer, DbError> {
        Ok(match op {
            Op::Lend { host, mrs, zombie } => Answer::Lent(
                ha.mutate(|db| db.decide_lend(*host, mrs, *zombie))?
                    .ids()
                    .collect(),
            ),
            Op::Alloc {
                user,
                nb,
                guaranteed,
            } => Answer::Granted(
                ha.mutate(|db| db.decide_allocate(*user, *nb, *guaranteed))?
                    .records,
            ),
            Op::Release { user, ids } => {
                ha.mutate(|db| db.decide_release(*user, ids))?;
                Answer::Done
            }
            Op::Reclaim { host, nb } => {
                Answer::Reclaimed(ha.mutate(|db| db.decide_reclaim(*host, *nb))?.plan)
            }
            Op::Wake { host } => {
                ha.mutate(|db| db.decide_mark_awake(*host))?;
                Answer::Done
            }
        })
    }

    #[test]
    fn mirrored_streams_answer_like_a_never_failed_pair() {
        let (mut refused, mut failovers) = (0, 0);
        for seed in 0..64 {
            let mut rng = DetRng::new(seed);
            let len = rng.range(40, 80);
            // `fail_at == len`: this stream never fails over.
            let fail_at = rng.below(len + 1);
            let mut ha = pair(1, HOSTS);
            let mut reference = pair(1, HOSTS);
            let mut fabric = Fabric::new();
            let node = fabric.attach();
            for i in 0..len {
                if i == fail_at {
                    ha.kill_primary();
                    assert!(ha.check(t(10)));
                    failovers += 1;
                }
                let op = gen_op(&mut rng, reference.db(), &mut fabric, node);
                let before = (ha.primary.clone(), ha.secondary.clone());
                let got = apply(&mut ha, &op);
                assert_eq!(
                    got,
                    apply(&mut reference, &op),
                    "seed {seed}, op {i}: {op:?}"
                );
                if got.is_err() {
                    refused += 1;
                    assert_eq!(ha.primary, before.0, "seed {seed}, op {i}: {op:?}");
                    assert_eq!(ha.secondary, before.1, "seed {seed}, op {i}: {op:?}");
                }
                if ha.primary_alive() {
                    assert_eq!(ha.primary, ha.secondary, "seed {seed}, op {i}: {op:?}");
                }
                assert_eq!(ha.db(), reference.db(), "seed {seed}, op {i}: {op:?}");
            }
        }
        assert!(refused > 100, "only {refused} refused decisions");
        assert!(failovers > 50, "only {failovers} failovers");
    }
}
