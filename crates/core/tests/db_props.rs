//! Property tests: the controller database keeps its invariants under
//! arbitrary operation sequences, stays deterministic (the mirroring
//! precondition), and answers exactly like a plain row-scanning
//! database does.

use std::collections::BTreeMap;

use proptest::prelude::*;
use zombieland_core::db::{BufferKind, BufferRecord, CtrlDb, DbError, ReclaimPlan};
use zombieland_core::ServerId;
use zombieland_mem::buffer::{BufferId, BUFF_SIZE};
use zombieland_rdma::Fabric;
use zombieland_simcore::Bytes;

const HOSTS: u32 = 5;

#[derive(Clone, Debug)]
enum Op {
    Lend {
        host: u32,
        n: u8,
        zombie: bool,
    },
    Alloc {
        user: u32,
        nb: u8,
        guaranteed: bool,
    },
    ReleaseSome {
        user: u32,
    },
    /// A release naming the same buffer twice.
    ReleaseDup {
        user: u32,
    },
    Reassign {
        from: u32,
        to: u32,
    },
    Reclaim {
        host: u32,
        nb: u8,
    },
    Wake {
        host: u32,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..HOSTS), (1u8..6), any::<bool>()).prop_map(|(host, n, zombie)| Op::Lend {
                host,
                n,
                zombie
            }),
            ((0..HOSTS), (1u8..8), any::<bool>()).prop_map(|(user, nb, guaranteed)| Op::Alloc {
                user,
                nb,
                guaranteed
            }),
            (0..HOSTS).prop_map(|user| Op::ReleaseSome { user }),
            (0..HOSTS).prop_map(|user| Op::ReleaseDup { user }),
            ((0..HOSTS), (0..HOSTS)).prop_map(|(from, to)| Op::Reassign { from, to }),
            ((0..HOSTS), (1u8..6)).prop_map(|(host, nb)| Op::Reclaim { host, nb }),
            (0..HOSTS).prop_map(|host| Op::Wake { host }),
        ],
        1..60,
    )
}

/// Applies one op; returns whether it mutated the DB (errors are fine —
/// they must just be the *right* errors).
fn apply(db: &mut CtrlDb, fabric: &mut Fabric, node: zombieland_rdma::NodeId, op: &Op) {
    match op {
        Op::Lend { host, n, zombie } => {
            let mrs: Vec<_> = (0..*n)
                .map(|_| fabric.register(node, Bytes::mib(64)).unwrap())
                .collect();
            db.lend(ServerId::new(*host), &mrs, *zombie).unwrap();
        }
        Op::Alloc {
            user,
            nb,
            guaranteed,
        } => match db.allocate(ServerId::new(*user), *nb as u64, *guaranteed) {
            Ok(recs) => {
                if *guaranteed {
                    assert_eq!(recs.len(), *nb as usize);
                }
            }
            Err(DbError::AdmissionDenied {
                requested,
                available,
            }) => {
                assert!(*guaranteed);
                assert!(available < requested);
            }
            Err(e) => panic!("unexpected {e}"),
        },
        Op::ReleaseSome { user } => {
            let mine: Vec<BufferId> = db
                .buffers_of_user(ServerId::new(*user))
                .iter()
                .take(2)
                .map(|r| r.id)
                .collect();
            if !mine.is_empty() {
                db.release(ServerId::new(*user), &mine).unwrap();
            }
        }
        Op::ReleaseDup { user } => {
            if let Some(r) = db.buffers_of_user(ServerId::new(*user)).first() {
                db.release(ServerId::new(*user), &[r.id, r.id]).unwrap();
            }
        }
        Op::Reassign { from, to } => {
            let ids = reassignable(db.buffers_of_user(ServerId::new(*from)), *to);
            db.reassign(ServerId::new(*from), ServerId::new(*to), &ids)
                .unwrap();
        }
        Op::Reclaim { host, nb } => {
            let plan = db.reclaim(ServerId::new(*host), *nb as u64).unwrap();
            // Free buffers are always preferred: revocations happen only
            // when the request exceeded the host's free lent buffers.
            let _ = plan;
        }
        Op::Wake { host } => {
            db.mark_awake(ServerId::new(*host)).unwrap();
        }
    }
}

/// Up to two of `from`'s buffers that `to` may use (not its own memory).
fn reassignable(mine: Vec<BufferRecord>, to: u32) -> Vec<BufferId> {
    mine.iter()
        .filter(|r| r.host != ServerId::new(to))
        .take(2)
        .map(|r| r.id)
        .collect()
}

/// The database as it was before it kept indexes: rows and lent lists
/// only, every query a scan. The indexed [`CtrlDb`] must answer exactly
/// like it.
#[derive(Default)]
struct ScanDb {
    buffers: BTreeMap<BufferId, BufferRecord>,
    hosts: BTreeMap<ServerId, (bool, Vec<BufferId>)>,
    next_id: u64,
}

impl ScanDb {
    fn lend(
        &mut self,
        host: ServerId,
        mrs: &[zombieland_rdma::MrKey],
        zombie: bool,
    ) -> Result<Vec<BufferId>, DbError> {
        let zombie = zombie || self.hosts.get(&host).ok_or(DbError::UnknownHost(host))?.0;
        let kind = if zombie {
            BufferKind::Zombie
        } else {
            BufferKind::Active
        };
        let mut ids = Vec::new();
        for &mr in mrs {
            let id = BufferId::new(self.next_id);
            self.next_id += 1;
            let rec = BufferRecord {
                id,
                host,
                mr,
                size: BUFF_SIZE,
                kind,
                user: None,
            };
            self.buffers.insert(id, rec);
            ids.push(id);
        }
        let info = self.hosts.get_mut(&host).unwrap();
        info.1.extend(&ids);
        if zombie {
            info.0 = true;
            for b in info.1.clone() {
                self.buffers.get_mut(&b).unwrap().kind = BufferKind::Zombie;
            }
        }
        Ok(ids)
    }

    fn mark_awake(&mut self, host: ServerId) -> Result<(), DbError> {
        let info = self
            .hosts
            .get_mut(&host)
            .ok_or(DbError::UnknownHost(host))?;
        info.0 = false;
        for b in info.1.clone() {
            self.buffers.get_mut(&b).unwrap().kind = BufferKind::Active;
        }
        Ok(())
    }

    fn free_buffers(&self) -> u64 {
        self.buffers.values().filter(|b| b.user.is_none()).count() as u64
    }

    fn allocate(
        &mut self,
        user: ServerId,
        nb: u64,
        guaranteed: bool,
    ) -> Result<Vec<BufferRecord>, DbError> {
        let available = self.free_buffers();
        if guaranteed && available < nb {
            return Err(DbError::AdmissionDenied {
                requested: nb,
                available,
            });
        }
        let mut zombie_hosts: Vec<(ServerId, Vec<BufferId>)> = Vec::new();
        let mut active_hosts: Vec<(ServerId, Vec<BufferId>)> = Vec::new();
        for (&host, (is_zombie, lent)) in &self.hosts {
            if host == user {
                continue;
            }
            let free: Vec<BufferId> = lent
                .iter()
                .copied()
                .filter(|b| self.buffers[b].user.is_none())
                .collect();
            if free.is_empty() {
                continue;
            }
            if *is_zombie {
                zombie_hosts.push((host, free));
            } else {
                active_hosts.push((host, free));
            }
        }
        let mut picked = Vec::new();
        for group in [&mut zombie_hosts, &mut active_hosts] {
            let mut idx = 0usize;
            while picked.len() < nb as usize && !group.is_empty() {
                idx %= group.len();
                let (_, free) = &mut group[idx];
                if let Some(b) = free.pop() {
                    picked.push(b);
                    idx += 1;
                } else {
                    group.remove(idx);
                }
            }
            if picked.len() == nb as usize {
                break;
            }
        }
        if guaranteed && picked.len() < nb as usize {
            return Err(DbError::AdmissionDenied {
                requested: nb,
                available: picked.len() as u64,
            });
        }
        Ok(picked
            .into_iter()
            .map(|b| {
                let rec = self.buffers.get_mut(&b).unwrap();
                rec.user = Some(user);
                *rec
            })
            .collect())
    }

    fn set_users(
        &mut self,
        from: ServerId,
        to: Option<ServerId>,
        ids: &[BufferId],
    ) -> Result<(), DbError> {
        for id in ids {
            let rec = self.buffers.get(id).ok_or(DbError::UnknownBuffer(*id))?;
            if rec.user != Some(from) {
                return Err(DbError::NotTheUser(*id, from));
            }
        }
        for id in ids {
            self.buffers.get_mut(id).unwrap().user = to;
        }
        Ok(())
    }

    fn reclaim(&mut self, host: ServerId, nb: u64) -> Result<ReclaimPlan, DbError> {
        let lent = self
            .hosts
            .get(&host)
            .ok_or(DbError::UnknownHost(host))?
            .1
            .clone();
        let mut plan = ReclaimPlan::default();
        for &b in &lent {
            if plan.returned_free.len() as u64 == nb {
                break;
            }
            if self.buffers[&b].user.is_none() {
                plan.returned_free.push(b);
            }
        }
        for &b in &lent {
            if (plan.returned_free.len() + plan.revoked.len()) as u64 == nb {
                break;
            }
            if let Some(user) = self.buffers[&b].user {
                plan.revoked.push((user, b));
            }
        }
        for b in plan.all_buffers().collect::<Vec<_>>() {
            self.buffers.remove(&b);
        }
        let info = self.hosts.get_mut(&host).unwrap();
        info.1.retain(|b| self.buffers.contains_key(b));
        Ok(plan)
    }

    fn get_lru_zombie(&self) -> Option<ServerId> {
        self.hosts
            .iter()
            .filter(|(_, (is_zombie, _))| *is_zombie)
            .map(|(&host, (_, lent))| {
                let allocated = lent
                    .iter()
                    .filter(|b| self.buffers[b].user.is_some())
                    .count();
                (allocated, host)
            })
            .min()
            .map(|(_, host)| host)
    }

    fn buffers_of_host(&self, host: ServerId) -> Vec<BufferRecord> {
        self.hosts[&host]
            .1
            .iter()
            .map(|b| self.buffers[b])
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_arbitrary_ops(ops in ops()) {
        let mut fabric = Fabric::new();
        let node = fabric.attach();
        let mut db = CtrlDb::new();
        for h in 0..HOSTS {
            db.register_host(ServerId::new(h));
        }
        for op in &ops {
            apply(&mut db, &mut fabric, node, op);

            // Invariant 1: free count equals rows without a user.
            let mut free = 0u64;
            let mut per_user: std::collections::BTreeMap<u32, u64> = Default::default();
            for h in 0..HOSTS {
                for rec in db.buffers_of_host(ServerId::new(h)) {
                    prop_assert_eq!(rec.host, ServerId::new(h));
                    match rec.user {
                        None => free += 1,
                        Some(u) => {
                            // Invariant 2: nobody "remotely" uses their own
                            // host's memory.
                            prop_assert_ne!(u, rec.host);
                            *per_user.entry(u.get()).or_default() += 1;
                        }
                    }
                    // Invariant 3: zombie hosts serve zombie-kind buffers.
                    let expected = if db.is_zombie(rec.host) {
                        zombieland_core::db::BufferKind::Zombie
                    } else {
                        zombieland_core::db::BufferKind::Active
                    };
                    prop_assert_eq!(rec.kind, expected);
                }
            }
            prop_assert_eq!(free, db.free_buffers());
            // Invariant 4: per-user views agree with row scans.
            for (u, count) in per_user {
                prop_assert_eq!(
                    db.buffers_of_user(ServerId::new(u)).len() as u64,
                    count
                );
            }
        }
    }

    #[test]
    fn index_answers_like_the_scan_reference(ops in ops()) {
        let mut fabric = Fabric::new();
        let node = fabric.attach();
        let mut db = CtrlDb::new();
        let mut scan = ScanDb::default();
        for h in 0..HOSTS {
            db.register_host(ServerId::new(h));
            scan.hosts.insert(ServerId::new(h), (false, Vec::new()));
        }
        for op in &ops {
            // The same call on both; the answers must agree, errors too.
            match op {
                Op::Lend { host, n, zombie } => {
                    let mrs: Vec<_> = (0..*n)
                        .map(|_| fabric.register(node, Bytes::mib(64)).unwrap())
                        .collect();
                    let h = ServerId::new(*host);
                    prop_assert_eq!(db.lend(h, &mrs, *zombie), scan.lend(h, &mrs, *zombie));
                }
                Op::Alloc { user, nb, guaranteed } => {
                    let (u, nb) = (ServerId::new(*user), *nb as u64);
                    prop_assert_eq!(
                        db.allocate(u, nb, *guaranteed),
                        scan.allocate(u, nb, *guaranteed)
                    );
                }
                Op::ReleaseSome { user } | Op::ReleaseDup { user } => {
                    let u = ServerId::new(*user);
                    let mut ids: Vec<BufferId> =
                        db.buffers_of_user(u).iter().take(2).map(|r| r.id).collect();
                    if matches!(op, Op::ReleaseDup { .. }) {
                        ids.truncate(1);
                        ids.extend(ids.clone());
                    }
                    // An unknown id makes both refuse.
                    if ids.is_empty() {
                        ids.push(BufferId::new(u64::MAX));
                    }
                    prop_assert_eq!(db.release(u, &ids), scan.set_users(u, None, &ids));
                }
                Op::Reassign { from, to } => {
                    let (f, t) = (ServerId::new(*from), ServerId::new(*to));
                    let ids = reassignable(db.buffers_of_user(f), *to);
                    prop_assert_eq!(db.reassign(f, t, &ids), scan.set_users(f, Some(t), &ids));
                }
                Op::Reclaim { host, nb } => {
                    let (h, nb) = (ServerId::new(*host), *nb as u64);
                    prop_assert_eq!(db.reclaim(h, nb), scan.reclaim(h, nb));
                }
                Op::Wake { host } => {
                    let h = ServerId::new(*host);
                    prop_assert_eq!(db.mark_awake(h), scan.mark_awake(h));
                }
            }
            prop_assert_eq!(db.free_buffers(), scan.free_buffers(), "{:?}", op);
            prop_assert_eq!(db.get_lru_zombie(), scan.get_lru_zombie(), "{:?}", op);
            for h in 0..HOSTS {
                let h = ServerId::new(h);
                prop_assert_eq!(db.buffers_of_host(h), scan.buffers_of_host(h));
            }
            db.check_index();
        }
    }

    #[test]
    fn replay_determinism(ops in ops()) {
        // The same op sequence produces byte-identical databases — the
        // property the HA mirroring relies on.
        let run = |ops: &[Op]| {
            let mut fabric = Fabric::new();
            let node = fabric.attach();
            let mut db = CtrlDb::new();
            for h in 0..HOSTS {
                db.register_host(ServerId::new(h));
            }
            for op in ops {
                apply(&mut db, &mut fabric, node, op);
            }
            db
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }

    #[test]
    fn reclaim_conserves_buffers(lent in 1u8..12, allocated in 0u8..12, take in 1u8..14) {
        let mut fabric = Fabric::new();
        let node = fabric.attach();
        let mut db = CtrlDb::new();
        db.register_host(ServerId::new(0));
        db.register_host(ServerId::new(1));
        let mrs: Vec<_> = (0..lent)
            .map(|_| fabric.register(node, Bytes::mib(64)).unwrap())
            .collect();
        db.lend(ServerId::new(1), &mrs, true).unwrap();
        let _ = db.allocate(ServerId::new(0), allocated as u64, false);
        let before = db.len();
        let plan = db.reclaim(ServerId::new(1), take as u64).unwrap();
        let reclaimed = plan.returned_free.len() + plan.revoked.len();
        prop_assert_eq!(reclaimed, (take as usize).min(lent as usize));
        prop_assert_eq!(db.len(), before - reclaimed);
        // Free buffers are consumed before any revocation.
        if !plan.revoked.is_empty() {
            prop_assert_eq!(db.free_buffers(), 0);
        }
    }
}
