//! The global memory controller's in-memory buffer database (§4.3–4.4).
//!
//! "Global-mem-ctr uses an in-memory database to manage the allocation
//! state of these buffers. Each remote buffer is characterized by an
//! identifier, offset, size, its type (active/zombie), the host serving
//! the buffer, and the server currently using this buffer (nil if it is
//! not yet allocated to a server)."
//!
//! The database is a pure, deterministic state machine, and every
//! mutation comes in two halves: a decision (`decide_*`, `&self`) that
//! validates the request against the rows and returns its [`Effect`] —
//! the rows to insert, the picked ids, the reclaim plan, the ids to
//! release — and an infallible [`Effect::commit`] that applies it. That
//! is what makes the synchronous mirroring in [`crate::ha`] trivial to
//! reason about: the secondary is a replica that commits the effects the
//! active controller decided, and a refused decision touches neither.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use zombieland_mem::buffer::{BufferId, BUFF_SIZE};
use zombieland_rdma::MrKey;
use zombieland_simcore::{Bytes, FastMap};

use crate::server::ServerId;

/// Whether the buffer's host is a zombie or an active server — the
/// "type" column of the paper's database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BufferKind {
    /// Served by a server in Sz.
    Zombie,
    /// Served by a running server's residual memory.
    Active,
}

/// One row of the buffer database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferRecord {
    /// Rack-unique identifier.
    pub id: BufferId,
    /// Server whose RAM backs the buffer.
    pub host: ServerId,
    /// Registered memory-region key for one-sided access.
    pub mr: MrKey,
    /// Buffer size (uniform, `BUFF_SIZE`).
    pub size: Bytes,
    /// Host type.
    pub kind: BufferKind,
    /// The server currently using this buffer (`None` = free).
    pub user: Option<ServerId>,
}

/// Errors from database operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// The host is not registered.
    UnknownHost(ServerId),
    /// The buffer id does not exist.
    UnknownBuffer(BufferId),
    /// A guaranteed (`GS_alloc_ext`) allocation could not be fully
    /// satisfied: admission control rejects it rather than overcommit.
    AdmissionDenied {
        /// Buffers requested.
        requested: u64,
        /// Buffers actually free rack-wide.
        available: u64,
    },
    /// The caller does not use this buffer and cannot release it.
    NotTheUser(BufferId, ServerId),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownHost(h) => write!(f, "{h} not registered"),
            DbError::UnknownBuffer(b) => write!(f, "{b:?} not in database"),
            DbError::AdmissionDenied {
                requested,
                available,
            } => write!(
                f,
                "admission control: {requested} buffers requested, {available} available"
            ),
            DbError::NotTheUser(b, s) => write!(f, "{s} does not use {b:?}"),
        }
    }
}

impl std::error::Error for DbError {}

/// What a reclaim decided (§4.3): free buffers are handed straight back;
/// allocated ones must first be revoked from their users via
/// `US_reclaim`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReclaimPlan {
    /// Buffers returned without bothering anyone.
    pub returned_free: Vec<BufferId>,
    /// `(user, buffer)` pairs that require revocation.
    pub revoked: Vec<(ServerId, BufferId)>,
    /// The reclaimed rows' MR keys, in [`ReclaimPlan::all_buffers`]
    /// order: what the caller deregisters once the rows are gone.
    pub mrs: Vec<MrKey>,
}

impl ReclaimPlan {
    /// Every buffer leaving the pool.
    pub fn all_buffers(&self) -> impl Iterator<Item = BufferId> + '_ {
        self.returned_free
            .iter()
            .copied()
            .chain(self.revoked.iter().map(|&(_, b)| b))
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct HostInfo {
    is_zombie: bool,
    /// Buffers the host has in the pool, in id order (ids only grow, and
    /// lending appends).
    lent: Vec<BufferId>,
    /// The unallocated subset of `lent`. Being a sorted set, it iterates
    /// in `lent` order.
    free: BTreeSet<BufferId>,
}

/// The controller database.
///
/// Besides the rows, it keeps two indexes that every mutation maintains:
/// each host's free set and the rack-wide free count. Requests read those
/// instead of scanning the table, so an op costs what it answers about,
/// not the size of the pool ([`CtrlDb::check_index`] recomputes them).
/// The rows sit in a hash table keyed by id, never iterated where order
/// shows: each host's `lent` list carries the id order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtrlDb {
    /// Keyed by ids this database assigns (`next_id`), never by ids a
    /// request names, so the fast hash's keys cannot be crafted.
    buffers: FastMap<BufferId, BufferRecord>,
    hosts: BTreeMap<ServerId, HostInfo>,
    next_id: u64,
    /// Rows without a user, rack-wide.
    free: u64,
}

/// A decided mutation of a [`CtrlDb`]: what a `decide_*` call returns.
///
/// The decision validated everything against one replica, so committing
/// the effect to that replica — or to any replica equal to it — cannot
/// fail. [`crate::ha::HaPair`] mirrors by committing one effect to both.
pub trait Effect: fmt::Debug + PartialEq {
    /// Applies the effect to `db`.
    ///
    /// # Panics
    ///
    /// May panic if `db` differs from the replica the effect was decided
    /// on.
    fn commit(&self, db: &mut CtrlDb);
}

/// A decided lend (`GS_goto_zombie` / `AS_get_free_mem`): one new row per
/// MR key, with consecutive ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lend<'a> {
    host: ServerId,
    first: u64,
    mrs: &'a [MrKey],
    kind: BufferKind,
    /// The host turns zombie with this lend: its earlier rows flip kind.
    zombifies: bool,
}

impl Lend<'_> {
    /// The ids of the new rows, ascending.
    pub fn ids(&self) -> impl Iterator<Item = BufferId> {
        (self.first..self.first + self.mrs.len() as u64).map(BufferId::new)
    }
}

impl Effect for Lend<'_> {
    fn commit(&self, db: &mut CtrlDb) {
        debug_assert_eq!(db.next_id, self.first, "lend decided on another replica");
        let info = db
            .hosts
            .get_mut(&self.host)
            .expect("decided on a registered host");
        if self.zombifies {
            info.is_zombie = true;
            for b in &info.lent {
                db.buffers.get_mut(b).expect("lent list consistent").kind = BufferKind::Zombie;
            }
        }
        for (id, &mr) in self.ids().zip(self.mrs) {
            db.buffers.insert(
                id,
                BufferRecord {
                    id,
                    host: self.host,
                    mr,
                    size: BUFF_SIZE,
                    kind: self.kind,
                    user: None,
                },
            );
            info.lent.push(id);
            info.free.insert(id);
        }
        db.next_id = self.first + self.mrs.len() as u64;
        db.free += self.mrs.len() as u64;
    }
}

/// A decided wake-up: the host's remaining rows turn active-type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarkAwake(ServerId);

impl Effect for MarkAwake {
    fn commit(&self, db: &mut CtrlDb) {
        let info = db
            .hosts
            .get_mut(&self.0)
            .expect("decided on a registered host");
        info.is_zombie = false;
        for b in &info.lent {
            db.buffers.get_mut(b).expect("lent list consistent").kind = BufferKind::Active;
        }
    }
}

/// A decided allocation: the picked rows, as they read once committed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// The granted rows, in pick order, with their new user.
    pub records: Vec<BufferRecord>,
}

impl Effect for Allocation {
    fn commit(&self, db: &mut CtrlDb) {
        for rec in &self.records {
            db.buffers
                .get_mut(&rec.id)
                .expect("picked from live rows")
                .user = rec.user;
            db.hosts
                .get_mut(&rec.host)
                .expect("row host registered")
                .free
                .remove(&rec.id);
        }
        db.free -= self.records.len() as u64;
    }
}

/// A decided release: every id names a row of the releasing user.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Release<'a>(&'a [BufferId]);

impl Effect for Release<'_> {
    fn commit(&self, db: &mut CtrlDb) {
        for id in self.0 {
            let rec = db.buffers.get_mut(id).expect("decided on a live row");
            // A duplicated id is freed once.
            if rec.user.take().is_some() {
                db.free += 1;
                db.hosts
                    .get_mut(&rec.host)
                    .expect("row host registered")
                    .free
                    .insert(*id);
            }
        }
    }
}

/// A decided reclaim: the plan's rows leave the database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reclaim {
    host: ServerId,
    /// What the caller returns, revokes and deregisters.
    pub plan: ReclaimPlan,
}

impl Effect for Reclaim {
    fn commit(&self, db: &mut CtrlDb) {
        let plan = &self.plan;
        for b in plan.all_buffers() {
            db.buffers.remove(&b).expect("planned from live rows");
        }
        let info = db
            .hosts
            .get_mut(&self.host)
            .expect("decided on a registered host");
        for b in &plan.returned_free {
            info.free.remove(b);
        }
        db.free -= plan.returned_free.len() as u64;
        // Both id lists are ascending subsequences of `lent`, so one
        // merge walk prunes it without looking up a row.
        let mut free = plan.returned_free.iter().peekable();
        let mut revoked = plan.revoked.iter().map(|(_, b)| b).peekable();
        info.lent
            .retain(|b| free.next_if_eq(&b).is_none() && revoked.next_if_eq(&b).is_none());
    }
}

impl CtrlDb {
    /// Creates a database with `hosts` registered (each active, lending
    /// nothing).
    pub fn with_hosts(hosts: impl IntoIterator<Item = ServerId>) -> Self {
        CtrlDb {
            hosts: hosts
                .into_iter()
                .map(|h| (h, HostInfo::default()))
                .collect(),
            ..Self::default()
        }
    }

    fn host(&self, host: ServerId) -> Result<&HostInfo, DbError> {
        self.hosts.get(&host).ok_or(DbError::UnknownHost(host))
    }

    /// Decides a lend of buffers by `host` (one `MrKey` per buffer) that —
    /// when `zombie` — marks the host as transitioning to Sz. This
    /// implements both `GS_goto_zombie(buffers)` and the active-server
    /// lending path behind `AS_get_free_mem()`.
    pub fn decide_lend<'a>(
        &self,
        host: ServerId,
        mrs: &'a [MrKey],
        zombie: bool,
    ) -> Result<Lend<'a>, DbError> {
        // A host that is already a zombie cannot serve actively (its CPU
        // is off): any lend on its behalf is zombie-kind.
        let was_zombie = self.host(host)?.is_zombie;
        let kind = if zombie || was_zombie {
            BufferKind::Zombie
        } else {
            BufferKind::Active
        };
        Ok(Lend {
            host,
            first: self.next_id,
            mrs,
            kind,
            zombifies: zombie && !was_zombie,
        })
    }

    /// Decides that a host is awake again (its remaining lent buffers
    /// become active-type).
    pub fn decide_mark_awake(&self, host: ServerId) -> Result<MarkAwake, DbError> {
        self.host(host)?;
        Ok(MarkAwake(host))
    }

    /// Whether a host is currently a zombie.
    pub fn is_zombie(&self, host: ServerId) -> bool {
        self.hosts.get(&host).is_some_and(|h| h.is_zombie)
    }

    /// Number of hosts currently in the zombie state.
    pub fn zombie_count(&self) -> u64 {
        self.hosts.values().filter(|h| h.is_zombie).count() as u64
    }

    /// Number of free (unallocated) buffers rack-wide.
    pub fn free_buffers(&self) -> u64 {
        self.free
    }

    /// Free remote memory rack-wide.
    pub fn free_memory(&self) -> Bytes {
        BUFF_SIZE * self.free_buffers()
    }

    /// Looks up one record.
    pub fn record(&self, id: BufferId) -> Result<&BufferRecord, DbError> {
        self.buffers.get(&id).ok_or(DbError::UnknownBuffer(id))
    }

    /// Decides an allocation of up to `nb` buffers for `user`, zombie
    /// memory first ("memory from zombie servers have always higher
    /// priority than memory from active servers"), striped round-robin
    /// across hosts so one failing server costs as little as possible
    /// ("the memSize allocation is backed by memory from multiple remote
    /// servers").
    ///
    /// With `guaranteed` (the `GS_alloc_ext` contract) a shortfall is an
    /// [`DbError::AdmissionDenied`] error; without it (`GS_alloc_swap`)
    /// the allocation takes whatever is available.
    pub fn decide_allocate(
        &self,
        user: ServerId,
        nb: u64,
        guaranteed: bool,
    ) -> Result<Allocation, DbError> {
        let available = self.free_buffers();
        if guaranteed && available < nb {
            return Err(DbError::AdmissionDenied {
                requested: nb,
                available,
            });
        }

        // Free buffers grouped per host, zombie hosts first; never from
        // the user's own lent memory (that would be local, not remote).
        // Each host hands out its highest free id first.
        let mut zombie_hosts = Vec::new();
        let mut active_hosts = Vec::new();
        for (&host, info) in &self.hosts {
            if host == user || info.free.is_empty() {
                continue;
            }
            let free = info.free.iter().rev();
            if info.is_zombie {
                zombie_hosts.push(free);
            } else {
                active_hosts.push(free);
            }
        }

        // At most the free rows can be picked, however large `nb` is.
        let want = nb.min(available) as usize;
        let mut records = Vec::with_capacity(want);
        for group in [&mut zombie_hosts, &mut active_hosts] {
            // Round-robin striping across the hosts of this tier.
            let mut idx = 0usize;
            while records.len() < want && !group.is_empty() {
                idx %= group.len();
                if let Some(b) = group[idx].next() {
                    records.push(BufferRecord {
                        user: Some(user),
                        ..self.buffers[b]
                    });
                    idx += 1;
                } else {
                    let _exhausted = group.remove(idx);
                }
            }
        }

        if guaranteed && records.len() < nb as usize {
            // The availability check counts the user's own free buffers,
            // which it may not take: nothing is allocated then.
            return Err(DbError::AdmissionDenied {
                requested: nb,
                available: records.len() as u64,
            });
        }
        Ok(Allocation { records })
    }

    /// Checks that `user` holds every row of `ids`.
    fn check_user(&self, user: ServerId, ids: &[BufferId]) -> Result<(), DbError> {
        for id in ids {
            if self.record(*id)?.user != Some(user) {
                return Err(DbError::NotTheUser(*id, user));
            }
        }
        Ok(())
    }

    /// Decides a release of buffers a user no longer needs. All-or-nothing:
    /// every id must name a row of `user`; a duplicated id frees once.
    pub fn decide_release<'a>(
        &self,
        user: ServerId,
        ids: &'a [BufferId],
    ) -> Result<Release<'a>, DbError> {
        self.check_user(user, ids)?;
        Ok(Release(ids))
    }

    /// Plans a reclaim of `nb` of `host`'s buffers (`GS_reclaim`):
    /// unallocated buffers first, then allocated ones (which the caller
    /// must revoke from their users via `US_reclaim`). Committing it
    /// removes the reclaimed buffers from the database.
    pub fn decide_reclaim(&self, host: ServerId, nb: u64) -> Result<Reclaim, DbError> {
        let info = self.host(host)?;
        let mut plan = ReclaimPlan::default();
        // Pass 1: free buffers, in lent order.
        plan.returned_free
            .extend(info.free.iter().take(nb as usize).copied());
        // Pass 2: allocated buffers, in lent order.
        let wanted = nb.saturating_sub(plan.returned_free.len() as u64) as usize;
        plan.revoked.extend(
            info.lent
                .iter()
                .filter(|b| !info.free.contains(b))
                .take(wanted)
                .map(|&b| (self.buffers[&b].user.expect("not free"), b)),
        );
        plan.mrs = plan.all_buffers().map(|b| self.buffers[&b].mr).collect();
        Ok(Reclaim { host, plan })
    }

    /// `GS_get_lru_zombie()`: the zombie host with the fewest *allocated*
    /// buffers — waking it reclaims the least shared memory.
    pub fn get_lru_zombie(&self) -> Option<ServerId> {
        self.hosts
            .iter()
            .filter(|(_, info)| info.is_zombie)
            .map(|(&host, info)| (info.lent.len() - info.free.len(), host))
            .min()
            .map(|(_, host)| host)
    }

    /// Buffers currently allocated to `user`, in id order.
    pub fn buffers_of_user(&self, user: ServerId) -> Vec<BufferRecord> {
        let mut mine: Vec<BufferRecord> = self
            .buffers
            .values()
            .filter(|b| b.user == Some(user))
            .copied()
            .collect();
        mine.sort_unstable_by_key(|b| b.id);
        mine
    }

    /// Buffers lent by `host` that are still in the pool.
    pub fn buffers_of_host(&self, host: ServerId) -> Vec<BufferRecord> {
        self.hosts
            .get(&host)
            .map(|info| info.lent.iter().map(|b| self.buffers[b]).collect())
            .unwrap_or_default()
    }

    /// Recomputes the indexes from the rows and panics if they disagree:
    /// every host's `lent` is id-sorted and names rows it serves, its free
    /// set is exactly the rows of `lent` without a user, every row is lent
    /// by its host, and the rack-wide free count matches.
    ///
    /// # Panics
    ///
    /// Panics on the first inconsistency (a bug in a mutation).
    pub fn check_index(&self) {
        let mut lent_rows = 0usize;
        for (&host, info) in &self.hosts {
            assert!(
                info.lent.windows(2).all(|w| w[0] < w[1]),
                "{host}: lent list not id-sorted"
            );
            let free: BTreeSet<BufferId> = info
                .lent
                .iter()
                .copied()
                .filter(|b| {
                    let rec = &self.buffers[b];
                    assert_eq!(rec.host, host, "{b:?} lent by the wrong host");
                    rec.user.is_none()
                })
                .collect();
            assert_eq!(info.free, free, "{host}: free set out of date");
            lent_rows += info.lent.len();
        }
        assert_eq!(lent_rows, self.buffers.len(), "rows outside lent lists");
        let free = self.buffers.values().filter(|b| b.user.is_none()).count();
        assert_eq!(self.free, free as u64, "free count out of date");
    }

    /// Total rows (for invariant checks).
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mr(n: u64) -> MrKey {
        // MrKey construction is crate-private in rdma; fabricate via a
        // fabric in real paths. For DB unit tests we only need distinct
        // keys, which register() would produce; use a tiny helper fabric.
        let mut f = zombieland_rdma::Fabric::new();
        let node = f.attach();
        let mut key = None;
        for _ in 0..=n {
            key = Some(f.register(node, Bytes::mib(64)).unwrap());
        }
        key.unwrap()
    }

    fn srv(n: u32) -> ServerId {
        ServerId::new(n)
    }

    /// Commits a decision to the database it was decided on, as a
    /// replica without a mirror would.
    fn run<E: Effect>(decided: Result<E, DbError>, db: &mut CtrlDb) -> Result<E, DbError> {
        let effect = decided?;
        effect.commit(db);
        Ok(effect)
    }

    fn db_with_zombie_and_active() -> CtrlDb {
        let mut db = CtrlDb::with_hosts((0..4).map(srv));
        // srv1 zombifies with 3 buffers, srv2 lends 2 active buffers.
        run(
            db.decide_lend(srv(1), &[mr(0), mr(1), mr(2)], true),
            &mut db,
        )
        .unwrap();
        run(db.decide_lend(srv(2), &[mr(3), mr(4)], false), &mut db).unwrap();
        db
    }

    #[test]
    fn lend_and_counts() {
        let db = db_with_zombie_and_active();
        assert_eq!(db.free_buffers(), 5);
        assert_eq!(db.free_memory(), Bytes::mib(64 * 5));
        assert!(db.is_zombie(srv(1)));
        assert!(!db.is_zombie(srv(2)));
    }

    #[test]
    fn zombie_memory_has_priority() {
        let mut db = db_with_zombie_and_active();
        let got = run(db.decide_allocate(srv(0), 3, true), &mut db)
            .unwrap()
            .records;
        assert_eq!(got.len(), 3);
        assert!(
            got.iter().all(|b| b.kind == BufferKind::Zombie),
            "zombie buffers must be exhausted before active ones: {got:?}"
        );
        // The next allocation spills to active buffers.
        let more = run(db.decide_allocate(srv(0), 2, true), &mut db)
            .unwrap()
            .records;
        assert!(more.iter().all(|b| b.kind == BufferKind::Active));
    }

    #[test]
    fn striping_spreads_across_hosts() {
        let mut db = CtrlDb::with_hosts((0..4).map(srv));
        run(db.decide_lend(srv(1), &[mr(0), mr(1)], true), &mut db).unwrap();
        run(db.decide_lend(srv(2), &[mr(2), mr(3)], true), &mut db).unwrap();
        run(db.decide_lend(srv(3), &[mr(4), mr(5)], true), &mut db).unwrap();
        let got = run(db.decide_allocate(srv(0), 3, true), &mut db)
            .unwrap()
            .records;
        let hosts: std::collections::HashSet<ServerId> = got.iter().map(|b| b.host).collect();
        assert_eq!(hosts.len(), 3, "3 buffers from 3 hosts: {got:?}");
    }

    #[test]
    fn guaranteed_alloc_is_admission_controlled() {
        let mut db = db_with_zombie_and_active();
        let err = run(db.decide_allocate(srv(0), 6, true), &mut db).unwrap_err();
        assert_eq!(
            err,
            DbError::AdmissionDenied {
                requested: 6,
                available: 5
            }
        );
        // Nothing was allocated by the failed call.
        assert_eq!(db.free_buffers(), 5);
    }

    #[test]
    fn best_effort_alloc_returns_partial() {
        let mut db = db_with_zombie_and_active();
        let got = run(db.decide_allocate(srv(0), 100, false), &mut db)
            .unwrap()
            .records;
        assert_eq!(got.len(), 5);
        assert_eq!(db.free_buffers(), 0);
    }

    #[test]
    fn never_allocates_own_memory() {
        let mut db = db_with_zombie_and_active();
        // srv1 lent everything zombie; it asks for remote memory itself.
        let got = run(db.decide_allocate(srv(1), 5, false), &mut db)
            .unwrap()
            .records;
        assert!(got.iter().all(|b| b.host != srv(1)), "{got:?}");
        assert_eq!(got.len(), 2, "only srv2's active buffers qualify");
    }

    #[test]
    fn release_returns_buffers_to_pool() {
        let mut db = db_with_zombie_and_active();
        let got = run(db.decide_allocate(srv(0), 2, true), &mut db)
            .unwrap()
            .records;
        let ids: Vec<BufferId> = got.iter().map(|b| b.id).collect();
        run(db.decide_release(srv(0), &ids), &mut db).unwrap();
        assert_eq!(db.free_buffers(), 5);
        // Double release fails.
        assert!(matches!(
            run(db.decide_release(srv(0), &ids), &mut db),
            Err(DbError::NotTheUser(..))
        ));
    }

    #[test]
    fn release_is_all_or_nothing() {
        let mut db = db_with_zombie_and_active();
        let got = run(db.decide_allocate(srv(0), 1, true), &mut db)
            .unwrap()
            .records;
        let mine = got[0].id;
        let bogus = BufferId::new(999);
        assert!(run(db.decide_release(srv(0), &[mine, bogus]), &mut db).is_err());
        // The valid buffer is still allocated.
        assert_eq!(db.buffers_of_user(srv(0)).len(), 1);
    }

    #[test]
    fn reclaim_prefers_free_buffers() {
        let mut db = db_with_zombie_and_active();
        // Allocate one zombie buffer to srv0, leaving 2 free on srv1.
        let got = run(db.decide_allocate(srv(0), 1, true), &mut db)
            .unwrap()
            .records;
        assert_eq!(got[0].host, srv(1));
        let plan = run(db.decide_reclaim(srv(1), 2), &mut db).unwrap().plan;
        assert_eq!(plan.returned_free.len(), 2);
        assert!(plan.revoked.is_empty(), "free buffers sufficed");
        assert_eq!(db.buffers_of_host(srv(1)).len(), 1);
    }

    #[test]
    fn reclaim_revokes_when_needed() {
        let mut db = db_with_zombie_and_active();
        run(db.decide_allocate(srv(0), 3, true), &mut db).unwrap(); // All zombie buffers used.
        let plan = run(db.decide_reclaim(srv(1), 3), &mut db).unwrap().plan;
        assert!(plan.returned_free.is_empty());
        assert_eq!(plan.revoked.len(), 3);
        assert!(plan.revoked.iter().all(|&(u, _)| u == srv(0)));
        // Reclaimed rows are gone.
        assert_eq!(db.buffers_of_host(srv(1)).len(), 0);
        assert_eq!(db.buffers_of_user(srv(0)).len(), 0);
    }

    #[test]
    fn lru_zombie_minimizes_reclaim() {
        let mut db = CtrlDb::with_hosts((0..4).map(srv));
        run(db.decide_lend(srv(1), &[mr(0), mr(1)], true), &mut db).unwrap();
        run(db.decide_lend(srv(2), &[mr(2), mr(3)], true), &mut db).unwrap();
        assert!(db.get_lru_zombie().is_some());
        // Allocate both of srv1's buffers; srv2 becomes the LRU zombie.
        let got = run(db.decide_allocate(srv(0), 4, false), &mut db)
            .unwrap()
            .records;
        let srv1_used = got.iter().filter(|b| b.host == srv(1)).count();
        assert!(srv1_used > 0);
        // Free srv2's buffers again.
        let ids: Vec<BufferId> = got
            .iter()
            .filter(|b| b.host == srv(2))
            .map(|b| b.id)
            .collect();
        run(db.decide_release(srv(0), &ids), &mut db).unwrap();
        assert_eq!(db.get_lru_zombie(), Some(srv(2)));
    }

    #[test]
    fn wake_flips_buffer_kind() {
        let mut db = db_with_zombie_and_active();
        run(db.decide_mark_awake(srv(1)), &mut db).unwrap();
        assert!(!db.is_zombie(srv(1)));
        assert!(db
            .buffers_of_host(srv(1))
            .iter()
            .all(|b| b.kind == BufferKind::Active));
        assert_eq!(db.get_lru_zombie(), None);
    }

    #[test]
    fn replaying_calls_reproduces_state() {
        // The mirroring precondition: CtrlDb is deterministic.
        let build = || {
            let mut db = CtrlDb::with_hosts((0..3).map(srv));
            run(db.decide_lend(srv(1), &[mr(0), mr(1)], true), &mut db).unwrap();
            run(db.decide_allocate(srv(0), 1, true), &mut db).unwrap();
            run(db.decide_reclaim(srv(1), 1), &mut db).unwrap();
            db
        };
        assert_eq!(build(), build());
    }
}
