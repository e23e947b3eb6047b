//! Model-based property test: the remote-memory manager's page table
//! answers exactly like a naive `BTreeMap<seq, PageLoc>` over random
//! place / free / locate / rewrite / downgrade / lose / revoke / ungrant
//! sequences — the same results, the same errors (a stale handle stays
//! unknown after its table index is reused), and the same order of
//! relocated, fallen-back and lost pages.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use proptest::prelude::*;
use zombieland_core::db::{BufferRecord, CtrlDb};
use zombieland_core::manager::{
    ManagerError, PageHandle, PageLoc, PoolKind, RemoteMemManager, Revocation,
};
use zombieland_core::ServerId;
use zombieland_mem::buffer::{BufferId, RemoteSlot, SlotMap};
use zombieland_rdma::Fabric;
use zombieland_simcore::Bytes;

/// Buffers the user may be granted over a run.
const RECORDS: usize = 6;

#[derive(Clone, Debug)]
enum Op {
    Grant { record: u8, swap: bool },
    Place { swap: bool },
    Free { pick: u16 },
    Locate { pick: u16 },
    Rewrite { pick: u16 },
    Downgrade { pick: u16 },
    Lose { record: u8 },
    Revoke { first: u8, second: Option<u8> },
    Ungrant { record: u8 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let record = || 0..RECORDS as u8;
    prop::collection::vec(
        prop_oneof![
            (record(), any::<bool>()).prop_map(|(record, swap)| Op::Grant { record, swap }),
            any::<bool>().prop_map(|swap| Op::Place { swap }),
            any::<bool>().prop_map(|swap| Op::Place { swap }),
            any::<bool>().prop_map(|swap| Op::Place { swap }),
            any::<u16>().prop_map(|pick| Op::Free { pick }),
            any::<u16>().prop_map(|pick| Op::Locate { pick }),
            any::<u16>().prop_map(|pick| Op::Rewrite { pick }),
            any::<u16>().prop_map(|pick| Op::Downgrade { pick }),
            record().prop_map(|record| Op::Lose { record }),
            (record(), record(), any::<bool>()).prop_map(|(first, second, two)| Op::Revoke {
                first,
                second: two.then_some(second),
            }),
            record().prop_map(|record| Op::Ungrant { record }),
        ],
        1..80,
    )
}

fn pool(swap: bool) -> PoolKind {
    if swap {
        PoolKind::Swap
    } else {
        PoolKind::Ext
    }
}

/// Buffer records lent by server 1 and allocated to server 0.
fn records() -> Vec<BufferRecord> {
    let mut fabric = Fabric::new();
    let node = fabric.attach();
    let mrs: Vec<_> = (0..RECORDS)
        .map(|_| fabric.register(node, Bytes::mib(64)).unwrap())
        .collect();
    let mut db = CtrlDb::new();
    db.register_host(ServerId::new(0));
    db.register_host(ServerId::new(1));
    db.lend(ServerId::new(1), &mrs, true).unwrap();
    let mut recs = db.allocate(ServerId::new(0), RECORDS as u64, true).unwrap();
    recs.sort_by_key(|r| r.id);
    recs
}

/// The manager as a plain ordered map from sequence number to location:
/// every per-buffer question is a scan of that map.
#[derive(Default)]
struct MapManager {
    granted: BTreeMap<BufferId, (PoolKind, SlotMap)>,
    pages: BTreeMap<u64, PageLoc>,
    next_seq: u64,
    backup_written: u64,
}

impl MapManager {
    fn place(&mut self, pool: PoolKind) -> Result<(u64, RemoteSlot), ManagerError> {
        let (_, slots) = self
            .granted
            .values_mut()
            .find(|(p, s)| *p == pool && s.free_slots() > 0)
            .ok_or(ManagerError::NoRemoteCapacity(pool))?;
        let slot = slots.take().unwrap();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pages.insert(seq, PageLoc::Remote(slot));
        self.backup_written += 1;
        Ok((seq, slot))
    }

    fn locate(&self, h: PageHandle) -> Result<PageLoc, ManagerError> {
        self.pages
            .get(&h.get())
            .copied()
            .ok_or(ManagerError::UnknownHandle(h))
    }

    fn release(&mut self, loc: PageLoc) {
        if let PageLoc::Remote(slot) = loc {
            if let Some((_, slots)) = self.granted.get_mut(&slot.buffer) {
                slots.release(slot);
            }
        }
    }

    fn free(&mut self, h: PageHandle) -> Result<(), ManagerError> {
        let loc = self
            .pages
            .remove(&h.get())
            .ok_or(ManagerError::UnknownHandle(h))?;
        self.release(loc);
        Ok(())
    }

    fn downgrade(&mut self, h: PageHandle) -> Result<(), ManagerError> {
        let loc = self.locate(h)?;
        self.release(loc);
        self.pages.insert(h.get(), PageLoc::LocalBackup);
        Ok(())
    }

    fn pages_in(&self, buffers: &[BufferId]) -> Vec<u64> {
        self.pages
            .iter()
            .filter(|(_, loc)| matches!(loc, PageLoc::Remote(s) if buffers.contains(&s.buffer)))
            .map(|(&seq, _)| seq)
            .collect()
    }

    fn lose(&mut self, b: BufferId) -> Result<Vec<u64>, ManagerError> {
        self.granted
            .remove(&b)
            .ok_or(ManagerError::UnknownBuffer(b))?;
        let lost = self.pages_in(&[b]);
        for seq in &lost {
            self.pages.insert(*seq, PageLoc::LocalBackup);
        }
        Ok(lost)
    }

    fn revoke(
        &mut self,
        buffers: &[BufferId],
    ) -> Result<Vec<(u64, Option<RemoteSlot>)>, ManagerError> {
        if let Some(b) = buffers.iter().find(|b| !self.granted.contains_key(b)) {
            return Err(ManagerError::UnknownBuffer(*b));
        }
        let pool = buffers.first().map_or(PoolKind::Ext, |b| self.granted[b].0);
        for b in buffers {
            self.granted.remove(b);
        }
        let mut out = Vec::new();
        for seq in self.pages_in(buffers) {
            let slot = self
                .granted
                .iter_mut()
                .filter(|(_, (_, s))| s.free_slots() > 0)
                .min_by_key(|(id, (p, _))| (*p != pool, **id))
                .map(|(_, (_, s))| s.take().unwrap());
            let loc = slot.map_or(PageLoc::LocalBackup, PageLoc::Remote);
            self.pages.insert(seq, loc);
            out.push((seq, slot));
        }
        Ok(out)
    }

    fn ungrant(&mut self, b: BufferId) -> Result<(), ManagerError> {
        if !self.granted.contains_key(&b) {
            return Err(ManagerError::UnknownBuffer(b));
        }
        if !self.pages_in(&[b]).is_empty() {
            return Err(ManagerError::BufferBusy(b));
        }
        self.granted.remove(&b);
        Ok(())
    }
}

/// A revocation as `(seq, new slot or fallback)` in report order:
/// relocated pages first, then fallen-back ones.
fn flatten(r: &Revocation) -> Vec<(u64, Option<RemoteSlot>)> {
    r.relocated
        .iter()
        .map(|(h, s)| (h.get(), Some(*s)))
        .chain(r.fell_back.iter().map(|h| (h.get(), None)))
        .collect()
}

/// The reference's revocation list in the same report order.
fn split(list: Vec<(u64, Option<RemoteSlot>)>) -> Vec<(u64, Option<RemoteSlot>)> {
    let (mut relocated, fell_back): (Vec<_>, Vec<_>) =
        list.into_iter().partition(|(_, s)| s.is_some());
    relocated.extend(fell_back);
    relocated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn page_table_answers_like_the_map_reference(ops in ops()) {
        let recs = records();
        let mut m = RemoteMemManager::new(ServerId::new(0));
        let mut r = MapManager::default();
        // Every handle ever issued, live or stale, indexed by seq.
        let mut issued: Vec<PageHandle> = Vec::new();
        for op in &ops {
            let pick = |p: u16| issued.get(p as usize % issued.len().max(1)).copied();
            match *op {
                Op::Grant { record, swap } => {
                    let rec = recs[record as usize];
                    // Re-granting a granted buffer would reset its slots
                    // under live pages; the rack never does that.
                    if let Entry::Vacant(e) = r.granted.entry(rec.id) {
                        e.insert((pool(swap), SlotMap::new(rec.id)));
                        m.grant(rec, pool(swap));
                    }
                }
                Op::Place { swap } => {
                    let got = m.place_page(pool(swap));
                    let want = r.place(pool(swap));
                    prop_assert_eq!(got.map(|(h, s)| (h.get(), s)), want, "{:?}", op);
                    if let Ok((h, _)) = got {
                        prop_assert_eq!(h.get(), issued.len() as u64);
                        issued.push(h);
                    }
                }
                Op::Free { pick: p } => {
                    if let Some(h) = pick(p) {
                        prop_assert_eq!(m.free_page(h), r.free(h), "{:?}", op);
                    }
                }
                Op::Locate { pick: p } => {
                    if let Some(h) = pick(p) {
                        prop_assert_eq!(m.locate(h), r.locate(h), "{:?}", op);
                    }
                }
                Op::Rewrite { pick: p } => {
                    if let Some(h) = pick(p) {
                        r.backup_written += 1;
                        prop_assert_eq!(m.note_rewrite(h), r.locate(h), "{:?}", op);
                    }
                }
                Op::Downgrade { pick: p } => {
                    if let Some(h) = pick(p) {
                        prop_assert_eq!(m.downgrade_to_backup(h), r.downgrade(h), "{:?}", op);
                    }
                }
                Op::Lose { record } => {
                    let b = recs[record as usize].id;
                    let got = m.lose_buffer(b).map(|l| l.iter().map(|h| h.get()).collect());
                    prop_assert_eq!(got, r.lose(b), "{:?}", op);
                }
                Op::Revoke { first, second } => {
                    let mut buffers = vec![recs[first as usize].id];
                    if let Some(s) = second.filter(|&s| s != first) {
                        buffers.push(recs[s as usize].id);
                    }
                    let got = m.revoke_many(&buffers).map(|rev| flatten(&rev));
                    prop_assert_eq!(got, r.revoke(&buffers).map(split), "{:?}", op);
                }
                Op::Ungrant { record } => {
                    let b = recs[record as usize].id;
                    prop_assert_eq!(m.ungrant(b), r.ungrant(b), "{:?}", op);
                }
            }
            // The whole state agrees after every step: each handle ever
            // issued (stale ones too), the counters and the pools.
            for &h in &issued {
                prop_assert_eq!(m.locate(h), r.locate(h), "{:?} after {:?}", h, op);
            }
            prop_assert_eq!(m.live_pages(), r.pages.len() as u64);
            prop_assert_eq!(m.backup_pages_written(), r.backup_written);
            for p in [PoolKind::Ext, PoolKind::Swap] {
                let free: u64 = r
                    .granted
                    .values()
                    .filter(|(q, _)| *q == p)
                    .map(|(_, s)| s.free_slots())
                    .sum();
                prop_assert_eq!(m.free_slots(p).count(), free);
            }
            prop_assert_eq!(m.validate(), Ok(()), "{:?}", op);
        }
    }
}
