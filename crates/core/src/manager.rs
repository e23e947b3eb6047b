//! The remote memory manager (remote-mem-mgr) agent bookkeeping.
//!
//! Every server runs one of these (§4.1). On the *user* side it tracks the
//! buffers the controller granted, hands out page-sized slots inside them,
//! and — crucially for the paper's fault-tolerance story — remembers that
//! "each write to a remote buffer (backing either a RAM Extension or an
//! Explicit SD) is asynchronously mirrored to the local storage". That
//! backup is what makes revocation (`US_reclaim`) survivable: revoked
//! pages are re-placed from the local copy, or served from it when no
//! remote capacity remains.

use core::fmt;
use core::num::NonZeroU32;
use std::collections::{BTreeMap, BTreeSet};

use zombieland_mem::buffer::{BufferId, RemoteSlot, SlotMap};
use zombieland_simcore::{Bytes, Pages};

use crate::db::BufferRecord;
use crate::server::ServerId;

/// A stable handle to one remotely placed page. The hypervisor stores
/// handles in its page tables; the manager tracks where each handle's
/// bytes physically are (they can move under revocation).
///
/// `seq` is the handle's identity: a sequence number never reused, which
/// orders handles by placement and names them in `Debug` (`page:N`).
/// `idx` locates the handle's entry in the manager's page table; entries
/// are reused after a free, and a lookup whose entry now carries another
/// `seq` fails as a stale handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageHandle {
    /// First field: the derived `Ord` compares it first, so revocation
    /// and loss handle pages in placement order.
    seq: u64,
    /// Table index plus one: the niche keeps `Option<PageHandle>` at
    /// 16 bytes in the hypervisor's per-frame handle table.
    idx: NonZeroU32,
}

impl PageHandle {
    /// The raw value: the never-reused sequence number.
    pub const fn get(self) -> u64 {
        self.seq
    }

    fn new(seq: u64, index: usize) -> Self {
        let idx = u32::try_from(index + 1).expect("page table fits u32 indices");
        PageHandle {
            seq,
            idx: NonZeroU32::new(idx).expect("index + 1 > 0"),
        }
    }

    fn index(self) -> usize {
        self.idx.get() as usize - 1
    }
}

impl fmt::Debug for PageHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{}", self.seq)
    }
}

/// Which allocation pool a buffer belongs to: RAM Extension (guaranteed)
/// or Explicit Swap Device (best-effort).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PoolKind {
    /// `GS_alloc_ext` memory.
    Ext,
    /// `GS_alloc_swap` memory.
    Swap,
}

/// Where a page currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageLoc {
    /// In a remote buffer slot.
    Remote(RemoteSlot),
    /// Only in the local backup (its remote buffer was revoked and no
    /// remote capacity was left — the paper's "slower path").
    LocalBackup,
}

/// What happened to each page of a revoked buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Revocation {
    /// Pages re-placed into other remote slots: `(handle, new_slot)`.
    /// The caller must copy the bytes (local backup → new remote slot).
    pub relocated: Vec<(PageHandle, RemoteSlot)>,
    /// Pages now served from the local backup only.
    pub fell_back: Vec<PageHandle>,
}

/// Errors from manager bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManagerError {
    /// No free slot in any granted buffer of the pool.
    NoRemoteCapacity(PoolKind),
    /// Unknown handle.
    UnknownHandle(PageHandle),
    /// Unknown / already revoked buffer.
    UnknownBuffer(BufferId),
    /// The buffer still holds live pages and cannot be released.
    BufferBusy(BufferId),
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::NoRemoteCapacity(p) => write!(f, "no free {p:?} slots"),
            ManagerError::UnknownHandle(h) => write!(f, "{h:?} unknown"),
            ManagerError::UnknownBuffer(b) => write!(f, "{b:?} not granted"),
            ManagerError::BufferBusy(b) => write!(f, "{b:?} still holds pages"),
        }
    }
}

impl std::error::Error for ManagerError {}

struct Granted {
    record: BufferRecord,
    pool: PoolKind,
    slots: SlotMap,
}

/// `Entry::seq` of a vacant page-table entry; no handle ever gets it.
const VACANT: u64 = u64::MAX;

/// One page-table entry: the live handle's `seq` and its location.
#[derive(Clone, Copy)]
struct Entry {
    seq: u64,
    loc: PageLoc,
}

/// The per-server agent state.
pub struct RemoteMemManager {
    server: ServerId,
    granted: BTreeMap<BufferId, Granted>,
    /// The page table, indexed by [`PageHandle`]'s `idx`. The fault path
    /// hits it several times per fault (locate, victim lookup, rewrite),
    /// each one bounds-checked read plus a `seq` compare.
    table: Vec<Entry>,
    /// Vacant table indices, reused last-in first-out.
    free: Vec<u32>,
    next_seq: u64,
    backup_pages_written: u64,
    /// The asynchronous local-storage mirror's *contents*, kept only for
    /// pages placed through the data-carrying path (timing-only paths
    /// just count `backup_pages_written`).
    backup_store: BTreeMap<PageHandle, Box<[u8]>>,
}

impl RemoteMemManager {
    /// Creates the agent for `server`.
    pub fn new(server: ServerId) -> Self {
        RemoteMemManager {
            server,
            granted: BTreeMap::new(),
            table: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            backup_pages_written: 0,
            backup_store: BTreeMap::new(),
        }
    }

    /// The server this agent runs on.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Registers a buffer the controller granted.
    pub fn grant(&mut self, record: BufferRecord, pool: PoolKind) {
        self.granted.insert(
            record.id,
            Granted {
                record,
                pool,
                slots: SlotMap::new(record.id),
            },
        );
    }

    /// The granted buffers of a pool.
    pub fn granted_buffers(&self, pool: PoolKind) -> Vec<BufferRecord> {
        self.granted
            .values()
            .filter(|g| g.pool == pool)
            .map(|g| g.record)
            .collect()
    }

    /// The record behind a granted buffer.
    pub fn buffer_record(&self, id: BufferId) -> Result<BufferRecord, ManagerError> {
        self.granted
            .get(&id)
            .map(|g| g.record)
            .ok_or(ManagerError::UnknownBuffer(id))
    }

    /// Free remote page slots available in a pool.
    pub fn free_slots(&self, pool: PoolKind) -> Pages {
        Pages::new(
            self.granted
                .values()
                .filter(|g| g.pool == pool)
                .map(|g| g.slots.free_slots())
                .sum(),
        )
    }

    /// Remote capacity of a pool (free + used).
    pub fn pool_capacity(&self, pool: PoolKind) -> Bytes {
        self.granted
            .values()
            .filter(|g| g.pool == pool)
            .map(|g| g.record.size)
            .sum()
    }

    /// Places a new page: takes a slot from the pool's granted buffers
    /// (filling buffers in id order) and returns its handle and slot.
    /// The caller performs the RDMA write; the manager counts the
    /// asynchronous backup mirror.
    pub fn place_page(&mut self, pool: PoolKind) -> Result<(PageHandle, RemoteSlot), ManagerError> {
        let g = self
            .granted
            .values_mut()
            .find(|g| g.pool == pool && g.slots.free_slots() > 0)
            .ok_or(ManagerError::NoRemoteCapacity(pool))?;
        let slot = g.slots.take().expect("free_slots > 0");
        let entry = Entry {
            seq: self.next_seq,
            loc: PageLoc::Remote(slot),
        };
        self.next_seq += 1;
        let index = match self.free.pop() {
            Some(i) => {
                self.table[i as usize] = entry;
                i as usize
            }
            None => {
                self.table.push(entry);
                self.table.len() - 1
            }
        };
        self.backup_pages_written += 1; // Async local mirror.
        Ok((PageHandle::new(entry.seq, index), slot))
    }

    /// The table entry of a live handle.
    fn entry(&self, handle: PageHandle) -> Result<&Entry, ManagerError> {
        match self.table.get(handle.index()) {
            Some(e) if e.seq == handle.seq => Ok(e),
            _ => Err(ManagerError::UnknownHandle(handle)),
        }
    }

    fn entry_mut(&mut self, handle: PageHandle) -> Result<&mut Entry, ManagerError> {
        match self.table.get_mut(handle.index()) {
            Some(e) if e.seq == handle.seq => Ok(e),
            _ => Err(ManagerError::UnknownHandle(handle)),
        }
    }

    /// Where a page's bytes currently are.
    pub fn locate(&self, handle: PageHandle) -> Result<PageLoc, ManagerError> {
        self.entry(handle).map(|e| e.loc)
    }

    /// Rewrites an existing page in place (the hypervisor re-demoting a
    /// dirty page to the same slot). Counts the backup mirror.
    pub fn note_rewrite(&mut self, handle: PageHandle) -> Result<PageLoc, ManagerError> {
        self.backup_pages_written += 1;
        self.locate(handle)
    }

    /// Records the mirror *contents* for a data-carrying page (the async
    /// local-storage write the paper describes, with the bytes retained).
    pub fn store_backup(&mut self, handle: PageHandle, data: &[u8]) -> Result<(), ManagerError> {
        self.entry(handle)?;
        self.backup_store.insert(handle, data.into());
        Ok(())
    }

    /// The mirrored bytes of a page, if it went through the data path.
    pub fn backup_bytes(&self, handle: PageHandle) -> Option<&[u8]> {
        self.backup_store.get(&handle).map(|b| b.as_ref())
    }

    /// Downgrades a page to its local backup copy (its remote host died
    /// without a reclaim handshake). The slot bookkeeping of the dead
    /// buffer is dropped silently — the buffer itself is gone.
    pub fn downgrade_to_backup(&mut self, handle: PageHandle) -> Result<(), ManagerError> {
        let e = self.entry_mut(handle)?;
        if let PageLoc::Remote(slot) = e.loc {
            e.loc = PageLoc::LocalBackup;
            if let Some(g) = self.granted.get_mut(&slot.buffer) {
                g.slots.release(slot);
            }
        }
        Ok(())
    }

    /// The live pages whose slot lies in one of `buffers`, in handle
    /// order. A scan of the whole table: only revocations and crashes
    /// ask, never the fault path.
    fn pages_in(&self, buffers: &[BufferId]) -> BTreeSet<PageHandle> {
        self.table
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.loc {
                PageLoc::Remote(slot) if e.seq != VACANT && buffers.contains(&slot.buffer) => {
                    Some(PageHandle::new(e.seq, i))
                }
                _ => None,
            })
            .collect()
    }

    /// Drops a granted buffer whose host vanished: every page in it
    /// downgrades to its local backup (no relocation — there was no
    /// reclaim handshake to copy anything). Returns the affected pages
    /// in placement order.
    pub fn lose_buffer(&mut self, buffer: BufferId) -> Result<Vec<PageHandle>, ManagerError> {
        self.granted
            .remove(&buffer)
            .ok_or(ManagerError::UnknownBuffer(buffer))?;
        let lost: Vec<PageHandle> = self.pages_in(&[buffer]).into_iter().collect();
        for h in &lost {
            self.table[h.index()].loc = PageLoc::LocalBackup;
        }
        Ok(lost)
    }

    /// Frees a page (e.g. after promoting it back to local RAM).
    pub fn free_page(&mut self, handle: PageHandle) -> Result<(), ManagerError> {
        let e = self.entry_mut(handle)?;
        let loc = e.loc;
        e.seq = VACANT;
        self.free.push(handle.index() as u32);
        self.backup_store.remove(&handle);
        if let PageLoc::Remote(slot) = loc {
            if let Some(g) = self.granted.get_mut(&slot.buffer) {
                g.slots.release(slot);
            }
        }
        Ok(())
    }

    /// Voluntarily returns an *empty* granted buffer (before the user
    /// releases it to the controller).
    pub fn ungrant(&mut self, buffer: BufferId) -> Result<(), ManagerError> {
        let g = self
            .granted
            .get(&buffer)
            .ok_or(ManagerError::UnknownBuffer(buffer))?;
        if !g.slots.is_empty() {
            return Err(ManagerError::BufferBusy(buffer));
        }
        self.granted.remove(&buffer);
        Ok(())
    }

    /// Handles a `US_reclaim` revocation of one buffer: every page in it
    /// is re-placed into another granted slot if possible (the caller then
    /// copies backup → new slot), otherwise falls back to the local
    /// backup. The buffer leaves the granted set.
    pub fn revoke(&mut self, buffer: BufferId) -> Result<Revocation, ManagerError> {
        self.revoke_many(&[buffer])
    }

    /// Handles a `US_reclaim(buff_IDs)` revoking several buffers at once.
    /// All victims leave the granted set *before* any page is re-placed,
    /// so pages never relocate into a sibling that is itself being
    /// revoked. Pages re-place in placement order.
    pub fn revoke_many(&mut self, buffers: &[BufferId]) -> Result<Revocation, ManagerError> {
        for b in buffers {
            if !self.granted.contains_key(b) {
                return Err(ManagerError::UnknownBuffer(*b));
            }
        }
        let pool = buffers
            .first()
            .map_or(PoolKind::Ext, |b| self.granted[b].pool);
        for b in buffers {
            self.granted.remove(b).expect("validated above");
        }
        let displaced = self.pages_in(buffers);
        let mut outcome = Revocation::default();
        self.replace_pages(displaced, pool, &mut outcome);
        Ok(outcome)
    }

    fn replace_pages(
        &mut self,
        displaced: BTreeSet<PageHandle>,
        pool: PoolKind,
        outcome: &mut Revocation,
    ) {
        for handle in displaced {
            // Try any remaining buffer, preferring the same pool (lowest
            // buffer id first for determinism).
            let new_slot = self
                .granted
                .iter_mut()
                .filter(|(_, g)| g.slots.free_slots() > 0)
                .min_by_key(|(id, g)| (g.pool != pool, **id))
                .map(|(_, g)| g.slots.take().expect("free_slots > 0"));
            let loc = &mut self.table[handle.index()].loc;
            match new_slot {
                Some(slot) => {
                    *loc = PageLoc::Remote(slot);
                    outcome.relocated.push((handle, slot));
                }
                None => {
                    *loc = PageLoc::LocalBackup;
                    outcome.fell_back.push(handle);
                }
            }
        }
    }

    /// Pages mirrored to local storage so far (fault-tolerance traffic).
    pub fn backup_pages_written(&self) -> u64 {
        self.backup_pages_written
    }

    /// Number of live page handles.
    pub fn live_pages(&self) -> u64 {
        (self.table.len() - self.free.len()) as u64
    }

    /// Checks the page table against the buffers' slot maps: every
    /// granted buffer's used-slot count equals the live entries pointing
    /// into it, no two live entries share a slot, no live entry points
    /// outside the granted buffers, and [`Self::live_pages`] counts
    /// exactly the live entries.
    pub fn validate(&self) -> Result<(), String> {
        let mut used: BTreeMap<BufferId, u64> = BTreeMap::new();
        let mut slots = BTreeSet::new();
        let mut live = 0u64;
        for (i, e) in self.table.iter().enumerate() {
            if e.seq == VACANT {
                continue;
            }
            live += 1;
            if let PageLoc::Remote(slot) = e.loc {
                if !self.granted.contains_key(&slot.buffer) {
                    return Err(format!("entry {i} points into ungranted {:?}", slot.buffer));
                }
                if !slots.insert((slot.buffer, slot.slot)) {
                    return Err(format!("entry {i} shares {slot:?} with another page"));
                }
                *used.entry(slot.buffer).or_default() += 1;
            }
        }
        for (id, g) in &self.granted {
            let pages = used.get(id).copied().unwrap_or(0);
            if g.slots.used_slots() != pages {
                return Err(format!(
                    "{id:?}: {} slots used, {pages} live pages",
                    g.slots.used_slots()
                ));
            }
        }
        if live != self.live_pages() {
            return Err(format!(
                "{live} live entries, live_pages says {}",
                self.live_pages()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::CtrlDb;
    use zombieland_rdma::Fabric;

    fn granted_records(n: usize) -> Vec<BufferRecord> {
        // Build real records through the DB so ids/MRs are plausible.
        let mut f = Fabric::new();
        let node = f.attach();
        let mrs: Vec<_> = (0..n)
            .map(|_| f.register(node, Bytes::mib(64)).unwrap())
            .collect();
        let mut db = CtrlDb::new();
        db.register_host(ServerId::new(1));
        db.register_host(ServerId::new(0));
        db.lend(ServerId::new(1), &mrs, true).unwrap();
        db.allocate(ServerId::new(0), n as u64, true).unwrap()
    }

    #[test]
    fn place_locate_free_cycle() {
        let mut m = RemoteMemManager::new(ServerId::new(0));
        let recs = granted_records(1);
        m.grant(recs[0], PoolKind::Ext);
        let (h, slot) = m.place_page(PoolKind::Ext).unwrap();
        assert_eq!(m.locate(h), Ok(PageLoc::Remote(slot)));
        assert_eq!(m.live_pages(), 1);
        assert_eq!(m.backup_pages_written(), 1);
        m.free_page(h).unwrap();
        assert_eq!(m.live_pages(), 0);
        assert_eq!(m.locate(h), Err(ManagerError::UnknownHandle(h)));
    }

    #[test]
    fn pools_are_separate() {
        let mut m = RemoteMemManager::new(ServerId::new(0));
        let recs = granted_records(2);
        m.grant(recs[0], PoolKind::Ext);
        m.grant(recs[1], PoolKind::Swap);
        assert_eq!(m.pool_capacity(PoolKind::Ext), Bytes::mib(64));
        let (_, slot) = m.place_page(PoolKind::Swap).unwrap();
        assert_eq!(slot.buffer, recs[1].id);
        // Exhausting one pool does not touch the other.
        while m.place_page(PoolKind::Swap).is_ok() {}
        assert_eq!(
            m.place_page(PoolKind::Swap),
            Err(ManagerError::NoRemoteCapacity(PoolKind::Swap))
        );
        assert!(m.place_page(PoolKind::Ext).is_ok());
    }

    #[test]
    fn revocation_relocates_into_spare_capacity() {
        let mut m = RemoteMemManager::new(ServerId::new(0));
        let mut recs = granted_records(2);
        recs.sort_by_key(|r| r.id);
        m.grant(recs[0], PoolKind::Ext);
        m.grant(recs[1], PoolKind::Ext);
        // Put 3 pages into the first buffer.
        let mut handles = Vec::new();
        for _ in 0..3 {
            let (h, slot) = m.place_page(PoolKind::Ext).unwrap();
            assert_eq!(slot.buffer, recs[0].id, "fills buffers in id order");
            handles.push(h);
        }
        let out = m.revoke(recs[0].id).unwrap();
        assert_eq!(out.relocated.len(), 3);
        assert!(out.fell_back.is_empty());
        for (h, slot) in &out.relocated {
            assert_eq!(slot.buffer, recs[1].id);
            assert_eq!(m.locate(*h), Ok(PageLoc::Remote(*slot)));
        }
        // The revoked buffer is gone.
        assert_eq!(
            m.revoke(recs[0].id),
            Err(ManagerError::UnknownBuffer(recs[0].id))
        )
    }

    #[test]
    fn revocation_falls_back_to_local_backup() {
        let mut m = RemoteMemManager::new(ServerId::new(0));
        let recs = granted_records(1);
        m.grant(recs[0], PoolKind::Ext);
        let (h, _) = m.place_page(PoolKind::Ext).unwrap();
        let out = m.revoke(recs[0].id).unwrap();
        assert!(out.relocated.is_empty());
        assert_eq!(out.fell_back, vec![h]);
        assert_eq!(m.locate(h), Ok(PageLoc::LocalBackup));
        // Capacity is gone.
        assert_eq!(
            m.place_page(PoolKind::Ext),
            Err(ManagerError::NoRemoteCapacity(PoolKind::Ext))
        );
        // Freeing a fallback page is fine.
        m.free_page(h).unwrap();
    }

    #[test]
    fn stale_handle_is_unknown_after_its_index_is_reused() {
        let mut m = RemoteMemManager::new(ServerId::new(0));
        let recs = granted_records(1);
        m.grant(recs[0], PoolKind::Ext);
        let (old, _) = m.place_page(PoolKind::Ext).unwrap();
        m.free_page(old).unwrap();
        let (new, slot) = m.place_page(PoolKind::Ext).unwrap();
        assert_eq!(new.index(), old.index(), "the table index is reused");
        assert!(new > old, "handles order by placement");
        assert_eq!(format!("{old:?} {new:?}"), "page:0 page:1");
        for stale in [
            m.locate(old).err(),
            m.note_rewrite(old).err(),
            m.downgrade_to_backup(old).err(),
            m.free_page(old).err(),
        ] {
            assert_eq!(stale, Some(ManagerError::UnknownHandle(old)));
        }
        assert_eq!(m.locate(new), Ok(PageLoc::Remote(slot)));
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn optional_handle_fits_in_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<PageHandle>>(), 16);
    }

    #[test]
    fn rewrite_counts_backup_traffic() {
        let mut m = RemoteMemManager::new(ServerId::new(0));
        let recs = granted_records(1);
        m.grant(recs[0], PoolKind::Ext);
        let (h, _) = m.place_page(PoolKind::Ext).unwrap();
        m.note_rewrite(h).unwrap();
        m.note_rewrite(h).unwrap();
        assert_eq!(m.backup_pages_written(), 3);
    }
}
