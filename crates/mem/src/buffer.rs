//! Remote memory buffers: the rack-wide lending unit.
//!
//! §4.3 of the paper: "Remote-mem-mgr computes free memory and organizes it
//! in buffers. Their size (noted BUFF_SIZE) is uniform across the entire
//! rack." A buffer is the granularity at which zombie (or active) servers
//! lend memory to the global controller and at which reclaim happens.

use core::fmt;

use zombieland_simcore::{Bytes, Pages, PAGE_SIZE};

/// The rack-uniform buffer size. 64 MiB balances allocation-table size
/// against reclaim granularity (one buffer = 16 384 pages).
pub const BUFF_SIZE: Bytes = Bytes::mib(64);

/// Number of page slots in one buffer.
pub const SLOTS_PER_BUFFER: u64 = BUFF_SIZE.get() / PAGE_SIZE;

/// Rack-unique identifier of a lent buffer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(u64);

impl BufferId {
    /// Builds from a raw id.
    pub const fn new(id: u64) -> Self {
        BufferId(id)
    }

    /// The raw id.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf:{}", self.0)
    }
}

/// A page-sized slot inside a remote buffer: where a demoted guest page
/// lives when it is not in local RAM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RemoteSlot {
    /// The buffer holding the page.
    pub buffer: BufferId,
    /// Page index within the buffer (`0..SLOTS_PER_BUFFER`).
    pub slot: u32,
}

impl RemoteSlot {
    /// Byte offset of this slot within its buffer.
    pub fn offset(&self) -> Bytes {
        Bytes::new(self.slot as u64 * PAGE_SIZE)
    }
}

/// How many whole buffers are needed to cover `size` (rounding up).
pub fn buffers_for(size: Bytes) -> u64 {
    size.get().div_ceil(BUFF_SIZE.get())
}

/// How many whole buffers fit inside `size` (rounding down) — used when
/// lending free memory, which must never oversubscribe.
pub fn buffers_within(size: Bytes) -> u64 {
    size.get() / BUFF_SIZE.get()
}

/// Tracks free page slots within a single allocated buffer.
///
/// The user-server side (hypervisor paging, Explicit SD backend) uses this
/// to place individual 4 KiB pages into the buffers the controller granted.
///
/// Slots are handed out lazily: `fresh` is the high-water mark of slots
/// ever taken, and released slots are reused last-in first-out before the
/// mark advances. That is the same sequence an eager stack of
/// `(0..SLOTS_PER_BUFFER).rev()` would yield, without materialising it, so
/// a new map costs O(1) whatever the buffer size.
#[derive(Debug, Clone)]
pub struct SlotMap {
    buffer: BufferId,
    /// Slots `fresh..SLOTS_PER_BUFFER` have never been taken.
    fresh: u32,
    /// Released slots, most recent last.
    released: Vec<u32>,
    used: u64,
}

impl SlotMap {
    /// Creates a fully free slot map for `buffer`.
    pub fn new(buffer: BufferId) -> Self {
        SlotMap {
            buffer,
            fresh: 0,
            released: Vec::new(),
            used: 0,
        }
    }

    /// The buffer this map covers.
    pub fn buffer(&self) -> BufferId {
        self.buffer
    }

    /// Takes a free slot, or `None` when the buffer is full.
    pub fn take(&mut self) -> Option<RemoteSlot> {
        let slot = match self.released.pop() {
            Some(slot) => slot,
            None if (self.fresh as u64) < SLOTS_PER_BUFFER => {
                self.fresh += 1;
                self.fresh - 1
            }
            None => return None,
        };
        self.used += 1;
        Some(RemoteSlot {
            buffer: self.buffer,
            slot,
        })
    }

    /// Releases a previously taken slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot belongs to a different buffer (a logic error in
    /// the caller's bookkeeping).
    pub fn release(&mut self, slot: RemoteSlot) {
        assert_eq!(slot.buffer, self.buffer, "slot returned to wrong buffer");
        self.used -= 1;
        self.released.push(slot.slot);
    }

    /// Number of occupied slots.
    pub fn used_slots(&self) -> u64 {
        self.used
    }

    /// Number of free slots.
    pub fn free_slots(&self) -> u64 {
        SLOTS_PER_BUFFER - self.fresh as u64 + self.released.len() as u64
    }

    /// Occupied memory in this buffer.
    pub fn used_bytes(&self) -> Bytes {
        Pages::new(self.used).bytes()
    }

    /// Whether every slot is free.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_math() {
        assert_eq!(SLOTS_PER_BUFFER, 16_384);
        assert_eq!(buffers_for(Bytes::mib(64)), 1);
        assert_eq!(buffers_for(Bytes::mib(65)), 2);
        assert_eq!(buffers_for(Bytes::ZERO), 0);
        assert_eq!(buffers_within(Bytes::mib(130)), 2);
        assert_eq!(buffers_within(Bytes::mib(63)), 0);
    }

    #[test]
    fn slot_offsets() {
        let s = RemoteSlot {
            buffer: BufferId::new(3),
            slot: 5,
        };
        assert_eq!(s.offset(), Bytes::new(5 * 4096));
    }

    #[test]
    fn slotmap_take_release() {
        let mut m = SlotMap::new(BufferId::new(1));
        assert_eq!(m.free_slots(), SLOTS_PER_BUFFER);
        let s = m.take().unwrap();
        assert_eq!(m.used_slots(), 1);
        assert_eq!(m.used_bytes(), Bytes::kib(4));
        m.release(s);
        assert!(m.is_empty());
    }

    #[test]
    fn slotmap_exhausts() {
        let mut m = SlotMap::new(BufferId::new(1));
        for _ in 0..SLOTS_PER_BUFFER {
            assert!(m.take().is_some());
        }
        assert!(m.take().is_none());
        assert_eq!(m.free_slots(), 0);
    }

    #[test]
    #[should_panic(expected = "wrong buffer")]
    fn slotmap_rejects_foreign_slot() {
        let mut m = SlotMap::new(BufferId::new(1));
        m.release(RemoteSlot {
            buffer: BufferId::new(2),
            slot: 0,
        });
    }
}
