//! Property tests for the memory substrate invariants.

use proptest::prelude::*;
use zombieland_mem::{
    buffer::{BufferId, RemoteSlot, SlotMap, SLOTS_PER_BUFFER},
    FrameAllocator, Gfn, GuestPageTable, PageLocation,
};
use zombieland_simcore::{Bytes, Pages};

/// One random page-table action; invalid ones must fail cleanly.
#[derive(Clone, Debug)]
enum Action {
    Map(u64),
    Demote(u64),
    Promote(u64),
    Touch(u64, bool),
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..40).prop_map(Action::Map),
            (0u64..40).prop_map(Action::Demote),
            (0u64..40).prop_map(Action::Promote),
            ((0u64..40), any::<bool>()).prop_map(|(g, w)| Action::Touch(g, w)),
        ],
        1..200,
    )
}

proptest! {
    /// Driving the page table with arbitrary action sequences never breaks
    /// the accounting: counters equal iterator lengths, local+remote never
    /// exceeds the table size, the frame allocator never leaks or double
    /// allocates, and every guest page is in exactly one state.
    #[test]
    fn page_table_accounting_holds(acts in actions()) {
        let size = Pages::new(32);
        let mut gpt = GuestPageTable::new(size);
        // Enough frames for every page plus slack.
        let mut frames = FrameAllocator::new(Bytes::new(64 * 4096));
        let mut slots = SlotMap::new(BufferId::new(0));

        for act in acts {
            match act {
                Action::Map(g) => {
                    let gfn = Gfn::new(g);
                    if gpt.locate(gfn) == Ok(PageLocation::NotAllocated) {
                        let f = frames.alloc().unwrap();
                        gpt.map_local(gfn, f).unwrap();
                    } else {
                        prop_assert!(gpt.map_local(gfn, zombieland_mem::FrameId::new(0)).is_err());
                    }
                }
                Action::Demote(g) => {
                    let gfn = Gfn::new(g);
                    if matches!(gpt.locate(gfn), Ok(PageLocation::Local(_))) {
                        let slot = slots.take().unwrap();
                        let freed = gpt.demote(gfn, slot).unwrap();
                        frames.free(freed).unwrap();
                    }
                }
                Action::Promote(g) => {
                    let gfn = Gfn::new(g);
                    if matches!(gpt.locate(gfn), Ok(PageLocation::Remote(_))) {
                        let f = frames.alloc().unwrap();
                        let slot = gpt.promote(gfn, f).unwrap();
                        slots.release(slot);
                    }
                }
                Action::Touch(g, w) => {
                    let gfn = Gfn::new(g);
                    let ok = gpt.touch(gfn, w);
                    prop_assert_eq!(
                        ok.is_ok(),
                        g < 32 && matches!(gpt.locate(gfn), Ok(PageLocation::Local(_)))
                    );
                }
            }

            // Invariants after every step.
            let local = gpt.iter_local().count() as u64;
            let remote = gpt.iter_remote().count() as u64;
            prop_assert_eq!(local, gpt.local_pages().count());
            prop_assert_eq!(remote, gpt.remote_pages().count());
            prop_assert!(local + remote <= size.count());
            // Frames used by the table equal frames taken from the allocator.
            prop_assert_eq!(local, frames.used_frames().count());
            // Remote pages equal occupied slots.
            prop_assert_eq!(remote, slots.used_slots());
            // No machine frame is mapped by two guest pages.
            let mut seen = std::collections::HashSet::new();
            for (_, f) in gpt.iter_local() {
                prop_assert!(seen.insert(f), "frame {:?} double-mapped", f);
            }
        }
    }

    /// The lazy slot map hands out exactly the slots an eager free stack
    /// of `(0..SLOTS_PER_BUFFER).rev()` would, and is full exactly when
    /// every slot is taken. Half the cases start a few slots short of
    /// full, so exhaustion and reuse after it are exercised too.
    #[test]
    fn slot_map_matches_an_eager_free_stack(
        start in (any::<bool>(), 0u64..64, 0u64..SLOTS_PER_BUFFER),
        ops in prop::collection::vec((any::<bool>(), any::<u16>()), 1..300),
    ) {
        let (near_full, short, anywhere) = start;
        let prefill = if near_full { SLOTS_PER_BUFFER - short } else { anywhere };
        let buffer = BufferId::new(7);
        let mut lazy = SlotMap::new(buffer);
        let mut eager: Vec<u32> = (0..SLOTS_PER_BUFFER as u32).rev().collect();
        let mut held: Vec<RemoteSlot> = Vec::new();
        let steps = (0..prefill).map(|_| (true, 0)).chain(ops);
        for (take, pick) in steps {
            if take {
                let got = lazy.take();
                let want = eager.pop().map(|slot| RemoteSlot { buffer, slot });
                prop_assert_eq!(got, want);
                prop_assert_eq!(got.is_none(), held.len() as u64 == SLOTS_PER_BUFFER);
                held.extend(got);
            } else if !held.is_empty() {
                let slot = held.swap_remove(pick as usize % held.len());
                lazy.release(slot);
                eager.push(slot.slot);
            }
            prop_assert_eq!(lazy.free_slots(), eager.len() as u64);
            prop_assert_eq!(lazy.used_slots(), held.len() as u64);
            prop_assert_eq!(lazy.free_slots() + lazy.used_slots(), SLOTS_PER_BUFFER);
        }
    }

    /// The frame allocator conserves frames under arbitrary interleavings.
    #[test]
    fn allocator_conserves_frames(ops in prop::collection::vec(any::<bool>(), 1..300)) {
        let mut a = FrameAllocator::new(Bytes::new(16 * 4096));
        let mut held = Vec::new();
        for alloc in ops {
            if alloc {
                if let Ok(f) = a.alloc() {
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                a.free(f).unwrap();
            }
            prop_assert_eq!(
                a.used_frames().count() + a.free_frames().count(),
                a.total_frames().count()
            );
            prop_assert_eq!(a.used_frames().count(), held.len() as u64);
        }
    }
}
