//! The blocked stacking order: the active hosts sorted by
//! `(booked_key(cpu_booked), index)`, cut into short sorted blocks that
//! each carry a best-case summary of their hosts.
//!
//! Admission and migration are first-fit walks along this order
//! (DESIGN §7). A block's summary is the corner no host in it can beat:
//! the booking of its last entry (the order is booked-descending), the
//! least `cpu_used` and the most `free_local`. Every policy is monotone
//! (`policy.rs`): a host no worse on every axis is accepted whenever a
//! worse one is. So a policy that rejects a block's corner rejects every
//! host in it, and [`StackOrder::first_fit`] skips the whole block.
//! Hosts in the blocks that pass are judged one by one, as before.
//!
//! Summaries are never patched incrementally: every edit recomputes the
//! touched block from its hosts' live values (O([`B`])), so a summary is
//! always bit-equal to a fresh recompute — which `Dc::validate` checks.

use crate::policy::HostLoad;

/// Target block size: a block splits into `B` and `B + 1` entries when
/// it grows past `2 * B`. Measured on dc-large, 8 beat 4, 16 and 64.
pub(crate) const B: usize = 8;

/// Monotone `u64` image of `f64` under `total_cmp` order:
/// `total_key(a) < total_key(b)` iff `a.total_cmp(&b) == Less`.
pub(crate) fn total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Key of the stacking order: ascending key order walks hosts
/// most-booked first with ties toward the lower index — the stacking
/// preference order the serial `active_by_booked` list used.
pub(crate) fn booked_key(v: f64) -> u64 {
    !total_key(v)
}

/// The booked load a [`booked_key`] was built from, bit for bit.
fn key_booked(k: u64) -> f64 {
    let t = !k;
    f64::from_bits(if t >> 63 == 1 { t & !(1 << 63) } else { !t })
}

/// One sorted run of entries and its best-case summary.
#[derive(Clone, Debug)]
struct Block {
    entries: Vec<(u64, usize)>,
    /// Least `cpu_used` among the block's hosts.
    min_used: f64,
    /// Most `free_local` among the block's hosts.
    max_free: f64,
}

/// The least `cpu_used` and the most `free_local` of the hosts of
/// `entries`, from their live loads in entry order (the first of equal
/// values wins, so the bits are reproducible).
fn summary(entries: &[(u64, usize)], load: impl Fn(usize) -> HostLoad) -> (f64, f64) {
    let (mut min_used, mut max_free) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, i) in entries {
        let l = load(i);
        if l.cpu_used < min_used {
            min_used = l.cpu_used;
        }
        if l.free_local > max_free {
            max_free = l.free_local;
        }
    }
    (min_used, max_free)
}

impl Block {
    fn new(entries: Vec<(u64, usize)>, load: impl Fn(usize) -> HostLoad) -> Block {
        let (min_used, max_free) = summary(&entries, load);
        Block {
            entries,
            min_used,
            max_free,
        }
    }

    fn summarize(&mut self, load: impl Fn(usize) -> HostLoad) {
        (self.min_used, self.max_free) = summary(&self.entries, load);
    }

    fn last(&self) -> (u64, usize) {
        self.entries[self.entries.len() - 1]
    }

    /// The best case of any host in the block (see the module docs).
    fn corner(&self) -> HostLoad {
        HostLoad {
            cpu_booked: key_booked(self.last().0),
            cpu_used: self.min_used,
            free_local: self.max_free,
        }
    }
}

/// What a [`StackOrder::first_fit`] walk found and what it cost.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FirstFit {
    /// The host of the first entry that passed `fits`.
    pub(crate) host: Option<usize>,
    /// Hosts the walk judged.
    pub(crate) examined: u64,
    /// Blocks the walk skipped on their best-case summary.
    pub(crate) skipped: u64,
}

/// A sorted set of `(booked_key, host)` entries in blocks of at most
/// `2 * B`, none empty. `load` arguments give a host's live
/// [`HostLoad`]; the summaries read its `cpu_used` and `free_local`.
#[derive(Clone, Debug, Default)]
pub(crate) struct StackOrder {
    blocks: Vec<Block>,
}

impl StackOrder {
    pub(crate) fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.entries.len()).sum()
    }

    /// The block holding `e`, or the one it belongs in: the first whose
    /// last entry is `>= e` (`blocks.len()` when `e` sorts after all).
    fn block_for(&self, e: (u64, usize)) -> usize {
        self.blocks.partition_point(|b| b.last() < e)
    }

    /// The block index and position of `e`, if present.
    fn find(&self, e: (u64, usize)) -> Option<(usize, usize)> {
        let b = self.block_for(e);
        let at = self.blocks.get(b)?.entries.binary_search(&e).ok()?;
        Some((b, at))
    }

    pub(crate) fn contains(&self, e: (u64, usize)) -> bool {
        self.find(e).is_some()
    }

    /// Every entry in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.blocks.iter().flat_map(|b| b.entries.iter().copied())
    }

    /// Adds `e`, splitting its block past `2 * B` entries. Returns
    /// `false` (and changes nothing) if `e` is already present.
    pub(crate) fn insert(&mut self, e: (u64, usize), load: impl Fn(usize) -> HostLoad) -> bool {
        let b = self.block_for(e).min(self.blocks.len().saturating_sub(1));
        let Some(block) = self.blocks.get_mut(b) else {
            self.blocks.push(Block::new(vec![e], load));
            return true;
        };
        let Err(at) = block.entries.binary_search(&e) else {
            return false;
        };
        block.entries.insert(at, e);
        if block.entries.len() > 2 * B {
            let tail = block.entries.split_off(B);
            let split = Block::new(tail, &load);
            self.blocks.insert(b + 1, split);
        }
        self.blocks[b].summarize(load);
        true
    }

    /// Removes `e`, dropping its block if it empties. Returns whether
    /// `e` was present.
    pub(crate) fn remove(&mut self, e: (u64, usize), load: impl Fn(usize) -> HostLoad) -> bool {
        let Some((b, at)) = self.find(e) else {
            return false;
        };
        self.blocks[b].entries.remove(at);
        if self.blocks[b].entries.is_empty() {
            self.blocks.remove(b);
        } else {
            self.blocks[b].summarize(load);
        }
        true
    }

    /// Recomputes the summary of `e`'s block after the host's
    /// `cpu_used` or free memory changed (its booking did not: that
    /// moves the entry, through `remove` and `insert`).
    pub(crate) fn refresh(&mut self, e: (u64, usize), load: impl Fn(usize) -> HostLoad) {
        let found = self.find(e);
        debug_assert!(found.is_some(), "refreshing an entry that is not indexed");
        if let Some((b, _)) = found {
            self.blocks[b].summarize(load);
        }
    }

    /// The first entry at or after key `from` that passes `fits`, the
    /// hosts the walk judged, and the blocks it skipped because
    /// `corner_ok` rejected their best case. `corner_ok` must be
    /// monotone (see the module docs): the skip is then exactly a walk
    /// that judged every entry from `from` on.
    pub(crate) fn first_fit(
        &self,
        from: u64,
        mut corner_ok: impl FnMut(&HostLoad) -> bool,
        mut fits: impl FnMut(usize) -> bool,
    ) -> FirstFit {
        let start = (from, 0);
        let first = self.block_for(start);
        let mut hit = FirstFit::default();
        for (n, block) in self.blocks[first..].iter().enumerate() {
            if !corner_ok(&block.corner()) {
                hit.skipped += 1;
                continue;
            }
            let skip = if n == 0 {
                block.entries.partition_point(|&e| e < start)
            } else {
                0
            };
            for &(_, i) in &block.entries[skip..] {
                hit.examined += 1;
                if fits(i) {
                    hit.host = Some(i);
                    return hit;
                }
            }
        }
        hit
    }

    /// Asserts the structure: blocks non-empty and at most `2 * B`
    /// long, entries strictly ascending across blocks, and every summary
    /// bit-equal to a fresh recompute.
    pub(crate) fn check(&self, load: impl Fn(usize) -> HostLoad) {
        let mut prev = None;
        for (b, block) in self.blocks.iter().enumerate() {
            let size = block.entries.len();
            assert!(
                (1..=2 * B).contains(&size),
                "block {b} holds {size} entries"
            );
            for &e in &block.entries {
                assert!(prev < Some(e), "block {b}: {e:?} out of order");
                prev = Some(e);
            }
            let (min_used, max_free) = summary(&block.entries, &load);
            assert_eq!(
                (block.min_used.to_bits(), block.max_free.to_bits()),
                (min_used.to_bits(), max_free.to_bits()),
                "block {b}: summary drifted from its hosts"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use zombieland_simcore::DetRng;

    #[test]
    fn key_booked_inverts_booked_key() {
        let mut rng = DetRng::new(0xb00c);
        let mut values = vec![0.0, -0.0, 1.3, -2.5, f64::INFINITY, f64::MIN_POSITIVE];
        values.extend((0..1000).map(|_| rng.range_f64(-3.0, 3.0)));
        for v in values {
            assert_eq!(key_booked(booked_key(v)).to_bits(), v.to_bits(), "{v}");
        }
    }

    /// A fleet of `n` hosts with random loads; keys follow the booking.
    struct Model {
        booked: Vec<f64>,
        used: Vec<f64>,
        free: Vec<f64>,
        set: BTreeSet<(u64, usize)>,
    }

    impl Model {
        fn load(&self, i: usize) -> HostLoad {
            HostLoad {
                cpu_booked: self.booked[i],
                cpu_used: self.used[i],
                free_local: self.free[i],
            }
        }

        fn key(&self, i: usize) -> (u64, usize) {
            (booked_key(self.booked[i]), i)
        }
    }

    /// A booking from a small grid, so ties (and hence index order
    /// within one key) are common, with `-0.0` among them.
    fn booking(rng: &mut DetRng) -> f64 {
        [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0][rng.below(6) as usize] + rng.below(3) as f64 * 0.125
    }

    fn assert_matches(order: &StackOrder, m: &Model) {
        order.check(|i| m.load(i));
        assert_eq!(order.len(), m.set.len());
        assert!(order.iter().eq(m.set.iter().copied()));
        for i in 0..m.booked.len() {
            assert_eq!(order.contains(m.key(i)), m.set.contains(&m.key(i)));
        }
    }

    /// Random inserts, removes, re-bookings and load refreshes against a
    /// `BTreeSet` model; the fleet is large enough to split blocks and
    /// removals drain it often enough to empty them.
    #[test]
    fn matches_a_btreeset_model() {
        let mut rng = DetRng::new(0x57ac);
        let (mut splits, mut drops) = (0, 0);
        for round in 0..40 {
            let n = 1 + rng.below(120) as usize;
            let mut m = Model {
                booked: (0..n).map(|_| booking(&mut rng)).collect(),
                used: (0..n).map(|_| rng.range_f64(0.0, 1.0)).collect(),
                free: (0..n).map(|_| rng.range_f64(0.0, 1.0)).collect(),
                set: BTreeSet::new(),
            };
            let mut order = StackOrder::default();
            // Even rounds grow the fleet (splits), odd rounds shrink it
            // (emptied blocks).
            let inserts = if round % 2 == 0 { 3 } else { 1 };
            for _ in 0..600 {
                let i = rng.below(n as u64) as usize;
                let blocks = order.blocks.len();
                let op = rng.below(6);
                if op < inserts {
                    assert_eq!(
                        order.insert(m.key(i), |j| m.load(j)),
                        m.set.insert(m.key(i))
                    );
                } else if op < 4 {
                    assert_eq!(
                        order.remove(m.key(i), |j| m.load(j)),
                        m.set.remove(&m.key(i))
                    );
                } else if op == 4 && m.set.remove(&m.key(i)) {
                    // A booking change moves the entry.
                    assert!(order.remove(m.key(i), |j| m.load(j)));
                    m.booked[i] = booking(&mut rng);
                    assert!(order.insert(m.key(i), |j| m.load(j)));
                    m.set.insert(m.key(i));
                } else {
                    m.used[i] = rng.range_f64(0.0, 1.0);
                    m.free[i] = [0.0, -0.0, rng.range_f64(0.0, 1.0)][rng.below(3) as usize];
                    if m.set.contains(&m.key(i)) {
                        order.refresh(m.key(i), |j| m.load(j));
                    }
                }
                splits += usize::from(order.blocks.len() > blocks);
                drops += usize::from(order.blocks.len() < blocks);
                assert_matches(&order, &m);
            }
            // Drain the rest, emptying every block.
            for i in 0..n {
                if m.set.remove(&m.key(i)) {
                    assert!(order.remove(m.key(i), |j| m.load(j)));
                }
            }
            assert_matches(&order, &m);
            assert!(order.blocks.is_empty());
        }
        assert!(
            splits > 100 && drops > 30,
            "blocks split {splits}, dropped {drops}"
        );
    }

    /// `first_fit` equals a naive filtered range walk over the model,
    /// for random seek keys and thresholds; the corner test is the same
    /// monotone threshold rule the `fits` filter applies per host.
    #[test]
    fn first_fit_equals_a_filtered_range_walk() {
        let mut rng = DetRng::new(0xf1f1);
        let mut skipped = 0;
        for _ in 0..300 {
            let n = 1 + rng.below(200) as usize;
            let mut m = Model {
                booked: (0..n).map(|_| booking(&mut rng)).collect(),
                used: (0..n).map(|_| rng.range_f64(0.0, 1.0)).collect(),
                free: (0..n).map(|_| rng.range_f64(0.0, 1.0)).collect(),
                set: BTreeSet::new(),
            };
            let mut order = StackOrder::default();
            for i in 0..n {
                if rng.chance(0.8) {
                    m.set.insert(m.key(i));
                    order.insert(m.key(i), |j| m.load(j));
                }
            }
            for _ in 0..20 {
                let from = booked_key(booking(&mut rng));
                let (max_booked, max_used, min_free) = (
                    rng.range_f64(0.0, 1.5),
                    rng.range_f64(0.0, 1.0),
                    rng.range_f64(0.0, 1.0),
                );
                let ok = |l: &HostLoad| {
                    l.cpu_booked <= max_booked && l.cpu_used <= max_used && l.free_local >= min_free
                };
                let hit = order.first_fit(from, ok, |i| ok(&m.load(i)));
                let naive = m.set.range((from, 0)..).find(|&&(_, i)| ok(&m.load(i)));
                assert_eq!(hit.host, naive.map(|&(_, i)| i));
                let walked = m.set.range((from, 0)..).count() as u64;
                assert!(hit.examined <= walked);
                skipped += hit.skipped;
            }
        }
        assert!(skipped > 1000, "the corner test skips blocks: {skipped}");
    }
}
