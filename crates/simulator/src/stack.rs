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
//! Each entry carries a copy of its host's [`HostLoad`], filed when the
//! entry is inserted, refreshed or re-keyed, so an edit, a summary and a
//! walk read only the block they touch. An edit keeps its block's
//! summary without a pass over the block: a filed load folds into it,
//! and a departing load forces a recompute only when it equals an
//! extreme (or, ±0, equals it with other bits). So a summary is always
//! bit-equal to a fresh recompute in entry order, and every copy
//! bit-equal to its host's live load once the caller has filed its
//! changes — which `Dc::validate` checks.

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

/// One filed host: its stacking-order key and the [`HostLoad`] it was
/// filed or last refreshed with, so a walk or a summary reads no host
/// table.
#[derive(Clone, Copy, Debug)]
struct Entry {
    key: (u64, usize),
    load: HostLoad,
}

/// One sorted run of entries and its best-case summary.
#[derive(Clone, Debug)]
struct Block {
    entries: Vec<Entry>,
    /// Least `cpu_used` among the block's hosts.
    min_used: f64,
    /// Most `free_local` among the block's hosts.
    max_free: f64,
}

/// The least `cpu_used` and the most `free_local` of `entries`' loads,
/// in entry order (the first of equal values wins, so the bits are
/// reproducible).
fn summary(entries: &[Entry]) -> (f64, f64) {
    let (mut min_used, mut max_free) = (f64::INFINITY, f64::NEG_INFINITY);
    for e in entries {
        if e.load.cpu_used < min_used {
            min_used = e.load.cpu_used;
        }
        if e.load.free_local > max_free {
            max_free = e.load.free_local;
        }
    }
    (min_used, max_free)
}

/// A block's least value `min` (as [`summary`] folds it) after one
/// entry's value `gone` left the block and `filed` joined it, either
/// possibly absent; `None` when only a recompute can tell. A departing
/// value that equals the least may take it along, and an arriving one
/// that equals it with other bits (±0) may be first of the equal values
/// in entry order: both need the recompute. Any other change leaves the
/// least, or is strictly below it and so becomes it.
fn patch_min(min: f64, gone: Option<f64>, filed: Option<f64>) -> Option<f64> {
    match filed {
        Some(v) if v < min => Some(v),
        _ if gone.is_some_and(|v| v == min) => None,
        Some(v) if v == min && v.to_bits() != min.to_bits() => None,
        _ => Some(min),
    }
}

/// `a < b` in key order, without the short circuit a tuple compare
/// branches on: the standard library's binary search then narrows by a
/// conditional move alone, 1.5-2.6x faster than with the tuple compare
/// in a micro-benchmark (16 to 300 keys, many tied bookings).
fn below(a: (u64, usize), b: (u64, usize)) -> bool {
    (a.0 < b.0) | ((a.0 == b.0) & (a.1 < b.1))
}

impl Block {
    fn new(entries: Vec<Entry>) -> Block {
        let (min_used, max_free) = summary(&entries);
        Block {
            entries,
            min_used,
            max_free,
        }
    }

    fn summarize(&mut self) {
        (self.min_used, self.max_free) = summary(&self.entries);
    }

    /// Keeps the summary after the load `gone` left the block and
    /// `filed` joined it (see [`patch_min`]; the most `free_local` is the
    /// least of the negated values, negation being exact).
    fn patch(&mut self, gone: Option<&HostLoad>, filed: Option<&HostLoad>) {
        let used = patch_min(
            self.min_used,
            gone.map(|l| l.cpu_used),
            filed.map(|l| l.cpu_used),
        );
        let free = patch_min(
            -self.max_free,
            gone.map(|l| -l.free_local),
            filed.map(|l| -l.free_local),
        );
        match (used, free) {
            (Some(used), Some(free)) => (self.min_used, self.max_free) = (used, -free),
            _ => self.summarize(),
        }
    }

    fn last(&self) -> (u64, usize) {
        self.entries[self.entries.len() - 1].key
    }

    /// The first position whose key is not below `e`.
    fn seek(&self, e: (u64, usize)) -> usize {
        self.entries.partition_point(|x| below(x.key, e))
    }

    /// Where `e` is, or where it belongs, among the block's entries.
    fn search(&self, e: (u64, usize)) -> Result<usize, usize> {
        let at = self.seek(e);
        match self.entries.get(at) {
            Some(x) if x.key == e => Ok(at),
            _ => Err(at),
        }
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
/// `2 * B`, none empty. Each entry carries its host's [`HostLoad`]: the
/// caller passes it on `insert`, and the new one to `refresh` when the
/// host's usage or free memory changed, or to `rekey` when its booking
/// did.
#[derive(Clone, Debug, Default)]
pub(crate) struct StackOrder {
    blocks: Vec<Block>,
    /// The last key of each block, beside `blocks` so `block_for`'s
    /// binary search reads one flat array.
    lasts: Vec<(u64, usize)>,
}

impl StackOrder {
    pub(crate) fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.entries.len()).sum()
    }

    /// The block holding `e`, or the one it belongs in: the first whose
    /// last entry is `>= e` (`blocks.len()` when `e` sorts after all).
    fn block_for(&self, e: (u64, usize)) -> usize {
        self.lasts.partition_point(|&last| below(last, e))
    }

    /// The block index and position of `e`, if present.
    fn find(&self, e: (u64, usize)) -> Option<(usize, usize)> {
        let b = self.block_for(e);
        let at = self.blocks.get(b)?.search(e).ok()?;
        Some((b, at))
    }

    pub(crate) fn contains(&self, e: (u64, usize)) -> bool {
        self.find(e).is_some()
    }

    /// Every entry in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| b.entries.iter().map(|x| x.key))
    }

    /// Adds `e` with its host's `load`, splitting its block past `2 * B`
    /// entries. Returns `false` (and changes nothing) if `e` is already
    /// present.
    pub(crate) fn insert(&mut self, e: (u64, usize), load: HostLoad) -> bool {
        let b = self.block_for(e).min(self.blocks.len().saturating_sub(1));
        let entry = Entry { key: e, load };
        let Some(block) = self.blocks.get_mut(b) else {
            self.blocks.push(Block::new(vec![entry]));
            self.lasts.push(e);
            return true;
        };
        let Err(at) = block.search(e) else {
            return false;
        };
        block.entries.insert(at, entry);
        if block.entries.len() > 2 * B {
            let split = Block::new(block.entries.split_off(B));
            block.summarize();
            self.lasts[b] = block.last();
            self.lasts.insert(b + 1, split.last());
            self.blocks.insert(b + 1, split);
        } else {
            block.patch(None, Some(&load));
            self.lasts[b] = block.last();
        }
        true
    }

    /// Removes the entry at position `at` of block `b`, dropping the
    /// block if it empties.
    fn take(&mut self, b: usize, at: usize) {
        let block = &mut self.blocks[b];
        let gone = block.entries.remove(at);
        if block.entries.is_empty() {
            self.blocks.remove(b);
            self.lasts.remove(b);
        } else {
            block.patch(Some(&gone.load), None);
            self.lasts[b] = block.last();
        }
    }

    /// Removes `e`. Returns whether `e` was present.
    pub(crate) fn remove(&mut self, e: (u64, usize)) -> bool {
        let Some((b, at)) = self.find(e) else {
            return false;
        };
        self.take(b, at);
        true
    }

    /// Files `load` as `e`'s host's load, after the host's `cpu_used` or
    /// free memory changed (its booking did not: that is a `rekey`).
    pub(crate) fn refresh(&mut self, e: (u64, usize), load: HostLoad) {
        let found = self.find(e);
        debug_assert!(found.is_some(), "refreshing an entry that is not indexed");
        if let Some((b, at)) = found {
            let block = &mut self.blocks[b];
            let gone = std::mem::replace(&mut block.entries[at].load, load);
            block.patch(Some(&gone), Some(&load));
        }
    }

    /// Re-files the entry `old` as `new` with `load`, after its host's
    /// booking changed. When `new` still sorts inside `old`'s block, the
    /// entry moves within the block, found by one search; otherwise it
    /// leaves at the position already found and is inserted afresh.
    /// Returns whether the entry stayed in its block.
    pub(crate) fn rekey(&mut self, old: (u64, usize), new: (u64, usize), load: HostLoad) -> bool {
        let found = self.find(old);
        debug_assert!(found.is_some(), "re-keying an entry that is not indexed");
        let Some((b, at)) = found else {
            return false;
        };
        let in_block = (b == 0 || self.lasts[b - 1] < new)
            && (b + 1 == self.blocks.len() || new < self.lasts[b]);
        if !in_block {
            self.take(b, at);
            let inserted = self.insert(new, load);
            debug_assert!(inserted, "re-keyed onto an indexed entry");
            return false;
        }
        let block = &mut self.blocks[b];
        let to = block.seek(new);
        let gone = block.entries[at].load;
        let entry = Entry { key: new, load };
        if to > at {
            block.entries[at..to].rotate_left(1);
            block.entries[to - 1] = entry;
        } else {
            block.entries[to..=at].rotate_right(1);
            block.entries[to] = entry;
        }
        block.patch(Some(&gone), Some(&load));
        self.lasts[b] = block.last();
        true
    }

    /// The first entry at or after key `from` that passes `fits` (given
    /// the host and its filed load), the hosts the walk judged, and the
    /// blocks it skipped because `corner_ok` rejected their best case.
    /// `corner_ok` must be monotone (see the module docs): the skip is
    /// then exactly a walk that judged every entry from `from` on.
    pub(crate) fn first_fit(
        &self,
        from: u64,
        mut corner_ok: impl FnMut(&HostLoad) -> bool,
        mut fits: impl FnMut(usize, &HostLoad) -> bool,
    ) -> FirstFit {
        let start = (from, 0);
        let first = self.block_for(start);
        let mut hit = FirstFit::default();
        for (n, block) in self.blocks[first..].iter().enumerate() {
            if !corner_ok(&block.corner()) {
                hit.skipped += 1;
                continue;
            }
            let skip = if n == 0 { block.seek(start) } else { 0 };
            for e in &block.entries[skip..] {
                hit.examined += 1;
                if fits(e.key.1, &e.load) {
                    hit.host = Some(e.key.1);
                    return hit;
                }
            }
        }
        hit
    }

    /// Asserts the structure: blocks non-empty and at most `2 * B`
    /// long, each block's last key filed in `lasts`, entries strictly
    /// ascending across blocks, every filed load bit-equal to its host's
    /// live `load` (and its booking to its key), and every summary
    /// bit-equal to a fresh recompute.
    pub(crate) fn check(&self, load: impl Fn(usize) -> HostLoad) {
        let bits = |l: &HostLoad| {
            (
                l.cpu_booked.to_bits(),
                l.cpu_used.to_bits(),
                l.free_local.to_bits(),
            )
        };
        assert_eq!(
            self.lasts.len(),
            self.blocks.len(),
            "one last key per block"
        );
        let mut prev = None;
        for (b, block) in self.blocks.iter().enumerate() {
            let size = block.entries.len();
            assert!(
                (1..=2 * B).contains(&size),
                "block {b} holds {size} entries"
            );
            assert_eq!(self.lasts[b], block.last(), "block {b}: stale last key");
            for e in &block.entries {
                assert!(prev < Some(e.key), "block {b}: {:?} out of order", e.key);
                prev = Some(e.key);
                let (key, host) = e.key;
                assert_eq!(
                    bits(&e.load),
                    bits(&load(host)),
                    "block {b}: host {host}'s filed load drifted from its live load"
                );
                assert_eq!(key, booked_key(e.load.cpu_booked), "host {host}: key");
            }
            let (min_used, max_free) = summary(&block.entries);
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

    /// A usage or free-memory value, tied often — `0.0` against `-0.0`
    /// among the ties, so a summary's first-of-equal bits matter.
    fn level(rng: &mut DetRng) -> f64 {
        [0.0, -0.0, 0.25, 0.25, rng.range_f64(0.0, 1.0)][rng.below(5) as usize]
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
    /// removals drain it often enough to empty them. Re-bookings go
    /// through `rekey`, both within a block and across blocks, and the
    /// loads tie often, `±0` among them. After every op `check` compares
    /// each filed load with the model's live one and each summary, bit
    /// for bit, with a fresh recompute.
    #[test]
    fn matches_a_btreeset_model() {
        let mut rng = DetRng::new(0x57ac);
        let (mut splits, mut drops) = (0, 0);
        let mut moves = [0; 2];
        for round in 0..40 {
            let n = 1 + rng.below(120) as usize;
            let mut m = Model {
                booked: (0..n).map(|_| booking(&mut rng)).collect(),
                used: (0..n).map(|_| level(&mut rng)).collect(),
                free: (0..n).map(|_| level(&mut rng)).collect(),
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
                    assert_eq!(order.insert(m.key(i), m.load(i)), m.set.insert(m.key(i)));
                } else if op < 4 {
                    assert_eq!(order.remove(m.key(i)), m.set.remove(&m.key(i)));
                } else if op == 4 && m.set.remove(&m.key(i)) {
                    // A booking change, often with a usage change, moves
                    // the entry.
                    let old = m.key(i);
                    m.booked[i] = booking(&mut rng);
                    if rng.chance(0.5) {
                        m.used[i] = level(&mut rng);
                    }
                    if m.key(i) == old {
                        order.refresh(old, m.load(i));
                    } else {
                        moves[usize::from(order.rekey(old, m.key(i), m.load(i)))] += 1;
                    }
                    m.set.insert(m.key(i));
                } else {
                    m.used[i] = level(&mut rng);
                    m.free[i] = level(&mut rng);
                    if m.set.contains(&m.key(i)) {
                        order.refresh(m.key(i), m.load(i));
                    }
                }
                splits += usize::from(order.blocks.len() > blocks);
                drops += usize::from(order.blocks.len() < blocks);
                assert_matches(&order, &m);
            }
            // Drain the rest, emptying every block.
            for i in 0..n {
                if m.set.remove(&m.key(i)) {
                    assert!(order.remove(m.key(i)));
                }
            }
            assert_matches(&order, &m);
            assert!(order.blocks.is_empty());
        }
        assert!(
            splits > 100 && drops > 30,
            "blocks split {splits}, dropped {drops}"
        );
        assert!(
            moves.iter().all(|&k| k > 300),
            "re-keyed across blocks {}, in place {}",
            moves[0],
            moves[1]
        );
    }

    /// A load change the order was not told about is caught by `check`.
    #[test]
    #[should_panic(expected = "filed load drifted")]
    fn check_catches_an_unrefreshed_load() {
        let mut m = Model {
            booked: vec![0.5, 0.25],
            used: vec![0.1, 0.2],
            free: vec![0.3, 0.4],
            set: BTreeSet::new(),
        };
        let mut order = StackOrder::default();
        for i in 0..2 {
            order.insert(m.key(i), m.load(i));
        }
        order.check(|i| m.load(i));
        m.used[1] = 0.3;
        order.check(|i| m.load(i));
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
                    order.insert(m.key(i), m.load(i));
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
                // `fits` judges the filed load, which must be the host's.
                let hit = order.first_fit(from, ok, |i, l| {
                    assert_eq!(l.cpu_used.to_bits(), m.used[i].to_bits());
                    ok(l)
                });
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
