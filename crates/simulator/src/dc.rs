//! Datacenter state: hosts, VMs, the rack-local remote pool, and the
//! index sets that keep the hot paths from scanning the full fleet.
//!
//! Everything here is *mechanism* — admission checks, the two-phase
//! evacuation protocol, pool carving, invariant validation. Every
//! policy *decision* routes through the [`crate::policy`] trait objects
//! carried by [`crate::SimConfig::policy`], so this module never
//! matches on a policy name.
//!
//! # Decision scans
//!
//! Host state lives in a struct-of-arrays [`Hosts`] table beside three
//! index sets: `active`, the blocked stacking order `stack` and
//! `nonactive`. Every decision is one serial scan over one of them.
//! Admission and migration ([`Fit`]) are first-fit walks along the
//! stacking order; the four other scans ([`Pick`]) walk an index set in
//! ascending host order. Under [`Dc::validate_on`] each answer is
//! checked against a walk that uses neither the indexes nor their
//! shortcuts.

use core::cmp::Ordering;
use std::collections::BTreeSet;

use zombieland_cloud::oasis::OasisConfig;
use zombieland_energy::PowerModel;
use zombieland_simcore::{derive_seed, Joules, SimTime, Watts};
use zombieland_trace::google::ClusterTrace;

use crate::policy::{HostLoad, MigrantVm, WakePreference};
use crate::report::SimReport;
use crate::stack::{booked_key, total_key, StackOrder};
use crate::SimConfig;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum HState {
    Active,
    Zombie,
    Sleeping,
}

pub(crate) fn state_index(s: HState) -> usize {
    match s {
        HState::Active => 0,
        HState::Zombie => 1,
        HState::Sleeping => 2,
    }
}

/// Host state in struct-of-arrays layout: the hot fields (state, booked,
/// used, power-relevant numbers) are dense parallel `Vec`s, so placement
/// and consolidation scans touch only the arrays they read instead of
/// dragging whole `Host` structs through the cache.
#[derive(Debug, Default)]
pub(crate) struct Hosts {
    pub(crate) state: Vec<HState>,
    pub(crate) rack: Vec<u32>,
    pub(crate) cpu_booked: Vec<f64>,
    pub(crate) cpu_used: Vec<f64>,
    pub(crate) mem_local: Vec<f64>,
    /// Remote-pool memory allocated *from* each host (only when zombie).
    pub(crate) remote_allocated: Vec<f64>,
    /// Resident VM (task) ids per host.
    pub(crate) vms: Vec<Vec<usize>>,
    /// Usable memory of each host in server-equivalents: the config's
    /// `usable_mem` scaled by the host generation's socket capacity.
    /// Uniform fleets store the config value bit-for-bit, so every
    /// `cap[i]` read reproduces the old global-constant math exactly.
    pub(crate) cap: Vec<f64>,
    /// Model year of each host's generation (`0` = uniform fleet of the
    /// profile's reference machine).
    pub(crate) generation: Vec<u16>,
    /// Power model pricing each host — per-generation in heterogeneous
    /// fleets, the config model (one shared pointer) otherwise.
    pub(crate) power: Vec<&'static dyn PowerModel>,
}

impl Hosts {
    pub(crate) fn len(&self) -> usize {
        self.state.len()
    }

    /// The [`HostLoad`] view of host `i` the policy traits judge.
    /// Policies see the host's *own* capacity — per-generation in
    /// heterogeneous fleets — not a global constant.
    fn load(&self, i: usize) -> HostLoad {
        HostLoad {
            cpu_booked: self.cpu_booked[i],
            cpu_used: self.cpu_used[i],
            free_local: (self.cap[i] - self.mem_local[i]).max(0.0),
        }
    }

    /// A mutable view of one host's policy-visible fields, for
    /// [`Dc::update_host`] closures. `rack` is immutable for a host's
    /// lifetime and `remote_allocated` is pool bookkeeping (mutated
    /// directly by the pool carving paths), so neither is exposed here.
    fn view_mut(&mut self, i: usize) -> HostMut<'_> {
        HostMut {
            state: &mut self.state[i],
            cpu_booked: &mut self.cpu_booked[i],
            cpu_used: &mut self.cpu_used[i],
            mem_local: &mut self.mem_local[i],
            vms: &mut self.vms[i],
        }
    }
}

/// Mutable view of one host (see [`Hosts::view_mut`]).
pub(crate) struct HostMut<'a> {
    pub(crate) state: &'a mut HState,
    pub(crate) cpu_booked: &'a mut f64,
    pub(crate) cpu_used: &'a mut f64,
    pub(crate) mem_local: &'a mut f64,
    pub(crate) vms: &'a mut Vec<usize>,
}

#[derive(Clone, Debug)]
pub(crate) struct VmState {
    pub(crate) host: usize,
    pub(crate) local_mem: f64,
    /// Remote-pool memory this VM holds (server-equivalents).
    pub(crate) remote: f64,
    pub(crate) parked: f64,
}

/// Ticks a freshly woken host is exempt from consolidation, damping
/// wake/suspend churn.
const WAKE_COOLDOWN_TICKS: u32 = 3;

/// Seed base for the per-rack generation assignment (an arbitrary
/// constant: changing it reshuffles every heterogeneous fleet).
const GENERATION_SEED: u64 = 0x4745_4E53_2D30_3130; // "GENS-010"

/// GiB per socket of the reference machine the memory unit (1.0 = one
/// server's RAM) is calibrated to — the paper testbed's 16 GiB servers.
const REFERENCE_GIB_PER_SOCKET: f64 = 16.0;

/// Bookkeeping for one in-flight (two-phase) consolidation move.
#[derive(Clone, Copy, Debug)]
struct PendingMove {
    task: usize,
    source: usize,
    target: usize,
    old_local: f64,
    old_remote: f64,
    new_local: f64,
    taken: f64,
}

/// Headroom added to a seek bound so rounding in `limit - cpu` can only
/// make the seek skip *fewer* hosts: far above one ulp of the booked
/// loads (~2e-16 near 1.0), far below any booking the trace produces.
const SEEK_MARGIN: f64 = 1e-12;

/// The stacking-order key a first-fit walk for a VM booking `cpu` starts
/// at, given the policy's booked-CPU ceiling (`0`, the first possible
/// key, walks everything).
///
/// The walk skips exactly the hosts whose booked load is above
/// `bound = (ceiling + 1e-9) - cpu + SEEK_MARGIN` in `total_cmp` order,
/// hence numerically `>= bound` (booked loads are never NaN: `validate`
/// rejects them). Float addition is monotone, so each skipped host has
/// `booked + cpu >= bound + cpu`, and the guard below checks that this
/// is `> ceiling + 1e-9` — the test every ceiling-declaring policy
/// rejects on. Those hosts form a prefix of the stacking order, and the
/// policy would have said no to each of them. Should rounding or a NaN
/// `cpu` ever defeat the margin, the guard falls back to the full walk.
fn seek_key(ceiling: Option<f64>, cpu: f64) -> u64 {
    let Some(ceiling) = ceiling else {
        return 0;
    };
    let limit = ceiling + 1e-9;
    let bound = limit - cpu + SEEK_MARGIN;
    if bound + cpu > limit {
        booked_key(bound)
    } else {
        0
    }
}

/// A first-fit walk along the stacking order ([`Dc::first_fit`]): the
/// two decisions the policy judges host by host.
#[derive(Clone, Copy, Debug)]
enum Fit {
    /// An arriving VM to admit.
    Admit { cpu: f64, cpu_used: f64, mem: f64 },
    /// A VM to move off host `skip`, the evacuation source.
    Migrate { vm: MigrantVm, skip: usize },
}

/// A pick of one host from an index set ([`Dc::pick`]).
#[derive(Clone, Copy, Debug)]
enum Pick {
    /// Least-lending zombie (the `IdleZombieFirst` wake preference).
    WakeZombie,
    /// Lowest-index non-active host (the wake fallback).
    Sleeping,
    /// Least-used active host (the overcommit fallback).
    LeastUsed,
    /// Lowest-index zombie lending nothing (§4.4 demotion candidate).
    IdleZombie,
}

/// The first of `hosts` whose `value` is least under strict `<`, so
/// among equal values the earliest host wins.
fn first_min(hosts: impl Iterator<Item = usize>, value: impl Fn(usize) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for i in hosts {
        let v = value(i);
        if best.is_none_or(|(_, b)| v < b) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

pub(crate) struct Dc {
    pub(crate) cfg: SimConfig,
    pub(crate) hosts: Hosts,
    /// Consolidation-round counter; a freshly woken host is exempt until
    /// `round >= cooldown_expiry[h]`. Replaces the old per-round
    /// decrement sweep over every host with one counter increment.
    pub(crate) round: u64,
    /// First consolidation round at which each host is eligible again
    /// (see [`Dc::round`]; `0` = no cooldown).
    pub(crate) cooldown_expiry: Vec<u64>,
    pub(crate) vms: Vec<Option<VmState>>,
    pub(crate) parked_mem: f64,
    pub(crate) total_power: Watts,
    pub(crate) state_counts: [u64; 3],
    pub(crate) energy: Joules,
    pub(crate) last: SimTime,
    pub(crate) report: SimReport,
    pub(crate) oasis: OasisConfig,
    /// Active hosts, ascending index.
    active: BTreeSet<usize>,
    /// Active hosts keyed by `(booked_key(cpu_booked), index)` — the
    /// stacking preference order, in summarized blocks. The key is built
    /// from the host's exact stored bits at index time; `update_host`
    /// repositions entries whenever the value changes and refreshes a
    /// block's summary whenever a host's usage or memory does.
    stack: StackOrder,
    /// Sleeping and zombie hosts (the wake candidates), ascending index.
    nonactive: BTreeSet<usize>,
    /// Zombie hosts per rack (the rack-local remote pool's lenders).
    pub(crate) zombies_by_rack: Vec<BTreeSet<usize>>,
    /// Tasks holding remote-pool memory, per rack of their host.
    /// Invariant: task ∈ set[r] iff its VM exists, holds `remote >
    /// 1e-9`, and lives on a host of rack `r`. Turns the revocation
    /// fallback ([`Dc::shed_vm_remote`]) from an all-tasks sweep into a
    /// walk over actual holders — in the same ascending-task order.
    remote_vms_by_rack: Vec<BTreeSet<usize>>,
    /// Pooled-tier memory allocated per rack when the backend does not
    /// pool host memory (CXL-style shared tier); all zeros otherwise.
    pub(crate) cxl_allocated: Vec<f64>,
    /// Sum of [`Dc::cxl_allocated`], maintained incrementally for the
    /// energy integration and the STATS overlay.
    pub(crate) cxl_allocated_total: f64,
    /// Active hosts keyed by `(total_key(cpu_used), index)` — the
    /// consolidation candidate order. Ascending walk with early exit at
    /// the underload threshold replaces the old full active-set gather +
    /// sort per round. Membership follows state changes eagerly
    /// ([`Dc::index_host`]); *key* updates for load changes are deferred
    /// to the dirty-host drain at the top of each round, so the busy
    /// arrive/depart path pays one flag write instead of two B-tree
    /// edits.
    by_used: BTreeSet<(u64, usize)>,
    /// The key each host is currently indexed under in [`Dc::by_used`]
    /// (exact stored bits; only meaningful while the host is active).
    used_key: Vec<u64>,
    /// Hosts whose `cpu_used` changed since the last drain (deduplicated
    /// by [`Dc::used_dirty_flag`]).
    used_dirty: Vec<usize>,
    /// Membership flags for [`Dc::used_dirty`].
    used_dirty_flag: Vec<bool>,
    /// Persistent sort buffer for the consolidation order (reused every
    /// tick instead of a fresh allocation).
    order_buf: Vec<usize>,
    /// Persistent buffer for the resident-VM snapshot in
    /// [`Dc::try_evacuate`].
    evac_buf: Vec<usize>,
    /// Per-rack free-pool snapshot taken at the start of each placement
    /// scan, so `fits` stops re-summing the pool per candidate host.
    pool_buf: Vec<f64>,
    /// The largest entry of [`Dc::pool_buf`]: the pool a block's
    /// best-case corner is judged with.
    pool_max: f64,
    /// Persistent buffer for the remote-holder walk in
    /// [`Dc::shed_vm_remote`].
    shed_buf: Vec<usize>,
    /// Whether [`Dc::validate`] runs after each consolidation round:
    /// debug builds by default, or the scenario's `validate` switch
    /// (`ZL_VALIDATE=1`) in release.
    pub(crate) validate_on: bool,
}

/// Whether the O(hosts × vms) invariant sweep runs: always in debug
/// builds (unless `ZL_VALIDATE=0`), and only on `ZL_VALIDATE=1` in
/// release — release runs skip the sweep entirely. The switch is the
/// scenario layer's `validate` field, so env and `--scenario` files
/// agree on one spelling.
fn validate_enabled() -> bool {
    zombieland_core::scenario::current()
        .validate
        .unwrap_or(cfg!(debug_assertions))
}

impl Dc {
    /// Builds the all-active initial fleet for `trace` under `cfg`.
    ///
    /// `cfg` must have passed [`SimConfig::validate`]; in particular
    /// `racks >= 1`, so the rack assignment below never divides by zero.
    pub(crate) fn new(trace: &ClusterTrace, cfg: &SimConfig) -> Dc {
        let n = trace.config().servers as usize;
        let mut rack = Vec::with_capacity(n);
        let mut by_used = BTreeSet::new();
        let mut cap = Vec::with_capacity(n);
        let mut generation = Vec::with_capacity(n);
        let mut power: Vec<&'static dyn PowerModel> = Vec::with_capacity(n);
        for i in 0..n {
            let r = i as u32 % cfg.racks;
            rack.push(r);
            if cfg.generations.is_empty() {
                cap.push(cfg.usable_mem);
                generation.push(0);
                power.push(cfg.power);
            } else {
                // Seeded per-rack assignment: a pure function of (rack,
                // host), so the mix is identical at any job count.
                let pick = derive_seed(GENERATION_SEED ^ r as u64, i as u64) as usize
                    % cfg.generations.len();
                let year = cfg.generations[pick];
                let g = zombieland_trace::generations::by_year(year)
                    .expect("SimConfig::validate checked the generation years");
                cap.push(cfg.usable_mem * (g.gib_per_socket() as f64 / REFERENCE_GIB_PER_SOCKET));
                generation.push(year);
                power.push(
                    zombieland_energy::generation_power(year)
                        .expect("the energy crate models every table generation"),
                );
            }
            by_used.insert((total_key(0.0), i));
        }
        let mut dc = Dc {
            hosts: Hosts {
                state: vec![HState::Active; n],
                rack,
                cpu_booked: vec![0.0; n],
                cpu_used: vec![0.0; n],
                mem_local: vec![0.0; n],
                remote_allocated: vec![0.0; n],
                vms: vec![Vec::new(); n],
                cap,
                generation,
                power,
            },
            round: 0,
            cooldown_expiry: vec![0; n],
            vms: vec![None; trace.tasks().len()],
            parked_mem: 0.0,
            total_power: Watts::ZERO,
            energy: Joules::ZERO,
            last: SimTime::ZERO,
            report: SimReport {
                policy: cfg.policy.label,
                energy: Joules::ZERO,
                migrations: 0,
                wakeups: 0,
                dropped: 0,
                overcommitted: 0,
                state_seconds: [0.0; 3],
                peak_parked: 0.0,
                events: 0,
                peak_queue: 0,
                timeline: Vec::new(),
            },
            oasis: OasisConfig::default(),
            active: (0..n).collect(),
            stack: StackOrder::default(),
            nonactive: BTreeSet::new(),
            zombies_by_rack: vec![BTreeSet::new(); cfg.racks as usize],
            remote_vms_by_rack: vec![BTreeSet::new(); cfg.racks as usize],
            cxl_allocated: vec![0.0; cfg.racks as usize],
            cxl_allocated_total: 0.0,
            by_used,
            used_key: vec![total_key(0.0); n],
            used_dirty: Vec::new(),
            used_dirty_flag: vec![false; n],
            order_buf: Vec::new(),
            evac_buf: Vec::new(),
            pool_buf: Vec::new(),
            pool_max: 0.0,
            shed_buf: Vec::new(),
            validate_on: validate_enabled(),
            cfg: cfg.clone(),
            state_counts: [n as u64, 0, 0],
        };
        // The stacking order summarizes live loads, so it fills once the
        // host table exists.
        for i in 0..n {
            let hosts = &dc.hosts;
            dc.stack.insert((booked_key(0.0), i), |j| hosts.load(j));
        }
        // Initial fleet power: everything on and idle. An empty fleet
        // has no host 0 to sample (and draws nothing). The uniform-fleet
        // branch keeps the historical one-sample-times-n float expression
        // bit-for-bit; heterogeneous fleets sum per host.
        if n > 0 {
            if cfg.generations.is_empty() {
                dc.total_power = dc.host_power(0) * n as f64;
            } else {
                let mut total = Watts::ZERO;
                for i in 0..n {
                    total += dc.host_power(i);
                }
                dc.total_power = total;
            }
        }
        dc
    }

    /// Whether the backend pools suspended hosts' memory (the zombie
    /// design). `false` routes pool carving to the shared CXL-style tier
    /// ([`Dc::cxl_allocated`]) instead of zombie lenders.
    fn pools_host_memory(&self) -> bool {
        self.cfg.backend.backend.pools_host_memory()
    }

    /// Applies a mutation to host `h`, keeping the fleet power total,
    /// the state counts and the index sets consistent.
    pub(crate) fn update_host(&mut self, h: usize, f: impl FnOnce(HostMut)) {
        let before = self.host_power(h);
        let state_before = self.hosts.state[h];
        let booked_before = self.hosts.cpu_booked[h];
        let used_before = self.hosts.cpu_used[h];
        let mem_before = self.hosts.mem_local[h];
        f(self.hosts.view_mut(h));
        let after = self.host_power(h);
        let state_after = self.hosts.state[h];
        let booked_after = self.hosts.cpu_booked[h];
        if state_before != state_after {
            self.state_counts[state_index(state_before)] -= 1;
            self.state_counts[state_index(state_after)] += 1;
            self.index_host(h, state_before, state_after, booked_before, booked_after);
        } else if state_after == HState::Active {
            let used_changed = self.hosts.cpu_used[h].total_cmp(&used_before) != Ordering::Equal;
            let hosts = &self.hosts;
            let stack = &mut self.stack;
            if booked_after.total_cmp(&booked_before) != Ordering::Equal {
                // total_cmp (not `!=`) so a -0.0/+0.0 flip still repositions
                // and the stored key always matches the host's exact bits.
                let removed = stack.remove((booked_key(booked_before), h), |i| hosts.load(i));
                debug_assert!(removed, "active host indexed under its old booked key");
                stack.insert((booked_key(booked_after), h), |i| hosts.load(i));
            } else if used_changed || hosts.mem_local[h].total_cmp(&mem_before) != Ordering::Equal {
                stack.refresh((booked_key(booked_after), h), |i| hosts.load(i));
            }
            if used_changed && !self.used_dirty_flag[h] {
                // Lazy: the ordered `by_used` key is repositioned at the
                // next consolidation round, not on every arrive/depart.
                self.used_dirty_flag[h] = true;
                self.used_dirty.push(h);
            }
        }
        self.total_power =
            Watts::new((self.total_power.get() - before.get() + after.get()).max(0.0));
    }

    /// Moves `h` between the index sets on a state change.
    fn index_host(&mut self, h: usize, from: HState, to: HState, booked_old: f64, booked_new: f64) {
        let rack = self.hosts.rack[h] as usize;
        let hosts = &self.hosts;
        match from {
            HState::Active => {
                self.active.remove(&h);
                let removed = self
                    .stack
                    .remove((booked_key(booked_old), h), |i| hosts.load(i));
                debug_assert!(removed, "active host indexed under its old booked key");
                // Membership is eager even though key *values* are lazy:
                // the stored key is whatever `used_key` last recorded.
                let removed = self.by_used.remove(&(self.used_key[h], h));
                debug_assert!(removed, "active host indexed under its stored used key");
            }
            HState::Zombie => {
                self.nonactive.remove(&h);
                self.zombies_by_rack[rack].remove(&h);
            }
            HState::Sleeping => {
                self.nonactive.remove(&h);
            }
        }
        match to {
            HState::Active => {
                self.active.insert(h);
                self.stack
                    .insert((booked_key(booked_new), h), |i| hosts.load(i));
                // Re-sync the used key eagerly on (re)activation so the
                // entry is live even if no further load change follows.
                let key = total_key(self.hosts.cpu_used[h]);
                self.by_used.insert((key, h));
                self.used_key[h] = key;
            }
            HState::Zombie => {
                self.nonactive.insert(h);
                self.zombies_by_rack[rack].insert(h);
            }
            HState::Sleeping => {
                self.nonactive.insert(h);
            }
        }
    }

    /// Snapshots every rack's free pool into [`Dc::pool_buf`] ahead of a
    /// placement scan. Under non-pool policies the snapshot is all zeros
    /// (never read). The scan itself does not mutate pool state, so one
    /// snapshot serves every candidate host — this is what turns the old
    /// O(hosts²) placement into O(active + zombies).
    fn snapshot_pools(&mut self) {
        let mut buf = std::mem::take(&mut self.pool_buf);
        buf.clear();
        let racks = self.cfg.racks;
        if self.cfg.policy.placement.uses_remote_pool() {
            buf.extend((0..racks).map(|r| self.pool_free(r)));
        } else {
            buf.resize(racks as usize, 0.0);
        }
        self.pool_max = buf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.pool_buf = buf;
    }

    fn usable_mem(&self) -> f64 {
        self.cfg.usable_mem
    }

    /// Free remote-pool memory in one rack. Under the zombie backend the
    /// pool is the rack's zombie hosts (rack-local, as in the paper):
    /// the sum runs over the zombie index set in ascending host order,
    /// the same order (and therefore the same float result) as the old
    /// full-fleet filter scan. Under a shared-tier backend it is the
    /// rack's remaining CXL capacity.
    fn pool_free(&self, rack: u32) -> f64 {
        if !self.pools_host_memory() {
            return (self.cfg.cxl_capacity - self.cxl_allocated[rack as usize]).max(0.0);
        }
        self.zombies_by_rack[rack as usize]
            .iter()
            .map(|&i| (self.hosts.cap[i] - self.hosts.remote_allocated[i]).max(0.0))
            .sum()
    }

    /// Free pool across every rack (reporting / demotion policy).
    fn pool_free_total(&self) -> f64 {
        (0..self.cfg.racks).map(|r| self.pool_free(r)).sum()
    }

    /// Carves `amount` of remote memory from one rack's pool: the shared
    /// tier's free capacity under a CXL-style backend, the rack's zombie
    /// hosts (most-free first) otherwise. Returns how much was taken.
    fn take_remote(&mut self, rack: u32, mut amount: f64) -> f64 {
        if !self.pools_host_memory() {
            let free = (self.cfg.cxl_capacity - self.cxl_allocated[rack as usize]).max(0.0);
            let take = free.min(amount);
            if take <= 1e-9 {
                return 0.0;
            }
            self.cxl_allocated[rack as usize] += take;
            self.cxl_allocated_total += take;
            return take;
        }
        let mut taken = 0.0;
        while amount > 1e-9 {
            // Most-free zombie; `>=` keeps the *last* maximum among ties,
            // matching the old full-scan `max_by`.
            let mut best: Option<(usize, f64)> = None;
            for &i in &self.zombies_by_rack[rack as usize] {
                let free = (self.hosts.cap[i] - self.hosts.remote_allocated[i]).max(0.0);
                if best.is_none_or(|(_, b)| free >= b) {
                    best = Some((i, free));
                }
            }
            let Some((idx, free)) = best else {
                break;
            };
            if free <= 1e-9 {
                break;
            }
            let take = free.min(amount);
            self.hosts.remote_allocated[idx] += take;
            taken += take;
            amount -= take;
        }
        taken
    }

    /// Returns `amount` of remote memory to one rack's pool (drained from
    /// the most-loaded zombies first, so lightly-used zombies empty out
    /// and become demotable to S3; the shared tier just decrements).
    fn give_back_remote(&mut self, rack: u32, mut amount: f64) {
        if !self.pools_host_memory() {
            let back = self.cxl_allocated[rack as usize].min(amount).max(0.0);
            self.cxl_allocated[rack as usize] -= back;
            self.cxl_allocated_total = (self.cxl_allocated_total - back).max(0.0);
            return;
        }
        while amount > 1e-9 {
            // Most-loaded zombie; `>=` keeps the last maximum among ties,
            // matching the old full-scan `max_by`.
            let mut best: Option<(usize, f64)> = None;
            for &i in &self.zombies_by_rack[rack as usize] {
                let ra = self.hosts.remote_allocated[i];
                if ra > 1e-9 && best.is_none_or(|(_, b)| ra >= b) {
                    best = Some((i, ra));
                }
            }
            let Some((idx, _)) = best else {
                break;
            };
            let back = self.hosts.remote_allocated[idx].min(amount);
            self.hosts.remote_allocated[idx] -= back;
            amount -= back;
        }
    }

    /// Whether `host` can take the task under the policy's placement
    /// rule; returns the local share it would use. `pool` is the free
    /// remote pool of the host's rack (snapshot or fresh — the caller
    /// owns that choice; scans pass the per-scan snapshot).
    fn fits(&self, host: usize, cpu: f64, cpu_used: f64, mem: f64, pool: f64) -> Option<f64> {
        if self.hosts.state[host] != HState::Active {
            return None;
        }
        self.cfg
            .policy
            .placement
            .admit(&self.hosts.load(host), cpu, cpu_used, mem, pool)
    }

    /// Whether host `i` passes `fit`: the policy's own verdict on the
    /// host, against its rack's snapshot pool.
    fn fit_passes(&self, fit: &Fit, i: usize) -> bool {
        let pool = self.pool_buf[self.hosts.rack[i] as usize];
        match *fit {
            Fit::Admit { cpu, cpu_used, mem } => self.fits(i, cpu, cpu_used, mem, pool).is_some(),
            Fit::Migrate { ref vm, skip } => i != skip && self.consolidation_fits(i, vm, pool),
        }
    }

    /// Whether a block whose best case is `corner` may hold a host that
    /// passes `fit`: the same policy rule, judged on the corner with the
    /// largest snapshot pool. Policies are monotone, so `false` rules
    /// out every host in the block.
    fn corner_passes(&self, fit: &Fit, corner: &HostLoad) -> bool {
        let policy = self.cfg.policy;
        match *fit {
            Fit::Admit { cpu, cpu_used, mem } => policy
                .placement
                .admit(corner, cpu, cpu_used, mem, self.pool_max)
                .is_some(),
            Fit::Migrate { ref vm, .. } => policy.consolidation.accepts_migration(
                corner,
                vm,
                self.pool_max,
                self.cfg.cpu_fill_cap,
            ),
        }
    }

    /// The first host of the stacking order that passes `fit`: the
    /// fittable active host with the highest booked CPU, ties to the
    /// lowest index, as the old full scan resolved them. One pool
    /// snapshot serves the whole walk, which starts at the policy's
    /// ceiling seek ([`seek_key`]: every host before it fails the
    /// booked ceiling) and skips each block whose best case the policy
    /// rejects. Under [`Dc::validate_on`] the pick must equal a walk
    /// from the first entry that judges every host.
    fn first_fit(&mut self, fit: Fit) -> Option<usize> {
        self.snapshot_pools();
        let policy = self.cfg.policy;
        let (from, examined, skipped) = match fit {
            Fit::Admit { cpu, .. } => (
                seek_key(policy.placement.booked_ceiling(), cpu),
                "sim.admit.hosts_examined",
                "sim.admit.blocks_skipped",
            ),
            Fit::Migrate { ref vm, .. } => (
                seek_key(
                    policy.consolidation.booked_ceiling(self.cfg.cpu_fill_cap),
                    vm.cpu_booked,
                ),
                "sim.migrate.hosts_examined",
                "sim.migrate.blocks_skipped",
            ),
        };
        let walk = self.stack.first_fit(
            from,
            |corner| self.corner_passes(&fit, corner),
            |i| self.fit_passes(&fit, i),
        );
        if self.validate_on {
            let full = self
                .stack
                .iter()
                .map(|(_, i)| i)
                .find(|&i| self.fit_passes(&fit, i));
            assert_eq!(
                walk.host, full,
                "the seek or a block skip changed the answer to {fit:?}"
            );
        }
        zombieland_obs::sink::hist_record(examined, walk.examined);
        zombieland_obs::sink::hist_record(skipped, walk.skipped);
        walk.host
    }

    /// The host `pick` chooses among `hosts`, walked in ascending index
    /// order: the first least value under strict `<` for `WakeZombie`
    /// and `LeastUsed`, the first match otherwise. It filters on host
    /// state itself, so the same walk over every host is the naive
    /// reference [`Dc::pick`] checks its index walk against.
    fn pick_among(&self, pick: Pick, mut hosts: impl Iterator<Item = usize>) -> Option<usize> {
        let h = &self.hosts;
        match pick {
            Pick::WakeZombie => first_min(hosts.filter(|&i| h.state[i] == HState::Zombie), |i| {
                h.remote_allocated[i]
            }),
            Pick::Sleeping => hosts.find(|&i| h.state[i] != HState::Active),
            Pick::LeastUsed => first_min(hosts.filter(|&i| h.state[i] == HState::Active), |i| {
                h.cpu_used[i]
            }),
            Pick::IdleZombie => {
                hosts.find(|&i| h.state[i] == HState::Zombie && h.remote_allocated[i] <= 1e-9)
            }
        }
    }

    /// Picks a host for `pick` from the index set that holds its
    /// candidates. Under [`Dc::validate_on`] the pick must equal the
    /// naive walk over the whole fleet.
    fn pick(&self, pick: Pick) -> Option<usize> {
        let set = match pick {
            Pick::LeastUsed => &self.active,
            Pick::WakeZombie | Pick::Sleeping | Pick::IdleZombie => &self.nonactive,
        };
        let host = self.pick_among(pick, set.iter().copied());
        if self.validate_on {
            assert_eq!(
                host,
                self.pick_among(pick, 0..self.hosts.len()),
                "the index sets changed the answer to {pick:?}"
            );
        }
        host
    }

    /// Wakes a host per policy preference. Returns its index.
    fn wake_one(&mut self) -> Option<usize> {
        // Nested inside an Arrivals/Consolidation span; self-time
        // accounting moves these nanoseconds out of the caller's phase.
        let _span = zombieland_obs::profile::span(zombieland_obs::profile::Phase::WakeUps);
        let pick = match self.cfg.policy.placement.wake_preference() {
            WakePreference::IdleZombieFirst => self
                .pick(Pick::WakeZombie)
                .or_else(|| self.pick(Pick::Sleeping)),
            WakePreference::FirstSleeping => self.pick(Pick::Sleeping),
        }?;
        // A waking zombie reclaims its memory: re-place its allocations
        // on its rack's *other* zombies (so reactivate first — a zombie
        // would happily re-absorb its own shares), and shed whatever the
        // pool cannot hold onto the owning VMs' local backups, exactly as
        // the rack-level US_reclaim fallback does.
        let stranded = self.hosts.remote_allocated[pick];
        let rack = self.hosts.rack[pick];
        self.hosts.remote_allocated[pick] = 0.0;
        self.cooldown_expiry[pick] = self.round + WAKE_COOLDOWN_TICKS as u64;
        let waking_from = self.hosts.state[pick];
        self.update_host(pick, |h| {
            *h.state = HState::Active;
        });
        self.charge_transition(pick, waking_from, HState::Active);
        if stranded > 1e-9 {
            let placed = self.take_remote(rack, stranded);
            self.shed_vm_remote(rack, stranded - placed);
        }
        self.report.wakeups += 1;
        zombieland_obs::sink::counter_add("sim.wakeups", 1);
        zombieland_obs::trace_event!(self.last, "simulator", "wake", "host" => pick);
        Some(pick)
    }

    /// Reduces VMs' remote shares in `rack` by `amount`: their cold pages
    /// are now served from the local backups (the revocation fallback).
    ///
    /// Walks the rack's remote-holder index — the same ascending task
    /// order the old all-tasks sweep visited after its filters — via a
    /// persistent buffer, since cutting a VM to zero edits the set.
    fn shed_vm_remote(&mut self, rack: u32, mut amount: f64) {
        if amount <= 1e-9 {
            return;
        }
        let mut holders = std::mem::take(&mut self.shed_buf);
        holders.clear();
        holders.extend(self.remote_vms_by_rack[rack as usize].iter().copied());
        for &task in &holders {
            if amount <= 1e-9 {
                break;
            }
            let Some(vm) = self.vms[task].as_mut() else {
                continue;
            };
            if vm.remote <= 1e-9 {
                continue;
            }
            let cut = vm.remote.min(amount);
            vm.remote -= cut;
            amount -= cut;
            if vm.remote <= 1e-9 {
                self.remote_vms_by_rack[rack as usize].remove(&task);
            }
        }
        self.shed_buf = holders;
    }

    /// Drops `task` from the remote-holder index if it holds pool
    /// memory; call *before* clearing or re-racking its `remote`.
    fn unindex_remote(&mut self, task: usize, remote: f64, rack: u32) {
        if remote > 1e-9 {
            self.remote_vms_by_rack[rack as usize].remove(&task);
        }
    }

    /// Adds `task` to the remote-holder index if it now holds pool
    /// memory.
    fn index_remote(&mut self, task: usize, remote: f64, rack: u32) {
        if remote > 1e-9 {
            self.remote_vms_by_rack[rack as usize].insert(task);
        }
    }

    pub(crate) fn arrive(&mut self, trace: &ClusterTrace, task: usize) {
        let t = &trace.tasks()[task];
        let (cpu, mem) = (t.cpu_booked, t.mem_booked);
        let admit = Fit::Admit {
            cpu,
            cpu_used: t.cpu_used,
            mem,
        };
        let host = match self.first_fit(admit) {
            Some(h) => h,
            None => {
                // Wake hosts until the VM fits; as a last resort,
                // overcommit the least-used active host (real clouds
                // queue or overcommit rather than reject booked work).
                let mut found = None;
                loop {
                    if self.wake_one().is_none() {
                        break;
                    }
                    if let Some(h) = self.first_fit(admit) {
                        found = Some(h);
                        break;
                    }
                }
                match found {
                    Some(h) => h,
                    None => match self.pick(Pick::LeastUsed) {
                        Some(h) => {
                            self.report.overcommitted += 1;
                            zombieland_obs::sink::counter_add("sim.overcommitted", 1);
                            h
                        }
                        None => {
                            self.report.dropped += 1;
                            zombieland_obs::sink::counter_add("sim.dropped", 1);
                            zombieland_obs::trace_event!(
                                self.last, "simulator", "drop", "task" => task);
                            return;
                        }
                    },
                }
            }
        };
        let pool = self.pool_free(self.hosts.rack[host]);
        let local = match self.fits(host, cpu, t.cpu_used, mem, pool) {
            Some(l) => l,
            None => {
                // Overcommit fallback: take whatever local memory is left.
                let free = (self.hosts.cap[host] - self.hosts.mem_local[host]).max(0.0);
                mem.min(free)
            }
        };
        let remote = (mem - local).max(0.0);
        let rack = self.hosts.rack[host];
        let taken = if remote > 1e-9 {
            self.take_remote(rack, remote)
        } else {
            0.0
        };
        let used = t.cpu_used;
        self.update_host(host, |h| {
            *h.cpu_booked += cpu;
            *h.cpu_used += used;
            *h.mem_local += local;
            h.vms.push(task);
        });
        self.vms[task] = Some(VmState {
            host,
            local_mem: local,
            remote: taken,
            parked: 0.0,
        });
        self.index_remote(task, taken, rack);
        zombieland_obs::sink::counter_add("sim.arrivals", 1);
        zombieland_obs::trace_event!(self.last, "simulator", "arrive",
            "task" => task, "host" => host);
    }

    pub(crate) fn depart(&mut self, trace: &ClusterTrace, task: usize) {
        let Some(vm) = self.vms[task].take() else {
            return; // Dropped at arrival.
        };
        let t = &trace.tasks()[task];
        let (cpu, used, local) = (t.cpu_booked, t.cpu_used, vm.local_mem);
        self.update_host(vm.host, |h| {
            *h.cpu_booked = (*h.cpu_booked - cpu).max(0.0);
            *h.cpu_used = (*h.cpu_used - used).max(0.0);
            *h.mem_local = (*h.mem_local - local).max(0.0);
            h.vms.retain(|&v| v != task);
        });
        let rack = self.hosts.rack[vm.host];
        self.unindex_remote(task, vm.remote, rack);
        self.give_back_remote(rack, vm.remote);
        self.parked_mem = (self.parked_mem - vm.parked).max(0.0);
        zombieland_obs::sink::counter_add("sim.departures", 1);
        zombieland_obs::trace_event!(self.last, "simulator", "depart",
            "task" => task, "host" => vm.host);
    }

    /// Invariant sweep: VM lists, booked sums, pool accounting and the
    /// index sets all agree. O(hosts × vms), so it runs only
    /// when [`validate_enabled`] says so (debug builds by default, the
    /// scenario `validate` switch opts release builds in).
    fn validate(&self) {
        let mut host_vms = 0usize;
        for i in 0..self.hosts.len() {
            let state = self.hosts.state[i];
            let rack = self.hosts.rack[i];
            host_vms += self.hosts.vms[i].len();
            for &t in &self.hosts.vms[i] {
                assert_eq!(
                    self.vms[t].as_ref().map(|v| v.host),
                    Some(i),
                    "vm {t} listed on host {i} but placed elsewhere"
                );
            }
            assert!(self.hosts.cpu_booked[i] >= -1e-6 && self.hosts.mem_local[i] >= -1e-6);
            if state != HState::Zombie {
                assert!(
                    self.hosts.remote_allocated[i] <= 1e-6,
                    "non-zombie lends: host {i} {:?} holds {}",
                    state,
                    self.hosts.remote_allocated[i]
                );
            }
            // The index sets mirror host state exactly.
            assert_eq!(
                self.active.contains(&i),
                state == HState::Active,
                "host {i}: active-set membership disagrees with {state:?}"
            );
            assert_eq!(
                self.stack
                    .contains((booked_key(self.hosts.cpu_booked[i]), i)),
                state == HState::Active,
                "host {i}: booked-key membership disagrees with {state:?} \
                 (or the indexed key drifted from the live value)"
            );
            assert_eq!(
                self.by_used.contains(&(self.used_key[i], i)),
                state == HState::Active,
                "host {i}: used-key membership disagrees with {state:?}"
            );
            if state == HState::Active && !self.used_dirty_flag[i] {
                assert_eq!(
                    self.used_key[i],
                    total_key(self.hosts.cpu_used[i]),
                    "host {i}: clean used key drifted from the live load"
                );
            }
            assert_eq!(
                self.nonactive.contains(&i),
                state != HState::Active,
                "host {i}: nonactive-set membership disagrees with {state:?}"
            );
            assert_eq!(
                self.zombies_by_rack[rack as usize].contains(&i),
                state == HState::Zombie,
                "host {i}: rack {rack} zombie-set membership disagrees with {state:?}"
            );
        }
        // The stacking order holds exactly the active hosts, in
        // well-formed blocks whose summaries match their hosts.
        assert_eq!(
            self.stack.len(),
            self.active.len(),
            "stacking order covers exactly the active hosts"
        );
        self.stack.check(|i| self.hosts.load(i));
        assert_eq!(
            self.by_used.len(),
            self.active.len(),
            "used-ordered set covers exactly the active hosts"
        );
        let indexed: usize = self.zombies_by_rack.iter().map(|s| s.len()).sum();
        let zombies = self
            .hosts
            .state
            .iter()
            .filter(|&&s| s == HState::Zombie)
            .count();
        assert_eq!(indexed, zombies, "zombie index covers every zombie once");
        let live = self.vms.iter().filter(|v| v.is_some()).count();
        assert_eq!(host_vms, live, "every live VM is on exactly one host");
        // The capacity column matches the generation column exactly.
        for i in 0..self.hosts.len() {
            let expected = match zombieland_trace::generations::by_year(self.hosts.generation[i]) {
                Some(g) => {
                    self.cfg.usable_mem * (g.gib_per_socket() as f64 / REFERENCE_GIB_PER_SOCKET)
                }
                None => self.cfg.usable_mem,
            };
            assert_eq!(
                self.hosts.cap[i].to_bits(),
                expected.to_bits(),
                "host {i}: capacity drifted from its generation ({})",
                self.hosts.generation[i]
            );
        }
        let vm_remote: f64 = self.vms.iter().flatten().map(|v| v.remote).sum();
        if self.pools_host_memory() {
            let host_remote: f64 = self.hosts.remote_allocated.iter().sum();
            assert!(
                (vm_remote - host_remote).abs() < 1e-3,
                "pool accounting: vms {vm_remote} vs hosts {host_remote}"
            );
            assert!(
                self.cxl_allocated_total <= 1e-9,
                "zombie backend booked the shared tier: {}",
                self.cxl_allocated_total
            );
        } else {
            assert!(
                (vm_remote - self.cxl_allocated_total).abs() < 1e-3,
                "pool accounting: vms {vm_remote} vs shared tier {}",
                self.cxl_allocated_total
            );
            let mut per_rack = 0.0;
            for (r, &alloc) in self.cxl_allocated.iter().enumerate() {
                assert!(
                    (-1e-6..=self.cfg.cxl_capacity + 1e-6).contains(&alloc),
                    "rack {r} shared-tier allocation {alloc} outside \
                     [0, {}]",
                    self.cfg.cxl_capacity
                );
                per_rack += alloc;
            }
            assert!(
                (per_rack - self.cxl_allocated_total).abs() < 1e-3,
                "shared-tier running total drifted: {per_rack} vs {}",
                self.cxl_allocated_total
            );
        }
        // The remote-holder index matches the VMs exactly.
        for (task, vm) in self.vms.iter().enumerate() {
            let expected = vm.as_ref().filter(|v| v.remote > 1e-9).map(|v| v.host);
            for (r, set) in self.remote_vms_by_rack.iter().enumerate() {
                let should = expected.is_some_and(|h| self.hosts.rack[h] as usize == r);
                assert_eq!(
                    set.contains(&task),
                    should,
                    "task {task}: rack {r} remote-holder membership disagrees"
                );
            }
        }
    }

    /// One consolidation round.
    pub(crate) fn consolidate(&mut self, trace: &ClusterTrace) {
        let policy = self.cfg.policy.consolidation;
        // Oasis first parks idle VMs' cold memory, shrinking footprints.
        if policy.parks_idle_memory() {
            self.oasis_park(trace);
        }

        self.round += 1;
        // Re-key only the hosts whose load changed since the last round.
        // Every other `by_used` entry still carries the key it was last
        // filed under, so the drain is O(changed), not O(active).
        let mut dirty = std::mem::take(&mut self.used_dirty);
        for h in dirty.drain(..) {
            self.used_dirty_flag[h] = false;
            if self.hosts.state[h] != HState::Active {
                // Deactivation already dropped it from the index; a later
                // reactivation re-files it under the live key.
                continue;
            }
            let key = total_key(self.hosts.cpu_used[h]);
            if key != self.used_key[h] {
                let removed = self.by_used.remove(&(self.used_key[h], h));
                debug_assert!(removed, "active host indexed under its stored used key");
                self.by_used.insert((key, h));
                self.used_key[h] = key;
            }
        }
        self.used_dirty = dirty;

        // Underloaded hosts, least loaded first: an ascending walk of the
        // freshly re-keyed `by_used` with an early exit at the threshold,
        // replacing the old full active-set gather + sort. `total_key`
        // orders exactly as `total_cmp`, and ties break on index — the
        // same total order the old `total_cmp().then(cmp)` sort produced.
        // Candidates are snapshot into the buffer before evacuating
        // because try_evacuate itself edits `by_used`.
        let underload = policy.underload_threshold();
        let limit = total_key(underload);
        let mut order = std::mem::take(&mut self.order_buf);
        order.clear();
        order.extend(
            self.by_used
                .range(..(limit, 0))
                .map(|&(_, i)| i)
                .filter(|&i| self.round >= self.cooldown_expiry[i]),
        );

        for &host in &order {
            self.try_evacuate(trace, host);
        }
        self.order_buf = order;

        if self.validate_on {
            self.validate();
        }

        // §4.4: "If the global-mem-ctr holds huge amounts of free memory
        // (e.g. more than the total memory of a rack server), the cloud
        // manager may decide to transition zombie servers to S3." Only
        // zombies serving nothing are demoted (give_back_remote drains
        // the least-loaded ones toward zero), and generous headroom stays
        // in the pool so placements do not start waking zombies.
        if let Some(threshold) = self.cfg.sz_demote_threshold {
            while self.cfg.policy.consolidation.demotes_idle_zombies() {
                // First (lowest-index) idle zombie, as the old full-fleet
                // `position` scan found it.
                match self.pick(Pick::IdleZombie) {
                    Some(i)
                        if self.pool_free_total() - self.usable_mem()
                            >= threshold + self.usable_mem() =>
                    {
                        self.update_host(i, |h| *h.state = HState::Sleeping);
                    }
                    _ => break,
                }
            }
        }
    }

    /// Tries to move every VM off `host`; on success the host suspends
    /// (Sz for zombie-evacuating policies, S3 otherwise).
    ///
    /// Under ZombieStack the host flips into Sz *before* the moves are
    /// planned, so its own memory backs the departing VMs' remote shares
    /// — without this, a memory-bound fleet can never bootstrap the
    /// remote pool (every evacuation would need a pool that only
    /// evacuations can create).
    fn try_evacuate(&mut self, trace: &ClusterTrace, host: usize) {
        let policy = self.cfg.policy.consolidation;
        // A shared-tier backend has no use for Sz lenders: an evacuated
        // host suspends all the way to S3, and reclaiming pooled memory
        // never wakes anyone — that is the CXL trade.
        let zombie_mode = policy.evacuates_to_zombie() && self.pools_host_memory();
        if zombie_mode {
            self.update_host(host, |h| *h.state = HState::Zombie);
        }
        // Resident VM ids go through a persistent buffer instead of a
        // fresh clone per evacuation attempt.
        let mut resident = std::mem::take(&mut self.evac_buf);
        resident.clear();
        resident.extend_from_slice(&self.hosts.vms[host]);
        let mut moves: Vec<PendingMove> = Vec::with_capacity(resident.len());
        let mut ok = true;
        for &task in &resident {
            let t = &trace.tasks()[task];
            let mem = policy
                .migration_footprint(t.mem_booked, self.vms[task].as_ref().map(|v| v.local_mem));
            // Highest-booked fittable target, ties to the lowest index —
            // the old `max_by(...).then(b.cmp(&a))` full scan. Each VM's
            // walk takes a fresh pool snapshot, because each
            // reserve_move shifts the pools.
            let vm = MigrantVm {
                cpu_booked: t.cpu_booked,
                cpu_used: t.cpu_used,
                mem,
                wss: t.mem_used,
            };
            match self.first_fit(Fit::Migrate { vm, skip: host }) {
                Some(tgt) => moves.push(self.reserve_move(trace, task, tgt)),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        self.evac_buf = resident;
        if !ok {
            // Roll back reservations; the host stays up (the aborted
            // transition never left the OS, so no energy is charged).
            for m in moves.into_iter().rev() {
                self.rollback_move(trace, m);
            }
            if zombie_mode {
                // Planning may have parked pool shares on this host (it
                // was briefly a zombie) and the give-backs may have
                // drained its peers instead. Reactivate first, then
                // migrate any residue to the peers; whatever cannot fit
                // sheds to the owning VMs' local backups.
                let stuck = self.hosts.remote_allocated[host];
                let rack = self.hosts.rack[host];
                self.hosts.remote_allocated[host] = 0.0;
                self.update_host(host, |h| *h.state = HState::Active);
                if stuck > 1e-9 {
                    let moved = self.take_remote(rack, stuck);
                    self.shed_vm_remote(rack, stuck - moved);
                }
            }
            return;
        }
        // Commit: detach every VM from the source.
        for m in &moves {
            let t = &trace.tasks()[m.task];
            let (cpu, used, old_local, task) = (t.cpu_booked, t.cpu_used, m.old_local, m.task);
            self.update_host(host, |h| {
                *h.cpu_booked = (*h.cpu_booked - cpu).max(0.0);
                *h.cpu_used = (*h.cpu_used - used).max(0.0);
                *h.mem_local = (*h.mem_local - old_local).max(0.0);
                h.vms.retain(|&v| v != task);
            });
            self.report.migrations += 1;
        }
        zombieland_obs::sink::counter_add("sim.migrations", moves.len() as u64);
        zombieland_obs::trace_event!(self.last, "simulator", "evacuate",
            "host" => host, "moves" => moves.len(),
            "to_zombie" => zombie_mode);
        if !zombie_mode {
            self.update_host(host, |h| {
                debug_assert!(h.vms.is_empty());
                *h.state = HState::Sleeping;
            });
        }
        self.charge_transition(host, HState::Active, HState::Sleeping);
    }

    /// Books a pending move on the target host (two-phase evacuate). The
    /// source host is *not* touched yet; commit or rollback settles it.
    fn reserve_move(&mut self, trace: &ClusterTrace, task: usize, target: usize) -> PendingMove {
        let t = &trace.tasks()[task];
        let free_local = (self.hosts.cap[target] - self.hosts.mem_local[target]).max(0.0);
        let vm = self.vms[task].as_mut().expect("placed");
        let (old_local, old_remote, source) = (vm.local_mem, vm.remote, vm.host);
        let mem = t.mem_booked - vm.parked;
        let new_local = mem.min(free_local);
        vm.local_mem = new_local;
        vm.host = target;
        let (cpu, used) = (t.cpu_booked, t.cpu_used);
        self.update_host(target, |h| {
            *h.cpu_booked += cpu;
            *h.cpu_used += used;
            *h.mem_local += new_local;
            h.vms.push(task);
        });
        // Remote shares are rack-local: return the source rack's shares
        // and take the whole new requirement from the target's rack.
        let source_rack = self.hosts.rack[source];
        let target_rack = self.hosts.rack[target];
        self.unindex_remote(task, old_remote, source_rack);
        if old_remote > 1e-9 {
            self.give_back_remote(source_rack, old_remote);
        }
        let need = (mem - new_local).max(0.0);
        let taken = if need > 1e-9 {
            self.take_remote(target_rack, need)
        } else {
            0.0
        };
        self.vms[task].as_mut().expect("placed").remote = taken;
        self.index_remote(task, taken, target_rack);
        PendingMove {
            task,
            source,
            target,
            old_local,
            old_remote,
            new_local,
            taken,
        }
    }

    /// Undoes a reservation.
    fn rollback_move(&mut self, trace: &ClusterTrace, m: PendingMove) {
        let t = &trace.tasks()[m.task];
        let (cpu, used, new_local, task) = (t.cpu_booked, t.cpu_used, m.new_local, m.task);
        self.update_host(m.target, |h| {
            *h.cpu_booked = (*h.cpu_booked - cpu).max(0.0);
            *h.cpu_used = (*h.cpu_used - used).max(0.0);
            *h.mem_local = (*h.mem_local - new_local).max(0.0);
            h.vms.retain(|&v| v != task);
        });
        let target_rack = self.hosts.rack[m.target];
        self.unindex_remote(m.task, m.taken, target_rack);
        if m.taken > 1e-9 {
            self.give_back_remote(target_rack, m.taken);
        }
        // Best effort: re-take the old shares in the source rack (the
        // pool may have shifted; any shortfall surfaces as pool pressure
        // on the next placement check, never as lost accounting).
        let source_rack = self.hosts.rack[m.source];
        let retaken = if m.old_remote > 1e-9 {
            self.take_remote(source_rack, m.old_remote)
        } else {
            0.0
        };
        let vm = self.vms[m.task].as_mut().expect("placed");
        vm.host = m.source;
        vm.local_mem = m.old_local;
        vm.remote = retaken;
        self.index_remote(m.task, retaken, source_rack);
    }

    /// The migration feasibility check, judged by the policy. Vanilla
    /// Neat "places a VM on a server only if the latter holds all the
    /// resources booked by the VM"; ZombieStack replaces that with the
    /// 30 %-of-WSS rule and packs by *actual* CPU usage (overload
    /// detection guards the overcommit), which is where most of its
    /// extra consolidation comes from.
    fn consolidation_fits(&self, target: usize, vm: &MigrantVm, pool: f64) -> bool {
        if self.hosts.state[target] != HState::Active {
            return false;
        }
        self.cfg.policy.consolidation.accepts_migration(
            &self.hosts.load(target),
            vm,
            pool,
            self.cfg.cpu_fill_cap,
        )
    }

    /// Oasis: park the cold memory of idle VMs on underused hosts.
    fn oasis_park(&mut self, trace: &ClusterTrace) {
        for host in 0..self.hosts.len() {
            if self.hosts.state[host] != HState::Active
                || self.hosts.cpu_used[host] >= self.oasis.underload_threshold
            {
                continue;
            }
            // Index-walk the VM list in place: parking never edits
            // `vms`, so no defensive clone is needed.
            for vi in 0..self.hosts.vms[host].len() {
                let task = self.hosts.vms[host][vi];
                let t = &trace.tasks()[task];
                if t.cpu_used >= self.oasis.idle_vm_threshold {
                    continue;
                }
                let vm = self.vms[task].as_mut().expect("placed");
                if vm.parked > 0.0 {
                    continue; // Already parked.
                }
                // Partial migration: the footprint shrinks to the working
                // set; the rest parks on memory servers.
                let park = (vm.local_mem - t.mem_used).max(0.0);
                if park <= 1e-9 {
                    continue;
                }
                vm.parked = park;
                vm.local_mem -= park;
                self.parked_mem += park;
                self.report.peak_parked = self.report.peak_parked.max(self.parked_mem);
                self.update_host(host, |h| {
                    *h.mem_local = (*h.mem_local - park).max(0.0);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zombieland_simcore::DetRng;

    /// The seek's soundness: a host the walk skips (its key sorts before
    /// the seek key) fails `booked + cpu > ceiling + 1e-9`, for random
    /// loads and for loads pinned at and around the seek bound.
    #[test]
    fn seek_skips_only_hosts_over_the_ceiling() {
        let mut rng = DetRng::new(0x5eec);
        let mut skipped = 0;
        for _ in 0..20_000 {
            let ceiling = [1.0, 1.3, rng.range_f64(0.1, 2.0)][rng.below(3) as usize];
            let cpu = rng.range_f64(0.0, 1.5);
            let from = seek_key(Some(ceiling), cpu);
            let bound = ceiling + 1e-9 - cpu;
            let mut loads = vec![
                rng.range_f64(0.0, 3.0),
                bound,
                bound.next_up(),
                bound.next_down(),
                bound + SEEK_MARGIN,
                (bound + SEEK_MARGIN).next_up(),
                -0.0,
                0.0,
            ];
            loads.extend((0..4).map(|_| bound + rng.range_f64(-1e-11, 1e-11)));
            for booked in loads {
                if booked_key(booked) < from {
                    skipped += 1;
                    assert!(
                        booked + cpu > ceiling + 1e-9,
                        "skipped a fitting host: booked {booked} cpu {cpu} ceiling {ceiling}"
                    );
                }
            }
        }
        assert!(skipped > 10_000, "the seek skips hosts at all: {skipped}");
    }

    #[test]
    fn seek_walks_everything_without_a_usable_bound() {
        assert_eq!(seek_key(None, 0.5), 0);
        assert_eq!(seek_key(Some(1.0), f64::NAN), 0);
        // The guard holds for ordinary bookings, so the seek is live.
        assert_ne!(seek_key(Some(1.0), 0.25), 0);
        // A booking far larger than the ceiling seeks to non-positive
        // loads, still skipping every host that holds any booking.
        let from = seek_key(Some(1.0), 5.0);
        assert!(booked_key(1e-6) < from && booked_key(-5.0) >= from);
    }
}
