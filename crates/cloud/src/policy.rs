//! The §5 rule set: policy extension points and the static registry.
//!
//! Both drivers of the paper's policies decide through this module: the
//! datacenter simulator (`zombieland-simulator`, whose `dc` module holds
//! the mechanics: host accounting, the remote pool, the two-phase
//! evacuation protocol) and the live rack binding
//! [`crate::stack::ZombieStack`]. Everything a *policy* decides goes
//! through two trait objects:
//!
//! - [`PlacementPolicy`] — can an active host admit an arriving VM, and
//!   which host to wake when none can.
//! - [`ConsolidationPolicy`] — whether/how periodic consolidation runs:
//!   the underload threshold, the migration feasibility rule, what an
//!   emptied host becomes (S3 or Sz) and whether idle zombies demote.
//!
//! Each §5 threshold is one named constant below, beside the rules that
//! read it. The rules keep the simulator's exact admission arithmetic —
//! same epsilons, same evaluation order — because its reports are pinned
//! bit for bit (see `tests/policy_conformance.rs` and
//! `tests/golden_report.rs`).
//!
//! Policies register in [`REGISTRY`] under a CLI key; [`lookup`]
//! resolves names case-insensitively, which is how `--policy` and
//! `--list-policies` see them. Adding a policy means implementing the
//! traits and appending a [`PolicySpec`] — no simulator edits.

use core::fmt;

/// A candidate host's load, precomputed by the driver (the simulator or
/// the live binding) for admission checks. Capacities are normalized to
/// "one server" = 1.0 on both axes.
#[derive(Clone, Copy, Debug)]
pub struct HostLoad {
    /// Booked CPU of resident VMs.
    pub cpu_booked: f64,
    /// Actual CPU utilization.
    pub cpu_used: f64,
    /// Free local memory after the hypervisor reserve,
    /// `(usable_mem − mem_local).max(0)`.
    pub free_local: f64,
}

/// Which host to wake when placement fails on every active host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakePreference {
    /// The first (lowest-index) sleeping or zombie host.
    FirstSleeping,
    /// The zombie lending the least remote memory (`GS_get_lru_zombie`),
    /// falling back to the first sleeping host.
    IdleZombieFirst,
}

/// Placement-side policy decisions.
pub trait PlacementPolicy: Send + Sync + fmt::Debug {
    /// Whether `host` can admit an arriving VM booking `cpu`/`mem` with
    /// actual usage `cpu_used`, given `pool` free remote memory in the
    /// host's rack. Returns the local memory share the VM would take, or
    /// `None` to reject.
    ///
    /// Must be *monotone*: if `admit` accepts a host, it accepts every
    /// host that is no worse on each axis — `cpu_booked` and `cpu_used`
    /// `<=`, `free_local` and `pool` `>=` (numerically, so `-0.0` and
    /// `0.0` are the same value). The admission scan asks once per block
    /// of the stacking order about the block's best case (its least
    /// booking and usage, its most free memory, the scan's largest pool)
    /// and skips the block without asking about its hosts when that is
    /// rejected. Comparisons of sums of the arguments are monotone as
    /// written, since float rounding is. `tests/policy_monotone.rs`
    /// checks every registered policy.
    fn admit(&self, host: &HostLoad, cpu: f64, cpu_used: f64, mem: f64, pool: f64) -> Option<f64>;

    /// Whether placement consumes the rack-local remote pool (whether
    /// `admit` reads its `pool` argument). Descriptive only: the
    /// simulator keeps every rack's pool current under any placement.
    fn uses_remote_pool(&self) -> bool {
        false
    }

    /// A booked-CPU ceiling `c` such that [`PlacementPolicy::admit`]
    /// returns `None` for every host with `cpu_booked + cpu > c + 1e-9`
    /// (evaluated in that order, in `f64`). The admission scan seeks
    /// past those hosts without calling `admit`, so the ceiling must be
    /// *sound*: it may only skip hosts the policy would reject. `None`
    /// (the default) walks every active host.
    fn booked_ceiling(&self) -> Option<f64> {
        None
    }

    /// Which non-active host to wake when no active host fits.
    fn wake_preference(&self) -> WakePreference {
        WakePreference::FirstSleeping
    }
}

/// Consolidation-side policy decisions.
pub trait ConsolidationPolicy: Send + Sync + fmt::Debug {
    /// Whether periodic consolidation runs at all (the AlwaysOn baseline
    /// and the NoConsolidate toy say no).
    fn enabled(&self) -> bool {
        true
    }

    /// Hosts below this actual CPU utilization are evacuation candidates.
    fn underload_threshold(&self) -> f64;

    /// Whether idle VMs' cold memory parks on memory servers before the
    /// evacuation pass (Oasis partial migration).
    fn parks_idle_memory(&self) -> bool {
        false
    }

    /// What an emptied host becomes: `true` → Sz (its memory joins the
    /// rack pool), `false` → S3.
    fn evacuates_to_zombie(&self) -> bool {
        false
    }

    /// Whether zombies serving nothing demote to S3 when the free pool
    /// holds generous headroom (§4.4).
    fn demotes_idle_zombies(&self) -> bool {
        false
    }

    /// The memory footprint a migrating VM must re-place: `booked` is its
    /// booking, `local` its current local share (`None` if untracked).
    /// Vanilla consolidators move the local share; ZombieStack re-places
    /// the full booking (the 30 %-of-WSS rule re-splits it).
    fn migration_footprint(&self, booked: f64, local: Option<f64>) -> f64 {
        local.unwrap_or(booked)
    }

    /// Whether `host` can receive the migrating VM `vm`. `pool` is the
    /// free remote pool of the host's rack, `cpu_fill_cap` the
    /// configured booked-CPU packing cap.
    ///
    /// Must be *monotone* in `host` and `pool` for a fixed `vm` and
    /// `cpu_fill_cap`, as [`PlacementPolicy::admit`] is: the migration
    /// scan skips every block of the stacking order whose best case is
    /// rejected.
    fn accepts_migration(
        &self,
        host: &HostLoad,
        vm: &MigrantVm,
        pool: f64,
        cpu_fill_cap: f64,
    ) -> bool;

    /// A booked-CPU ceiling `c` such that
    /// [`ConsolidationPolicy::accepts_migration`] returns `false` for
    /// every host with `cpu_booked + vm.cpu_booked > c + 1e-9` under the
    /// same `cpu_fill_cap`. The migration scan seeks past those hosts,
    /// so the ceiling must be *sound*: it may only skip hosts the policy
    /// would reject. `None` (the default) walks every active host.
    fn booked_ceiling(&self, _cpu_fill_cap: f64) -> Option<f64> {
        None
    }
}

/// A migrating VM's demand, as judged by
/// [`ConsolidationPolicy::accepts_migration`].
#[derive(Clone, Copy, Debug)]
pub struct MigrantVm {
    /// Booked CPU share.
    pub cpu_booked: f64,
    /// Actual CPU utilization.
    pub cpu_used: f64,
    /// Memory footprint to re-place on the target (already filtered
    /// through [`ConsolidationPolicy::migration_footprint`]).
    pub mem: f64,
    /// Estimated working-set size (the 30 %-of-WSS rule's input).
    pub wss: f64,
}

// ---------------------------------------------------------------------
// Implementations.
// ---------------------------------------------------------------------

/// ZombieStack's bounded booking overcommit: booked CPU may reach 130 %
/// of a server, in placement and consolidation alike.
const ZOMBIE_BOOKED_CAP: f64 = 1.3;

/// ZombieStack's actual-usage cap: a host's summed CPU utilization may
/// reach 85 %, in placement and consolidation alike.
const ZOMBIE_USAGE_CAP: f64 = 0.85;

/// The 50 % rule (§5.1, §6.3): ZombieStack places a VM only where at
/// least half its booked memory is local.
const ZOMBIE_MIN_LOCAL_FRACTION: f64 = 0.5;

/// The 30 %-of-WSS rule (§5.2): a migrating VM needs 30 % of its working
/// set locally on the target; remote memory covers the rest.
const ZOMBIE_MIGRATION_WSS_FRACTION: f64 = 0.30;

/// Hosts below this actual CPU utilization are evacuation candidates
/// (Neat's paper setup, shared by every consolidating policy).
const UNDERLOAD_THRESHOLD: f64 = 0.20;

/// Vanilla Nova placement: the full booking must fit locally.
#[derive(Debug)]
pub struct FullBookingPlacement;

impl PlacementPolicy for FullBookingPlacement {
    fn admit(&self, h: &HostLoad, cpu: f64, _cpu_used: f64, mem: f64, _pool: f64) -> Option<f64> {
        // The classic "all booked memory local".
        if h.cpu_booked + cpu > 1.0 + 1e-9 || h.free_local + 1e-9 < mem {
            None
        } else {
            Some(mem)
        }
    }

    fn booked_ceiling(&self) -> Option<f64> {
        Some(1.0)
    }
}

/// ZombieStack placement: usage-aware CPU admission with a bounded
/// booking overcommit, the 50 % local rule, remote share from the rack
/// pool.
#[derive(Debug)]
pub struct ZombieStackPlacement;

impl PlacementPolicy for ZombieStackPlacement {
    fn admit(&self, h: &HostLoad, cpu: f64, cpu_used: f64, mem: f64, pool: f64) -> Option<f64> {
        // Usage-aware CPU admission with a bounded booking overcommit,
        // mirroring the consolidation rule, so that arrivals can land on
        // usage-packed hosts instead of waking zombies.
        if h.cpu_used + cpu_used > ZOMBIE_USAGE_CAP + 1e-9
            || h.cpu_booked + cpu > ZOMBIE_BOOKED_CAP + 1e-9
        {
            return None;
        }
        let local = mem.min(h.free_local);
        if local + 1e-9 < ZOMBIE_MIN_LOCAL_FRACTION * mem {
            return None;
        }
        if mem - local > pool + 1e-9 {
            return None;
        }
        Some(local)
    }

    fn uses_remote_pool(&self) -> bool {
        true
    }

    fn booked_ceiling(&self) -> Option<f64> {
        Some(ZOMBIE_BOOKED_CAP)
    }

    fn wake_preference(&self) -> WakePreference {
        WakePreference::IdleZombieFirst
    }
}

/// Consolidation disabled (AlwaysOn baseline, NoConsolidate toy).
#[derive(Debug)]
pub struct DisabledConsolidation;

impl ConsolidationPolicy for DisabledConsolidation {
    fn enabled(&self) -> bool {
        false
    }

    fn underload_threshold(&self) -> f64 {
        UNDERLOAD_THRESHOLD
    }

    fn accepts_migration(
        &self,
        _host: &HostLoad,
        _vm: &MigrantVm,
        _pool: f64,
        _cpu_fill_cap: f64,
    ) -> bool {
        false
    }
}

/// Vanilla Neat consolidation: full-booking migration targets, emptied
/// hosts suspend to S3.
#[derive(Debug)]
pub struct VanillaNeatConsolidation {
    /// Oasis layers partial migration on top of the same planner.
    parks: bool,
}

impl ConsolidationPolicy for VanillaNeatConsolidation {
    fn underload_threshold(&self) -> f64 {
        UNDERLOAD_THRESHOLD
    }

    fn parks_idle_memory(&self) -> bool {
        self.parks
    }

    fn accepts_migration(
        &self,
        h: &HostLoad,
        vm: &MigrantVm,
        _pool: f64,
        cpu_fill_cap: f64,
    ) -> bool {
        h.cpu_booked + vm.cpu_booked <= cpu_fill_cap + 1e-9 && h.free_local + 1e-9 >= vm.mem
    }

    fn booked_ceiling(&self, cpu_fill_cap: f64) -> Option<f64> {
        Some(cpu_fill_cap)
    }
}

/// ZombieStack consolidation: the 30 %-of-WSS rule, usage-based CPU
/// packing, emptied hosts enter Sz, idle zombies demote to S3.
#[derive(Debug)]
pub struct ZombieStackConsolidation;

impl ConsolidationPolicy for ZombieStackConsolidation {
    fn underload_threshold(&self) -> f64 {
        UNDERLOAD_THRESHOLD
    }

    fn evacuates_to_zombie(&self) -> bool {
        true
    }

    fn demotes_idle_zombies(&self) -> bool {
        true
    }

    fn migration_footprint(&self, booked: f64, _local: Option<f64>) -> f64 {
        // The 30 %-of-WSS rule re-splits the whole booking on the target.
        booked
    }

    fn accepts_migration(
        &self,
        h: &HostLoad,
        vm: &MigrantVm,
        pool: f64,
        _cpu_fill_cap: f64,
    ) -> bool {
        // Usage-based CPU packing with a bounded booking overcommit.
        if h.cpu_used + vm.cpu_used > ZOMBIE_USAGE_CAP + 1e-9
            || h.cpu_booked + vm.cpu_booked > ZOMBIE_BOOKED_CAP + 1e-9
        {
            return false;
        }
        // The 30 %-of-WSS rule.
        let local = vm.mem.min(h.free_local);
        local + 1e-9 >= ZOMBIE_MIGRATION_WSS_FRACTION * vm.wss && (vm.mem - local) <= pool + 1e-9
    }

    fn booked_ceiling(&self, _cpu_fill_cap: f64) -> Option<f64> {
        Some(ZOMBIE_BOOKED_CAP)
    }
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

/// One registered policy: its CLI key, figure label and the two
/// strategy objects the simulation loop calls through.
pub struct PolicySpec {
    /// CLI name (lowercase; `--policy <key>` and [`lookup`]).
    pub key: &'static str,
    /// Figure/report label (the simulator reports it as the run's policy).
    pub label: &'static str,
    /// One-line description for `--list-policies`.
    pub summary: &'static str,
    /// Placement-side decisions.
    pub placement: &'static dyn PlacementPolicy,
    /// Consolidation-side decisions.
    pub consolidation: &'static dyn ConsolidationPolicy,
}

impl fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicySpec")
            .field("key", &self.key)
            .finish()
    }
}

/// The AlwaysOn baseline.
pub static ALWAYS_ON: PolicySpec = PolicySpec {
    key: "alwayson",
    label: "AlwaysOn",
    summary: "no power management; the savings baseline",
    placement: &FullBookingPlacement,
    consolidation: &DisabledConsolidation,
};

/// Vanilla OpenStack Neat.
pub static NEAT: PolicySpec = PolicySpec {
    key: "neat",
    label: "Neat",
    summary: "vanilla Neat consolidation; emptied hosts suspend to S3",
    placement: &FullBookingPlacement,
    consolidation: &VanillaNeatConsolidation { parks: false },
};

/// Oasis hybrid consolidation.
pub static OASIS: PolicySpec = PolicySpec {
    key: "oasis",
    label: "Oasis",
    summary: "Neat plus partial migration of idle VMs onto memory servers",
    placement: &FullBookingPlacement,
    consolidation: &VanillaNeatConsolidation { parks: true },
};

/// The paper's system.
pub static ZOMBIE_STACK: PolicySpec = PolicySpec {
    key: "zombiestack",
    label: "ZombieStack",
    summary: "50% local placement, 30%-of-WSS consolidation, Sz zombies lend the rack pool",
    placement: &ZombieStackPlacement,
    consolidation: &ZombieStackConsolidation,
};

/// A toy policy demonstrating registry extension: AlwaysOn's mechanics
/// under its own name (placement without consolidation).
pub static NO_CONSOLIDATE: PolicySpec = PolicySpec {
    key: "noconsolidate",
    label: "NoConsolidate",
    summary: "toy: vanilla placement with consolidation switched off",
    placement: &FullBookingPlacement,
    consolidation: &DisabledConsolidation,
};

/// Every registered policy, in listing order (paper policies first).
pub static REGISTRY: [&PolicySpec; 5] = [&ALWAYS_ON, &NEAT, &OASIS, &ZOMBIE_STACK, &NO_CONSOLIDATE];

/// Resolves a policy by CLI key or figure label, case-insensitively.
pub fn lookup(name: &str) -> Option<&'static PolicySpec> {
    REGISTRY
        .iter()
        .copied()
        .find(|s| s.key.eq_ignore_ascii_case(name) || s.label.eq_ignore_ascii_case(name))
}

/// The resource-management policies of the paper's evaluation, as a
/// closed enum for call sites that enumerate them (Fig. 10 grids,
/// tests). Each maps onto its registry entry via [`PolicyKind::spec`];
/// policies outside the paper (like [`NO_CONSOLIDATE`]) exist only in
/// the registry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// No power management (baseline).
    AlwaysOn,
    /// Vanilla Neat consolidation (S3 suspends).
    Neat,
    /// Oasis hybrid consolidation (partial migration + memory servers).
    Oasis,
    /// The paper's system.
    ZombieStack,
}

impl PolicyKind {
    /// The registry entry implementing this policy.
    pub fn spec(self) -> &'static PolicySpec {
        match self {
            PolicyKind::AlwaysOn => &ALWAYS_ON,
            PolicyKind::Neat => &NEAT,
            PolicyKind::Oasis => &OASIS,
            PolicyKind::ZombieStack => &ZOMBIE_STACK,
        }
    }

    /// Figure label.
    pub fn name(self) -> &'static str {
        self.spec().label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_keys_are_unique_and_lowercase() {
        for (i, s) in REGISTRY.iter().enumerate() {
            assert_eq!(s.key, s.key.to_ascii_lowercase(), "{}", s.key);
            for other in &REGISTRY[i + 1..] {
                assert_ne!(s.key, other.key);
                assert_ne!(s.label, other.label);
            }
        }
    }

    #[test]
    fn lookup_is_case_insensitive_over_key_and_label() {
        assert!(std::ptr::eq(lookup("zombiestack").unwrap(), &ZOMBIE_STACK));
        assert!(std::ptr::eq(lookup("ZombieStack").unwrap(), &ZOMBIE_STACK));
        assert!(std::ptr::eq(lookup("ALWAYSON").unwrap(), &ALWAYS_ON));
        assert!(std::ptr::eq(
            lookup("NoConsolidate").unwrap(),
            &NO_CONSOLIDATE
        ));
        assert!(lookup("nosuchpolicy").is_none());
    }

    #[test]
    fn every_kind_resolves_to_its_registry_entry() {
        for kind in [
            PolicyKind::AlwaysOn,
            PolicyKind::Neat,
            PolicyKind::Oasis,
            PolicyKind::ZombieStack,
        ] {
            let spec = kind.spec();
            assert!(std::ptr::eq(lookup(spec.key).unwrap(), spec));
            assert_eq!(kind.name(), spec.label);
        }
    }

    #[test]
    fn paper_policy_shape() {
        assert!(!ALWAYS_ON.consolidation.enabled());
        assert!(!NO_CONSOLIDATE.consolidation.enabled());
        assert!(NEAT.consolidation.enabled());
        assert!(OASIS.consolidation.parks_idle_memory());
        assert!(!NEAT.consolidation.parks_idle_memory());
        assert!(ZOMBIE_STACK.consolidation.evacuates_to_zombie());
        assert!(ZOMBIE_STACK.consolidation.demotes_idle_zombies());
        assert!(ZOMBIE_STACK.placement.uses_remote_pool());
        assert_eq!(
            ZOMBIE_STACK.placement.wake_preference(),
            WakePreference::IdleZombieFirst
        );
        assert_eq!(
            NEAT.placement.wake_preference(),
            WakePreference::FirstSleeping
        );
    }

    fn load(cpu_booked: f64, cpu_used: f64, free_local: f64) -> HostLoad {
        HostLoad {
            cpu_booked,
            cpu_used,
            free_local,
        }
    }

    #[test]
    fn vanilla_needs_full_local_memory() {
        let h = load(0.0, 0.0, 0.3);
        assert_eq!(NEAT.placement.admit(&h, 0.2, 0.1, 0.5, 10.0), None);
        // ZombieStack takes it: 0.3 local (>= 50 % of 0.5) + 0.2 remote.
        assert_eq!(
            ZOMBIE_STACK.placement.admit(&h, 0.2, 0.1, 0.5, 10.0),
            Some(0.3)
        );
    }

    #[test]
    fn fifty_percent_rule_enforced() {
        // Only 0.2 free; a 0.5 VM needs >= 0.25 local.
        let z = ZOMBIE_STACK.placement;
        assert_eq!(z.admit(&load(0.0, 0.0, 0.2), 0.1, 0.05, 0.5, 10.0), None);
        assert_eq!(
            z.admit(&load(0.0, 0.0, 0.25), 0.1, 0.05, 0.5, 10.0),
            Some(0.25)
        );
    }

    #[test]
    fn remote_pool_must_cover_the_rest() {
        let z = ZOMBIE_STACK.placement;
        let h = load(0.0, 0.0, 0.3);
        assert_eq!(z.admit(&h, 0.1, 0.05, 0.5, 0.1), None, "pool too small");
        assert_eq!(z.admit(&h, 0.1, 0.05, 0.5, 0.2), Some(0.3));
    }

    #[test]
    fn local_memory_preferred_over_remote() {
        // The rule takes as much local memory as the host can give.
        let z = ZOMBIE_STACK.placement;
        assert_eq!(
            z.admit(&load(0.0, 0.0, 0.8), 0.1, 0.05, 0.5, 10.0),
            Some(0.5)
        );
    }

    #[test]
    fn zombie_placement_caps_booking_and_usage() {
        let z = ZOMBIE_STACK.placement;
        // Booking may pass one server, up to 1.3.
        assert_eq!(
            z.admit(&load(1.1, 0.2, 1.0), 0.1, 0.05, 0.1, 0.0),
            Some(0.1)
        );
        assert_eq!(z.admit(&load(1.25, 0.2, 1.0), 0.1, 0.05, 0.1, 0.0), None);
        // Actual usage stops at 0.85.
        assert_eq!(
            z.admit(&load(0.5, 0.8, 1.0), 0.1, 0.05, 0.1, 0.0),
            Some(0.1)
        );
        assert_eq!(z.admit(&load(0.5, 0.8, 1.0), 0.1, 0.1, 0.1, 0.0), None);
        // Vanilla placement keeps the whole booking under one server.
        assert_eq!(
            NEAT.placement
                .admit(&load(0.95, 0.0, 1.0), 0.1, 0.0, 0.1, 0.0),
            None
        );
    }

    #[test]
    fn zombiestack_thirty_percent_rule() {
        // Target with 0.2 free memory; the VM books 0.5, its WSS is 0.4.
        let h = load(0.4, 0.3, 0.2);
        let vm = |footprint| MigrantVm {
            cpu_booked: 0.2,
            cpu_used: 0.16,
            mem: footprint,
            wss: 0.4,
        };
        // Vanilla needs the 0.5 footprint free: rejected.
        let vanilla = NEAT.consolidation;
        assert!(!vanilla.accepts_migration(
            &h,
            &vm(vanilla.migration_footprint(0.5, None)),
            10.0,
            1.0
        ));
        // ZombieStack needs 0.3 x 0.4 = 0.12 local: accepted...
        let z = ZOMBIE_STACK.consolidation;
        let migrant = vm(z.migration_footprint(0.5, Some(0.5)));
        assert!(z.accepts_migration(&h, &migrant, 10.0, 1.0));
        // ...but not when the pool cannot take the 0.3 overflow.
        assert!(!z.accepts_migration(&h, &migrant, 0.1, 1.0));
        // Nor below 30 % of the WSS locally.
        assert!(!z.accepts_migration(&load(0.4, 0.3, 0.1), &migrant, 10.0, 1.0));
    }

    #[test]
    fn migration_footprint_rules() {
        // Vanilla moves the tracked local share; ZombieStack re-places
        // the full booking.
        assert_eq!(NEAT.consolidation.migration_footprint(2.0, Some(0.5)), 0.5);
        assert_eq!(NEAT.consolidation.migration_footprint(2.0, None), 2.0);
        assert_eq!(
            ZOMBIE_STACK
                .consolidation
                .migration_footprint(2.0, Some(0.5)),
            2.0
        );
    }
}
