//! Datacenter-scale energy simulation (§6.6.2, Fig. 10).
//!
//! Replays a (synthetic) Google-style cluster trace against pluggable
//! resource-management policies and integrates the fleet's energy. The
//! paper's evaluation ships four:
//!
//! - **AlwaysOn** — no power management; the baseline that "% energy
//!   saving" is measured against.
//! - **Neat** — vanilla OpenStack Neat consolidation: VMs pack onto hosts
//!   that can take their *full* booking; emptied hosts suspend to S3.
//! - **Oasis** — Neat plus partial migration of idle VMs: their working
//!   set moves, the rest of their memory parks on dedicated memory
//!   servers drawing 40 % of a regular server.
//! - **ZombieStack** — the paper: placement under the 50 % local rule,
//!   consolidation under the 30 %-of-WSS rule, emptied hosts enter Sz
//!   and their memory becomes the rack-wide remote pool.
//!
//! The crate splits along the policy/mechanism line:
//!
//! - [`policy`] — re-exported from `zombieland-cloud`, the one copy of
//!   the §5 rules: the [`PlacementPolicy`](policy::PlacementPolicy) /
//!   [`ConsolidationPolicy`](policy::ConsolidationPolicy) traits, their
//!   paper implementations and the static [`registry`](policy::REGISTRY)
//!   that `--policy` / `--list-policies` resolve against.
//! - [`dc`](self) *(private)* — datacenter state and mechanics: host
//!   accounting, the rack-local remote pool, two-phase evacuation.
//! - `power` *(private)* — energy integration through the
//!   [`zombieland_energy::PowerModel`] in [`SimConfig::power`].
//! - `events` *(private)* — the event loop ([`simulate`]).
//! - [`report`](SimReport) — run outcomes.
//!
//! The simulator is deliberately *not* page-accurate (that is
//! `zombieland-hypervisor`'s job): it tracks booked/used resources,
//! host power states and the remote pool, which is the granularity the
//! energy result depends on.

mod dc;
mod events;
mod power;
mod report;
mod stack;
#[cfg(test)]
mod tests;

pub use events::simulate;
pub use policy::{PolicyKind, PolicySpec};
pub use report::{SimReport, TimelineSample};
pub use zombieland_cloud::policy;

use zombieland_energy::{MachineProfile, PowerModel, TABLE3};
use zombieland_simcore::SimDuration;

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Policy under test (a [`policy::REGISTRY`] entry; see
    /// [`policy::lookup`] for resolution by name).
    pub policy: &'static PolicySpec,
    /// Machine energy profile (HP or Dell, Table 3).
    pub profile: MachineProfile,
    /// Host power model pricing each state/utilization (the
    /// Table-3-calibrated [`zombieland_energy::Table3Power`] by default).
    pub power: &'static dyn PowerModel,
    /// Consolidation period (OpenStack Neat defaults to minutes).
    pub consolidation_interval: SimDuration,
    /// Fraction of a host's memory usable by VMs (the rest is the
    /// hypervisor/system reserve).
    pub usable_mem: f64,
    /// Maximum booked-CPU fill during consolidation packing.
    pub cpu_fill_cap: f64,
    /// Demote a zombie to S3 when the free pool exceeds this many
    /// server-equivalents of memory (§4.4; `None` disables).
    pub sz_demote_threshold: Option<f64>,
    /// Charge suspend/wake transitions their real latency at full power
    /// (a wake burns ~4 s of peak draw; naive consolidators that thrash
    /// pay for it).
    pub transition_costs: bool,
    /// Number of racks the fleet is split into. The remote-memory pool is
    /// **rack-local**, as in the paper: a VM's remote share must come
    /// from zombies in its own rack. `1` = one giant rack. Must be ≥ 1
    /// ([`SimConfig::validate`]).
    pub racks: u32,
    /// Inert: the simulator has one serial event loop and never reads
    /// this. Kept only because `perfbench/src/dc.rs` still assigns it;
    /// a later benchmark-only change removes both.
    pub shards: u32,
    /// Record a fleet snapshot at this period into
    /// [`SimReport::timeline`] (`None` = no timeline).
    pub sample_interval: Option<SimDuration>,
    /// Remote-memory backend (a [`zombieland_core::backend::REGISTRY`]
    /// entry). The default `RdmaZombie` pools suspended hosts' memory;
    /// `CxlPool` swaps in a capacity-capped always-on shared tier with
    /// its own latency/power point.
    pub backend: &'static zombieland_core::backend::BackendSpec,
    /// Per-rack capacity of the pooled tier in server-equivalents of
    /// memory; only read when the backend does not pool host memory.
    pub cxl_capacity: f64,
    /// Per-rack server-generation mix (model years from the trace
    /// crate's generations table). Host `i` of rack `r` draws its
    /// generation from this list by a seeded hash of `(r, i)`; empty =
    /// a uniform fleet of the profile's reference generation.
    pub generations: Vec<u16>,
}

impl SimConfig {
    /// The paper's setup for a given policy and machine.
    pub fn new(policy: PolicyKind, profile: MachineProfile) -> Self {
        Self::with_spec(policy.spec(), profile)
    }

    /// The paper's setup for any registered policy (including ones
    /// outside the [`PolicyKind`] enum, like the `noconsolidate` toy).
    ///
    /// The rack count, backend and generation mix come from the installed
    /// [`zombieland_core::scenario`] (default: one rack), so
    /// `--scenario scenarios/paper_full.toml`, `ZL_RACKS` and `--backend`
    /// reach every CLI run without threading flags through each caller.
    pub fn with_spec(policy: &'static PolicySpec, profile: MachineProfile) -> Self {
        let scenario = zombieland_core::scenario::current();
        let racks = scenario.racks.max(1);
        let backend = zombieland_core::backend::lookup(&scenario.backend)
            .unwrap_or(&zombieland_core::backend::RDMA_ZOMBIE);
        SimConfig {
            policy,
            profile,
            power: &TABLE3,
            consolidation_interval: SimDuration::from_mins(5),
            usable_mem: 0.94,
            cpu_fill_cap: 0.90,
            sz_demote_threshold: Some(1.0),
            transition_costs: true,
            racks,
            shards: 1,
            sample_interval: None,
            backend,
            cxl_capacity: scenario.cxl_cap,
            generations: scenario.generations.clone(),
        }
    }

    /// Rejects configurations the simulation cannot run meaningfully.
    /// [`simulate`] calls this up front, so the mechanics never see a
    /// zero rack count (the old code clamped `racks.max(1)` at four
    /// separate call sites) or a non-positive memory reserve.
    pub fn validate(&self) -> Result<(), String> {
        if self.racks == 0 {
            return Err("racks must be >= 1 (the remote pool is rack-local)".into());
        }
        if !self.usable_mem.is_finite() || self.usable_mem <= 0.0 {
            return Err(format!(
                "usable_mem must be a positive fraction, got {}",
                self.usable_mem
            ));
        }
        if !self.cpu_fill_cap.is_finite() || self.cpu_fill_cap <= 0.0 {
            return Err(format!(
                "cpu_fill_cap must be positive, got {}",
                self.cpu_fill_cap
            ));
        }
        if !self.backend.backend.pools_host_memory()
            && (!self.cxl_capacity.is_finite() || self.cxl_capacity <= 0.0)
        {
            return Err(format!(
                "cxl_capacity must be positive under the {} backend, got {}",
                self.backend.key, self.cxl_capacity
            ));
        }
        for &year in &self.generations {
            if zombieland_trace::generations::by_year(year).is_none() {
                return Err(format!(
                    "unknown server generation {year}; the generations table \
                     spans 2005..=2013"
                ));
            }
        }
        Ok(())
    }
}
