//! Zombieland: practical and energy-efficient memory disaggregation.
//!
//! This is the umbrella crate of the Zombieland workspace, a full Rust
//! reproduction of *"Welcome to Zombieland: Practical and Energy-efficient
//! Memory Disaggregation in a Datacenter"* (Nitu et al., EuroSys 2018).
//! It re-exports every subsystem under a stable module path so examples and
//! downstream users can depend on a single crate:
//!
//! - [`simcore`] — virtual clock, event queue, deterministic RNG, units.
//! - [`mem`] — pages, frames, guest page tables, remote buffers.
//! - [`rdma`] — simulated RDMA fabric (one-sided verbs work against
//!   suspended nodes) and RPC-over-RDMA.
//! - [`acpi`] — platform power model with the new zombie (Sz) sleep state.
//! - [`energy`] — machine energy profiles, the paper's Eq. 1, power curves.
//! - [`trace`] — synthetic Google-cluster-like traces and motivation
//!   datasets.
//! - [`core`] — the paper's contribution: rack-level memory disaggregation
//!   (global memory controller, remote memory managers, zombie pool).
//! - [`hypervisor`] — KVM-like hypervisor paging with RAM Extension and
//!   Explicit Swap Device remote-memory modes.
//! - [`workloads`] — the evaluation's micro- and macro-benchmark models.
//! - [`cloud`] — ZombieStack: the §5 placement/consolidation rules and
//!   their registry (with the Neat and Oasis baselines), migration.
//! - [`simulator`] — datacenter-scale energy simulation.
//! - [`obs`] — deterministic observability: sim-time trace events, metric
//!   registries, JSONL export.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture
//! and the per-experiment index.

pub use zombieland_acpi as acpi;
pub use zombieland_cloud as cloud;
pub use zombieland_core as core;
pub use zombieland_energy as energy;
pub use zombieland_hypervisor as hypervisor;
pub use zombieland_mem as mem;
pub use zombieland_obs as obs;
pub use zombieland_rdma as rdma;
pub use zombieland_simcore as simcore;
pub use zombieland_simulator as simulator;
pub use zombieland_trace as trace;
pub use zombieland_workloads as workloads;
