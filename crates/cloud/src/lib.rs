//! ZombieStack: the cloud operating system layer (§5).
//!
//! The paper builds its prototype on OpenStack: Nova does placement,
//! OpenStack Neat does consolidation, and a modified migration protocol
//! moves VMs whose memory is partly remote. This crate holds:
//!
//! - **The §5 rule set** ([`policy`]): the placement and consolidation
//!   traits, the paper's policies (ZombieStack plus the AlwaysOn, Neat
//!   and Oasis baselines) and the registry that names them. It is the
//!   only copy of the rules; the datacenter-scale simulator judges hosts
//!   through it for Fig. 10, and so does the live binding;
//! - **A live binding** ([`stack`]) that runs the ZombieStack policy
//!   against a real [`zombieland_core::Rack`], used by the integration
//!   tests to exercise the whole stack end to end;
//! - the migration timing models ([`migration`], Fig. 9) and the Oasis
//!   memory-server constants ([`oasis`]).

pub mod migration;
pub mod oasis;
pub mod policy;
pub mod stack;
