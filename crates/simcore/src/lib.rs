//! Deterministic simulation substrate shared by every Zombieland crate.
//!
//! The paper's evaluation mixes *timing* results (page-fault latencies,
//! migration durations) with *energy* results (Joules integrated over a
//! 29-day trace). Both are reproduced here on top of a single virtual
//! nanosecond clock ([`time::SimTime`]), a deterministic event queue
//! ([`event::EventQueue`]) and a seedable, dependency-free random number
//! generator ([`rng::DetRng`]). Nothing in the workspace reads wall-clock
//! time; re-running an experiment with the same seed reproduces every number
//! bit-for-bit.

pub mod event;
pub mod fasthash;
pub mod report;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod time;
pub mod units;

pub use event::EventQueue;
pub use fasthash::{FastMap, FastSet};
pub use rng::{derive_seed, DetRng, Zipf};
pub use runner::{available_jobs, run_batch, run_indexed};
pub use time::{SimDuration, SimTime};
pub use units::{Bytes, Cycles, Joules, Pages, Watts, PAGE_SIZE};
