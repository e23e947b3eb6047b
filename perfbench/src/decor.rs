//! Counting decorators for the traced run.
//!
//! Each wraps one of the program's extension traits, forwards **every**
//! method — defaulted ones included, so the wrapped behaviour is exactly
//! the inner one — and counts calls on the hot ones. They are installed
//! only in the traced run: at millions of `admit` calls per simulation
//! the counting itself costs a visible share of host time.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use zombieland_core::backend::{BackendSpec, FabricBackend};
use zombieland_energy::{HostDraw, MachineProfile, PowerModel};
use zombieland_simcore::{Bytes, Pages, SimDuration, Watts};
use zombieland_simulator::policy::{
    ConsolidationPolicy, HostLoad, MigrantVm, PlacementPolicy, WakePreference,
};
use zombieland_simulator::PolicySpec;
use zombieland_workloads::{Access, Workload};

use crate::spans;

fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Relaxed);
}

/// Reads and zeroes a counter.
pub fn take(c: &AtomicU64) -> u64 {
    c.swap(0, Relaxed)
}

/// Counts admission checks and their acceptances.
#[derive(Debug)]
pub struct CountingPlacement {
    inner: &'static dyn PlacementPolicy,
    pub admit_calls: AtomicU64,
    pub admit_accepts: AtomicU64,
}

impl PlacementPolicy for CountingPlacement {
    fn admit(&self, host: &HostLoad, cpu: f64, cpu_used: f64, mem: f64, pool: f64) -> Option<f64> {
        bump(&self.admit_calls, 1);
        let r = self.inner.admit(host, cpu, cpu_used, mem, pool);
        if r.is_some() {
            bump(&self.admit_accepts, 1);
        }
        r
    }

    fn uses_remote_pool(&self) -> bool {
        self.inner.uses_remote_pool()
    }

    fn wake_preference(&self) -> WakePreference {
        self.inner.wake_preference()
    }
}

/// Counts migration feasibility checks and their acceptances.
#[derive(Debug)]
pub struct CountingConsolidation {
    inner: &'static dyn ConsolidationPolicy,
    pub migration_checks: AtomicU64,
    pub migration_accepts: AtomicU64,
}

impl ConsolidationPolicy for CountingConsolidation {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn underload_threshold(&self) -> f64 {
        self.inner.underload_threshold()
    }

    fn parks_idle_memory(&self) -> bool {
        self.inner.parks_idle_memory()
    }

    fn evacuates_to_zombie(&self) -> bool {
        self.inner.evacuates_to_zombie()
    }

    fn demotes_idle_zombies(&self) -> bool {
        self.inner.demotes_idle_zombies()
    }

    fn migration_footprint(&self, booked: f64, local: Option<f64>) -> f64 {
        self.inner.migration_footprint(booked, local)
    }

    fn accepts_migration(
        &self,
        host: &HostLoad,
        vm: &MigrantVm,
        pool: f64,
        cpu_fill_cap: f64,
    ) -> bool {
        bump(&self.migration_checks, 1);
        let ok = self.inner.accepts_migration(host, vm, pool, cpu_fill_cap);
        if ok {
            bump(&self.migration_accepts, 1);
        }
        ok
    }
}

/// A policy wrapped in counters, installed in a leaked [`PolicySpec`]
/// with the inner spec's key, label and summary.
pub struct CountedPolicy {
    pub spec: &'static PolicySpec,
    pub placement: &'static CountingPlacement,
    pub consolidation: &'static CountingConsolidation,
}

pub fn count_policy(inner: &'static PolicySpec) -> CountedPolicy {
    let placement: &'static CountingPlacement = Box::leak(Box::new(CountingPlacement {
        inner: inner.placement,
        admit_calls: AtomicU64::new(0),
        admit_accepts: AtomicU64::new(0),
    }));
    let consolidation: &'static CountingConsolidation =
        Box::leak(Box::new(CountingConsolidation {
            inner: inner.consolidation,
            migration_checks: AtomicU64::new(0),
            migration_accepts: AtomicU64::new(0),
        }));
    let spec = Box::leak(Box::new(PolicySpec {
        key: inner.key,
        label: inner.label,
        summary: inner.summary,
        placement,
        consolidation,
    }));
    CountedPolicy {
        spec,
        placement,
        consolidation,
    }
}

/// Counts host power lookups and transition pricings.
#[derive(Debug)]
pub struct CountingPower {
    inner: &'static dyn PowerModel,
    pub host_power_calls: AtomicU64,
    pub transition_calls: AtomicU64,
}

impl PowerModel for CountingPower {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn host_power(&self, profile: &MachineProfile, draw: HostDraw) -> Watts {
        bump(&self.host_power_calls, 1);
        self.inner.host_power(profile, draw)
    }

    fn transition_power(&self, profile: &MachineProfile) -> Watts {
        bump(&self.transition_calls, 1);
        self.inner.transition_power(profile)
    }
}

pub fn count_power(inner: &'static dyn PowerModel) -> &'static CountingPower {
    Box::leak(Box::new(CountingPower {
        inner,
        host_power_calls: AtomicU64::new(0),
        transition_calls: AtomicU64::new(0),
    }))
}

/// Counts fabric data-path pricings, installed in a leaked
/// [`BackendSpec`] with the inner spec's key, label and summary.
pub struct CountingFabric {
    inner: &'static dyn FabricBackend,
    pub read_calls: AtomicU64,
    pub write_calls: AtomicU64,
    pub batch_calls: AtomicU64,
    pub batch_pages: AtomicU64,
}

impl FabricBackend for CountingFabric {
    fn read_time(&self, quoted: SimDuration, len: Bytes) -> SimDuration {
        bump(&self.read_calls, 1);
        self.inner.read_time(quoted, len)
    }

    fn write_time(&self, quoted: SimDuration, len: Bytes) -> SimDuration {
        bump(&self.write_calls, 1);
        self.inner.write_time(quoted, len)
    }

    fn batch_read_time(&self, quoted: SimDuration, reads: usize, payload: Bytes) -> SimDuration {
        bump(&self.batch_calls, 1);
        bump(&self.batch_pages, reads as u64);
        self.inner.batch_read_time(quoted, reads, payload)
    }

    fn pools_host_memory(&self) -> bool {
        self.inner.pools_host_memory()
    }

    fn pool_power_fraction(&self, capacity: f64, allocated: f64) -> Option<f64> {
        self.inner.pool_power_fraction(capacity, allocated)
    }
}

pub fn count_fabric(
    inner: &'static BackendSpec,
) -> (&'static BackendSpec, &'static CountingFabric) {
    let fabric: &'static CountingFabric = Box::leak(Box::new(CountingFabric {
        inner: inner.backend,
        read_calls: AtomicU64::new(0),
        write_calls: AtomicU64::new(0),
        batch_calls: AtomicU64::new(0),
        batch_pages: AtomicU64::new(0),
    }));
    let spec = Box::leak(Box::new(BackendSpec {
        key: inner.key,
        label: inner.label,
        summary: inner.summary,
        backend: fabric,
    }));
    (spec, fabric)
}

/// Fill time and accesses generated, shared by a workload and its clones.
#[derive(Default)]
pub struct FillCounters {
    pub ns: Cell<u64>,
    pub accesses: Cell<u64>,
}

/// Times the workload's access generation: each `fill` batch is a span
/// (a child of the hypervisor cell's span) and adds to the counters.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    counters: Rc<FillCounters>,
}

impl TimedWorkload {
    pub fn new(inner: Box<dyn Workload>, counters: Rc<FillCounters>) -> Self {
        TimedWorkload { inner, counters }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn wss(&self) -> Pages {
        self.inner.wss()
    }

    fn base_op_cost(&self) -> SimDuration {
        self.inner.base_op_cost()
    }

    fn next_access(&mut self) -> Access {
        self.counters.accesses.set(self.counters.accesses.get() + 1);
        self.inner.next_access()
    }

    fn fill(&mut self, buf: &mut [Access]) {
        let _span = spans::enter("wl.fill", 0);
        let t = Instant::now();
        self.inner.fill(buf);
        let c = &self.counters;
        c.ns.set(c.ns.get() + t.elapsed().as_nanos() as u64);
        c.accesses.set(c.accesses.get() + buf.len() as u64);
    }

    fn suggested_ops(&self) -> u64 {
        self.inner.suggested_ops()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(TimedWorkload {
            inner: self.inner.clone_box(),
            counters: Rc::clone(&self.counters),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zombieland_core::backend::RDMA_ZOMBIE;
    use zombieland_core::manager::PoolKind;
    use zombieland_core::{Rack, RackConfig};
    use zombieland_hypervisor::engine::{self, Backing, EngineConfig};
    use zombieland_simulator::policy::REGISTRY;
    use zombieland_simulator::{simulate, SimConfig};
    use zombieland_trace::{ClusterTrace, TraceConfig};

    /// Every paper policy simulates to the same report bytes with and
    /// without the counting decorators, and the counters saw the calls.
    #[test]
    fn counted_simulations_match_plain_ones() {
        let trace = ClusterTrace::generate(TraceConfig {
            servers: 80,
            duration: SimDuration::from_hours(12),
            seed: 7,
            mem_cpu_ratio: 2.0,
            avg_utilization: 0.25,
        });
        let power = count_power(&zombieland_energy::TABLE3);
        for &spec in REGISTRY.iter().take(4) {
            let mut cfg = SimConfig::with_spec(spec, MachineProfile::hp());
            cfg.racks = 2;
            let plain = format!("{:?}", simulate(&trace, &cfg));
            let counted = count_policy(spec);
            cfg.policy = counted.spec;
            cfg.power = power;
            assert_eq!(
                format!("{:?}", simulate(&trace, &cfg)),
                plain,
                "{}",
                spec.key
            );
            assert!(take(&counted.placement.admit_calls) >= trace.tasks().len() as u64);
        }
        assert!(take(&power.host_power_calls) > 0);
    }

    /// A RAM Ext run through the timed workload and the counting fabric
    /// yields the same `RunStats` as the plain one.
    #[test]
    fn counted_hypervisor_run_matches_plain_one() {
        let run = |backend: &'static BackendSpec, timed: Option<Rc<FillCounters>>| {
            let mut rack = Rack::new(RackConfig {
                backend,
                ..RackConfig::default()
            });
            let ids = rack.server_ids();
            rack.goto_zombie(ids[1]).unwrap();
            rack.alloc_ext(ids[0], Bytes::mib(96)).unwrap();
            let inner =
                zombieland_workloads::by_name("spark-sql", Bytes::mib(100).pages(), 3).unwrap();
            let mut w: Box<dyn Workload> = match timed {
                Some(c) => TimedWorkload::new(inner, c).clone_box(),
                None => inner,
            };
            let cfg = EngineConfig::ram_ext(Bytes::mib(128), Bytes::mib(32));
            let backing = Backing::Rack {
                rack: &mut rack,
                user: ids[0],
                pool: PoolKind::Ext,
            };
            format!(
                "{:?}",
                engine::run_ops(&mut *w, &cfg, backing, 50_000).unwrap()
            )
        };
        let plain = run(&RDMA_ZOMBIE, None);
        let (backend, fabric) = count_fabric(&RDMA_ZOMBIE);
        let fill = Rc::new(FillCounters::default());
        assert_eq!(run(backend, Some(Rc::clone(&fill))), plain);
        assert_eq!(fill.accesses.get(), 50_000);
        assert!(take(&fabric.read_calls) > 0);
    }
}
