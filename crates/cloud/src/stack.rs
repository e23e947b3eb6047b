//! ZombieStack bound to a live rack: the end-to-end stack the
//! integration tests drive.
//!
//! [`ZombieStack`] owns a [`Rack`] and runs the paper's policy against
//! it: placement under the 50 % rule (allocating the remote share via
//! `GS_alloc_ext`), consolidation under the 30 %-of-WSS rule (pushing
//! emptied servers into Sz through the real ACPI/fabric path), and the
//! modified migration protocol. Every host is judged by the registry
//! entry [`ZOMBIE_STACK`], the same rules the datacenter simulator
//! reports: hosts are tried first-fit in stacking order (most booked CPU
//! first, ties to the lower id). When no active host admits a VM, the
//! zombie `GS_get_lru_zombie` names wakes: the registry's
//! [`IdleZombieFirst`](crate::policy::WakePreference::IdleZombieFirst)
//! preference, served by the controller.

use std::collections::BTreeMap;

use zombieland_core::{Rack, RackConfig, RackError, ServerId};
use zombieland_mem::buffer::{buffers_for, BufferId, BUFF_SIZE};
use zombieland_simcore::{Bytes, SimDuration, SimTime};

use crate::migration::{self, MigrationStats};
use crate::policy::{HostLoad, MigrantVm, ZOMBIE_STACK};

/// The booked-CPU packing cap handed to `accepts_migration`: one whole
/// server. ZombieStack's rule applies its own caps and ignores it.
const CPU_FILL_CAP: f64 = 1.0;

/// A VM request at the cloud API.
#[derive(Clone, Copy, Debug)]
pub struct VmSpec {
    /// VM identifier.
    pub id: u64,
    /// Booked CPU as a fraction of one server.
    pub cpu: f64,
    /// Booked (reserved) memory.
    pub mem: Bytes,
    /// Current working set (for migration and the 30 % rule).
    pub wss: Bytes,
    /// Actual CPU utilization (fraction of one server).
    pub cpu_used: f64,
}

/// A placed VM.
#[derive(Clone, Debug)]
pub struct PlacedVm {
    /// The request.
    pub spec: VmSpec,
    /// Host server.
    pub host: ServerId,
    /// Local share of its memory.
    pub local: Bytes,
    /// Remote buffers backing the rest.
    pub remote_buffers: Vec<BufferId>,
}

/// Consolidation round report.
#[derive(Clone, Debug, Default)]
pub struct ConsolidationReport {
    /// VMs migrated (id, from, to) with their timing.
    pub migrations: Vec<(u64, ServerId, ServerId, MigrationStats)>,
    /// Servers pushed into Sz this round.
    pub suspended: Vec<ServerId>,
    /// Total migration time.
    pub migration_time: SimDuration,
}

/// The cloud operating system over one rack.
pub struct ZombieStack {
    rack: Rack,
    vms: BTreeMap<u64, PlacedVm>,
    last_consolidation: Option<SimTime>,
    last_swap_refresh: Option<SimTime>,
}

impl ZombieStack {
    /// Boots the stack over a fresh rack.
    pub fn new(config: RackConfig) -> Self {
        ZombieStack {
            rack: Rack::new(config),
            vms: BTreeMap::new(),
            last_consolidation: None,
            last_swap_refresh: None,
        }
    }

    /// Read access to the rack.
    pub fn rack(&self) -> &Rack {
        &self.rack
    }

    /// The placed VMs.
    pub fn vms(&self) -> impl Iterator<Item = &PlacedVm> {
        self.vms.values()
    }

    fn server_ram(&self) -> Bytes {
        self.rack.config().ram_per_server
    }

    fn norm(&self, b: Bytes) -> f64 {
        b.get() as f64 / self.server_ram().get() as f64
    }

    /// Host `s`'s load as the policy sees it, summed over its VMs.
    fn load(&self, s: ServerId) -> HostLoad {
        let mut cpu_booked = 0.0;
        let mut cpu_used = 0.0;
        let mut mem_local = Bytes::ZERO;
        for vm in self.vms.values().filter(|v| v.host == s) {
            cpu_booked += vm.spec.cpu;
            cpu_used += vm.spec.cpu_used;
            mem_local += vm.local;
        }
        HostLoad {
            cpu_booked,
            cpu_used,
            free_local: (self.usable() - self.norm(mem_local)).max(0.0),
        }
    }

    /// A host's memory after the hypervisor reserve, normalised.
    fn usable(&self) -> f64 {
        self.norm(self.server_ram() - self.rack.config().system_reserved)
    }

    /// Every active host with its load, in stacking order.
    fn active_loads(&self) -> Vec<(ServerId, HostLoad)> {
        let mut loads: Vec<(ServerId, HostLoad)> = self
            .rack
            .server_ids()
            .into_iter()
            .filter(|&s| self.rack.state(s) == Ok(zombieland_acpi::SleepState::S0))
            .map(|s| (s, self.load(s)))
            .collect();
        sort_stacking(&mut loads);
        loads
    }

    /// How `vm` re-splits onto a host with `free_local` free: its local
    /// share there (as much as fits), and the remote bytes it must
    /// allocate beyond the buffers it already holds.
    fn split(&self, vm: &PlacedVm, free_local: f64) -> (Bytes, Bytes) {
        let local = vm.spec.mem.min(self.server_ram().mul_f64(free_local));
        let have_remote = BUFF_SIZE * vm.remote_buffers.len() as u64;
        let extra = vm
            .spec
            .mem
            .saturating_sub(local)
            .saturating_sub(have_remote);
        (local, extra)
    }

    fn sync_local_usage(&mut self, s: ServerId) -> Result<(), RackError> {
        let used: Bytes = self
            .vms
            .values()
            .filter(|v| v.host == s)
            .map(|v| v.local)
            .sum();
        self.rack.set_local_usage(s, used)
    }

    /// Boots a VM: places it on the first active host in stacking order
    /// that the placement rule admits, allocates the remote share via
    /// `GS_alloc_ext`, and records the placement. When no active host
    /// fits, the zombie with the fewest allocated buffers is woken
    /// (`GS_get_lru_zombie`, §5.2) and placement retried. A VM that even
    /// an empty host would reject fails at once, waking nothing (the
    /// simulator wakes every host it can, then overcommits such a VM).
    pub fn boot_vm(&mut self, spec: VmSpec) -> Result<ServerId, RackError> {
        let mem = self.norm(spec.mem);
        let (host, local_frac) = loop {
            let pool = self.norm(self.rack.db().free_memory());
            let admit = |load: &HostLoad| {
                ZOMBIE_STACK
                    .placement
                    .admit(load, spec.cpu, spec.cpu_used, mem, pool)
            };
            let fit = self
                .active_loads()
                .into_iter()
                .find_map(|(s, load)| admit(&load).map(|local| (s, local)));
            if let Some(fit) = fit {
                break fit;
            }
            // "If there is no host that satisfies this requirement, we
            // choose and wake up a zombie host." A woken zombie is empty
            // and waking only shrinks the pool, so when an empty host
            // rejects the VM no wake can help.
            let empty = HostLoad {
                cpu_booked: 0.0,
                cpu_used: 0.0,
                free_local: self.usable(),
            };
            let lru = match admit(&empty) {
                Some(_) => self.rack.get_lru_zombie(ServerId::new(0))?,
                None => None,
            };
            let Some(lru) = lru else {
                return Err(RackError::Db(
                    zombieland_core::db::DbError::AdmissionDenied {
                        requested: buffers_for(spec.mem),
                        available: 0,
                    },
                ));
            };
            if self.rack.wake(lru, None)?.revoked > 0 {
                self.rehome_revoked()?;
            }
        };
        let local = spec.mem.mul_f64(local_frac / mem.max(1e-12));
        let remote = spec.mem.saturating_sub(local);
        let remote_buffers = if remote > Bytes::ZERO {
            self.rack.alloc_ext(host, remote)?.buffers
        } else {
            Vec::new()
        };
        self.vms.insert(
            spec.id,
            PlacedVm {
                spec,
                host,
                local,
                remote_buffers,
            },
        );
        self.sync_local_usage(host)?;
        Ok(host)
    }

    /// Settles the buffers a wake revoked from their users (`US_reclaim`,
    /// §4.3): each VM drops the buffers its host no longer holds and
    /// re-allocates replacements while the pool has free buffers. What
    /// the pool cannot cover is served from the VM's local backup.
    fn rehome_revoked(&mut self) -> Result<(), RackError> {
        let ids: Vec<u64> = self.vms.keys().copied().collect();
        for id in ids {
            let vm = &self.vms[&id];
            let (host, held) = (vm.host, vm.remote_buffers.len());
            let manager = self.rack.manager(host);
            let mut kept = vm.remote_buffers.clone();
            kept.retain(|&b| manager.buffer_record(b).is_ok());
            let refill = ((held - kept.len()) as u64).min(self.rack.db().free_buffers());
            if refill > 0 {
                kept.extend(self.rack.alloc_ext(host, BUFF_SIZE * refill)?.buffers);
            }
            self.vms.get_mut(&id).expect("present").remote_buffers = kept;
        }
        Ok(())
    }

    /// Destroys a VM, releasing its remote buffers.
    pub fn shutdown_vm(&mut self, id: u64) -> Result<(), RackError> {
        let Some(vm) = self.vms.remove(&id) else {
            return Ok(());
        };
        if !vm.remote_buffers.is_empty() {
            self.rack.release(vm.host, &vm.remote_buffers)?;
        }
        self.sync_local_usage(vm.host)
    }

    /// Migrates one VM to `target` using the ZombieStack protocol: only
    /// the local (hot) part moves; the remote part is re-pointed
    /// ("update the ownership pointers for the remote memory
    /// components", §5.3), and the local/remote split is re-balanced for
    /// the target's free memory.
    fn migrate(&mut self, id: u64, target: ServerId) -> Result<MigrationStats, RackError> {
        let vm = self.vms.get(&id).expect("caller validated").clone();
        let source = vm.host;
        let stats = migration::zombiestack_migration(vm.local.min(vm.spec.wss));

        // Ownership of the existing remote buffers moves with the VM; the
        // data itself stays on its zombie hosts (no copy).
        if !vm.remote_buffers.is_empty() {
            self.rack
                .transfer_buffers(source, target, &vm.remote_buffers)?;
        }

        // Re-split: as much local memory as the target can spare, the
        // rest remote (allocating the shortfall).
        let (_, extra) = self.split(&vm, self.load(target).free_local);
        let mut buffers = vm.remote_buffers.clone();
        if extra > Bytes::ZERO {
            buffers.extend(self.rack.alloc_ext(target, extra)?.buffers);
        }

        let vm_mut = self.vms.get_mut(&id).expect("present");
        vm_mut.host = target;
        vm_mut.local = vm.spec.mem.saturating_sub(BUFF_SIZE * buffers.len() as u64);
        vm_mut.remote_buffers = buffers;
        self.sync_local_usage(source)?;
        self.sync_local_usage(target)?;
        Ok(stats)
    }

    /// Refreshes the Explicit-SD pools: "this function is periodically
    /// called (i.e. every 1 hour) in order to take advantage of unused
    /// remote buffers" (§4.4). Asks `GS_alloc_swap` for up to `per_host`
    /// extra swap memory on every active host.
    pub fn refresh_swap(&mut self, per_host: Bytes) -> Result<u64, RackError> {
        let mut granted = 0u64;
        for s in self.rack.server_ids() {
            if self.rack.state(s)? != zombieland_acpi::SleepState::S0 {
                continue;
            }
            granted += self.rack.alloc_swap(s, per_host)?.buffers.len() as u64;
        }
        Ok(granted)
    }

    /// The operator loop: call periodically with simulation time. Sends
    /// the controller heartbeat, checks for failover, runs consolidation
    /// on the Neat cadence (5 min) and the swap refresh on the paper's
    /// hourly cadence (§4.4). Returns the consolidation report when a
    /// round ran.
    pub fn tick(&mut self, now: SimTime) -> Result<Option<ConsolidationReport>, RackError> {
        self.rack.heartbeat(now);
        self.rack.check_failover(now);

        if self
            .last_swap_refresh
            .is_none_or(|t| now.saturating_since(t) >= SimDuration::from_hours(1))
        {
            self.last_swap_refresh = Some(now);
            // Top up every active host's Explicit-SD pool, best effort.
            let _ = self.refresh_swap(Bytes::mib(256))?;
        }

        if self
            .last_consolidation
            .is_none_or(|t| now.saturating_since(t) >= SimDuration::from_mins(5))
        {
            self.last_consolidation = Some(now);
            return Ok(Some(self.consolidate()?));
        }
        Ok(None)
    }

    /// Active hosts under the policy's underload threshold, least loaded
    /// first (ties to the lower id): the evacuation candidates.
    fn underloaded(&self) -> Vec<ServerId> {
        let threshold = ZOMBIE_STACK.consolidation.underload_threshold();
        let mut hosts = self.active_loads();
        hosts.retain(|(_, load)| load.cpu_used < threshold);
        hosts.sort_by(|(a, la), (b, lb)| la.cpu_used.total_cmp(&lb.cpu_used).then(a.cmp(b)));
        hosts.into_iter().map(|(s, _)| s).collect()
    }

    /// Plans moving every VM off `source`: each goes to the first active
    /// peer in stacking order that the migration rule accepts, judged on
    /// loads and a pool that already carry the moves planned before it.
    /// `None` if any VM fits nowhere (evacuation is all-or-nothing).
    fn plan_evacuation(&self, source: ServerId) -> Option<Vec<(u64, ServerId)>> {
        let rule = ZOMBIE_STACK.consolidation;
        let mut loads = self.active_loads();
        loads.retain(|&(s, _)| s != source);
        let mut pool = self.rack.db().free_memory();
        let mut moves = Vec::new();
        for vm in self.vms.values().filter(|v| v.host == source) {
            let migrant = MigrantVm {
                cpu_booked: vm.spec.cpu,
                cpu_used: vm.spec.cpu_used,
                mem: rule.migration_footprint(self.norm(vm.spec.mem), Some(self.norm(vm.local))),
                wss: self.norm(vm.spec.wss),
            };
            let pool_norm = self.norm(pool);
            let i = loads.iter().position(|(_, load)| {
                rule.accepts_migration(load, &migrant, pool_norm, CPU_FILL_CAP)
            })?;
            // Reserve what `migrate` will take on the target.
            let (target, load) = &mut loads[i];
            let (local, extra) = self.split(vm, load.free_local);
            pool = pool.saturating_sub(BUFF_SIZE * buffers_for(extra));
            load.cpu_booked += vm.spec.cpu;
            load.cpu_used += vm.spec.cpu_used;
            load.free_local = (load.free_local - self.norm(local)).max(0.0);
            moves.push((vm.spec.id, *target));
            sort_stacking(&mut loads);
        }
        Some(moves)
    }

    /// One consolidation round: evacuate underloaded hosts onto their
    /// peers (30 % rule) and push the emptied hosts into Sz.
    pub fn consolidate(&mut self) -> Result<ConsolidationReport, RackError> {
        let mut report = ConsolidationReport::default();
        for source in self.underloaded() {
            // Never suspend the last active host: the rack must keep
            // compute capacity for arrivals (and someone to run agents).
            if self.active_loads().len() <= 1 {
                break;
            }
            let Some(moves) = self.plan_evacuation(source) else {
                continue;
            };
            for (vm_id, target) in moves {
                let stats = self.migrate(vm_id, target)?;
                report.migration_time += stats.total;
                report.migrations.push((vm_id, source, target, stats));
            }
            // The host is empty: push it into Sz (its memory joins the
            // pool).
            self.rack.goto_zombie(source)?;
            report.suspended.push(source);
        }
        Ok(report)
    }
}

/// Sorts hosts into stacking order: most booked CPU first, ties to the
/// lower id, so load concentrates and empty servers emerge.
fn sort_stacking(loads: &mut [(ServerId, HostLoad)]) {
    loads.sort_by(|(a, la), (b, lb)| lb.cpu_booked.total_cmp(&la.cpu_booked).then(a.cmp(b)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, cpu: f64, mem_gib: u64, cpu_used: f64) -> VmSpec {
        VmSpec {
            id,
            cpu,
            mem: Bytes::gib(mem_gib),
            wss: Bytes::gib(mem_gib).mul_f64(0.8),
            cpu_used,
        }
    }

    fn spec_mem(id: u64, cpu: f64, mem_gib: u64, wss_gib: u64, cpu_used: f64) -> VmSpec {
        VmSpec {
            id,
            cpu,
            mem: Bytes::gib(mem_gib),
            wss: Bytes::gib(wss_gib).mul_f64(0.8),
            cpu_used,
        }
    }

    #[test]
    fn boot_places_and_allocates_remote() {
        let mut stack = ZombieStack::new(RackConfig::default());
        // One server becomes a zombie so the pool is non-empty.
        let ids = stack.rack.server_ids();
        stack.rack.goto_zombie(ids[3]).unwrap();
        // A VM bigger than any host's free memory: must split.
        let host = stack.boot_vm(spec(1, 0.5, 20, 0.3)).unwrap();
        let vm = stack.vms().next().unwrap();
        assert_eq!(vm.host, host);
        assert!(vm.local < Bytes::gib(20));
        assert!(!vm.remote_buffers.is_empty());
        // 50 % rule respected.
        assert!(vm.local.get() * 2 >= Bytes::gib(20).get());
    }

    #[test]
    fn consolidation_empties_idle_hosts_into_sz() {
        let mut stack = ZombieStack::new(RackConfig {
            servers: 3,
            ..RackConfig::default()
        });
        // A busy, memory-heavy VM fills host 0 (12 GiB of the 15 GiB
        // usable), so the idle VM (8 GiB, needing >= 4 GiB local under the
        // 50 % rule) cannot stack there and lands on host 1 alone.
        stack.boot_vm(spec_mem(1, 0.4, 12, 10, 0.35)).unwrap();
        stack.boot_vm(spec_mem(3, 0.3, 8, 8, 0.05)).unwrap();
        let hosts_used: std::collections::HashSet<ServerId> = stack.vms().map(|v| v.host).collect();
        assert_eq!(hosts_used.len(), 2, "load spread over 2 hosts");

        let report = stack.consolidate().unwrap();
        // The empty host 2 was zombified first, which fills the remote
        // pool; then host 1 (idle VM only) evacuated under the 30 % rule
        // (3 GiB free on host 0 >= 30 % of the 6.4 GiB WSS) and zombified
        // too.
        assert_eq!(report.suspended.len(), 2);
        assert_eq!(report.migrations.len(), 1);
        let (vm_id, from, to, stats) = &report.migrations[0];
        assert_eq!(*vm_id, 3);
        assert_ne!(from, to);
        assert!(stats.total > SimDuration::ZERO);
        for z in &report.suspended {
            assert_eq!(
                stack.rack.state(*z).unwrap(),
                zombieland_acpi::SleepState::Sz
            );
        }
        assert!(stack.rack.db().free_buffers() > 0, "memory joined the pool");
        // The migrated VM's memory was re-split: part local on the busy
        // host, the rest in remote buffers.
        let vm = stack.vms().find(|v| v.spec.id == 3).unwrap();
        assert!(vm.local < Bytes::gib(8));
        assert!(!vm.remote_buffers.is_empty());
        // All VMs live on active hosts.
        for vm in stack.vms() {
            assert!(!report.suspended.contains(&vm.host));
        }
    }

    #[test]
    fn boot_wakes_lru_zombie_when_nothing_fits() {
        let mut stack = ZombieStack::new(RackConfig {
            servers: 2,
            ..RackConfig::default()
        });
        let ids = stack.rack.server_ids();
        // One host is a zombie; the other fills up on CPU.
        stack.rack.goto_zombie(ids[1]).unwrap();
        stack.boot_vm(spec(1, 0.9, 4, 0.8)).unwrap();
        // This VM fits nowhere active: the zombie must wake to host it.
        let host = stack.boot_vm(spec(2, 0.5, 4, 0.4)).unwrap();
        assert_eq!(host, ids[1]);
        assert_eq!(
            stack.rack.state(ids[1]).unwrap(),
            zombieland_acpi::SleepState::S0
        );
    }

    #[test]
    fn wakeup_prefers_lru_zombie() {
        let mut stack = ZombieStack::new(RackConfig {
            servers: 3,
            ..RackConfig::default()
        });
        let ids = stack.rack.server_ids();
        // Host 2 lends the remote share of a split VM; host 1 then
        // enters Sz lending nothing.
        stack.rack.goto_zombie(ids[2]).unwrap();
        assert_eq!(stack.boot_vm(spec(1, 0.5, 20, 0.3)).unwrap(), ids[0]);
        stack.rack.goto_zombie(ids[1]).unwrap();
        // Usage 0.3 + 0.6 > 0.85: the idle zombie wakes, not the lender.
        assert_eq!(stack.boot_vm(spec(2, 0.5, 4, 0.6)).unwrap(), ids[1]);
        assert_eq!(
            stack.rack.state(ids[2]).unwrap(),
            zombieland_acpi::SleepState::Sz
        );
    }

    #[test]
    fn boot_fails_when_rack_exhausted() {
        let mut stack = ZombieStack::new(RackConfig {
            servers: 1,
            ..RackConfig::default()
        });
        stack.boot_vm(spec(1, 0.9, 4, 0.8)).unwrap();
        assert!(stack.boot_vm(spec(2, 0.5, 4, 0.4)).is_err());
    }

    #[test]
    fn vm_no_empty_host_admits_fails_without_waking() {
        let mut stack = ZombieStack::new(RackConfig {
            servers: 3,
            ..RackConfig::default()
        });
        let ids = stack.rack.server_ids();
        stack.boot_vm(spec(1, 0.5, 4, 0.3)).unwrap();
        stack.rack.goto_zombie(ids[1]).unwrap();
        stack.rack.goto_zombie(ids[2]).unwrap();
        // Usage 0.9 > 0.85 even alone: rejected at once, both zombies
        // left asleep.
        assert!(stack.boot_vm(spec(2, 1.0, 4, 0.9)).is_err());
        for &s in &ids[1..] {
            assert_eq!(
                stack.rack.state(s).unwrap(),
                zombieland_acpi::SleepState::Sz
            );
        }
        // A VM an empty host admits still wakes a zombie.
        assert_eq!(stack.boot_vm(spec(3, 0.6, 4, 0.6)).unwrap(), ids[1]);
    }

    /// Puts `spec` on `host` fully local, bypassing placement, to set
    /// up a load.
    fn place(stack: &mut ZombieStack, spec: VmSpec, host: ServerId) {
        let vm = PlacedVm {
            spec,
            host,
            local: spec.mem,
            remote_buffers: Vec::new(),
        };
        stack.vms.insert(spec.id, vm);
        stack.sync_local_usage(host).unwrap();
    }

    #[test]
    fn no_host_passes_the_usage_cap() {
        let mut stack = ZombieStack::new(RackConfig {
            servers: 2,
            ..RackConfig::default()
        });
        let ids = stack.rack.server_ids();
        stack.boot_vm(spec(1, 0.6, 2, 0.55)).unwrap();
        // 0.55 + 0.38 > 0.85: the second VM cannot join the first.
        assert_eq!(stack.boot_vm(spec(2, 0.39, 1, 0.38)).unwrap(), ids[1]);
        // Stacking tries host 0 first (more booked), whose usage would
        // reach 1.0; host 1 takes it at 0.83.
        assert_eq!(stack.boot_vm(spec(3, 0.5, 2, 0.45)).unwrap(), ids[1]);
        let report = stack.consolidate().unwrap();
        assert!(report.migrations.is_empty(), "no host is underloaded");
        for s in ids {
            let used = stack.load(s).cpu_used;
            assert!(used <= 0.85 + 1e-9, "host {s}: {used}");
        }
    }

    #[test]
    fn low_usage_vm_stacks_past_one_booked_server() {
        let mut stack = ZombieStack::new(RackConfig {
            servers: 2,
            ..RackConfig::default()
        });
        let first = stack.boot_vm(spec(1, 0.7, 2, 0.2)).unwrap();
        // Booking 0.7 + 0.5 = 1.2 stays under the 1.3 overcommit cap and
        // usage 0.3 under 0.85: the VM stacks instead of spreading.
        assert_eq!(stack.boot_vm(spec(2, 0.5, 2, 0.1)).unwrap(), first);
        assert!((stack.load(first).cpu_booked - 1.2).abs() < 1e-9);
    }

    #[test]
    fn stacking_picks_most_loaded_host() {
        let mut stack = ZombieStack::new(RackConfig::default());
        let ids = stack.rack.server_ids();
        // An empty rack ties everywhere: the lowest id wins.
        assert_eq!(stack.boot_vm(spec(1, 0.2, 1, 0.1)).unwrap(), ids[0]);
        place(&mut stack, spec(2, 0.6, 1, 0.3), ids[1]);
        place(&mut stack, spec(3, 0.4, 1, 0.2), ids[2]);
        assert_eq!(stack.boot_vm(spec(4, 0.2, 1, 0.1)).unwrap(), ids[1]);
        // When the most booked host is full (usage 0.3 + 0.6 > 0.85),
        // the next one in stacking order takes the VM.
        assert_eq!(stack.boot_vm(spec(5, 0.2, 1, 0.6)).unwrap(), ids[2]);
    }

    #[test]
    fn underload_detection_sorted() {
        let mut stack = ZombieStack::new(RackConfig::default());
        let ids = stack.rack.server_ids();
        place(&mut stack, spec(1, 0.3, 1, 0.15), ids[0]);
        place(&mut stack, spec(2, 0.1, 1, 0.05), ids[1]);
        place(&mut stack, spec(3, 0.6, 1, 0.5), ids[2]);
        stack.rack.goto_zombie(ids[3]).unwrap();
        assert_eq!(stack.underloaded(), vec![ids[1], ids[0]]);
    }

    #[test]
    fn migration_target_stacks() {
        let mut stack = ZombieStack::new(RackConfig::default());
        let ids = stack.rack.server_ids();
        // Host 0 is underloaded but the most booked: it must never be
        // its own VM's target.
        place(&mut stack, spec(1, 0.6, 1, 0.1), ids[0]);
        place(&mut stack, spec(2, 0.5, 1, 0.45), ids[1]);
        place(&mut stack, spec(3, 0.3, 1, 0.25), ids[2]);
        let report = stack.consolidate().unwrap();
        // Empty host 3 goes first, then host 0 evacuates onto the most
        // booked peer that accepts (booking 1.1, usage 0.55).
        assert_eq!(report.suspended, vec![ids[3], ids[0]]);
        let moves: Vec<_> = report
            .migrations
            .iter()
            .map(|&(vm, from, to, _)| (vm, from, to))
            .collect();
        assert_eq!(moves, vec![(1, ids[0], ids[1])]);
    }

    #[test]
    fn evacuation_plan_reserves_earlier_moves() {
        let mut stack = ZombieStack::new(RackConfig {
            servers: 3,
            ..RackConfig::default()
        });
        let ids = stack.rack.server_ids();
        // Host 1 has room for one of host 0's VMs (usage 0.7 + 0.1), not
        // both: the second must go to host 2.
        place(&mut stack, spec(1, 0.2, 1, 0.1), ids[0]);
        place(&mut stack, spec(2, 0.2, 1, 0.09), ids[0]);
        place(&mut stack, spec(3, 0.8, 1, 0.7), ids[1]);
        place(&mut stack, spec(4, 0.5, 1, 0.5), ids[2]);
        let report = stack.consolidate().unwrap();
        let moves: Vec<_> = report
            .migrations
            .iter()
            .map(|&(vm, _, to, _)| (vm, to))
            .collect();
        assert_eq!(moves, vec![(1, ids[1]), (2, ids[2])]);
        for s in [ids[1], ids[2]] {
            assert!(stack.load(s).cpu_used <= 0.85 + 1e-9);
        }
    }

    #[test]
    fn refresh_swap_harvests_unused_buffers() {
        let mut stack = ZombieStack::new(RackConfig::default());
        let ids = stack.rack.server_ids();
        stack.rack.goto_zombie(ids[3]).unwrap();
        let granted = stack.refresh_swap(Bytes::mib(256)).unwrap();
        assert_eq!(granted, 3 * 4, "4 buffers for each of 3 active hosts");
        // A second refresh keeps taking from the pool (best effort).
        let more = stack.refresh_swap(Bytes::mib(256)).unwrap();
        assert_eq!(more, 12);
    }

    #[test]
    fn operator_tick_paces_consolidation_and_refresh() {
        let mut stack = ZombieStack::new(RackConfig::default());
        let t0 = SimTime::ZERO;
        // First tick runs both.
        let first = stack.tick(t0).unwrap();
        assert!(first.is_some(), "first tick consolidates");
        // One minute later: neither cadence due.
        let soon = stack.tick(t0 + SimDuration::from_mins(1)).unwrap();
        assert!(soon.is_none());
        // Five minutes later: consolidation due again.
        let later = stack.tick(t0 + SimDuration::from_mins(6)).unwrap();
        assert!(later.is_some());
        // The empty rack consolidated down to one active host; the rest
        // are zombies serving the pool.
        let ids = stack.rack.server_ids();
        let zombies = ids
            .iter()
            .filter(|&&s| stack.rack.state(s) == Ok(zombieland_acpi::SleepState::Sz))
            .count();
        assert_eq!(zombies, 3, "all but the last active host zombified");
        // Fast-forward past the hour: the swap refresh draws from the
        // pool for the remaining active host.
        stack.tick(t0 + SimDuration::from_hours(2)).unwrap();
        let swap_buffers: u64 = ids
            .iter()
            .map(|&s| {
                stack
                    .rack
                    .manager(s)
                    .granted_buffers(zombieland_core::manager::PoolKind::Swap)
                    .len() as u64
            })
            .sum();
        assert!(swap_buffers > 0, "hourly GS_alloc_swap refresh ran");
    }

    #[test]
    fn shutdown_releases_buffers() {
        let mut stack = ZombieStack::new(RackConfig::default());
        let ids = stack.rack.server_ids();
        stack.rack.goto_zombie(ids[3]).unwrap();
        let before = stack.rack.db().free_buffers();
        stack.boot_vm(spec(1, 0.5, 20, 0.3)).unwrap();
        assert!(stack.rack.db().free_buffers() < before);
        stack.shutdown_vm(1).unwrap();
        assert_eq!(stack.rack.db().free_buffers(), before);
    }
}
