//! The daemon's cluster model: what `zombied` answers requests *about*.
//!
//! A [`ClusterModel`] is a rack of `servers` hosts on a simulated RDMA
//! fabric, fronted by the HA controller pair ([`HaPair`]) and one
//! remote-memory-manager agent per user. It is booted deterministically
//! from a seed: a short [`zombieland_simulator`] run under the
//! ZombieStack policy decides how many hosts start as zombies (so the
//! daemon comes up with a realistic lending pool instead of an empty
//! database), and every MR registration / buffer id flows through the
//! same code paths the in-process experiments use.
//!
//! Every applied operation advances the model's sim-clock by the op's
//! [`RackOp::server_time`], heartbeats the primary controller, and runs
//! the secondary's monitor — so a crashed primary (`--fail-primary-after`)
//! is detected and failed over *between* requests, mid-stream, exactly
//! the transparent-HA story §4.1–4.2 tells.

use std::collections::BTreeMap;

use zombieland_core::codec::{BufferDesc, ErrorFrame, RackResponse, ResponseBody};
use zombieland_core::db::{BufferKind, BufferRecord, DbError};
use zombieland_core::ha::HaPair;
use zombieland_core::manager::{ManagerError, PoolKind, RemoteMemManager};
use zombieland_core::protocol::RackOp;
use zombieland_core::ServerId;
use zombieland_energy::MachineProfile;
use zombieland_mem::buffer::{buffers_for, buffers_within, BufferId, BUFF_SIZE};
use zombieland_rdma::{Fabric, MrKey, NodeId};
use zombieland_simcore::{Bytes, SimDuration, SimTime};
use zombieland_simulator::{simulate, PolicyKind, SimConfig};
use zombieland_trace::{ClusterTrace, TraceConfig};

/// How a [`ClusterModel`] boots.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Hosts in the rack.
    pub servers: u32,
    /// Boot seed: same seed, same model, same responses.
    pub seed: u64,
    /// Lendable memory per host (free RAM it can serve remotely).
    pub lendable: Bytes,
    /// Crash the primary controller after this many applied ops (the
    /// secondary takes over via heartbeat timeout).
    pub fail_primary_after: Option<u64>,
}

impl ModelConfig {
    /// A rack of `servers` hosts seeded with `seed`, 1 GiB lendable
    /// each, no injected crash.
    pub fn new(servers: u32, seed: u64) -> Self {
        ModelConfig {
            servers: servers.max(2),
            seed,
            lendable: Bytes::gib(1),
            fail_primary_after: None,
        }
    }
}

/// Heartbeat timeout: ops advance the clock by tens of microseconds, so
/// a crashed primary is declared dead within a handful of requests.
const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_micros(100);

/// The daemon's world.
pub struct ClusterModel {
    fabric: Fabric,
    nodes: Vec<NodeId>,
    ha: HaPair,
    managers: BTreeMap<ServerId, RemoteMemManager>,
    /// Per-host memory not yet lent into the pool.
    unlent: Vec<Bytes>,
    clock: SimTime,
    ops_applied: u64,
    heartbeats: u64,
    fail_primary_after: Option<u64>,
    primary_crashed: bool,
    initial_zombies: u64,
    /// Remote-memory backend the boot simulation priced the rack under
    /// (the installed scenario's `backend` key; surfaced in STATS).
    backend: &'static zombieland_core::backend::BackendSpec,
    /// Bytes currently lent into the pooled tier across all hosts.
    lent_bytes: Bytes,
}

impl ClusterModel {
    /// Boots a model: runs a short deterministic simulation to pick the
    /// initial zombie population, then registers hosts and lends the
    /// zombies' memory into the pool.
    pub fn boot(cfg: ModelConfig) -> ClusterModel {
        let trace = ClusterTrace::generate(TraceConfig {
            servers: cfg.servers,
            duration: SimDuration::from_hours(6),
            seed: cfg.seed,
            mem_cpu_ratio: 1.0,
            avg_utilization: 0.25,
        });
        let sim_cfg = SimConfig {
            sample_interval: Some(SimDuration::from_hours(1)),
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        };
        let backend = sim_cfg.backend;
        let report = simulate(&trace, &sim_cfg);
        let zombies = report
            .timeline
            .last()
            .map(|s| s.counts[1])
            .unwrap_or(0)
            .clamp(1, cfg.servers as u64 - 1);

        let mut fabric = Fabric::new();
        let nodes: Vec<NodeId> = (0..cfg.servers).map(|_| fabric.attach()).collect();
        let mut ha = HaPair::new(SimTime::ZERO, HEARTBEAT_TIMEOUT);
        for i in 0..cfg.servers {
            ha.apply(|db| db.register_host(ServerId::new(i)));
        }
        let mut model = ClusterModel {
            fabric,
            nodes,
            ha,
            managers: BTreeMap::new(),
            unlent: vec![cfg.lendable; cfg.servers as usize],
            clock: SimTime::ZERO,
            ops_applied: 0,
            heartbeats: 0,
            fail_primary_after: cfg.fail_primary_after,
            primary_crashed: false,
            initial_zombies: zombies,
            backend,
            lent_bytes: Bytes::ZERO,
        };
        // Seed the pool: the simulated zombie count, spread evenly over
        // the rack, each lending everything it has.
        let stride = (cfg.servers as u64 / zombies).max(1);
        for z in 0..zombies {
            let host = ServerId::new(((z * stride) % cfg.servers as u64) as u32);
            let _ = model.lend_host(host, u64::MAX, true);
        }
        model
    }

    /// Hosts that booted as zombies (decided by the boot simulation).
    pub fn initial_zombies(&self) -> u64 {
        self.initial_zombies
    }

    /// Free buffers currently in the controller database.
    pub fn free_buffers(&self) -> u64 {
        self.ha.db().free_buffers()
    }

    /// Operations applied so far.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Controller failovers so far.
    pub fn failovers(&self) -> u32 {
        self.ha.failovers()
    }

    /// Writes the model's current state into a scrape registry: lifetime
    /// counters (ops, heartbeats, failovers) and point-in-time gauges
    /// (pool pressure, zombie population, HA liveness, the model clock).
    /// Called with the model lock held, on the merged scrape copy — the
    /// per-connection telemetry shards never see these names, so gauges
    /// reflect *now* rather than an average of past scrapes.
    pub fn observe_into(&self, reg: &mut zombieland_obs::MetricRegistry) {
        reg.counter_add("zombied.ops_applied", self.ops_applied);
        reg.counter_add("zombied.ha.heartbeats", self.heartbeats);
        reg.counter_add("zombied.ha.failovers", self.ha.failovers() as u64);
        reg.gauge_set(
            "zombied.ha.primary_alive",
            u64::from(self.ha.primary_alive()),
        );
        reg.gauge_set("zombied.pool.free_buffers", self.ha.db().free_buffers());
        reg.gauge_set("zombied.pool.zombies", self.ha.db().zombie_count());
        reg.gauge_set("zombied.pool.lent_bytes", self.lent_bytes.get());
        // One flag gauge per registered backend (the registry is static,
        // and `gauge_set` needs `&'static str` names): exactly one is 1.
        reg.gauge_set(
            "zombied.backend.rdma",
            u64::from(self.backend.key == "rdma"),
        );
        reg.gauge_set("zombied.backend.cxl", u64::from(self.backend.key == "cxl"));
        reg.gauge_set("zombied.managers", self.managers.len() as u64);
        reg.gauge_set("zombied.clock_ns", self.clock.as_nanos());
    }

    /// Registers `n ≤ max_buffers` MRs on `host` (bounded by its unlent
    /// memory) and lends them into the pool.
    fn lend_host(
        &mut self,
        host: ServerId,
        max_buffers: u64,
        zombie: bool,
    ) -> Result<Vec<BufferId>, ErrorFrame> {
        let idx = host.get() as usize;
        if idx >= self.nodes.len() {
            return Err(ErrorFrame::UnknownHost(host));
        }
        let n = max_buffers.min(buffers_within(self.unlent[idx]));
        let node = self.nodes[idx];
        let mrs: Vec<MrKey> = (0..n)
            .map(|_| {
                self.fabric
                    .register(node, BUFF_SIZE)
                    .expect("node attached at boot")
            })
            .collect();
        let ids = self
            .ha
            .apply(|db| db.lend(host, &mrs, zombie))
            .map_err(db_error_frame)?;
        self.unlent[idx] -= BUFF_SIZE * n;
        self.lent_bytes += BUFF_SIZE * n;
        Ok(ids)
    }

    /// Allocates `mem_size` for `user` and grants the buffers to the
    /// user's manager agent.
    fn alloc(
        &mut self,
        user: ServerId,
        mem_size: Bytes,
        guaranteed: bool,
    ) -> Result<Vec<BufferDesc>, ErrorFrame> {
        let nb = buffers_for(mem_size);
        let records = self
            .ha
            .apply(|db| db.allocate(user, nb, guaranteed))
            .map_err(db_error_frame)?;
        let pool = if guaranteed {
            PoolKind::Ext
        } else {
            PoolKind::Swap
        };
        let manager = self
            .managers
            .entry(user)
            .or_insert_with(|| RemoteMemManager::new(user));
        let descs = records
            .iter()
            .map(|r| {
                manager.grant(*r, pool);
                desc_of(r)
            })
            .collect();
        Ok(descs)
    }

    /// Applies one control-plane operation, advancing the model clock and
    /// the HA machinery, and returns the wire response.
    pub fn apply(&mut self, op: &RackOp) -> RackResponse {
        self.ops_applied += 1;
        if self.fail_primary_after == Some(self.ops_applied) {
            self.ha.kill_primary();
            self.primary_crashed = true;
        }
        let decision = op.server_time();
        self.clock += decision;
        if !self.primary_crashed {
            self.ha.heartbeat(self.clock);
            self.heartbeats += 1;
        }
        self.ha.check(self.clock);

        let body = match self.dispatch(op) {
            Ok(body) => body,
            Err(e) => ResponseBody::Error(e),
        };
        RackResponse { decision, body }
    }

    fn dispatch(&mut self, op: &RackOp) -> Result<ResponseBody, ErrorFrame> {
        match op {
            RackOp::GotoZombie { host, buffers } => {
                let ids = self.lend_host(*host, *buffers, true)?;
                Ok(ResponseBody::Lent { buffers: ids })
            }
            RackOp::AsGetFreeMem { host } => {
                let ids = self.lend_host(*host, u64::MAX, false)?;
                Ok(ResponseBody::Lent { buffers: ids })
            }
            RackOp::Reclaim { host, nb_buffers } => {
                let idx = host.get() as usize;
                if idx >= self.nodes.len() {
                    return Err(ErrorFrame::UnknownHost(*host));
                }
                // The host's MR keys, read while its rows still exist.
                let mrs: BTreeMap<BufferId, MrKey> = self
                    .ha
                    .db()
                    .buffers_of_host(*host)
                    .iter()
                    .map(|r| (r.id, r.mr))
                    .collect();
                let plan = self
                    .ha
                    .apply(|db| db.reclaim(*host, *nb_buffers))
                    .map_err(db_error_frame)?;
                // Destroy the channels: deregister every reclaimed MR.
                for b in plan.all_buffers() {
                    self.fabric
                        .deregister(mrs[&b])
                        .expect("the model's hosts stay powered");
                }
                // Revoke allocated buffers from their users' agents (the
                // US_reclaim leg of the reclaim protocol).
                for &(user, buffer) in &plan.revoked {
                    if let Some(m) = self.managers.get_mut(&user) {
                        let _ = m.revoke_many(&[buffer]);
                    }
                }
                let reclaimed = plan.returned_free.len() + plan.revoked.len();
                self.unlent[idx] += BUFF_SIZE * reclaimed as u64;
                self.lent_bytes -= BUFF_SIZE * reclaimed as u64;
                Ok(ResponseBody::Reclaimed {
                    returned_free: plan.returned_free,
                    revoked: plan.revoked,
                })
            }
            RackOp::UsReclaim { user, buff_ids } => {
                let manager = self
                    .managers
                    .get_mut(user)
                    .ok_or(ErrorFrame::UnknownHost(*user))?;
                let rev = manager.revoke_many(buff_ids).map_err(manager_error_frame)?;
                // The controller's database drops the user's claim.
                let _ = self.ha.apply(|db| db.release(*user, buff_ids));
                Ok(ResponseBody::Revoked {
                    relocated: rev.relocated.len() as u64,
                    fell_back: rev.fell_back.len() as u64,
                })
            }
            RackOp::AllocExt { user, mem_size } => {
                let buffers = self.alloc(*user, *mem_size, true)?;
                Ok(ResponseBody::Granted { buffers })
            }
            RackOp::AllocSwap { user, mem_size } => {
                let buffers = self.alloc(*user, *mem_size, false)?;
                Ok(ResponseBody::Granted { buffers })
            }
            RackOp::GetLruZombie => Ok(ResponseBody::LruZombie {
                host: self.ha.db().get_lru_zombie(),
            }),
        }
    }
}

fn desc_of(r: &BufferRecord) -> BufferDesc {
    BufferDesc {
        id: r.id,
        host: r.host,
        mr_key: r.mr.get(),
        size: r.size,
        zombie: r.kind == BufferKind::Zombie,
    }
}

fn db_error_frame(e: DbError) -> ErrorFrame {
    match e {
        DbError::UnknownHost(h) => ErrorFrame::UnknownHost(h),
        DbError::UnknownBuffer(b) => ErrorFrame::UnknownBuffer(b),
        DbError::AdmissionDenied {
            requested,
            available,
        } => ErrorFrame::AdmissionDenied {
            requested,
            available,
        },
        DbError::NotTheUser(buffer, user) => ErrorFrame::NotTheUser { buffer, user },
    }
}

fn manager_error_frame(e: ManagerError) -> ErrorFrame {
    match e {
        ManagerError::UnknownBuffer(b) => ErrorFrame::UnknownBuffer(b),
        ManagerError::NoRemoteCapacity(_) => ErrorFrame::NoCapacity,
        // Handle-level errors cannot arise from a wire request; classify
        // them as capacity trouble rather than invent a wire variant.
        ManagerError::UnknownHandle(_) | ManagerError::BufferBusy(_) => ErrorFrame::NoCapacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ClusterModel {
        ClusterModel::boot(ModelConfig::new(8, 11))
    }

    #[test]
    fn boot_is_deterministic_and_seeds_zombies() {
        let a = model();
        let b = model();
        assert_eq!(a.initial_zombies(), b.initial_zombies());
        assert_eq!(a.free_buffers(), b.free_buffers());
        assert!(a.initial_zombies() >= 1);
        assert!(a.free_buffers() > 0, "boot must lend something");
    }

    #[test]
    fn seven_ops_answer_with_matching_bodies() {
        let mut m = model();
        let free_before = m.free_buffers();

        let r = m.apply(&RackOp::AllocExt {
            user: ServerId::new(1),
            mem_size: Bytes::mib(128),
        });
        let ResponseBody::Granted { buffers } = &r.body else {
            panic!("alloc_ext answered {r:?}");
        };
        assert_eq!(buffers.len(), 2);
        assert!(buffers.iter().all(|d| d.zombie));
        assert_eq!(m.free_buffers(), free_before - 2);
        let granted: Vec<BufferId> = buffers.iter().map(|d| d.id).collect();

        let r = m.apply(&RackOp::AllocSwap {
            user: ServerId::new(1),
            mem_size: Bytes::mib(64),
        });
        assert!(matches!(&r.body, ResponseBody::Granted { buffers } if buffers.len() == 1));

        let r = m.apply(&RackOp::GetLruZombie);
        let ResponseBody::LruZombie { host: Some(_) } = r.body else {
            panic!("no zombie in a freshly booted rack: {r:?}");
        };

        let r = m.apply(&RackOp::UsReclaim {
            user: ServerId::new(1),
            buff_ids: granted,
        });
        assert!(matches!(r.body, ResponseBody::Revoked { .. }), "{r:?}");

        // Host 7 is never an initial zombie under the even-spread boot
        // (the spread never reaches the last host), so it still has its
        // full lendable budget.
        let r = m.apply(&RackOp::GotoZombie {
            host: ServerId::new(7),
            buffers: 4,
        });
        assert!(matches!(&r.body, ResponseBody::Lent { buffers } if buffers.len() == 4));

        let r = m.apply(&RackOp::AsGetFreeMem {
            host: ServerId::new(7),
        });
        assert!(matches!(r.body, ResponseBody::Lent { .. }), "{r:?}");

        let r = m.apply(&RackOp::Reclaim {
            host: ServerId::new(7),
            nb_buffers: 2,
        });
        let ResponseBody::Reclaimed {
            returned_free,
            revoked,
        } = &r.body
        else {
            panic!("reclaim answered {r:?}");
        };
        assert_eq!(returned_free.len() + revoked.len(), 2);

        // Decision latency is the op's modeled server time, always.
        let op = RackOp::GetLruZombie;
        assert_eq!(m.apply(&op).decision, op.server_time());
    }

    #[test]
    fn stats_overlay_reports_backend_and_lent_bytes() {
        let m = model();
        let mut reg = zombieland_obs::MetricRegistry::default();
        m.observe_into(&mut reg);
        // The default scenario runs the paper's rdma backend.
        assert_eq!(reg.gauge("zombied.backend.rdma").map(|g| g.max), Some(1));
        assert_eq!(reg.gauge("zombied.backend.cxl").map(|g| g.max), Some(0));
        let lent = reg.gauge("zombied.pool.lent_bytes").map(|g| g.max);
        assert!(
            lent.unwrap() > 0,
            "boot lends the zombies' memory: {lent:?}"
        );
        // Reclaiming shrinks the lent-bytes gauge.
        let mut m = model();
        m.apply(&RackOp::Reclaim {
            host: ServerId::new(0),
            nb_buffers: 1,
        });
        let mut after = zombieland_obs::MetricRegistry::default();
        m.observe_into(&mut after);
        assert!(after.gauge("zombied.pool.lent_bytes").unwrap().max < lent.unwrap());
    }

    #[test]
    fn reclaim_deregisters_the_reclaimed_mrs() {
        let mut m = model();
        let host = ServerId::new(0);
        let lent = m.ha.db().buffers_of_host(host);
        assert!(lent.len() > 2, "host 0 boots as a zombie: {lent:?}");
        m.apply(&RackOp::AllocSwap {
            user: ServerId::new(1),
            mem_size: Bytes::mib(64),
        });
        let r = m.apply(&RackOp::Reclaim {
            host,
            nb_buffers: 2,
        });
        let ResponseBody::Reclaimed {
            returned_free,
            revoked,
        } = &r.body
        else {
            panic!("reclaim answered {r:?}");
        };
        let gone: Vec<BufferId> = returned_free
            .iter()
            .copied()
            .chain(revoked.iter().map(|&(_, b)| b))
            .collect();
        assert_eq!(gone.len(), 2);
        for rec in &lent {
            let owner = m.fabric.mr_owner(rec.mr);
            if gone.contains(&rec.id) {
                assert!(owner.is_err(), "{:?} still registered", rec.id);
            } else {
                assert_eq!(owner, Ok(m.nodes[0]), "{:?} lost its MR", rec.id);
            }
        }
    }

    #[test]
    fn unknown_host_and_admission_errors_are_typed() {
        let mut m = model();
        let r = m.apply(&RackOp::GotoZombie {
            host: ServerId::new(999),
            buffers: 1,
        });
        assert_eq!(
            r.body,
            ResponseBody::Error(ErrorFrame::UnknownHost(ServerId::new(999)))
        );
        let r = m.apply(&RackOp::AllocExt {
            user: ServerId::new(0),
            mem_size: Bytes::gib(100),
        });
        assert!(
            matches!(
                r.body,
                ResponseBody::Error(ErrorFrame::AdmissionDenied { .. })
            ),
            "{r:?}"
        );
    }

    #[test]
    fn primary_crash_fails_over_mid_stream_and_service_continues() {
        let mut m = ClusterModel::boot(ModelConfig {
            fail_primary_after: Some(3),
            ..ModelConfig::new(8, 11)
        });
        let mut bodies = Vec::new();
        for _ in 0..16 {
            bodies.push(m.apply(&RackOp::GetLruZombie).body);
        }
        assert_eq!(m.failovers(), 1, "secondary must have taken over");
        // Every answer, before and after the failover, is well-formed and
        // identical (reads of mirrored state).
        assert!(bodies.iter().all(|b| *b == bodies[0]));

        // Mutations keep working against the promoted secondary.
        let r = m.apply(&RackOp::AllocSwap {
            user: ServerId::new(2),
            mem_size: Bytes::mib(64),
        });
        assert!(matches!(r.body, ResponseBody::Granted { .. }), "{r:?}");
    }
}
