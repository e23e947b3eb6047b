//! The disaggregated rack facade (Fig. 7).
//!
//! [`Rack`] wires together the RDMA fabric, one ACPI platform per server,
//! the HA controller pair and one remote-mem-mgr per server, and exposes
//! the operations the hypervisor and cloud layers consume: zombie
//! transitions, buffer allocation, and the page data path. All operations
//! return the simulated time they took; the rack itself holds no clock
//! (callers accumulate durations into their own timelines, and the
//! heartbeat machinery takes explicit timestamps).

use core::fmt;

use zombieland_acpi::{platform::PlatformError, Platform, SleepState};
use zombieland_mem::buffer::{buffers_for, buffers_within, BufferId, BUFF_SIZE};
use zombieland_rdma::{
    fabric::FabricError, rpc::RpcLink, Availability, Fabric, LinkProfile, MrKey, NodeId,
};
use zombieland_simcore::{Bytes, SimDuration, SimTime, PAGE_SIZE};

use crate::db::{BufferRecord, DbError};
use crate::ha::HaPair;
use crate::manager::{ManagerError, PageHandle, PageLoc, PoolKind, RemoteMemManager};
use crate::protocol::RackOp;
use crate::server::ServerId;

/// Rack construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct RackConfig {
    /// Number of compute servers (the two controller hosts are extra).
    pub servers: u32,
    /// RAM per compute server (the paper's testbed: 16 GiB).
    pub ram_per_server: Bytes,
    /// RAM the host OS + hypervisor keep for themselves (never lent).
    pub system_reserved: Bytes,
    /// Secondary-controller heartbeat timeout.
    pub heartbeat_timeout: SimDuration,
    /// 4 KiB read latency of the local backup device (SSD-class).
    pub backup_read_4k: SimDuration,
    /// 4 KiB write latency of the local backup device.
    pub backup_write_4k: SimDuration,
    /// Fabric timing profile (default: the testbed's FDR InfiniBand).
    pub link: LinkProfile,
    /// Remote-memory backend pricing the page data path (default: the
    /// paper's RDMA-to-zombie design, a strict pass-through over `link`).
    pub backend: &'static crate::backend::BackendSpec,
}

impl Default for RackConfig {
    fn default() -> Self {
        RackConfig {
            servers: 4,
            ram_per_server: Bytes::gib(16),
            system_reserved: Bytes::gib(1),
            heartbeat_timeout: SimDuration::from_secs(3),
            backup_read_4k: SimDuration::from_micros(90),
            backup_write_4k: SimDuration::from_micros(30),
            link: LinkProfile::default(),
            backend: &crate::backend::RDMA_ZOMBIE,
        }
    }
}

/// Demand-fault reads staged by [`Rack::stage_demand_fetch`], awaiting
/// one posted batch ([`Rack::issue_demand_batch`]). Issuing drains the
/// reads in place, so a hot fault loop keeps a single batch object alive
/// across runs instead of allocating per coalesced run.
#[derive(Debug, Default)]
pub struct DemandFetchBatch {
    reads: Vec<(MrKey, Bytes, Bytes)>,
}

impl DemandFetchBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of reads currently staged.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }
}

/// Errors from rack operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RackError {
    /// Controller database refused.
    Db(DbError),
    /// Remote-mem-mgr bookkeeping refused.
    Manager(ManagerError),
    /// Fabric verb failed.
    Fabric(FabricError),
    /// Platform power transition failed.
    Platform(PlatformError),
    /// Unknown server id.
    UnknownServer(ServerId),
    /// The server is not in the state the operation requires.
    WrongState {
        /// The server in question.
        server: ServerId,
        /// Its current ACPI state.
        state: SleepState,
    },
}

impl fmt::Display for RackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RackError::Db(e) => write!(f, "controller: {e}"),
            RackError::Manager(e) => write!(f, "manager: {e}"),
            RackError::Fabric(e) => write!(f, "fabric: {e}"),
            RackError::Platform(e) => write!(f, "platform: {e}"),
            RackError::UnknownServer(s) => write!(f, "{s} unknown"),
            RackError::WrongState { server, state } => {
                write!(f, "{server} is in {state}")
            }
        }
    }
}

impl std::error::Error for RackError {}

impl From<DbError> for RackError {
    fn from(e: DbError) -> Self {
        RackError::Db(e)
    }
}

impl From<ManagerError> for RackError {
    fn from(e: ManagerError) -> Self {
        RackError::Manager(e)
    }
}

impl From<FabricError> for RackError {
    fn from(e: FabricError) -> Self {
        RackError::Fabric(e)
    }
}

impl From<PlatformError> for RackError {
    fn from(e: PlatformError) -> Self {
        RackError::Platform(e)
    }
}

/// Outcome of `goto_zombie`.
#[derive(Debug, Clone)]
pub struct ZombieOutcome {
    /// Buffers lent to the pool.
    pub buffers: Vec<BufferId>,
    /// Control-plane time (RPC round trip).
    pub control: SimDuration,
    /// Platform Sz-enter latency.
    pub suspend_latency: SimDuration,
}

/// Outcome of `wake`.
#[derive(Debug, Clone, Default)]
pub struct WakeOutcome {
    /// Platform exit latency.
    pub wake_latency: SimDuration,
    /// Control-plane time.
    pub control: SimDuration,
    /// Buffers taken back without revocation.
    pub reclaimed_free: u64,
    /// Buffers revoked from users.
    pub revoked: u64,
    /// Pages re-placed to other remote slots (backup read + RDMA write).
    pub relocated_pages: u64,
    /// Pages that fell back to their local backup.
    pub fallback_pages: u64,
    /// Time spent moving revoked data.
    pub relocation_time: SimDuration,
}

/// A point-in-time rack summary.
#[derive(Clone, Copy, Debug)]
pub struct RackStats {
    /// Servers in S0.
    pub active_servers: u32,
    /// Servers in Sz.
    pub zombie_servers: u32,
    /// Servers in S3/S4/S5.
    pub sleeping_servers: u32,
    /// Buffers currently lent to the pool.
    pub lent_buffers: u64,
    /// Lent buffers not allocated to any user.
    pub free_buffers: u64,
    /// Lent buffers in use.
    pub allocated_buffers: u64,
    /// Free pool memory.
    pub pool_memory: Bytes,
    /// Accumulated control-plane time.
    pub control_time: SimDuration,
    /// Whether the primary controller still leads.
    pub primary_alive: bool,
}

/// Outcome of an allocation.
#[derive(Debug, Clone)]
pub struct AllocOutcome {
    /// Buffers granted (possibly fewer than requested for swap).
    pub buffers: Vec<BufferId>,
    /// Control-plane time, including any `AS_get_free_mem` harvest.
    pub control: SimDuration,
}

struct ServerEntry {
    id: ServerId,
    node: NodeId,
    platform: Platform,
    ram: Bytes,
    local_used: Bytes,
    /// Buffers lent to the pool (the controller keeps their rows).
    lent: u64,
}

/// A disaggregated rack.
///
/// # Examples
///
/// ```
/// use zombieland_core::{Rack, RackConfig, ServerId};
/// use zombieland_simcore::Bytes;
///
/// let mut rack = Rack::new(RackConfig::default());
/// let servers = rack.server_ids();
/// let (user, zombie) = (servers[0], servers[1]);
///
/// // Suspend one server into Sz: its free memory joins the pool.
/// let z = rack.goto_zombie(zombie).unwrap();
/// assert!(!z.buffers.is_empty());
///
/// // The user takes a guaranteed RAM-Extension allocation and pages out.
/// rack.alloc_ext(user, Bytes::gib(2)).unwrap();
/// let (handle, cost) = rack.place_page(user, zombieland_core::manager::PoolKind::Ext).unwrap();
/// assert!(cost.as_micros() > 0);
/// rack.fetch_page(user, handle, true).unwrap();
/// ```
pub struct Rack {
    config: RackConfig,
    fabric: Fabric,
    ha: HaPair,
    primary_node: NodeId,
    servers: Vec<ServerEntry>,
    managers: Vec<RemoteMemManager>,
    to_primary: Vec<RpcLink>,
    to_secondary: Vec<RpcLink>,
    from_primary: Vec<RpcLink>,
    from_secondary: Vec<RpcLink>,
    control_time: SimDuration,
}

impl Rack {
    /// Builds a rack: `config.servers` compute servers plus the two
    /// controller hosts, all attached to one fabric.
    pub fn new(config: RackConfig) -> Self {
        let mut fabric = Fabric::with_profile(config.link);
        let primary_node = fabric.attach();
        let secondary_node = fabric.attach();
        let ha = HaPair::new(
            SimTime::ZERO,
            config.heartbeat_timeout,
            (0..config.servers).map(ServerId::new),
        );

        let mut servers = Vec::new();
        let mut managers = Vec::new();
        let mut to_primary = Vec::new();
        let mut to_secondary = Vec::new();
        let mut from_primary = Vec::new();
        let mut from_secondary = Vec::new();
        for i in 0..config.servers {
            let id = ServerId::new(i);
            let node = fabric.attach();
            servers.push(ServerEntry {
                id,
                node,
                platform: Platform::sz_capable(),
                ram: config.ram_per_server,
                local_used: Bytes::ZERO,
                lent: 0,
            });
            managers.push(RemoteMemManager::new(id));
            // Establishing links cannot fail here: every endpoint was
            // attached to this fabric a few lines up and nothing has
            // detached, so a failure is a construction-time bug, not a
            // runtime condition worth a typed error.
            let link = |fabric: &mut Fabric, a, b| {
                RpcLink::establish(fabric, a, b).expect("freshly attached endpoints always connect")
            };
            to_primary.push(link(&mut fabric, node, primary_node));
            to_secondary.push(link(&mut fabric, node, secondary_node));
            from_primary.push(link(&mut fabric, primary_node, node));
            from_secondary.push(link(&mut fabric, secondary_node, node));
        }
        Rack {
            config,
            fabric,
            ha,
            primary_node,
            servers,
            managers,
            to_primary,
            to_secondary,
            from_primary,
            from_secondary,
            control_time: SimDuration::ZERO,
        }
    }

    /// The rack configuration.
    pub fn config(&self) -> &RackConfig {
        &self.config
    }

    /// Compute-server ids.
    pub fn server_ids(&self) -> Vec<ServerId> {
        self.servers.iter().map(|s| s.id).collect()
    }

    /// Validates a server id, returning its vector index. The servers,
    /// managers and per-server RPC link tables are built together in
    /// [`Rack::new`], so one bounds check covers indexing into any of
    /// them; every public protocol entry point funnels through this (or
    /// [`Rack::entry`]) before indexing, turning a bad id into
    /// [`RackError::UnknownServer`] instead of a panic.
    fn server_index(&self, s: ServerId) -> Result<usize, RackError> {
        let i = s.get() as usize;
        if i < self.servers.len() {
            Ok(i)
        } else {
            Err(RackError::UnknownServer(s))
        }
    }

    fn entry(&self, s: ServerId) -> Result<&ServerEntry, RackError> {
        self.servers
            .get(s.get() as usize)
            .ok_or(RackError::UnknownServer(s))
    }

    fn entry_mut(&mut self, s: ServerId) -> Result<&mut ServerEntry, RackError> {
        self.servers
            .get_mut(s.get() as usize)
            .ok_or(RackError::UnknownServer(s))
    }

    /// The remote-mem-mgr of a server (read access, for tests and stats).
    ///
    /// # Panics
    ///
    /// Panics on an id outside this rack; protocol paths validate ids
    /// and return [`RackError::UnknownServer`] instead.
    pub fn manager(&self, s: ServerId) -> &RemoteMemManager {
        &self.managers[s.get() as usize]
    }

    /// The controller database (read access).
    pub fn db(&self) -> &crate::db::CtrlDb {
        self.ha.db()
    }

    /// The fabric (read access, for traffic stats).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The active backend's pricing object. Every data-path operation
    /// quotes the RDMA fabric model, then reprices through this; the
    /// default `RdmaZombie` backend returns the quote untouched, so the
    /// default path's timing is bit-for-bit what the fabric charges.
    fn backend(&self) -> &'static dyn crate::backend::FabricBackend {
        self.config.backend.backend
    }

    /// A server's ACPI state.
    pub fn state(&self, s: ServerId) -> Result<SleepState, RackError> {
        Ok(self.entry(s)?.platform.state())
    }

    /// Informs the rack how much of a server's RAM its VMs/hypervisor are
    /// using locally (bounds what the server can lend).
    pub fn set_local_usage(&mut self, s: ServerId, used: Bytes) -> Result<(), RackError> {
        let reserved = self.config.system_reserved;
        let entry = self.entry_mut(s)?;
        entry.local_used = used.min(entry.ram.saturating_sub(reserved));
        Ok(())
    }

    /// How much a server could still lend: RAM minus the system reserve,
    /// local usage, and what it already lent.
    pub fn lendable(&self, s: ServerId) -> Result<Bytes, RackError> {
        let entry = self.entry(s)?;
        let lent = BUFF_SIZE * entry.lent;
        Ok(entry
            .ram
            .saturating_sub(self.config.system_reserved)
            .saturating_sub(entry.local_used)
            .saturating_sub(lent))
    }

    /// Sends one control RPC from `s` to the active controller.
    fn rpc_to_ctrl(&mut self, s: ServerId, op: &RackOp) -> Result<SimDuration, RackError> {
        let i = self.server_index(s)?;
        let links = if self.ha.primary_alive() {
            &self.to_primary
        } else {
            &self.to_secondary
        };
        let t = links[i].call(
            &mut self.fabric,
            op.request_len(),
            op.response_len(),
            op.server_time(),
        )?;
        self.control_time += t.total();
        Ok(t.total())
    }

    /// Sends one control RPC from the active controller to `s`
    /// (`US_reclaim` direction).
    fn rpc_from_ctrl(&mut self, s: ServerId, op: &RackOp) -> Result<SimDuration, RackError> {
        let i = self.server_index(s)?;
        let links = if self.ha.primary_alive() {
            &self.from_primary
        } else {
            &self.from_secondary
        };
        let t = links[i].call(
            &mut self.fabric,
            op.request_len(),
            op.response_len(),
            op.server_time(),
        )?;
        self.control_time += t.total();
        Ok(t.total())
    }

    /// `GS_goto_zombie`: the server organizes its free memory into
    /// buffers, lends them, and suspends into Sz (§4.3).
    pub fn goto_zombie(&mut self, s: ServerId) -> Result<ZombieOutcome, RackError> {
        let state = self.state(s)?;
        if state != SleepState::S0 {
            return Err(RackError::WrongState { server: s, state });
        }
        let nb = buffers_within(self.lendable(s)?);
        // Register one MR per buffer while the CPU is still up.
        let node = self.entry(s)?.node;
        let mut mrs = Vec::with_capacity(nb as usize);
        for _ in 0..nb {
            mrs.push(self.fabric.register(node, BUFF_SIZE)?);
        }
        let op = RackOp::GotoZombie {
            host: s,
            buffers: nb,
        };
        let control = self.rpc_to_ctrl(s, &op)?;
        let ids: Vec<BufferId> = self
            .ha
            .mutate(|db| db.decide_lend(s, &mrs, true))?
            .ids()
            .collect();
        let entry = self.entry_mut(s)?;
        entry.lent += ids.len() as u64;
        let suspend = entry.platform.suspend("zom")?;
        self.fabric.set_availability(node, Availability::MemoryOnly);
        Ok(ZombieOutcome {
            buffers: ids,
            control,
            suspend_latency: suspend.latency,
        })
    }

    /// An *active* server lends `nb` buffers of its residual memory
    /// (the `AS_get_free_mem` response path).
    pub fn lend_active(&mut self, s: ServerId, nb: u64) -> Result<Vec<BufferId>, RackError> {
        let state = self.state(s)?;
        if state != SleepState::S0 {
            return Err(RackError::WrongState { server: s, state });
        }
        let nb = nb.min(buffers_within(self.lendable(s)?));
        let node = self.entry(s)?.node;
        let mut mrs = Vec::with_capacity(nb as usize);
        for _ in 0..nb {
            mrs.push(self.fabric.register(node, BUFF_SIZE)?);
        }
        let ids: Vec<BufferId> = self
            .ha
            .mutate(|db| db.decide_lend(s, &mrs, false))?
            .ids()
            .collect();
        self.entry_mut(s)?.lent += ids.len() as u64;
        Ok(ids)
    }

    /// Wakes a zombie server and reclaims `reclaim_buffers` of its lent
    /// buffers (`None` = all of them), revoking allocated ones from their
    /// users, who restore data from their local backups (§4.3).
    pub fn wake(
        &mut self,
        s: ServerId,
        reclaim_buffers: Option<u64>,
    ) -> Result<WakeOutcome, RackError> {
        let state = self.state(s)?;
        if state != SleepState::Sz {
            return Err(RackError::WrongState { server: s, state });
        }
        let mut out = WakeOutcome::default();

        // 1. The platform wakes; the node is fully available again.
        let node = self.entry(s)?.node;
        out.wake_latency = self.entry_mut(s)?.platform.wake()?;
        self.fabric.set_availability(node, Availability::Full);

        self.reclaim_into(s, reclaim_buffers, &mut out)?;

        // Any buffers it still lends are now active-type.
        self.ha.mutate(|db| db.decide_mark_awake(s))?;
        Ok(out)
    }

    /// An *active* server reclaims `nb` of its lent buffers without any
    /// power transition — §4.3's reclaim applies to any lender whose local
    /// demand grew ("If an active server requires more memory...").
    pub fn reclaim_active(
        &mut self,
        s: ServerId,
        reclaim_buffers: Option<u64>,
    ) -> Result<WakeOutcome, RackError> {
        let state = self.state(s)?;
        if state != SleepState::S0 {
            return Err(RackError::WrongState { server: s, state });
        }
        let mut out = WakeOutcome::default();
        self.reclaim_into(s, reclaim_buffers, &mut out)?;
        Ok(out)
    }

    /// The shared GS_reclaim machinery: plan, revoke, relocate, deregister.
    fn reclaim_into(
        &mut self,
        s: ServerId,
        reclaim_buffers: Option<u64>,
        out: &mut WakeOutcome,
    ) -> Result<(), RackError> {
        // GS_reclaim: the manager asks for its memory back.
        let lent_count = self.entry(s)?.lent;
        let nb = reclaim_buffers.unwrap_or(lent_count).min(lent_count);
        if nb > 0 {
            let op = RackOp::Reclaim {
                host: s,
                nb_buffers: nb,
            };
            out.control += self.rpc_to_ctrl(s, &op)?;
            // The controller plans: free buffers first, then revocations.
            let plan = self.ha.mutate(|db| db.decide_reclaim(s, nb))?.plan;
            out.reclaimed_free = plan.returned_free.len() as u64;
            out.revoked = plan.revoked.len() as u64;

            // 3. US_reclaim the allocated buffers from their users (one
            //    call per user, carrying the whole id list as the paper's
            //    `US_reclaim(buff_IDs)` does); each user re-places data
            //    from its local backup.
            let mut by_user: std::collections::BTreeMap<ServerId, Vec<BufferId>> =
                std::collections::BTreeMap::new();
            for (user, buffer) in &plan.revoked {
                by_user.entry(*user).or_default().push(*buffer);
            }
            for (user, buffers) in &by_user {
                let op = RackOp::UsReclaim {
                    user: *user,
                    buff_ids: buffers.clone(),
                };
                out.control += self.rpc_from_ctrl(*user, &op)?;
                let revocation = self.managers[user.get() as usize].revoke_many(buffers)?;
                let user_node = self.entry(*user)?.node;
                for (handle, new_slot) in &revocation.relocated {
                    let mgr = &self.managers[user.get() as usize];
                    let mr = mgr.buffer_record(new_slot.buffer)?.mr;
                    // Restore from the local backup: real bytes when the
                    // page went through the data path, timing otherwise.
                    let backed = mgr.backup_bytes(*handle).map(<[u8]>::to_vec);
                    let write = match backed {
                        Some(bytes) => {
                            self.fabric
                                .write(user_node, mr, new_slot.offset(), &bytes)?
                        }
                        None => self.fabric.write_timed(
                            user_node,
                            mr,
                            new_slot.offset(),
                            Bytes::new(PAGE_SIZE),
                        )?,
                    };
                    let write = self.backend().write_time(write, Bytes::new(PAGE_SIZE));
                    out.relocation_time += self.config.backup_read_4k + write;
                }
                out.relocated_pages += revocation.relocated.len() as u64;
                out.fallback_pages += revocation.fell_back.len() as u64;
            }

            // 4. Destroy the communication channels: deregister the MRs of
            //    every reclaimed buffer and return the memory to the host.
            self.entry_mut(s)?.lent -= plan.mrs.len() as u64;
            for &mr in &plan.mrs {
                self.fabric.deregister(mr)?;
            }
        }

        Ok(())
    }

    fn try_allocate(
        &mut self,
        user: ServerId,
        nb: u64,
        guaranteed: bool,
    ) -> Result<Vec<BufferRecord>, RackError> {
        Ok(self
            .ha
            .mutate(|db| db.decide_allocate(user, nb, guaranteed))?
            .records)
    }

    /// Harvests residual memory from active servers until `shortfall`
    /// buffers have been gathered or no server can lend more
    /// (`AS_get_free_mem`).
    fn harvest(&mut self, user: ServerId, shortfall: u64) -> Result<SimDuration, RackError> {
        let mut gathered = 0u64;
        let mut control = SimDuration::ZERO;
        let ids = self.server_ids();
        for s in ids {
            if gathered >= shortfall {
                break;
            }
            if s == user || self.state(s)? != SleepState::S0 {
                continue;
            }
            let can = buffers_within(self.lendable(s)?);
            if can == 0 {
                continue;
            }
            let take = can.min(shortfall - gathered);
            let op = RackOp::AsGetFreeMem { host: s };
            control += self.rpc_from_ctrl(s, &op)?;
            let got = self.lend_active(s, take)?;
            gathered += got.len() as u64;
        }
        Ok(control)
    }

    /// `GS_alloc_ext(memSize)`: guaranteed RAM-Extension allocation,
    /// zombie memory first, harvesting active servers if the pool is
    /// short. Called once at VM creation (§4.4).
    pub fn alloc_ext(&mut self, user: ServerId, size: Bytes) -> Result<AllocOutcome, RackError> {
        let nb = buffers_for(size);
        let op = RackOp::AllocExt {
            user,
            mem_size: size,
        };
        let mut control = self.rpc_to_ctrl(user, &op)?;
        let records = match self.try_allocate(user, nb, true) {
            Ok(r) => r,
            Err(RackError::Db(DbError::AdmissionDenied { available, .. })) => {
                control += self.harvest(user, nb - available)?;
                self.try_allocate(user, nb, true)?
            }
            Err(e) => return Err(e),
        };
        let mgr = &mut self.managers[user.get() as usize];
        let buffers = records.iter().map(|r| r.id).collect();
        for r in records {
            mgr.grant(r, PoolKind::Ext);
        }
        Ok(AllocOutcome { buffers, control })
    }

    /// `GS_alloc_swap(memSize)`: best-effort Explicit-SD allocation; may
    /// return fewer buffers than requested (§4.4).
    pub fn alloc_swap(&mut self, user: ServerId, size: Bytes) -> Result<AllocOutcome, RackError> {
        let nb = buffers_for(size);
        let op = RackOp::AllocSwap {
            user,
            mem_size: size,
        };
        let mut control = self.rpc_to_ctrl(user, &op)?;
        let free = self.ha.db().free_buffers();
        if free < nb {
            control += self.harvest(user, nb - free)?;
        }
        let records = self.try_allocate(user, nb, false)?;
        let mgr = &mut self.managers[user.get() as usize];
        let buffers = records.iter().map(|r| r.id).collect();
        for r in records {
            mgr.grant(r, PoolKind::Swap);
        }
        Ok(AllocOutcome { buffers, control })
    }

    /// Releases empty granted buffers back to the pool.
    pub fn release(&mut self, user: ServerId, buffers: &[BufferId]) -> Result<(), RackError> {
        let user_i = self.server_index(user)?;
        for b in buffers {
            self.managers[user_i].ungrant(*b)?;
        }
        self.ha.mutate(|db| db.decide_release(user, buffers))?;
        Ok(())
    }

    /// Places one page into remote memory: picks a slot, performs the
    /// one-sided RDMA write, and mirrors to the local backup
    /// asynchronously. Returns the page handle and the *synchronous* cost.
    pub fn place_page(
        &mut self,
        user: ServerId,
        pool: PoolKind,
    ) -> Result<(PageHandle, SimDuration), RackError> {
        let user_node = self.entry(user)?.node;
        let mgr = &mut self.managers[user.get() as usize];
        let (handle, slot) = mgr.place_page(pool)?;
        let mr = mgr.buffer_record(slot.buffer)?.mr;
        let cost = self
            .fabric
            .write_timed(user_node, mr, slot.offset(), Bytes::new(PAGE_SIZE))?;
        Ok((
            handle,
            self.backend().write_time(cost, Bytes::new(PAGE_SIZE)),
        ))
    }

    /// Places one page *with its contents*: the bytes travel over the
    /// (data-carrying) fabric into the zombie's registered region, and a
    /// copy lands in the local backup so the page survives revocations
    /// and crashes byte-for-byte.
    pub fn place_page_data(
        &mut self,
        user: ServerId,
        pool: PoolKind,
        data: &[u8],
    ) -> Result<(PageHandle, SimDuration), RackError> {
        let user_node = self.entry(user)?.node;
        let mgr = &mut self.managers[user.get() as usize];
        let (handle, slot) = mgr.place_page(pool)?;
        let mr = mgr.buffer_record(slot.buffer)?.mr;
        mgr.store_backup(handle, data)?;
        let cost = self.fabric.write(user_node, mr, slot.offset(), data)?;
        let cost = self
            .backend()
            .write_time(cost, Bytes::new(data.len() as u64));
        Ok((handle, cost))
    }

    /// Fetches a page's *contents* back. Remote pages read through the
    /// fabric; backup-resident pages return the mirrored bytes.
    pub fn fetch_page_data(
        &mut self,
        user: ServerId,
        handle: PageHandle,
        free: bool,
    ) -> Result<(Vec<u8>, SimDuration), RackError> {
        let user_node = self.entry(user)?.node;
        let mgr = &self.managers[user.get() as usize];
        let (data, cost) = match mgr.locate(handle)? {
            PageLoc::Remote(slot) => {
                let mr = mgr.buffer_record(slot.buffer)?.mr;
                let mut buf = vec![0u8; PAGE_SIZE as usize];
                let cost = self.fabric.read(user_node, mr, slot.offset(), &mut buf)?;
                (buf, self.backend().read_time(cost, Bytes::new(PAGE_SIZE)))
            }
            PageLoc::LocalBackup => {
                let data = mgr
                    .backup_bytes(handle)
                    .ok_or(RackError::Manager(ManagerError::UnknownHandle(handle)))?
                    .to_vec();
                (data, self.config.backup_read_4k)
            }
        };
        if free {
            self.managers[user.get() as usize].free_page(handle)?;
        }
        Ok((data, cost))
    }

    /// Rewrites an existing remote page in place (dirty re-demotion).
    pub fn rewrite_page(
        &mut self,
        user: ServerId,
        handle: PageHandle,
    ) -> Result<SimDuration, RackError> {
        let user_node = self.entry(user)?.node;
        let mgr = &mut self.managers[user.get() as usize];
        match mgr.note_rewrite(handle)? {
            PageLoc::Remote(slot) => {
                let mr = mgr.buffer_record(slot.buffer)?.mr;
                let cost =
                    self.fabric
                        .write_timed(user_node, mr, slot.offset(), Bytes::new(PAGE_SIZE))?;
                Ok(self.backend().write_time(cost, Bytes::new(PAGE_SIZE)))
            }
            PageLoc::LocalBackup => Ok(self.config.backup_write_4k),
        }
    }

    /// Fetches one page back (remote fault). `free` releases the remote
    /// slot (clean promotion); keep it for read-only faults.
    ///
    /// If the remote host crashed (unreachable without warning — the
    /// failure §2 says naive remote-memory systems cannot survive), the
    /// page is served from its asynchronous local backup instead, and
    /// the handle is downgraded so later accesses skip the dead host.
    pub fn fetch_page(
        &mut self,
        user: ServerId,
        handle: PageHandle,
        free: bool,
    ) -> Result<SimDuration, RackError> {
        let user_node = self.entry(user)?.node;
        let mgr = &self.managers[user.get() as usize];
        let cost = match mgr.locate(handle)? {
            PageLoc::Remote(slot) => {
                let mr = mgr.buffer_record(slot.buffer)?.mr;
                match self
                    .fabric
                    .read_timed(user_node, mr, slot.offset(), Bytes::new(PAGE_SIZE))
                {
                    Ok(cost) => self.backend().read_time(cost, Bytes::new(PAGE_SIZE)),
                    Err(FabricError::Unreachable { .. }) => {
                        // The serving host died: fall back to the mirror.
                        self.managers[user.get() as usize].downgrade_to_backup(handle)?;
                        self.config.backup_read_4k
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            PageLoc::LocalBackup => self.config.backup_read_4k,
        };
        if free {
            self.managers[user.get() as usize].free_page(handle)?;
        }
        Ok(cost)
    }

    /// Simulates a server crash: the node drops off the fabric without
    /// any protocol goodbye. Every page users had on it survives through
    /// its asynchronous local backup ("each write to a remote buffer is
    /// asynchronously mirrored to the local storage", §4.3), served from
    /// the slower path from now on. Returns how many pages were lost to
    /// backups.
    pub fn crash_server(&mut self, s: ServerId) -> Result<u64, RackError> {
        let node = self.entry(s)?.node;
        self.fabric.set_availability(node, Availability::Down);
        // Purge the controller's rows for the dead host and downgrade the
        // affected users' pages.
        let nb = self.entry(s)?.lent;
        let mut lost_pages = 0u64;
        if nb > 0 {
            let plan = self.ha.mutate(|db| db.decide_reclaim(s, nb))?.plan;
            for (user, buffer) in &plan.revoked {
                lost_pages += self.managers[user.get() as usize]
                    .lose_buffer(*buffer)?
                    .len() as u64;
            }
        }
        self.entry_mut(s)?.lent = 0;
        Ok(lost_pages)
    }

    /// Fetches several pages in one pipelined batch — the swap-readahead
    /// data path. Remote pages ride a single posted batch (one base
    /// latency total), staged in `batch` and drained as
    /// [`Rack::issue_demand_batch`] does; backup-resident pages pay the
    /// device serially. No slots are freed (prefetched pages keep their
    /// clean copies).
    pub fn fetch_pages_batch(
        &mut self,
        user: ServerId,
        handles: impl IntoIterator<Item = PageHandle>,
        batch: &mut DemandFetchBatch,
    ) -> Result<SimDuration, RackError> {
        let mgr = &self.managers[self.server_index(user)?];
        let mut backup_reads = 0u64;
        for h in handles {
            match mgr.locate(h)? {
                PageLoc::Remote(slot) => {
                    let mr = mgr.buffer_record(slot.buffer)?.mr;
                    batch.reads.push((mr, slot.offset(), Bytes::new(PAGE_SIZE)));
                }
                PageLoc::LocalBackup => backup_reads += 1,
            }
        }
        Ok(self.issue_demand_batch(user, batch)? + self.config.backup_read_4k * backup_reads)
    }

    /// Stages one demand-fault fetch into `batch`, returning the page's
    /// synchronous fetch cost — exactly what `fetch_page(user, handle,
    /// false)` would charge — while deferring the fabric read itself so a
    /// run of adjacent faults rides a single posted batch
    /// ([`Rack::issue_demand_batch`]).
    ///
    /// The fallback semantics match `fetch_page` byte for byte: a page
    /// whose serving host died is downgraded to its local backup *here*
    /// (nothing is staged for it) and pays the backup device cost, and a
    /// backup-resident page pays the device serially. Only reachable
    /// remote pages enter the posted batch, so issuing it cannot fail on
    /// availability.
    pub fn stage_demand_fetch(
        &mut self,
        user: ServerId,
        handle: PageHandle,
        batch: &mut DemandFetchBatch,
    ) -> Result<SimDuration, RackError> {
        let mgr = &self.managers[self.server_index(user)?];
        match mgr.locate(handle)? {
            PageLoc::Remote(slot) => {
                let mr = mgr.buffer_record(slot.buffer)?.mr;
                if self.fabric.mr_reachable(mr)? {
                    batch.reads.push((mr, slot.offset(), Bytes::new(PAGE_SIZE)));
                    let quoted = self.fabric.profile().read_time(Bytes::new(PAGE_SIZE));
                    Ok(self.backend().read_time(quoted, Bytes::new(PAGE_SIZE)))
                } else {
                    // The serving host died: fall back to the mirror,
                    // exactly as the per-page path does on Unreachable.
                    self.managers[user.get() as usize].downgrade_to_backup(handle)?;
                    Ok(self.config.backup_read_4k)
                }
            }
            PageLoc::LocalBackup => Ok(self.config.backup_read_4k),
        }
    }

    /// Posts every staged read of `batch` back-to-back on one queue pair
    /// and drains the batch for reuse. Returns the transport-level batch
    /// completion time (one base latency plus the serialized payload).
    ///
    /// Callers that model synchronous per-fault latency have already
    /// charged each page's cost at stage time; for them the posted batch
    /// is the wire mechanism, not an accounting event, and this return
    /// value is informational.
    pub fn issue_demand_batch(
        &mut self,
        user: ServerId,
        batch: &mut DemandFetchBatch,
    ) -> Result<SimDuration, RackError> {
        if batch.reads.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let user_node = self.entry(user)?.node;
        let t = self.fabric.read_batch_timed(user_node, &batch.reads)?;
        let payload = Bytes::new(PAGE_SIZE * batch.reads.len() as u64);
        let t = self
            .backend()
            .batch_read_time(t, batch.reads.len(), payload);
        batch.reads.clear();
        Ok(t)
    }

    /// Drops a remote page without reading it back.
    pub fn free_page(&mut self, user: ServerId, handle: PageHandle) -> Result<(), RackError> {
        let user_i = self.server_index(user)?;
        Ok(self.managers[user_i].free_page(handle)?)
    }

    /// `GS_get_lru_zombie()`: the zombie serving the fewest allocated
    /// buffers (cheapest to wake).
    pub fn get_lru_zombie(&mut self, from: ServerId) -> Result<Option<ServerId>, RackError> {
        self.rpc_to_ctrl(from, &RackOp::GetLruZombie)?;
        Ok(self.ha.db().get_lru_zombie())
    }

    /// A point-in-time summary of the rack (observability / dashboards).
    pub fn stats(&self) -> RackStats {
        let db = self.ha.db();
        let mut zombies = 0u32;
        let mut active = 0u32;
        let mut sleeping = 0u32;
        for e in &self.servers {
            match e.platform.state() {
                SleepState::S0 => active += 1,
                SleepState::Sz => zombies += 1,
                _ => sleeping += 1,
            }
        }
        let lent: u64 = self.servers.iter().map(|e| e.lent).sum();
        RackStats {
            active_servers: active,
            zombie_servers: zombies,
            sleeping_servers: sleeping,
            lent_buffers: lent,
            free_buffers: db.free_buffers(),
            allocated_buffers: lent - db.free_buffers(),
            pool_memory: db.free_memory(),
            control_time: self.control_time,
            primary_alive: self.ha.primary_alive(),
        }
    }

    /// Primary controller heartbeat (call periodically with sim time).
    pub fn heartbeat(&mut self, now: SimTime) {
        self.ha.heartbeat(now);
    }

    /// Secondary's monitor check; returns `true` on failover.
    pub fn check_failover(&mut self, now: SimTime) -> bool {
        let failed = self.ha.check(now);
        if failed {
            self.fabric
                .set_availability(self.primary_node, Availability::Down);
        }
        failed
    }

    /// Simulates a primary-controller crash.
    pub fn crash_primary(&mut self) {
        self.ha.kill_primary();
    }

    /// Whether the primary controller still leads.
    pub fn primary_alive(&self) -> bool {
        self.ha.primary_alive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack4() -> Rack {
        Rack::new(RackConfig::default())
    }

    #[test]
    fn zombie_lends_free_memory() {
        let mut rack = rack4();
        let s = rack.server_ids()[1];
        rack.set_local_usage(s, Bytes::gib(3)).unwrap();
        let out = rack.goto_zombie(s).unwrap();
        // 16 GiB - 1 reserved - 3 used = 12 GiB = 192 buffers of 64 MiB.
        assert_eq!(out.buffers.len(), 192);
        assert_eq!(rack.state(s).unwrap(), SleepState::Sz);
        assert!(rack.db().is_zombie(s));
        assert_eq!(rack.db().free_buffers(), 192);
        assert!(out.suspend_latency > SimDuration::ZERO);
        assert!(out.control > SimDuration::ZERO);
    }

    #[test]
    fn ext_allocation_prefers_zombie_and_pages_flow() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let (user, zombie) = (ids[0], ids[1]);
        rack.goto_zombie(zombie).unwrap();
        let znode = zombieland_rdma::NodeId::new(2 + zombie.get());
        // Outbound ops so far came from the GS_goto_zombie RPC (sent while
        // the server was still awake). None may be added after suspension.
        let outbound_before = rack.fabric().stats(znode).unwrap().outbound_ops;
        let alloc = rack.alloc_ext(user, Bytes::gib(1)).unwrap();
        assert_eq!(alloc.buffers.len(), 16);

        let (h, w) = rack.place_page(user, PoolKind::Ext).unwrap();
        // A one-sided 4 KiB write to a zombie lands in ~1-3 µs.
        assert!(w.as_micros() >= 1 && w.as_micros() < 10, "{w}");
        let r = rack.fetch_page(user, h, true).unwrap();
        assert!(r >= w, "reads cost at least as much as writes");
        // The zombie's CPU was never involved: it served the page purely
        // with inbound one-sided operations.
        let znode_stats = rack.fabric().stats(znode).unwrap();
        assert!(znode_stats.inbound_writes >= 1);
        assert_eq!(znode_stats.outbound_ops, outbound_before);
    }

    #[test]
    fn admission_control_denies_then_harvest_fills() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let user = ids[0];
        // No zombie yet: the pool is empty, but servers 1-3 are active
        // and idle, so the harvest path should gather their free memory.
        let alloc = rack.alloc_ext(user, Bytes::gib(4)).unwrap();
        assert_eq!(alloc.buffers.len(), 64);
        // Buffers came from active servers.
        let rec = rack.db().record(alloc.buffers[0]).unwrap();
        assert_eq!(rec.kind, crate::db::BufferKind::Active);
    }

    #[test]
    fn ext_denied_when_rack_is_full() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let user = ids[0];
        // Make every other server memory-full so nothing is lendable.
        for &s in &ids[1..] {
            rack.set_local_usage(s, Bytes::gib(16)).unwrap();
        }
        let err = rack.alloc_ext(user, Bytes::gib(1)).unwrap_err();
        assert!(matches!(
            err,
            RackError::Db(DbError::AdmissionDenied { .. })
        ));
    }

    #[test]
    fn swap_allocation_is_best_effort() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let user = ids[0];
        for &s in &ids[1..] {
            rack.set_local_usage(s, Bytes::gib(14)).unwrap(); // 1 GiB lendable each.
        }
        // Ask for far more than exists: get what is there, no error.
        let alloc = rack.alloc_swap(user, Bytes::gib(100)).unwrap();
        assert_eq!(alloc.buffers.len(), 3 * 16);
    }

    #[test]
    fn wake_reclaims_and_relocates() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let (user, z1, z2) = (ids[0], ids[1], ids[2]);
        rack.goto_zombie(z1).unwrap();
        rack.goto_zombie(z2).unwrap();
        let alloc = rack.alloc_ext(user, Bytes::gib(30)).unwrap();
        assert_eq!(alloc.buffers.len(), 480);
        // Fill some pages (they land on the striped buffers).
        for _ in 0..64 {
            rack.place_page(user, PoolKind::Ext).unwrap();
        }
        let out = rack.wake(z1, None).unwrap();
        assert_eq!(rack.state(z1).unwrap(), SleepState::S0);
        assert!(!rack.db().is_zombie(z1));
        assert_eq!(out.reclaimed_free + out.revoked, 240);
        // Pages that lived on z1 moved (there was spare capacity on z2).
        assert!(out.relocated_pages > 0);
        assert_eq!(out.fallback_pages, 0);
        assert!(out.relocation_time > SimDuration::ZERO);
        // The user's pages are all still reachable.
        assert_eq!(rack.manager(user).live_pages(), 64);
    }

    #[test]
    fn wake_falls_back_to_local_backup_when_pool_exhausted() {
        let mut rack = Rack::new(RackConfig {
            servers: 2,
            ..RackConfig::default()
        });
        let ids = rack.server_ids();
        let (user, zombie) = (ids[0], ids[1]);
        rack.goto_zombie(zombie).unwrap();
        rack.alloc_ext(user, Bytes::mib(128)).unwrap();
        let (h, _) = rack.place_page(user, PoolKind::Ext).unwrap();
        let out = rack.wake(zombie, None).unwrap();
        assert_eq!(out.fallback_pages, 1);
        // Fetching now hits the local backup (slower than RDMA).
        let cost = rack.fetch_page(user, h, false).unwrap();
        assert_eq!(cost, rack.config().backup_read_4k);
    }

    #[test]
    fn lru_zombie_is_cheapest_to_wake() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let (user, z1, z2) = (ids[0], ids[1], ids[2]);
        rack.goto_zombie(z1).unwrap();
        // Allocate most of z1's memory before z2 enters the pool.
        rack.alloc_ext(user, Bytes::gib(10)).unwrap();
        rack.goto_zombie(z2).unwrap();
        assert_eq!(rack.get_lru_zombie(user).unwrap(), Some(z2));
    }

    #[test]
    fn controller_failover_is_transparent() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let (user, zombie) = (ids[0], ids[1]);
        rack.goto_zombie(zombie).unwrap();
        rack.heartbeat(SimTime::ZERO + SimDuration::from_secs(1));

        rack.crash_primary();
        assert!(rack.check_failover(SimTime::ZERO + SimDuration::from_secs(10)));
        assert!(!rack.primary_alive());

        // The mirrored state serves allocations as if nothing happened.
        let alloc = rack.alloc_ext(user, Bytes::gib(1)).unwrap();
        assert_eq!(alloc.buffers.len(), 16);
        let (h, _) = rack.place_page(user, PoolKind::Ext).unwrap();
        rack.fetch_page(user, h, true).unwrap();
    }

    #[test]
    fn cannot_zombie_twice_or_wake_running() {
        let mut rack = rack4();
        let s = rack.server_ids()[1];
        rack.goto_zombie(s).unwrap();
        assert!(matches!(
            rack.goto_zombie(s),
            Err(RackError::WrongState { .. })
        ));
        let u = rack.server_ids()[0];
        assert!(matches!(
            rack.wake(u, None),
            Err(RackError::WrongState { .. })
        ));
    }

    #[test]
    fn active_server_reclaims_without_waking() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let (user, lender) = (ids[0], ids[2]);
        // An active server lends 4 buffers; the user consumes them all.
        rack.lend_active(lender, 4).unwrap();
        rack.alloc_ext(user, Bytes::mib(256)).unwrap();
        for _ in 0..8 {
            rack.place_page(user, PoolKind::Ext).unwrap();
        }
        // Its own memory demand grows: it reclaims two buffers, staying
        // in S0 throughout.
        let out = rack.reclaim_active(lender, Some(2)).unwrap();
        assert_eq!(rack.state(lender).unwrap(), SleepState::S0);
        assert_eq!(out.reclaimed_free + out.revoked, 2);
        assert_eq!(out.wake_latency, SimDuration::ZERO);
        assert_eq!(rack.db().buffers_of_host(lender).len(), 2);
        // The user's pages remain reachable.
        assert_eq!(rack.manager(user).live_pages(), 8);
        // A zombie cannot use this path.
        rack.goto_zombie(ids[1]).unwrap();
        assert!(matches!(
            rack.reclaim_active(ids[1], None),
            Err(RackError::WrongState { .. })
        ));
    }

    #[test]
    fn stats_snapshot_consistent() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        rack.goto_zombie(ids[1]).unwrap();
        rack.alloc_ext(ids[0], Bytes::gib(1)).unwrap();
        let s = rack.stats();
        assert_eq!(s.active_servers, 3);
        assert_eq!(s.zombie_servers, 1);
        assert_eq!(s.sleeping_servers, 0);
        assert_eq!(s.lent_buffers, 240);
        assert_eq!(s.allocated_buffers, 16);
        assert_eq!(s.free_buffers, 224);
        assert_eq!(s.pool_memory, Bytes::gib(14));
        assert!(s.control_time > SimDuration::ZERO);
        assert!(s.primary_alive);
    }

    #[test]
    fn release_returns_capacity() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let (user, zombie) = (ids[0], ids[1]);
        rack.goto_zombie(zombie).unwrap();
        let before = rack.db().free_buffers();
        let alloc = rack.alloc_ext(user, Bytes::gib(1)).unwrap();
        assert_eq!(rack.db().free_buffers(), before - 16);
        rack.release(user, &alloc.buffers).unwrap();
        assert_eq!(rack.db().free_buffers(), before);
    }

    /// Protocol entry points reject ids outside the rack with a typed
    /// error instead of panicking on an out-of-bounds table index.
    #[test]
    fn unknown_server_ids_are_typed_errors() {
        let mut rack = rack4();
        let ids = rack.server_ids();
        let (user, zombie) = (ids[0], ids[1]);
        rack.goto_zombie(zombie).unwrap();
        let alloc = rack.alloc_ext(user, Bytes::gib(1)).unwrap();
        let bogus = ServerId::new(999);

        let unknown =
            |r: Result<_, RackError>| matches!(r, Err(RackError::UnknownServer(s)) if s == bogus);
        assert!(unknown(rack.alloc_ext(bogus, Bytes::gib(1)).map(|_| ())));
        assert!(unknown(rack.alloc_swap(bogus, Bytes::gib(1)).map(|_| ())));
        assert!(unknown(rack.place_page(bogus, PoolKind::Ext).map(|_| ())));
        assert!(unknown(rack.release(bogus, &alloc.buffers)));
        let (handle, _) = rack.place_page(user, PoolKind::Ext).unwrap();
        assert!(unknown(rack.free_page(bogus, handle).map(|_| ())));
        // And the rack still works afterwards: nothing was corrupted.
        rack.fetch_page(user, handle, true).unwrap();
    }
}
