//! The experiment implementations behind every table and figure.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use zombieland_core::manager::PoolKind;
use zombieland_core::{Rack, RackConfig, ServerId};
use zombieland_energy::curve;
use zombieland_energy::profile::MeasuredConfig;
use zombieland_energy::rack::{figure4, RackDemand, RackEnergy};
use zombieland_energy::MachineProfile;
use zombieland_hypervisor::engine::{self, Backing, EngineConfig, RunStats};
use zombieland_hypervisor::{Policy, SwapBackend};
use zombieland_obs::{profile, run_indexed_obs};
use zombieland_simcore::report::{fmt_penalty, Table};
use zombieland_simcore::{derive_seed, Bytes, SimDuration};
use zombieland_simulator::{simulate, PolicyKind, SimConfig, SimReport};
use zombieland_trace::{ClusterTrace, TraceConfig};
use zombieland_workloads::{by_name, Workload};

/// The four workloads of Tables 1–2, in row order.
pub const WORKLOADS: [&str; 4] = ["micro-bench", "data-caching", "elasticsearch", "spark-sql"];

/// The local-memory percentages of Tables 1–2.
pub const LOCAL_PCTS: [u32; 5] = [20, 40, 50, 60, 80];

/// Memory-experiment scale: 1.0 = the paper's 7 GiB VM / 6 GiB WSS.
/// Defaults to 0.25 (1.75 GiB VM) so `cargo bench` finishes in minutes;
/// override with `ZL_SCALE` or a `--scenario` file's `scale` key (the
/// [`scenario`](zombieland_core::scenario) layer resolves precedence).
pub fn scale_from_env() -> f64 {
    zombieland_core::scenario::current().scale
}

/// Repetitions per measurement ("each result presented in this paper is
/// an average of ten executions", §6). Defaults to 1 — the simulation is
/// deterministic, so repetitions only matter when varying seeds;
/// override with `ZL_RUNS` or a scenario file's `runs` key.
pub fn runs_from_env() -> u32 {
    zombieland_core::scenario::current().runs
}

/// Worker threads for experiment fan-out, resolved by the scenario
/// layer (precedence: CLI `--jobs` flag > `ZL_JOBS` > a scenario file's
/// `jobs` key > `available_parallelism`). Every experiment's runs are
/// independent deterministic simulations, so the thread count changes
/// wall-clock time only — never a single output bit (asserted in
/// `tests/parallel_determinism.rs`).
pub fn jobs_from_env() -> usize {
    zombieland_core::scenario::current().jobs()
}

/// VM geometry at a given scale.
#[derive(Clone, Copy, Debug)]
pub struct VmGeometry {
    /// VM reserved memory (paper: 7 GiB).
    pub reserved: Bytes,
    /// Workload working-set size (paper: 6 GiB).
    pub wss: Bytes,
}

impl VmGeometry {
    /// The paper's geometry scaled by `scale`.
    pub fn at_scale(scale: f64) -> Self {
        VmGeometry {
            reserved: Bytes::gib(7).mul_f64(scale),
            wss: Bytes::gib(6).mul_f64(scale),
        }
    }
}

/// Builds the four-server testbed rack (§6.1) with one zombie serving
/// memory, and returns `(rack, user)`.
pub fn testbed_rack() -> (Rack, ServerId) {
    let mut rack = Rack::new(RackConfig::default());
    let ids = rack.server_ids();
    let (user, zombie) = (ids[0], ids[1]);
    rack.goto_zombie(zombie).unwrap();
    (rack, user)
}

/// Builds a workload via a per-thread prototype cache: the first request
/// for a `(name, wss, seed)` triple constructs it, later requests clone
/// the cached prototype. Construction is a pure function of the key
/// (`Workload::clone_box` docs), so a clone replays exactly the stream a
/// fresh build would — and grid sweeps that rebuild the same workload
/// for every cell (e.g. each Table 1 column shares one stream) stop
/// paying Zipf-table and RNG setup per cell. Thread-local, so runner
/// workers never contend on it.
fn cached_workload(name: &str, wss: Bytes, seed: u64) -> Box<dyn Workload> {
    type WorkloadKey = (String, u64, u64);
    thread_local! {
        static PROTOTYPES: RefCell<Vec<(WorkloadKey, Box<dyn Workload>)>> =
            const { RefCell::new(Vec::new()) };
    }
    PROTOTYPES.with(|p| {
        let mut cache = p.borrow_mut();
        let pages = wss.pages();
        if let Some((_, proto)) = cache
            .iter()
            .find(|(k, _)| k.0 == name && k.1 == pages.count() && k.2 == seed)
        {
            return proto.clone_box();
        }
        let _span = profile::span(profile::Phase::TraceGen);
        let proto = by_name(name, pages, seed).expect("known workload");
        let fresh = proto.clone_box();
        cache.push(((name.to_string(), pages.count(), seed), proto));
        fresh
    })
}

/// Runs one workload under RAM Ext at `local` bytes of local memory.
pub fn run_ram_ext(name: &str, geo: VmGeometry, local: Bytes, policy: Policy) -> RunStats {
    run_ram_ext_seeded(name, geo, local, policy, 42)
}

/// [`run_ram_ext`] with an explicit workload/policy seed (repetition
/// support: the paper averages ten executions).
pub fn run_ram_ext_seeded(
    name: &str,
    geo: VmGeometry,
    local: Bytes,
    policy: Policy,
    seed: u64,
) -> RunStats {
    let setup = profile::span(profile::Phase::HvSetup);
    let (mut rack, user) = testbed_rack();
    let remote = geo.reserved.saturating_sub(local);
    if remote > Bytes::ZERO {
        rack.alloc_ext(user, remote).unwrap();
    }
    drop(setup);
    let mut w = cached_workload(name, geo.wss, seed);
    let cfg = EngineConfig {
        policy,
        seed,
        ..EngineConfig::ram_ext(geo.reserved, local)
    };
    engine::run(
        &mut *w,
        &cfg,
        Backing::Rack {
            rack: &mut rack,
            user,
            pool: PoolKind::Ext,
        },
    )
    .expect("run succeeds")
}

/// Runs one workload under Explicit SD on `backend`.
pub fn run_explicit_sd(
    name: &str,
    geo: VmGeometry,
    local: Bytes,
    backend: SwapBackend,
) -> RunStats {
    let mut w = cached_workload(name, geo.wss, 42);
    let cfg = EngineConfig::explicit_sd(geo.reserved, local, backend);
    match backend {
        SwapBackend::RemoteRam => {
            let (mut rack, user) = testbed_rack();
            let swap = geo.reserved.saturating_sub(local);
            rack.alloc_swap(user, swap).unwrap();
            engine::run(
                &mut *w,
                &cfg,
                Backing::Rack {
                    rack: &mut rack,
                    user,
                    pool: PoolKind::Swap,
                },
            )
            .expect("run succeeds")
        }
        dev => engine::run(
            &mut *w,
            &cfg,
            Backing::Device {
                read: dev.read_4k().expect("device backend"),
                write: dev.write_4k().expect("device backend"),
            },
        )
        .expect("run succeeds"),
    }
}

/// Baseline (100 % local) run of a workload.
pub fn baseline(name: &str, geo: VmGeometry) -> RunStats {
    run_ram_ext(name, geo, geo.reserved, Policy::MIXED_DEFAULT)
}

// ---------------------------------------------------------------------
// Fig. 8 — replacement policies.
// ---------------------------------------------------------------------

/// One Fig. 8 sample: policy metrics at a local-memory percentage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig8Point {
    /// Percent of the VM's memory that is local.
    pub local_pct: u32,
    /// Execution time.
    pub exec_time: SimDuration,
    /// Remote page faults.
    pub faults: u64,
    /// Mean policy cycles per eviction.
    pub cycles_per_eviction: f64,
    /// Median remote-fault service time.
    pub fault_p50: Option<SimDuration>,
    /// Tail (p99) remote-fault service time.
    pub fault_p99: Option<SimDuration>,
}

/// Runs the Fig. 8 sweep for one policy over the micro-benchmark.
pub fn figure8(policy: Policy, scale: f64) -> Vec<Fig8Point> {
    figure8_jobs(policy, scale, jobs_from_env())
}

/// [`figure8`] with an explicit worker count: the nine local-percentage
/// points are independent runs and fan out across `jobs` threads.
pub fn figure8_jobs(policy: Policy, scale: f64, jobs: usize) -> Vec<Fig8Point> {
    let geo = VmGeometry::at_scale(scale);
    const PCTS: [u32; 9] = [20, 30, 40, 50, 60, 70, 80, 90, 100];
    run_indexed_obs(jobs, PCTS.len(), |i| {
        let pct = PCTS[i];
        let local = geo.reserved.mul_f64(pct as f64 / 100.0);
        let stats = run_ram_ext("micro-bench", geo, local, policy);
        Fig8Point {
            local_pct: pct,
            exec_time: stats.exec_time,
            faults: stats.remote_faults,
            cycles_per_eviction: stats.cycles_per_eviction(),
            fault_p50: stats.fault_latency.quantile(0.5),
            fault_p99: stats.fault_latency.quantile(0.99),
        }
    })
}

/// Prints the Fig. 8 table for the three paper policies.
pub fn print_figure8(scale: f64, jobs: usize) {
    let fifo = figure8_jobs(Policy::Fifo, scale, jobs);
    let clock = figure8_jobs(Policy::Clock, scale, jobs);
    let mixed = figure8_jobs(Policy::MIXED_DEFAULT, scale, jobs);
    print!("{}", render_figure8(&fifo, &clock, &mixed));
}

/// Renders the Fig. 8 report exactly as the CLI prints it, from the
/// FIFO, Clock and Mixed sweeps (see [`render_figure10`] for why the
/// bytes matter).
pub fn render_figure8(fifo: &[Fig8Point], clock: &[Fig8Point], mixed: &[Fig8Point]) -> String {
    let _span = profile::span(profile::Phase::Render);
    let mut t = Table::new(
        "Fig 8: FIFO vs Clock vs Mixed (micro-benchmark)",
        &[
            "%local",
            "FIFO time",
            "Clock time",
            "Mixed time",
            "FIFO faults",
            "Clock faults",
            "Mixed faults",
            "FIFO cy/evict",
            "Clock cy/evict",
            "Mixed cy/evict",
            "Mixed fault p50/p99",
        ],
    );
    for i in 0..fifo.len() {
        t.row(&[
            format!("{}", fifo[i].local_pct),
            format!("{}", fifo[i].exec_time),
            format!("{}", clock[i].exec_time),
            format!("{}", mixed[i].exec_time),
            format!("{}", fifo[i].faults),
            format!("{}", clock[i].faults),
            format!("{}", mixed[i].faults),
            format!("{:.0}", fifo[i].cycles_per_eviction),
            format!("{:.0}", clock[i].cycles_per_eviction),
            format!("{:.0}", mixed[i].cycles_per_eviction),
            match (mixed[i].fault_p50, mixed[i].fault_p99) {
                (Some(p50), Some(p99)) => format!("{p50} / {p99}"),
                _ => "-".to_string(),
            },
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    out
}

// ---------------------------------------------------------------------
// Table 1 — RAM Ext penalty per workload.
// ---------------------------------------------------------------------

/// One Table 1 row.
#[derive(Clone, Debug, PartialEq)]
pub struct PenaltyRow {
    /// Workload name.
    pub workload: &'static str,
    /// `(local %, penalty %)` pairs.
    pub penalties: Vec<(u32, f64)>,
}

/// Computes Table 1 (RAM Ext penalties), averaging `ZL_RUNS` seeded
/// executions per cell as the paper does.
pub fn table1(scale: f64) -> Vec<PenaltyRow> {
    table1_jobs(scale, jobs_from_env())
}

/// [`table1`] with an explicit worker count. Every (workload, local %,
/// repetition) cell is an independent run keyed by its grid index —
/// repetition seeds come from [`derive_seed`], never a shared stream —
/// so the whole grid fans out across `jobs` threads with bit-for-bit
/// stable results.
pub fn table1_jobs(scale: f64, jobs: usize) -> Vec<PenaltyRow> {
    let geo = VmGeometry::at_scale(scale);
    let runs = runs_from_env();
    let cells = run_indexed_obs(jobs, WORKLOADS.len() * LOCAL_PCTS.len(), |i| {
        let name = WORKLOADS[i / LOCAL_PCTS.len()];
        let pct = LOCAL_PCTS[i % LOCAL_PCTS.len()];
        let local = geo.reserved.mul_f64(pct as f64 / 100.0);
        let mean: f64 = (0..runs)
            .map(|r| {
                // Repetition 0 keeps the workspace-wide seed 42 (so one
                // run reproduces every other harness exactly);
                // additional repetitions get decorrelated derived seeds.
                let seed = if r == 0 {
                    42
                } else {
                    derive_seed(42, r as u64)
                };
                let base = run_ram_ext_seeded(name, geo, geo.reserved, Policy::MIXED_DEFAULT, seed);
                run_ram_ext_seeded(name, geo, local, Policy::MIXED_DEFAULT, seed).penalty_pct(&base)
            })
            .sum::<f64>()
            / runs as f64;
        (pct, mean)
    });
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(w, &name)| PenaltyRow {
            workload: name,
            penalties: cells[w * LOCAL_PCTS.len()..(w + 1) * LOCAL_PCTS.len()].to_vec(),
        })
        .collect()
}

/// Prints Table 1 in the paper's layout.
pub fn print_table1(rows: &[PenaltyRow]) {
    print!("{}", render_table1(rows));
}

/// Renders the Table 1 report exactly as the CLI prints it (see
/// [`render_figure10`] for why the bytes matter).
pub fn render_table1(rows: &[PenaltyRow]) -> String {
    let mut t = Table::new(
        "Table 1: RAM Ext performance penalty vs % local memory",
        &[
            "% local",
            "micro-bench",
            "data-caching",
            "elasticsearch",
            "spark-sql",
        ],
    );
    for (i, &pct) in LOCAL_PCTS.iter().enumerate() {
        let mut cells = vec![format!("{pct}%")];
        for row in rows {
            cells.push(fmt_penalty(row.penalties[i].1));
        }
        t.row(&cells);
    }
    let mut out = t.render();
    out.push('\n');
    out
}

// ---------------------------------------------------------------------
// Table 2 — RAM Ext vs Explicit SD vs local swap devices.
// ---------------------------------------------------------------------

/// One Table 2 cell set: penalties of the four configurations at one
/// local percentage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table2Row {
    /// Percent local.
    pub local_pct: u32,
    /// v1: RAM Extension.
    pub ram_ext: f64,
    /// v2: Explicit SD on remote RAM.
    pub esd: f64,
    /// v2 on a local SSD.
    pub lfsd: f64,
    /// v2 on a local HDD.
    pub lssd: f64,
}

/// Computes one workload's Table 2 sub-table.
pub fn table2(workload: &'static str, scale: f64) -> Vec<Table2Row> {
    table2_jobs(workload, scale, jobs_from_env())
}

/// [`table2`] with an explicit worker count: the all-local baseline and
/// every (local %, swap technology) run fan out as one flat batch.
pub fn table2_jobs(workload: &'static str, scale: f64, jobs: usize) -> Vec<Table2Row> {
    let geo = VmGeometry::at_scale(scale);
    // Index 0 is the all-local baseline; the rest are local-percentage
    // major, technology minor (RAM Ext, ESD, local SSD, local HDD).
    let stats = run_indexed_obs(jobs, 1 + LOCAL_PCTS.len() * 4, |i| {
        if i == 0 {
            return baseline(workload, geo);
        }
        let pct = LOCAL_PCTS[(i - 1) / 4];
        let local = geo.reserved.mul_f64(pct as f64 / 100.0);
        match (i - 1) % 4 {
            0 => run_ram_ext(workload, geo, local, Policy::MIXED_DEFAULT),
            1 => run_explicit_sd(workload, geo, local, SwapBackend::RemoteRam),
            2 => run_explicit_sd(workload, geo, local, SwapBackend::LocalSsd),
            _ => run_explicit_sd(workload, geo, local, SwapBackend::LocalHdd),
        }
    });
    let base = &stats[0];
    LOCAL_PCTS
        .iter()
        .enumerate()
        .map(|(row, &pct)| {
            let s = &stats[1 + row * 4..1 + row * 4 + 4];
            Table2Row {
                local_pct: pct,
                ram_ext: s[0].penalty_pct(base),
                esd: s[1].penalty_pct(base),
                lfsd: s[2].penalty_pct(base),
                lssd: s[3].penalty_pct(base),
            }
        })
        .collect()
}

/// Prints one Table 2 sub-table.
pub fn print_table2(workload: &str, rows: &[Table2Row]) {
    print!("{}", render_table2(workload, rows));
}

/// Renders one Table 2 sub-table exactly as the CLI prints it.
pub fn render_table2(workload: &str, rows: &[Table2Row]) -> String {
    let mut t = Table::new(
        &format!("Table 2 ({workload}): penalty by swap technology"),
        &["% local", "v1-RE", "v2-ESD", "v2-LFSD", "v2-LSSD"],
    );
    for r in rows {
        t.row(&[
            format!("{}%", r.local_pct),
            fmt_penalty(r.ram_ext),
            fmt_penalty(r.esd),
            fmt_penalty(r.lfsd),
            fmt_penalty(r.lssd),
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    out
}

// ---------------------------------------------------------------------
// Fig. 9 — migration.
// ---------------------------------------------------------------------

/// Fig. 9 series: `(wss ratio %, native seconds, zombiestack seconds)`.
pub fn figure9() -> Vec<(u32, f64, f64)> {
    let vm_mem = Bytes::gib(7);
    [20u32, 30, 40, 50, 60, 70, 80]
        .iter()
        .map(|&pct| {
            let (native, zombie) =
                zombieland_cloud::migration::figure9_point(vm_mem, pct as f64 / 100.0);
            (pct, native.total.as_secs_f64(), zombie.total.as_secs_f64())
        })
        .collect()
}

/// Prints the Fig. 9 table.
pub fn print_figure9() {
    let mut t = Table::new(
        "Fig 9: migration time vs WSS ratio (7 GiB VM)",
        &["WSS %", "Native (s)", "ZombieStack (s)"],
    );
    for (pct, native, zombie) in figure9() {
        t.row(&[
            format!("{pct}%"),
            format!("{native:.1}"),
            format!("{zombie:.1}"),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Table 3 — energy configurations + Eq. 1.
// ---------------------------------------------------------------------

/// Prints Table 3 (measured fractions + the derived Sz column).
pub fn print_table3() {
    let mut t = Table::new(
        "Table 3: energy as % of machine maximum (Sz derived via Eq. 1)",
        &[
            "Machine", "S0WOIB", "S0WIBOff", "S0WIBOn", "S3WOIB", "S3WIB", "S4WOIB", "S4WIB", "Sz",
        ],
    );
    for p in [MachineProfile::hp(), MachineProfile::dell()] {
        let mut cells = vec![p.name().to_string()];
        for c in MeasuredConfig::ALL {
            cells.push(format!("{:.2}%", p.fraction(c) * 100.0));
        }
        cells.push(format!("{:.2}%", p.sz_fraction() * 100.0));
        t.row(&cells);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Fig. 10 — datacenter energy savings.
// ---------------------------------------------------------------------

/// Fig. 10 datacenter scale (servers, days): defaults to 600 servers ×
/// 2 days; override with `ZL_DC_SERVERS` / `ZL_DC_DAYS` or a scenario
/// file's `servers` / `days` keys (the paper: 12 583 × 29).
pub fn dc_scale_from_env() -> (u32, u64) {
    let s = zombieland_core::scenario::current();
    (s.servers, s.days)
}

/// Builds the Fig. 10 trace uncached (what [`fig10_trace`] memoizes;
/// the input-caching test compares the two paths byte for byte).
pub fn generate_fig10_trace(servers: u32, days: u64, seed: u64) -> ClusterTrace {
    let _span = profile::span(profile::Phase::TraceGen);
    ClusterTrace::generate(TraceConfig {
        servers,
        duration: SimDuration::from_days(days),
        seed,
        mem_cpu_ratio: 1.0,
        avg_utilization: 0.25,
    })
}

/// The Fig. 10 trace (Google-shaped; booked CPU ≈ 25 % as in the
/// original cluster traces), memoized by its generating parameters.
///
/// Generating a multi-day trace is expensive and every policy×profile
/// cell — and every pass of a bench scaling curve — wants the *same*
/// trace, so all callers of one `(servers, days, seed)` triple share a
/// single immutable `Arc`'d instance (whose sorted event list is itself
/// built once, see [`ClusterTrace::event_order`]). Generation is a pure
/// function of the key, so sharing is invisible in the reports —
/// `tests/input_caching.rs` holds that door shut.
pub fn fig10_trace(servers: u32, days: u64, seed: u64) -> Arc<ClusterTrace> {
    type TraceKey = (u32, u64, u64);
    static CACHE: Mutex<Vec<(TraceKey, Arc<ClusterTrace>)>> = Mutex::new(Vec::new());
    let key = (servers, days, seed);
    let mut cache = CACHE.lock().expect("trace cache not poisoned");
    if let Some((_, trace)) = cache.iter().find(|(k, _)| *k == key) {
        return Arc::clone(trace);
    }
    let trace = Arc::new(generate_fig10_trace(servers, days, seed));
    cache.push((key, Arc::clone(&trace)));
    trace
}

/// One Fig. 10 group: savings of the three systems on one trace/machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig10Group {
    /// Machine profile name.
    pub machine: &'static str,
    /// Whether this is the modified (memory-doubled) trace.
    pub modified: bool,
    /// Neat / Oasis / ZombieStack savings in percent.
    pub savings: [f64; 3],
}

/// The four policies of a Fig. 10 cell group, baseline first.
pub const FIG10_POLICIES: [PolicyKind; 4] = [
    PolicyKind::AlwaysOn,
    PolicyKind::Neat,
    PolicyKind::Oasis,
    PolicyKind::ZombieStack,
];

/// Runs the four Fig. 10 policy simulations for one trace/profile on
/// `jobs` worker threads, returning reports in [`FIG10_POLICIES`] order.
pub fn figure10_reports(
    trace: &ClusterTrace,
    profile: &MachineProfile,
    jobs: usize,
) -> Vec<SimReport> {
    run_indexed_obs(jobs, FIG10_POLICIES.len(), |i| {
        simulate(trace, &SimConfig::new(FIG10_POLICIES[i], profile.clone()))
    })
}

/// Runs Fig. 10 for one machine profile and one trace.
pub fn figure10_group(trace: &ClusterTrace, profile: MachineProfile, modified: bool) -> Fig10Group {
    figure10_group_jobs(trace, profile, modified, jobs_from_env())
}

/// [`figure10_group`] with an explicit worker count.
pub fn figure10_group_jobs(
    trace: &ClusterTrace,
    profile: MachineProfile,
    modified: bool,
    jobs: usize,
) -> Fig10Group {
    let reports = figure10_reports(trace, &profile, jobs);
    let base = &reports[0];
    Fig10Group {
        machine: profile.name(),
        modified,
        savings: [
            reports[1].savings_pct(base),
            reports[2].savings_pct(base),
            reports[3].savings_pct(base),
        ],
    }
}

/// Runs the full Fig. 10 grid — every machine profile × {original,
/// modified} trace × four policies — as one flat fan-out of independent
/// simulations across `jobs` worker threads. This is the experiment the
/// parallel runner exists for: sixteen multi-minute simulations at paper
/// scale, none of which depends on another.
pub fn figure10_grid(
    trace: &ClusterTrace,
    modified: &ClusterTrace,
    jobs: usize,
) -> Vec<Fig10Group> {
    let profiles = [MachineProfile::hp(), MachineProfile::dell()];
    let n = FIG10_POLICIES.len();
    let reports = run_indexed_obs(jobs, profiles.len() * 2 * n, |i| {
        let profile = &profiles[i / (2 * n)];
        let on_modified = (i / n) % 2 == 1;
        let t = if on_modified { modified } else { trace };
        simulate(t, &SimConfig::new(FIG10_POLICIES[i % n], profile.clone()))
    });
    reports
        .chunks(n)
        .enumerate()
        .map(|(g, chunk)| {
            let base = &chunk[0];
            Fig10Group {
                machine: profiles[g / 2].name(),
                modified: g % 2 == 1,
                savings: [
                    chunk[1].savings_pct(base),
                    chunk[2].savings_pct(base),
                    chunk[3].savings_pct(base),
                ],
            }
        })
        .collect()
}

/// Renders the Fig. 10 report (both halves) exactly as the CLI prints
/// it — golden-report tests compare these bytes across optimizations.
pub fn render_figure10(groups: &[Fig10Group]) -> String {
    let mut out = String::new();
    for modified in [false, true] {
        let subset: Vec<&Fig10Group> = groups.iter().filter(|g| g.modified == modified).collect();
        if subset.is_empty() {
            continue;
        }
        let title = if modified {
            "Fig 10 (bottom): % energy saving, modified traces (mem = 2x cpu)"
        } else {
            "Fig 10 (top): % energy saving, original traces"
        };
        let mut t = Table::new(title, &["Machine", "Neat", "Oasis", "ZombieStack"]);
        for g in subset {
            t.row(&[
                g.machine.to_string(),
                format!("{:.0}", g.savings[0]),
                format!("{:.0}", g.savings[1]),
                format!("{:.0}", g.savings[2]),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Prints one Fig. 10 half (original or modified traces).
pub fn print_figure10(groups: &[Fig10Group]) {
    print!("{}", render_figure10(groups));
}

// ---------------------------------------------------------------------
// Motivation figures (1–4).
// ---------------------------------------------------------------------

/// Prints Fig. 1 (energy vs utilization).
pub fn print_figure1() {
    let hp = MachineProfile::hp();
    let mut t = Table::new(
        "Fig 1: energy vs utilization (HP profile)",
        &["util %", "actual %", "ideal %"],
    );
    for p in curve::figure1(&hp, 10) {
        t.row(&[
            format!("{:.0}", p.utilization_pct),
            format!("{:.1}", p.actual_pct),
            format!("{:.1}", p.ideal_pct),
        ]);
    }
    t.print();
    println!(
        "sleep-state markers: S3 {:.1}%  S4 {:.1}%  Sz {:.1}%  S0idle {:.1}%",
        hp.state_fraction(zombieland_acpi::SleepState::S3) * 100.0,
        hp.state_fraction(zombieland_acpi::SleepState::S4) * 100.0,
        hp.sz_fraction() * 100.0,
        hp.s0_idle_fraction() * 100.0,
    );
}

/// Prints Fig. 2 (AWS memory:CPU demand ratio).
pub fn print_figure2() {
    let mut t = Table::new(
        "Fig 2: AWS m-family memory:CPU ratio by introduction year",
        &["year", "mean GiB/GHz"],
    );
    for (year, ratio) in zombieland_trace::aws::figure2() {
        t.row(&[format!("{year}"), format!("{ratio:.2}")]);
    }
    t.print();
    println!(
        "trend: {:+.3} ratio/year",
        zombieland_trace::aws::trend_slope()
    );
}

/// Prints Fig. 3 (server-generation memory:CPU capacity ratio).
pub fn print_figure3() {
    let mut t = Table::new(
        "Fig 3: normalized memory:CPU capacity per server generation",
        &["year", "normalized ratio"],
    );
    for (year, ratio) in zombieland_trace::generations::figure3() {
        t.row(&[format!("{year}"), format!("{ratio:.2}")]);
    }
    t.print();
}

/// Computes Fig. 4 (rack-level energy of the four architectures).
pub fn figure4_data() -> [RackEnergy; 4] {
    figure4(&MachineProfile::hp(), &RackDemand::figure4())
}

/// Prints Fig. 4.
pub fn print_figure4() {
    let mut t = Table::new(
        "Fig 4: rack energy by architecture (Emax units; paper guidance 2.1/1.15/1.8/1.2)",
        &["architecture", "total Emax", "breakdown"],
    );
    for e in figure4_data() {
        let breakdown = e
            .breakdown
            .iter()
            .map(|(k, v)| format!("{k}={v:.2}"))
            .collect::<Vec<_>>()
            .join(", ");
        t.row(&[
            e.architecture.to_string(),
            format!("{:.2}", e.total_emax),
            breakdown,
        ]);
    }
    t.print();
}

/// Prints Fig. 6 (the suspend-to-Sz call path, traced live).
pub fn print_figure6() {
    let mut platform = zombieland_acpi::Platform::sz_capable();
    let outcome = platform.suspend("zom").expect("Sz-capable board");
    println!("== Fig 6: execution path to the zombie state ==");
    println!("+ echo zom > /sys/power/state");
    for (i, step) in outcome.report.call_trace.iter().enumerate() {
        println!("{}{}", "  ".repeat(i + 1), step);
    }
    println!(
        "kept awake: {:?}; rails switched: {:?}; enter latency: {}",
        outcome.report.kept_awake(),
        outcome
            .transition
            .switches
            .iter()
            .map(|s| format!("{}->{:?}", s.rail, s.to))
            .collect::<Vec<_>>(),
        outcome.latency
    );
}
