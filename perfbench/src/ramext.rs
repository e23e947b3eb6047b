//! `ramext`: the hypervisor's RAM Extension on the four-server testbed
//! rack, one `engine::run_ops` call per cell.

use std::rc::Rc;
use std::time::Instant;

use zombieland_core::backend::{BackendSpec, RDMA_ZOMBIE};
use zombieland_core::manager::PoolKind;
use zombieland_core::{Rack, RackConfig, ServerId};
use zombieland_hypervisor::engine::{self, Backing, EngineConfig, EngineError, RunStats};
use zombieland_hypervisor::Policy;
use zombieland_simcore::{derive_seed, Bytes};
use zombieland_workloads::{by_name, Workload};

use crate::decor::{self, FillCounters, TimedWorkload};
use crate::stats::{self, Fnv};
use crate::{reference, spans, timed_setup, Args, Outcome, Phase, DEFAULT_SEED};

/// VM geometry: the paper's 7 GiB VM with a 6 GiB working set, scaled.
const SCALE: f64 = 0.02;
/// Guest accesses per cell.
const OPS: u64 = 400_000;
/// Digest of every cell's `RunStats` at [`DEFAULT_SEED`].
const DIGEST: u64 = 0x808c_015f_7d12_7eae;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Local share ≤ 40 %: remote faults dominate host time.
    FaultHeavy,
    /// Local share ≥ 60 %: the working set fits, only first touches fault.
    FaultFree,
    /// The macro workloads at the paper's 50 % operating point.
    Macro,
}

struct Cell {
    workload: &'static str,
    policy: Policy,
    local_pct: u32,
    readahead: u32,
    name: String,
}

impl Cell {
    fn kind(&self) -> Kind {
        match self.local_pct {
            0..=40 => Kind::FaultHeavy,
            60.. => Kind::FaultFree,
            _ => Kind::Macro,
        }
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let policies = [
        ("fifo", Policy::Fifo),
        ("clock", Policy::Clock),
        ("mixed", Policy::MIXED_DEFAULT),
    ];
    for (pname, policy) in policies {
        for local_pct in [20, 40, 60, 80] {
            cells.push(Cell {
                workload: "micro-bench",
                policy,
                local_pct,
                readahead: 0,
                name: format!("micro-bench.{pname}.{local_pct}"),
            });
        }
    }
    // Read-mostly data-caching also exercises the readahead path;
    // write-heavier spark-sql the demand-batch path.
    for (workload, readahead) in [("data-caching", 8), ("spark-sql", 0)] {
        cells.push(Cell {
            workload,
            policy: Policy::MIXED_DEFAULT,
            local_pct: 50,
            readahead,
            name: format!("{workload}.mixed.50"),
        });
    }
    cells
}

fn reserved() -> Bytes {
    Bytes::gib(7).mul_f64(SCALE)
}

fn local(cell: &Cell) -> Bytes {
    reserved().mul_f64(cell.local_pct as f64 / 100.0)
}

/// The testbed rack (§6.1): four servers, one a zombie lending memory,
/// with the VM's remote share allocated to the user server.
fn build_rack(backend: &'static BackendSpec, cell: &Cell) -> (Rack, ServerId) {
    let mut rack = Rack::new(RackConfig {
        backend,
        ..RackConfig::default()
    });
    let ids = rack.server_ids();
    let (user, zombie) = (ids[0], ids[1]);
    rack.goto_zombie(zombie)
        .expect("a fresh testbed server can become a zombie");
    let remote = reserved().saturating_sub(local(cell));
    if remote > Bytes::ZERO {
        rack.alloc_ext(user, remote)
            .expect("the zombie lends enough for the VM");
    }
    (rack, user)
}

fn stats_bytes(s: &RunStats) -> String {
    format!("{s:?}")
}

/// Builds the cell's rack and runs the cell: (stats, rack build CPU
/// seconds, `run_ops` CPU seconds, those seconds normalized by the
/// reference kernel).
fn run_cell(
    cell: &Cell,
    index: usize,
    seed: u64,
    w: &mut dyn Workload,
    backend: &'static BackendSpec,
    round: u64,
) -> (Result<RunStats, EngineError>, f64, f64, f64) {
    let t = stats::cpu_s();
    let (mut rack, user) = build_rack(backend, cell);
    let rack_s = stats::cpu_s() - t;
    let cfg = EngineConfig {
        policy: cell.policy,
        seed: derive_seed(seed, index as u64),
        readahead: cell.readahead,
        ..EngineConfig::ram_ext(reserved(), local(cell))
    };
    let backing = Backing::Rack {
        rack: &mut rack,
        user,
        pool: PoolKind::Ext,
    };
    let (result, secs, norm_s) = reference::normalize(|| {
        let _span = spans::enter("hv.cell", round);
        engine::run_ops(w, &cfg, backing, OPS)
    });
    (result, rack_s, secs, norm_s)
}

struct Instruments {
    backend: &'static BackendSpec,
    fill: Option<Rc<FillCounters>>,
}

/// Per-round, per-cell host timings of one phase.
struct CellTimes {
    /// Normalized `run_ops` seconds, per cell and round.
    run_s: Vec<Vec<f64>>,
    /// Rack build CPU seconds of each round.
    rack_s: Vec<f64>,
}

fn measure(
    cells: &[Cell],
    protos: &[Box<dyn Workload>],
    seed: u64,
    reference: &[String],
    seconds: f64,
    inst: &Instruments,
    out: &mut Outcome,
) -> (Phase, CellTimes) {
    let mut times = CellTimes {
        run_s: vec![Vec::new(); cells.len()],
        rack_s: Vec::new(),
    };
    let (mut accesses, mut raw_rates) = (0.0, Vec::new());
    let started = Instant::now();
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < seconds {
        let (mut raw_s, mut rack_s, mut round_accesses) = (0.0, 0.0, 0.0);
        for (i, (cell, proto)) in cells.iter().zip(protos).enumerate() {
            let mut w: Box<dyn Workload> = match &inst.fill {
                Some(c) => Box::new(TimedWorkload::new(proto.clone_box(), Rc::clone(c))),
                None => proto.clone_box(),
            };
            let (result, cell_rack_s, secs, norm_s) =
                run_cell(cell, i, seed, &mut *w, inst.backend, round);
            rack_s += cell_rack_s;
            raw_s += secs;
            times.run_s[i].push(norm_s);
            match result {
                Ok(s) => {
                    round_accesses += s.ops as f64;
                    let ok = s.ops == OPS && stats_bytes(&s) == reference[i];
                    out.check(ok, || {
                        format!("cell {} stats differ from the reference", cell.name)
                    });
                }
                Err(e) => out.check(false, || format!("cell {}: {e}", cell.name)),
            }
        }
        accesses += round_accesses;
        raw_rates.push(round_accesses / raw_s);
        times.rack_s.push(rack_s);
        round += 1;
    }
    let phase = Phase::typical_round(accesses / round as f64, &times.run_s);
    println!(
        "  {round} rounds; not normalized: {:.0} accesses per CPU second (median round)",
        stats::median(&raw_rates)
    );
    (phase, times)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cells = cells();
    let wss = Bytes::gib(6).mul_f64(SCALE).pages();
    // Set-up: the workloads' generators and every cell's rack.
    let (protos, setup_s) = timed_setup(|| {
        let protos: Vec<Box<dyn Workload>> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                by_name(c.workload, wss, derive_seed(args.seed, i as u64)).expect("known workload")
            })
            .collect();
        for c in &cells {
            std::hint::black_box(build_rack(&RDMA_ZOMBIE, c));
        }
        protos
    });
    out.setup_s = setup_s;

    // Reference round: the stats every timed round must repeat.
    let mut reference = Vec::new();
    let mut ref_stats = Vec::new();
    let mut errors = Vec::new();
    for (i, (cell, proto)) in cells.iter().zip(&protos).enumerate() {
        let (result, ..) = run_cell(cell, i, args.seed, &mut *proto.clone_box(), &RDMA_ZOMBIE, 0);
        let s = result.unwrap_or_else(|e| {
            errors.push(format!("cell {}: {e}", cell.name));
            RunStats::default()
        });
        println!(
            "  {:<28} remote faults {:>8}, minor {:>7}, demotions {:>8}, sim time {:?}",
            cell.name, s.remote_faults, s.minor_faults, s.demotions, s.exec_time
        );
        reference.push(stats_bytes(&s));
        ref_stats.push(s);
    }
    let total = |f: fn(&RunStats) -> u64| ref_stats.iter().map(f).sum::<u64>() as f64;
    let digest = reference
        .iter()
        .fold(Fnv::new(), |h, r| h.bytes(r.as_bytes()))
        .finish();
    println!("ramext stats digest {digest:#018x}");
    let digest_ok = args.seed != DEFAULT_SEED || digest == DIGEST;
    for (cell, s) in cells.iter().zip(&ref_stats) {
        out.check(digest_ok && s.ops == OPS, || {
            format!(
                "cell {}: {} of {OPS} ops, stats digest {digest:#018x} (recorded {DIGEST:#018x}) {}",
                cell.name,
                s.ops,
                errors.join("; ")
            )
        });
    }

    let plain = Instruments {
        backend: &RDMA_ZOMBIE,
        fill: None,
    };
    let untraced_s = if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, times) = measure(
        &cells, &protos, args.seed, &reference, untraced_s, &plain, &mut out,
    );
    out.untraced = untraced;
    out.report = vec![("hv_accesses_per_s", out.untraced.work_per_s(), "1/s")];
    if !args.traced {
        return out;
    }

    let (backend, fabric) = decor::count_fabric(&RDMA_ZOMBIE);
    let fill = Rc::new(FillCounters::default());
    let inst = Instruments {
        backend,
        fill: Some(Rc::clone(&fill)),
    };
    spans::start();
    let (traced, traced_times) = measure(
        &cells,
        &protos,
        args.seed,
        &reference,
        args.seconds / 2.0,
        &inst,
        &mut out,
    );
    out.spans = spans::stop();
    let rounds = traced_times.rack_s.len() as f64;
    out.traced = Some(traced);

    let mut heavy = (0.0, 0.0);
    let mut free = (0.0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        let run_s = stats::median(&times.run_s[i]);
        out.layer(&format!("hv.run_s.{}", cell.name), run_s);
        match cell.kind() {
            Kind::FaultHeavy => {
                heavy.0 += run_s;
                heavy.1 += ref_stats[i].remote_faults as f64;
            }
            Kind::FaultFree => {
                free.0 += run_s;
                free.1 += OPS as f64;
            }
            Kind::Macro => {}
        }
    }
    let span_times = spans::times_by_name(&out.spans);
    let cell_self_ns = span_times.get("hv.cell").map_or(0, |t| t.self_ns);
    out.layer("hv.engine_self_s", cell_self_ns as f64 / 1e9 / rounds);
    out.layer(
        "hv.host_ns_per_remote_fault",
        stats::ratio(heavy.0 * 1e9, heavy.1),
    );
    out.layer("hv.host_ns_per_access", stats::ratio(free.0 * 1e9, free.1));
    out.layer("hv.remote_faults", total(|s| s.remote_faults));
    out.layer("hv.minor_faults", total(|s| s.minor_faults));
    out.layer("hv.demotions", total(|s| s.demotions));
    out.layer(
        "hv.clean_demotion_ratio",
        stats::ratio(total(|s| s.clean_demotions), total(|s| s.demotions)),
    );
    out.layer("hv.policy_invocations", total(|s| s.policy_invocations));
    out.layer("hv.prefetched", total(|s| s.prefetched));
    out.layer("hv.setup_s", stats::median(&times.rack_s));
    let fill_s = fill.ns.get() as f64 / 1e9;
    out.layer("wl.fill_s", fill_s / rounds);
    out.layer(
        "wl.fill_ns_per_access",
        stats::ratio(fill_s * 1e9, fill.accesses.get() as f64),
    );
    out.layer(
        "fabric.read_calls",
        decor::take(&fabric.read_calls) as f64 / rounds,
    );
    out.layer(
        "fabric.write_calls",
        decor::take(&fabric.write_calls) as f64 / rounds,
    );
    let batches = decor::take(&fabric.batch_calls) as f64;
    out.layer("fabric.batch_calls", batches / rounds);
    out.layer(
        "fabric.pages_per_batch",
        stats::ratio(decor::take(&fabric.batch_pages) as f64, batches),
    );
    out
}
