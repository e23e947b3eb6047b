use crate::{simulate, PolicyKind, SimConfig, SimReport};
use zombieland_energy::MachineProfile;
use zombieland_simcore::SimDuration;
use zombieland_trace::google::ClusterTrace;
use zombieland_trace::TraceConfig;

fn small_trace(ratio: f64) -> ClusterTrace {
    let mut cfg = TraceConfig::small(11);
    cfg.servers = 40;
    cfg.duration = SimDuration::from_hours(24);
    cfg.avg_utilization = 0.35;
    cfg.mem_cpu_ratio = ratio;
    ClusterTrace::generate(cfg)
}

fn run(policy: PolicyKind, trace: &ClusterTrace) -> SimReport {
    simulate(trace, &SimConfig::new(policy, MachineProfile::hp()))
}

#[test]
fn baseline_keeps_everything_on() {
    let trace = small_trace(1.0);
    let r = run(PolicyKind::AlwaysOn, &trace);
    assert_eq!(r.migrations, 0);
    assert_eq!(r.state_seconds[1], 0.0);
    assert_eq!(r.state_seconds[2], 0.0);
    assert!(r.energy.get() > 0.0);
}

#[test]
fn policies_order_as_in_figure10() {
    let trace = small_trace(1.0);
    let base = run(PolicyKind::AlwaysOn, &trace);
    let neat = run(PolicyKind::Neat, &trace);
    let oasis = run(PolicyKind::Oasis, &trace);
    let zombie = run(PolicyKind::ZombieStack, &trace);
    let (sn, so, sz) = (
        neat.savings_pct(&base),
        oasis.savings_pct(&base),
        zombie.savings_pct(&base),
    );
    assert!(sn > 5.0, "Neat saves something: {sn}");
    // Oasis ~ Neat at small scale (its memory-server cost quantizes
    // to whole servers); the paper's +4-point edge needs DC scale.
    assert!(so >= sn - 2.5, "Oasis ~ Neat: {so} vs {sn}");
    assert!(sz > sn, "ZombieStack wins: {sz} vs {sn}");
    assert_eq!(zombie.dropped, 0);
    assert!(zombie.state_seconds[1] > 0.0, "zombies existed");
}

#[test]
fn memory_pressure_widens_the_gap() {
    // The paper's modified traces (mem = 2× cpu) hurt Neat much more
    // than ZombieStack.
    let original = small_trace(1.0);
    let modified = original.modified();
    let gap = |trace: &ClusterTrace| {
        let base = run(PolicyKind::AlwaysOn, trace);
        let neat = run(PolicyKind::Neat, trace).savings_pct(&base);
        let zombie = run(PolicyKind::ZombieStack, trace).savings_pct(&base);
        zombie - neat
    };
    let g_orig = gap(&original);
    let g_mod = gap(&modified);
    assert!(
        g_mod > g_orig,
        "gap widens under memory pressure: {g_orig} -> {g_mod}"
    );
}

#[test]
fn nothing_dropped_on_feasible_traces() {
    let trace = small_trace(1.0);
    for p in [PolicyKind::Neat, PolicyKind::Oasis, PolicyKind::ZombieStack] {
        let r = run(p, &trace);
        assert_eq!(r.dropped, 0, "{:?}", p);
    }
}

#[test]
fn rack_local_pools_constrain_but_work() {
    let trace = small_trace(1.5); // Memory-pressured: the pool matters.
    let base = run(PolicyKind::AlwaysOn, &trace);
    let global = simulate(
        &trace,
        &SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp()),
    );
    let racked = simulate(
        &trace,
        &SimConfig {
            racks: 8,
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        },
    );
    assert_eq!(racked.dropped, 0);
    assert!(racked.state_seconds[1] > 0.0, "zombies per rack exist");
    // Fragmenting the pool can only cost savings, never gain much.
    assert!(
        racked.savings_pct(&base) <= global.savings_pct(&base) + 2.0,
        "racked {} vs global {}",
        racked.savings_pct(&base),
        global.savings_pct(&base)
    );
}

#[test]
fn transition_costs_reduce_savings() {
    let trace = small_trace(1.0);
    let base = run(PolicyKind::AlwaysOn, &trace);
    let with = simulate(
        &trace,
        &SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp()),
    );
    let without = simulate(
        &trace,
        &SimConfig {
            transition_costs: false,
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        },
    );
    assert!(with.energy.get() > without.energy.get());
    // But they stay second-order (< 5 points of savings).
    assert!(without.savings_pct(&base) - with.savings_pct(&base) < 5.0);
}

#[test]
fn timeline_sampling() {
    let trace = small_trace(1.0);
    let r = simulate(
        &trace,
        &SimConfig {
            sample_interval: Some(SimDuration::from_hours(1)),
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        },
    );
    assert!(
        r.timeline.len() >= 20,
        "hourly samples over a day: {}",
        r.timeline.len()
    );
    // Snapshots are chronological and internally consistent.
    assert!(r.timeline.windows(2).all(|w| w[0].at <= w[1].at));
    for s in &r.timeline {
        assert_eq!(s.counts.iter().sum::<u64>(), 40);
        assert!(s.power.get() > 0.0);
    }
    // No timeline unless asked.
    let quiet = run(PolicyKind::ZombieStack, &trace);
    assert!(quiet.timeline.is_empty());
}

#[test]
fn oasis_parks_idle_memory() {
    let trace = small_trace(1.0);
    let r = run(PolicyKind::Oasis, &trace);
    assert!(r.peak_parked > 0.0);
}

#[test]
fn invalid_configs_are_rejected() {
    let base = SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp());
    assert!(base.validate().is_ok());
    let zero_racks = SimConfig {
        racks: 0,
        ..base.clone()
    };
    assert!(zero_racks.validate().is_err());
    let no_mem = SimConfig {
        usable_mem: 0.0,
        ..base.clone()
    };
    assert!(no_mem.validate().is_err());
    let bad_gen = SimConfig {
        generations: vec![2013, 1999],
        ..base.clone()
    };
    assert!(bad_gen.validate().is_err());
    let cxl_no_cap = SimConfig {
        backend: &zombieland_core::backend::CXL_POOL,
        cxl_capacity: 0.0,
        ..base.clone()
    };
    assert!(cxl_no_cap.validate().is_err());
    // The same zero capacity is fine under rdma (never read).
    let rdma_no_cap = SimConfig {
        cxl_capacity: 0.0,
        ..base.clone()
    };
    assert!(rdma_no_cap.validate().is_ok());
    let nan_cap = SimConfig {
        cpu_fill_cap: f64::NAN,
        ..base
    };
    assert!(nan_cap.validate().is_err());
}

#[test]
fn generation_years_match_the_table() {
    // `zombieland-core` cannot depend on the trace crate, so its
    // scenario validation restates the generations table's year span;
    // this pins the two together.
    let range = zombieland_core::scenario::GENERATION_YEARS;
    let years: Vec<u16> = zombieland_trace::generations::GENERATIONS
        .iter()
        .map(|g| g.year)
        .collect();
    assert_eq!(years.first(), Some(range.start()));
    assert_eq!(years.last(), Some(range.end()));
    for year in range {
        assert!(
            zombieland_trace::generations::by_year(year).is_some(),
            "scenario accepts {year} but the table has no row for it"
        );
        assert!(
            zombieland_energy::generation_power(year).is_some(),
            "no power model for generation {year}"
        );
    }
}

#[test]
fn heterogeneous_fleets_price_by_generation() {
    let trace = small_trace(1.2);
    let hetero = simulate(
        &trace,
        &SimConfig {
            racks: 8,
            generations: vec![2005, 2009, 2013],
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        },
    );
    assert_eq!(hetero.dropped, 0);
    // A mixed fleet prices differently from the uniform reference.
    let uniform = simulate(
        &trace,
        &SimConfig {
            racks: 8,
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        },
    );
    assert_ne!(
        hetero.energy.get(),
        uniform.energy.get(),
        "generation mix moved no energy"
    );
    assert!(
        hetero.energy.get() < uniform.energy.get(),
        "older generations draw less: {} vs {}",
        hetero.energy.get(),
        uniform.energy.get()
    );
}

#[test]
fn cxl_backend_runs_without_zombies_or_host_lending() {
    let trace = small_trace(1.5);
    let cxl = simulate(
        &trace,
        &SimConfig {
            backend: &zombieland_core::backend::CXL_POOL,
            cxl_capacity: 4.0,
            racks: 4,
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        },
    );
    assert_eq!(cxl.dropped, 0);
    assert_eq!(
        cxl.state_seconds[1], 0.0,
        "shared tier leaves no host in Sz"
    );
    assert!(cxl.state_seconds[2] > 0.0, "evacuated hosts sleep in S3");
    let rdma = simulate(
        &trace,
        &SimConfig {
            racks: 4,
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        },
    );
    assert_ne!(cxl.energy.get(), rdma.energy.get());
}

#[test]
#[should_panic(expected = "invalid SimConfig")]
fn simulate_panics_on_invalid_config() {
    let trace = small_trace(1.0);
    let cfg = SimConfig {
        racks: 0,
        ..SimConfig::new(PolicyKind::AlwaysOn, MachineProfile::hp())
    };
    simulate(&trace, &cfg);
}
