//! `dc-large` and `dc-modified`: the datacenter simulator replaying a
//! synthetic Google trace under the paper's policies.

use std::time::Instant;

use zombieland_energy::{MachineProfile, TABLE3};
use zombieland_obs::profile::{self, Phase as ProfPhase};
use zombieland_simcore::SimDuration;
use zombieland_simulator::policy::{ALWAYS_ON, NEAT, OASIS, ZOMBIE_STACK};
use zombieland_simulator::{simulate, PolicySpec, SimConfig, SimReport};
use zombieland_trace::{ClusterTrace, TraceConfig};

use crate::decor::{self, CountedPolicy, CountingPower};
use crate::stats::{self, Fnv};
use crate::{reference, spans, timed_setup, Args, Outcome, Phase, DEFAULT_SEED};

/// One datacenter workload.
pub struct DcSpec {
    pub name: &'static str,
    pub hosts: u32,
    pub hours: u64,
    /// Replay the paper's modified trace (memory = 2x CPU).
    pub modified: bool,
    /// Policies simulated per round; the first is the savings baseline.
    pub policies: &'static [&'static PolicySpec],
    /// Digest of the reports at [`DEFAULT_SEED`].
    pub digest: u64,
}

/// Admission-dominated: a large fleet in 40-host racks, original trace.
pub const LARGE: DcSpec = DcSpec {
    name: "dc-large",
    hosts: 2000,
    hours: 6,
    modified: false,
    policies: &[&ALWAYS_ON, &ZOMBIE_STACK],
    digest: 0xc8f1_5007_64c6_11a1,
};

/// Consolidation, wake-ups and the remote pool: a small fleet over three
/// days of the modified trace, every paper policy.
pub const MODIFIED: DcSpec = DcSpec {
    name: "dc-modified",
    hosts: 200,
    hours: 72,
    modified: true,
    policies: &[&ALWAYS_ON, &NEAT, &OASIS, &ZOMBIE_STACK],
    digest: 0x39f1_5a4d_4657_1cee,
};

struct SetupTimes {
    generate: f64,
    event_order: f64,
    modified: f64,
}

fn build_trace(spec: &DcSpec, seed: u64) -> (ClusterTrace, SetupTimes) {
    let t = stats::cpu_s();
    let trace = ClusterTrace::generate(TraceConfig {
        servers: spec.hosts,
        duration: SimDuration::from_hours(spec.hours),
        seed,
        mem_cpu_ratio: 1.0,
        avg_utilization: 0.25,
    });
    let generate = stats::cpu_s() - t;
    let t = stats::cpu_s();
    trace.event_order();
    let event_order = stats::cpu_s() - t;
    let t = stats::cpu_s();
    let trace = if spec.modified {
        trace.modified()
    } else {
        trace
    };
    let modified = if spec.modified {
        stats::cpu_s() - t
    } else {
        0.0
    };
    let times = SetupTimes {
        generate,
        event_order,
        modified,
    };
    (trace, times)
}

fn config(spec: &DcSpec, policy: &'static PolicySpec) -> SimConfig {
    let mut cfg = SimConfig::with_spec(policy, MachineProfile::hp());
    cfg.racks = spec.hosts.div_ceil(40);
    cfg.shards = zombieland_core::scenario::Scenario::default().shards_for(cfg.racks);
    cfg
}

fn report_bytes(r: &SimReport) -> String {
    format!("{r:?}")
}

/// Runs rounds (every policy once) until `seconds` have passed, checking
/// each report against the reference round. `counted` swaps in the
/// counting decorators. Returns the phase and each `simulate` call's
/// normalized CPU seconds, per policy and round.
fn measure(
    spec: &DcSpec,
    trace: &ClusterTrace,
    reference: &[String],
    seconds: f64,
    counted: Option<(&[CountedPolicy], &'static CountingPower)>,
    out: &mut Outcome,
) -> (Phase, Vec<Vec<f64>>) {
    let mut call_s = vec![Vec::new(); spec.policies.len()];
    let (mut events, mut raw_rates) = (0.0, Vec::new());
    let started = Instant::now();
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < seconds {
        let (mut raw_s, mut round_events) = (0.0, 0.0);
        for (i, &policy) in spec.policies.iter().enumerate() {
            let mut cfg = config(spec, policy);
            if let Some((policies, power)) = counted {
                cfg.policy = policies[i].spec;
                cfg.power = power;
            }
            let (report, secs, norm_s) = reference::normalize(|| {
                let _span = spans::enter("simulate", round);
                simulate(trace, &cfg)
            });
            raw_s += secs;
            call_s[i].push(norm_s);
            round_events += report.events as f64;
            let bytes = report_bytes(&report);
            out.check(bytes == reference[i], || {
                format!("{} report differs from the reference round", policy.label)
            });
        }
        events += round_events;
        raw_rates.push(round_events / raw_s);
        round += 1;
    }
    let phase = Phase::typical_round(events / round as f64, &call_s);
    println!(
        "  {round} rounds; not normalized: {:.0} events per CPU second (median round)",
        stats::median(&raw_rates)
    );
    (phase, call_s)
}

pub fn run(spec: &DcSpec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (trace, setup_s) = timed_setup(|| {
        let (trace, times) = build_trace(spec, args.seed);
        setups.push(times);
        trace
    });
    out.setup_s = setup_s;

    // Reference round: the reports every timed round must repeat.
    let reports: Vec<SimReport> = spec
        .policies
        .iter()
        .map(|&p| simulate(&trace, &config(spec, p)))
        .collect();
    let reference: Vec<String> = reports.iter().map(report_bytes).collect();
    let digest = reference
        .iter()
        .fold(Fnv::new(), |h, r| h.bytes(r.as_bytes()))
        .finish();
    println!("{} report digest {digest:#018x}", spec.name);
    let base = &reports[0];
    let zombie = reports.last().expect("ZombieStack is simulated last");
    let mut wrong = Vec::new();
    if args.seed == DEFAULT_SEED && digest != spec.digest {
        wrong.push(format!(
            "report digest {digest:#018x} != recorded {:#018x}",
            spec.digest
        ));
    }
    if zombie.energy.get() > base.energy.get() {
        wrong.push("ZombieStack used more energy than AlwaysOn".to_string());
    }
    for r in &reports {
        println!(
            "  {:<12} energy {:.6e} J, migrations {}, wakeups {}",
            r.policy,
            r.energy.get(),
            r.migrations,
            r.wakeups
        );
        out.check(wrong.is_empty(), || {
            format!("{}: {}", r.policy, wrong.join("; "))
        });
    }
    let saving = zombie.savings_pct(base);

    let untraced_s = if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, call_s) = measure(spec, &trace, &reference, untraced_s, None, &mut out);
    out.untraced = untraced;
    let events = trace.events_len() as f64;
    out.report = vec![
        ("sim_events_per_s", out.untraced.work_per_s(), "1/s"),
        ("energy_saving_pct", saving, "%"),
        ("trace_events", events, "count"),
    ];
    if !args.traced {
        return out;
    }

    let counted: Vec<CountedPolicy> = spec
        .policies
        .iter()
        .map(|&p| decor::count_policy(p))
        .collect();
    let power = decor::count_power(&TABLE3);
    profile::reset();
    profile::set_enabled(true);
    spans::start();
    let (traced, traced_call_s) = measure(
        spec,
        &trace,
        &reference,
        args.seconds / 2.0,
        Some((&counted, power)),
        &mut out,
    );
    out.spans = spans::stop();
    profile::set_enabled(false);
    let rounds = traced_call_s[0].len() as f64;
    out.traced = Some(traced);

    let setup_median =
        |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    out.layer("trace.generate_s", setup_median(|t| t.generate));
    out.layer("trace.modified_s", setup_median(|t| t.modified));
    out.layer("trace.event_order_s", setup_median(|t| t.event_order));
    out.layer("trace.events", events);
    for (i, r) in reports.iter().enumerate() {
        let key = spec.policies[i].key;
        let run_s = stats::median(&call_s[i]);
        out.layer(&format!("sim.run_s.{key}"), run_s);
        out.layer(
            &format!("sim.ns_per_event.{key}"),
            stats::ratio(run_s * 1e9, events),
        );
        out.layer(&format!("sim.migrations.{key}"), r.migrations as f64);
        out.layer(&format!("sim.wakeups.{key}"), r.wakeups as f64);
    }
    for s in profile::snapshot() {
        let name = match s.phase {
            ProfPhase::Arrivals => "sim.arrivals_s",
            ProfPhase::Departures => "sim.departures_s",
            ProfPhase::Consolidation => "sim.consolidation_s",
            ProfPhase::WakeUps => "sim.wake_ups_s",
            ProfPhase::ShardRound => "sim.shard_round_s",
            _ => continue,
        };
        out.layer(name, s.wall_ns as f64 / 1e9 / rounds);
    }
    out.layer("sim.energy_saving_pct", saving);

    let arrivals = trace.tasks().len() as f64 * spec.policies.len() as f64 * rounds;
    let (mut admits, mut accepts, mut checks, mut migrations_ok, mut ticks) = (0, 0, 0, 0, 0.0);
    for c in &counted {
        admits += decor::take(&c.placement.admit_calls);
        accepts += decor::take(&c.placement.admit_accepts);
        checks += decor::take(&c.consolidation.migration_checks);
        migrations_ok += decor::take(&c.consolidation.migration_accepts);
        if c.spec.consolidation.enabled() {
            let interval = config(spec, c.spec).consolidation_interval.as_secs_f64();
            ticks += (trace.config().duration.as_secs_f64() / interval).floor() * rounds;
        }
    }
    out.layer(
        "policy.admit_calls_per_arrival",
        stats::ratio(admits as f64, arrivals),
    );
    out.layer(
        "policy.admit_accept_ratio",
        stats::ratio(accepts as f64, admits as f64),
    );
    out.layer(
        "policy.migration_checks_per_tick",
        stats::ratio(checks as f64, ticks),
    );
    out.layer(
        "policy.migration_accept_ratio",
        stats::ratio(migrations_ok as f64, checks as f64),
    );
    let host_power = decor::take(&power.host_power_calls) as f64;
    out.layer(
        "energy.host_power_calls_per_event",
        stats::ratio(host_power, events * spec.policies.len() as f64 * rounds),
    );
    out.layer(
        "energy.transition_power_calls",
        decor::take(&power.transition_calls) as f64 / rounds,
    );
    out
}
