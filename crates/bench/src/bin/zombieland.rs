//! The `zombieland` command-line tool: run the paper's experiments and
//! ad-hoc datacenter simulations without writing code.
//!
//! ```text
//! zombieland experiment <name|all> [--scale S] [--jobs N]
//! zombieland bench [--servers N] [--days D] [--out FILE]
//! zombieland simulate [--servers N] [--days D] [--policy P] [--modified] [--machine hp|dell] [--trace FILE] [--timeline] [--pue X] [--jobs N]
//! zombieland trace [--servers N] [--days D] [--seed S] --out FILE
//! zombieland validate-trace <FILE>
//! zombieland replay --connect ENDPOINT [--requests N] [--clients N] [--seed S] [--window W] [--servers N] [--out FILE]
//! zombieland suspend <mem|disk|zom>
//! zombieland list
//! zombieland --list-policies
//! ```
//!
//! `replay` fires a seeded request stream at a running `zombied` daemon
//! (see `crates/daemon`), reports throughput, p50/p99 decision latency
//! and the client round trip's p50/p99/p999, and writes a
//! machine-readable `REPLAY_<stamp>.json` (path overridable with
//! `--out`); with `--metrics-out` the deterministic part of the capture
//! (per-op counters, request sizes, decision-latency histogram) exports
//! byte-identically for the same seed.
//!
//! The global `--profile` flag wraps the run's phases — trace
//! generation, simulator event-loop phases (arrivals, departures,
//! consolidation, wake-ups, sampling), hypervisor fault batches, replay
//! send/recv — in wall-time span timers, prints a per-phase breakdown
//! and writes `PROFILE_<stamp>.json`. Profiling defaults `--jobs` to 1
//! (phases are summed across workers) and never touches simulation
//! state: outputs stay byte-identical with and without it.
//!
//! `--jobs N` fans the independent simulation runs of an experiment
//! across N worker threads. Results are bit-for-bit identical at any
//! thread count.
//!
//! `bench` times one full-paper-scale pass (12,583 servers × 29 days,
//! seeded): AlwaysOn and ZombieStack, recording `events_per_sec` and
//! `peak_event_queue_len` per run in the `BENCH_<stamp>.json`. The
//! per-layer timings live in the standalone `perfbench/` package.
//!
//! Experiment knobs resolve through the typed scenario layer
//! (`zombieland_core::scenario`), highest precedence first: CLI flags
//! (`--backend KEY` is global), `ZL_*` environment variables, a
//! `--scenario FILE` (`key = value` lines: scale, servers, days, racks,
//! runs, jobs, validate, backend, cxl_cap, generations), then the
//! paper's defaults.
//!
//! The global flags work with every subcommand: `--scenario FILE` loads
//! a scenario, `--obs-level off|summary|full` selects what gets
//! recorded (metrics from `summary` up, the full sim-time event trace
//! at `full`), `--trace-out FILE` writes the trace as JSONL,
//! `--metrics-out FILE` writes the metric registry as JSON. Requesting
//! an artifact implies the level that can produce it. Unknown flags are
//! rejected.
//!
//! Run via `cargo run --release -p zombieland-bench --bin zombieland-cli -- <args>`.

use std::process::ExitCode;

use zombieland_bench::experiments;
use zombieland_energy::MachineProfile;
use zombieland_obs::profile;
use zombieland_obs::{observe, run_indexed_obs, ObsLevel, ObsRun};
use zombieland_simcore::SimDuration;
use zombieland_simulator::{policy, simulate, PolicyKind, SimConfig};
use zombieland_trace::json::Value;
use zombieland_trace::{ClusterTrace, TraceConfig};

const EXPERIMENTS: [&str; 11] = [
    "fig1", "fig2", "fig3", "fig4", "fig6", "fig8", "fig9", "fig10", "table1", "table2", "table3",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         zombieland experiment <name|all> [--scale S] [--jobs N]\n  \
         zombieland bench [--servers N] [--days D] [--out FILE]\n  \
         zombieland simulate [--servers N] [--days D] [--policy NAME|all] \
         [--modified] [--machine hp|dell] [--trace FILE] [--timeline] [--pue X] [--jobs N]\n  \
         zombieland trace [--servers N] [--days D] [--seed S] --out FILE\n  \
         zombieland validate-trace <FILE>\n  \
         zombieland replay --connect ENDPOINT [--requests N] [--clients N] \
         [--seed S] [--window W] [--servers N] [--out FILE]\n  \
         zombieland suspend <mem|disk|zom>\n  \
         zombieland list\n  \
         zombieland --list-policies\n  \
         zombieland --list-backends\n\
         global flags: --scenario FILE --backend KEY \
         --obs-level off|summary|full \
         --trace-out FILE --metrics-out FILE --profile"
    );
    ExitCode::from(2)
}

/// Validates a subcommand's argument list: every `--flag` must be known
/// (`allowed` maps name → takes-a-value) and at most `max_positional`
/// bare arguments may appear.
fn check_args(
    args: &[String],
    max_positional: usize,
    allowed: &[(&str, bool)],
) -> Result<(), String> {
    let mut positional = 0usize;
    let mut i = 0usize;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            match allowed.iter().find(|(name, _)| *name == a) {
                None => return Err(format!("unknown flag {a:?}")),
                Some((_, true)) => {
                    if i + 1 >= args.len() {
                        return Err(format!("flag {a:?} needs a value"));
                    }
                    i += 2;
                }
                Some((_, false)) => i += 1,
            }
        } else {
            positional += 1;
            if positional > max_positional {
                return Err(format!("unexpected argument {a:?}"));
            }
            i += 1;
        }
    }
    Ok(())
}

/// A subcommand wrapper: validate the flags, then run.
fn checked(
    args: &[String],
    max_positional: usize,
    allowed: &[(&str, bool)],
    run: impl FnOnce(&[String]) -> ExitCode,
) -> ExitCode {
    match check_args(args, max_positional, allowed) {
        Ok(()) => run(args),
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

/// Pulls `--key value` out of `args`, returning the value.
fn flag_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The `--jobs N` worker count. Precedence: `--jobs` flag, then — under
/// `--profile` — one worker, then the scenario layer (`ZL_JOBS`, a
/// scenario file's `jobs` key, available parallelism — see
/// [`experiments::jobs_from_env`]).
fn jobs_flag(args: &[String]) -> usize {
    if let Some(j) = flag_value(args, "--jobs")
        .and_then(|v| v.parse().ok())
        .filter(|&j| j >= 1)
    {
        return j;
    }
    // Phase timers accumulate across every worker thread, so N workers
    // report up to N seconds of phase time per wall second. Profiling
    // defaults to a serial run so the breakdown sums to the run's wall
    // clock; an explicit --jobs wins (the coverage line then says how
    // much parallelism inflated the sum).
    if profile::enabled() {
        return 1;
    }
    experiments::jobs_from_env()
}

fn run_experiment(name: &str, scale: f64, jobs: usize) -> bool {
    match name {
        "fig1" => experiments::print_figure1(),
        "fig2" => experiments::print_figure2(),
        "fig3" => experiments::print_figure3(),
        "fig4" => experiments::print_figure4(),
        "fig6" => experiments::print_figure6(),
        "fig8" => experiments::print_figure8(scale, jobs),
        "fig9" => experiments::print_figure9(),
        "fig10" => {
            let (servers, days) = experiments::dc_scale_from_env();
            let trace = experiments::fig10_trace(servers, days, 11);
            let modified = trace.modified();
            let groups = experiments::figure10_grid(&trace, &modified, jobs);
            experiments::print_figure10(&groups);
        }
        "table1" => {
            let rows = experiments::table1_jobs(scale, jobs);
            experiments::print_table1(&rows);
        }
        "table2" => {
            for w in experiments::WORKLOADS {
                let rows = experiments::table2_jobs(w, scale, jobs);
                experiments::print_table2(w, &rows);
            }
        }
        "table3" => experiments::print_table3(),
        _ => return false,
    }
    true
}

fn cmd_experiment(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let scale = flag_value(args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(experiments::scale_from_env);
    let jobs = jobs_flag(args);
    if name == "all" {
        for e in EXPERIMENTS {
            run_experiment(e, scale, jobs);
        }
        return ExitCode::SUCCESS;
    }
    if run_experiment(name, scale, jobs) {
        ExitCode::SUCCESS
    } else {
        eprintln!("unknown experiment {name:?}; try `zombieland list`");
        ExitCode::from(2)
    }
}

/// `zombieland bench`: one paper-scale pass, timed — the Fig. 10 trace
/// family at the paper's fleet (12,583 servers × 29 days by default,
/// seeded), AlwaysOn baseline plus ZombieStack, one after the other so
/// each policy's wall time is measured alone. Racks follow the paper's
/// ~40-host geometry (`servers / 40`, rounded up). The run itself is
/// the subject here, so reports are kept: the `BENCH_<stamp>.json`
/// (path overridable with `--out`) records `events_per_sec`,
/// `peak_event_queue_len` (the streaming-memory guard) and the energy
/// outcome per policy.
fn cmd_bench(args: &[String]) -> ExitCode {
    let servers: u32 = flag_value(args, "--servers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(12_583);
    let days: u64 = flag_value(args, "--days")
        .and_then(|v| v.parse().ok())
        .unwrap_or(29);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let out = flag_value(args, "--out").unwrap_or_else(|| format!("BENCH_{stamp}.json"));
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    let racks = servers.div_ceil(40).max(1);
    println!("bench: {servers} servers x {days} day(s), {racks} racks");
    let t0 = std::time::Instant::now();
    let trace = experiments::fig10_trace(servers, days, 11);
    let trace_gen_ns = t0.elapsed().as_nanos() as u64;
    println!(
        "trace: {} tasks, {} events  (generated in {:.1} s)",
        trace.tasks().len(),
        trace.events_len(),
        trace_gen_ns as f64 / 1e9
    );

    let specs = [PolicyKind::AlwaysOn.spec(), PolicyKind::ZombieStack.spec()];
    let mut baseline: Option<zombieland_simulator::SimReport> = None;
    let mut runs = Vec::new();
    for spec in specs {
        let cfg = SimConfig {
            racks,
            ..SimConfig::with_spec(spec, MachineProfile::hp())
        };
        let start = std::time::Instant::now();
        let report = simulate(&trace, &cfg);
        let wall_ns = start.elapsed().as_nanos().max(1) as u64;
        let eps = report.events as f64 * 1e9 / wall_ns as f64;
        let saving = baseline.as_ref().map(|b| report.savings_pct(b));
        println!(
            "{:<12} {:>8.1} s  {:>9.0} events/s  {:>10.1} kWh{}  \
             (peak queue {}, {} migrations, {} wakeups)",
            report.policy,
            wall_ns as f64 / 1e9,
            eps,
            report.energy.as_kwh(),
            saving
                .map(|s| format!("  saving {s:.1}%"))
                .unwrap_or_default(),
            report.peak_queue,
            report.migrations,
            report.wakeups
        );
        let mut fields = vec![
            ("policy".into(), Value::Str(report.policy.into())),
            ("wall_ns".into(), Value::UInt(wall_ns)),
            ("events".into(), Value::UInt(report.events)),
            ("events_per_sec".into(), Value::Float(eps)),
            (
                "peak_event_queue_len".into(),
                Value::UInt(report.peak_queue),
            ),
            ("energy_kwh".into(), Value::Float(report.energy.as_kwh())),
            ("migrations".into(), Value::UInt(report.migrations)),
            ("wakeups".into(), Value::UInt(report.wakeups)),
        ];
        if let Some(s) = saving {
            fields.push(("savings_pct".into(), Value::Float(s)));
        }
        runs.push(Value::Object(fields));
        if baseline.is_none() {
            baseline = Some(report);
        }
    }

    let grid = Value::Object(vec![
        ("name".into(), Value::Str("paper".into())),
        ("servers".into(), Value::UInt(servers as u64)),
        ("days".into(), Value::UInt(days)),
        ("seed".into(), Value::UInt(11)),
        ("racks".into(), Value::UInt(racks as u64)),
        ("trace_gen_ns".into(), Value::UInt(trace_gen_ns)),
        ("runs".into(), Value::Array(runs)),
    ]);
    let doc = Value::Object(vec![
        ("schema".into(), Value::Str("zombieland-bench-v1".into())),
        ("created_unix".into(), Value::UInt(stamp)),
        ("host_parallelism".into(), Value::UInt(host as u64)),
        ("grids".into(), Value::Array(vec![grid])),
    ]);
    let mut body = doc.pretty();
    body.push('\n');
    match std::fs::write(&out, body) {
        Ok(()) => {
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out:?}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    // `--servers`/`--days` beat the loaded scenario, which beats the
    // ad-hoc default of 300 × 1 (DC-scale experiments use `fig10`).
    let scenario = zombieland_core::scenario::installed();
    let servers = flag_value(args, "--servers")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| scenario.map_or(300, |s| s.servers));
    let days = flag_value(args, "--days")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| scenario.map_or(1, |s| s.days));
    let machine = match flag_value(args, "--machine").as_deref() {
        Some("dell") => MachineProfile::dell(),
        _ => MachineProfile::hp(),
    };
    let policy_arg = flag_value(args, "--policy").unwrap_or_else(|| "all".into());
    let policies: Vec<&'static policy::PolicySpec> = if policy_arg == "all" {
        vec![
            PolicyKind::Neat.spec(),
            PolicyKind::Oasis.spec(),
            PolicyKind::ZombieStack.spec(),
        ]
    } else {
        match policy::lookup(&policy_arg) {
            Some(spec) => vec![spec],
            None => {
                eprintln!(
                    "unknown policy {policy_arg:?}; run `zombieland --list-policies` \
                     for the registry"
                );
                return ExitCode::from(2);
            }
        }
    };

    let mut trace = match flag_value(args, "--trace") {
        Some(path) => match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| ClusterTrace::from_json(&s).map_err(|e| e.to_string()))
        {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot load trace {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => ClusterTrace::generate(TraceConfig {
            servers,
            duration: SimDuration::from_days(days),
            seed: 11,
            mem_cpu_ratio: 1.0,
            avg_utilization: 0.25,
        }),
    };
    if args.iter().any(|a| a == "--modified") {
        trace = trace.modified();
    }
    println!(
        "trace: {} servers x {} day(s), {} tasks, machine {}",
        trace.config().servers,
        trace.config().duration.as_nanos() / 86_400_000_000_000,
        trace.tasks().len(),
        machine.name()
    );
    let timeline = args.iter().any(|a| a == "--timeline");
    let pue = flag_value(args, "--pue").and_then(|v| v.parse::<f64>().ok());
    let cfg_for = |p: &'static policy::PolicySpec| SimConfig {
        sample_interval: timeline.then(|| SimDuration::from_hours(1)),
        ..SimConfig::with_spec(p, machine.clone())
    };
    // The baseline and every requested policy are independent runs of
    // the same trace: fan them out, then print in order. The baseline
    // always leads, so asking for it explicitly is not a second run.
    let jobs = jobs_flag(args);
    let baseline_spec = PolicyKind::AlwaysOn.spec();
    let mut specs = vec![baseline_spec];
    specs.extend(
        policies
            .iter()
            .copied()
            .filter(|s| !std::ptr::eq(*s, baseline_spec)),
    );
    let reports = run_indexed_obs(jobs, specs.len(), |i| simulate(&trace, &cfg_for(specs[i])));
    let base = &reports[0];
    println!("baseline (always-on): {:.1} kWh", base.energy.as_kwh());
    let cooling = pue.map(zombieland_energy::cooling::CoolingModel::with_pue);
    if let Some(c) = &cooling {
        println!(
            "  at the facility meter (PUE {:.2}): {:.1} kWh",
            c.pue,
            c.facility_energy(base.energy).as_kwh()
        );
    }
    for r in &reports[1..] {
        let total: f64 = r.state_seconds.iter().sum();
        println!(
            "{:<12} {:.1} kWh  saving {:>5.1}%  (active {:.0}%, zombie {:.0}%, \
             asleep {:.0}%; {} migrations, {} wakeups)",
            r.policy,
            r.energy.as_kwh(),
            r.savings_pct(base),
            100.0 * r.state_seconds[0] / total,
            100.0 * r.state_seconds[1] / total,
            100.0 * r.state_seconds[2] / total,
            r.migrations,
            r.wakeups,
        );
        if let Some(c) = &cooling {
            println!(
                "             facility: {:.1} kWh ({:.1} kWh saved vs baseline, footnote-1 amplification)",
                c.facility_energy(r.energy).as_kwh(),
                c.amplified_saving(base.energy, r.energy).as_kwh()
            );
        }
        if timeline {
            for s in &r.timeline {
                println!(
                    "  t+{:>3.0}h  active {:>4}  zombie {:>4}  asleep {:>4}  {:>8.1} kW",
                    s.at.as_secs_f64() / 3_600.0,
                    s.counts[0],
                    s.counts[1],
                    s.counts[2],
                    s.power.get() / 1_000.0
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("trace: --out FILE is required");
        return ExitCode::from(2);
    };
    let cfg = TraceConfig {
        servers: flag_value(args, "--servers")
            .and_then(|v| v.parse().ok())
            .unwrap_or(300),
        duration: SimDuration::from_days(
            flag_value(args, "--days")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1),
        ),
        seed: flag_value(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(11),
        mem_cpu_ratio: 1.0,
        avg_utilization: 0.25,
    };
    let trace = ClusterTrace::generate(cfg);
    match std::fs::write(&out, trace.to_json()) {
        Ok(()) => {
            println!("wrote {} tasks to {out}", trace.tasks().len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out:?}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `zombieland replay`: the daemon load harness. Deterministic metrics
/// land in the current observe scope (exported via the global
/// `--metrics-out`); wall-clock throughput and the interleaving-dependent
/// error count go to stdout only.
fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(connect) = flag_value(args, "--connect") else {
        eprintln!("replay: --connect ENDPOINT is required (tcp:HOST:PORT or unix:PATH)");
        return ExitCode::from(2);
    };
    let endpoint = match zombieland_daemon::Endpoint::parse(&connect) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("replay: {e}");
            return ExitCode::from(2);
        }
    };
    let defaults = zombieland_daemon::replay::ReplayConfig::default();
    let cfg = zombieland_daemon::replay::ReplayConfig {
        endpoint,
        requests: flag_value(args, "--requests")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.requests),
        clients: flag_value(args, "--clients")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.clients),
        seed: flag_value(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.seed),
        window: flag_value(args, "--window")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.window),
        servers: flag_value(args, "--servers")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.servers),
    };
    println!(
        "replay: {} requests, {} client(s), window {}, seed {} -> {}",
        cfg.requests, cfg.clients, cfg.window, cfg.seed, cfg.endpoint
    );
    match zombieland_daemon::replay::run_replay(&cfg) {
        Ok((summary, run)) => {
            // Hand the deterministic capture to the CLI's observe scope
            // (no-op when no --metrics-out/--obs-level was given).
            zombieland_obs::sink::absorb_current(run);
            println!(
                "replay: {} requests in {:.2} s  ({:.0} req/s, {} typed errors)",
                summary.requests,
                summary.wall_secs,
                summary.throughput(),
                summary.errors,
            );
            match (summary.p50_decision_ns, summary.p99_decision_ns) {
                (Some(p50), Some(p99)) => println!(
                    "replay: decision latency p50 <= {:.1} us, p99 <= {:.1} us (modeled)",
                    p50 as f64 / 1_000.0,
                    p99 as f64 / 1_000.0
                ),
                _ => println!("replay: no decision latency recorded"),
            }
            if let (Some(p50), Some(p99), Some(p999)) =
                (summary.rtt_p50_us, summary.rtt_p99_us, summary.rtt_p999_us)
            {
                println!(
                    "replay: client round trip p50 {p50:.1} us, p99 {p99:.1} us, p999 {p999:.1} us (wall clock)"
                );
            }
            match write_replay_json(args, &cfg, &summary) {
                Ok(out) => {
                    println!("wrote {out}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("replay: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("replay: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the machine-readable replay artifact (`REPLAY_<stamp>.json`,
/// or `--out FILE`) so throughput is not stdout-only. Returns the path.
fn write_replay_json(
    args: &[String],
    cfg: &zombieland_daemon::replay::ReplayConfig,
    summary: &zombieland_daemon::replay::ReplaySummary,
) -> Result<String, String> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let out = flag_value(args, "--out").unwrap_or_else(|| format!("REPLAY_{stamp}.json"));
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("schema".into(), Value::Str("zombieland-replay-v1".into())),
        ("created_unix".into(), Value::UInt(stamp)),
        ("endpoint".into(), Value::Str(cfg.endpoint.to_string())),
        ("requests".into(), Value::UInt(summary.requests)),
        ("clients".into(), Value::UInt(cfg.clients as u64)),
        ("window".into(), Value::UInt(cfg.window as u64)),
        ("seed".into(), Value::UInt(cfg.seed)),
        ("servers".into(), Value::UInt(cfg.servers as u64)),
        ("host_parallelism".into(), Value::UInt(host as u64)),
        ("wall_secs".into(), Value::Float(summary.wall_secs)),
        ("throughput_rps".into(), Value::Float(summary.throughput())),
        ("errors".into(), Value::UInt(summary.errors)),
    ];
    if let Some(p50) = summary.p50_decision_ns {
        fields.push(("p50_decision_ns".into(), Value::UInt(p50)));
    }
    if let Some(p99) = summary.p99_decision_ns {
        fields.push(("p99_decision_ns".into(), Value::UInt(p99)));
    }
    for (name, v) in [
        ("rtt_p50_us", summary.rtt_p50_us),
        ("rtt_p99_us", summary.rtt_p99_us),
        ("rtt_p999_us", summary.rtt_p999_us),
    ] {
        if let Some(v) = v {
            fields.push((name.into(), Value::Float(v)));
        }
    }
    let mut body = Value::Object(fields).pretty();
    body.push('\n');
    std::fs::write(&out, body).map_err(|e| format!("cannot write {out:?}: {e}"))?;
    Ok(out)
}

fn cmd_suspend(args: &[String]) -> ExitCode {
    let Some(kw) = args.first() else {
        return usage();
    };
    let mut platform = zombieland_acpi::Platform::sz_capable();
    match platform.suspend(kw) {
        Ok(outcome) => {
            println!("state: {}", platform.state());
            println!(
                "memory remotely accessible: {}",
                platform.memory_remotely_accessible()
            );
            println!("kept awake: {:?}", outcome.report.kept_awake());
            println!("enter latency: {}", outcome.latency);
            for s in &outcome.transition.switches {
                println!("  rail {} -> {:?}", s.rail, s.to);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("suspend failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checks that `path` holds a non-empty, line-by-line parseable JSONL
/// trace (the artifact `--trace-out` writes).
fn cmd_validate_trace(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {path:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut events = 0usize;
    for (n, line) in content.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Err(e) = zombieland_trace::json::parse(line) {
            eprintln!("{path}:{}: invalid trace line: {e}", n + 1);
            return ExitCode::FAILURE;
        }
        events += 1;
    }
    if events == 0 {
        eprintln!("{path}: no trace events");
        return ExitCode::FAILURE;
    }
    println!("{path}: {events} valid trace events");
    ExitCode::SUCCESS
}

/// The global options, stripped from the raw argument list before
/// subcommand dispatch.
struct GlobalOpts {
    level: ObsLevel,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    /// `--scenario FILE`, loaded and validated but not yet installed.
    scenario: Option<zombieland_core::scenario::Scenario>,
    /// `--backend KEY`: remote-memory backend, overriding `ZL_BACKEND`
    /// and any scenario file (CLI > env > file, like the other knobs).
    backend: Option<String>,
    /// `--list-policies`: print the registry and exit.
    list_policies: bool,
    /// `--list-backends`: print the backend registry and exit.
    list_backends: bool,
    /// `--profile`: wall-time phase breakdown + `PROFILE_<stamp>.json`.
    profile: bool,
}

/// Splits the global flags (valid anywhere on the command line) out of
/// `args`: `--scenario`, `--list-policies`, and the observability trio
/// `--obs-level`/`--trace-out`/`--metrics-out`. Requesting an obs
/// artifact implies the lowest level that can produce it.
fn split_global_flags(args: Vec<String>) -> Result<(Vec<String>, GlobalOpts), String> {
    let mut rest = Vec::new();
    let mut level = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut scenario = None;
    let mut backend = None;
    let mut list_policies = false;
    let mut list_backends = false;
    let mut profile = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--backend" => backend = Some(it.next().ok_or("flag \"--backend\" needs a value")?),
            "--obs-level" => {
                let v = it.next().ok_or("flag \"--obs-level\" needs a value")?;
                level = Some(
                    ObsLevel::parse(&v)
                        .ok_or_else(|| format!("unknown obs level {v:?} (off|summary|full)"))?,
                );
            }
            "--trace-out" => {
                trace_out = Some(it.next().ok_or("flag \"--trace-out\" needs a value")?)
            }
            "--metrics-out" => {
                metrics_out = Some(it.next().ok_or("flag \"--metrics-out\" needs a value")?)
            }
            "--scenario" => {
                let path = it.next().ok_or("flag \"--scenario\" needs a value")?;
                scenario = Some(zombieland_core::scenario::Scenario::load(&path)?);
            }
            "--list-policies" => list_policies = true,
            "--list-backends" => list_backends = true,
            "--profile" => profile = true,
            _ => rest.push(a),
        }
    }
    let level = level.unwrap_or(match (&trace_out, &metrics_out) {
        (Some(_), _) => ObsLevel::Full,
        (None, Some(_)) => ObsLevel::Summary,
        (None, None) => ObsLevel::Off,
    });
    Ok((
        rest,
        GlobalOpts {
            level,
            trace_out,
            metrics_out,
            scenario,
            backend,
            list_policies,
            list_backends,
            profile,
        },
    ))
}

/// Prints the policy registry (`--list-policies`).
fn list_policies() -> ExitCode {
    println!("registered policies (--policy KEY; case-insensitive):");
    for spec in policy::REGISTRY {
        println!("  {:<14} {:<13} {}", spec.key, spec.label, spec.summary);
    }
    ExitCode::SUCCESS
}

/// Prints the backend registry (`--list-backends`).
fn list_backends() -> ExitCode {
    println!("registered backends (--backend KEY; case-insensitive):");
    for spec in zombieland_core::backend::REGISTRY {
        println!("  {:<14} {:<13} {}", spec.key, spec.label, spec.summary);
    }
    ExitCode::SUCCESS
}

/// Writes the requested observability artifacts and prints the metrics
/// table.
fn export_obs(opts: &GlobalOpts, run: &ObsRun) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, run.events_jsonl())
            .map_err(|e| format!("cannot write trace {path:?}: {e}"))?;
        eprintln!("trace: {} events -> {path}", run.events.len());
    }
    if let Some(path) = &opts.metrics_out {
        let mut doc = run.metrics.to_json().pretty();
        doc.push('\n');
        std::fs::write(path, doc).map_err(|e| format!("cannot write metrics {path:?}: {e}"))?;
    }
    if !run.metrics.is_empty() {
        run.metrics.table().print();
    }
    Ok(())
}

fn dispatch(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("experiment") => checked(
            &args[1..],
            1,
            &[("--scale", true), ("--jobs", true)],
            cmd_experiment,
        ),
        Some("bench") => checked(
            &args[1..],
            0,
            &[("--servers", true), ("--days", true), ("--out", true)],
            cmd_bench,
        ),
        Some("simulate") => checked(
            &args[1..],
            0,
            &[
                ("--servers", true),
                ("--days", true),
                ("--policy", true),
                ("--machine", true),
                ("--trace", true),
                ("--pue", true),
                ("--jobs", true),
                ("--modified", false),
                ("--timeline", false),
            ],
            cmd_simulate,
        ),
        Some("trace") => checked(
            &args[1..],
            0,
            &[
                ("--servers", true),
                ("--days", true),
                ("--seed", true),
                ("--out", true),
            ],
            cmd_trace,
        ),
        Some("validate-trace") => checked(&args[1..], 1, &[], cmd_validate_trace),
        Some("replay") => checked(
            &args[1..],
            0,
            &[
                ("--connect", true),
                ("--requests", true),
                ("--clients", true),
                ("--seed", true),
                ("--window", true),
                ("--servers", true),
                ("--out", true),
            ],
            cmd_replay,
        ),
        Some("suspend") => checked(&args[1..], 1, &[], cmd_suspend),
        Some("list") => checked(&args[1..], 0, &[], |_| {
            println!("experiments: {}", EXPERIMENTS.join(" "));
            ExitCode::SUCCESS
        }),
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, opts) = match split_global_flags(raw) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // `--backend` overrides whatever the scenario resolved (a
    // `--scenario` file or, failing that, the env-layered defaults — so
    // the flag beats `ZL_BACKEND` too). Installing the patched scenario
    // makes the knob reach every `SimConfig::with_spec` without
    // threading a parameter.
    let mut scenario = opts.scenario.clone();
    if let Some(b) = &opts.backend {
        let mut s =
            scenario.unwrap_or_else(|| zombieland_core::scenario::Scenario::default().apply_env());
        s.backend = b.clone();
        if let Err(e) = s.ensure_valid() {
            eprintln!("error: {e}");
            return usage();
        }
        scenario = Some(s);
    }
    if let Some(s) = scenario {
        zombieland_core::scenario::install(s);
    }
    if opts.list_policies {
        return list_policies();
    }
    if opts.list_backends {
        return list_backends();
    }
    let profile_started = opts.profile.then(|| {
        profile::set_enabled(true);
        profile::reset();
        std::time::Instant::now()
    });
    let code = if opts.level == ObsLevel::Off {
        dispatch(&args)
    } else {
        let (code, run) = observe(opts.level, || dispatch(&args));
        if let Err(e) = export_obs(&opts, &run) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        code
    };
    if let Some(started) = profile_started {
        if let Err(e) = report_profile(started.elapsed(), &args) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

/// Prints the `--profile` phase breakdown and writes `PROFILE_<stamp>.json`.
fn report_profile(total: std::time::Duration, args: &[String]) -> Result<(), String> {
    let total_ns = (total.as_nanos() as u64).max(1);
    let stats = profile::snapshot();
    let covered_ns: u64 = stats.iter().map(|s| s.wall_ns).sum();
    let coverage_pct = 100.0 * covered_ns as f64 / total_ns as f64;

    let mut t = zombieland_simcore::report::Table::new(
        "Profile: wall time by phase (self time)",
        &["phase", "wall ms", "spans", "% of run"],
    );
    for s in &stats {
        t.row(&[
            s.phase.name().to_string(),
            format!("{:.2}", s.wall_ns as f64 / 1e6),
            s.spans.to_string(),
            format!("{:.1}", 100.0 * s.wall_ns as f64 / total_ns as f64),
        ]);
    }
    t.row(&[
        "(total run)".to_string(),
        format!("{:.2}", total_ns as f64 / 1e6),
        "-".to_string(),
        format!("{coverage_pct:.1} covered"),
    ]);
    t.print();

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let out = format!("PROFILE_{stamp}.json");
    let phases = stats
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("phase".into(), Value::Str(s.phase.name().into())),
                ("wall_ns".into(), Value::UInt(s.wall_ns)),
                ("spans".into(), Value::UInt(s.spans)),
                (
                    "pct_of_total".into(),
                    Value::Float(100.0 * s.wall_ns as f64 / total_ns as f64),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("schema".into(), Value::Str("zombieland-profile-v1".into())),
        ("created_unix".into(), Value::UInt(stamp)),
        ("command".into(), Value::Str(args.join(" "))),
        ("total_ns".into(), Value::UInt(total_ns)),
        ("covered_ns".into(), Value::UInt(covered_ns)),
        ("coverage_pct".into(), Value::Float(coverage_pct)),
        ("phases".into(), Value::Array(phases)),
    ]);
    let mut body = doc.pretty();
    body.push('\n');
    std::fs::write(&out, body).map_err(|e| format!("cannot write profile {out:?}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}
