//! The repository benchmark: four workloads over the simulator, the
//! hypervisor and the control-plane daemon, driven only through their
//! public functions.
//!
//! ```text
//! perfbench --workload <dc-large|dc-modified|ramext|ctl-rpc> --seed N
//!           --seconds S --trace <0|1> [--spans FILE]
//! ```
//!
//! `--trace 0` measures with every decorator and span recorder off and
//! prints the end-to-end metrics. `--trace 1` measures the same workload
//! untraced for half the time, then traced (counting decorators, span
//! recording, the simulator's phase profiler) for the other half, checks
//! that the traced outputs equal the untraced ones, prints the overhead
//! and emits the per-layer metrics. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.
//! `perfbench/README.md` documents the metrics.

mod ctl;
mod dc;
mod decor;
mod ramext;
mod reference;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed the recorded output digests belong to.
pub const DEFAULT_SEED: u64 = 1;
/// The held-out seed: a gain claimed at [`DEFAULT_SEED`] must also hold
/// here. Used by nobody while tuning a change.
pub const HELD_OUT_SEED: u64 = 2;
/// Least set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Least host time spent repeating the set-up.
pub const SETUP_MIN_S: f64 = 1.5;

const WORKLOADS: [&str; 4] = ["dc-large", "dc-modified", "ramext", "ctl-rpc"];

/// End-to-end metrics (reported with tracing off): name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (reported by the traced run): name, unit. A
/// workload that does not exercise a layer reports its metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.generate_s", "s"),
    ("trace.modified_s", "s"),
    ("trace.event_order_s", "s"),
    ("trace.events", "count"),
    ("sim.run_s.alwayson", "s"),
    ("sim.run_s.neat", "s"),
    ("sim.run_s.oasis", "s"),
    ("sim.run_s.zombiestack", "s"),
    ("sim.ns_per_event.alwayson", "ns"),
    ("sim.ns_per_event.neat", "ns"),
    ("sim.ns_per_event.oasis", "ns"),
    ("sim.ns_per_event.zombiestack", "ns"),
    ("sim.migrations.alwayson", "count"),
    ("sim.migrations.neat", "count"),
    ("sim.migrations.oasis", "count"),
    ("sim.migrations.zombiestack", "count"),
    ("sim.wakeups.alwayson", "count"),
    ("sim.wakeups.neat", "count"),
    ("sim.wakeups.oasis", "count"),
    ("sim.wakeups.zombiestack", "count"),
    ("sim.arrivals_s", "s"),
    ("sim.departures_s", "s"),
    ("sim.consolidation_s", "s"),
    ("sim.wake_ups_s", "s"),
    ("sim.shard_round_s", "s"),
    ("sim.energy_saving_pct", "%"),
    ("policy.admit_calls_per_arrival", "count"),
    ("policy.admit_accept_ratio", "ratio"),
    ("policy.migration_checks_per_tick", "count"),
    ("policy.migration_accept_ratio", "ratio"),
    ("energy.host_power_calls_per_event", "count"),
    ("energy.transition_power_calls", "count"),
    ("hv.run_s.micro-bench.fifo.20", "s"),
    ("hv.run_s.micro-bench.fifo.40", "s"),
    ("hv.run_s.micro-bench.fifo.60", "s"),
    ("hv.run_s.micro-bench.fifo.80", "s"),
    ("hv.run_s.micro-bench.clock.20", "s"),
    ("hv.run_s.micro-bench.clock.40", "s"),
    ("hv.run_s.micro-bench.clock.60", "s"),
    ("hv.run_s.micro-bench.clock.80", "s"),
    ("hv.run_s.micro-bench.mixed.20", "s"),
    ("hv.run_s.micro-bench.mixed.40", "s"),
    ("hv.run_s.micro-bench.mixed.60", "s"),
    ("hv.run_s.micro-bench.mixed.80", "s"),
    ("hv.run_s.data-caching.mixed.50", "s"),
    ("hv.run_s.spark-sql.mixed.50", "s"),
    ("hv.engine_self_s", "s"),
    ("hv.host_ns_per_remote_fault", "ns"),
    ("hv.host_ns_per_access", "ns"),
    ("hv.remote_faults", "count"),
    ("hv.minor_faults", "count"),
    ("hv.demotions", "count"),
    ("hv.clean_demotion_ratio", "ratio"),
    ("hv.policy_invocations", "count"),
    ("hv.prefetched", "count"),
    ("hv.setup_s", "s"),
    ("wl.fill_s", "s"),
    ("wl.fill_ns_per_access", "ns"),
    ("fabric.read_calls", "count"),
    ("fabric.write_calls", "count"),
    ("fabric.batch_calls", "count"),
    ("fabric.pages_per_batch", "count"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.request_bytes", "bytes"),
    ("codec.response_bytes", "bytes"),
    ("model.boot_s", "s"),
    ("model.apply_ns_p50", "ns"),
    ("model.apply_ns_p99", "ns"),
    ("model.refused_ratio", "ratio"),
    ("client.send_us", "us"),
    ("client.recv_wait_us_p50", "us"),
    ("client.recv_wait_us_p99", "us"),
    ("rpc.transport_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// What the command line asked for.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub spans_out: Option<PathBuf>,
}

/// One measured phase (untraced or traced) of a workload.
///
/// Op times are taken in windows of consecutive ops; the reported p50
/// and p99 are the medians over windows of each window's quantile, so
/// that a stretch the host slowed down moves only its own windows.
#[derive(Default)]
pub struct Phase {
    /// Ops per window.
    window: usize,
    /// Host times in µs of the ops of the current window.
    pending: Vec<f64>,
    /// Each finished window's `[p50, p99]` op time in µs.
    windows: Vec<[f64; 2]>,
    /// Ops timed.
    pub ops: u64,
    /// Units of work done (trace events, guest accesses, responses) and
    /// the seconds they took, per round (or chunk of RPCs).
    pub rounds: Vec<(f64, f64)>,
}

fn window_quantiles(us: &[f64]) -> [f64; 2] {
    [stats::quantile(us, 0.5), stats::quantile(us, 0.99)]
}

impl Phase {
    /// A phase whose op-time windows hold `window` ops.
    pub fn new(window: usize) -> Self {
        Phase {
            window,
            ..Phase::default()
        }
    }

    /// Records the host time of one op (an RPC, or one round over every
    /// simulation/cell) that the workload's user waits for.
    pub fn op(&mut self, secs: f64) {
        self.pending.push(secs * 1e6);
        self.ops += 1;
        if self.pending.len() == self.window {
            self.windows.push(window_quantiles(&self.pending));
            self.pending.clear();
        }
    }

    /// The op-time `[p50, p99]` in µs; a run too short to fill one
    /// window uses the ops it has.
    pub fn op_quantiles_us(&self) -> [f64; 2] {
        if self.windows.is_empty() {
            return window_quantiles(&self.pending);
        }
        [0, 1].map(|k| stats::median(&self.windows.iter().map(|w| w[k]).collect::<Vec<_>>()))
    }

    /// Records one round: `work` units done in `secs` seconds.
    pub fn round(&mut self, work: f64, secs: f64) {
        self.rounds.push((work, secs));
    }

    /// The median over rounds of work per second, so that a round the
    /// host slowed down does not shift the figure.
    pub fn work_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|&(w, s)| stats::ratio(w, s))
            .collect();
        stats::median(&rates)
    }

    /// Repeated rounds of the same work, read as one typical round: the
    /// median time of each part (a `simulate` call, a ramext cell) over
    /// the rounds, summed. A median per part drops the rounds in which
    /// the host slowed that part down without shifting the others. Both
    /// op quantiles read this round: a run's 10–25 rounds could not
    /// resolve a 99th percentile.
    pub fn typical_round(work: f64, part_s: &[Vec<f64>]) -> Phase {
        let secs = part_s.iter().map(|t| stats::median(t)).sum();
        let mut phase = Phase::new(1);
        phase.round(work, secs);
        phase.op(secs);
        phase
    }

    /// Seconds spent in rounds so far.
    pub fn busy_s(&self) -> f64 {
        self.rounds.iter().map(|&(_, s)| s).sum()
    }
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub untraced: Phase,
    pub traced: Option<Phase>,
    /// Operations attempted / failed (a `simulate` call, a hypervisor
    /// cell, an RPC): failed = errored or failed its output check.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's end-to-end metrics under their own names, for
    /// the human-readable report: name, value, unit.
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Why outputs were judged wrong, if they were.
    pub problems: Vec<String>,
    /// Spans of the traced phase.
    pub spans: Vec<spans::Span>,
}

impl Outcome {
    /// Sets a per-layer metric; the name must be in [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let known = PER_LAYER.iter().find(|(n, _)| *n == name);
        let (name, _) = known.unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        self.layers.insert(name, value);
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed check that is not one operation of its own (the
    /// run's outputs as a whole, or the harness around them).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }
}

/// Runs `f` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_MIN_S`] seconds, returning the first result with the median
/// normalized CPU time ([`reference::normalize`]) of all runs (a set-up
/// of a millisecond is measured many times, one of seconds three times).
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut first = None;
    let (mut secs, mut raw_secs) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while secs.len() < SETUP_REPEATS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        let (v, raw_s, norm_s) = reference::normalize(&mut f);
        secs.push(norm_s);
        raw_secs.push(raw_s);
        first.get_or_insert(v);
    }
    println!(
        "  {} set-ups; not normalized: {:.6} s (median)",
        secs.len(),
        stats::median(&raw_secs)
    );
    (first.expect("at least one set-up"), stats::median(&secs))
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0;
    let mut traced = false;
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--spans" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        spans_out,
    })
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    ));
}

fn pct_change(traced: f64, untraced: f64) -> f64 {
    stats::ratio(traced - untraced, untraced) * 100.0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the program's own defaults: no ZL_* variable of the caller's
    // environment may change what the benchmark measures.
    zombieland_core::scenario::install(zombieland_core::scenario::Scenario::default());

    let mut out = match args.workload.as_str() {
        "dc-large" => dc::run(&dc::LARGE, &args),
        "dc-modified" => dc::run(&dc::MODIFIED, &args),
        "ramext" => ramext::run(&args),
        "ctl-rpc" => ctl::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    let peak_rss = stats::peak_rss_mib();
    let u = &out.untraced;
    let [p50, p99] = u.op_quantiles_us();
    let e2e = [out.setup_s, u.work_per_s(), p50, p99, peak_rss];

    println!(
        "== {} seed {} ({} s, trace {}; default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}) ==",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    println!(
        "operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    println!("op samples: {} ({} windows)", u.ops, u.windows.len().max(1));
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("{name:<28} {v:>16.4} {unit}");
    }
    for (name, v, unit) in &out.report {
        println!("  {name:<26} {v:>16.4} {unit}");
    }

    let mut json = String::from("{\"metrics\": {");
    let mut all_finite = true;
    if let Some(t) = &out.traced {
        let [p50, p99] = t.op_quantiles_us();
        let traced = [out.setup_s, t.work_per_s(), p50, p99];
        println!("-- tracing overhead (traced vs untraced) --");
        println!(
            "{:<28} {:>14.2} % (set-up is timed identically in both)",
            "setup_s", 0.0
        );
        for ((name, _), (tv, uv)) in END_TO_END.iter().zip(traced.iter().zip(&e2e)).skip(1) {
            println!(
                "{name:<28} {:>14.2} %  ({uv:.4} -> {tv:.4})",
                pct_change(*tv, *uv)
            );
        }
        println!(
            "{:<28} {:>16} (one process holds both phases)",
            "peak_rss_mib", "n/a"
        );
        let overhead = pct_change(u.work_per_s(), t.work_per_s());
        out.layer("bench.trace_overhead_pct", overhead);
        if let Some(path) = &args.spans_out {
            if let Err(e) = spans::write_jsonl(&out.spans, path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("{} spans written to {}", out.spans.len(), path.display());
        }
        println!("-- per-layer --");
        for (name, unit) in PER_LAYER {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            println!("{name:<36} {v:>16.4} {unit}");
            json_metric(&mut json, name, v, unit);
            all_finite &= v.is_finite();
        }
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            json_metric(&mut json, name, v, unit);
            all_finite &= v.is_finite();
        }
    }
    json.push_str("}, ");
    // A metric that is not a number is a defect of the run, not a value.
    if !all_finite {
        println!("FAILED: a metric is not a finite number");
        out.failed += 1;
    }
    let correct = out.failed == 0 && out.attempted > 0;
    json.push_str(&format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}}}",
        out.attempted.max(1),
        out.failed
    ));
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_quantiles_are_medians_over_windows() {
        let mut p = Phase::new(2);
        p.op(1e-6);
        assert_eq!(
            p.op_quantiles_us(),
            [1.0, 1.0],
            "a partial window stands in"
        );
        for us in [3.0, 2.0, 4.0, 10.0, 20.0, 99.0] {
            p.op(us * 1e-6);
        }
        assert_eq!(p.ops, 7);
        // Windows (1, 3), (2, 4), (10, 20); the last op waits for a partner.
        let [p50, p99] = p.op_quantiles_us();
        assert!((p50 - 3.0).abs() < 1e-9, "{p50}");
        assert!((p99 - 3.98).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn a_typical_round_sums_each_parts_median() {
        // The slow third round of the first part and the slow first
        // round of the second do not add up into one slow round.
        let p = Phase::typical_round(44.0, &[vec![1.0, 2.0, 9.0], vec![90.0, 20.0, 20.0]]);
        assert_eq!(p.work_per_s(), 2.0);
        assert_eq!(p.op_quantiles_us(), [22e6, 22e6]);
    }
}
