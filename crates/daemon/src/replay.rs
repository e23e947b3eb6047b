//! The replay load harness behind `zombieland replay`.
//!
//! N client threads each fire a seeded, deterministic stream of
//! control-plane requests at a running daemon, keeping a window of
//! requests pipelined per connection. Two kinds of numbers come out:
//!
//! - **Deterministic metrics**, recorded through the [`zombieland_obs`]
//!   registry and byte-stable across runs of the same seed: per-op
//!   counters, request sizes, and the decision-latency histogram. The
//!   `decision` a response carries is the controller's *modeled* server
//!   time — a pure function of the request — so aggregating it is
//!   scheduling-independent even with many concurrent clients.
//! - **Wall-clock throughput**, client-observed round-trip times and
//!   the interleaving-dependent error count, reported in the
//!   [`ReplaySummary`] only (never exported): whether an allocation hits
//!   admission control depends on what other clients did first.
//!
//! Per-client streams are seeded with `derive_seed(seed, client_index)`
//! and captures are merged in client-index order, so the merged registry
//! is independent of thread scheduling *and* of the client count only in
//! timing — changing `--clients` redistributes the same request budget
//! across differently-seeded streams and is a different workload.

use std::collections::VecDeque;
use std::time::Instant;

use zombieland_core::codec::{encode, ResponseBody};
use zombieland_core::protocol::RackOp;
use zombieland_core::ServerId;
use zombieland_mem::buffer::BufferId;
use zombieland_obs::profile;
use zombieland_obs::sink::{counter_add, hist_record};
use zombieland_obs::{observe, ObsRun};
use zombieland_simcore::stats::quantile;
use zombieland_simcore::{derive_seed, Bytes, DetRng};

use crate::client::{ClientError, ZlClient};
use crate::Endpoint;

/// What to fire, where, and how hard.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// The daemon to load.
    pub endpoint: Endpoint,
    /// Total requests across all clients.
    pub requests: u64,
    /// Concurrent client connections (threads).
    pub clients: u32,
    /// Base seed for the request streams.
    pub seed: u64,
    /// Requests kept in flight per connection.
    pub window: usize,
    /// Host-id space the generated ops target (should match the
    /// daemon's `--servers`).
    pub servers: u32,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:7070".into()),
            requests: 100_000,
            clients: 4,
            seed: 11,
            window: 32,
            servers: 24,
        }
    }
}

/// What a replay run measured.
#[derive(Clone, Debug)]
pub struct ReplaySummary {
    /// Requests answered.
    pub requests: u64,
    /// Answers that were typed error frames (interleaving-dependent —
    /// reported here, never exported as a metric).
    pub errors: u64,
    /// Wall-clock time for the whole run.
    pub wall_secs: f64,
    /// Decision-latency quantiles from the merged histogram (log₂
    /// bucket upper edges), absent when nothing was recorded.
    pub p50_decision_ns: Option<u64>,
    /// See [`ReplaySummary::p50_decision_ns`].
    pub p99_decision_ns: Option<u64>,
    /// Client-observed round-trip quantiles in µs, from `send` to the
    /// matching `recv`, over every request of every client (exact, not
    /// bucketed). Wall-clock, so never exported as a metric.
    pub rtt_p50_us: Option<f64>,
    /// See [`ReplaySummary::rtt_p50_us`].
    pub rtt_p99_us: Option<f64>,
    /// See [`ReplaySummary::rtt_p50_us`].
    pub rtt_p999_us: Option<f64>,
}

impl ReplaySummary {
    /// Requests per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.requests as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Deterministically generates the `i`-th request of one client stream.
fn gen_op(rng: &mut DetRng, servers: u32) -> RackOp {
    let host = ServerId::new(rng.below(servers as u64) as u32);
    match rng.below(100) {
        0..=24 => RackOp::AllocSwap {
            user: host,
            mem_size: Bytes::mib(rng.range(64, 512)),
        },
        25..=44 => RackOp::AllocExt {
            user: host,
            mem_size: Bytes::mib(rng.range(64, 256)),
        },
        45..=59 => RackOp::GotoZombie {
            host,
            buffers: rng.range(1, 8),
        },
        60..=74 => RackOp::Reclaim {
            host,
            nb_buffers: rng.range(1, 8),
        },
        75..=84 => RackOp::AsGetFreeMem { host },
        85..=92 => RackOp::GetLruZombie,
        _ => RackOp::UsReclaim {
            user: host,
            buff_ids: (0..rng.below(4))
                .map(|_| BufferId::new(rng.below(4096)))
                .collect(),
        },
    }
}

/// Metric name for an op's per-kind counter (static, as the registry
/// requires).
fn op_counter(op: &RackOp) -> &'static str {
    match op {
        RackOp::GotoZombie { .. } => "replay.op.gs_goto_zombie",
        RackOp::Reclaim { .. } => "replay.op.gs_reclaim",
        RackOp::UsReclaim { .. } => "replay.op.us_reclaim",
        RackOp::AllocExt { .. } => "replay.op.gs_alloc_ext",
        RackOp::AllocSwap { .. } => "replay.op.gs_alloc_swap",
        RackOp::AsGetFreeMem { .. } => "replay.op.as_get_free_mem",
        RackOp::GetLruZombie => "replay.op.gs_get_lru_zombie",
    }
}

/// What one client thread brings back: its typed-error count and one
/// round-trip time (µs) per request.
struct StreamResult {
    errors: u64,
    rtt_us: Vec<f64>,
}

/// One client thread's share of the run.
fn client_stream(
    endpoint: &Endpoint,
    requests: u64,
    stream_seed: u64,
    window: usize,
    servers: u32,
) -> Result<StreamResult, ClientError> {
    let mut client = ZlClient::connect(endpoint)?;
    let mut rng = DetRng::new(stream_seed);
    let window = window.max(1) as u64;
    let mut errors = 0u64;
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut sent_at = VecDeque::new();
    let mut rtt_us = Vec::new();
    while received < requests {
        {
            let _span = profile::span(profile::Phase::ReplaySend);
            while sent < requests && sent - received < window {
                let op = gen_op(&mut rng, servers);
                counter_add("replay.requests", 1);
                counter_add(op_counter(&op), 1);
                hist_record("replay.request_bytes", encode(&op).len() as u64);
                sent_at.push_back(Instant::now());
                client.send(&op)?;
                sent += 1;
            }
            client.flush()?;
        }
        let _span = profile::span(profile::Phase::ReplayRecv);
        let resp = client.recv()?;
        let at = sent_at
            .pop_front()
            .expect("a response answers a request sent");
        rtt_us.push(at.elapsed().as_secs_f64() * 1e6);
        received += 1;
        hist_record("replay.decision_ns", resp.decision.as_nanos());
        if matches!(resp.body, ResponseBody::Error(_)) {
            errors += 1;
        }
    }
    Ok(StreamResult { errors, rtt_us })
}

/// Runs a replay. Returns the summary plus the merged deterministic
/// capture (callers hand the capture to their own `observe` scope via
/// [`zombieland_obs::sink::absorb_current`], or export it directly).
pub fn run_replay(cfg: &ReplayConfig) -> Result<(ReplaySummary, ObsRun), ClientError> {
    let clients = cfg.clients.max(1) as u64;
    let started = Instant::now();
    let mut handles = Vec::new();
    for idx in 0..clients {
        // Spread the budget: the first `requests % clients` streams take
        // one extra.
        let share = cfg.requests / clients + u64::from(idx < cfg.requests % clients);
        let endpoint = cfg.endpoint.clone();
        let stream_seed = derive_seed(cfg.seed, idx);
        let (window, servers) = (cfg.window, cfg.servers);
        handles.push(std::thread::spawn(move || {
            observe(zombieland_obs::ObsLevel::Summary, || {
                client_stream(&endpoint, share, stream_seed, window, servers)
            })
        }));
    }

    let mut merged = ObsRun::new(zombieland_obs::ObsLevel::Summary);
    let mut errors = 0u64;
    let mut rtt_us = Vec::new();
    let mut first_err: Option<ClientError> = None;
    for h in handles {
        let (result, run) = h.join().expect("replay client panicked");
        // Merge in client-index order: counter/histogram merges commute,
        // so the registry is scheduling-independent either way.
        merged.absorb(run);
        match result {
            Ok(r) => {
                errors += r.errors;
                rtt_us.extend(r.rtt_us);
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let hist = merged.metrics.histogram("replay.decision_ns");
    let summary = ReplaySummary {
        requests: cfg.requests,
        errors,
        wall_secs,
        p50_decision_ns: hist.and_then(|h| h.quantile(0.5)),
        p99_decision_ns: hist.and_then(|h| h.quantile(0.99)),
        rtt_p50_us: quantile(&rtt_us, 0.5),
        rtt_p99_us: quantile(&rtt_us, 0.99),
        rtt_p999_us: quantile(&rtt_us, 0.999),
    };
    Ok((summary, merged))
}
