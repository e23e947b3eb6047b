//! `ctl-rpc`: the live control plane. An in-process daemon on a Unix
//! socket serves one connection driven in a closed loop with a fixed
//! pipeline window; each window slot stands for one host agent blocked
//! on its RackOp (§4.4).
//!
//! The loop runs in chunks: a chunk's requests are sent and answered
//! (timed), then checked against a reference [`ClusterModel`] applying
//! the same ops in-process (untimed). At one connection the daemon's
//! answers are deterministic, so every response must equal the
//! reference's — typed refusals included.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

use zombieland_core::codec::{decode, decode_response, encode, encode_response, ResponseBody};
use zombieland_core::protocol::RackOp;
use zombieland_core::ServerId;
use zombieland_daemon::client::{ClientError, ZlClient};
use zombieland_daemon::model::{ClusterModel, ModelConfig};
use zombieland_daemon::server::Daemon;
use zombieland_daemon::Endpoint;
use zombieland_mem::buffer::BufferId;
use zombieland_simcore::{derive_seed, Bytes, DetRng};

use crate::stats::{self, Fnv};
use crate::{reference, spans, timed_setup, Args, Outcome, Phase, DEFAULT_SEED};

/// Hosts in the daemon's rack (and the host-id space of the ops).
const SERVERS: u32 = 24;
/// Requests in flight on the connection.
const WINDOW: usize = 8;
/// Requests per timed chunk; the chunk is checked before the next.
const CHUNK: usize = 4096;
/// Requests one daemon answers before the next epoch boots afresh.
const EPOCH: usize = 8 * CHUNK;
/// Digest of one epoch's encoded responses at [`DEFAULT_SEED`].
const DIGEST: u64 = 0x0a7c_88c1_53b0_9f90;

/// The `zombieland replay` request mix: allocations, goto-zombie,
/// reclaims, free-memory and LRU-zombie queries, drawn from `rng`.
fn gen_op(rng: &mut DetRng) -> RackOp {
    let host = ServerId::new(rng.below(SERVERS as u64) as u32);
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

/// A fresh socket path in the working directory (relative, so the path
/// stays short wherever the checkout lives).
fn socket_path() -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = PathBuf::from(format!("perfbench-{}-{n}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

struct Served {
    endpoint: Endpoint,
    path: PathBuf,
    daemon: Daemon,
    reference: ClusterModel,
    boot_s: [f64; 2],
}

fn set_up(seed: u64) -> Served {
    let t = stats::cpu_s();
    let served = ClusterModel::boot(ModelConfig::new(SERVERS, seed));
    let boot_a = stats::cpu_s() - t;
    let t = stats::cpu_s();
    let reference = ClusterModel::boot(ModelConfig::new(SERVERS, seed));
    let boot_b = stats::cpu_s() - t;
    let path = socket_path();
    let daemon =
        Daemon::bind(&Endpoint::Unix(path.clone()), served).expect("bind the daemon socket");
    Served {
        endpoint: daemon.local_endpoint(),
        path,
        daemon,
        reference,
        boot_s: [boot_a, boot_b],
    }
}

/// Host timings the traced run adds, per request.
#[derive(Default)]
struct Traced {
    send_us: Vec<f64>,
    recv_wait_us: Vec<f64>,
    apply_ns: Vec<f64>,
    encode_ns: f64,
    decode_ns: f64,
    request_bytes: f64,
    response_bytes: f64,
}

/// One in-flight request: its op, when `send` was called, when the
/// flush after it returned.
struct InFlight {
    op: RackOp,
    sent: Instant,
    flushed: Instant,
}

/// Sends and receives one chunk; returns `(op, response)` pairs in
/// order. RTT samples go to `phase`, send/receive splits and spans to
/// `traced`.
fn run_chunk(
    client: &mut ZlClient,
    rng: &mut DetRng,
    first_req: u64,
    rtt_s: &mut Vec<f64>,
    mut traced: Option<&mut Traced>,
) -> Result<Vec<(RackOp, ResponseBody, u64)>, ClientError> {
    let mut answered = Vec::with_capacity(CHUNK);
    let mut in_flight = std::collections::VecDeque::with_capacity(WINDOW);
    let mut sent = 0;
    while answered.len() < CHUNK {
        if sent < CHUNK && in_flight.len() < WINDOW {
            let t = Instant::now();
            let mut batch = 0;
            while sent < CHUNK && in_flight.len() < WINDOW {
                let op = gen_op(rng);
                let at = Instant::now();
                client.send(&op)?;
                in_flight.push_back(InFlight {
                    op,
                    sent: at,
                    flushed: at,
                });
                sent += 1;
                batch += 1;
            }
            client.flush()?;
            let flushed = Instant::now();
            for f in in_flight.iter_mut().rev().take(batch) {
                f.flushed = flushed;
            }
            if let Some(tr) = traced.as_deref_mut() {
                let per = (flushed - t).as_secs_f64() * 1e6 / batch as f64;
                tr.send_us.extend(std::iter::repeat_n(per, batch));
            }
        }
        let wait = Instant::now();
        let resp = client.recv()?;
        let done = Instant::now();
        let req = in_flight
            .pop_front()
            .expect("a response answers a request in flight");
        rtt_s.push((done - req.sent).as_secs_f64());
        let id = first_req + answered.len() as u64;
        if let Some(tr) = traced.as_deref_mut() {
            tr.recv_wait_us.push((done - wait).as_secs_f64() * 1e6);
            let rpc = spans::record("rpc", id, None, req.sent, done);
            spans::record("rpc.send", id, rpc, req.sent, req.flushed);
            spans::record("rpc.recv_wait", id, rpc, wait, done);
        }
        answered.push((req.op, resp.body, resp.decision.as_nanos()));
    }
    Ok(answered)
}

/// Checks a chunk against the reference model; in the traced run also
/// times `apply` per request and the codec over the chunk.
fn check_chunk(
    answered: &[(RackOp, ResponseBody, u64)],
    ep: &mut Epoch,
    refused: &mut u64,
    out: &mut Outcome,
    traced: Option<&mut Traced>,
) {
    let mut wants = Vec::with_capacity(answered.len());
    for (op, body, decision) in answered {
        let t = Instant::now();
        let want = ep.reference.apply(op);
        let ns = t.elapsed().as_nanos() as f64;
        let ok = &want.body == body && want.decision.as_nanos() == *decision;
        out.check(ok, || {
            format!("{op:?}: daemon answered {body:?}, model {:?}", want.body)
        });
        if matches!(want.body, ResponseBody::Error(_)) {
            *refused += 1;
        }
        ep.digest = ep.digest.bytes(&encode_response(&want));
        wants.push((want, ns));
    }
    let Some(tr) = traced else { return };
    tr.apply_ns.extend(wants.iter().map(|(_, ns)| *ns));
    let t = Instant::now();
    let requests: Vec<Vec<u8>> = answered.iter().map(|(op, _, _)| encode(op)).collect();
    let responses: Vec<Vec<u8>> = wants.iter().map(|(w, _)| encode_response(w)).collect();
    tr.encode_ns += t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for (req, resp) in requests.iter().zip(&responses) {
        std::hint::black_box(decode(req).expect("own encoding decodes"));
        std::hint::black_box(decode_response(resp).expect("own encoding decodes"));
    }
    tr.decode_ns += t.elapsed().as_nanos() as f64;
    tr.request_bytes += requests.iter().map(Vec::len).sum::<usize>() as f64;
    tr.response_bytes += responses.iter().map(Vec::len).sum::<usize>() as f64;
}

/// One daemon lifetime: a freshly booted rack answering [`EPOCH`]
/// requests of the seeded stream over one connection, and the reference
/// model the answers are checked against. Every epoch replays the same
/// stream, so the model state a run reaches does not grow with how fast
/// the program is.
struct Epoch {
    client: ZlClient,
    server: JoinHandle<std::io::Result<()>>,
    endpoint: Endpoint,
    path: PathBuf,
    reference: ClusterModel,
    rng: DetRng,
    answered: usize,
    /// Digest of the responses so far: every full epoch must match
    /// [`DIGEST`] at the default seed.
    digest: Fnv,
}

fn open(served: Served, seed: u64) -> Epoch {
    let Served {
        endpoint,
        path,
        daemon,
        reference,
        ..
    } = served;
    let server = std::thread::spawn(move || daemon.run());
    let client = ZlClient::connect(&endpoint).expect("connect to the daemon");
    Epoch {
        client,
        server,
        endpoint,
        path,
        reference,
        rng: DetRng::new(derive_seed(seed, 0)),
        answered: 0,
        digest: Fnv::new(),
    }
}

/// Shuts the epoch's daemon down through its admin frame and waits for
/// it. An epoch that answered its full share has its response digest
/// checked at the default seed.
fn close(epoch: Epoch, seed: u64, out: &mut Outcome) {
    let digest = epoch.digest.finish();
    if seed == DEFAULT_SEED && epoch.answered >= EPOCH && digest != DIGEST {
        out.fail(format!(
            "epoch response digest {digest:#018x} != recorded {DIGEST:#018x}"
        ));
    }
    drop(epoch.client);
    let stopped = ZlClient::connect(&epoch.endpoint)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()));
    if let Err(e) = stopped {
        out.fail(format!("daemon shutdown: {e}"));
    }
    match epoch.server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.fail(format!("daemon: {e}")),
        Err(_) => out.fail("daemon thread panicked".into()),
    }
    let _ = std::fs::remove_file(&epoch.path);
}

/// The seeded request stream of one run, served epoch after epoch.
struct Stream {
    seed: u64,
    epoch: Option<Epoch>,
    /// Requests answered so far (the next request's id).
    answered: u64,
    /// Answers that were typed refusals.
    refused: u64,
    /// Epochs that answered their full share.
    full_epochs: u64,
}

impl Stream {
    /// Closes the current epoch, if any.
    fn close(&mut self, out: &mut Outcome) {
        if let Some(e) = self.epoch.take() {
            close(e, self.seed, out);
        }
    }
}

/// Runs checked chunks until `seconds` of timed host time have passed and
/// the first epoch has answered its full share (so its digest is always
/// checked), starting a new epoch whenever the current one is done.
/// Returns the phase, normalized, and the median chunk's responses per
/// second as measured.
fn measure(
    stream: &mut Stream,
    seconds: f64,
    out: &mut Outcome,
    mut traced: Option<&mut Traced>,
) -> (Phase, f64) {
    let mut phase = Phase::new(CHUNK);
    let (mut busy_s, mut raw_rates) = (0.0, Vec::new());
    let mut rtt_s = Vec::with_capacity(CHUNK);
    while busy_s < seconds || stream.full_epochs == 0 {
        if stream.epoch.as_ref().is_some_and(|e| e.answered >= EPOCH) {
            stream.close(out);
        }
        let seed = stream.seed;
        let ep = stream.epoch.get_or_insert_with(|| open(set_up(seed), seed));
        rtt_s.clear();
        let ((result, wall_s), scale) = reference::scaled(|| {
            let started = Instant::now();
            let r = run_chunk(
                &mut ep.client,
                &mut ep.rng,
                stream.answered,
                &mut rtt_s,
                traced.as_deref_mut(),
            );
            (r, started.elapsed().as_secs_f64())
        });
        match result {
            Ok(answered) => {
                // The chunk's wall time and round trips are scaled like
                // the other workloads' CPU time (see `reference`).
                busy_s += wall_s;
                raw_rates.push(answered.len() as f64 / wall_s);
                phase.round(answered.len() as f64, wall_s * scale);
                for rtt in &rtt_s {
                    phase.op(rtt * scale);
                }
                stream.answered += answered.len() as u64;
                ep.answered += answered.len();
                check_chunk(
                    &answered,
                    ep,
                    &mut stream.refused,
                    out,
                    traced.as_deref_mut(),
                );
                if ep.answered == EPOCH {
                    stream.full_epochs += 1;
                }
            }
            Err(e) => {
                // The connection is gone: the chunk's requests count as
                // attempted and unanswered.
                for _ in 0..CHUNK {
                    out.check(false, || format!("connection failed: {e}"));
                }
                break;
            }
        }
    }
    let raw_rps = stats::median(&raw_rates);
    println!("  not normalized: {raw_rps:.0} responses per second (median chunk)");
    (phase, raw_rps)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut boots = Vec::new();
    let mut paths = Vec::new();
    let (served, setup_s) = timed_setup(|| {
        let s = set_up(args.seed);
        boots.extend(s.boot_s);
        paths.push(s.path.clone());
        s
    });
    out.setup_s = setup_s;
    // Only the first set-up serves; the repeats were for timing and
    // their never-run daemons leave socket files behind.
    for p in paths.iter().filter(|p| **p != served.path) {
        let _ = std::fs::remove_file(p);
    }

    let mut stream = Stream {
        seed: args.seed,
        epoch: Some(open(served, args.seed)),
        answered: 0,
        refused: 0,
        full_epochs: 0,
    };
    let untraced_s = if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    out.untraced = measure(&mut stream, untraced_s, &mut out, None).0;
    let mut tr = Traced::default();
    // Not normalized, like the codec and apply times it is compared with.
    let mut traced_rps = 0.0;
    if args.traced {
        spans::start();
        let (traced, rps) = measure(&mut stream, args.seconds / 2.0, &mut out, Some(&mut tr));
        out.spans = spans::stop();
        out.traced = Some(traced);
        traced_rps = rps;
    }
    stream.close(&mut out);

    let u = &out.untraced;
    let [p50, p99] = u.op_quantiles_us();
    out.report = vec![
        ("rpc_rps", u.work_per_s(), "1/s"),
        ("rpc_rtt_p50_us", p50, "us"),
        ("rpc_rtt_p99_us", p99, "us"),
        ("rpc_rtt_samples", u.ops as f64, "count"),
    ];
    if !args.traced {
        return out;
    }
    let answered = stream.answered as f64;
    let traced_n = tr.apply_ns.len() as f64;
    let encode_ns = stats::ratio(tr.encode_ns, traced_n);
    let decode_ns = stats::ratio(tr.decode_ns, traced_n);
    let apply_p50 = stats::median(&tr.apply_ns);
    out.layer("codec.encode_ns", encode_ns);
    out.layer("codec.decode_ns", decode_ns);
    out.layer(
        "codec.request_bytes",
        stats::ratio(tr.request_bytes, traced_n),
    );
    out.layer(
        "codec.response_bytes",
        stats::ratio(tr.response_bytes, traced_n),
    );
    out.layer("model.boot_s", stats::median(&boots));
    out.layer("model.apply_ns_p50", apply_p50);
    out.layer("model.apply_ns_p99", stats::quantile(&tr.apply_ns, 0.99));
    out.layer(
        "model.refused_ratio",
        stats::ratio(stream.refused as f64, answered),
    );
    out.layer("client.send_us", stats::median(&tr.send_us));
    out.layer("client.recv_wait_us_p50", stats::median(&tr.recv_wait_us));
    out.layer(
        "client.recv_wait_us_p99",
        stats::quantile(&tr.recv_wait_us, 0.99),
    );
    // With a window of requests in flight an RTT spans several requests'
    // service, so the per-request budget is 1 / throughput.
    let service_us = stats::ratio(1e6, traced_rps);
    out.layer(
        "rpc.transport_us",
        service_us - (encode_ns + decode_ns + apply_p50) / 1e3,
    );
    out
}
