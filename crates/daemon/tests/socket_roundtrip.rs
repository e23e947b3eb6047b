//! End-to-end tests over real sockets: a `Daemon` serving a booted
//! `ClusterModel`, driven by `ZlClient` and the replay harness.

use std::io::{Read, Write};
use std::thread::JoinHandle;
use std::time::Duration;

use zombieland_core::codec::{decode_response, encode, encode_response, ErrorFrame, ResponseBody};
use zombieland_core::protocol::RackOp;
use zombieland_core::ServerId;
use zombieland_daemon::client::ZlClient;
use zombieland_daemon::framing::{read_frame, write_frame};
use zombieland_daemon::model::{ClusterModel, ModelConfig};
use zombieland_daemon::replay::{run_replay, ReplayConfig};
use zombieland_daemon::server::Daemon;
use zombieland_daemon::Endpoint;
use zombieland_mem::buffer::BufferId;
use zombieland_simcore::{Bytes, DetRng};

/// Boots a small daemon on an ephemeral TCP port; returns its endpoint
/// and the serving thread (joined after `zlctl shutdown`).
fn spawn_daemon(cfg: ModelConfig) -> (Endpoint, JoinHandle<()>) {
    let daemon = Daemon::bind(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        ClusterModel::boot(cfg),
    )
    .expect("bind ephemeral port");
    let endpoint = daemon.local_endpoint();
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (endpoint, handle)
}

/// Boots a small daemon on a fresh Unix socket named after `tag`.
#[cfg(unix)]
fn spawn_unix_daemon(cfg: ModelConfig, tag: &str) -> (Endpoint, JoinHandle<()>) {
    let path = std::env::temp_dir().join(format!("zombied-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let daemon =
        Daemon::bind(&Endpoint::Unix(path), ClusterModel::boot(cfg)).expect("bind unix socket");
    let endpoint = daemon.local_endpoint();
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (endpoint, handle)
}

/// How long a test waits for an answer the server owes before calling
/// it lost.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// A raw byte stream to a daemon, with [`ANSWER_TIMEOUT`] on reads.
trait RawConn: Read + Write {}
impl<T: Read + Write> RawConn for T {}

fn raw_connect(endpoint: &Endpoint) -> Box<dyn RawConn> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let s = std::net::TcpStream::connect(addr.as_str()).expect("raw tcp connect");
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(ANSWER_TIMEOUT)).expect("timeout");
            Box::new(s)
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let s = std::os::unix::net::UnixStream::connect(path).expect("raw unix connect");
            s.set_read_timeout(Some(ANSWER_TIMEOUT)).expect("timeout");
            Box::new(s)
        }
    }
}

fn shutdown(endpoint: &Endpoint, handle: JoinHandle<()>) {
    let mut c = ZlClient::connect(endpoint).expect("connect for shutdown");
    c.shutdown_server().expect("shutdown ack");
    handle.join().expect("daemon thread");
}

#[test]
fn all_seven_ops_round_trip_over_tcp() {
    let (endpoint, handle) = spawn_daemon(ModelConfig::new(8, 11));
    let mut c = ZlClient::connect(&endpoint).expect("connect");

    let alloc = RackOp::AllocExt {
        user: ServerId::new(1),
        mem_size: Bytes::mib(128),
    };
    let r = c.call(&alloc).expect("alloc_ext");
    assert_eq!(r.decision, alloc.server_time(), "decision is modeled time");
    let ResponseBody::Granted { buffers } = r.body else {
        panic!("alloc_ext answered {:?}", r.body);
    };
    assert_eq!(buffers.len(), 2);
    let ids: Vec<BufferId> = buffers.iter().map(|d| d.id).collect();

    let r = c
        .call(&RackOp::AllocSwap {
            user: ServerId::new(1),
            mem_size: Bytes::mib(64),
        })
        .expect("alloc_swap");
    assert!(matches!(r.body, ResponseBody::Granted { .. }));

    let r = c.call(&RackOp::GetLruZombie).expect("lru");
    assert!(matches!(r.body, ResponseBody::LruZombie { host: Some(_) }));

    let r = c
        .call(&RackOp::UsReclaim {
            user: ServerId::new(1),
            buff_ids: ids,
        })
        .expect("us_reclaim");
    assert!(matches!(r.body, ResponseBody::Revoked { .. }));

    let r = c
        .call(&RackOp::GotoZombie {
            host: ServerId::new(7),
            buffers: 2,
        })
        .expect("goto_zombie");
    assert!(matches!(r.body, ResponseBody::Lent { .. }));

    let r = c
        .call(&RackOp::AsGetFreeMem {
            host: ServerId::new(7),
        })
        .expect("as_get_free_mem");
    assert!(matches!(r.body, ResponseBody::Lent { .. }));

    let r = c
        .call(&RackOp::Reclaim {
            host: ServerId::new(7),
            nb_buffers: 1,
        })
        .expect("gs_reclaim");
    assert!(matches!(r.body, ResponseBody::Reclaimed { .. }));

    shutdown(&endpoint, handle);
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_and_cleans_up() {
    let (endpoint, handle) = spawn_unix_daemon(ModelConfig::new(4, 7), "test");
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };

    let mut c = ZlClient::connect(&endpoint).expect("connect over unix socket");
    let r = c.call(&RackOp::GetLruZombie).expect("lru over unix");
    assert!(matches!(r.body, ResponseBody::LruZombie { .. }));

    shutdown(&endpoint, handle);
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn malformed_frame_gets_a_typed_bad_request_and_connection_survives() {
    let (endpoint, handle) = spawn_daemon(ModelConfig::new(4, 3));
    let mut c = ZlClient::connect(&endpoint).expect("connect");

    // Raw garbage payload in a well-formed frame: the server answers
    // with a BadRequest error frame instead of dropping the connection.
    let Endpoint::Tcp(addr) = &endpoint else {
        unreachable!()
    };
    let mut raw = std::net::TcpStream::connect(addr.as_str()).expect("raw connect");
    write_frame(&mut raw, &[0xEE, 0xEE, 0xEE]).expect("send garbage");
    let payload = read_frame(&mut raw).expect("read answer").expect("frame");
    let resp = zombieland_core::codec::decode_response(&payload).expect("typed answer");
    assert_eq!(
        resp.body,
        ResponseBody::Error(ErrorFrame::BadRequest { code: 2 }),
        "unknown opcode class"
    );
    // The same connection still serves well-formed requests.
    write_frame(
        &mut raw,
        &zombieland_core::codec::encode(&RackOp::GetLruZombie),
    )
    .expect("send valid");
    let payload = read_frame(&mut raw).expect("read answer").expect("frame");
    let resp = zombieland_core::codec::decode_response(&payload).expect("decode");
    assert!(matches!(resp.body, ResponseBody::LruZombie { .. }));
    drop(raw);

    // Typed state errors come back over the socket too.
    let r = c
        .call(&RackOp::GotoZombie {
            host: ServerId::new(999),
            buffers: 1,
        })
        .expect("unknown host call");
    assert_eq!(
        r.body,
        ResponseBody::Error(ErrorFrame::UnknownHost(ServerId::new(999)))
    );

    shutdown(&endpoint, handle);
}

#[test]
fn failover_mid_stream_is_invisible_to_the_client() {
    let (endpoint, handle) = spawn_daemon(ModelConfig {
        fail_primary_after: Some(5),
        ..ModelConfig::new(8, 11)
    });
    let mut c = ZlClient::connect(&endpoint).expect("connect");
    // Drive well past the injected crash: every answer stays well-formed.
    for _ in 0..32 {
        let r = c.call(&RackOp::GetLruZombie).expect("call across failover");
        assert!(matches!(r.body, ResponseBody::LruZombie { .. }));
    }
    shutdown(&endpoint, handle);
}

/// The STATS admin frame: per-op counters account for exactly the ops
/// served, gauges reflect the model, and consecutive scrapes are
/// monotone on every counter.
#[test]
fn stats_scrape_counts_ops_exactly_and_is_monotone() {
    use zombieland_obs::telemetry::parse_exposition;

    let (endpoint, handle) = spawn_daemon(ModelConfig::new(8, 11));
    let mut c = ZlClient::connect(&endpoint).expect("connect");

    // A scrape before any op: valid exposition, zero op counters, live
    // model gauges already present.
    let first = parse_exposition(&c.stats().expect("first scrape")).expect("valid exposition");
    assert_eq!(first.counter_sum("zombied_op_"), 0);
    assert_eq!(first.counters["zombied_ops_applied"], 0);
    assert!(first.gauges["zombied_pool_free_buffers"] > 0.0);
    assert!(first.gauges["zombied_pool_zombies"] >= 1.0);
    assert_eq!(first.gauges["zombied_ha_primary_alive"], 1.0);

    for _ in 0..5 {
        let r = c.call(&RackOp::GetLruZombie).expect("op");
        assert!(matches!(r.body, ResponseBody::LruZombie { .. }));
    }
    let r = c.call(&RackOp::GotoZombie {
        host: ServerId::new(999),
        buffers: 1,
    });
    assert!(matches!(
        r.expect("op").body,
        ResponseBody::Error(ErrorFrame::UnknownHost(_))
    ));

    let second = parse_exposition(&c.stats().expect("second scrape")).expect("valid exposition");
    assert_eq!(second.counter_sum("zombied_op_"), 6, "5 reads + 1 error op");
    assert_eq!(second.counters["zombied_op_gs_get_lru_zombie"], 5);
    assert_eq!(second.counters["zombied_op_gs_goto_zombie"], 1);
    assert_eq!(second.counters["zombied_resp_lru_zombie"], 5);
    assert_eq!(second.counters["zombied_resp_error"], 1);
    assert_eq!(second.counters["zombied_err_unknown_host"], 1);
    assert_eq!(second.counters["zombied_ops_applied"], 6);
    assert_eq!(second.histograms["zombied_decision_ns"].count, 6);
    assert!(second.histograms["zombied_decision_ns"]
        .quantile(0.5)
        .is_some());

    // Stats frames are admin, not ops: a third scrape moves only the
    // scrape counter, and every counter is monotone across scrapes.
    let third = parse_exposition(&c.stats().expect("third scrape")).expect("valid exposition");
    assert_eq!(third.counter_sum("zombied_op_"), 6);
    assert_eq!(third.counters["zombied_stats_scrapes"], 3);
    for (name, &v) in &second.counters {
        assert!(
            third.counters.get(name).copied().unwrap_or(0) >= v,
            "counter {name} went backwards"
        );
    }

    shutdown(&endpoint, handle);
}

/// Two fresh same-seed daemons, two same-seed replays: the deterministic
/// metric registries must serialize identically, byte for byte.
#[test]
fn replay_metrics_are_byte_identical_across_daemons() {
    let mut exports = Vec::new();
    for _ in 0..2 {
        let (endpoint, handle) = spawn_daemon(ModelConfig::new(8, 11));
        let cfg = ReplayConfig {
            endpoint: endpoint.clone(),
            requests: 2_000,
            clients: 3,
            seed: 42,
            window: 16,
            servers: 8,
        };
        let (summary, run) = run_replay(&cfg).expect("replay");
        assert_eq!(summary.requests, 2_000);
        assert!(summary.p50_decision_ns.is_some());
        assert!(summary.p99_decision_ns.unwrap() >= summary.p50_decision_ns.unwrap());
        let (p50, p99, p999) = (
            summary.rtt_p50_us.expect("rtt p50"),
            summary.rtt_p99_us.expect("rtt p99"),
            summary.rtt_p999_us.expect("rtt p999"),
        );
        assert!(0.0 < p50 && p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert_eq!(run.metrics.counter("replay.requests"), 2_000);
        exports.push(run.metrics.to_json().pretty());
        shutdown(&endpoint, handle);
    }
    assert_eq!(exports[0], exports[1], "same seed, same bytes");
}

/// Reads one response off a raw connection; a read that times out means
/// the server held back an answer it owed.
fn read_answer(raw: &mut impl Read, what: &str) -> ResponseBody {
    let payload = read_frame(raw)
        .unwrap_or_else(|e| panic!("{what}: no answer within {ANSWER_TIMEOUT:?}: {e}"))
        .unwrap_or_else(|| panic!("{what}: server closed"));
    decode_response(&payload).expect("typed answer").body
}

/// A lone request is answered without a second request behind it.
fn lone_request_is_answered(endpoint: &Endpoint) {
    let mut raw = raw_connect(endpoint);
    write_frame(&mut raw, &encode(&RackOp::GetLruZombie)).expect("send");
    let body = read_answer(&mut raw, "lone request");
    assert!(matches!(body, ResponseBody::LruZombie { .. }), "{body:?}");
}

/// Request A followed by part of request B's frame, for every cut of
/// B: the server must answer A while B is incomplete (a half frame in
/// its read buffer is not a reason to hold answers back), then answer B
/// once it is whole.
fn half_frame_does_not_hold_back_earlier_answers(endpoint: &Endpoint) {
    let mut raw = raw_connect(endpoint);
    let mut b = Vec::new();
    write_frame(
        &mut b,
        &encode(&RackOp::AsGetFreeMem {
            host: ServerId::new(1),
        }),
    )
    .unwrap();
    for cut in 1..b.len() {
        let mut burst = Vec::new();
        write_frame(&mut burst, &encode(&RackOp::GetLruZombie)).unwrap();
        burst.extend_from_slice(&b[..cut]);
        raw.write_all(&burst).expect("send A and part of B");
        let a = read_answer(&mut raw, &format!("A with B cut at {cut}"));
        assert!(matches!(a, ResponseBody::LruZombie { .. }), "{a:?}");
        raw.write_all(&b[cut..]).expect("finish B");
        let b_answer = read_answer(&mut raw, &format!("B cut at {cut}"));
        assert!(
            !matches!(b_answer, ResponseBody::Error(ErrorFrame::BadRequest { .. })),
            "B reassembled whole at cut {cut}: {b_answer:?}"
        );
    }
}

#[test]
fn lone_and_half_framed_requests_are_answered_over_tcp() {
    let (endpoint, handle) = spawn_daemon(ModelConfig::new(8, 11));
    lone_request_is_answered(&endpoint);
    half_frame_does_not_hold_back_earlier_answers(&endpoint);
    shutdown(&endpoint, handle);
}

#[cfg(unix)]
#[test]
fn lone_and_half_framed_requests_are_answered_over_unix() {
    let (endpoint, handle) = spawn_unix_daemon(ModelConfig::new(8, 11), "drain");
    lone_request_is_answered(&endpoint);
    half_frame_does_not_hold_back_earlier_answers(&endpoint);
    shutdown(&endpoint, handle);
}

/// A seeded stream over all seven ops.
fn op_stream(len: usize, servers: u32) -> Vec<RackOp> {
    let mut rng = DetRng::new(5);
    (0..len)
        .map(|_| {
            let host = ServerId::new(rng.below(servers as u64) as u32);
            match rng.below(7) {
                0 => RackOp::AllocSwap {
                    user: host,
                    mem_size: Bytes::mib(rng.range(64, 512)),
                },
                1 => RackOp::AllocExt {
                    user: host,
                    mem_size: Bytes::mib(rng.range(64, 256)),
                },
                2 => RackOp::GotoZombie {
                    host,
                    buffers: rng.range(1, 8),
                },
                3 => RackOp::Reclaim {
                    host,
                    nb_buffers: rng.range(1, 8),
                },
                4 => RackOp::AsGetFreeMem { host },
                5 => RackOp::GetLruZombie,
                _ => RackOp::UsReclaim {
                    user: host,
                    buff_ids: (0..rng.below(4))
                        .map(|_| BufferId::new(rng.below(64)))
                        .collect(),
                },
            }
        })
        .collect()
}

/// The encoded answers to `ops`, sent with `window` requests in flight
/// (`send`/`flush`/`recv`, as the replay harness does) or, for window 0,
/// one at a time through `call`.
fn encoded_answers(endpoint: &Endpoint, ops: &[RackOp], window: usize) -> Vec<Vec<u8>> {
    let mut c = ZlClient::connect(endpoint).expect("connect");
    if window == 0 {
        return ops
            .iter()
            .map(|op| encode_response(&c.call(op).expect("call")))
            .collect();
    }
    let mut answers = Vec::with_capacity(ops.len());
    let mut next = ops.iter();
    let mut in_flight = 0;
    while answers.len() < ops.len() {
        while in_flight < window {
            let Some(op) = next.next() else { break };
            c.send(op).expect("send");
            in_flight += 1;
        }
        c.flush().expect("flush");
        answers.push(encode_response(&c.recv().expect("recv")));
        in_flight -= 1;
    }
    answers
}

/// Pipelining changes when bytes move, never what the daemon answers:
/// a window-8 stream and the same ops one `call` at a time, each against
/// its own same-seed daemon, get byte-identical responses.
fn pipelined_answers_match_one_at_a_time(spawn: impl Fn(&str) -> (Endpoint, JoinHandle<()>)) {
    let ops = op_stream(600, 8);
    let mut runs = Vec::new();
    for (window, tag) in [(8, "pipelined"), (0, "serial")] {
        let (endpoint, handle) = spawn(tag);
        runs.push(encoded_answers(&endpoint, &ops, window));
        shutdown(&endpoint, handle);
    }
    assert_eq!(runs[0].len(), ops.len());
    assert!(
        runs[0] == runs[1],
        "pipelined answers differ from serial ones"
    );
}

#[test]
fn pipelined_answers_match_one_at_a_time_over_tcp() {
    pipelined_answers_match_one_at_a_time(|_| spawn_daemon(ModelConfig::new(8, 11)));
}

#[cfg(unix)]
#[test]
fn pipelined_answers_match_one_at_a_time_over_unix() {
    pipelined_answers_match_one_at_a_time(|tag| {
        spawn_unix_daemon(ModelConfig::new(8, 11), &format!("window-{tag}"))
    });
}

/// `zombied.connections_open` counts live connections, the scraping one
/// included, and falls back once clients leave, also when a connection
/// ends in a protocol error.
#[test]
fn connections_open_gauge_tracks_live_connections() {
    use zombieland_obs::telemetry::parse_exposition;

    let (endpoint, handle) = spawn_daemon(ModelConfig::new(8, 11));
    let mut scraper = ZlClient::connect(&endpoint).expect("connect");
    let open = |c: &mut ZlClient| {
        let text = c.stats().expect("scrape");
        parse_exposition(&text).expect("valid exposition").gauges["zombied_connections_open"]
    };
    assert_eq!(open(&mut scraper), 1.0);

    let mut clients: Vec<ZlClient> = (0..3)
        .map(|_| ZlClient::connect(&endpoint).expect("connect"))
        .collect();
    for c in &mut clients {
        // An answered call proves the connection's thread is running.
        c.call(&RackOp::GetLruZombie).expect("call");
    }
    assert_eq!(open(&mut scraper), 4.0);

    // A hostile frame header ends its connection in an error.
    let mut hostile = raw_connect(&endpoint);
    hostile
        .write_all(&u32::MAX.to_le_bytes())
        .expect("send header");
    let mut rest = Vec::new();
    let _ = hostile.read_to_end(&mut rest);
    drop(clients);

    // The server notices the hang-ups on its own threads: poll for up
    // to ANSWER_TIMEOUT.
    let mut now_open = open(&mut scraper);
    for _ in 0..500 {
        if now_open == 1.0 {
            break;
        }
        assert!(now_open > 1.0, "the scraping connection is open");
        std::thread::sleep(ANSWER_TIMEOUT / 500);
        now_open = open(&mut scraper);
    }
    assert_eq!(now_open, 1.0, "only the scraping connection is left");
    shutdown(&endpoint, handle);
}
