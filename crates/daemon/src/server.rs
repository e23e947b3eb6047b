//! The `zombied` server: thread-per-connection over TCP or Unix sockets.
//!
//! Each connection is a sequence of framed requests ([`crate::framing`]);
//! each request frame holds one encoded [`RackOp`] and is answered with
//! one encoded [`RackResponse`] frame, in order — so clients may pipeline
//! a window of requests and read answers back positionally. A frame whose
//! payload fails to decode is answered with a typed
//! [`ErrorFrame::BadRequest`] frame (the connection survives; framing
//! kept us in sync). The one-byte admin payload
//! [`framing::SHUTDOWN`](crate::framing::SHUTDOWN) is acknowledged with
//! the same byte and stops the whole daemon once every in-flight request
//! has been answered; the one-byte
//! [`framing::STATS`](crate::framing::STATS) payload is answered with
//! one frame of Prometheus-style exposition text (merged from the
//! per-connection telemetry shards, with the model's live gauges and the
//! open-connection count overlaid).
//!
//! A connection writes its answers out only when it is about to wait:
//! after each request it flushes only if the read buffer holds no whole
//! frame ([`framing::has_whole_frame`](crate::framing::has_whole_frame)).
//! A pipelined burst of requests thus costs one `write`, not one per
//! answer, while a lone request, or one followed by half a frame, is
//! answered at once.
//!
//! All state lives in one [`ClusterModel`] behind a mutex: the controller
//! is intentionally a single serialization point (the paper's GS is one
//! process too), and each op holds the lock only for its in-memory
//! database work.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use zombieland_core::codec::{
    decode, encode_response_into, ErrorFrame, RackResponse, ResponseBody,
};
use zombieland_core::protocol::RackOp;
use zombieland_obs::metrics::Histogram;
use zombieland_obs::telemetry::{self, Telemetry, TelemetryHandle};
use zombieland_simcore::SimDuration;

use crate::framing::{append_frame, write_queued, FrameReader, SHUTDOWN, STATS};
use crate::model::ClusterModel;
use crate::Endpoint;

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound daemon, ready to serve.
pub struct Daemon {
    listener: Listener,
    local: Endpoint,
    model: Arc<Mutex<ClusterModel>>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<Telemetry>,
    connections_open: Arc<AtomicUsize>,
}

impl Daemon {
    /// Binds to `endpoint`. For `tcp:HOST:0` the kernel picks the port;
    /// [`Daemon::local_endpoint`] reports the resolved address. A Unix
    /// socket path must not already exist.
    pub fn bind(endpoint: &Endpoint, model: ClusterModel) -> io::Result<Daemon> {
        let (listener, local) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let local = Endpoint::Tcp(l.local_addr()?.to_string());
                (Listener::Tcp(l), local)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l), Endpoint::Unix(path.clone()))
            }
        };
        Ok(Daemon {
            listener,
            local,
            model: Arc::new(Mutex::new(model)),
            stop: Arc::new(AtomicBool::new(false)),
            telemetry: Arc::new(Telemetry::new(telemetry::DEFAULT_SHARDS)),
            connections_open: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The resolved listen endpoint (port filled in for `tcp:…:0`).
    pub fn local_endpoint(&self) -> Endpoint {
        self.local.clone()
    }

    /// Serves until a client sends the admin shutdown frame. Removes a
    /// Unix socket file on the way out.
    pub fn run(self) -> io::Result<()> {
        loop {
            let stream = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    Stream::Tcp(s)
                }),
                #[cfg(unix)]
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                // A failed accept is not fatal to the daemon.
                Err(_) => continue,
            };
            let model = Arc::clone(&self.model);
            let stop = Arc::clone(&self.stop);
            let local = self.local.clone();
            let telemetry = self.telemetry.handle();
            let open = Arc::clone(&self.connections_open);
            std::thread::spawn(move || {
                let _ = serve_conn(stream, &model, &stop, &local, &telemetry, &open);
            });
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.local {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Counts one live connection thread for the `zombied.connections_open`
/// gauge; dropping it uncounts the connection on every exit path, a
/// transport error or a panic included.
struct OpenConnection<'a>(&'a AtomicUsize);

impl<'a> OpenConnection<'a> {
    fn count(open: &'a AtomicUsize) -> Self {
        open.fetch_add(1, Ordering::SeqCst);
        OpenConnection(open)
    }
}

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Wakes a daemon blocked in `accept` so it can observe its stop flag.
fn poke(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let _ = TcpStream::connect(addr.as_str());
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
    }
}

/// Telemetry counter names for the request ops, indexed by [`op_kind`].
/// Static names keep the registry allocation-free; the spellings mirror
/// [`RackOp::wire_name`] in lower-case.
const OP_COUNTERS: [&str; 7] = [
    "zombied.op.gs_goto_zombie",
    "zombied.op.gs_reclaim",
    "zombied.op.us_reclaim",
    "zombied.op.gs_alloc_ext",
    "zombied.op.gs_alloc_swap",
    "zombied.op.as_get_free_mem",
    "zombied.op.gs_get_lru_zombie",
];

fn op_kind(op: &RackOp) -> usize {
    match op {
        RackOp::GotoZombie { .. } => 0,
        RackOp::Reclaim { .. } => 1,
        RackOp::UsReclaim { .. } => 2,
        RackOp::AllocExt { .. } => 3,
        RackOp::AllocSwap { .. } => 4,
        RackOp::AsGetFreeMem { .. } => 5,
        RackOp::GetLruZombie => 6,
    }
}

/// Telemetry counter names for the response tags, indexed by
/// [`resp_kind`].
const RESP_COUNTERS: [&str; 6] = [
    "zombied.resp.lent",
    "zombied.resp.reclaimed",
    "zombied.resp.revoked",
    "zombied.resp.granted",
    "zombied.resp.lru_zombie",
    "zombied.resp.error",
];

fn resp_kind(body: &ResponseBody) -> usize {
    match body {
        ResponseBody::Lent { .. } => 0,
        ResponseBody::Reclaimed { .. } => 1,
        ResponseBody::Revoked { .. } => 2,
        ResponseBody::Granted { .. } => 3,
        ResponseBody::LruZombie { .. } => 4,
        ResponseBody::Error(_) => 5,
    }
}

/// Telemetry counter names for the typed error classes, indexed by
/// [`err_kind`].
const ERR_COUNTERS: [&str; 6] = [
    "zombied.err.unknown_host",
    "zombied.err.unknown_buffer",
    "zombied.err.admission_denied",
    "zombied.err.not_the_user",
    "zombied.err.no_capacity",
    "zombied.err.bad_request",
];

fn err_kind(e: &ErrorFrame) -> usize {
    match e {
        ErrorFrame::UnknownHost(_) => 0,
        ErrorFrame::UnknownBuffer(_) => 1,
        ErrorFrame::AdmissionDenied { .. } => 2,
        ErrorFrame::NotTheUser { .. } => 3,
        ErrorFrame::NoCapacity => 4,
        ErrorFrame::BadRequest { .. } => 5,
    }
}

/// One connection's request telemetry since it last folded into its
/// shard: counts in fixed arrays indexed by kind, so recording a request
/// takes no lock and no name lookup. The connection folds the tally
/// into its shard, under one lock, before every write of answers and
/// before a STATS or SHUTDOWN answer, so a client holding an answer
/// sees it counted; dropping the tally folds it too, so a connection
/// that ends in an I/O error loses no count.
struct Tally<'a> {
    telemetry: &'a TelemetryHandle,
    ops: [u64; OP_COUNTERS.len()],
    bad_frames: u64,
    resps: [u64; RESP_COUNTERS.len()],
    errs: [u64; ERR_COUNTERS.len()],
    decision_ns: Histogram,
}

impl<'a> Tally<'a> {
    fn new(telemetry: &'a TelemetryHandle) -> Self {
        Tally {
            telemetry,
            ops: [0; OP_COUNTERS.len()],
            bad_frames: 0,
            resps: [0; RESP_COUNTERS.len()],
            errs: [0; ERR_COUNTERS.len()],
            decision_ns: Histogram::default(),
        }
    }

    /// Counts one answered request (`op` is `None` for an undecodable
    /// frame).
    fn record(&mut self, op: Option<&RackOp>, response: &RackResponse) {
        match op {
            Some(op) => self.ops[op_kind(op)] += 1,
            None => self.bad_frames += 1,
        }
        self.resps[resp_kind(&response.body)] += 1;
        if let ResponseBody::Error(e) = &response.body {
            self.errs[err_kind(e)] += 1;
        }
        self.decision_ns.record(response.decision.as_nanos());
    }

    /// Adds the tally to the shard and starts it afresh. Every request
    /// records one decision sample, so an empty histogram means there is
    /// nothing to fold and the shard is not locked.
    fn fold(&mut self) {
        if self.decision_ns.count == 0 {
            return;
        }
        self.telemetry.with(|reg| {
            let mut add = |name: &'static str, count: &mut u64| {
                if *count > 0 {
                    reg.counter_add(name, std::mem::take(count));
                }
            };
            let named = (OP_COUNTERS.iter().zip(&mut self.ops))
                .chain(RESP_COUNTERS.iter().zip(&mut self.resps))
                .chain(ERR_COUNTERS.iter().zip(&mut self.errs));
            for (&name, count) in named {
                add(name, count);
            }
            add("zombied.bad_frames", &mut self.bad_frames);
            reg.hist_merge("zombied.decision_ns", &self.decision_ns);
        });
        self.decision_ns = Histogram::default();
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        // A panic in a drop during unwinding would abort the daemon, so
        // a connection unwinding from a panic leaves its tally unfolded.
        if !std::thread::panicking() {
            self.fold();
        }
    }
}

/// Answers a `[STATS]` admin frame: merge the telemetry shards, overlay
/// the model's live state (under the model lock, briefly) and the open
/// connections (the scraping one included), render.
fn scrape_exposition(
    model: &Mutex<ClusterModel>,
    telemetry: &Arc<Telemetry>,
    connections_open: &AtomicUsize,
) -> String {
    let mut merged = telemetry.scrape();
    model.lock().expect("model lock").observe_into(&mut merged);
    merged.gauge_set(
        "zombied.connections_open",
        connections_open.load(Ordering::SeqCst) as u64,
    );
    telemetry::expose(&merged)
}

/// Answers are written out once this many bytes are queued, even while
/// more whole requests are buffered (a `BufWriter`'s default capacity).
const WRITE_AT: usize = 8 << 10;

fn serve_conn(
    stream: Stream,
    model: &Mutex<ClusterModel>,
    stop: &AtomicBool,
    local: &Endpoint,
    telemetry: &TelemetryHandle,
    connections_open: &AtomicUsize,
) -> io::Result<()> {
    let _open = OpenConnection::count(connections_open);
    let mut reader = FrameReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Answers queued for the next write, reused across writes.
    let mut out = Vec::new();
    let mut tally = Tally::new(telemetry);
    telemetry.counter_add("zombied.connections", 1);
    while let Some(payload) = reader.next_frame()? {
        let shutdown = payload == [SHUTDOWN];
        if shutdown {
            append_frame(&mut out, |b| b.push(SHUTDOWN));
        } else if payload == [STATS] {
            telemetry.counter_add("zombied.stats_scrapes", 1);
            tally.fold();
            let text = scrape_exposition(model, telemetry.telemetry(), connections_open);
            append_frame(&mut out, |b| b.extend_from_slice(text.as_bytes()));
        } else {
            let response = answer(payload, model, &mut tally);
            append_frame(&mut out, |b| encode_response_into(&response, b));
        }
        // Write on drain: hold the answers while another whole request
        // is already buffered, so a pipelined burst costs one write.
        // The tally folds first, so every answer written is counted.
        if shutdown || !reader.has_whole_frame() || out.len() >= WRITE_AT {
            tally.fold();
            write_queued(&mut writer, &mut out)?;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            poke(local);
            return Ok(());
        }
    }
    Ok(())
}

/// Decodes and applies one request frame, tallying its telemetry. An
/// undecodable payload is answered with a typed `BadRequest`.
fn answer(payload: &[u8], model: &Mutex<ClusterModel>, tally: &mut Tally) -> RackResponse {
    let (op, response) = match decode(payload) {
        Ok(op) => {
            let response = model.lock().expect("model lock").apply(&op);
            (Some(op), response)
        }
        Err(e) => (
            None,
            RackResponse {
                decision: SimDuration::ZERO,
                body: ResponseBody::Error(ErrorFrame::bad_request(e)),
            },
        ),
    };
    tally.record(op.as_ref(), &response);
    response
}
