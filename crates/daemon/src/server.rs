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

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use zombieland_core::codec::{decode, encode_response, ErrorFrame, RackResponse, ResponseBody};
use zombieland_core::protocol::RackOp;
use zombieland_obs::telemetry::{self, Telemetry, TelemetryHandle};
use zombieland_simcore::SimDuration;

use crate::framing::{has_whole_frame, read_frame, write_frame, SHUTDOWN, STATS};
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

/// The telemetry counter for one request op. Static names keep the
/// registry allocation-free; the spellings mirror
/// [`RackOp::wire_name`] in lower-case.
fn op_counter(op: &RackOp) -> &'static str {
    match op {
        RackOp::GotoZombie { .. } => "zombied.op.gs_goto_zombie",
        RackOp::Reclaim { .. } => "zombied.op.gs_reclaim",
        RackOp::UsReclaim { .. } => "zombied.op.us_reclaim",
        RackOp::AllocExt { .. } => "zombied.op.gs_alloc_ext",
        RackOp::AllocSwap { .. } => "zombied.op.gs_alloc_swap",
        RackOp::AsGetFreeMem { .. } => "zombied.op.as_get_free_mem",
        RackOp::GetLruZombie => "zombied.op.gs_get_lru_zombie",
    }
}

/// The telemetry counter for one response tag.
fn resp_counter(body: &ResponseBody) -> &'static str {
    match body {
        ResponseBody::Lent { .. } => "zombied.resp.lent",
        ResponseBody::Reclaimed { .. } => "zombied.resp.reclaimed",
        ResponseBody::Revoked { .. } => "zombied.resp.revoked",
        ResponseBody::Granted { .. } => "zombied.resp.granted",
        ResponseBody::LruZombie { .. } => "zombied.resp.lru_zombie",
        ResponseBody::Error(_) => "zombied.resp.error",
    }
}

/// The telemetry counter for one typed error class.
fn err_counter(e: &ErrorFrame) -> &'static str {
    match e {
        ErrorFrame::UnknownHost(_) => "zombied.err.unknown_host",
        ErrorFrame::UnknownBuffer(_) => "zombied.err.unknown_buffer",
        ErrorFrame::AdmissionDenied { .. } => "zombied.err.admission_denied",
        ErrorFrame::NotTheUser { .. } => "zombied.err.not_the_user",
        ErrorFrame::NoCapacity => "zombied.err.no_capacity",
        ErrorFrame::BadRequest { .. } => "zombied.err.bad_request",
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

fn serve_conn(
    stream: Stream,
    model: &Mutex<ClusterModel>,
    stop: &AtomicBool,
    local: &Endpoint,
    telemetry: &TelemetryHandle,
    connections_open: &AtomicUsize,
) -> io::Result<()> {
    let _open = OpenConnection::count(connections_open);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    telemetry.counter_add("zombied.connections", 1);
    while let Some(payload) = read_frame(&mut reader)? {
        if payload == [SHUTDOWN] {
            write_frame(&mut writer, &[SHUTDOWN])?;
            writer.flush()?;
            stop.store(true, Ordering::SeqCst);
            poke(local);
            return Ok(());
        }
        if payload == [STATS] {
            telemetry.counter_add("zombied.stats_scrapes", 1);
            let text = scrape_exposition(model, telemetry.telemetry(), connections_open);
            write_frame(&mut writer, text.as_bytes())?;
        } else {
            let response = answer(&payload, model, telemetry);
            write_frame(&mut writer, &encode_response(&response))?;
        }
        // Write on drain: hold the answers while another whole request
        // is already buffered, so a pipelined burst costs one write.
        if !has_whole_frame(reader.buffer()) {
            writer.flush()?;
        }
    }
    Ok(())
}

/// Decodes and applies one request frame, recording its telemetry. An
/// undecodable payload is answered with a typed `BadRequest`.
fn answer(
    payload: &[u8],
    model: &Mutex<ClusterModel>,
    telemetry: &TelemetryHandle,
) -> RackResponse {
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
    // One shard lock for the whole request's worth of samples; the
    // model lock is already released.
    telemetry.with(|reg| {
        match &op {
            Some(op) => reg.counter_add(op_counter(op), 1),
            None => reg.counter_add("zombied.bad_frames", 1),
        }
        reg.counter_add(resp_counter(&response.body), 1);
        if let ResponseBody::Error(e) = &response.body {
            reg.counter_add(err_counter(e), 1);
        }
        reg.hist_record("zombied.decision_ns", response.decision.as_nanos());
    });
    response
}
