//! The thin client: one framed request out, one framed response back.
//!
//! [`ZlClient::call`] is the simple path (`zlctl` uses it). The replay
//! harness uses the split [`ZlClient::send`] / [`ZlClient::recv`] pair to
//! keep a window of requests in flight — the server answers in order, so
//! positional matching is enough.
//!
//! Like the server, the client writes on drain: queued requests go out
//! when the next read could block, not on every [`ZlClient::flush`].

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

use zombieland_core::codec::{decode_response, encode_into, CodecError, RackResponse};
use zombieland_core::protocol::RackOp;

use crate::framing::{append_frame, write_queued, FrameReader, SHUTDOWN, STATS};
use crate::Endpoint;

/// Client-side failures. A typed [`ErrorFrame`] answer from the server
/// is *not* an error here — it is a well-formed [`RackResponse`].
///
/// [`ErrorFrame`]: zombieland_core::codec::ErrorFrame
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not decode as a response.
    Codec(CodecError),
    /// The server closed the connection with a response still owed.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Codec(e) => write!(f, "malformed response: {e}"),
            ClientError::Closed => write!(f, "server closed mid-conversation"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
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

/// A connected control-plane client.
pub struct ZlClient {
    reader: FrameReader<Stream>,
    writer: Stream,
    /// Requests queued for the next write, reused across writes.
    out: Vec<u8>,
}

impl ZlClient {
    /// Connects to a daemon.
    pub fn connect(endpoint: &Endpoint) -> io::Result<ZlClient> {
        let stream = match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        };
        Ok(ZlClient {
            reader: FrameReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
        })
    }

    /// Queues one request. Buffered: it goes out by the next read at the
    /// latest ([`ZlClient::flush`] asks for it sooner; [`ZlClient::call`]
    /// is send + recv).
    pub fn send(&mut self, op: &RackOp) -> Result<(), ClientError> {
        append_frame(&mut self.out, |b| encode_into(op, b));
        Ok(())
    }

    /// Pushes queued requests onto the wire, unless a whole response is
    /// already buffered: then the write is deferred, and the requests
    /// ride out with whatever is queued by the time the buffered answers
    /// run dry. Every read path ([`ZlClient::recv`], [`ZlClient::stats`],
    /// [`ZlClient::shutdown_server`]) writes queued requests before it
    /// can block, so the client never waits on an answer to a request it
    /// has not sent. Dropping the client writes anything still queued.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if !self.reader.has_whole_frame() {
            write_queued(&mut self.writer, &mut self.out)?;
        }
        Ok(())
    }

    /// Reads the next in-order frame, flushing queued requests first if
    /// the read could block.
    fn read_next(&mut self) -> Result<&[u8], ClientError> {
        self.flush()?;
        self.reader.next_frame()?.ok_or(ClientError::Closed)
    }

    /// Reads the next in-order response.
    pub fn recv(&mut self) -> Result<RackResponse, ClientError> {
        let payload = self.read_next()?;
        decode_response(payload).map_err(ClientError::Codec)
    }

    /// One request, one response.
    pub fn call(&mut self, op: &RackOp) -> Result<RackResponse, ClientError> {
        self.send(op)?;
        self.recv()
    }

    /// Scrapes the daemon's telemetry: one `[STATS]` admin frame out,
    /// one frame of Prometheus-style exposition text back.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        append_frame(&mut self.out, |b| b.push(STATS));
        let payload = self.read_next()?;
        std::str::from_utf8(payload)
            .map(str::to_owned)
            .map_err(|_| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stats payload is not UTF-8",
                ))
            })
    }

    /// Asks the daemon to shut down; resolves once it acknowledges.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        append_frame(&mut self.out, |b| b.push(SHUTDOWN));
        if self.read_next()? == [SHUTDOWN] {
            Ok(())
        } else {
            Err(ClientError::Closed)
        }
    }
}

impl Drop for ZlClient {
    fn drop(&mut self) {
        let _ = write_queued(&mut self.writer, &mut self.out);
    }
}
