//! Length-prefixed framing over any byte stream.
//!
//! One frame = a little-endian `u32` payload length followed by that many
//! payload bytes. The length is capped at [`MAX_FRAME`]: a peer declaring
//! more is a protocol error, surfaced before any allocation. Frames carry
//! either a codec message ([`zombieland_core::codec`]) or the one-byte
//! admin payload [`SHUTDOWN`].

use std::io::{self, Read, Write};

/// Largest payload a frame may carry. Generous against the codec's own
/// list limits (a maximal response is well under 2 MiB), tight against a
/// hostile 4 GiB declaration.
pub const MAX_FRAME: usize = 4 << 20;

/// The admin shutdown payload: one byte no codec message starts with
/// (request opcodes are 1–7, response tags 0x81–0x86).
pub const SHUTDOWN: u8 = 0xFF;

/// The admin stats payload: the daemon answers a one-byte `[STATS]`
/// frame with one frame of Prometheus-style exposition text (UTF-8).
pub const STATS: u8 = 0xFE;

/// Whether `buf` starts with at least one whole frame: a complete
/// header and every payload byte it declares. Both ends of a connection
/// write out their buffered frames only when their read buffer fails
/// this test, i.e. right before a read that may block. A trailing half
/// frame does not count, so a peer that stalls mid-frame still gets the
/// answers to the requests it sent whole.
pub fn has_whole_frame(buf: &[u8]) -> bool {
    match buf.first_chunk::<4>() {
        Some(header) => buf.len() - 4 >= u32::from_le_bytes(*header) as usize,
        None => false,
    }
}

/// Appends one frame to `out`: `fill` appends the payload, then the
/// header is patched to the payload's length. Encoding straight into a
/// connection's reused output buffer costs no allocation per frame.
pub(crate) fn append_frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    fill(out);
    let len = out.len() - at - 4;
    debug_assert!(len <= MAX_FRAME);
    let len = u32::try_from(len).expect("a frame's payload fits its u32 header");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes out the frames queued in `out` and empties it. A buffer that
/// a large frame grew past [`READ_CHUNK`] shrinks back to it, so a
/// connection keeps only its steady-state bytes between bursts.
pub(crate) fn write_queued(w: &mut impl Write, out: &mut Vec<u8>) -> io::Result<()> {
    w.write_all(out)?;
    out.clear();
    out.shrink_to(READ_CHUNK);
    Ok(())
}

/// The first read buffer a [`FrameReader`] allocates, its smallest
/// growth step, and the size both read and write buffers return to once
/// a large frame has passed.
const READ_CHUNK: usize = 8 << 10;

/// Reads frames off a byte stream into one reused buffer and hands out
/// their payloads borrowed from it, so a steady stream of frames costs
/// no allocation. Both ends of a daemon connection read through it.
///
/// The buffer grows only when a frame does not fit, and then to at
/// most twice the bytes that actually arrived (never to the declared
/// length up front), so a peer declaring a large frame and sending
/// nothing costs nothing. A declaration beyond [`MAX_FRAME`] is an
/// `InvalidData` error before any growth. Once every byte read is
/// consumed, a grown buffer shrinks back to 8 KiB before the
/// next read, so one large frame is not held for the connection's life.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Start of the first unread byte in `buf`.
    start: usize,
    /// End of the bytes read so far.
    filled: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
            filled: 0,
        }
    }

    /// Whether the bytes already read hold at least one whole frame (see
    /// [`has_whole_frame`]): the next [`FrameReader::next_frame`] will
    /// not touch the stream.
    pub fn has_whole_frame(&self) -> bool {
        has_whole_frame(&self.buf[self.start..self.filled])
    }

    /// Reads the next frame and returns its payload. `Ok(None)` on a
    /// clean end-of-stream (the peer closed between frames); an EOF
    /// mid-frame is an error.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        loop {
            let unread = &self.buf[self.start..self.filled];
            let need = match unread.first_chunk::<4>() {
                Some(header) => {
                    let len = u32::from_le_bytes(*header) as usize;
                    if len > MAX_FRAME {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("frame of {len} bytes exceeds cap {MAX_FRAME}"),
                        ));
                    }
                    if unread.len() - 4 >= len {
                        let at = self.start + 4;
                        self.start = at + len;
                        return Ok(Some(&self.buf[at..at + len]));
                    }
                    4 + len
                }
                None => 4,
            };
            if !self.fill(need)? {
                return match self.filled - self.start {
                    0 => Ok(None),
                    _ => Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame",
                    )),
                };
            }
        }
    }

    /// Reads more bytes toward a frame of `need` bytes in all; `false`
    /// at end-of-stream. Moves the unread bytes to the front first (or,
    /// with none left, shrinks a grown buffer back), and grows the
    /// buffer only when they fill it.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
        if self.filled == 0 && self.buf.len() > READ_CHUNK {
            self.buf.truncate(READ_CHUNK);
            self.buf.shrink_to_fit();
        }
        if self.filled == self.buf.len() {
            let grown = (2 * self.buf.len()).min(need).max(READ_CHUNK);
            self.buf.resize(grown, 0);
        }
        loop {
            match self.inner.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.filled += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Reads every frame of `bytes`, as owned payloads.
    fn read_all(bytes: &[u8]) -> io::Result<Vec<Vec<u8>>> {
        let mut r = FrameReader::new(bytes);
        let mut frames = Vec::new();
        while let Some(payload) = r.next_frame()? {
            frames.push(payload.to_vec());
        }
        Ok(frames)
    }

    /// Appends one frame carrying `payload`.
    fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
        append_frame(buf, |out| out.extend_from_slice(payload));
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"hello");
        push_frame(&mut buf, b"");
        push_frame(&mut buf, b"appended");
        assert_eq!(
            read_all(&buf).unwrap(),
            [&b"hello"[..], b"", b"appended"].map(<[u8]>::to_vec)
        );
    }

    #[test]
    fn append_frame_writes_a_length_header_then_the_payload() {
        let mut appended = vec![7];
        push_frame(&mut appended, b"payload");
        assert_eq!(appended, b"\x07\x07\0\0\0payload");
    }

    /// A stream that hands out at most `step` bytes per read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_larger_than_the_read_chunk_survive_any_read_split() {
        let big: Vec<u8> = (0..3 * READ_CHUNK + 5).map(|i| i as u8).collect();
        let mut stream = Vec::new();
        push_frame(&mut stream, b"small");
        push_frame(&mut stream, &big);
        push_frame(&mut stream, b"after");
        for step in [1, 3, 4096, READ_CHUNK + 1, usize::MAX] {
            let mut r = FrameReader::new(Trickle {
                bytes: &stream,
                step,
            });
            assert_eq!(r.next_frame().unwrap(), Some(&b"small"[..]), "step {step}");
            assert_eq!(r.next_frame().unwrap(), Some(&big[..]), "step {step}");
            assert!(
                r.buf.len() <= 2 * (big.len() + 4),
                "step {step}: buffer grew to {}",
                r.buf.len()
            );
            assert_eq!(r.next_frame().unwrap(), Some(&b"after"[..]), "step {step}");
            assert_eq!(r.next_frame().unwrap(), None, "step {step}");
        }
    }

    /// A stream whose reads each end at a segment's end.
    struct Segments(VecDeque<Vec<u8>>);

    impl Read for Segments {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(seg) = self.0.front_mut() else {
                return Ok(0);
            };
            let n = seg.len().min(buf.len());
            buf[..n].copy_from_slice(&seg[..n]);
            seg.drain(..n);
            if seg.is_empty() {
                self.0.pop_front();
            }
            Ok(n)
        }
    }

    #[test]
    fn buffers_shrink_back_once_a_large_frame_has_passed() {
        let big = vec![5; 3 * READ_CHUNK];
        let (mut first, mut second) = (Vec::new(), Vec::new());
        push_frame(&mut first, &big);
        push_frame(&mut second, b"small");
        let mut r = FrameReader::new(Segments(VecDeque::from([first, second])));
        assert_eq!(r.next_frame().unwrap(), Some(&big[..]));
        assert!(r.buf.len() > READ_CHUNK, "grew to hold the frame");
        assert_eq!(r.next_frame().unwrap(), Some(&b"small"[..]));
        assert_eq!(r.buf.len(), READ_CHUNK, "shrank before the next read");
        assert_eq!(r.buf.capacity(), READ_CHUNK);

        let mut out = Vec::new();
        push_frame(&mut out, &big);
        let mut wire = Vec::new();
        write_queued(&mut wire, &mut out).unwrap();
        assert_eq!(wire.len(), 4 + big.len());
        assert!(out.is_empty());
        assert_eq!(out.capacity(), READ_CHUNK, "shrank after the write");
    }

    #[test]
    fn whole_frame_test_needs_the_header_and_every_payload_byte() {
        let mut frame = Vec::new();
        push_frame(&mut frame, b"abc");
        assert!(!has_whole_frame(&[]), "empty buffer");
        assert!(!has_whole_frame(&frame[..3]), "3 bytes: no whole header");
        assert!(has_whole_frame(&0u32.to_le_bytes()), "zero-length frame");
        assert!(
            !has_whole_frame(&frame[..frame.len() - 1]),
            "one byte short"
        );
        assert!(has_whole_frame(&frame), "exact length");
        frame.push(0);
        assert!(has_whole_frame(&frame), "trailing extra byte");
    }

    #[test]
    fn reader_reports_the_whole_frames_it_holds() {
        let mut stream = Vec::new();
        push_frame(&mut stream, b"one");
        push_frame(&mut stream, b"two");
        stream.extend_from_slice(&9u32.to_le_bytes()); // Half a third frame.
        let mut r = FrameReader::new(&stream[..]);
        assert!(!r.has_whole_frame(), "nothing read yet");
        assert_eq!(r.next_frame().unwrap(), Some(&b"one"[..]));
        assert!(r.has_whole_frame(), "the second frame is buffered");
        assert_eq!(r.next_frame().unwrap(), Some(&b"two"[..]));
        assert!(!r.has_whole_frame(), "only half a frame is left");
    }

    #[test]
    fn oversized_declaration_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = FrameReader::new(&buf[..]);
        let err = r.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(r.buf.len() <= READ_CHUNK, "grew to {}", r.buf.len());
    }

    #[test]
    fn large_declaration_grows_only_with_the_bytes_that_arrive() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes());
        buf.extend_from_slice(&[0; 100]);
        let err = read_all(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut r = FrameReader::new(&buf[..]);
        let _ = r.next_frame();
        assert_eq!(r.buf.len(), READ_CHUNK, "no growth for 104 bytes");
    }

    #[test]
    fn eof_inside_header_or_payload_is_an_error() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"abcdef");
        for cut in 1..buf.len() {
            let err = read_all(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        assert_eq!(read_all(&[]).unwrap(), Vec::<Vec<u8>>::new());
    }
}
