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

/// Writes one frame. Does not flush — callers batch then flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

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

/// Reads one frame. `Ok(None)` on a clean end-of-stream (the peer closed
/// between frames); an EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn whole_frame_test_needs_the_header_and_every_payload_byte() {
        let mut frame = Vec::new();
        write_frame(&mut frame, b"abc").unwrap();
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
    fn oversized_declaration_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_inside_header_or_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        for cut in 1..buf.len() {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
    }
}
