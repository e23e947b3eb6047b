//! Wire encoding of the control-plane protocol.
//!
//! The RPC layer moves bytes; this module defines what those bytes are. A
//! small, versioned, little-endian TLV format — one opcode byte, a u16
//! version, then the operation's fields; variable-length id lists carry a
//! u32 count. Nothing here allocates on the decode hot path beyond the
//! output vectors, and every decoder is total: corrupt input yields
//! [`CodecError`], never a panic.
//!
//! Both directions have wire form: requests are [`RackOp`]s
//! ([`encode`]/[`decode`]), responses are [`RackResponse`]s
//! ([`encode_response`]/[`decode_response`]) — buffer-descriptor lists,
//! LRU-zombie answers, reclaim plans, and typed error frames, each
//! stamped with the controller's modeled decision time so clients can
//! account latency without trusting wall clocks. [`encode_into`] and
//! [`encode_response_into`] append to a caller's reused buffer, so a
//! serving loop encodes without allocating; [`encode`] and
//! [`encode_response`] wrap them.
//!
//! Decoders enforce sanity limits ([`MAX_MEM_SIZE`], [`MAX_NB_BUFFERS`],
//! [`MAX_LIST_LEN`]): a frame declaring an absurd allocation size or id
//! count is rejected with [`CodecError::Oversized`] before any cost model
//! or allocator sees the value.

use zombieland_mem::buffer::BufferId;
use zombieland_simcore::{Bytes, SimDuration};

use crate::protocol::RackOp;
use crate::server::ServerId;

/// Protocol version carried in every message.
pub const WIRE_VERSION: u16 = 1;

/// Largest allocation size a wire request may carry (64 TiB — far beyond
/// any rack's pool, but finite, so `buffers_for(mem_size)` stays sane).
pub const MAX_MEM_SIZE: Bytes = Bytes::new(64 << 40);

/// Largest buffer count a lend/reclaim request may carry (2^20 buffers of
/// 64 MiB each = 64 TiB, matching [`MAX_MEM_SIZE`]).
pub const MAX_NB_BUFFERS: u64 = 1 << 20;

/// Longest id list any message may carry (keeps a frame under the
/// transport's frame-size cap and bounds decode-side allocation).
pub const MAX_LIST_LEN: u32 = 1 << 16;

/// Opcodes, one per §4.3–4.4 function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum Opcode {
    GotoZombie = 1,
    Reclaim = 2,
    UsReclaim = 3,
    AllocExt = 4,
    AllocSwap = 5,
    AsGetFreeMem = 6,
    GetLruZombie = 7,
}

impl Opcode {
    fn from_byte(b: u8) -> Option<Opcode> {
        match b {
            1 => Some(Opcode::GotoZombie),
            2 => Some(Opcode::Reclaim),
            3 => Some(Opcode::UsReclaim),
            4 => Some(Opcode::AllocExt),
            5 => Some(Opcode::AllocSwap),
            6 => Some(Opcode::AsGetFreeMem),
            7 => Some(Opcode::GetLruZombie),
            _ => None,
        }
    }
}

/// Decode failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the fields require.
    Truncated,
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// A protocol version this peer does not speak.
    VersionMismatch(u16),
    /// Bytes left over after the last field.
    TrailingBytes(usize),
    /// A size or count field beyond the protocol's sanity limits.
    Oversized {
        /// Which field tripped the limit.
        field: &'static str,
        /// The declared value.
        got: u64,
        /// The limit it exceeded.
        max: u64,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#x}"),
            CodecError::VersionMismatch(v) => write!(f, "wire version {v} unsupported"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::Oversized { field, got, max } => {
                write!(f, "{field} = {got} exceeds protocol limit {max}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn finish(self) -> Result<(), CodecError> {
        let rest = self.buf.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(rest))
        }
    }
}

fn put_header(out: &mut Vec<u8>, op: Opcode) {
    out.push(op as u8);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
}

fn bounded(field: &'static str, got: u64, max: u64) -> Result<u64, CodecError> {
    if got > max {
        Err(CodecError::Oversized { field, got, max })
    } else {
        Ok(got)
    }
}

fn bounded_count(field: &'static str, got: u32) -> Result<usize, CodecError> {
    bounded(field, got as u64, MAX_LIST_LEN as u64).map(|n| n as usize)
}

/// Encodes an operation to its wire bytes.
pub fn encode(op: &RackOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_into(op, &mut out);
    out
}

/// Appends an operation's wire bytes to `out` (a caller's reused
/// buffer), leaving what `out` already holds untouched.
pub fn encode_into(op: &RackOp, out: &mut Vec<u8>) {
    match op {
        RackOp::GotoZombie { host, buffers } => {
            put_header(out, Opcode::GotoZombie);
            out.extend_from_slice(&host.get().to_le_bytes());
            out.extend_from_slice(&buffers.to_le_bytes());
        }
        RackOp::Reclaim { host, nb_buffers } => {
            put_header(out, Opcode::Reclaim);
            out.extend_from_slice(&host.get().to_le_bytes());
            out.extend_from_slice(&nb_buffers.to_le_bytes());
        }
        RackOp::UsReclaim { user, buff_ids } => {
            put_header(out, Opcode::UsReclaim);
            out.extend_from_slice(&user.get().to_le_bytes());
            out.extend_from_slice(&(buff_ids.len() as u32).to_le_bytes());
            for b in buff_ids {
                out.extend_from_slice(&b.get().to_le_bytes());
            }
        }
        RackOp::AllocExt { user, mem_size } => {
            put_header(out, Opcode::AllocExt);
            out.extend_from_slice(&user.get().to_le_bytes());
            out.extend_from_slice(&mem_size.get().to_le_bytes());
        }
        RackOp::AllocSwap { user, mem_size } => {
            put_header(out, Opcode::AllocSwap);
            out.extend_from_slice(&user.get().to_le_bytes());
            out.extend_from_slice(&mem_size.get().to_le_bytes());
        }
        RackOp::AsGetFreeMem { host } => {
            put_header(out, Opcode::AsGetFreeMem);
            out.extend_from_slice(&host.get().to_le_bytes());
        }
        RackOp::GetLruZombie => {
            put_header(out, Opcode::GetLruZombie);
        }
    }
}

/// Decodes wire bytes back into an operation.
pub fn decode(bytes: &[u8]) -> Result<RackOp, CodecError> {
    let mut r = Reader::new(bytes);
    let op = r.u8()?;
    let op = Opcode::from_byte(op).ok_or(CodecError::UnknownOpcode(op))?;
    let version = r.u16()?;
    if version != WIRE_VERSION {
        return Err(CodecError::VersionMismatch(version));
    }
    let decoded = match op {
        Opcode::GotoZombie => RackOp::GotoZombie {
            host: ServerId::new(r.u32()?),
            buffers: bounded("buffers", r.u64()?, MAX_NB_BUFFERS)?,
        },
        Opcode::Reclaim => RackOp::Reclaim {
            host: ServerId::new(r.u32()?),
            nb_buffers: bounded("nb_buffers", r.u64()?, MAX_NB_BUFFERS)?,
        },
        Opcode::UsReclaim => {
            let user = ServerId::new(r.u32()?);
            let count = bounded_count("buff_ids", r.u32()?)?;
            // Bound the preallocation by what the buffer can even hold.
            let mut buff_ids = Vec::with_capacity(count.min(bytes.len() / 8 + 1));
            for _ in 0..count {
                buff_ids.push(BufferId::new(r.u64()?));
            }
            RackOp::UsReclaim { user, buff_ids }
        }
        Opcode::AllocExt => RackOp::AllocExt {
            user: ServerId::new(r.u32()?),
            mem_size: Bytes::new(bounded("mem_size", r.u64()?, MAX_MEM_SIZE.get())?),
        },
        Opcode::AllocSwap => RackOp::AllocSwap {
            user: ServerId::new(r.u32()?),
            mem_size: Bytes::new(bounded("mem_size", r.u64()?, MAX_MEM_SIZE.get())?),
        },
        Opcode::AsGetFreeMem => RackOp::AsGetFreeMem {
            host: ServerId::new(r.u32()?),
        },
        Opcode::GetLruZombie => RackOp::GetLruZombie,
    };
    r.finish()?;
    Ok(decoded)
}

/// Response tags, disjoint from request opcodes so a frame's direction is
/// visible from its first byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum RespTag {
    Lent = 0x81,
    Reclaimed = 0x82,
    Revoked = 0x83,
    Granted = 0x84,
    LruZombie = 0x85,
    Error = 0x86,
}

impl RespTag {
    fn from_byte(b: u8) -> Option<RespTag> {
        match b {
            0x81 => Some(RespTag::Lent),
            0x82 => Some(RespTag::Reclaimed),
            0x83 => Some(RespTag::Revoked),
            0x84 => Some(RespTag::Granted),
            0x85 => Some(RespTag::LruZombie),
            0x86 => Some(RespTag::Error),
            _ => None,
        }
    }
}

/// One granted buffer as it crosses the wire: enough for the client's
/// remote-mem-mgr to target one-sided RDMA at it. The registered MR key
/// travels as its raw value — the client never re-registers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferDesc {
    /// Rack-unique buffer id.
    pub id: BufferId,
    /// The server whose RAM backs the buffer.
    pub host: ServerId,
    /// Raw memory-region key for one-sided access.
    pub mr_key: u64,
    /// Buffer size.
    pub size: Bytes,
    /// Whether the backing host is a zombie (`true`) or active.
    pub zombie: bool,
}

/// A typed error frame: the controller-side failures a client must
/// distinguish to react correctly (retry, shrink, or give up).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorFrame {
    /// The named host is not registered with the controller.
    UnknownHost(ServerId),
    /// The named buffer is not in the controller database (or not
    /// granted to the calling manager).
    UnknownBuffer(BufferId),
    /// Guaranteed allocation rejected by admission control.
    AdmissionDenied {
        /// Buffers requested.
        requested: u64,
        /// Buffers actually free rack-wide.
        available: u64,
    },
    /// The caller does not use this buffer.
    NotTheUser {
        /// The disputed buffer.
        buffer: BufferId,
        /// The caller.
        user: ServerId,
    },
    /// No free capacity for the request.
    NoCapacity,
    /// The request frame failed to decode; `code` classifies the
    /// [`CodecError`] (1 truncated, 2 unknown opcode, 3 version,
    /// 4 trailing, 5 oversized).
    BadRequest {
        /// Coarse decode-failure class.
        code: u8,
    },
}

impl ErrorFrame {
    /// The bad-request frame for a failed decode.
    pub fn bad_request(e: CodecError) -> ErrorFrame {
        let code = match e {
            CodecError::Truncated => 1,
            CodecError::UnknownOpcode(_) => 2,
            CodecError::VersionMismatch(_) => 3,
            CodecError::TrailingBytes(_) => 4,
            CodecError::Oversized { .. } => 5,
        };
        ErrorFrame::BadRequest { code }
    }
}

impl core::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ErrorFrame::UnknownHost(h) => write!(f, "{h} not registered"),
            ErrorFrame::UnknownBuffer(b) => write!(f, "{b:?} unknown"),
            ErrorFrame::AdmissionDenied {
                requested,
                available,
            } => write!(
                f,
                "admission control: {requested} buffers requested, {available} available"
            ),
            ErrorFrame::NotTheUser { buffer, user } => write!(f, "{user} does not use {buffer:?}"),
            ErrorFrame::NoCapacity => write!(f, "no free capacity"),
            ErrorFrame::BadRequest { code } => write!(f, "malformed request (class {code})"),
        }
    }
}

/// What the seven wire functions answer (§4.3–4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseBody {
    /// `GS_goto_zombie` / `AS_get_free_mem`: ids of the newly lent
    /// buffers (possibly empty — the host had nothing left to lend).
    Lent {
        /// Ids assigned to the lent buffers.
        buffers: Vec<BufferId>,
    },
    /// `GS_reclaim`: the reclaim plan the controller executed.
    Reclaimed {
        /// Buffers handed straight back (they were unallocated).
        returned_free: Vec<BufferId>,
        /// `(user, buffer)` pairs revoked via `US_reclaim`.
        revoked: Vec<(ServerId, BufferId)>,
    },
    /// `US_reclaim`: what happened to the revoked pages.
    Revoked {
        /// Pages re-placed into other granted slots.
        relocated: u64,
        /// Pages now served from the local backup only.
        fell_back: u64,
    },
    /// `GS_alloc_ext` / `GS_alloc_swap`: the granted descriptors
    /// (best-effort allocations may return fewer than requested).
    Granted {
        /// One descriptor per granted buffer.
        buffers: Vec<BufferDesc>,
    },
    /// `GS_get_lru_zombie`: the answer (`None` = no zombies in the rack).
    LruZombie {
        /// The zombie with the fewest allocated buffers.
        host: Option<ServerId>,
    },
    /// A typed error frame.
    Error(ErrorFrame),
}

/// A control-plane response: the modeled controller decision time plus
/// the operation's answer. `decision` is sim-clock, a pure function of
/// the request — which is what lets replay clients aggregate latency
/// into byte-identical metric exports regardless of scheduling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RackResponse {
    /// Controller-side decision latency ([`RackOp::server_time`]).
    pub decision: SimDuration,
    /// The answer.
    pub body: ResponseBody,
}

fn put_resp_header(out: &mut Vec<u8>, tag: RespTag, decision: SimDuration) {
    out.push(tag as u8);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&decision.as_nanos().to_le_bytes());
}

fn put_id_list(out: &mut Vec<u8>, ids: &[BufferId]) {
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for b in ids {
        out.extend_from_slice(&b.get().to_le_bytes());
    }
}

/// Encodes a response to its wire bytes.
pub fn encode_response(resp: &RackResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_response_into(resp, &mut out);
    out
}

/// Appends a response's wire bytes to `out` (a caller's reused buffer),
/// leaving what `out` already holds untouched.
pub fn encode_response_into(resp: &RackResponse, out: &mut Vec<u8>) {
    match &resp.body {
        ResponseBody::Lent { buffers } => {
            put_resp_header(out, RespTag::Lent, resp.decision);
            put_id_list(out, buffers);
        }
        ResponseBody::Reclaimed {
            returned_free,
            revoked,
        } => {
            put_resp_header(out, RespTag::Reclaimed, resp.decision);
            put_id_list(out, returned_free);
            out.extend_from_slice(&(revoked.len() as u32).to_le_bytes());
            for (user, b) in revoked {
                out.extend_from_slice(&user.get().to_le_bytes());
                out.extend_from_slice(&b.get().to_le_bytes());
            }
        }
        ResponseBody::Revoked {
            relocated,
            fell_back,
        } => {
            put_resp_header(out, RespTag::Revoked, resp.decision);
            out.extend_from_slice(&relocated.to_le_bytes());
            out.extend_from_slice(&fell_back.to_le_bytes());
        }
        ResponseBody::Granted { buffers } => {
            put_resp_header(out, RespTag::Granted, resp.decision);
            out.extend_from_slice(&(buffers.len() as u32).to_le_bytes());
            for d in buffers {
                out.extend_from_slice(&d.id.get().to_le_bytes());
                out.extend_from_slice(&d.host.get().to_le_bytes());
                out.extend_from_slice(&d.mr_key.to_le_bytes());
                out.extend_from_slice(&d.size.get().to_le_bytes());
                out.push(d.zombie as u8);
            }
        }
        ResponseBody::LruZombie { host } => {
            put_resp_header(out, RespTag::LruZombie, resp.decision);
            match host {
                Some(h) => {
                    out.push(1);
                    out.extend_from_slice(&h.get().to_le_bytes());
                }
                None => out.push(0),
            }
        }
        ResponseBody::Error(e) => {
            put_resp_header(out, RespTag::Error, resp.decision);
            match e {
                ErrorFrame::UnknownHost(h) => {
                    out.push(1);
                    out.extend_from_slice(&h.get().to_le_bytes());
                }
                ErrorFrame::UnknownBuffer(b) => {
                    out.push(2);
                    out.extend_from_slice(&b.get().to_le_bytes());
                }
                ErrorFrame::AdmissionDenied {
                    requested,
                    available,
                } => {
                    out.push(3);
                    out.extend_from_slice(&requested.to_le_bytes());
                    out.extend_from_slice(&available.to_le_bytes());
                }
                ErrorFrame::NotTheUser { buffer, user } => {
                    out.push(4);
                    out.extend_from_slice(&buffer.get().to_le_bytes());
                    out.extend_from_slice(&user.get().to_le_bytes());
                }
                ErrorFrame::NoCapacity => out.push(5),
                ErrorFrame::BadRequest { code } => {
                    out.push(6);
                    out.push(*code);
                }
            }
        }
    }
}

fn read_id_list(r: &mut Reader<'_>) -> Result<Vec<BufferId>, CodecError> {
    let count = bounded_count("id_list", r.u32()?)?;
    let mut ids = Vec::with_capacity(count.min(r.buf.len() / 8 + 1));
    for _ in 0..count {
        ids.push(BufferId::new(r.u64()?));
    }
    Ok(ids)
}

/// Decodes wire bytes back into a response.
pub fn decode_response(bytes: &[u8]) -> Result<RackResponse, CodecError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let tag = RespTag::from_byte(tag).ok_or(CodecError::UnknownOpcode(tag))?;
    let version = r.u16()?;
    if version != WIRE_VERSION {
        return Err(CodecError::VersionMismatch(version));
    }
    let decision = SimDuration::from_nanos(r.u64()?);
    let body = match tag {
        RespTag::Lent => ResponseBody::Lent {
            buffers: read_id_list(&mut r)?,
        },
        RespTag::Reclaimed => {
            let returned_free = read_id_list(&mut r)?;
            let count = bounded_count("revoked", r.u32()?)?;
            let mut revoked = Vec::with_capacity(count.min(r.buf.len() / 12 + 1));
            for _ in 0..count {
                let user = ServerId::new(r.u32()?);
                revoked.push((user, BufferId::new(r.u64()?)));
            }
            ResponseBody::Reclaimed {
                returned_free,
                revoked,
            }
        }
        RespTag::Revoked => ResponseBody::Revoked {
            relocated: r.u64()?,
            fell_back: r.u64()?,
        },
        RespTag::Granted => {
            let count = bounded_count("buffers", r.u32()?)?;
            let mut buffers = Vec::with_capacity(count.min(r.buf.len() / 29 + 1));
            for _ in 0..count {
                buffers.push(BufferDesc {
                    id: BufferId::new(r.u64()?),
                    host: ServerId::new(r.u32()?),
                    mr_key: r.u64()?,
                    size: Bytes::new(r.u64()?),
                    zombie: r.u8()? != 0,
                });
            }
            ResponseBody::Granted { buffers }
        }
        RespTag::LruZombie => ResponseBody::LruZombie {
            host: if r.u8()? != 0 {
                Some(ServerId::new(r.u32()?))
            } else {
                None
            },
        },
        RespTag::Error => {
            let class = r.u8()?;
            let e = match class {
                1 => ErrorFrame::UnknownHost(ServerId::new(r.u32()?)),
                2 => ErrorFrame::UnknownBuffer(BufferId::new(r.u64()?)),
                3 => ErrorFrame::AdmissionDenied {
                    requested: r.u64()?,
                    available: r.u64()?,
                },
                4 => ErrorFrame::NotTheUser {
                    buffer: BufferId::new(r.u64()?),
                    user: ServerId::new(r.u32()?),
                },
                5 => ErrorFrame::NoCapacity,
                6 => ErrorFrame::BadRequest { code: r.u8()? },
                other => return Err(CodecError::UnknownOpcode(other)),
            };
            ResponseBody::Error(e)
        }
    };
    r.finish()?;
    Ok(RackResponse { decision, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<RackOp> {
        vec![
            RackOp::GotoZombie {
                host: ServerId::new(3),
                buffers: 240,
            },
            RackOp::Reclaim {
                host: ServerId::new(3),
                nb_buffers: 12,
            },
            RackOp::UsReclaim {
                user: ServerId::new(0),
                buff_ids: vec![BufferId::new(5), BufferId::new(99), BufferId::new(u64::MAX)],
            },
            RackOp::UsReclaim {
                user: ServerId::new(1),
                buff_ids: vec![],
            },
            RackOp::AllocExt {
                user: ServerId::new(7),
                mem_size: Bytes::gib(3),
            },
            RackOp::AllocSwap {
                user: ServerId::new(7),
                mem_size: Bytes::mib(512),
            },
            RackOp::AsGetFreeMem {
                host: ServerId::new(2),
            },
            RackOp::GetLruZombie,
        ]
    }

    #[test]
    fn round_trips() {
        for op in samples() {
            let bytes = encode(&op);
            assert_eq!(decode(&bytes), Ok(op.clone()), "{}", op.wire_name());
        }
    }

    #[test]
    fn truncation_detected_at_every_length() {
        for op in samples() {
            let bytes = encode(&op);
            for cut in 0..bytes.len() {
                let r = decode(&bytes[..cut]);
                assert!(r.is_err(), "{} cut at {cut} decoded: {r:?}", op.wire_name());
            }
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = encode(&RackOp::GetLruZombie);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn bad_opcode_and_version() {
        let mut bytes = encode(&RackOp::GetLruZombie);
        bytes[0] = 0xEE;
        assert_eq!(decode(&bytes), Err(CodecError::UnknownOpcode(0xEE)));

        let mut bytes = encode(&RackOp::GetLruZombie);
        bytes[1] = 0xFF;
        bytes[2] = 0xFF;
        assert_eq!(decode(&bytes), Err(CodecError::VersionMismatch(0xFFFF)));
    }

    #[test]
    fn huge_declared_count_does_not_blow_memory() {
        // A malicious UsReclaim declaring 4 billion ids but carrying none:
        // rejected by the list-length limit before any allocation.
        let mut bytes = Vec::new();
        bytes.push(3); // UsReclaim.
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // user.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // count.
        assert_eq!(
            decode(&bytes),
            Err(CodecError::Oversized {
                field: "buff_ids",
                got: u32::MAX as u64,
                max: MAX_LIST_LEN as u64,
            })
        );
        // A declared count just inside the limit still fails on missing
        // bytes, not on the limit.
        let mut bytes = Vec::new();
        bytes.push(3);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&MAX_LIST_LEN.to_le_bytes());
        assert_eq!(decode(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn absurd_sizes_rejected_at_decode() {
        let op = RackOp::AllocExt {
            user: ServerId::new(0),
            mem_size: Bytes::new(u64::MAX),
        };
        assert_eq!(
            decode(&encode(&op)),
            Err(CodecError::Oversized {
                field: "mem_size",
                got: u64::MAX,
                max: MAX_MEM_SIZE.get(),
            })
        );
        let op = RackOp::Reclaim {
            host: ServerId::new(0),
            nb_buffers: MAX_NB_BUFFERS + 1,
        };
        assert!(matches!(
            decode(&encode(&op)),
            Err(CodecError::Oversized {
                field: "nb_buffers",
                ..
            })
        ));
        // At the limit, both still decode.
        let op = RackOp::AllocExt {
            user: ServerId::new(0),
            mem_size: MAX_MEM_SIZE,
        };
        assert_eq!(decode(&encode(&op)), Ok(op));
    }

    fn response_samples() -> Vec<RackResponse> {
        let d = SimDuration::from_micros(17);
        vec![
            RackResponse {
                decision: d,
                body: ResponseBody::Lent {
                    buffers: vec![BufferId::new(0), BufferId::new(7)],
                },
            },
            RackResponse {
                decision: d,
                body: ResponseBody::Lent { buffers: vec![] },
            },
            RackResponse {
                decision: d,
                body: ResponseBody::Reclaimed {
                    returned_free: vec![BufferId::new(1)],
                    revoked: vec![(ServerId::new(4), BufferId::new(2))],
                },
            },
            RackResponse {
                decision: d,
                body: ResponseBody::Revoked {
                    relocated: 3,
                    fell_back: 1,
                },
            },
            RackResponse {
                decision: d,
                body: ResponseBody::Granted {
                    buffers: vec![BufferDesc {
                        id: BufferId::new(9),
                        host: ServerId::new(2),
                        mr_key: 77,
                        size: Bytes::mib(64),
                        zombie: true,
                    }],
                },
            },
            RackResponse {
                decision: d,
                body: ResponseBody::LruZombie {
                    host: Some(ServerId::new(5)),
                },
            },
            RackResponse {
                decision: d,
                body: ResponseBody::LruZombie { host: None },
            },
            RackResponse {
                decision: d,
                body: ResponseBody::Error(ErrorFrame::AdmissionDenied {
                    requested: 10,
                    available: 2,
                }),
            },
            RackResponse {
                decision: d,
                body: ResponseBody::Error(ErrorFrame::NotTheUser {
                    buffer: BufferId::new(3),
                    user: ServerId::new(1),
                }),
            },
            RackResponse {
                decision: d,
                body: ResponseBody::Error(ErrorFrame::bad_request(CodecError::Truncated)),
            },
        ]
    }

    #[test]
    fn responses_round_trip() {
        for resp in response_samples() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes), Ok(resp.clone()), "{resp:?}");
        }
    }

    #[test]
    fn response_truncation_detected_at_every_length() {
        for resp in response_samples() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                let r = decode_response(&bytes[..cut]);
                assert!(r.is_err(), "{resp:?} cut at {cut} decoded: {r:?}");
            }
        }
    }

    #[test]
    fn response_rejects_request_opcodes_and_vice_versa() {
        let req = encode(&RackOp::GetLruZombie);
        assert_eq!(
            decode_response(&req),
            Err(CodecError::UnknownOpcode(7)),
            "request bytes must not decode as a response"
        );
        let resp = encode_response(&RackResponse {
            decision: SimDuration::ZERO,
            body: ResponseBody::LruZombie { host: None },
        });
        assert_eq!(
            decode(&resp),
            Err(CodecError::UnknownOpcode(0x85)),
            "response bytes must not decode as a request"
        );
    }

    #[test]
    fn oversized_response_lists_rejected() {
        let mut bytes = Vec::new();
        bytes.push(0x81); // Lent.
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // decision.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // count.
        assert!(matches!(
            decode_response(&bytes),
            Err(CodecError::Oversized {
                field: "id_list",
                ..
            })
        ));
    }
}
