//! Property tests for the wire codec: in-limit operations and responses
//! round-trip exactly, arbitrary bytes never panic either decoder, and
//! sizes past the protocol limits are rejected with
//! [`CodecError::Oversized`] before they can feed the cost models.

use proptest::prelude::*;
use zombieland_core::codec::{
    decode, decode_response, encode, encode_into, encode_response, encode_response_into,
    BufferDesc, CodecError, ErrorFrame, RackResponse, ResponseBody, MAX_LIST_LEN, MAX_MEM_SIZE,
    MAX_NB_BUFFERS,
};
use zombieland_core::protocol::RackOp;
use zombieland_core::ServerId;
use zombieland_mem::buffer::BufferId;
use zombieland_simcore::{Bytes, DetRng, SimDuration};

/// Operations whose fields respect the wire limits; these must
/// round-trip exactly. Ranges are inclusive of the limit itself.
fn ops() -> impl Strategy<Value = RackOp> {
    prop_oneof![
        (any::<u32>(), 0..MAX_NB_BUFFERS + 1).prop_map(|(h, b)| RackOp::GotoZombie {
            host: ServerId::new(h),
            buffers: b,
        }),
        (any::<u32>(), 0..MAX_NB_BUFFERS + 1).prop_map(|(h, n)| RackOp::Reclaim {
            host: ServerId::new(h),
            nb_buffers: n,
        }),
        (any::<u32>(), prop::collection::vec(any::<u64>(), 0..64)).prop_map(|(u, ids)| {
            RackOp::UsReclaim {
                user: ServerId::new(u),
                buff_ids: ids.into_iter().map(BufferId::new).collect(),
            }
        }),
        (any::<u32>(), 0..MAX_MEM_SIZE.get() + 1).prop_map(|(u, s)| RackOp::AllocExt {
            user: ServerId::new(u),
            mem_size: Bytes::new(s),
        }),
        (any::<u32>(), 0..MAX_MEM_SIZE.get() + 1).prop_map(|(u, s)| RackOp::AllocSwap {
            user: ServerId::new(u),
            mem_size: Bytes::new(s),
        }),
        any::<u32>().prop_map(|h| RackOp::AsGetFreeMem {
            host: ServerId::new(h),
        }),
        Just(RackOp::GetLruZombie),
    ]
}

/// Responses with in-limit list lengths, covering every tag.
fn responses() -> impl Strategy<Value = RackResponse> {
    let ids = || prop::collection::vec(any::<u64>(), 0..32);
    let body = prop_oneof![
        ids().prop_map(|v| ResponseBody::Lent {
            buffers: v.into_iter().map(BufferId::new).collect(),
        }),
        (
            ids(),
            prop::collection::vec((any::<u32>(), any::<u64>()), 0..32)
        )
            .prop_map(|(free, rev)| ResponseBody::Reclaimed {
                returned_free: free.into_iter().map(BufferId::new).collect(),
                revoked: rev
                    .into_iter()
                    .map(|(u, b)| (ServerId::new(u), BufferId::new(b)))
                    .collect(),
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(r, f)| ResponseBody::Revoked {
            relocated: r,
            fell_back: f,
        }),
        prop::collection::vec(
            (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()),
            0..16
        )
        .prop_map(|descs| ResponseBody::Granted {
            buffers: descs
                .into_iter()
                .map(|(id, host, mr, size)| BufferDesc {
                    id: BufferId::new(id),
                    host: ServerId::new(host),
                    mr_key: mr,
                    size: Bytes::new(size),
                    zombie: size % 2 == 0,
                })
                .collect(),
        }),
        any::<u32>().prop_map(|h| ResponseBody::LruZombie {
            host: (h % 3 != 0).then(|| ServerId::new(h)),
        }),
        any::<u32>().prop_map(|h| ResponseBody::Error(ErrorFrame::UnknownHost(ServerId::new(h)))),
        (any::<u64>(), any::<u64>()).prop_map(|(r, a)| ResponseBody::Error(
            ErrorFrame::AdmissionDenied {
                requested: r,
                available: a,
            }
        )),
        Just(ResponseBody::Error(ErrorFrame::NoCapacity)),
    ];
    (any::<u64>(), body).prop_map(|(d, body)| RackResponse {
        decision: SimDuration::from_nanos(d),
        body,
    })
}

proptest! {
    #[test]
    fn any_op_round_trips(op in ops()) {
        let bytes = encode(&op);
        prop_assert_eq!(decode(&bytes), Ok(op));
    }

    #[test]
    fn any_response_round_trips(resp in responses()) {
        let bytes = encode_response(&resp);
        prop_assert_eq!(decode_response(&bytes), Ok(resp));
    }

    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Whatever arrives on the wire, decode returns Ok or Err — it
        // never panics and never allocates unboundedly. Same for the
        // response direction.
        let _ = decode(&bytes);
        let _ = decode_response(&bytes);
    }

    #[test]
    fn mutated_frames_never_panic(
        op in ops(),
        byte in 0usize..64,
        flip in 1u64..256,
    ) {
        // Corrupting any byte of a valid frame yields Ok or Err, never a
        // panic — and if the corrupt frame still decodes cleanly, its
        // size fields still respect the wire limits.
        let mut bytes = encode(&op);
        let idx = byte % bytes.len();
        bytes[idx] ^= flip as u8;
        if let Ok(back) = decode(&bytes) {
            match back {
                RackOp::AllocExt { mem_size, .. } | RackOp::AllocSwap { mem_size, .. } => {
                    prop_assert!(mem_size <= MAX_MEM_SIZE);
                }
                RackOp::GotoZombie { buffers: n, .. } | RackOp::Reclaim { nb_buffers: n, .. } => {
                    prop_assert!(n <= MAX_NB_BUFFERS);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn oversized_ops_rejected(op in ops(), excess in 1u64..1_000) {
        // Push a size field past its limit: the encoder is total so the
        // frame still serializes, but decode must answer Oversized.
        let inflated = match op {
            RackOp::GotoZombie { host, .. } => Some(RackOp::GotoZombie {
                host,
                buffers: MAX_NB_BUFFERS + excess,
            }),
            RackOp::Reclaim { host, .. } => Some(RackOp::Reclaim {
                host,
                nb_buffers: MAX_NB_BUFFERS + excess,
            }),
            RackOp::AllocExt { user, .. } => Some(RackOp::AllocExt {
                user,
                mem_size: Bytes::new(MAX_MEM_SIZE.get() + excess),
            }),
            RackOp::AllocSwap { user, .. } => Some(RackOp::AllocSwap {
                user,
                mem_size: Bytes::new(MAX_MEM_SIZE.get() + excess),
            }),
            // The remaining ops carry no size field to inflate.
            _ => None,
        };
        if let Some(inflated) = inflated {
            prop_assert!(matches!(
                decode(&encode(&inflated)),
                Err(CodecError::Oversized { .. })
            ));
            // The saturating cost models still answer something finite
            // for in-process construction of the same op.
            let _ = inflated.server_time();
            let _ = inflated.response_len();
        }
    }

    #[test]
    fn request_len_covers_encoding(op in ops()) {
        // The RPC layer's size model is never smaller than the real
        // message.
        let encoded = encode(&op).len() as u64;
        prop_assert!(op.request_len().get() >= encoded);
    }
}

/// The u32-count boundary for `US_reclaim` id lists: exactly
/// `MAX_LIST_LEN` ids round-trips, one more is rejected at decode.
#[test]
fn us_reclaim_id_list_at_the_count_boundary() {
    let at_limit = RackOp::UsReclaim {
        user: ServerId::new(1),
        buff_ids: (0..MAX_LIST_LEN as u64).map(BufferId::new).collect(),
    };
    assert_eq!(decode(&encode(&at_limit)), Ok(at_limit));

    let over_limit = RackOp::UsReclaim {
        user: ServerId::new(1),
        buff_ids: (0..MAX_LIST_LEN as u64 + 1).map(BufferId::new).collect(),
    };
    assert_eq!(
        decode(&encode(&over_limit)),
        Err(CodecError::Oversized {
            field: "buff_ids",
            got: MAX_LIST_LEN as u64 + 1,
            max: MAX_LIST_LEN as u64,
        })
    );
}

/// A seeded op of kind `kind % 7`, every field drawn from `rng`.
fn seeded_op(kind: u64, rng: &mut DetRng) -> RackOp {
    let server = ServerId::new(rng.next_u64() as u32);
    match kind % 7 {
        0 => RackOp::GotoZombie {
            host: server,
            buffers: rng.below(MAX_NB_BUFFERS + 1),
        },
        1 => RackOp::Reclaim {
            host: server,
            nb_buffers: rng.below(MAX_NB_BUFFERS + 1),
        },
        2 => RackOp::UsReclaim {
            user: server,
            buff_ids: (0..rng.below(40))
                .map(|_| BufferId::new(rng.next_u64()))
                .collect(),
        },
        3 => RackOp::AllocExt {
            user: server,
            mem_size: Bytes::new(rng.below(MAX_MEM_SIZE.get() + 1)),
        },
        4 => RackOp::AllocSwap {
            user: server,
            mem_size: Bytes::new(rng.below(MAX_MEM_SIZE.get() + 1)),
        },
        5 => RackOp::AsGetFreeMem { host: server },
        _ => RackOp::GetLruZombie,
    }
}

/// A seeded response of kind `kind % 12`: every body tag, both
/// `LruZombie` forms, and all six error frames.
fn seeded_response(kind: u64, rng: &mut DetRng) -> RackResponse {
    let id = |rng: &mut DetRng| BufferId::new(rng.next_u64());
    let server = |rng: &mut DetRng| ServerId::new(rng.next_u64() as u32);
    let body = match kind % 12 {
        0 => ResponseBody::Lent {
            buffers: (0..rng.below(20)).map(|_| id(rng)).collect(),
        },
        1 => ResponseBody::Reclaimed {
            returned_free: (0..rng.below(20)).map(|_| id(rng)).collect(),
            revoked: (0..rng.below(20)).map(|_| (server(rng), id(rng))).collect(),
        },
        2 => ResponseBody::Revoked {
            relocated: rng.next_u64(),
            fell_back: rng.next_u64(),
        },
        3 => ResponseBody::Granted {
            buffers: (0..rng.below(20))
                .map(|_| BufferDesc {
                    id: id(rng),
                    host: server(rng),
                    mr_key: rng.next_u64(),
                    size: Bytes::new(rng.next_u64()),
                    zombie: rng.chance(0.5),
                })
                .collect(),
        },
        4 => ResponseBody::LruZombie {
            host: Some(server(rng)),
        },
        5 => ResponseBody::LruZombie { host: None },
        6 => ResponseBody::Error(ErrorFrame::UnknownHost(server(rng))),
        7 => ResponseBody::Error(ErrorFrame::UnknownBuffer(id(rng))),
        8 => ResponseBody::Error(ErrorFrame::AdmissionDenied {
            requested: rng.next_u64(),
            available: rng.next_u64(),
        }),
        9 => ResponseBody::Error(ErrorFrame::NotTheUser {
            buffer: id(rng),
            user: server(rng),
        }),
        10 => ResponseBody::Error(ErrorFrame::NoCapacity),
        _ => ResponseBody::Error(ErrorFrame::BadRequest {
            code: rng.below(256) as u8,
        }),
    };
    RackResponse {
        decision: SimDuration::from_nanos(rng.next_u64()),
        body,
    }
}

/// The appending encoders write exactly the allocating encoders' bytes
/// behind whatever the buffer already holds: over a seeded stream that
/// covers every op and every response kind, one reused buffer ends up
/// holding the concatenation of the `encode` / `encode_response` bytes.
#[test]
fn encode_into_appends_exactly_the_encode_bytes() {
    let mut rng = DetRng::new(0x00c0_dec5);
    let mut appended = b"existing content".to_vec();
    let mut expected = appended.clone();
    for i in 0..600 {
        let op = seeded_op(i, &mut rng);
        let before = appended.len();
        encode_into(&op, &mut appended);
        let want = encode(&op);
        assert_eq!(&appended[before..], &want[..], "{op:?}");
        expected.extend_from_slice(&want);

        let resp = seeded_response(i, &mut rng);
        let before = appended.len();
        encode_response_into(&resp, &mut appended);
        let want = encode_response(&resp);
        assert_eq!(&appended[before..], &want[..], "{resp:?}");
        expected.extend_from_slice(&want);
    }
    assert_eq!(appended, expected, "earlier content was left untouched");
}
