//! Golden digest of the cluster model's answers.
//!
//! Boots a 24-host [`ClusterModel`] at seed 1 and applies 32,768 ops of
//! the `zombieland replay` mix in-process (no socket), hashing every
//! encoded response. The digest pins the controller's pick order end to
//! end: which buffers an allocation gets, which a reclaim returns or
//! revokes, which zombie `GS_get_lru_zombie` names, and every refusal.
//! Any drift in `CtrlDb`, `HaPair` or the model's dispatch changes it.

use zombieland_core::codec::encode_response;
use zombieland_core::protocol::RackOp;
use zombieland_core::ServerId;
use zombieland_daemon::model::{ClusterModel, ModelConfig};
use zombieland_mem::buffer::BufferId;
use zombieland_simcore::{derive_seed, Bytes, DetRng};

const SERVERS: u32 = 24;
const SEED: u64 = 1;
const OPS: usize = 32_768;
/// FNV-1a of the encoded responses (recorded before the controller
/// database grew its free index; the same value the benchmark's ctl-rpc
/// epoch digest holds at seed 1).
const DIGEST: u64 = 0x0a7c_88c1_53b0_9f90;

/// The replay request mix: allocations, goto-zombie, reclaims,
/// free-memory and LRU-zombie queries, and user reclaims of random ids.
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

fn fnv(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn replay_mix_responses_match_the_recorded_digest() {
    let mut model = ClusterModel::boot(ModelConfig::new(SERVERS, SEED));
    let mut rng = DetRng::new(derive_seed(SEED, 0));
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for _ in 0..OPS {
        let resp = model.apply(&gen_op(&mut rng));
        digest = fnv(digest, &encode_response(&resp));
    }
    assert_eq!(model.ops_applied(), OPS as u64);
    assert_eq!(
        digest, DIGEST,
        "response digest {digest:#018x} != recorded {DIGEST:#018x}"
    );
}
