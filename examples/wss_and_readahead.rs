//! Two hypervisor mechanisms the cloud layer depends on, observed live:
//! working-set estimation (the input to the 30 % consolidation rule) and
//! swap readahead over pipelined RDMA batches.
//!
//! Run with `cargo run --release --example wss_and_readahead`.

use zombieland::core::manager::PoolKind;
use zombieland::core::{Rack, RackConfig};
use zombieland::hypervisor::engine::{self, Backing, EngineConfig};
use zombieland::simcore::Bytes;
use zombieland::workloads::{MicroBench, SparkSql};

fn rack_with_zombie() -> (Rack, zombieland::core::ServerId) {
    let mut rack = Rack::new(RackConfig::default());
    let ids = rack.server_ids();
    rack.goto_zombie(ids[1]).expect("idle server");
    (rack, ids[0])
}

fn main() {
    let reserved = Bytes::gib(2);
    let wss = Bytes::mib(1536);

    // --- 1. WSS estimation ---------------------------------------------
    // The micro-benchmark's true hot set is 48 % of its working set; the
    // hypervisor only sees accessed bits, yet its sampled estimate lands
    // close — this number is what `accepts_migration` multiplies by 0.30.
    let (mut rack, user) = rack_with_zombie();
    rack.alloc_ext(user, Bytes::gib(1)).unwrap();
    let mut w = MicroBench::new(wss.pages(), 7);
    let cfg = EngineConfig::ram_ext(reserved, reserved);
    let stats = engine::run(
        &mut w,
        &cfg,
        Backing::Rack {
            rack: &mut rack,
            user,
            pool: PoolKind::Ext,
        },
    )
    .unwrap();
    let true_hot = (wss.pages().count() as f64 * MicroBench::HOT_FRACTION) as u64;
    println!("=== Working-set estimation (accessed-bit sampling) ===");
    println!("true hot set : {true_hot} pages");
    println!("estimated WSS: {} pages", stats.wss_estimate);
    println!(
        "consolidation would require {} pages local (30% rule)\n",
        (stats.wss_estimate as f64 * 0.3) as u64
    );

    // --- 2. Swap readahead ----------------------------------------------
    // Spark scans fault page-after-page. A readahead window turns N
    // trap+fetch round trips into one posted batch on the NIC.
    println!("=== Swap readahead on a scan-heavy workload (40% local) ===");
    for window in [0u32, 8, 32] {
        let (mut rack, user) = rack_with_zombie();
        rack.alloc_ext(user, reserved).unwrap();
        let mut w = SparkSql::new(wss.pages(), 42);
        let cfg = EngineConfig {
            readahead: window,
            ..EngineConfig::ram_ext(reserved, reserved.mul_f64(0.4))
        };
        let s = engine::run(
            &mut w,
            &cfg,
            Backing::Rack {
                rack: &mut rack,
                user,
                pool: PoolKind::Ext,
            },
        )
        .unwrap();
        println!(
            "window {window:>3}: exec {}  faults {:>7}  prefetched {:>7}  \
             fault p99 {}",
            s.exec_time,
            s.remote_faults,
            s.prefetched,
            s.fault_latency
                .quantile(0.99)
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "\nA modest window wins; enormous windows over-prefetch and evict \
         useful pages (see `cargo bench --bench ablations`)."
    );
}
