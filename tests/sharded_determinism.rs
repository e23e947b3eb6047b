//! The rack-sharded event loop's contract (DESIGN §12): the shard count
//! partitions *decision scans*, never results. For any `--shards` and
//! any thread budget the merged report is byte-identical to the serial
//! loop — energy down to the f64 bit — because every mutation runs on
//! the coordinator in serial order and the per-shard scan merges are
//! constructed to equal the full serial scan.

use zombieland::energy::MachineProfile;
use zombieland::simcore::with_thread_budget;
use zombieland::simulator::{simulate, PolicyKind, SimConfig, SimReport};
use zombieland_bench::experiments;

const POLICIES: [PolicyKind; 3] = [PolicyKind::Neat, PolicyKind::Oasis, PolicyKind::ZombieStack];

/// One run at an explicit shard count and thread budget.
fn run(
    trace: &zombieland::trace::ClusterTrace,
    policy: PolicyKind,
    racks: u32,
    shards: u32,
    jobs: usize,
) -> SimReport {
    let cfg = SimConfig {
        racks,
        shards,
        ..SimConfig::new(policy, MachineProfile::hp())
    };
    with_thread_budget(jobs, || simulate(trace, &cfg))
}

/// Asserts two reports are *byte*-identical: `assert_eq!` via the
/// derived `PartialEq`, plus the float fields compared as raw bits
/// (f64 `==` would let a `-0.0`/`+0.0` divergence slip through).
fn assert_bytes_equal(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a, b, "{what}: report diverged");
    assert_eq!(
        a.energy.get().to_bits(),
        b.energy.get().to_bits(),
        "{what}: energy bits diverged"
    );
    for i in 0..3 {
        assert_eq!(
            a.state_seconds[i].to_bits(),
            b.state_seconds[i].to_bits(),
            "{what}: state_seconds[{i}] bits diverged"
        );
    }
    assert_eq!(
        a.peak_parked.to_bits(),
        b.peak_parked.to_bits(),
        "{what}: peak_parked bits diverged"
    );
}

/// Fig-10-sized fleet, racks dividing the fleet evenly: shards
/// {1, 2, 8} × thread budget {1, 2} all match the serial loop.
#[test]
fn fig10_sized_fleet_is_shard_invariant() {
    let trace = experiments::fig10_trace(160, 1, 11);
    for policy in POLICIES {
        let serial = run(&trace, policy, 8, 1, 1);
        for shards in [2, 8] {
            for jobs in [1, 2] {
                let sharded = run(&trace, policy, 8, shards, jobs);
                assert_bytes_equal(
                    &serial,
                    &sharded,
                    &format!("{policy:?} shards={shards} jobs={jobs}"),
                );
            }
        }
    }
}

/// A fleet whose size is not a multiple of the rack count (and whose
/// rack count is not a multiple of the shard count), so every uneven
/// partition boundary is exercised: 130 hosts over 7 racks.
#[test]
fn rack_odd_fleet_is_shard_invariant() {
    let (servers, racks) = (130u32, 7u32);
    assert_ne!(servers % racks, 0, "the fixture must stay rack-odd");
    let trace = experiments::fig10_trace(servers, 1, 3);
    for policy in [PolicyKind::Neat, PolicyKind::ZombieStack] {
        let serial = run(&trace, policy, racks, 1, 1);
        for shards in [2, 8] {
            for jobs in [1, 2] {
                let sharded = run(&trace, policy, racks, shards, jobs);
                assert_bytes_equal(
                    &serial,
                    &sharded,
                    &format!("{policy:?} shards={shards} jobs={jobs}"),
                );
            }
        }
    }
}

/// A fleet above the crew gate (`CREW_MIN_FLEET = 512`) with a real
/// thread budget, so the scan rounds actually cross threads — the
/// result must still match the single-shard, single-thread loop.
#[test]
fn crew_threads_change_nothing() {
    let trace = experiments::fig10_trace(600, 1, 11);
    for policy in [PolicyKind::ZombieStack, PolicyKind::Oasis] {
        let serial = run(&trace, policy, 15, 1, 1);
        for (shards, jobs) in [(8, 2), (8, 4), (15, 3)] {
            let crewed = run(&trace, policy, 15, shards, jobs);
            assert_bytes_equal(
                &serial,
                &crewed,
                &format!("{policy:?} shards={shards} jobs={jobs}"),
            );
        }
    }
}

/// The hosts-examined and blocks-skipped work counters are a property
/// of the shard count, not of the threads: with the crew scanning
/// (above the crew gate, a budget of 2) every admission and migration
/// scan records the same samples it records inline.
#[test]
fn hosts_examined_counters_are_job_invariant() {
    use zombieland::obs::{observe, ObsLevel};
    let trace = zombieland::trace::ClusterTrace::generate(zombieland::trace::TraceConfig {
        servers: 520,
        duration: zombieland::simcore::SimDuration::from_hours(4),
        seed: 5,
        mem_cpu_ratio: 1.0,
        avg_utilization: 0.25,
    });
    let counters = |jobs| {
        let (_, run) = observe(ObsLevel::Summary, || {
            run(&trace, PolicyKind::ZombieStack, 13, 4, jobs)
        });
        [
            "sim.admit.hosts_examined",
            "sim.migrate.hosts_examined",
            "sim.admit.blocks_skipped",
            "sim.migrate.blocks_skipped",
        ]
        .map(|name| {
            let h = run.metrics.histogram(name).cloned();
            assert!(h.as_ref().is_some_and(|h| h.count > 0), "{name} recorded");
            h
        })
    };
    assert_eq!(counters(1), counters(2));
}

/// The golden path (`SimConfig::new` under the default scenario — one
/// rack, one shard) is untouched by the SoA/shard refactor: the default
/// resolves to the serial loop, and forcing the shard knob on a
/// one-rack config clamps back to one shard with an identical report.
/// `golden_report` and `policy_conformance` pin the actual values; this
/// pins that their configuration still runs the code path they froze.
#[test]
fn golden_config_resolves_to_the_serial_loop() {
    let cfg = SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp());
    assert_eq!(cfg.racks, 1, "goldens run the one-rack config");
    assert_eq!(cfg.shards, 1, "one rack resolves to one shard");
    let trace = experiments::fig10_trace(48, 1, 7);
    for policy in POLICIES {
        let default_path = with_thread_budget(1, || {
            simulate(&trace, &SimConfig::new(policy, MachineProfile::hp()))
        });
        let forced = run(&trace, policy, 1, 8, 2);
        assert_bytes_equal(&default_path, &forced, &format!("{policy:?} forced-shards"));
    }
}
