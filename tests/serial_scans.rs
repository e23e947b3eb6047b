//! The simulator's one serial event loop (DESIGN §7): every decision is
//! a single scan over one index set, and in debug builds each pick is
//! checked against a walk without the indexes' shortcuts — admission
//! and migration re-walk the whole stacking order, and the wake,
//! overcommit and demotion picks are re-taken by a naive walk over the
//! fleet in host order. The runs below exercise all six checks.
//!
//! The pins were captured before the scans became serial, when the
//! rack-partitioned scans matched them at every partition count.

use zombieland::energy::MachineProfile;
use zombieland::obs::{observe, run_indexed_obs, ObsLevel};
use zombieland::simulator::{simulate, PolicyKind, SimConfig, SimReport};
use zombieland::trace::ClusterTrace;
use zombieland_bench::experiments;

/// One report with bit-exact floats, one line per run.
fn render(label: &str, r: &SimReport) -> String {
    format!(
        "{label} energy={:#018x} migrations={} wakeups={} dropped={} overcommitted={} \
         state_s=[{:#018x},{:#018x},{:#018x}] peak_parked={:#018x}\n",
        r.energy.get().to_bits(),
        r.migrations,
        r.wakeups,
        r.dropped,
        r.overcommitted,
        r.state_seconds[0].to_bits(),
        r.state_seconds[1].to_bits(),
        r.state_seconds[2].to_bits(),
        r.peak_parked.to_bits(),
    )
}

/// The pinned reports of a fleet whose size is not a multiple of its
/// rack count (130 hosts over 7 racks): uniform under Neat and
/// ZombieStack, then mixing server generations, so placement sees
/// per-host capacities.
const RACK_ODD_PIN: &str = concat!(
    "Neat energy=0x41c075104a32dcca migrations=1261 wakeups=445 dropped=0 overcommitted=0 state_s=[0x414a63c6a6f68aa1,0x0000000000000000,0x415da6dcac84ba92] peak_parked=0x0000000000000000\n",
    "ZombieStack energy=0x41bedef026ee5550 migrations=944 wakeups=371 dropped=0 overcommitted=0 state_s=[0x4146e4deab643b0d,0x41128e46e9ca376c,0x415e3d6c3bb13f24] peak_parked=0x0000000000000000\n",
    "ZombieStack energy=0x41b9e3b2819ed59c migrations=570 wakeups=278 dropped=0 overcommitted=0 state_s=[0x41447e04648b25b1,0x40fda65c12af0bc2,0x416011922eb7d874] peak_parked=0x0000000000000000\n",
);

#[test]
fn rack_odd_fleet_matches_its_pin() {
    let (servers, racks) = (130u32, 7u32);
    assert_ne!(servers % racks, 0, "the fixture must stay rack-odd");
    let trace = experiments::fig10_trace(servers, 1, 3);
    let mut out = String::new();
    for (policy, generations) in [
        (PolicyKind::Neat, vec![]),
        (PolicyKind::ZombieStack, vec![]),
        (PolicyKind::ZombieStack, vec![2005, 2009, 2013]),
    ] {
        let cfg = SimConfig {
            racks,
            generations,
            ..SimConfig::new(policy, MachineProfile::hp())
        };
        out.push_str(&render(&format!("{policy:?}"), &simulate(&trace, &cfg)));
    }
    assert_eq!(out, RACK_ODD_PIN);
}

/// The pinned reports of the overloaded fleet below.
const OVERLOADED_PIN: &str = concat!(
    "AlwaysOn energy=0x41999ae3cd7cb38e migrations=0 wakeups=0 dropped=0 overcommitted=1657 state_s=[0x412a5e000000001b,0x0000000000000000,0x0000000000000000] peak_parked=0x0000000000000000\n",
    "ZombieStack energy=0x41994b8fb2ef0928 migrations=162 wakeups=80 dropped=0 overcommitted=1329 state_s=[0x4129ba6f6e3df307,0x40bed8ba7f483056,0x40c977c730df2c33] peak_parked=0x0000000000000000\n",
);

/// A fleet booked past its capacity, so arrivals that fit nowhere and
/// find nothing to wake overcommit the least-used host.
#[test]
fn overloaded_fleet_matches_its_pin() {
    let trace = ClusterTrace::generate(zombieland::trace::TraceConfig {
        servers: 40,
        duration: zombieland::simcore::SimDuration::from_hours(6),
        seed: 7,
        mem_cpu_ratio: 2.0,
        avg_utilization: 0.9,
    });
    let mut out = String::new();
    for policy in [PolicyKind::AlwaysOn, PolicyKind::ZombieStack] {
        let cfg = SimConfig {
            racks: 3,
            ..SimConfig::new(policy, MachineProfile::hp())
        };
        let r = simulate(&trace, &cfg);
        assert!(r.overcommitted > 0, "{policy:?} overcommits");
        out.push_str(&render(&format!("{policy:?}"), &r));
    }
    assert_eq!(out, OVERLOADED_PIN);
}

/// The fleet the work-counter tests share: 520 hosts over 13 racks,
/// four hours of the original trace.
fn counter_fleet() -> ClusterTrace {
    ClusterTrace::generate(zombieland::trace::TraceConfig {
        servers: 520,
        duration: zombieland::simcore::SimDuration::from_hours(4),
        seed: 5,
        mem_cpu_ratio: 1.0,
        avg_utilization: 0.25,
    })
}

fn counter_config(policy: PolicyKind) -> SimConfig {
    SimConfig {
        racks: 13,
        ..SimConfig::new(policy, MachineProfile::hp())
    }
}

/// The hosts-examined and blocks-skipped work counters do not depend on
/// `--jobs`: runs fanned out over two workers merge into the same
/// histograms as the same runs one after another.
#[test]
fn hosts_examined_counters_are_job_invariant() {
    let trace = counter_fleet();
    let policies = [PolicyKind::Neat, PolicyKind::ZombieStack];
    let counters = |jobs| {
        let (_, run) = observe(ObsLevel::Summary, || {
            run_indexed_obs(jobs, policies.len(), |i| {
                simulate(&trace, &counter_config(policies[i]))
            })
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

/// A hosts-examined histogram's `(count, sum)`.
type ScanWork = (u64, u64);

/// Scan work on the counter fleet, per Fig. 10 policy: the `(count,
/// sum)` of `sim.admit.hosts_examined`, and of
/// `sim.migrate.hosts_examined` for the policies that migrate.
///
/// The count is the number of scans, which no index may change. The
/// sum is the hosts those scans judged; it may grow to twice its pin
/// before the gate trips, so a seek or a block skip that stops paying
/// fails here, deterministically, on any host. A change that alters
/// scan work on purpose re-records these pins in the same commit.
const SCAN_WORK_PIN: [(PolicyKind, ScanWork, Option<ScanWork>); 4] = [
    (PolicyKind::AlwaysOn, (10_591, 45_591), None),
    (PolicyKind::Neat, (10_965, 50_601), Some((1_021, 3_200))),
    (PolicyKind::Oasis, (10_968, 50_264), Some((1_097, 3_960))),
    (
        PolicyKind::ZombieStack,
        (10_958, 121_089),
        Some((677, 16_339)),
    ),
];

#[test]
fn scan_work_stays_within_its_pin() {
    let trace = counter_fleet();
    assert_eq!(
        SCAN_WORK_PIN.map(|(policy, ..)| policy),
        experiments::FIG10_POLICIES
    );
    let mut failures = Vec::new();
    for (policy, admit, migrate) in SCAN_WORK_PIN {
        let (_, run) = observe(ObsLevel::Summary, || {
            simulate(&trace, &counter_config(policy))
        });
        for (name, pin) in [
            ("sim.admit.hosts_examined", Some(admit)),
            ("sim.migrate.hosts_examined", migrate),
        ] {
            let (count, sum) = run
                .metrics
                .histogram(name)
                .map_or((0, 0), |h| (h.count, h.sum));
            let (pin_count, pin_sum) = pin.unwrap_or((0, 0));
            if count != pin_count || sum > 2 * pin_sum {
                failures.push(format!(
                    "{policy:?} {name}: (count, sum) = ({count}, {sum}), pin ({pin_count}, {pin_sum})"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
