//! Soundness of the policies' booked-CPU ceilings.
//!
//! The simulator's admission and migration walks seek past every host
//! with `cpu_booked + cpu > ceiling + 1e-9` without asking the policy
//! (DESIGN §7). That is only correct if each registered policy that
//! declares a ceiling really rejects all of those hosts — whatever their
//! other load, memory and pool figures. These properties check it
//! through the public traits, over random draws and over pinned
//! boundary loads: exactly at `ceiling + 1e-9 - cpu`, one ulp either
//! side, `-0.0`, and hosts already overcommitted past the ceiling.

use proptest::prelude::*;
use zombieland::simulator::policy::{HostLoad, MigrantVm, REGISTRY};
use zombieland::simulator::PolicyKind;

/// Packing caps to judge migrations under: the default (0.90), one
/// server, and an overcommitted cap.
const FILL_CAPS: [f64; 3] = [0.90, 1.0, 1.3];

/// The `cpu_booked + cpu > ceiling + 1e-9` test, in the policies' order.
fn over(booked: f64, cpu: f64, ceiling: f64) -> bool {
    booked + cpu > ceiling + 1e-9
}

/// Booked loads on and around the seek boundary for a VM booking `cpu`.
fn boundary_loads(ceiling: f64, cpu: f64) -> [f64; 7] {
    let at = ceiling + 1e-9 - cpu;
    [
        at,
        at.next_up(),
        at.next_down(),
        -0.0,
        0.0,
        ceiling + 0.5,
        3.0,
    ]
}

/// A host with room on every axis but booked CPU, so a ceiling that
/// overstates the policy's rule would show up as an admission.
fn roomy(cpu_booked: f64) -> HostLoad {
    HostLoad {
        cpu_booked,
        cpu_used: 0.0,
        free_local: 1.0,
    }
}

/// Checks every ceiling-declaring policy against one host and VM;
/// returns how many (policy, rule) pairs found the host over a ceiling.
fn check(host: &HostLoad, cpu: f64, cpu_used: f64, mem: f64, pool: f64) -> usize {
    let mut over_count = 0;
    for spec in REGISTRY {
        if let Some(ceiling) = spec.placement.booked_ceiling() {
            if over(host.cpu_booked, cpu, ceiling) {
                over_count += 1;
                assert_eq!(
                    spec.placement.admit(host, cpu, cpu_used, mem, pool),
                    None,
                    "{} admits past its ceiling {ceiling}: {host:?} cpu {cpu}",
                    spec.key
                );
            }
        }
        let vm = MigrantVm {
            cpu_booked: cpu,
            cpu_used,
            mem,
            wss: mem,
        };
        for cap in FILL_CAPS {
            if let Some(ceiling) = spec.consolidation.booked_ceiling(cap) {
                if over(host.cpu_booked, cpu, ceiling) {
                    over_count += 1;
                    assert!(
                        !spec.consolidation.accepts_migration(host, &vm, pool, cap),
                        "{} accepts a migration past its ceiling {ceiling} (fill cap {cap}): \
                         {host:?} {vm:?}",
                        spec.key
                    );
                }
            }
        }
    }
    over_count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_hosts_past_the_ceiling_are_rejected(
        booked in 0.0f64..3.0,
        used in 0.0f64..1.5,
        free_local in 0.0f64..1.2,
        cpu in 0.0f64..1.5,
        cpu_used in 0.0f64..1.0,
        mem in 0.0f64..2.0,
        pool in 0.0f64..5.0,
    ) {
        let host = HostLoad { cpu_booked: booked, cpu_used: used, free_local };
        check(&host, cpu, cpu_used, mem, pool);
        // The same booking on a host with room everywhere else.
        check(&roomy(booked), cpu, 0.0, mem.min(1.0), 5.0);
    }

    #[test]
    fn boundary_hosts_past_the_ceiling_are_rejected(cpu in 0.0f64..1.5) {
        for ceiling in [1.0, 1.3, 0.90] {
            for booked in boundary_loads(ceiling, cpu) {
                check(&roomy(booked), cpu, 0.0, 0.5, 5.0);
            }
        }
    }
}

/// Every paper policy declares a placement ceiling (the admission seek
/// relies on it), and the pinned boundary cases really do reach past
/// the ceilings — so the properties above are not vacuous.
#[test]
fn ceilings_are_declared_and_exercised() {
    for kind in [
        PolicyKind::AlwaysOn,
        PolicyKind::Neat,
        PolicyKind::Oasis,
        PolicyKind::ZombieStack,
    ] {
        assert!(
            kind.spec().placement.booked_ceiling().is_some(),
            "{kind:?}: placement ceiling"
        );
    }
    let mut over = 0;
    for cpu in [0.0, 0.25, 0.5, 1.0] {
        for ceiling in [1.0, 1.3, 0.90] {
            for booked in boundary_loads(ceiling, cpu) {
                over += check(&roomy(booked), cpu, 0.0, 0.5, 5.0);
            }
        }
    }
    assert!(over > 100, "boundary cases past a ceiling: {over}");
}
