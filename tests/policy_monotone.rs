//! Monotonicity of every registered policy.
//!
//! The simulator's admission and migration walks skip a whole block of
//! the stacking order when the policy rejects the block's best case:
//! its least booking and usage, its most free local memory, and the
//! largest free pool of the scan (DESIGN §7). That is only correct if
//! each policy is *monotone*: a host no worse on every axis (booked and
//! used CPU `<=`, free local memory and pool `>=`) is accepted whenever
//! a worse one is. These properties check it through the public traits,
//! for `admit` and for `accepts_migration` under every fill cap, over
//! random draws and over pinned boundaries — each rule's threshold
//! exactly, one ulp either side, and `-0.0`.

use proptest::prelude::*;
use zombieland::simulator::policy::{HostLoad, MigrantVm, REGISTRY};

/// Packing caps to judge migrations under: the default (0.90), one
/// server, and an overcommitted cap.
const FILL_CAPS: [f64; 3] = [0.90, 1.0, 1.3];

/// A host's load together with its rack's free pool.
#[derive(Clone, Copy, Debug)]
struct Point {
    host: HostLoad,
    pool: f64,
}

fn point(booked: f64, used: f64, free_local: f64, pool: f64) -> Point {
    Point {
        host: HostLoad {
            cpu_booked: booked,
            cpu_used: used,
            free_local,
        },
        pool,
    }
}

/// An arriving or migrating VM: booked CPU, used CPU, memory and WSS.
#[derive(Clone, Copy, Debug)]
struct Vm {
    cpu: f64,
    cpu_used: f64,
    mem: f64,
    wss: f64,
}

/// Asserts that every policy accepting `worse` also accepts `better`
/// (which must be no worse on every axis); returns how many policy
/// rules accepted `worse`, so callers can show the checks bite.
fn check(better: &Point, worse: &Point, vm: Vm) -> usize {
    assert!(
        better.host.cpu_booked <= worse.host.cpu_booked
            && better.host.cpu_used <= worse.host.cpu_used
            && better.host.free_local >= worse.host.free_local
            && better.pool >= worse.pool,
        "fixture: {better:?} does not dominate {worse:?}"
    );
    let mut accepted = 0;
    for spec in REGISTRY {
        let admit = |p: &Point| {
            spec.placement
                .admit(&p.host, vm.cpu, vm.cpu_used, vm.mem, p.pool)
                .is_some()
        };
        if admit(worse) {
            accepted += 1;
            assert!(
                admit(better),
                "{} admits {worse:?} but not the better {better:?}: {vm:?}",
                spec.key
            );
        }
        let migrant = MigrantVm {
            cpu_booked: vm.cpu,
            cpu_used: vm.cpu_used,
            mem: vm.mem,
            wss: vm.wss,
        };
        for cap in FILL_CAPS {
            let accepts = |p: &Point| {
                spec.consolidation
                    .accepts_migration(&p.host, &migrant, p.pool, cap)
            };
            if accepts(worse) {
                accepted += 1;
                assert!(
                    accepts(better),
                    "{} (fill cap {cap}) accepts a migration to {worse:?} but not to the \
                     better {better:?}: {vm:?}",
                    spec.key
                );
            }
        }
    }
    accepted
}

/// `v` and one ulp either side.
fn around(v: f64) -> [f64; 3] {
    [v.next_down(), v, v.next_up()]
}

/// Values on each axis at which some policy's rule flips, for `vm`:
/// booked at the ceilings, used at `0.85 + 1e-9 - cpu_used`, free
/// local at the 50 % local rule, the 30 %-of-WSS rule and the full
/// booking, pool at `mem - local` for each of those free values.
fn boundaries(vm: Vm) -> [Vec<f64>; 4] {
    let mut booked = vec![-0.0, 0.0];
    for ceiling in [1.0, 1.3, 0.90] {
        booked.extend(around(ceiling + 1e-9 - vm.cpu));
    }
    let mut used = vec![-0.0, 0.0];
    used.extend(around(0.85 + 1e-9 - vm.cpu_used));
    let mut free = vec![-0.0, 0.0];
    for rule in [0.5 * vm.mem, 0.30 * vm.wss, vm.mem] {
        free.extend(around(rule - 1e-9));
    }
    let mut pool = vec![-0.0, 0.0];
    for &f in &free {
        pool.extend(around(vm.mem - vm.mem.min(f) - 1e-9));
    }
    [booked, used, free, pool]
}

/// For each axis in turn, every ordered pair of boundary values on it,
/// with the other axes held at each of their own boundary values (a
/// rotating pick keeps the product small).
fn check_boundaries(vm: Vm) -> usize {
    let axes = boundaries(vm);
    let mut accepted = 0;
    for axis in 0..4 {
        for (k, &a) in axes[axis].iter().enumerate() {
            for &b in &axes[axis] {
                // `lo` is the better value on this axis.
                let (lo, hi) = if a <= b { (a, b) } else { continue };
                let mut base = [0.0; 4];
                for (other, vals) in axes.iter().enumerate() {
                    base[other] = vals[(k + other) % vals.len()];
                }
                let (mut better, mut worse) = (base, base);
                if axis < 2 {
                    (better[axis], worse[axis]) = (lo, hi);
                } else {
                    (better[axis], worse[axis]) = (hi, lo);
                }
                accepted += check(
                    &point(better[0], better[1], better[2], better[3]),
                    &point(worse[0], worse[1], worse[2], worse[3]),
                    vm,
                );
            }
        }
    }
    accepted
}

/// A delta on one axis: often exactly zero, otherwise small.
fn delta() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0f64..0.4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn random_better_hosts_are_accepted(
        booked in 0.0f64..2.0,
        used in 0.0f64..1.2,
        free_local in 0.0f64..1.0,
        pool in 0.0f64..3.0,
        d_booked in delta(),
        d_used in delta(),
        d_free in delta(),
        d_pool in delta(),
        cpu in 0.0f64..1.0,
        cpu_used in 0.0f64..0.8,
        mem in 0.0f64..1.5,
        wss_share in 0.0f64..1.0,
    ) {
        let vm = Vm { cpu, cpu_used, mem, wss: mem * wss_share };
        let worse = point(booked, used, free_local, pool);
        let better = point(
            (booked - d_booked).max(0.0),
            (used - d_used).max(0.0),
            free_local + d_free,
            pool + d_pool,
        );
        check(&better, &worse, vm);
    }

    #[test]
    fn boundary_hosts_are_monotone(
        cpu in 0.0f64..1.0,
        cpu_used in 0.0f64..0.8,
        mem in 0.0f64..1.5,
        wss_share in 0.0f64..1.0,
    ) {
        check_boundaries(Vm { cpu, cpu_used, mem, wss: mem * wss_share });
    }
}

/// The pinned boundaries really do sit where rules flip: at fixed VMs,
/// many (policy, rule) pairs accept the worse host of a pair, so the
/// implications above are not vacuous.
#[test]
fn boundary_checks_are_exercised() {
    let mut accepted = 0;
    for cpu in [0.0, 0.25, 0.5] {
        for mem in [0.0, 0.3, 0.9] {
            accepted += check_boundaries(Vm {
                cpu,
                cpu_used: cpu / 2.0,
                mem,
                wss: mem / 2.0,
            });
        }
    }
    assert!(
        accepted > 10_000,
        "boundary pairs a policy accepted: {accepted}"
    );
}
