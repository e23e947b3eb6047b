//! Seeded property test of the live ZombieStack binding: random boots,
//! shutdowns and consolidation rounds on 2–6-server racks.
//!
//! Every boot must land where a naive reference picks: the first active
//! host, most booked CPU first and ties to the lower id, that the
//! registry's ZombieStack placement rule admits, on loads and a pool
//! recomputed from the public `rack()` and `vms()` views. After every
//! step no active host may pass the policy's caps (usage 0.85, booking
//! 1.3), every VM must sit on an active host, and every remote buffer a
//! VM lists must be granted to that host.

use zombieland_acpi::SleepState;
use zombieland_cloud::policy::{HostLoad, ZOMBIE_STACK};
use zombieland_cloud::stack::{VmSpec, ZombieStack};
use zombieland_core::{RackConfig, ServerId};
use zombieland_simcore::{Bytes, DetRng};

const CASES: u64 = 48;
const STEPS: usize = 40;

fn norm(stack: &ZombieStack, b: Bytes) -> f64 {
    b.get() as f64 / stack.rack().config().ram_per_server.get() as f64
}

/// Every active host with its load, summed from `vms()` in id order.
fn active_loads(stack: &ZombieStack) -> Vec<(ServerId, HostLoad)> {
    let rack = stack.rack();
    let usable = norm(
        stack,
        rack.config().ram_per_server - rack.config().system_reserved,
    );
    rack.server_ids()
        .into_iter()
        .filter(|&s| rack.state(s) == Ok(SleepState::S0))
        .map(|s| {
            let (mut cpu_booked, mut cpu_used, mut local) = (0.0, 0.0, Bytes::ZERO);
            for vm in stack.vms().filter(|v| v.host == s) {
                cpu_booked += vm.spec.cpu;
                cpu_used += vm.spec.cpu_used;
                local += vm.local;
            }
            let free_local = (usable - norm(stack, local)).max(0.0);
            (
                s,
                HostLoad {
                    cpu_booked,
                    cpu_used,
                    free_local,
                },
            )
        })
        .collect()
}

/// The naive placement reference: a full sort, then the first host the
/// registry rule admits.
fn reference_pick(stack: &ZombieStack, vm: &VmSpec) -> Option<ServerId> {
    let pool = norm(stack, stack.rack().db().free_memory());
    let mem = norm(stack, vm.mem);
    let mut hosts = active_loads(stack);
    hosts.sort_by(|(a, la), (b, lb)| {
        lb.cpu_booked
            .partial_cmp(&la.cpu_booked)
            .expect("no NaN load")
            .then(a.cmp(b))
    });
    hosts
        .into_iter()
        .find(|(_, load)| {
            ZOMBIE_STACK
                .placement
                .admit(load, vm.cpu, vm.cpu_used, mem, pool)
                .is_some()
        })
        .map(|(s, _)| s)
}

fn check_caps(stack: &ZombieStack, case: u64, step: usize) {
    let active: Vec<ServerId> = active_loads(stack).iter().map(|&(s, _)| s).collect();
    for (s, load) in active_loads(stack) {
        assert!(
            load.cpu_used <= 0.85 + 1e-9 && load.cpu_booked <= 1.3 + 1e-9,
            "case {case} step {step}: host {s} over the caps: {load:?}"
        );
    }
    for vm in stack.vms() {
        assert!(
            active.contains(&vm.host),
            "case {case} step {step}: vm {} on inactive host {}",
            vm.spec.id,
            vm.host
        );
        for &b in &vm.remote_buffers {
            assert!(
                stack.rack().manager(vm.host).buffer_record(b).is_ok(),
                "case {case} step {step}: vm {} lists {b:?}, not granted to host {}",
                vm.spec.id,
                vm.host
            );
        }
    }
}

#[test]
fn boots_match_the_reference_and_rounds_keep_the_caps() {
    let (mut boots, mut woken, mut migrations) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5A5A_0000 + case);
        let servers = rng.range(2, 7) as u32;
        let mut stack = ZombieStack::new(RackConfig {
            servers,
            ..RackConfig::default()
        });
        let mut next_id = 0u64;
        for step in 0..STEPS {
            let roll = rng.f64();
            if roll < 0.5 {
                let cpu = rng.range_f64(0.05, 0.6);
                let mem = Bytes::mib(rng.range(512, 12 * 1024));
                let vm = VmSpec {
                    id: next_id,
                    cpu,
                    mem,
                    wss: mem.mul_f64(rng.range_f64(0.2, 1.0)),
                    // Half the VMs idle, so underloaded hosts hold several.
                    cpu_used: cpu * rng.f64() * if rng.chance(0.5) { 0.1 } else { 1.0 },
                };
                next_id += 1;
                let expected = reference_pick(&stack, &vm);
                let before: Vec<ServerId> = active_loads(&stack).iter().map(|&(s, _)| s).collect();
                match (stack.boot_vm(vm), expected) {
                    (Ok(host), Some(want)) => {
                        assert_eq!(host, want, "case {case} step {step}: boot of {vm:?}");
                        boots += 1;
                    }
                    // No active host fitted: only a woken zombie may
                    // take the VM.
                    (Ok(host), None) => {
                        assert!(
                            !before.contains(&host),
                            "case {case} step {step}: {host} was active and rejected"
                        );
                        woken += 1;
                    }
                    (Err(_), Some(want)) => {
                        panic!("case {case} step {step}: boot failed, reference picks {want}")
                    }
                    (Err(_), None) => {}
                }
            } else if roll < 0.75 {
                let ids: Vec<u64> = stack.vms().map(|v| v.spec.id).collect();
                if let Some(&id) = rng.choose(&ids) {
                    stack.shutdown_vm(id).unwrap();
                }
            } else {
                let report = stack
                    .consolidate()
                    .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
                migrations += report.migrations.len();
            }
            check_caps(&stack, case, step);
        }
    }
    // The mix reaches every path it is meant to check.
    assert!(boots > 100, "boots on active hosts: {boots}");
    assert!(woken > 0, "boots that woke a zombie: {woken}");
    assert!(migrations > 0, "consolidation migrations: {migrations}");
}
