//! The incremental consolidation layer (DESIGN §13): `consolidate()`
//! re-keys only hosts whose load changed since the last round and walks
//! a used-ordered index with an early exit, instead of gathering and
//! sorting every active host. That is a scan restructuring, not a
//! policy change — at any `--jobs` count the `SimReport`s must stay
//! byte-identical, and (in debug builds) the in-loop `validate()` sweep
//! asserts the dirty-set invariants after every consolidation round of
//! every run below.

use zombieland::energy::MachineProfile;
use zombieland::simcore::run_indexed;
use zombieland::simulator::{simulate, PolicyKind, SimConfig, SimReport};
use zombieland_bench::experiments;

/// Consolidating policies only — AlwaysOn never runs the scan under
/// test. ZombieStack additionally exercises the mid-round `by_used`
/// edits (evacuated hosts leave the index while the candidate snapshot
/// is being consumed).
const POLICIES: [PolicyKind; 3] = [PolicyKind::Neat, PolicyKind::Oasis, PolicyKind::ZombieStack];

/// Every policy of `policies` on `trace`, fanned out over `jobs`
/// workers, in policy order.
fn run(
    trace: &zombieland::trace::ClusterTrace,
    policies: &[PolicyKind],
    racks: u32,
    jobs: usize,
) -> Vec<SimReport> {
    run_indexed(jobs, policies.len(), |i| {
        let cfg = SimConfig {
            racks,
            ..SimConfig::new(policies[i], MachineProfile::hp())
        };
        simulate(trace, &cfg)
    })
}

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
}

/// Dirty-set consolidation is invariant over jobs {1, 2}: the runs
/// fanned out over two workers reproduce the serial reports bit for
/// bit.
#[test]
fn dirty_set_consolidation_is_job_invariant() {
    let trace = experiments::fig10_trace(160, 1, 11);
    let serial = run(&trace, &POLICIES, 8, 1);
    let fanned = run(&trace, &POLICIES, 8, 2);
    for (i, policy) in POLICIES.iter().enumerate() {
        assert_bytes_equal(&serial[i], &fanned[i], &format!("{policy:?} jobs=2"));
    }
}

/// A fleet that churns through wake/evacuate cycles (odd rack split,
/// longer horizon) keeps the lazy used-keys coherent: cooldown expiry,
/// reactivation re-filing and mid-round dirtying all hit here, with
/// debug `validate()` checking `by_used` after every round.
#[test]
fn churny_fleet_stays_coherent_across_jobs() {
    let trace = experiments::fig10_trace(130, 2, 23);
    let policies = [PolicyKind::Neat, PolicyKind::ZombieStack];
    let serial = run(&trace, &policies, 7, 1);
    let fanned = run(&trace, &policies, 7, 2);
    for (i, policy) in policies.iter().enumerate() {
        assert_bytes_equal(
            &serial[i],
            &fanned[i],
            &format!("{policy:?} churny 7-rack fleet"),
        );
    }
}
