//! Policy-conformance suite: every registered policy runs over a pinned
//! small trace and must keep producing exactly the reports the
//! pre-refactor (monolithic `match cfg.policy`) simulator produced.
//!
//! The golden in `tests/golden/policy_conformance_40x1.txt` captures the
//! full report of each paper policy — energy, migrations, wakeups, drops,
//! state-seconds integrals and peak parked memory — with floats rendered
//! as their exact bit patterns, so a single ULP of drift anywhere in the
//! policy/power extraction fails the suite.

use zombieland::energy::MachineProfile;
use zombieland::simulator::{policy, simulate, PolicyKind, SimConfig, SimReport};
use zombieland_bench::experiments;

/// The paper's four policies, baseline first (pinned order).
const PAPER_POLICIES: [PolicyKind; 4] = [
    PolicyKind::AlwaysOn,
    PolicyKind::Neat,
    PolicyKind::Oasis,
    PolicyKind::ZombieStack,
];

/// Renders one report with bit-exact floats.
fn render(label: &str, r: &SimReport) -> String {
    format!
        ("{label} energy={:#018x} migrations={} wakeups={} dropped={} overcommitted={} state_s=[{:#018x},{:#018x},{:#018x}] peak_parked={:#018x}\n",
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

fn pinned_reports() -> String {
    let trace = experiments::fig10_trace(40, 1, 11);
    let mut out = String::new();
    for p in PAPER_POLICIES {
        let cfg = SimConfig::new(p, MachineProfile::hp());
        assert_eq!(cfg.racks, 1, "the golden runs the one-rack config");
        let r = simulate(&trace, &cfg);
        // The label comes from the report itself, so the golden also pins
        // the registry's `label` strings end to end.
        out.push_str(&render(r.policy, &r));
    }
    out
}

/// (a) The three paper policies (plus the AlwaysOn baseline) are
/// byte-identical to the pre-refactor goldens.
#[test]
fn paper_policies_match_prerefactor_golden() {
    let golden = include_str!("golden/policy_conformance_40x1.txt");
    assert_eq!(
        pinned_reports(),
        golden,
        "a registered paper policy drifted from the monolith's reports"
    );
}

/// (b) A policy outside [`PolicyKind`] — the `noconsolidate` toy — is a
/// first-class citizen: it resolves through the registry by name
/// (case-insensitively, as the CLI's `--policy` flag does), runs through
/// [`simulate`], and labels its own report.
#[test]
fn toy_policy_round_trips_through_registry() {
    let spec = policy::lookup("NoConsolidate").expect("toy policy is registered");
    assert_eq!(spec.key, "noconsolidate");
    assert!(
        policy::REGISTRY.iter().any(|s| std::ptr::eq(*s, spec)),
        "lookup must hand back the registry's own static"
    );

    let trace = experiments::fig10_trace(40, 1, 11);
    let r = simulate(&trace, &SimConfig::with_spec(spec, MachineProfile::hp()));
    assert_eq!(r.policy, "NoConsolidate", "report carries the spec's label");

    // Full-booking placement with consolidation disabled never suspends a
    // host, so the toy must reproduce the AlwaysOn baseline bit for bit.
    let baseline = simulate(
        &trace,
        &SimConfig::new(PolicyKind::AlwaysOn, MachineProfile::hp()),
    );
    assert_eq!(r.energy.get().to_bits(), baseline.energy.get().to_bits());
    assert_eq!(r.migrations, baseline.migrations);
    assert_eq!(r.wakeups, baseline.wakeups);
    assert_eq!(r.dropped, baseline.dropped);
    assert_eq!(r.overcommitted, baseline.overcommitted);
    for (a, b) in r.state_seconds.iter().zip(baseline.state_seconds.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Prints the golden body (run with `--ignored --nocapture` to
/// regenerate after an intentional behavior change).
#[test]
#[ignore]
fn regenerate_golden() {
    print!("{}", pinned_reports());
}
