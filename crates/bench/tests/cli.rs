//! End-to-end tests of the `zombieland` CLI binary: strict flag
//! rejection and the observability export surface, driven through
//! `std::process::Command` against the real executable.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zombieland-cli"))
}

#[test]
fn unknown_flags_are_rejected_with_usage() {
    for args in [
        vec!["experiment", "fig9", "--bogus"],
        vec!["simulate", "--serverz", "10"],
        vec!["trace", "--out", "/dev/null", "--fast"],
        vec!["list", "--verbose"],
        vec!["bench", "--quick"],
        vec!["bench", "--paper"],
        vec!["bench", "--jobs", "2"],
        vec!["bench", "--baseline-ns", "1"],
    ] {
        let out = bin().args(&args).output().expect("spawns");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn trailing_positionals_and_bad_obs_levels_are_rejected() {
    let out = bin().args(["list", "everything"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));

    let out = bin()
        .args(["--obs-level", "loud", "list"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown obs level"));

    let out = bin()
        .args(["list", "--obs-level"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2), "dangling value flag");
}

#[test]
fn obs_artifacts_written_and_validated() {
    let dir = std::env::temp_dir().join(format!("zl-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.json");

    // fig9 is the fastest traced experiment: pure migration arithmetic.
    let out = bin()
        .args(["--obs-level", "full", "experiment", "fig9", "--trace-out"])
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== Metrics =="), "metrics table: {stdout}");

    let body = std::fs::read_to_string(&trace).expect("trace written");
    assert!(!body.is_empty(), "trace has events");
    for line in body.lines() {
        let v = zombieland_trace::json::parse(line).expect("every line parses");
        assert!(v.get("at").and_then(|a| a.as_u64()).is_some());
    }
    let doc = std::fs::read_to_string(&metrics).expect("metrics written");
    zombieland_trace::json::parse(doc.trim()).expect("metrics parse");

    // The CLI's own validator accepts the artifact...
    let v = bin()
        .arg("validate-trace")
        .arg(&trace)
        .output()
        .expect("spawns");
    assert!(v.status.success());
    // ...and rejects an empty file.
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").expect("write empty");
    let v = bin()
        .arg("validate-trace")
        .arg(&empty)
        .output()
        .expect("spawns");
    assert_eq!(v.status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_obs_level_prints_no_observability_output() {
    let out = bin().args(["experiment", "fig9"]).output().expect("spawns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("== Metrics =="),
        "off by default: {stdout}"
    );
}
