//! Golden-output test for the `campaign` binary: every table it prints
//! must stay byte for byte what the fixtures in `tests/golden/` record,
//! at every `--jobs`. Stderr (progress lines) is not compared.
//!
//! The fixtures were captured from the binary before the sweep families
//! moved onto one regime driver; the serial and parallel captures were
//! identical, so each run has one fixture and every job count listed
//! below is checked against it. Every `(regime, jobs)` pair is also a
//! smoke run: the binary must exit 0. To regenerate after an intended
//! output change, run the binary with the listed arguments and
//! `--jobs 1`, and redirect stdout into the fixture.

use std::path::Path;
use std::process::Command;

/// The eight `--regime` names, in the order a full run prints them.
const REGIMES: [&str; 8] = [
    "indep-links",
    "srlg-bursts",
    "node-crashes",
    "byzantine-lsa",
    "false-reports",
    "flash-crowd",
    "regional-storm",
    "restart-storm",
];

fn campaign_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign binary runs");
    assert!(
        out.status.success(),
        "campaign {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Runs `args` once per `variants` suffix and compares each stdout with
/// `fixture`.
fn check(fixture: &str, args: &[&str], variants: &[&[&str]]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(fixture);
    let want = std::fs::read_to_string(&path).expect("fixture present");
    for extra in variants {
        let full = [args, extra].concat();
        let got = campaign_stdout(&full);
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
            panic!("campaign {full:?} differs from {fixture} at {line}");
        }
    }
}

#[test]
fn quick_run_matches_fixture_at_jobs_1_and_8() {
    // No `--jobs` flag at all is the default single worker.
    check(
        "quick.txt",
        &["--quick"],
        &[&[], &["--jobs", "1"], &["--jobs", "8"]],
    );
}

#[test]
fn every_regime_matches_its_fixture_at_jobs_1_2_and_8() {
    for r in REGIMES {
        check(
            &format!("quick-{r}.txt"),
            &["--quick", "--regime", r],
            &[&["--jobs", "1"], &["--jobs", "2"], &["--jobs", "8"]],
        );
    }
}

#[test]
fn paper_scale_matches_fixture_at_jobs_2() {
    check("paper.txt", &[], &[&["--jobs", "2"]]);
}
