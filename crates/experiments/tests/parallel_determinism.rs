//! The parallel-runner determinism contract, end to end: every sweep's
//! rendered output must be byte-identical whatever the worker count.

use drt_experiments::adversarial::{AdversarialCampaign, AdversarialConfig};
use drt_experiments::campaign::{CampaignConfig, LossCampaign};
use drt_experiments::config::ExperimentConfig;
use drt_experiments::multi_failure::{MultiFailureCampaign, MultiFailureConfig};
use drt_experiments::regime::{merged, render, run, stream};
use drt_experiments::restart::{RestartCampaign, RestartConfig};
use drt_experiments::runner::{run_matrix_jobs, SchemeKind};
use drt_sim::workload::TrafficPattern;

fn small_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(3.0);
    cfg.nodes = 20;
    cfg
}

#[test]
fn campaign_table_is_byte_identical_across_job_counts() {
    let cfg = small_cfg();
    let ccfg = CampaignConfig {
        loss_rates: vec![0.0, 0.05, 0.10],
        connections: 25,
        failures: 3,
        max_attempts: 10,
        seed: 13,
    };
    let sweep = LossCampaign::new(&cfg, &ccfg);
    let serial = render(&sweep, &run(&sweep, 1));
    for jobs in [2, 3, 8] {
        let par = render(&sweep, &run(&sweep, jobs));
        assert_eq!(serial, par, "jobs={jobs} changed the table bytes");
    }
}

/// The satellite contract for the sharded probe engine: with a single
/// loss rate, every worker the user asked for goes to the closing sweep
/// (sharded over failure units), and the table bytes still cannot move.
#[test]
fn campaign_sweep_table_is_byte_identical_for_jobs_1_and_8() {
    let cfg = small_cfg();
    let ccfg = CampaignConfig {
        loss_rates: vec![0.10],
        connections: 25,
        failures: 3,
        max_attempts: 10,
        seed: 13,
    };
    let sweep = LossCampaign::new(&cfg, &ccfg);
    let serial = render(&sweep, &run(&sweep, 1));
    let par = render(&sweep, &run(&sweep, 8));
    assert_eq!(serial, par, "sharded closing sweep changed the table bytes");
}

#[test]
fn streamed_output_reproduces_batch_render() {
    let cfg = small_cfg();
    let ccfg = CampaignConfig {
        loss_rates: vec![0.0, 0.10],
        connections: 20,
        failures: 2,
        max_attempts: 10,
        seed: 13,
    };
    let sweep = LossCampaign::new(&cfg, &ccfg);
    let batch = render(&sweep, &run(&sweep, 1));
    // Exactly what the campaign binary does: header, rows as they
    // complete, breakdowns buffered to the end.
    let mut streamed = String::new();
    stream(&sweep, 8, |s| streamed.push_str(s));
    assert_eq!(batch, streamed);
}

#[test]
fn multi_failure_table_is_byte_identical_across_job_counts() {
    let cfg = small_cfg();
    let mcfg = MultiFailureConfig {
        connections: 25,
        events: 3,
        seed: 13,
        ..MultiFailureConfig::default()
    };
    let sweep = MultiFailureCampaign::new(&cfg, &mcfg);
    let serial = render(&sweep, &run(&sweep, 1));
    let par = render(&sweep, &run(&sweep, 8));
    assert_eq!(serial, par);
}

/// The adversarial sweep's table *and* its merged telemetry snapshot
/// are part of the byte-identity contract: the snapshot is printed by
/// the campaign binary, so instrumentation cannot depend on scheduling.
#[test]
fn adversarial_table_and_telemetry_are_byte_identical_across_job_counts() {
    let cfg = small_cfg();
    let acfg = AdversarialConfig {
        connections: 25,
        events: 3,
        strengths: vec![2],
        seed: 13,
        ..AdversarialConfig::default()
    };
    let sweep = AdversarialCampaign::new(&cfg, &acfg);
    let serial_rows = run(&sweep, 1);
    let serial = render(&sweep, &serial_rows);
    let serial_tel = merged(&serial_rows).snapshot();
    for jobs in [2, 8] {
        let rows = run(&sweep, jobs);
        assert_eq!(
            serial,
            render(&sweep, &rows),
            "jobs={jobs} changed the table bytes"
        );
        assert_eq!(
            serial_tel,
            merged(&rows).snapshot(),
            "jobs={jobs} changed the telemetry snapshot bytes"
        );
    }
}

/// The issue's acceptance criterion for the restart-storm campaign:
/// `--jobs 1` and `--jobs 8` must produce byte-identical output — the
/// table *and* the merged telemetry, since both reach stdout.
#[test]
fn restart_storm_is_byte_identical_for_jobs_1_and_8() {
    let cfg = small_cfg();
    let rcfg = RestartConfig {
        schemes: vec![SchemeKind::DLsr, SchemeKind::Bf],
        intensities: vec![4, 8],
        connections: 25,
        seed: 13,
        ..RestartConfig::default()
    };
    let sweep = RestartCampaign::new(&cfg, &rcfg);
    let serial_rows = run(&sweep, 1);
    let serial = render(&sweep, &serial_rows);
    let serial_tel = merged(&serial_rows).snapshot();
    let rows = run(&sweep, 8);
    assert_eq!(
        serial,
        render(&sweep, &rows),
        "jobs=8 changed the table bytes"
    );
    assert_eq!(
        serial_tel,
        merged(&rows).snapshot(),
        "jobs=8 changed the telemetry snapshot bytes"
    );
}

#[test]
fn replay_matrix_is_identical_across_job_counts() {
    let mut cfg = small_cfg();
    cfg.duration = drt_sim::SimDuration::from_minutes(50);
    cfg.warmup = drt_sim::SimDuration::from_minutes(25);
    cfg.snapshots = 1;
    let lambdas = [0.1, 0.2];
    let kinds = [SchemeKind::DLsr, SchemeKind::Bf];
    let patterns = [("UT", TrafficPattern::ut())];
    let serial = run_matrix_jobs(&cfg, &lambdas, &kinds, &patterns, 1);
    let par = run_matrix_jobs(&cfg, &lambdas, &kinds, &patterns, 8);
    assert_eq!(format!("{serial:?}"), format!("{par:?}"));
}
