//! Failure campaign under a lossy control plane: timed link failures
//! injected into the *chaotic* protocol simulation, with backup
//! re-establishment between failures.
//!
//! Where [`crate::signalling`] prices DR-connection management over a
//! perfect control plane, this harness asks the robustness question: how
//! do recovery latency, `P_act-bk`, and degradation counts move as the
//! signalling channel itself loses packets? Routes are selected by a
//! mirrored centralized [`DrtpManager`] (also the `P_act-bk` estimator);
//! establishment, switchover, and re-protection all run through
//! [`drt_proto::ProtocolSim`] under a [`ChaosConfig`], so every control
//! packet the campaign measures really crossed the lossy plane.
//!
//! Everything is driven by `drt_sim::rng` substreams of one master seed:
//! the same seed reproduces the same table, loss rate by loss rate. The
//! sweep is a [`Regime`] with one cell per loss rate; the tallies of
//! each cell are recorded into its [`Telemetry`] and every column is a
//! projection of it.

use crate::config::ExperimentConfig;
use crate::regime::{self, CellOutcome, Column, Regime, Stat, Unit, Value};
use crate::runner::SchemeKind;
use drt_core::routing::RoutingScheme;
use drt_core::{ConnectionId, DrtpManager, Telemetry};
use drt_net::Network;
use drt_proto::{ChaosConfig, ConnOutcome, ProtocolConfig, ProtocolSim, RetryConfig};
use drt_sim::workload::TrafficPattern;
use drt_sim::SimDuration;
use std::sync::Arc;

/// Knobs of the failure campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Control-plane per-hop loss rates to sweep (the paper's plane is
    /// implicitly `0.0`).
    pub loss_rates: Vec<f64>,
    /// Connections to establish before the failures start.
    pub connections: usize,
    /// Timed link failures to inject, one at a time, with backup
    /// re-establishment between them.
    pub failures: usize,
    /// Retransmission attempts per signalling transaction.
    pub max_attempts: u32,
    /// Master seed for chaos, link choice, and probes.
    pub seed: u64,
}

impl Default for CampaignConfig {
    /// The acceptance sweep: 0–20 % loss, 100 connections, 6 failures.
    fn default() -> Self {
        CampaignConfig {
            loss_rates: vec![0.0, 0.05, 0.10, 0.15, 0.20],
            connections: 100,
            failures: 6,
            max_attempts: 12,
            seed: 7,
        }
    }
}

impl CampaignConfig {
    /// The CI-scale sweep (`campaign --quick`): 40 connections, 4 failures.
    pub fn quick() -> Self {
        CampaignConfig {
            connections: 40,
            failures: 4,
            ..CampaignConfig::default()
        }
    }
}

/// The loss sweep as a [`Regime`]: one cell per loss rate.
#[derive(Debug)]
pub struct LossCampaign {
    cfg: ExperimentConfig,
    ccfg: CampaignConfig,
    net: Arc<Network>,
    scheme: fn() -> Box<dyn RoutingScheme>,
}

impl LossCampaign {
    /// The sweep `ccfg` on the experiment network of `cfg`, routed by
    /// D-LSR.
    ///
    /// # Panics
    ///
    /// Panics when the experiment topology cannot be built.
    pub fn new(cfg: &ExperimentConfig, ccfg: &CampaignConfig) -> Self {
        LossCampaign {
            cfg: cfg.clone(),
            ccfg: ccfg.clone(),
            net: Arc::new(cfg.build_network().expect("experiment topology")),
            scheme: || SchemeKind::DLsr.instantiate(),
        }
    }

    /// Routes with `scheme` instead (one instance per worker). The bench
    /// harness uses this to time the sparse-baseline cost engine end to
    /// end; the table is identical as long as the schemes select
    /// identically.
    pub(crate) fn with_scheme(self, scheme: fn() -> Box<dyn RoutingScheme>) -> Self {
        LossCampaign { scheme, ..self }
    }
}

impl Regime for LossCampaign {
    type Cell = f64;
    type Worker = Box<dyn RoutingScheme>;

    fn cells(&self) -> Vec<f64> {
        self.ccfg.loss_rates.clone()
    }

    fn worker(&self) -> Box<dyn RoutingScheme> {
        (self.scheme)()
    }

    /// # Panics
    ///
    /// Panics when a connection ends the establishment phase in a state
    /// other than established, degraded, or rejected (the protocol's
    /// liveness guarantee).
    fn run_cell(
        &self,
        scheme: &mut Box<dyn RoutingScheme>,
        &loss: &f64,
        sweep_jobs: usize,
    ) -> CellOutcome {
        let (cfg, ccfg) = (&self.cfg, &self.ccfg);
        let scheme = scheme.as_mut();
        let mut mirror =
            DrtpManager::with_config(Arc::clone(&self.net), SchemeKind::DLsr.manager_config());
        let chaos = ChaosConfig {
            drop_prob: loss,
            dup_prob: 0.02,
            max_jitter: SimDuration::from_micros(200),
            crashes: Vec::new(),
            seed: drt_sim::rng::substream_seed(ccfg.seed, &format!("chaos-{}", per_mille(loss))),
            ..ChaosConfig::default()
        };
        let retry = RetryConfig {
            max_attempts: ccfg.max_attempts,
            ..RetryConfig::default()
        };
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&self.net),
            ProtocolConfig::default(),
            retry,
            chaos,
        );
        let mut t = Telemetry::new();

        // Phase 1: establish the workload through the lossy plane.
        let mut live: Vec<ConnectionId> = Vec::new();
        let mut rejected = 0;
        for req in regime::arrivals(cfg, TrafficPattern::ut()) {
            if live.len() + rejected >= ccfg.connections {
                break;
            }
            let conn = req.id;
            let Ok(rep) = mirror.request_connection(scheme, req) else {
                continue; // no feasible route — not a signalling outcome
            };
            sim.establish(conn, req.bandwidth(), rep.primary, rep.backups);
            sim.run_to_quiescence();
            match sim.outcome(conn).expect("submitted") {
                ConnOutcome::Established => {
                    t.incr("proto.established");
                    live.push(conn);
                }
                ConnOutcome::Degraded => {
                    // Unprotected but live: mirror the lost protection.
                    t.incr("proto.degraded_setup");
                    mirror.drop_backups(conn).expect("mirror holds the conn");
                    live.push(conn);
                }
                ConnOutcome::Rejected => {
                    t.incr("proto.rejected");
                    rejected += 1;
                    mirror.release(conn).expect("mirror holds the conn");
                }
                other => panic!("establishment cannot end in {other:?}"),
            }
        }

        // Phase 2: the failure campaign.
        let mut link_rng = drt_sim::rng::stream(ccfg.seed, "campaign-links");
        for round in 0..ccfg.failures {
            let Some(link) = regime::pick(&regime::loaded_links(&mirror), &mut link_rng) else {
                break; // nothing left to fail
            };
            let log_before = sim.recovery_log().len();
            // This campaign predates the orchestrator seam: it drives the
            // *distributed* engine directly and reconciles the mirror by
            // hand below, which is exactly the bookkeeping the seam would
            // own.
            // lint:allow(raw-fail-link) — pre-seam campaign: mirror reconciled by hand below
            sim.fail_link(link);
            sim.run_to_quiescence();

            // The distributed outcome is authoritative; the mirror replays
            // the failure (counted in `inject.events`) and is reconciled
            // to it.
            let mut inject_rng =
                drt_sim::rng::indexed_stream(ccfg.seed, "campaign-inject", round as u64);
            let report = mirror
                .inject_failure(link, &mut inject_rng)
                .expect("link picked among live ones");
            for rec in &sim.recovery_log()[log_before..] {
                if rec.recovered {
                    t.incr("proto.switched");
                    t.observe_duration("proto.recovery_us", rec.latency());
                } else {
                    t.incr("proto.lost");
                    live.retain(|&c| c != rec.conn);
                }
            }
            for &id in report.switched.iter().chain(&report.lost) {
                let sim_says = sim.outcome(id).expect("mirror conns exist in the sim");
                let mirror_carrying = mirror
                    .connection(id)
                    .is_some_and(|c| c.state().is_carrying_traffic());
                if !sim_says.is_established() && mirror_carrying {
                    // Chaos downed what the mirror recovered (switch
                    // retries exhausted): free the mirror's promoted route
                    // too.
                    mirror.release(id).expect("carrying above");
                }
            }
            // Registered backups that cross the failed link can never
            // activate: retire them on the sources that still hold them.
            for &c in &live {
                sim.retire_backups_crossing(c, link);
            }
            sim.run_to_quiescence();

            // Phase 3 (interleaved): re-protect unprotected survivors via
            // the centralized reconfiguration step.
            for &c in &live {
                if !sim.outcome(c).expect("tracked").is_established()
                    || !sim.registered_backups(c).is_empty()
                {
                    continue;
                }
                let mirror_bare = mirror
                    .connection(c)
                    .is_some_and(|m| m.state().is_carrying_traffic() && m.backups().is_empty());
                if !mirror_bare {
                    continue;
                }
                if mirror.reestablish_backup(scheme, c).is_err() {
                    continue; // no feasible backup right now
                }
                let backup = mirror
                    .connection(c)
                    .expect("just reestablished")
                    .backups()
                    .last()
                    .expect("just installed")
                    .clone();
                assert!(sim.add_backup(c, backup), "sim conn is live");
                sim.run_to_quiescence();
                if sim.outcome(c) == Some(ConnOutcome::Established) {
                    t.incr("proto.reprotected");
                } else {
                    // Registration exhausted its retries under chaos.
                    mirror.drop_backups(c).expect("carrying above");
                }
            }
        }

        t.merge(mirror.telemetry());
        t.add("proto.retransmissions", sim.counters().retransmitted().0);
        t.add("proto.exhausted", sim.exhausted().map(|(_, n)| n).sum());
        // The closing sweep first asserts that the mirror stayed coherent
        // through every reconciliation above.
        let seed = drt_sim::rng::substream_seed(ccfg.seed, "probe");
        let worst_links = regime::closing_sweep(&mirror, seed, sweep_jobs, &mut t);
        CellOutcome {
            telemetry: t,
            worst_links,
        }
    }

    fn title(&self) -> String {
        format!(
            "Failure campaign under control-plane loss ({} nodes, {} links)",
            self.net.num_nodes(),
            self.net.num_links()
        )
    }

    fn columns(&self) -> Vec<Column<f64>> {
        use Value::{Count, Hist};
        vec![
            Column::right("loss%", 6, Value::Cell(|l| format!("{:.1}", l * 100.0))),
            Column::right("estab", 6, Count(&["proto.established"])),
            Column::right("degr", 6, Count(&["proto.degraded_setup"])),
            Column::right("rej", 4, Count(&["proto.rejected"])),
            Column::right("fails", 6, Count(&["inject.events"])),
            Column::right("switch", 6, Count(&["proto.switched"])),
            Column::right("lost", 5, Count(&["proto.lost"])),
            Column::right("reprot", 7, Count(&["proto.reprotected"])),
            Column::right(
                "mean-rec",
                9,
                Hist("proto.recovery_us", Stat::Mean, Unit::Ms),
            ),
            Column::right("max-rec", 9, Hist("proto.recovery_us", Stat::Max, Unit::Ms)),
            Column::right(
                "P_act-bk",
                9,
                Value::Ratio("sweep.activated", "sweep.affected"),
            ),
            Column::right("probeD", 7, Count(&["sweep.degraded"])),
            Column::right("retx", 6, Count(&["proto.retransmissions"])),
            Column::right("exh", 6, Count(&["proto.exhausted"])),
            Column::right("cHit", 5, Count(&["cache.hits"])),
            Column::right("cMiss", 5, Count(&["cache.misses"])),
        ]
    }

    fn breakdown_label(&self, loss: &f64) -> Option<String> {
        Some(format!("loss {:>4.1}%", loss * 100.0))
    }

    fn footer(&self, _: &Telemetry) -> String {
        "\nreading guide: every control packet crosses a chaotic plane that\n\
         drops each hop with probability `loss%` (plus 2% duplication and\n\
         200us jitter). Retransmission with exponential backoff keeps the\n\
         signalling live: `retx` counts retries, `exh` counts transactions\n\
         that ran out of attempts, and `degr` the connections that came up\n\
         unprotected as a result. Between failures DRTP's reconfiguration\n\
         step re-establishes backups (`reprot`); `P_act-bk` is then probed\n\
         on the post-campaign state, with `probeD` of the shortfall due to\n\
         degradation rather than activation contention. The table is\n\
         deterministic per seed.\n\n"
            .into()
    }
}

/// Percent-scale key for substream labels (0.05 → 50).
fn per_mille(p: f64) -> u64 {
    (p * 1000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regime::{render, run, stream};

    fn small() -> (ExperimentConfig, CampaignConfig) {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let ccfg = CampaignConfig {
            loss_rates: vec![0.0, 0.10],
            connections: 25,
            failures: 3,
            max_attempts: 10,
            seed: 13,
        };
        (cfg, ccfg)
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let (cfg, ccfg) = small();
        let sweep = LossCampaign::new(&cfg, &ccfg);
        let a = run(&sweep, 1);
        let b = run(&sweep, 1);
        assert_eq!(a, b);
        let other = CampaignConfig { seed: 14, ..ccfg };
        let c = run(&LossCampaign::new(&cfg, &other), 1);
        // Lossless rows may coincide, but the lossy row sees different
        // chaos: at least one field (column or worst link) must move.
        let fields = |row: &(f64, CellOutcome)| render(&sweep, std::slice::from_ref(row));
        assert_ne!(fields(&a[1]), fields(&c[1]));
    }

    #[test]
    fn lossless_row_never_degrades_or_retransmits() {
        let (cfg, ccfg) = small();
        let rows = run(&LossCampaign::new(&cfg, &ccfg), 1);
        let (loss, quiet) = &rows[0];
        let t = &quiet.telemetry;
        assert_eq!(*loss, 0.0);
        assert_eq!(t.counter("proto.degraded_setup"), 0);
        assert_eq!(t.counter("proto.retransmissions"), 0);
        assert_eq!(t.counter("proto.exhausted"), 0);
        assert!(t.counter("proto.established") > 0);
        assert_eq!(t.counter("inject.events"), 3);
        // Recovery latency is detection + report + switch walk: > 10 ms.
        if let Some(h) = t.hist("proto.recovery_us") {
            assert!(h.mean() > SimDuration::from_millis(10).as_micros());
        }
    }

    #[test]
    fn table_renders_every_row() {
        let (cfg, ccfg) = small();
        let sweep = LossCampaign::new(&cfg, &ccfg);
        let rows = run(&sweep, 1);
        let table = render(&sweep, &rows);
        assert!(table.contains("P_act-bk"));
        let breakdowns = rows
            .iter()
            .filter(|(_, o)| !o.worst_links.is_empty())
            .count();
        assert_eq!(table.lines().count(), 2 + rows.len() + breakdowns);
        assert!(breakdowns > 0, "campaign with failures names worst links");
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let (cfg, ccfg) = small();
        let sweep = LossCampaign::new(&cfg, &ccfg);
        let serial = render(&sweep, &run(&sweep, 1));
        for jobs in [2, 8] {
            let par = render(&sweep, &run(&sweep, jobs));
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn streamed_render_matches_batch_render() {
        let (cfg, ccfg) = small();
        let sweep = LossCampaign::new(&cfg, &ccfg);
        let batch = render(&sweep, &run(&sweep, 1));
        let mut streamed = String::new();
        stream(&sweep, 2, |s| streamed.push_str(s));
        assert_eq!(batch, streamed);
    }
}
