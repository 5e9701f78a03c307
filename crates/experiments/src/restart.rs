//! Restart-storm campaign: rolling router restarts with and without
//! durable state.
//!
//! The paper's routers fail and stay failed; real deployments restart
//! them — planned maintenance waves, crash loops, power events — and the
//! question becomes what a router *remembers* when it comes back. This
//! sweep prices exactly that, by running every cell twice:
//!
//! * **`amnesia`** — the restarted router loses every table entry. Its
//!   neighbours see the crash, every DR-connection whose primary crossed
//!   it switches to backup (a *spurious* switchover: the router is back
//!   a moment later), and every backup registration it held is simply
//!   gone. The orchestrator re-protects the survivors; what exhausts its
//!   retries is orphaned for good.
//! * **`journaled`** — the router replays its write-ahead journal and
//!   resyncs with its neighbours ([`drt_proto::Journal`], the
//!   resync-on-rejoin handshake), so rejoin restores every table entry
//!   and no switchover fires at all.
//!
//! The restart order is a rolling maintenance schedule
//! ([`drt_sim::workload::rolling_restart_schedule`]) shared by every
//! cell of a sweep. The sweep is a [`Regime`] and all measurement flows
//! through the first-class [`Telemetry`] layer: the spurious-switchover
//! and recovered-entry counters, the recovery-latency percentiles, and
//! the closing `P_act-bk` probe in the table are column projections of
//! the merged manager + orchestrator registries.
//!
//! The closing probe alone would *flatter* amnesia: connections a
//! forgetful terminal destroyed are simply absent from the survivor
//! population, and the orchestrator re-places the survivors' backups on
//! the post-storm load, so the survivors can probe better than the
//! untouched pre-storm layout. The table therefore also reports the
//! *effective* `P_act-bk` over the original established population —
//! survivor probe × storm survival — which is the number a customer of
//! one of the original connections experiences. Cells derive their RNG
//! substreams from the master seed and their own identity, so the sweep
//! is byte-identical for every `--jobs` count.

use crate::config::ExperimentConfig;
use crate::regime::{self, CellOutcome, Column, Regime, Stat, Unit, Value};
use crate::runner::SchemeKind;
use drt_core::failure::RestartMode;
use drt_core::orchestrator::{RecoveryOrchestrator, RetryPolicy};
use drt_core::{DrtpManager, Telemetry};
use drt_net::{Network, NodeId};
use drt_sim::workload::{rolling_restart_schedule, TrafficPattern};
use drt_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// The sweep's `--regime` name, table label and substream prefix.
pub const REGIME: &str = "restart-storm";

/// One cell of the sweep: scheme × intensity × restart mode. Both modes
/// always run — the journaled-vs-amnesia delta *is* the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartCell {
    /// The routing scheme whose protection the storm erodes.
    pub scheme: SchemeKind,
    /// Routers restarted, taken as a prefix of the rolling schedule.
    pub intensity: u32,
    /// What the restarted routers remember.
    pub mode: RestartMode,
}

impl RestartCell {
    /// The cell's identity tag, used for RNG substream derivation — two
    /// cells share a substream only if they are the same cell.
    pub fn tag(&self) -> String {
        format!(
            "{REGIME}-{}-i{}-{}",
            self.scheme.label(),
            self.intensity,
            match self.mode {
                RestartMode::Amnesia => "amn",
                RestartMode::Journaled => "jnl",
            }
        )
    }
}

/// Knobs of the restart-storm sweep.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Routing schemes to storm.
    pub schemes: Vec<SchemeKind>,
    /// Restart-count intensities to sweep.
    pub intensities: Vec<u32>,
    /// Maintenance waves the rolling schedule is partitioned into.
    pub waves: usize,
    /// Connections to establish before the storm starts.
    pub connections: usize,
    /// Retry/backoff/quarantine policy of the orchestrator.
    pub policy: RetryPolicy,
    /// Master seed for workload, schedule, restarts, and probes.
    pub seed: u64,
}

impl Default for RestartConfig {
    /// The paper's three schemes, intensities 4/8/16, four waves,
    /// 100 connections.
    fn default() -> Self {
        RestartConfig {
            schemes: SchemeKind::paper_schemes().to_vec(),
            intensities: vec![4, 8, 16],
            waves: 4,
            connections: 100,
            policy: RetryPolicy::default(),
            seed: 7,
        }
    }
}

impl RestartConfig {
    /// The sweep's cells in canonical (rendered) order: scheme,
    /// intensity, then amnesia before journaled — the undefended arm
    /// prints first, exactly like the adversarial sweep's arms.
    pub fn cells(&self) -> Vec<RestartCell> {
        let mut out = Vec::new();
        for &scheme in &self.schemes {
            for &intensity in &self.intensities {
                for mode in [RestartMode::Amnesia, RestartMode::Journaled] {
                    out.push(RestartCell {
                        scheme,
                        intensity,
                        mode,
                    });
                }
            }
        }
        out
    }

    /// The CI-scale sweep (`campaign --quick`): 40 connections,
    /// intensities 4 and 8.
    pub fn quick() -> Self {
        RestartConfig {
            connections: 40,
            intensities: vec![4, 8],
            ..RestartConfig::default()
        }
    }
}

/// The restart storm as a [`Regime`]: one cell per [`RestartCell`], each
/// with its own scheme instance and manager.
#[derive(Debug)]
pub struct RestartCampaign {
    cfg: ExperimentConfig,
    rcfg: RestartConfig,
    net: Arc<Network>,
}

impl RestartCampaign {
    /// The sweep `rcfg` on the experiment network of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when the experiment topology cannot be built.
    pub fn new(cfg: &ExperimentConfig, rcfg: &RestartConfig) -> Self {
        RestartCampaign {
            cfg: cfg.clone(),
            rcfg: rcfg.clone(),
            net: Arc::new(cfg.build_network().expect("experiment topology")),
        }
    }
}

impl Regime for RestartCampaign {
    type Cell = RestartCell;
    type Worker = ();

    fn cells(&self) -> Vec<RestartCell> {
        self.rcfg.cells()
    }

    fn worker(&self) {}

    fn run_cell(&self, _: &mut (), cell: &RestartCell, sweep_jobs: usize) -> CellOutcome {
        let (cfg, rcfg, net) = (&self.cfg, &self.rcfg, &self.net);
        let tag = cell.tag();
        let mut scheme = cell.scheme.instantiate();
        let mut mgr = DrtpManager::with_config(Arc::clone(net), cell.scheme.manager_config());

        // Phase 1: establishment on the paper's uniform workload, shared by
        // every cell (the scenario substream depends only on the master
        // seed), so cells differ only in what restarts and what it recalls.
        regime::establish(
            cfg,
            &mut mgr,
            scheme.as_mut(),
            TrafficPattern::ut(),
            rcfg.connections,
        );

        // The rolling schedule: a seed-deterministic maintenance order over
        // the whole node population, shared by every cell of a sweep so the
        // amnesia and journaled arms restart exactly the same routers in the
        // same order. Restarts land wherever maintenance does — a restarted
        // *terminal* that forgot its tables drops its own connections
        // outright (`restart.lost_connections`), which is part of what
        // amnesia costs and what the journal prevents.
        let mut wave_rng = drt_sim::rng::stream(rcfg.seed, "restart-waves");
        let schedule: Vec<NodeId> = rolling_restart_schedule(net, rcfg.waves, &[], &mut wave_rng)
            .into_iter()
            .take(cell.intensity as usize)
            .collect();

        // Phase 2: the storm. One router down (and back) per round; the
        // orchestrator re-protects whatever the restart disturbed before the
        // next wave member goes down.
        let mut orch = RecoveryOrchestrator::new(net.num_links(), rcfg.policy);
        let mut now = SimTime::ZERO;
        for (round, &node) in schedule.iter().enumerate() {
            let mut inject_rng =
                drt_sim::rng::indexed_stream(rcfg.seed, &format!("restart-{tag}"), round as u64);
            let report = mgr
                .crash_restart_router(node, cell.mode, &mut inject_rng)
                .expect("restart injection is infallible");
            // Switched connections run on their promoted backup unprotected;
            // `unprotected` ones lost the registration that was their only
            // backup. Both queue for re-protection. The incident links are
            // back up by the time the report returns, so no link failure is
            // recorded — the damage is purely state, which is the point.
            for &id in report.switched.iter().chain(&report.unprotected) {
                orch.enqueue(now, id);
            }
            now = orch.run_to_quiescence(now, &mut mgr, &mut *scheme);
            now += SimDuration::from_secs(30);
        }

        let mut t = mgr.telemetry().clone();
        t.merge(orch.telemetry());
        let seed = drt_sim::rng::substream_seed(rcfg.seed, &format!("probe-{tag}"));
        let worst_links = regime::closing_sweep(&mgr, seed, sweep_jobs, &mut t);

        // Effective protection over the original population: the probe only
        // sees survivors, so scale it by storm survival — a connection the
        // storm destroyed contributes zero protection, however well the
        // remaining ones probe.
        let survivors = mgr
            .connections()
            .filter(|c| c.state().is_carrying_traffic())
            .count() as i64;
        t.set_gauge("storm.survivors", survivors);
        let established = t.counter("establish.accepted").max(1) as i64;
        if let Some(ppm) = t.try_gauge("sweep.p_act_bk_ppm") {
            t.set_gauge("storm.p_act_bk_eff_ppm", ppm * survivors / established);
        } else if survivors == 0 {
            t.set_gauge("storm.p_act_bk_eff_ppm", 0);
        }
        CellOutcome {
            telemetry: t,
            worst_links,
        }
    }

    fn title(&self) -> String {
        format!(
            "Restart-storm campaign ({} nodes, {} links)",
            self.net.num_nodes(),
            self.net.num_links()
        )
    }

    fn columns(&self) -> Vec<Column<RestartCell>> {
        use Value::{Count, Hist};
        vec![
            Column::left("regime", 15, Value::Cell(|_| REGIME.into())),
            Column::left("scheme", 6, Value::Cell(|c| c.scheme.label().into())),
            Column::right("rstr", 4, Count(&["restart.events"])),
            Column::right(
                "mode",
                8,
                Value::Cell(|c| match c.mode {
                    RestartMode::Amnesia => "amnesia".into(),
                    RestartMode::Journaled => "journal".into(),
                }),
            ),
            Column::right("estab", 6, Count(&["establish.accepted"])),
            Column::right("surv", 5, Value::Gauge("storm.survivors")),
            Column::right("recov", 6, Count(&["restart.recovered_entries"])),
            Column::right("spur-sw", 7, Count(&["restart.spurious_switchovers"])),
            Column::right("lost", 5, Count(&["restart.lost_connections"])),
            Column::right("reg-lst", 7, Count(&["restart.registrations_lost"])),
            Column::right("reprot", 7, Count(&["recovery.reprotected"])),
            Column::right("orphan", 6, Count(&["recovery.orphaned"])),
            Column::right(
                "rec-p50",
                9,
                Hist("recovery.latency_us", Stat::Pct(50), Unit::Auto),
            ),
            Column::right(
                "rec-p95",
                9,
                Hist("recovery.latency_us", Stat::Pct(95), Unit::Auto),
            ),
            Column::right("P_act-bk", 9, Value::Ppm("sweep.p_act_bk_ppm")),
            Column::right("P_eff", 9, Value::Ppm("storm.p_act_bk_eff_ppm")),
        ]
    }

    fn footer(&self, _: &Telemetry) -> String {
        format!(
            "\n  rstr under {REGIME:<15} = routers restarted (rolling, one at a time)\n\
             \x20 P_act-bk probes the storm's survivors; P_eff scales it by storm\n\
             \x20 survival, pricing the connections amnesia destroyed outright\n\n\
             reading guide: every cell runs twice — `amnesia` restarts lose\n\
             all router state (spurious switchovers `spur-sw`, forgotten\n\
             backup registrations `reg-lst`, connections dropped outright by\n\
             a restarted terminal `lost`), `journal` restarts replay the\n\
             write-ahead journal and resync with their neighbours (`recov`\n\
             table entries recovered, nothing else moves). The orchestrator\n\
             re-protects whatever each restart disturbed before the next\n\
             wave member goes down. `P_act-bk` probes the survivors; `P_eff`\n\
             scales it by storm survival, pricing destroyed connections.\n\
             The table is deterministic per seed and byte-identical for\n\
             every --jobs.\n\n"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regime::{merged, render, run};

    fn small() -> (ExperimentConfig, RestartConfig) {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        // Tight capacity (4 connection slots per link instead of 33):
        // re-protection after the storm competes for scarce slots, so
        // protection the amnesia arm drops is not always recoverable.
        cfg.capacity = drt_net::Bandwidth::from_mbps(12);
        let rcfg = RestartConfig {
            schemes: vec![SchemeKind::DLsr],
            intensities: vec![6],
            waves: 3,
            connections: 30,
            seed: 13,
            ..RestartConfig::default()
        };
        (cfg, rcfg)
    }

    #[test]
    fn labels_roundtrip_and_both_modes_always_run() {
        let (_, rcfg) = small();
        let cells = rcfg.cells();
        assert!(cells.iter().all(|c| c.tag().starts_with(REGIME)));
        assert_eq!(cells.len(), 2, "one scheme x one intensity x two modes");
        assert!(cells.iter().any(|c| c.mode == RestartMode::Amnesia));
        assert!(cells.iter().any(|c| c.mode == RestartMode::Journaled));
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let (cfg, rcfg) = small();
        let sweep = RestartCampaign::new(&cfg, &rcfg);
        let a = run(&sweep, 1);
        let b = run(&sweep, 1);
        assert_eq!(a, b);
        let other = RestartConfig { seed: 14, ..rcfg };
        let other = RestartCampaign::new(&cfg, &other);
        let c = run(&other, 1);
        assert_ne!(
            render(&sweep, &a),
            render(&other, &c),
            "different seed must move some field"
        );
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let (cfg, rcfg) = small();
        let sweep = RestartCampaign::new(&cfg, &rcfg);
        let serial = run(&sweep, 1);
        let par = run(&sweep, 3);
        assert_eq!(serial, par);
    }

    #[test]
    fn rows_are_projections_of_their_telemetry() {
        let (cfg, rcfg) = small();
        let sweep = RestartCampaign::new(&cfg, &rcfg);
        let rows = run(&sweep, 1);
        let table = render(&sweep, &rows);
        for ((cell, o), line) in rows.iter().zip(table.lines().skip(2)) {
            // A one-row table rebuilt from a copy of the telemetry alone.
            let telemetry = o.telemetry.clone();
            let again = render(
                &sweep,
                &[(
                    *cell,
                    CellOutcome {
                        telemetry,
                        worst_links: Vec::new(),
                    },
                )],
            );
            assert_eq!(
                again.lines().nth(2),
                Some(line),
                "row fields must come from telemetry alone"
            );
            assert!(o.telemetry.counter("establish.accepted") > 0);
            assert_eq!(o.telemetry.counter("restart.events"), 6);
        }
    }

    #[test]
    fn journaled_rejoin_is_lossless_where_amnesia_bleeds() {
        let (cfg, rcfg) = small();
        let rows = run(&RestartCampaign::new(&cfg, &rcfg), 1);
        let arm = |mode| {
            &rows
                .iter()
                .find(|(c, _)| c.mode == mode)
                .unwrap()
                .1
                .telemetry
        };
        let amnesia = arm(RestartMode::Amnesia);
        let journaled = arm(RestartMode::Journaled);

        // The issue's acceptance criterion, telemetry-asserted: durable
        // state makes rejoin invisible — every surviving DR-connection
        // keeps its tables, zero switchovers fire, nothing is lost —
        // while amnesia turns each restart into real protection damage.
        assert_eq!(journaled.counter("restart.spurious_switchovers"), 0);
        assert_eq!(journaled.counter("restart.lost_connections"), 0);
        assert_eq!(journaled.counter("restart.registrations_lost"), 0);
        assert_eq!(
            journaled.gauge("storm.survivors") as u64,
            journaled.counter("establish.accepted")
        );
        assert!(
            journaled.counter("restart.recovered_entries") > 0,
            "replay+resync recovered state"
        );
        assert_eq!(
            journaled.counter("restart.journaled_rejoins"),
            journaled.counter("restart.events")
        );

        assert!(
            amnesia.counter("restart.spurious_switchovers") > 0,
            "amnesia restarts must switch"
        );
        assert!(
            amnesia.counter("restart.lost_connections") > 0,
            "forgetful terminals drop their connections"
        );
        assert_eq!(amnesia.counter("restart.recovered_entries"), 0);
        // Both arms saw the identical establishment phase and schedule.
        for key in ["establish.accepted", "restart.events"] {
            assert_eq!(amnesia.counter(key), journaled.counter(key));
        }

        // And the storm's residue prices out: over the original
        // population the amnesia arm ends with measurably less of its
        // protection probability.
        let (a, j) = (
            amnesia
                .try_gauge("storm.p_act_bk_eff_ppm")
                .expect("probe ran"),
            journaled
                .try_gauge("storm.p_act_bk_eff_ppm")
                .expect("probe ran"),
        );
        assert!(
            a < j,
            "amnesia effective P_act-bk ({a} ppm) must trail journaled ({j} ppm)"
        );
    }

    #[test]
    fn table_renders_every_cell() {
        let (cfg, rcfg) = small();
        let sweep = RestartCampaign::new(&cfg, &rcfg);
        let rows = run(&sweep, 1);
        let table = render(&sweep, &rows);
        assert!(table.contains("P_act-bk"));
        assert!(table.contains("amnesia") && table.contains("journal"));
        let merged = merged(&rows);
        assert!(merged.counter("restart.events") > 0);
        assert!(!merged.snapshot().is_empty());
    }
}
