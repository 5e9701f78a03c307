//! Correlated multi-failure campaign: independent links, SRLG bursts,
//! and router crashes, recovered through the orchestrator.
//!
//! The paper's evaluation (and [`crate::campaign`]) injects *independent
//! single-link* failures. Real outages cluster: a cut conduit severs
//! every fibre it carries (a shared-risk link group), and a router crash
//! takes every incident link in one stroke. This harness sweeps three
//! failure *regimes* of increasing correlation over the same workload —
//!
//! 1. **`indep-links`** — one loaded link per event (the paper's model,
//!    as the baseline row);
//! 2. **`srlg-bursts`** — one shared-risk group per event, every member
//!    failing simultaneously;
//! 3. **`node-crashes`** — one transit router per event, all incident
//!    links failing simultaneously;
//!
//! — and reports, per regime, how much the correlation costs: backups of
//! all simultaneously-hit primaries contend in **one** activation pass
//! (see [`DrtpManager::inject_event`]), survivors re-protect through the
//! [`RecoveryOrchestrator`]'s retry queue with backoff and flap damping,
//! and connections whose re-protection exhausts its retries are counted
//! as *orphaned* — protection the regime permanently destroyed.
//! `P_act-bk` is then probed on the post-campaign state.
//!
//! Everything derives from one master seed (workload, SRLG derivation,
//! event choice, contention shuffles, probes), so each row is exactly
//! reproducible; regimes share the workload substream and differ only in
//! the events they inject, which is what makes the rows comparable. The
//! sweep is a [`Regime`] with one cell per failure regime; every column
//! is a projection of the cell's merged manager + orchestrator telemetry.

use crate::config::ExperimentConfig;
use crate::regime::{self, CellOutcome, Column, Regime, Stat, Unit, Value};
use crate::runner::SchemeKind;
use drt_core::failure::FailureEvent;
use drt_core::orchestrator::{RecoveryOrchestrator, RetryPolicy};
use drt_core::routing::RoutingScheme;
use drt_core::{DrtpManager, Telemetry};
use drt_net::{LinkId, Network, NodeId, SrlgId};
use drt_sim::workload::TrafficPattern;
use drt_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One correlated-failure regime of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureRegime {
    /// Independent single-link failures — the paper's baseline model.
    IndependentLinks,
    /// Shared-risk link groups cut whole: every member fails at once.
    SrlgBursts,
    /// Router crashes: every link incident to the node fails at once.
    NodeCrashes,
}

impl FailureRegime {
    /// Every regime, in sweep order (increasing correlation).
    pub const ALL: [FailureRegime; 3] = [
        FailureRegime::IndependentLinks,
        FailureRegime::SrlgBursts,
        FailureRegime::NodeCrashes,
    ];

    /// The short label used in tables, substream derivation, and the
    /// campaign binary's `--regime` flag.
    pub fn label(self) -> &'static str {
        match self {
            FailureRegime::IndependentLinks => "indep-links",
            FailureRegime::SrlgBursts => "srlg-bursts",
            FailureRegime::NodeCrashes => "node-crashes",
        }
    }
}

impl std::fmt::Display for FailureRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Knobs of the multi-failure sweep.
#[derive(Debug, Clone)]
pub struct MultiFailureConfig {
    /// Regimes to run, in order.
    pub regimes: Vec<FailureRegime>,
    /// Connections to establish before the failures start.
    pub connections: usize,
    /// Correlated failure events injected per regime.
    pub events: usize,
    /// Links per derived shared-risk group (conduit width).
    pub srlg_size: usize,
    /// Retry/backoff/flap-damping policy of the orchestrator.
    pub policy: RetryPolicy,
    /// Master seed for workload, SRLG derivation, events, and probes.
    pub seed: u64,
}

impl Default for MultiFailureConfig {
    /// All three regimes, 100 connections, 6 events, 3-link conduits.
    fn default() -> Self {
        MultiFailureConfig {
            regimes: FailureRegime::ALL.to_vec(),
            connections: 100,
            events: 6,
            srlg_size: 3,
            policy: RetryPolicy::default(),
            seed: 7,
        }
    }
}

impl MultiFailureConfig {
    /// The CI-scale sweep (`campaign --quick`): 40 connections, 3 events.
    pub fn quick() -> Self {
        MultiFailureConfig {
            connections: 40,
            events: 3,
            ..MultiFailureConfig::default()
        }
    }
}

/// The multi-failure sweep as a [`Regime`]: one cell per failure regime,
/// each a fresh manager and workload (same substreams, so rows differ
/// only by the injected events).
#[derive(Debug)]
pub struct MultiFailureCampaign {
    cfg: ExperimentConfig,
    mcfg: MultiFailureConfig,
    net: Arc<Network>,
}

impl MultiFailureCampaign {
    /// The sweep `mcfg` on the experiment network of `cfg` with the
    /// seed-derived conduit groups registered.
    ///
    /// # Panics
    ///
    /// Panics when the experiment topology cannot be built.
    pub fn new(cfg: &ExperimentConfig, mcfg: &MultiFailureConfig) -> Self {
        let base = cfg.build_network().expect("experiment topology");
        let groups = derive_srlgs(&base, mcfg.srlg_size, mcfg.seed);
        let net = base
            .with_srlgs(&groups)
            .expect("groups derived from this network");
        MultiFailureCampaign {
            cfg: cfg.clone(),
            mcfg: mcfg.clone(),
            net: Arc::new(net),
        }
    }
}

/// Deterministically partitions the links into conduit groups of
/// `size`: a seeded shuffle, chunked. Every link lands in exactly one
/// group, so an SRLG burst is meaningful anywhere in the topology.
fn derive_srlgs(net: &Network, size: usize, seed: u64) -> Vec<Vec<LinkId>> {
    let mut links: Vec<LinkId> = net.links().map(|l| l.id()).collect();
    regime::shuffle(
        &mut links,
        &mut drt_sim::rng::stream(seed, "srlg-derivation"),
    );
    links.chunks(size.max(1)).map(|c| c.to_vec()).collect()
}

impl Regime for MultiFailureCampaign {
    type Cell = FailureRegime;
    type Worker = Box<dyn RoutingScheme>;

    fn cells(&self) -> Vec<FailureRegime> {
        self.mcfg.regimes.clone()
    }

    fn worker(&self) -> Box<dyn RoutingScheme> {
        SchemeKind::DLsr.instantiate()
    }

    /// # Panics
    ///
    /// Panics when a manager invariant breaks — a harness bug, not a
    /// measured outcome.
    fn run_cell(
        &self,
        scheme: &mut Box<dyn RoutingScheme>,
        &regime: &FailureRegime,
        sweep_jobs: usize,
    ) -> CellOutcome {
        let (cfg, mcfg) = (&self.cfg, &self.mcfg);
        let scheme = scheme.as_mut();
        let mut mgr =
            DrtpManager::with_config(Arc::clone(&self.net), SchemeKind::DLsr.manager_config());

        // Phase 1: the shared workload (same substream for every regime).
        regime::establish(
            cfg,
            &mut mgr,
            scheme,
            TrafficPattern::ut(),
            mcfg.connections,
        );

        // Phase 2: correlated failures, recovered through the orchestrator.
        let mut orch = RecoveryOrchestrator::new(self.net.num_links(), mcfg.policy);
        let mut pick_rng = drt_sim::rng::stream(mcfg.seed, &format!("pick-{}", regime.label()));
        let mut now = SimTime::ZERO;
        for round in 0..mcfg.events {
            let Some(event) = pick_event(regime, &mgr, &mut pick_rng) else {
                break; // nothing loaded left to fail
            };
            let mut inject_rng = drt_sim::rng::indexed_stream(
                mcfg.seed,
                &format!("inject-{}", regime.label()),
                round as u64,
            );
            let report = mgr
                .inject_event(&event, &mut inject_rng)
                .expect("inject_event is infallible on resolvable events");
            orch.observe_failure(now, &report);
            now = orch.run_to_quiescence(now, &mut mgr, scheme);
            // Events are spaced out: the next burst lands on a quiesced
            // network, but within each burst every failure is simultaneous.
            now += SimDuration::from_secs(30);
        }

        let mut t = mgr.telemetry().clone();
        t.merge(orch.telemetry());
        t.set_gauge(
            "quarantine.links_active",
            orch.quarantined_links(now).len() as i64,
        );
        let seed = drt_sim::rng::substream_seed(mcfg.seed, &format!("probe-{}", regime.label()));
        let worst_links = regime::closing_sweep(&mgr, seed, sweep_jobs, &mut t);
        CellOutcome {
            telemetry: t,
            worst_links,
        }
    }

    fn title(&self) -> String {
        format!(
            "Correlated multi-failure campaign ({} nodes, {} links, {} srlgs)",
            self.net.num_nodes(),
            self.net.num_links(),
            self.net.num_srlgs()
        )
    }

    fn columns(&self) -> Vec<Column<FailureRegime>> {
        use Value::{Count, Hist};
        vec![
            Column::left("regime", 12, Value::Cell(|r| r.label().into())),
            Column::right("estab", 6, Count(&["establish.accepted"])),
            Column::right("events", 6, Count(&["inject.events"])),
            Column::right("links", 6, Count(&["inject.links_failed"])),
            Column::right("switch", 6, Count(&["inject.switched"])),
            Column::right("lost", 5, Count(&["inject.lost"])),
            Column::right("unprot", 6, Count(&["inject.unprotected"])),
            Column::right("reprot", 6, Count(&["recovery.reprotected"])),
            Column::right("orphan", 6, Count(&["recovery.orphaned"])),
            Column::right("quar", 5, Value::Gauge("quarantine.links_active")),
            Column::right(
                "mean-rec",
                9,
                Hist("recovery.latency_us", Stat::Mean, Unit::Secs),
            ),
            Column::right(
                "max-rec",
                9,
                Hist("recovery.latency_us", Stat::Max, Unit::Secs),
            ),
            Column::right(
                "P_act-bk",
                9,
                Value::Ratio("sweep.activated", "sweep.affected"),
            ),
        ]
    }

    fn breakdown_label(&self, regime: &FailureRegime) -> Option<String> {
        Some(format!("{:<12}", regime.label()))
    }

    fn footer(&self, _: &Telemetry) -> String {
        "\nreading guide: each event fails its whole correlated set at once\n\
         (`links` counts the members) and all affected backups contend in\n\
         one activation pass. Survivors re-protect through the recovery\n\
         orchestrator: retries with exponential backoff, flapping links\n\
         quarantined (`quar`) from new backups, and connections whose\n\
         retries exhaust counted as `orphan` — protection the regime\n\
         permanently destroyed. `P_act-bk` is probed on the final state.\n\
         Rows share the workload substream, so regimes are comparable and\n\
         the table is deterministic per seed.\n\n"
            .into()
    }
}

/// Picks the next event for `regime`: always one that hits at least one
/// live primary, so every event measures recovery rather than missing.
fn pick_event(
    regime: FailureRegime,
    mgr: &DrtpManager,
    rng: &mut rand::rngs::StdRng,
) -> Option<FailureEvent> {
    let loaded = regime::loaded_links(mgr);
    let link = |rng: &mut rand::rngs::StdRng| regime::pick(&loaded, rng).map(FailureEvent::Link);
    match regime {
        FailureRegime::IndependentLinks => link(rng),
        FailureRegime::SrlgBursts => {
            let candidates: Vec<SrlgId> = mgr
                .net()
                .srlg_ids()
                .filter(|&g| {
                    let members = mgr.net().srlg(g);
                    members.iter().any(|l| loaded.binary_search(l).is_ok())
                        && members.iter().any(|&l| !mgr.is_failed(l))
                })
                .collect();
            regime::pick(&candidates, rng)
                .map(FailureEvent::Srlg)
                .or_else(|| link(rng))
        }
        FailureRegime::NodeCrashes => {
            // Transit routers only: interior nodes of live primaries, so
            // the crash severs connections it does not terminate.
            let mut interior: BTreeSet<NodeId> = BTreeSet::new();
            for c in mgr.connections() {
                if !c.state().is_carrying_traffic() {
                    continue;
                }
                let links = c.primary().links();
                for &l in &links[..links.len().saturating_sub(1)] {
                    interior.insert(mgr.net().link(l).dst());
                }
            }
            let candidates: Vec<NodeId> = interior.into_iter().collect();
            regime::pick(&candidates, rng)
                .map(FailureEvent::Node)
                .or_else(|| link(rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regime::{render, run};

    fn small() -> (ExperimentConfig, MultiFailureConfig) {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let mcfg = MultiFailureConfig {
            connections: 25,
            events: 3,
            seed: 13,
            ..MultiFailureConfig::default()
        };
        (cfg, mcfg)
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let (cfg, mcfg) = small();
        let sweep = MultiFailureCampaign::new(&cfg, &mcfg);
        let a = run(&sweep, 1);
        let b = run(&sweep, 1);
        assert_eq!(a, b);
        let other = MultiFailureConfig { seed: 14, ..mcfg };
        let other = MultiFailureCampaign::new(&cfg, &other);
        let c = run(&other, 1);
        assert_ne!(
            render(&sweep, &a),
            render(&other, &c),
            "different seed must move some field"
        );
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let (cfg, mcfg) = small();
        let sweep = MultiFailureCampaign::new(&cfg, &mcfg);
        let serial = run(&sweep, 1);
        let par = run(&sweep, 3);
        assert_eq!(serial, par);
    }

    #[test]
    fn correlation_increases_per_event_damage() {
        let (cfg, mcfg) = small();
        let rows = run(&MultiFailureCampaign::new(&cfg, &mcfg), 1);
        assert_eq!(rows.len(), 3);
        let by_regime = |r: FailureRegime| &rows.iter().find(|x| x.0 == r).unwrap().1.telemetry;
        let indep = by_regime(FailureRegime::IndependentLinks);
        let srlg = by_regime(FailureRegime::SrlgBursts);
        let crash = by_regime(FailureRegime::NodeCrashes);
        let (estab, events, links) = ("establish.accepted", "inject.events", "inject.links_failed");
        // Same workload in every regime.
        assert_eq!(indep.counter(estab), srlg.counter(estab));
        assert_eq!(indep.counter(estab), crash.counter(estab));
        assert!(indep.counter(events) > 0 && srlg.counter(events) > 0 && crash.counter(events) > 0);
        // One link per independent event; strictly more per burst/crash.
        assert_eq!(indep.counter(links), indep.counter(events));
        assert!(
            srlg.counter(links) > srlg.counter(events),
            "bursts fail whole groups"
        );
        assert!(
            crash.counter(links) > crash.counter(events),
            "crashes fail all incident links"
        );
    }

    #[test]
    fn orchestrator_accounting_is_closed() {
        let (cfg, mcfg) = small();
        for (regime, o) in run(&MultiFailureCampaign::new(&cfg, &mcfg), 1) {
            let t = &o.telemetry;
            let reprotected = t.counter("recovery.reprotected");
            let orphaned = t.counter("recovery.orphaned");
            let lost_protection = t.counter("inject.switched") + t.counter("inject.unprotected");
            // Every connection that lost protection either re-protected
            // or orphaned once the queue drained (quiescence).
            assert!(
                reprotected + orphaned <= lost_protection,
                "{regime}: more recoveries than losses"
            );
            if lost_protection > 0 {
                assert!(
                    reprotected + orphaned > 0,
                    "{regime}: lost protection but no orchestrator outcome"
                );
            }
            if reprotected > 0 {
                let h = t.hist("recovery.latency_us");
                assert!(h.is_some());
                assert!(h.map(|h| h.mean()) <= h.map(|h| h.max()));
            }
        }
    }

    #[test]
    fn derived_srlgs_cover_every_link_once() {
        let cfg = ExperimentConfig::quick(3.0);
        let net = cfg.build_network().unwrap();
        let groups = derive_srlgs(&net, 3, 7);
        let mut seen = BTreeSet::new();
        for g in &groups {
            assert!(!g.is_empty() && g.len() <= 3);
            for &l in g {
                assert!(seen.insert(l), "{l} grouped twice");
            }
        }
        assert_eq!(seen.len(), net.num_links());
        // Deterministic per seed.
        assert_eq!(groups, derive_srlgs(&net, 3, 7));
        assert_ne!(groups, derive_srlgs(&net, 3, 8));
    }

    #[test]
    fn table_renders_every_regime() {
        let (cfg, mcfg) = small();
        let sweep = MultiFailureCampaign::new(&cfg, &mcfg);
        let rows = run(&sweep, 1);
        let table = render(&sweep, &rows);
        assert!(table.contains("P_act-bk"));
        for (r, _) in &rows {
            assert!(table.contains(r.label()));
        }
    }
}
