//! Adversarial campaign: graceful degradation under byzantine routers
//! and hostile workloads, with and without countermeasures.
//!
//! The paper evaluates the schemes under *fail-stop* faults: a link or
//! router dies, every survivor tells the truth, and the workload is
//! indifferent. This sweep drops those assumptions one at a time. Four
//! regimes, each swept over an integer adversary *strength*:
//!
//! 1. **`byzantine-lsa`** — `strength` routers poison the link-state
//!    view ([`ViewDistortion`]): dead links advertised up, conflict
//!    load deflated, headroom inflated. Admission still validates
//!    against ground truth, so every lie surfaces as a setup failure.
//!    *Countermeasure:* advertisement-churn flap damping
//!    ([`RecoveryOrchestrator::observe_churn`]) quarantines the liars'
//!    links away from new backup routes.
//! 2. **`false-reports`** — `strength` byzantine routers fabricate
//!    `strength` failure reports per round for perfectly healthy links,
//!    forcing spurious switchovers that burn backup capacity
//!    ([`DrtpManager::inject_false_report`]). *Countermeasure:* report
//!    vetting ([`RecoveryOrchestrator::vet_report`]) — uncorroborated
//!    reports are rejected and repeat liars quarantined.
//! 3. **`flash-crowd`** — no byzantine routers; the workload itself is
//!    hostile: a fraction of all demand converges on one target node
//!    ([`TrafficPattern::flash_crowd`]), then ordinary failures land on
//!    the overloaded region. `strength` scales the crowd fraction.
//! 4. **`regional-storm`** — geographically-correlated outages: rounds
//!    alternate between a hop-radius-`strength` storm around a random
//!    epicenter ([`drt_sim::workload::regional_storm`]) and a rolling
//!    maintenance wave of routers taken down together
//!    ([`drt_sim::workload::maintenance_waves`]). The storm passes
//!    (links repair) but destroyed protection stays destroyed.
//!
//! Regimes with a countermeasure run twice — undefended and defended —
//! so the table directly prices the defence. The sweep is a [`Regime`]
//! and every row is measured through the first-class [`Telemetry`]
//! layer: the counters, the recovery-latency histogram percentiles, and
//! the `P_act-bk` gauge in the table are column projections of the
//! merged manager + orchestrator registries, not ad-hoc row arithmetic.
//! Cells derive their RNG substreams from the master seed and their own
//! identity, so the sweep is byte-identical for every `--jobs` count.

use crate::config::ExperimentConfig;
use crate::regime::{self, CellOutcome, Column, Regime, Stat, Unit, Value};
use crate::runner::SchemeKind;
use drt_core::failure::FailureEvent;
use drt_core::orchestrator::{RecoveryOrchestrator, RetryPolicy};
use drt_core::{DrtpManager, Telemetry, ViewDistortion};
use drt_net::{LinkId, Network, NodeId};
use drt_sim::workload::{maintenance_waves, regional_storm, TrafficPattern};
use drt_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One adversarial regime of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialRegime {
    /// Byzantine routers poison the link-state view route selection
    /// reads ([`ViewDistortion`]).
    ByzantineLsa,
    /// Byzantine routers fabricate failure reports for healthy links.
    FalseReports,
    /// A hostile flash-crowd workload converges on one target node.
    FlashCrowd,
    /// Regional storms and rolling maintenance waves: correlated
    /// geographic outages that pass, leaving their protection damage.
    RegionalStorm,
}

impl AdversarialRegime {
    /// Every regime, in sweep order.
    pub const ALL: [AdversarialRegime; 4] = [
        AdversarialRegime::ByzantineLsa,
        AdversarialRegime::FalseReports,
        AdversarialRegime::FlashCrowd,
        AdversarialRegime::RegionalStorm,
    ];

    /// The short label used in tables, substream derivation, and the
    /// campaign binary's `--regime` flag.
    pub fn label(self) -> &'static str {
        match self {
            AdversarialRegime::ByzantineLsa => "byzantine-lsa",
            AdversarialRegime::FalseReports => "false-reports",
            AdversarialRegime::FlashCrowd => "flash-crowd",
            AdversarialRegime::RegionalStorm => "regional-storm",
        }
    }

    /// Parses a [`AdversarialRegime::label`] back into a regime.
    pub fn parse(s: &str) -> Option<AdversarialRegime> {
        AdversarialRegime::ALL.into_iter().find(|r| r.label() == s)
    }

    /// `true` for regimes with a deployable countermeasure — these run
    /// one undefended and one defended arm per cell.
    pub fn has_countermeasure(self) -> bool {
        matches!(
            self,
            AdversarialRegime::ByzantineLsa | AdversarialRegime::FalseReports
        )
    }

    /// What the integer strength knob means under this regime (for the
    /// table's reading guide).
    pub fn strength_meaning(self) -> &'static str {
        match self {
            AdversarialRegime::ByzantineLsa => "byzantine routers",
            AdversarialRegime::FalseReports => "byzantine reporters (= lies/round)",
            AdversarialRegime::FlashCrowd => "crowd intensity (fraction = 0.4 + 0.15*s)",
            AdversarialRegime::RegionalStorm => "storm radius (hops)",
        }
    }
}

impl std::fmt::Display for AdversarialRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of the sweep: regime × scheme × strength × defence arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialCell {
    /// The adversarial regime.
    pub regime: AdversarialRegime,
    /// The routing scheme under attack.
    pub scheme: SchemeKind,
    /// Adversary strength (see [`AdversarialRegime::strength_meaning`]).
    pub strength: u32,
    /// `true` when the countermeasure is armed.
    pub defended: bool,
}

impl AdversarialCell {
    /// The cell's identity tag, used for RNG substream derivation — two
    /// cells share a substream only if they are the same cell.
    pub fn tag(&self) -> String {
        format!(
            "{}-{}-s{}-{}",
            self.regime.label(),
            self.scheme.label(),
            self.strength,
            if self.defended { "def" } else { "und" }
        )
    }
}

/// Knobs of the adversarial sweep.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Regimes to run, in order.
    pub regimes: Vec<AdversarialRegime>,
    /// Routing schemes to attack.
    pub schemes: Vec<SchemeKind>,
    /// Adversary strengths to sweep.
    pub strengths: Vec<u32>,
    /// Connections to establish before the hostilities start.
    pub connections: usize,
    /// Attack rounds per cell.
    pub events: usize,
    /// Retry/backoff/quarantine policy of the orchestrator.
    pub policy: RetryPolicy,
    /// Master seed for workload, adversary choice, events, and probes.
    pub seed: u64,
}

impl Default for AdversarialConfig {
    /// All four regimes, the paper's three schemes, strengths 1/2/4,
    /// 100 connections, 6 rounds.
    fn default() -> Self {
        AdversarialConfig {
            regimes: AdversarialRegime::ALL.to_vec(),
            schemes: SchemeKind::paper_schemes().to_vec(),
            strengths: vec![1, 2, 4],
            connections: 100,
            events: 6,
            policy: RetryPolicy::default(),
            seed: 7,
        }
    }
}

impl AdversarialConfig {
    /// The sweep's cells in canonical (rendered) order: regime, scheme,
    /// strength, then undefended before defended.
    pub fn cells(&self) -> Vec<AdversarialCell> {
        let mut out = Vec::new();
        for &regime in &self.regimes {
            for &scheme in &self.schemes {
                for &strength in &self.strengths {
                    let arms: &[bool] = if regime.has_countermeasure() {
                        &[false, true]
                    } else {
                        &[false]
                    };
                    for &defended in arms {
                        out.push(AdversarialCell {
                            regime,
                            scheme,
                            strength,
                            defended,
                        });
                    }
                }
            }
        }
        out
    }

    /// The CI-scale sweep (`campaign --quick`): 40 connections, 3 rounds,
    /// strengths 1 and 3.
    pub fn quick() -> Self {
        AdversarialConfig {
            connections: 40,
            events: 3,
            strengths: vec![1, 3],
            ..AdversarialConfig::default()
        }
    }
}

/// The adversarial sweep as a [`Regime`]: one cell per
/// [`AdversarialCell`], each with its own scheme instance and manager.
#[derive(Debug)]
pub struct AdversarialCampaign {
    cfg: ExperimentConfig,
    acfg: AdversarialConfig,
    net: Arc<Network>,
}

impl AdversarialCampaign {
    /// The sweep `acfg` on the experiment network of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when the experiment topology cannot be built.
    pub fn new(cfg: &ExperimentConfig, acfg: &AdversarialConfig) -> Self {
        AdversarialCampaign {
            cfg: cfg.clone(),
            acfg: acfg.clone(),
            net: Arc::new(cfg.build_network().expect("experiment topology")),
        }
    }
}

/// The byzantine router set at `strength`: a prefix of one seeded
/// shuffle of all nodes, so stronger adversaries strictly contain
/// weaker ones and every cell of a sweep attacks the same routers.
fn pick_byzantine(net: &Network, strength: u32, seed: u64) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = net.nodes().collect();
    regime::shuffle(&mut ids, &mut drt_sim::rng::stream(seed, "byzantine"));
    ids.truncate((strength as usize).min(ids.len()));
    ids.sort();
    ids
}

/// Links advertised by a byzantine router (links whose source it is),
/// in id order.
fn owned_links(net: &Network, byzantine: &[NodeId]) -> Vec<LinkId> {
    let byz: BTreeSet<NodeId> = byzantine.iter().copied().collect();
    net.links()
        .filter(|l| byz.contains(&l.src()))
        .map(|l| l.id())
        .collect()
}

fn crowd_fraction(strength: u32) -> f64 {
    (0.4 + 0.15 * f64::from(strength)).min(0.9)
}

/// The next lie target: a healthy link advertised by a byzantine
/// router, loaded ones preferred (a lie about an idle link moves
/// nothing).
fn pick_lie_target(mgr: &DrtpManager, byzantine: &[NodeId], rng: &mut StdRng) -> Option<LinkId> {
    let byz: BTreeSet<NodeId> = byzantine.iter().copied().collect();
    let owned_loaded: Vec<LinkId> = regime::loaded_links(mgr)
        .into_iter()
        .filter(|&l| byz.contains(&mgr.net().link(l).src()))
        .collect();
    if let Some(l) = regime::pick(&owned_loaded, rng) {
        return Some(l);
    }
    let owned_healthy: Vec<LinkId> = owned_links(mgr.net(), byzantine)
        .into_iter()
        .filter(|&l| !mgr.is_failed(l))
        .collect();
    regime::pick(&owned_healthy, rng)
}

/// Injects one *real* single-link failure on a loaded link and feeds it
/// to the orchestrator. Under a defended `false-reports` arm the report
/// is vetted first — corroborated by ground truth, so it is always
/// acted on; the vetting only exercises (and counts through) the same
/// seam the lies are rejected at.
fn real_failure(
    mgr: &mut DrtpManager,
    orch: &mut RecoveryOrchestrator,
    now: SimTime,
    vet: bool,
    pick: &mut StdRng,
    inject: &mut StdRng,
) {
    let Some(link) = regime::pick(&regime::loaded_links(mgr), pick) else {
        return;
    };
    if vet {
        // The downstream endpoint is the detector; the surviving
        // upstream endpoint corroborates. A quarantined detector defers
        // to the other endpoint — ground truth always wins in the
        // centralized model, so defended and undefended arms inject the
        // same physical failures and stay comparable.
        let (dst, src) = {
            let l = mgr.net().link(link);
            (l.dst(), l.src())
        };
        let verdict = orch.vet_report(dst, link, true);
        if verdict != drt_core::orchestrator::ReportVerdict::Accepted {
            let _ = orch.vet_report(src, link, true);
        }
    }
    let report = mgr
        .inject_event(&FailureEvent::Link(link), inject)
        .expect("picked link is healthy");
    orch.observe_failure(now, &report);
}

impl Regime for AdversarialCampaign {
    type Cell = AdversarialCell;
    type Worker = ();

    fn cells(&self) -> Vec<AdversarialCell> {
        self.acfg.cells()
    }

    fn worker(&self) {}

    fn run_cell(&self, _: &mut (), cell: &AdversarialCell, sweep_jobs: usize) -> CellOutcome {
        let (cfg, acfg, net) = (&self.cfg, &self.acfg, &self.net);
        let cell = *cell;
        let tag = cell.tag();
        let mut scheme = cell.scheme.instantiate();
        let mut mgr = DrtpManager::with_config(Arc::clone(net), cell.scheme.manager_config());
        let byzantine = pick_byzantine(net, cell.strength, acfg.seed);

        // The workload: shared by every scheme and defence arm of a regime
        // (its substreams depend only on seed and strength), so cells differ
        // only in what is being attacked and whether it fights back.
        let pattern = if cell.regime == AdversarialRegime::FlashCrowd {
            let mut crowd_rng =
                drt_sim::rng::stream(acfg.seed, &format!("crowd-{}", cell.strength));
            TrafficPattern::flash_crowd(cfg.nodes, crowd_fraction(cell.strength), &mut crowd_rng)
        } else {
            TrafficPattern::ut()
        };
        if cell.regime == AdversarialRegime::ByzantineLsa {
            mgr.set_view_distortion(Some(ViewDistortion::for_nodes(net.num_nodes(), &byzantine)));
        }

        // Phase 1: establishment — under byzantine-lsa already poisoned, so
        // the accept/reject counters price the lies at admission time.
        regime::establish(cfg, &mut mgr, scheme.as_mut(), pattern, acfg.connections);

        // Phase 2: attack rounds, recovered through the orchestrator.
        let mut orch = RecoveryOrchestrator::new(net.num_links(), acfg.policy);
        let mut pick_rng = drt_sim::rng::stream(acfg.seed, &format!("pick-{tag}"));
        let waves = if cell.regime == AdversarialRegime::RegionalStorm {
            let mut wave_rng = drt_sim::rng::stream(acfg.seed, &format!("waves-{}", cell.strength));
            maintenance_waves(net, 8, &mut wave_rng)
        } else {
            Vec::new()
        };
        let mut now = SimTime::ZERO;
        for round in 0..acfg.events {
            let mut inject_rng =
                drt_sim::rng::indexed_stream(acfg.seed, &format!("inject-{tag}"), round as u64);
            match cell.regime {
                AdversarialRegime::ByzantineLsa => {
                    if cell.defended {
                        // A byzantine router's advertisements oscillate
                        // faster than the flap threshold; damping its churn
                        // quarantines every link it advertises away from
                        // the re-protection routes computed below.
                        for l in owned_links(net, &byzantine) {
                            for _ in 0..acfg.policy.flap_threshold {
                                orch.observe_churn(now, l);
                            }
                        }
                    }
                    real_failure(
                        &mut mgr,
                        &mut orch,
                        now,
                        false,
                        &mut pick_rng,
                        &mut inject_rng,
                    );
                }
                AdversarialRegime::FalseReports => {
                    for _ in 0..cell.strength {
                        let Some(link) = pick_lie_target(&mgr, &byzantine, &mut pick_rng) else {
                            break;
                        };
                        let reporter = mgr.net().link(link).src();
                        if cell.defended {
                            // Vetting finds no corroborating evidence (the
                            // link is healthy): the lie is rejected and the
                            // liar's suspicion rises toward quarantine. The
                            // lie is recorded here because it never reaches
                            // the manager's own counter.
                            orch.telemetry_mut().incr("adversary.false_reports");
                            let _ = orch.vet_report(reporter, link, false);
                        } else if let Ok(report) = mgr.inject_false_report(link, &mut inject_rng) {
                            // Undefended, the lie is acted on: spurious
                            // switchovers, and the switched connections
                            // queue for re-protection exactly as if the
                            // failure had been real.
                            orch.observe_failure(now, &report);
                        }
                    }
                    real_failure(
                        &mut mgr,
                        &mut orch,
                        now,
                        cell.defended,
                        &mut pick_rng,
                        &mut inject_rng,
                    );
                }
                AdversarialRegime::FlashCrowd => {
                    real_failure(
                        &mut mgr,
                        &mut orch,
                        now,
                        false,
                        &mut pick_rng,
                        &mut inject_rng,
                    );
                }
                AdversarialRegime::RegionalStorm => {
                    let event = if round % 2 == 0 {
                        storm_event(&mgr, cell.strength as usize, &mut pick_rng)
                    } else {
                        let wave = &waves[(round / 2) % waves.len()];
                        Some(FailureEvent::Batch(
                            wave.iter().map(|&n| FailureEvent::Node(n)).collect(),
                        ))
                    };
                    if let Some(event) = event {
                        if let Ok(report) = mgr.inject_event(&event, &mut inject_rng) {
                            orch.observe_failure(now, &report);
                        }
                    }
                }
            }
            now = orch.run_to_quiescence(now, &mut mgr, &mut *scheme);
            if cell.regime == AdversarialRegime::RegionalStorm {
                // The storm passes: every downed link repairs. Lost and
                // orphaned protection stays lost — that residue is what the
                // closing probe prices.
                let downed: Vec<LinkId> = net
                    .links()
                    .map(|l| l.id())
                    .filter(|&l| mgr.is_failed(l))
                    .collect();
                for l in downed {
                    if mgr.repair_link(l).is_ok() {
                        orch.observe_repair(now, l);
                    }
                }
            }
            now += SimDuration::from_secs(30);
        }

        let mut t = mgr.telemetry().clone();
        t.merge(orch.telemetry());
        let seed = drt_sim::rng::substream_seed(acfg.seed, &format!("probe-{tag}"));
        let worst_links = regime::closing_sweep(&mgr, seed, sweep_jobs, &mut t);
        CellOutcome {
            telemetry: t,
            worst_links,
        }
    }

    fn title(&self) -> String {
        format!(
            "Adversarial campaign ({} nodes, {} links)",
            self.net.num_nodes(),
            self.net.num_links()
        )
    }

    fn columns(&self) -> Vec<Column<AdversarialCell>> {
        use Value::{Count, Hist};
        vec![
            Column::left("regime", 15, Value::Cell(|c| c.regime.label().into())),
            Column::left("scheme", 6, Value::Cell(|c| c.scheme.label().into())),
            Column::right("str", 3, Value::Cell(|c| c.strength.to_string())),
            Column::right(
                "def",
                4,
                Value::Cell(|c| if c.defended { "yes" } else { "no" }.into()),
            ),
            Column::right("estab", 6, Count(&["establish.accepted"])),
            Column::right("rej", 4, Count(&["establish.rejected"])),
            Column::right("events", 6, Count(&["inject.events"])),
            Column::right("links", 6, Count(&["inject.links_failed"])),
            Column::right("switch", 6, Count(&["inject.switched"])),
            Column::right("f-rep", 5, Count(&["adversary.false_reports"])),
            Column::right("f-rr", 6, Count(&["adversary.false_reroutes"])),
            Column::right(
                "vetoed",
                6,
                Count(&["reports.rejected", "reports.rejected_quarantined"]),
            ),
            Column::right(
                "quar",
                6,
                Count(&["quarantine.routers_entered", "quarantine.links_entered"]),
            ),
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
        ]
    }

    fn footer(&self, merged: &Telemetry) -> String {
        let cells = self.cells();
        let mut out = String::from("\n");
        for regime in AdversarialRegime::ALL {
            if cells.iter().any(|c| c.regime == regime) {
                out.push_str(&format!(
                    "  strength under {:<15} = {}\n",
                    regime.label(),
                    regime.strength_meaning()
                ));
            }
        }
        out.push_str(
            "\nreading guide: byzantine regimes run one undefended and one\n\
             defended arm per cell (`def`). `f-rep` counts the lies fired,\n\
             `f-rr` the spurious switchovers they caused, `vetoed` the lies\n\
             report verification rejected, and `quar` the routers + links the\n\
             countermeasures quarantined. `orphan` counts connections whose\n\
             re-protection exhausted its retries; `rec-p50`/`rec-p95` are\n\
             recovery-latency percentiles from the telemetry histogram, and\n\
             `P_act-bk` is probed on the post-campaign state. Every column is\n\
             a projection of the merged telemetry below; the table is\n\
             deterministic per seed and byte-identical for every --jobs.\n\n\
             campaign telemetry (merged across cells):\n",
        );
        for line in merged.snapshot().lines() {
            out.push_str(&format!("  {line}\n"));
        }
        out
    }
}

/// A radius-`radius` storm around a random epicenter with at least one
/// healthy link inside; a handful of epicenters are tried before giving
/// up (radius 0, or a dead region, yields nothing to fail).
fn storm_event(mgr: &DrtpManager, radius: usize, rng: &mut StdRng) -> Option<FailureEvent> {
    for _ in 0..8 {
        let epicenter = NodeId::new(rng.gen_range(0..mgr.net().num_nodes() as u32));
        let links: Vec<LinkId> = regional_storm(mgr.net(), epicenter, radius)
            .into_iter()
            .filter(|&l| !mgr.is_failed(l))
            .collect();
        if !links.is_empty() {
            return Some(FailureEvent::Batch(
                links.into_iter().map(FailureEvent::Link).collect(),
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regime::{merged, render, run};

    fn small() -> (ExperimentConfig, AdversarialConfig) {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let acfg = AdversarialConfig {
            regimes: AdversarialRegime::ALL.to_vec(),
            schemes: vec![SchemeKind::DLsr],
            strengths: vec![2],
            connections: 25,
            events: 4,
            seed: 13,
            ..AdversarialConfig::default()
        };
        (cfg, acfg)
    }

    fn sum(t: &Telemetry, keys: &[&str]) -> u64 {
        keys.iter().map(|k| t.counter(k)).sum()
    }

    #[test]
    fn labels_roundtrip_and_arms_follow_countermeasures() {
        for r in AdversarialRegime::ALL {
            assert_eq!(AdversarialRegime::parse(r.label()), Some(r));
        }
        assert_eq!(AdversarialRegime::parse("nope"), None);
        let (_, acfg) = small();
        let cells = acfg.cells();
        // byzantine-lsa and false-reports run both arms; the workload
        // regimes run one.
        assert_eq!(cells.len(), 2 + 2 + 1 + 1);
        assert!(cells
            .iter()
            .all(|c| c.defended <= c.regime.has_countermeasure()));
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let (cfg, acfg) = small();
        let sweep = AdversarialCampaign::new(&cfg, &acfg);
        let a = run(&sweep, 1);
        let b = run(&sweep, 1);
        assert_eq!(a, b);
        let other = AdversarialConfig { seed: 14, ..acfg };
        let other = AdversarialCampaign::new(&cfg, &other);
        let c = run(&other, 1);
        assert_ne!(
            render(&sweep, &a),
            render(&other, &c),
            "different seed must move some field"
        );
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let (cfg, acfg) = small();
        let sweep = AdversarialCampaign::new(&cfg, &acfg);
        let serial = run(&sweep, 1);
        let par = run(&sweep, 3);
        assert_eq!(serial, par);
    }

    #[test]
    fn rows_are_projections_of_their_telemetry() {
        let (cfg, acfg) = small();
        let sweep = AdversarialCampaign::new(&cfg, &acfg);
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
        }
    }

    #[test]
    fn vetting_rejects_every_lie_and_saves_protection() {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let acfg = AdversarialConfig {
            regimes: vec![AdversarialRegime::FalseReports],
            schemes: vec![SchemeKind::DLsr],
            strengths: vec![3],
            connections: 25,
            events: 4,
            seed: 13,
            ..AdversarialConfig::default()
        };
        let rows = run(&AdversarialCampaign::new(&cfg, &acfg), 1);
        assert_eq!(rows.len(), 2);
        let arm = |def: bool| {
            &rows
                .iter()
                .find(|(c, _)| c.defended == def)
                .unwrap()
                .1
                .telemetry
        };
        let (undefended, defended) = (arm(false), arm(true));
        let rejected = ["reports.rejected", "reports.rejected_quarantined"];
        assert!(undefended.counter("adversary.false_reports") > 0);
        assert!(
            undefended.counter("adversary.false_reroutes") > 0,
            "unvetted lies must force spurious switchovers"
        );
        assert_eq!(
            defended.counter("adversary.false_reroutes"),
            0,
            "vetting rejects every lie"
        );
        assert!(
            sum(defended, &rejected) >= defended.counter("adversary.false_reports"),
            "every lie is vetoed (plus any real report from a reporter \
             already in quarantine)"
        );
        assert!(
            defended.counter("quarantine.routers_entered") > 0,
            "repeat liars end up quarantined"
        );
        // The acceptance criterion of the issue: with quarantine on,
        // D-LSR keeps measurably more of its protection probability.
        let (u, d) = (
            undefended
                .try_gauge("sweep.p_act_bk_ppm")
                .expect("probe ran"),
            defended.try_gauge("sweep.p_act_bk_ppm").expect("probe ran"),
        );
        assert!(
            d > u,
            "defended P_act-bk ({d} ppm) must beat undefended ({u} ppm)"
        );
    }

    #[test]
    fn byzantine_lsa_defence_quarantines_liar_links() {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let acfg = AdversarialConfig {
            regimes: vec![AdversarialRegime::ByzantineLsa],
            schemes: vec![SchemeKind::DLsr],
            strengths: vec![2],
            connections: 25,
            events: 4,
            seed: 13,
            ..AdversarialConfig::default()
        };
        let rows = run(&AdversarialCampaign::new(&cfg, &acfg), 1);
        let arm = |def: bool| {
            &rows
                .iter()
                .find(|(c, _)| c.defended == def)
                .unwrap()
                .1
                .telemetry
        };
        let (defended, undefended) = (arm(true), arm(false));
        assert!(
            defended.counter("quarantine.links_entered") > 0,
            "churn damping must quarantine the liars' links"
        );
        assert_eq!(undefended.counter("quarantine.links_entered"), 0);
        // Both arms see the same poisoned establishment phase.
        for key in ["establish.accepted", "establish.rejected"] {
            assert_eq!(defended.counter(key), undefended.counter(key));
        }
    }

    #[test]
    fn storm_rounds_repair_behind_themselves() {
        let (cfg, mut acfg) = small();
        acfg.regimes = vec![AdversarialRegime::RegionalStorm];
        let rows = run(&AdversarialCampaign::new(&cfg, &acfg), 1);
        let t = &rows[0].1.telemetry;
        assert!(t.counter("inject.links_failed") > 0, "storms must land");
        // The closing probe ran on a fully repaired network: every
        // probe trial found a live failure unit to fail.
        assert!(t.counter("sweep.trials") > 0);
    }

    #[test]
    fn table_renders_every_cell() {
        let (cfg, acfg) = small();
        let sweep = AdversarialCampaign::new(&cfg, &acfg);
        let rows = run(&sweep, 1);
        let table = render(&sweep, &rows);
        assert!(table.contains("P_act-bk"));
        for r in AdversarialRegime::ALL {
            assert!(table.contains(r.label()));
        }
        let merged = merged(&rows);
        assert!(merged.counter("establish.accepted") > 0);
        assert!(!merged.snapshot().is_empty());
    }
}
