//! W3 `signalling`: episodes shaped like `campaign::run_at_loss`. Each
//! episode builds a fresh `ProtocolSim` on the Table-1 network with a
//! lossy, duplicating, jittery control plane and journaled router
//! restarts; a D-LSR mirror picks the routes that the message-level
//! protocol then signals. After the warm-up mark the episode adds, between
//! the scenario's arrivals and departures, journaled router restarts, each
//! followed by re-protection of the connections left without a backup.
//!
//! Link failures are not handed to the protocol: a backup activated at a
//! router that also holds the connection's old primary hop overwrites that
//! hop's channel-table entry and strands its reservation, which
//! `ProtocolSim::check_invariants` reports as `prime-table-divergence`.

use crate::bench::{micros, Det, Outcome, Workload};
use crate::ops;
use crate::trace::Tracer;
use drt_core::routing::{RouteRequest, RoutingScheme};
use drt_core::{ConnectionId, DrtpManager};
use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::SchemeKind;
use drt_net::Network;
use drt_proto::{ChaosConfig, ConnOutcome, ProtocolConfig, ProtocolSim, RestartMode, RetryConfig};
use drt_sim::workload::{Scenario, TimelineEvent, TrafficPattern};
use drt_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

const KIND: SchemeKind = SchemeKind::DLsr;
const LAMBDA: f64 = 0.4;
/// Scenario horizon: the 70-minute warm-up plus the sampled part.
const DURATION_MIN: u64 = 100;
/// Distinct episodes per run, each from its own scenario and chaos seed.
const EPISODES: usize = 16;
/// A router restart after every this many sampled events.
const RESTART_EVERY: u64 = 50;
const RESTART_DOWN: SimDuration = SimDuration::from_millis(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conn {
    /// Never admitted.
    None,
    /// Admitted by the mirror and carrying traffic in the protocol.
    Live,
    /// Released, rejected or lost.
    Gone,
}

struct Episode {
    sim: ProtocolSim,
    mirror: DrtpManager,
    scheme: Box<dyn RoutingScheme>,
    conns: Vec<Conn>,
    restart_rng: StdRng,
}

/// The inputs of one episode.
struct Script {
    seed: u64,
    scenario: Scenario,
    timeline: Vec<(SimTime, TimelineEvent)>,
    /// First event after the warm-up mark.
    start: usize,
}

pub struct Signalling {
    cfg: ExperimentConfig,
    net: Arc<Network>,
    scripts: Vec<Script>,
    /// Episode 0, already warmed up by the set-up.
    ready: Option<Episode>,
    violations: Vec<String>,
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Signalling {
    let mut cfg = ExperimentConfig::paper(3.0);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_minutes(DURATION_MIN);
    tr.enter("net.topology.build");
    let net = Arc::new(cfg.build_network().expect("Table-1 topology is feasible"));
    tr.exit("net.topology.build");
    tr.enter("sim.scenario.generate");
    let warmup_at = SimTime::ZERO + cfg.warmup;
    let scripts = (0..EPISODES as u64)
        .map(|i| {
            let mut c = cfg.clone();
            c.seed = drt_sim::rng::substream_seed(seed, &format!("signalling-episode-{i}"));
            let scenario = c
                .scenario_config(LAMBDA, TrafficPattern::ut())
                .generate(c.nodes);
            let timeline = scenario.timeline();
            let start = timeline.partition_point(|(t, _)| *t < warmup_at);
            Script {
                seed: c.seed,
                scenario,
                timeline,
                start,
            }
        })
        .collect();
    tr.exit("sim.scenario.generate");
    let mut w = Signalling {
        cfg,
        net,
        scripts,
        ready: None,
        violations: Vec::new(),
    };
    w.ready = Some(w.prepare(0));
    w
}

/// Runs the DES until nothing is in flight, one event at a time.
fn quiesce(sim: &mut ProtocolSim, out: &mut Outcome) {
    while sim.step() {
        out.det.des_events += 1;
    }
}

fn live(outcome: Option<ConnOutcome>) -> bool {
    outcome.is_some_and(|o| o.is_established())
}

impl Signalling {
    /// A fresh protocol plane and mirror, replayed up to the warm-up mark.
    fn prepare(&self, i: usize) -> Episode {
        let script = &self.scripts[i];
        let seed = script.seed;
        let chaos = ChaosConfig {
            drop_prob: 0.05,
            dup_prob: 0.02,
            max_jitter: SimDuration::from_micros(200),
            restart_mode: RestartMode::Journaled,
            seed: drt_sim::rng::substream_seed(seed, "signalling-chaos"),
            ..ChaosConfig::default()
        };
        let retry = RetryConfig {
            max_attempts: 12,
            ..RetryConfig::default()
        };
        let mut ep = Episode {
            sim: ProtocolSim::with_chaos(
                Arc::clone(&self.net),
                ProtocolConfig::default(),
                retry,
                chaos,
            ),
            mirror: DrtpManager::with_config(Arc::clone(&self.net), KIND.manager_config()),
            scheme: KIND.instantiate(),
            conns: vec![Conn::None; script.scenario.len()],
            restart_rng: drt_sim::rng::stream(seed, "signalling-restarts"),
        };
        let mut off = Tracer::new(false);
        let mut prefix = Outcome::default();
        for &(_, ev) in &script.timeline[..script.start] {
            self.event(script, &mut ep, ev, &mut off, &mut prefix);
        }
        ep
    }

    fn event(
        &self,
        script: &Script,
        ep: &mut Episode,
        ev: TimelineEvent,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) {
        out.det.events += 1;
        out.det.ops += 1;
        tr.begin_op();
        match ev {
            TimelineEvent::Arrive(rid) => {
                tr.enter("op.arrive");
                let t0 = Instant::now();
                Self::arrive(script, ep, rid.index(), tr, out);
                out.timing.request_us.push(micros(t0));
                tr.exit("op.arrive");
            }
            TimelineEvent::Depart(rid) => {
                tr.enter("op.depart");
                if ep.conns[rid.index()] == Conn::Live {
                    let id = ConnectionId::new(rid.index() as u64);
                    tr.enter("proto.release");
                    let released = ep.sim.release(id);
                    quiesce(&mut ep.sim, out);
                    tr.exit("proto.release");
                    if !released {
                        out.det.ops_failed += 1;
                    }
                    let held = ep.mirror.connection(id).is_some();
                    ops::release(&mut ep.mirror, id, held, tr, out);
                    ep.conns[rid.index()] = Conn::Gone;
                }
                tr.exit("op.depart");
            }
            TimelineEvent::LinkFail(_) | TimelineEvent::LinkRepair(_) => {
                unreachable!("signalling scenarios carry no failure process")
            }
        }
        tr.end_op();
    }

    /// Mirror route selection and admission, then signalling until the
    /// protocol is quiescent; the mirror follows the protocol's verdict.
    fn arrive(script: &Script, ep: &mut Episode, index: usize, tr: &mut Tracer, out: &mut Outcome) {
        let r = &script.scenario.requests()[index];
        let id = ConnectionId::new(index as u64);
        let bw = script.scenario.bw_req();
        let req = RouteRequest::new(id, r.src, r.dst, bw).with_backups(1);
        out.det.requests += 1;
        let Ok(rep) = ops::request(&mut ep.mirror, ep.scheme.as_mut(), KIND, req, tr, out) else {
            return;
        };
        out.det.msgs_conns += 1;
        tr.enter("proto.establish");
        ep.sim.establish(id, bw, rep.primary, rep.backups);
        quiesce(&mut ep.sim, out);
        tr.exit("proto.establish");
        match ep.sim.outcome(id) {
            Some(ConnOutcome::Established) => {
                out.det.admitted += 1;
                ep.conns[index] = Conn::Live;
            }
            Some(ConnOutcome::Degraded) => {
                out.det.admitted += 1;
                if ep.mirror.drop_backups(id).is_err() {
                    out.det.ops_failed += 1;
                }
                ep.conns[index] = Conn::Live;
            }
            Some(ConnOutcome::Rejected) => {
                ops::release(&mut ep.mirror, id, true, tr, out);
                ep.conns[index] = Conn::Gone;
            }
            _ => out.det.ops_failed += 1,
        }
    }

    fn live_ids(ep: &Episode) -> Vec<ConnectionId> {
        ep.conns
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == Conn::Live)
            .map(|(i, _)| ConnectionId::new(i as u64))
            .collect()
    }

    /// Marks connections the protocol no longer carries as gone and frees
    /// them in the mirror.
    fn reconcile(ep: &mut Episode, tr: &mut Tracer, out: &mut Outcome) {
        for id in Self::live_ids(ep) {
            if !live(ep.sim.outcome(id)) {
                ep.conns[id.as_u64() as usize] = Conn::Gone;
                let held = ep.mirror.connection(id).is_some();
                if held {
                    ops::release(&mut ep.mirror, id, true, tr, out);
                }
            }
        }
    }

    /// Re-protects every live connection the protocol carries without a
    /// registered backup: the mirror finds a backup, the protocol registers
    /// it, and the mirror drops it again if the registration fails.
    fn reprotect(ep: &mut Episode, tr: &mut Tracer, out: &mut Outcome) {
        for id in Self::live_ids(ep) {
            if !ep.sim.registered_backups(id).is_empty() {
                continue;
            }
            if ep.mirror.connection(id).is_some_and(|c| !c.backups().is_empty())
                && ep.mirror.drop_backups(id).is_err()
            {
                out.det.ops_failed += 1;
            }
            if !ops::reestablish(&mut ep.mirror, ep.scheme.as_mut(), id, tr, out) {
                continue;
            }
            let backup = ep
                .mirror
                .connection(id)
                .and_then(|c| c.backups().last().cloned())
                .expect("a backup was just installed");
            tr.enter("proto.add_backup");
            let added = ep.sim.add_backup(id, backup);
            quiesce(&mut ep.sim, out);
            tr.exit("proto.add_backup");
            if !added {
                out.det.ops_failed += 1;
            }
            if ep.sim.outcome(id) == Some(ConnOutcome::Established) {
                out.det.reprotected += 1;
            } else if ep.mirror.drop_backups(id).is_err() {
                out.det.ops_failed += 1;
            }
        }
    }

    /// Crashes the far end of a loaded link, restarts it from its journal,
    /// and re-protects what is left unprotected. Recovery ends when the
    /// rejoin's resync and the re-protection are quiescent.
    fn restart(&self, ep: &mut Episode, tr: &mut Tracer, out: &mut Outcome) {
        let Some(link) = ops::pick_loaded_link(&ep.mirror, &mut ep.restart_rng) else {
            return;
        };
        let node = self.net.link(link).dst();
        out.det.ops += 1;
        out.det.events += 1;
        out.det.restarts += 1;
        tr.begin_op();
        tr.enter("op.restart");
        let t0 = Instant::now();
        tr.enter("proto.restart_router");
        ep.sim.restart_router(node, RESTART_DOWN);
        quiesce(&mut ep.sim, out);
        tr.exit("proto.restart_router");
        Self::reconcile(ep, tr, out);
        Self::reprotect(ep, tr, out);
        out.timing.recovery_us.push(micros(t0));
        tr.exit("op.restart");
        tr.end_op();
    }

    fn totals(ep: &Episode) -> [u64; 6] {
        let (msgs, bytes) = ep.sim.counters().total();
        let retx = ep.sim.counters().retransmitted().0;
        let exhausted = ep.sim.exhausted().map(|(_, n)| n).sum();
        let records = ep
            .mirror
            .net()
            .nodes()
            .map(|n| ep.sim.journal(n).lsn())
            .sum();
        let replayed = ep.sim.journal_stats().replayed_records;
        [msgs, bytes, retx, exhausted, records, replayed]
    }
}

impl Workload for Signalling {
    fn replays(&self) -> usize {
        self.scripts.len()
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let mut ep = match self.ready.take() {
            Some(ep) if i == 0 => ep,
            _ => self.prepare(i),
        };
        let script = &self.scripts[i];
        let before = Self::totals(&ep);
        let tel = ep.mirror.telemetry().clone();
        let mut out = Outcome::default();
        let mut sampled = 0u64;
        // The episode ends at the horizon, with its load still in place;
        // the departures scheduled after it are not replayed.
        let end = script
            .timeline
            .partition_point(|(t, _)| *t <= SimTime::ZERO + self.cfg.duration);
        let events = &script.timeline[script.start..end];
        out.segment(|out| {
            for &(_, ev) in events {
                self.event(script, &mut ep, ev, tr, out);
                sampled += 1;
                if sampled.is_multiple_of(RESTART_EVERY) {
                    self.restart(&mut ep, tr, out);
                }
            }
        });
        let after = Self::totals(&ep);
        let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        out.det.proto_messages = d[0];
        out.det.msgs = d[0];
        out.det.proto_bytes = d[1];
        out.det.proto_retransmits = d[2];
        out.det.proto_exhausted = d[3];
        out.det.journal_records = d[4];
        out.det.journal_replayed = d[5];

        // The closing sweep probes every loaded single failure of the
        // state the protocol established; its activations are `p_act_bk`.
        ops::sweep(
            &ep.mirror,
            drt_sim::rng::substream_seed(script.seed, "probe"),
            tr,
            &mut out,
        );
        out.det.act_affected = out.det.probe_affected;
        out.det.act_activated = out.det.probe_activated;

        tr.enter("core.invariants.check");
        if let Err(v) = ep.sim.check_invariants() {
            self.violations.push(format!("{v:?}"));
        }
        ep.mirror.assert_invariants();
        tr.exit("core.invariants.check");
        let now = ep.mirror.telemetry();
        let delta = |k: &str| now.counter(k) - tel.counter(k);
        out.det.cache_hits = delta("cache.hits");
        out.det.cache_misses = delta("cache.misses");
        out.det.cache_invalidations = delta("cache.invalidations");
        out.det.fingerprint = ep.sim.fingerprint().rotate_left(1) ^ ep.mirror.fingerprint();
        out
    }

    fn oracle(&self, _: &[Det]) -> Result<(), String> {
        match self.violations.first() {
            None => Ok(()),
            Some(v) => Err(format!(
                "{} episode(s) broke ProtocolSim::check_invariants, first: {v}",
                self.violations.len()
            )),
        }
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "signalling: {} nodes, {} links, {EPISODES} episodes, lambda {LAMBDA}, horizon {DURATION_MIN} min (warm-up {} min), 5% loss, 2% dup, 200 us jitter, a journaled restart every {RESTART_EVERY} events, no link failures, seed {}",
            self.net.num_nodes(),
            self.net.num_links(),
            self.cfg.warmup.as_secs_f64() / 60.0,
            self.cfg.seed
        )]
    }
}
