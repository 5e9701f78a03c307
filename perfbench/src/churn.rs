//! W2 `failure-churn`: D-LSR on the Table-1 network at the saturation knee
//! under a recorded link-failure process, with re-protection after every
//! failure and re-optimisation after every repair — the work of
//! `availability::replay_with_failures` with reconfiguration on.

use crate::bench::{micros, Det, Outcome, Workload};
use crate::ops;
use crate::trace::Tracer;
use drt_core::routing::RouteRequest;
use drt_core::{ConnectionId, DrtpError, DrtpManager};
use drt_experiments::availability;
use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::SchemeKind;
use drt_net::Network;
use drt_sim::workload::{FailureProcess, Scenario, TimelineEvent, TrafficPattern};
use drt_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

const KIND: SchemeKind = SchemeKind::DLsr;

const LAMBDA: f64 = 0.5;
const FAILURES_PER_HOUR: f64 = 600.0;
const MTTR_MIN: u64 = 4;

/// Replay state at the warm-up mark.
#[derive(Clone)]
struct Warm {
    mgr: DrtpManager,
    rng: StdRng,
    /// Admitted and not lost, per request id.
    live: Vec<bool>,
    /// Counts over the warm-up prefix, for the oracle's whole-run totals.
    det: Det,
}

pub struct Churn {
    cfg: ExperimentConfig,
    net: Arc<Network>,
    scenario: Scenario,
    timeline: Vec<(SimTime, TimelineEvent)>,
    start: usize,
    scheme: Box<dyn drt_core::routing::RoutingScheme>,
    warm: Warm,
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Churn {
    let mut cfg = ExperimentConfig::paper(3.0);
    cfg.seed = seed;
    tr.enter("net.topology.build");
    let net = Arc::new(cfg.build_network().expect("churn topology is feasible"));
    tr.exit("net.topology.build");
    tr.enter("sim.scenario.generate");
    let mut scfg = cfg.scenario_config(LAMBDA, TrafficPattern::ut());
    scfg.failures = Some(FailureProcess {
        failures_per_hour: FAILURES_PER_HOUR,
        mttr: SimDuration::from_minutes(MTTR_MIN),
    });
    let scenario = scfg.generate_with_links(cfg.nodes, net.num_links());
    let timeline = scenario.timeline();
    tr.exit("sim.scenario.generate");

    let mut scheme = KIND.instantiate();
    let mut warm = Warm {
        mgr: DrtpManager::with_config(Arc::clone(&net), KIND.manager_config()),
        rng: drt_sim::rng::stream(cfg.seed, "availability"),
        live: vec![false; scenario.len()],
        det: Det::default(),
    };
    let warmup_at = SimTime::ZERO + cfg.warmup;
    let start = timeline.partition_point(|(t, _)| *t < warmup_at);
    let mut off = Tracer::new(false);
    let mut prefix = Outcome::default();
    for &(_, ev) in &timeline[..start] {
        apply(
            &cfg,
            &scenario,
            &mut warm,
            scheme.as_mut(),
            ev,
            &mut off,
            &mut prefix,
        );
    }
    warm.det = prefix.det;
    Churn {
        cfg,
        net,
        scenario,
        timeline,
        start,
        scheme,
        warm,
    }
}

/// One timeline event, exactly as `availability::replay_with_failures`
/// handles it with reconfiguration on.
fn apply(
    cfg: &ExperimentConfig,
    scenario: &Scenario,
    w: &mut Warm,
    scheme: &mut dyn drt_core::routing::RoutingScheme,
    ev: TimelineEvent,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    out.det.events += 1;
    out.det.ops += 1;
    tr.begin_op();
    let mgr = &mut w.mgr;
    match ev {
        TimelineEvent::Arrive(rid) => {
            tr.enter("op.arrive");
            let t0 = Instant::now();
            let r = scenario.request(rid).expect("valid id");
            let req = RouteRequest::new(
                ConnectionId::new(rid.index() as u64),
                r.src,
                r.dst,
                scenario.bw_req(),
            )
            .with_backups(cfg.backups_per_connection);
            let res = ops::request(mgr, scheme, KIND, req, tr, out);
            out.timing.request_us.push(micros(t0));
            tr.exit("op.arrive");
            out.det.requests += 1;
            if let Ok(rep) = res {
                out.det.admitted += 1;
                out.det.msgs += rep.overhead.messages;
                out.det.msgs_conns += 1;
                w.live[rid.index()] = true;
            }
        }
        TimelineEvent::Depart(rid) => {
            tr.enter("op.depart");
            let live = std::mem::take(&mut w.live[rid.index()]);
            ops::release(mgr, ConnectionId::new(rid.index() as u64), live, tr, out);
            tr.exit("op.depart");
        }
        TimelineEvent::LinkFail(link) => {
            tr.enter("op.fail");
            let t0 = Instant::now();
            let already_down = mgr.is_failed(link);
            tr.enter("core.failure.inject");
            let res = mgr.inject_failure(link, &mut w.rng);
            tr.exit("core.failure.inject");
            match res {
                Ok(report) => {
                    let d = &mut out.det;
                    d.failures += 1;
                    d.affected += report.affected() as u64;
                    d.switched += report.switched.len() as u64;
                    d.lost += report.lost.len() as u64;
                    d.unprotected += report.unprotected.len() as u64;
                    d.act_affected += report.affected() as u64;
                    d.act_activated += report.switched.len() as u64;
                    for id in &report.lost {
                        w.live[id.as_u64() as usize] = false;
                    }
                    for &id in report.switched.iter().chain(&report.unprotected) {
                        if ops::reestablish(mgr, scheme, id, tr, out) {
                            out.det.reprotected += 1;
                        } else {
                            out.det.reprotect_failures += 1;
                        }
                    }
                    out.timing.recovery_us.push(micros(t0));
                }
                Err(DrtpError::LinkFailed(_)) if already_down => {}
                Err(_) => out.det.ops_failed += 1,
            }
            tr.exit("op.fail");
        }
        TimelineEvent::LinkRepair(link) => {
            tr.enter("op.repair");
            let was_down = mgr.is_failed(link);
            tr.enter("core.failure.repair_link");
            let res = mgr.repair_link(link);
            tr.exit("core.failure.repair_link");
            match res {
                Ok(()) => {
                    out.det.repairs += 1;
                    reoptimize(mgr, scheme, tr, out);
                }
                Err(DrtpError::LinkNotFailed(_)) if !was_down => {}
                Err(_) => out.det.ops_failed += 1,
            }
            tr.exit("op.repair");
        }
    }
    tr.end_op();
}

/// Replaces every backup that overlaps its own primary (chosen while links
/// were down), restoring the old backup when no better one exists.
fn reoptimize(
    mgr: &mut DrtpManager,
    scheme: &mut dyn drt_core::routing::RoutingScheme,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let degraded: Vec<ConnectionId> = mgr
        .connections()
        .filter(|c| {
            c.state().is_carrying_traffic()
                && c.backups().iter().any(|b| b.overlap(c.primary()) > 0)
        })
        .map(|c| c.id())
        .collect();
    for id in degraded {
        let old = mgr
            .connection(id)
            .map(|c| c.backups().to_vec())
            .unwrap_or_default();
        if mgr.drop_backups(id).is_err() {
            out.det.ops_failed += 1;
            continue;
        }
        if ops::reestablish(mgr, scheme, id, tr, out) {
            out.det.reoptimized += 1;
        } else {
            let mut restored = false;
            for b in old {
                restored |= mgr.install_backup_route(id, b).is_ok();
            }
            if !restored {
                out.det.reprotect_failures += 1;
            }
        }
    }
}

impl Workload for Churn {
    fn replays(&self) -> usize {
        1
    }

    fn run(&mut self, _: usize, tr: &mut Tracer) -> Outcome {
        let mut w = self.warm.clone();
        let tel = w.mgr.telemetry().clone();
        let snapshots = ops::snapshot_times(self.cfg.warmup, self.cfg.duration, self.cfg.snapshots);
        let sweep_seed = drt_sim::rng::substream_seed(self.cfg.seed, "ft-sweep");
        let mut out = Outcome::default();
        let mut snap = 0;
        let mut from = self.start;
        // Sample the events between snapshots; the snapshot sweeps run
        // outside the throughput window.
        for upto in snapshots
            .iter()
            .map(|&s| self.timeline.partition_point(|(t, _)| *t < s))
            .chain([self.timeline.len()])
        {
            let events = &self.timeline[from..upto];
            let (cfg, scenario, scheme) = (&self.cfg, &self.scenario, self.scheme.as_mut());
            out.segment(|out| {
                for &(_, ev) in events {
                    apply(cfg, scenario, &mut w, scheme, ev, tr, out);
                }
            });
            from = upto;
            if snap < snapshots.len() {
                ops::sweep(&w.mgr, sweep_seed ^ snap as u64, tr, &mut out);
                snap += 1;
            }
        }
        ops::check_invariants(&w.mgr, tr);
        let now = w.mgr.telemetry();
        let delta = |k: &str| now.counter(k) - tel.counter(k);
        out.det.cache_hits = delta("cache.hits");
        out.det.cache_misses = delta("cache.misses");
        out.det.cache_invalidations = delta("cache.invalidations");
        out.det.fingerprint = w.mgr.fingerprint();
        out
    }

    fn oracle(&self, firsts: &[Det]) -> Result<(), String> {
        let want =
            availability::replay_with_failures(&self.net, &self.scenario, KIND, &self.cfg, true);
        let (p, d) = (&self.warm.det, &firsts[0]);
        let got = [
            p.failures + d.failures,
            p.repairs + d.repairs,
            p.affected + d.affected,
            p.switched + d.switched,
            p.lost + d.lost,
            p.reprotected + d.reprotected,
            p.reprotect_failures + d.reprotect_failures,
            p.reoptimized + d.reoptimized,
        ];
        let exp = [
            want.failures,
            want.repairs,
            want.affected,
            want.switched,
            want.lost,
            want.reprotected,
            want.reprotect_failures,
            want.reoptimized,
        ];
        if got != exp {
            return Err(format!(
                "(failures, repairs, affected, switched, lost, reprotected, reprotect failures, reoptimized) = {got:?}, availability::replay_with_failures says {exp:?}"
            ));
        }
        Ok(())
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "failure-churn: {} nodes, {} links, lambda {LAMBDA}, horizon {} min (warm-up {} min), {FAILURES_PER_HOUR} failures/h, MTTR {MTTR_MIN} min, seed {}",
            self.net.num_nodes(),
            self.net.num_links(),
            self.cfg.duration.as_secs_f64() / 60.0,
            self.cfg.warmup.as_secs_f64() / 60.0,
            self.cfg.seed
        )]
    }
}
