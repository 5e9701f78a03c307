//! W1 `paper-replay`: the paper's static evaluation. D-LSR, P-LSR and BF
//! each replay the same λ=0.5 UT and NT scenarios on the Table-1 network
//! with six snapshot sweeps — the work of `runner::replay_with`.

use crate::bench::{micros, Det, Outcome, Workload};
use crate::ops;
use crate::trace::Tracer;
use drt_core::routing::{RouteRequest, RoutingScheme};
use drt_core::{ConnectionId, DrtpManager};
use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::{self, SchemeKind};
use drt_net::Network;
use drt_sim::workload::{Scenario, TimelineEvent, TrafficPattern};
use drt_sim::SimTime;
use std::sync::Arc;
use std::time::Instant;

const LAMBDA: f64 = 0.5;

struct Cell {
    kind: SchemeKind,
    scenario: usize,
    scheme: Box<dyn RoutingScheme>,
    /// Manager state at the warm-up mark, and the first event after it.
    warmed: DrtpManager,
    start: usize,
}

pub struct PaperReplay {
    cfg: ExperimentConfig,
    net: Arc<Network>,
    scenarios: Vec<Scenario>,
    timelines: Vec<Vec<(SimTime, TimelineEvent)>>,
    cells: Vec<Cell>,
}

pub fn setup(seed: u64, tr: &mut Tracer) -> PaperReplay {
    let mut cfg = ExperimentConfig::paper(3.0);
    cfg.seed = seed;
    tr.enter("net.topology.build");
    let net = Arc::new(cfg.build_network().expect("Table-1 topology is feasible"));
    tr.exit("net.topology.build");
    tr.enter("sim.scenario.generate");
    let scenarios = vec![
        cfg.scenario_config(LAMBDA, TrafficPattern::ut())
            .generate(cfg.nodes),
        cfg.scenario_config(LAMBDA, cfg.nt_pattern())
            .generate(cfg.nodes),
    ];
    let timelines: Vec<_> = scenarios.iter().map(|s| s.timeline()).collect();
    tr.exit("sim.scenario.generate");

    let warmup_at = SimTime::ZERO + cfg.warmup;
    let mut cells = Vec::new();
    let mut off = Tracer::new(false);
    for kind in SchemeKind::paper_schemes() {
        for (si, timeline) in timelines.iter().enumerate() {
            let mut mgr = DrtpManager::with_config(Arc::clone(&net), kind.manager_config());
            let mut scheme = kind.instantiate();
            let start = timeline.partition_point(|(t, _)| *t < warmup_at);
            let mut prefix = Outcome::default();
            for &(t, ev) in &timeline[..start] {
                apply(
                    &cfg,
                    &scenarios[si],
                    &mut mgr,
                    scheme.as_mut(),
                    kind,
                    t,
                    ev,
                    &mut off,
                    &mut prefix,
                );
            }
            cells.push(Cell {
                kind,
                scenario: si,
                scheme,
                warmed: mgr,
                start,
            });
        }
    }
    PaperReplay {
        cfg,
        net,
        scenarios,
        timelines,
        cells,
    }
}

/// One timeline event, exactly as `runner::replay_with` handles it.
#[allow(clippy::too_many_arguments)]
fn apply(
    cfg: &ExperimentConfig,
    scenario: &Scenario,
    mgr: &mut DrtpManager,
    scheme: &mut dyn RoutingScheme,
    kind: SchemeKind,
    t: SimTime,
    ev: TimelineEvent,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let end_at = SimTime::ZERO + cfg.duration;
    out.det.events += 1;
    out.det.ops += 1;
    tr.begin_op();
    match ev {
        TimelineEvent::Arrive(rid) => {
            tr.enter("op.arrive");
            let t0 = Instant::now();
            let r = scenario.request(rid).expect("timeline ids are valid");
            let req = RouteRequest::new(
                ConnectionId::new(rid.index() as u64),
                r.src,
                r.dst,
                scenario.bw_req(),
            )
            .with_backups(cfg.backups_per_connection);
            let res = ops::request(mgr, scheme, kind, req, tr, out);
            out.timing.request_us.push(micros(t0));
            tr.exit("op.arrive");
            if t <= end_at {
                out.det.requests += 1;
                if let Ok(rep) = res {
                    out.det.admitted += 1;
                    out.det.msgs += rep.overhead.messages;
                    out.det.msgs_conns += 1;
                }
            }
        }
        TimelineEvent::Depart(rid) => {
            tr.enter("op.depart");
            let id = ConnectionId::new(rid.index() as u64);
            let live = mgr.connection(id).is_some();
            ops::release(mgr, id, live, tr, out);
            tr.exit("op.depart");
        }
        TimelineEvent::LinkFail(_) | TimelineEvent::LinkRepair(_) => {
            unreachable!("paper scenarios are failure-free")
        }
    }
    tr.end_op();
}

impl Workload for PaperReplay {
    fn replays(&self) -> usize {
        self.cells.len()
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let cfg = &self.cfg;
        let cell = &mut self.cells[i];
        let scenario = &self.scenarios[cell.scenario];
        let timeline = &self.timelines[cell.scenario][cell.start..];
        let snapshots = ops::snapshot_times(cfg.warmup, cfg.duration, cfg.snapshots);
        let sweep_seed = drt_sim::rng::substream_seed(cfg.seed, "ft-sweep");
        let mut mgr = cell.warmed.clone();
        let tel = mgr.telemetry().clone();
        let mut out = Outcome::default();
        // Sweep time and trials over the replay's snapshots.
        let (mut sweep_us, mut trials) = (0.0, 0);
        out.segment(|out| {
            let mut snap = 0;
            for &(t, ev) in timeline {
                while snap < snapshots.len() && snapshots[snap] <= t {
                    let (us, n) = snapshot(&mgr, sweep_seed ^ snap as u64, tr, out);
                    (sweep_us, trials) = (sweep_us + us, trials + n);
                    snap += 1;
                }
                apply(
                    cfg,
                    scenario,
                    &mut mgr,
                    cell.scheme.as_mut(),
                    cell.kind,
                    t,
                    ev,
                    tr,
                    out,
                );
            }
            while snap < snapshots.len() {
                let (us, n) = snapshot(&mgr, sweep_seed ^ snap as u64, tr, out);
                (sweep_us, trials) = (sweep_us + us, trials + n);
                snap += 1;
            }
        });
        if trials > 0 {
            out.timing.recovery_us.push(sweep_us / trials as f64);
        }
        // The snapshot sweeps time their own samples; they are also part of
        // the segment, so W1's throughput includes them.
        ops::check_invariants(&mgr, tr);
        let now = mgr.telemetry();
        let delta = |k: &str| now.counter(k) - tel.counter(k);
        out.det.cache_hits = delta("cache.hits");
        out.det.cache_misses = delta("cache.misses");
        out.det.cache_invalidations = delta("cache.invalidations");
        out.det.fingerprint = mgr.fingerprint();
        out
    }

    fn oracle(&self, firsts: &[crate::bench::Det]) -> Result<(), String> {
        for (cell, det) in self.cells.iter().zip(firsts) {
            let want = runner::replay(
                &self.net,
                &self.scenarios[cell.scenario],
                cell.kind,
                &self.cfg,
            );
            let got = (
                det.requests,
                det.admitted,
                det.act_affected,
                det.act_activated,
                msgs_per_conn(det),
            );
            let exp = (
                want.requests,
                want.admitted,
                want.fault_tolerance.affected,
                want.fault_tolerance.activated,
                want.msgs_per_conn,
            );
            if got != exp {
                return Err(format!(
                    "{} {}: (requests, admitted, affected, activated, msgs/conn) = {got:?}, runner::replay says {exp:?}",
                    cell.kind, want.pattern
                ));
            }
        }
        Ok(())
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "paper-replay: {} nodes, {} links, lambda {LAMBDA}, seed {}, cells {}",
            self.net.num_nodes(),
            self.net.num_links(),
            self.cfg.seed,
            self.cells.len()
        )]
    }
}

/// A snapshot sweep; returns its duration in microseconds and its trials.
/// Its probe results are W1's `p_act_bk`. W1's recovery sample is the sweep
/// time per probed failure over a replay's sweeps: each sweep hands every
/// loaded single failure to the manager's activation contention in turn.
/// Pooling the six sweeps of a replay keeps one host stall inside a 1 ms
/// sweep from setting the tail.
fn snapshot(mgr: &DrtpManager, seed: u64, tr: &mut Tracer, out: &mut Outcome) -> (f64, u64) {
    let (s, us) = ops::sweep(mgr, seed, tr, out);
    out.det.act_affected += s.aggregate.affected;
    out.det.act_activated += s.aggregate.activated;
    (us, s.aggregate.trials)
}

fn msgs_per_conn(d: &Det) -> f64 {
    if d.admitted == 0 {
        0.0
    } else {
        d.msgs as f64 / d.admitted as f64
    }
}
