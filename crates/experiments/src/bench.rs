//! `campaign --bench-json`: wall-clock timings of the routing hot paths
//! and the end-to-end campaign, written as a small JSON report
//! (`BENCH_routing.json`).
//!
//! Four micro targets and one macro comparison:
//!
//! * `dlsr_request_dense` / `dlsr_request_sparse` — one D-LSR
//!   request+release cycle on a loaded manager, with the incremental
//!   dense conflict engine vs. the sparse per-request recomputation
//!   baseline ([`DLsr::sparse_baseline`]);
//! * `shortest_path_tree` — one workspace-backed Dijkstra tree on the
//!   experiment topology;
//! * `spt_repair` — one dynamic-SPT delta repair (fail/restore of a
//!   tree link) on the same topology — the per-source increment
//!   `inject_event` pays for each changed link instead of a full
//!   rebuild;
//! * `inject_event` — one link-failure injection (activation contention
//!   pass) on a loaded manager, with its telemetry counters live;
//! * `inject_event_incremental` / `inject_event_baseline` — the whole
//!   event-handling path (injection plus the re-protection pass the
//!   campaign performs on bare survivors) under incremental route
//!   maintenance (dynamic-SPT hop repair + backup-candidate cache) vs.
//!   the from-scratch [`RouteMaintenance::Baseline`] arm;
//! * `sweep_single_failures` / `sweep_single_failures_naive` — the full
//!   Figure-4 single-failure sweep on a loaded manager, with the
//!   incidence-indexed probe engine vs. the full-scan
//!   `naive_baseline()`; the indexed leg times the *recorded* variant
//!   ([`DrtpManager::sweep_single_failures_recorded`]), so the median
//!   prices the telemetry aggregation the campaigns actually pay;
//! * `vulnerability` — the per-connection vulnerability report on the
//!   same load (indexed engine);
//! * `replay` — one full scenario replay on a small network;
//! * `resync_rejoin` — one journaled crash-recovery: a write-ahead
//!   journal replay plus the resync digest the restarted router offers
//!   its neighbours, on a protocol state with real established
//!   connections ([`drt_proto::Journal::replay`]);
//! * `end_to_end` — the whole loss-rate campaign, sparse engine on one
//!   worker (the pre-optimization shape) vs. dense engine on `jobs`
//!   workers.
//!
//! The report also embeds the merged [`Telemetry`] snapshot of the
//! instrumented targets (establishment, injection, and sweep metrics),
//! proving the instrumentation was live while the medians were taken.
//!
//! This module is the one place in the experiments crate allowed to read
//! the wall clock: it measures the *implementation*, not the simulated
//! system, so every `Instant::now` below carries a `lint:allow(nondet)`
//! waiver. The timings are machine-dependent by nature; the report
//! records the CPU count so numbers are read in context.

use crate::campaign::{CampaignConfig, LossCampaign};
use crate::config::ExperimentConfig;
use crate::runner::SchemeKind;
use drt_core::failure::FailureEvent;
use drt_core::routing::{DLsr, RouteRequest, RoutingScheme};
use drt_core::{ConnectionId, DrtpManager, RouteMaintenance, Telemetry};
use drt_net::NodeId;
use drt_sim::workload::{TimelineEvent, TrafficPattern};
use std::sync::Arc;
use std::time::Instant;

/// One timed target: name and median wall time per operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Target name, as it appears in the JSON report.
    pub name: &'static str,
    /// Median nanoseconds per operation.
    pub median_ns: f64,
}

/// The full report `campaign --bench-json` serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Micro-target medians.
    pub targets: Vec<Target>,
    /// End-to-end campaign, sparse cost engine, one worker (seconds).
    pub sparse_serial_s: f64,
    /// End-to-end campaign, dense cost engine, `jobs` workers (seconds).
    pub dense_jobs_s: f64,
    /// Worker count of the parallel end-to-end run.
    pub jobs: usize,
    /// CPUs the host exposes (timings are meaningless without it).
    pub cpus: usize,
    /// Merged telemetry of the instrumented targets, proving the
    /// counters and histograms were live while the medians were taken.
    pub telemetry: Telemetry,
}

impl BenchReport {
    /// End-to-end speedup of (dense, parallel) over (sparse, serial).
    pub fn speedup(&self) -> f64 {
        if self.dense_jobs_s > 0.0 {
            self.sparse_serial_s / self.dense_jobs_s
        } else {
            0.0
        }
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cpus\": {},\n", self.cpus));
        out.push_str("  \"targets\": [\n");
        for (i, t) in self.targets.iter().enumerate() {
            let comma = if i + 1 < self.targets.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns_per_op\": {:.0}}}{comma}\n",
                t.name, t.median_ns
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"telemetry\": {},\n", self.telemetry.to_json()));
        out.push_str("  \"end_to_end\": {\n");
        out.push_str(&format!(
            "    \"sparse_serial_s\": {:.3},\n",
            self.sparse_serial_s
        ));
        out.push_str(&format!(
            "    \"dense_jobs_s\": {:.3},\n",
            self.dense_jobs_s
        ));
        out.push_str(&format!("    \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("    \"speedup\": {:.2}\n", self.speedup()));
        out.push_str("  }\n}\n");
        out
    }
}

/// Median of one-op samples collected by running `op` in batches of
/// `batch` (amortizing timer overhead), `samples` times.
fn median_ns(samples: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now(); // lint:allow(nondet) — bench harness
        for _ in 0..batch {
            op();
        }
        v.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(v)
}

/// Median with per-sample untimed setup (for ops that consume state).
/// The state is borrowed, not moved, so its teardown — freeing a whole
/// cloned manager can cost more than the measured op — happens outside
/// the timed region.
fn median_ns_with_setup<S>(
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> f64 {
    let mut v = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut s = setup();
        let t0 = Instant::now(); // lint:allow(nondet) — bench harness
        op(&mut s);
        v.push(t0.elapsed().as_nanos() as f64);
        drop(s);
    }
    median(v)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

/// A manager loaded with `target` D-LSR connections from the standard
/// workload at utilization `load`, plus one extra request kept aside for
/// per-request timing. The per-request targets load heavily (high `load`,
/// high `target`) so the APLVs carry realistic conflict sets — on a
/// lightly loaded manager the sparse walk is vacuously cheap and the
/// engines are indistinguishable.
fn loaded_manager(
    cfg: &ExperimentConfig,
    scheme: &mut dyn RoutingScheme,
    load: f64,
    target: usize,
) -> (DrtpManager, RouteRequest) {
    let net = Arc::new(cfg.build_network().expect("experiment topology"));
    let mut mgr = DrtpManager::with_config(Arc::clone(&net), SchemeKind::DLsr.manager_config());
    let scenario = cfg
        .scenario_config(load, TrafficPattern::ut())
        .generate(cfg.nodes);
    let mut spare: Option<RouteRequest> = None;
    let mut admitted = 0usize;
    for (_, ev) in scenario.timeline() {
        let TimelineEvent::Arrive(rid) = ev else {
            continue;
        };
        let r = scenario.request(rid).expect("valid id");
        let req = RouteRequest::new(
            ConnectionId::new(rid.index() as u64),
            r.src,
            r.dst,
            scenario.bw_req(),
        )
        .with_backups(cfg.backups_per_connection);
        if admitted >= target {
            spare = Some(req);
            break;
        }
        if mgr.request_connection(&mut *scheme, req).is_ok() {
            admitted += 1;
        }
    }
    (mgr, spare.expect("workload outlasts the target"))
}

/// Runs every target and the end-to-end comparison.
///
/// `quick` shrinks sample counts and the campaign for CI smoke runs;
/// `jobs` is the worker count of the parallel end-to-end leg.
pub fn run(quick: bool, seed: u64, jobs: usize) -> BenchReport {
    let cfg = ExperimentConfig::quick(3.0);
    let (samples, batch) = if quick { (9, 20) } else { (25, 50) };
    let mut targets = Vec::new();
    let mut telemetry = Telemetry::new();

    // Per-request D-LSR routing: dense incremental engine vs. the sparse
    // per-request recomputation baseline. Same manager load, same spare
    // request, so the only difference is the conflict-cost engine.
    let (load, target) = if quick { (0.4, 60) } else { (0.7, 250) };
    let variants: [(&'static str, Box<dyn RoutingScheme>); 2] = [
        ("dlsr_request_dense", Box::new(DLsr::new())),
        ("dlsr_request_sparse", Box::new(DLsr::sparse_baseline())),
    ];
    for (name, mut scheme) in variants {
        let (mut mgr, spare) = loaded_manager(&cfg, scheme.as_mut(), load, target);
        let mut next_id = 1_000_000u64;
        targets.push(Target {
            name,
            median_ns: median_ns(samples, batch, || {
                let id = ConnectionId::new(next_id);
                next_id += 1;
                let req = RouteRequest { id, ..spare };
                if mgr.request_connection(scheme.as_mut(), req).is_ok() {
                    mgr.release(id).expect("just admitted");
                }
            }),
        });
    }

    // Workspace-backed Dijkstra tree on the experiment topology.
    let net = cfg.build_network().expect("experiment topology");
    targets.push(Target {
        name: "shortest_path_tree",
        median_ns: median_ns(samples, batch, || {
            let tree = drt_net::algo::shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
            std::hint::black_box(tree.distance(NodeId::new(1)));
        }),
    });

    // One dynamic-SPT delta repair on the same topology: a tree link
    // flips dead/alive each op, so the median averages the tear-down
    // and the reattach repair — the per-source increment a failure or
    // repair event costs instead of a from-scratch rebuild.
    {
        let mut alive = vec![true; net.num_links()];
        let far = NodeId::new(net.num_nodes() as u32 - 1);
        let mut spt = drt_net::algo::DynamicSpt::build(&net, NodeId::new(0), |_| Some(1.0));
        let link = spt.parent(far).expect("far node is reachable");
        targets.push(Target {
            name: "spt_repair",
            median_ns: median_ns(samples, batch, || {
                alive[link.index()] = !alive[link.index()];
                let moved = spt.update_links(&net, &[link], |l| alive[l.index()].then_some(1.0));
                std::hint::black_box(moved);
            }),
        });
    }

    // One link-failure injection on a loaded manager (clone per sample;
    // the clone is outside the timed region). The manager's telemetry
    // counters are recorded inside the timed op — the median is the
    // instrumented cost. One clone's registry lands in the report.
    {
        let mut scheme = SchemeKind::DLsr.instantiate();
        let (mgr, _) = loaded_manager(&cfg, scheme.as_mut(), load, target);
        let link = mgr
            .connections()
            .find(|c| c.state().is_carrying_traffic())
            .map(|c| c.primary().links()[0])
            .expect("loaded manager has live primaries");
        targets.push(Target {
            name: "inject_event",
            median_ns: median_ns_with_setup(
                samples,
                || mgr.clone(),
                |m| {
                    let mut rng = drt_sim::rng::stream(seed, "bench-inject");
                    let report = m.inject_event(&FailureEvent::Link(link), &mut rng);
                    std::hint::black_box(report.ok());
                },
            ),
        });
        let mut m = mgr.clone();
        let mut rng = drt_sim::rng::stream(seed, "bench-inject");
        let _ = m.inject_event(&FailureEvent::Link(link), &mut rng);
        telemetry.merge(m.telemetry());

        // The whole event-handling path — injection plus the
        // re-protection pass the campaign performs on bare survivors —
        // under both maintenance arms. The incremental leg repairs the
        // hop table through the per-source dynamic SPTs and serves
        // re-establishments from the backup-candidate cache; the
        // baseline leg recomputes hops from scratch and always searches.
        let mut baseline = mgr.clone();
        baseline.set_route_maintenance(RouteMaintenance::Baseline);
        for (name, proto) in [
            ("inject_event_incremental", &mgr),
            ("inject_event_baseline", &baseline),
        ] {
            targets.push(Target {
                name,
                median_ns: median_ns_with_setup(
                    samples,
                    || proto.clone(),
                    |m| {
                        let mut rng = drt_sim::rng::stream(seed, "bench-inject");
                        let report = m.inject_event(&FailureEvent::Link(link), &mut rng);
                        std::hint::black_box(report.ok());
                        let bare: Vec<ConnectionId> = m
                            .connections()
                            .filter(|c| c.state().is_carrying_traffic() && c.backups().is_empty())
                            .map(|c| c.id())
                            .collect();
                        for id in bare {
                            let _ = m.reestablish_backup(scheme.as_mut(), id);
                        }
                    },
                ),
            });
        }
    }

    // The Figure-4 sweep and the vulnerability report on the same load:
    // the incidence-indexed probe engine vs. the full-scan baseline.
    // One op = a whole sweep (every failure unit probed). The indexed
    // leg runs the *recorded* variant, so the median includes the
    // telemetry aggregation (sweep counters + `P_act-bk` gauge).
    {
        let mut scheme = SchemeKind::DLsr.instantiate();
        let (mut mgr, _) = loaded_manager(&cfg, scheme.as_mut(), load, target);
        let sweep_samples = if quick { 5 } else { 15 };
        targets.push(Target {
            name: "sweep_single_failures",
            median_ns: median_ns(sweep_samples, 1, || {
                std::hint::black_box(mgr.sweep_single_failures_recorded(seed).aggregate.trials);
            }),
        });
        targets.push(Target {
            name: "sweep_single_failures_naive",
            median_ns: median_ns(sweep_samples, 1, || {
                std::hint::black_box(
                    mgr.naive_baseline()
                        .sweep_single_failures(seed)
                        .aggregate
                        .trials,
                );
            }),
        });
        targets.push(Target {
            name: "vulnerability",
            median_ns: median_ns(sweep_samples, 1, || {
                std::hint::black_box(drt_core::analysis::vulnerability(&mgr, seed).trials());
            }),
        });
        telemetry.merge(mgr.telemetry());
    }

    // One full scenario replay on a small network.
    {
        let mut small = ExperimentConfig::quick(3.0);
        small.nodes = 20;
        small.duration = drt_sim::SimDuration::from_minutes(50);
        small.warmup = drt_sim::SimDuration::from_minutes(25);
        small.snapshots = 1;
        let net = Arc::new(small.build_network().expect("small topology"));
        let scenario = small
            .scenario_config(0.2, TrafficPattern::ut())
            .generate(small.nodes);
        targets.push(Target {
            name: "replay",
            median_ns: median_ns(if quick { 3 } else { 7 }, 1, || {
                let m = crate::runner::replay(&net, &scenario, SchemeKind::DLsr, &small);
                std::hint::black_box(m.admitted);
            }),
        });
    }

    // Journaled rejoin: one journal replay plus the resync digest the
    // restarted router offers its neighbours — the crash-recovery hot
    // path of the protocol engine. Replay is a pure function of the
    // journal, so the op repeats without per-sample setup. The digest
    // runs on the replayed router: exactly what a real rejoin computes.
    {
        let mut small = ExperimentConfig::quick(3.0);
        small.nodes = 20;
        let net = Arc::new(small.build_network().expect("small topology"));
        let mut mirror =
            DrtpManager::with_config(Arc::clone(&net), SchemeKind::DLsr.manager_config());
        let mut scheme = SchemeKind::DLsr.instantiate();
        let mut sim =
            drt_proto::ProtocolSim::new(Arc::clone(&net), drt_proto::ProtocolConfig::default());
        let scenario = small
            .scenario_config(0.3, TrafficPattern::ut())
            .generate(small.nodes);
        let mut established = 0usize;
        for (_, ev) in scenario.timeline() {
            if established >= 40 {
                break;
            }
            let TimelineEvent::Arrive(rid) = ev else {
                continue;
            };
            let conn = ConnectionId::new(rid.index() as u64);
            let r = scenario.request(rid).expect("valid id");
            let req = RouteRequest::new(conn, r.src, r.dst, scenario.bw_req())
                .with_backups(small.backups_per_connection);
            let Ok(rep) = mirror.request_connection(scheme.as_mut(), req) else {
                continue;
            };
            sim.establish(conn, scenario.bw_req(), rep.primary, rep.backups);
            sim.run_to_quiescence();
            established += 1;
        }
        // The busiest router: the one whose journal grew the longest.
        let node = net
            .nodes()
            .max_by_key(|&n| sim.journal(n).lsn())
            .expect("nonempty network");
        targets.push(Target {
            name: "resync_rejoin",
            median_ns: median_ns(samples, batch, || {
                let router = sim.journal(node).replay(&net, node);
                std::hint::black_box(router.resync_entries().len());
            }),
        });
    }

    // End to end: the loss-rate campaign, sparse engine on one worker
    // (the pre-optimization shape) vs. dense engine on `jobs` workers.
    let ccfg = CampaignConfig {
        seed,
        ..if quick {
            CampaignConfig::quick()
        } else {
            CampaignConfig::default()
        }
    };
    let t0 = Instant::now(); // lint:allow(nondet) — bench harness
    let sparse = LossCampaign::new(&cfg, &ccfg).with_scheme(|| Box::new(DLsr::sparse_baseline()));
    crate::regime::for_each_cell(&sparse, 1, |_, _| {});
    let sparse_serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now(); // lint:allow(nondet) — bench harness
    crate::regime::for_each_cell(&LossCampaign::new(&cfg, &ccfg), jobs, |_, _| {});
    let dense_jobs_s = t0.elapsed().as_secs_f64();

    BenchReport {
        targets,
        sparse_serial_s,
        dense_jobs_s,
        jobs,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_insensitive() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0]), 4.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn report_serializes_every_target() {
        let mut telemetry = Telemetry::new();
        telemetry.incr("inject.events");
        telemetry.observe("recovery.latency_us", 250);
        let rep = BenchReport {
            targets: vec![
                Target {
                    name: "a",
                    median_ns: 10.0,
                },
                Target {
                    name: "b",
                    median_ns: 20.0,
                },
            ],
            sparse_serial_s: 2.0,
            dense_jobs_s: 1.0,
            jobs: 8,
            cpus: 1,
            telemetry,
        };
        let json = rep.to_json();
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"name\": \"b\""));
        assert!(json.contains("\"speedup\": 2.00"));
        // The telemetry snapshot rides along, counters and histograms
        // alike — the CI smoke grep keys on the "telemetry" object.
        assert!(json.contains("\"telemetry\": {"));
        assert!(json.contains("\"inject.events\": 1"));
        assert!(json.contains("\"recovery.latency_us\""));
        assert!((rep.speedup() - 2.0).abs() < 1e-12);
    }
}
