//! Calls into drt-core shared by the workloads, each wrapped in the span of
//! the layer it enters. Every helper takes the tracer; with tracing off the
//! wrappers cost one branch each.

use crate::bench::{micros, Outcome};
use crate::trace::Tracer;
use drt_core::routing::{RouteRequest, RoutingScheme};
use drt_core::{ConnectionId, DrtpError, DrtpManager, EstablishReport};
use drt_experiments::runner::SchemeKind;
use drt_net::LinkId;
use drt_sim::SimTime;

/// The span of `kind`'s route selection.
pub fn select_span(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::DLsr => "core.routing.dlsr.select_routes",
        SchemeKind::PLsr => "core.routing.plsr.select_routes",
        SchemeKind::Bf => "core.routing.bf.select_routes",
        other => panic!("the benchmark does not drive {other}"),
    }
}

/// Errors a connection request may end in without anything being wrong:
/// the network refused it.
fn is_refusal(e: &DrtpError) -> bool {
    matches!(
        e,
        DrtpError::NoPrimaryRoute(..)
            | DrtpError::NoBackupRoute(_)
            | DrtpError::InsufficientBandwidth(_)
            | DrtpError::LinkFailed(_)
    )
}

/// One connection request. Untraced, it is the public
/// `DrtpManager::request_connection`; traced, it is split into the two
/// public calls that method makes, `select_routes` then `admit_routes`,
/// so each layer gets its own span and refusal count. Both forms leave the
/// manager, its telemetry included, in the same state.
pub fn request(
    mgr: &mut DrtpManager,
    scheme: &mut dyn RoutingScheme,
    kind: SchemeKind,
    req: RouteRequest,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<EstablishReport, DrtpError> {
    let res = if tr.is_on() {
        let span = select_span(kind);
        tr.enter(span);
        let selected = scheme.select_routes(&mgr.view(), &req);
        tr.exit(span);
        let res = match selected {
            Err(e) => {
                out.traced.refused += 1;
                Err(e)
            }
            Ok(pair) => {
                tr.enter("core.manager.admit_routes");
                let r = mgr.admit_routes(&req, pair);
                tr.exit("core.manager.admit_routes");
                if r.is_err() {
                    out.traced.admit_refused += 1;
                }
                r
            }
        };
        mgr.telemetry_mut().incr(if res.is_ok() {
            "establish.accepted"
        } else {
            "establish.rejected"
        });
        res
    } else {
        mgr.request_connection(scheme, req)
    };
    if let Err(e) = &res {
        out.det.request_errors += 1;
        if !is_refusal(e) {
            out.det.ops_failed += 1;
        }
    }
    res
}

/// Releases `id`. A connection that was never admitted, or was lost to a
/// failure, is expected to be unknown; any other error is a failed op.
pub fn release(
    mgr: &mut DrtpManager,
    id: ConnectionId,
    live: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> bool {
    tr.enter("core.manager.release");
    let res = mgr.release(id);
    tr.exit("core.manager.release");
    match res {
        Ok(()) => true,
        Err(DrtpError::UnknownConnection(_)) if !live => false,
        Err(_) => {
            out.det.ops_failed += 1;
            false
        }
    }
}

/// Finds a new backup for `id`; finding none is an expected outcome.
pub fn reestablish(
    mgr: &mut DrtpManager,
    scheme: &mut dyn RoutingScheme,
    id: ConnectionId,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> bool {
    tr.enter("core.manager.reestablish_backup");
    let res = mgr.reestablish_backup(scheme, id);
    tr.exit("core.manager.reestablish_backup");
    match res {
        Ok(_) => true,
        Err(DrtpError::NoBackupRoute(_)) => {
            out.det.reprotect_no_route += 1;
            false
        }
        Err(_) => {
            out.det.ops_failed += 1;
            false
        }
    }
}

/// Times one Figure-4 single-failure sweep of the current state; returns
/// the sweep and its duration in microseconds.
pub fn sweep(
    mgr: &DrtpManager,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (drt_core::failure::FailureSweep, f64) {
    tr.begin_op();
    tr.enter("core.failure.sweep_single_failures");
    let t0 = std::time::Instant::now();
    let s = mgr.sweep_single_failures(seed);
    let us = micros(t0);
    tr.exit("core.failure.sweep_single_failures");
    tr.end_op();
    out.timing.sweep_ms.push(us / 1e3);
    out.det.ops += 1;
    out.det.sweep_trials += s.aggregate.trials;
    out.det.probe_affected += s.aggregate.affected;
    out.det.probe_activated += s.aggregate.activated;
    (s, us)
}

/// Asserts the manager's ledger invariants, outside any timed segment.
pub fn check_invariants(mgr: &DrtpManager, tr: &mut Tracer) {
    tr.enter("core.invariants.check");
    mgr.assert_invariants();
    tr.exit("core.invariants.check");
}

/// The snapshot instants of `runner::replay`: `snapshots` evenly spaced
/// points after the warm-up, the last one at the horizon.
pub fn snapshot_times(
    warmup: drt_sim::SimDuration,
    duration: drt_sim::SimDuration,
    snapshots: usize,
) -> Vec<SimTime> {
    let warmup_at = SimTime::ZERO + warmup;
    (1..=snapshots)
        .map(|k| {
            let span = duration - warmup;
            warmup_at
                + drt_sim::SimDuration::from_micros(span.as_micros() * k as u64 / snapshots as u64)
        })
        .collect()
}

/// A link currently carrying at least one primary, chosen with `rng`.
pub fn pick_loaded_link(mgr: &DrtpManager, rng: &mut rand::rngs::StdRng) -> Option<LinkId> {
    use rand::Rng;
    let loaded: std::collections::BTreeSet<LinkId> = mgr
        .connections()
        .filter(|c| c.state().is_carrying_traffic())
        .flat_map(|c| c.primary().links().iter().copied())
        .collect();
    if loaded.is_empty() {
        return None;
    }
    let loaded: Vec<LinkId> = loaded.into_iter().collect();
    Some(loaded[rng.gen_range(0..loaded.len())])
}
