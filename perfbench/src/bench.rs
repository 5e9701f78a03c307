//! The measurement loop shared by every workload: timed set-up, a
//! closed-loop measurement window, the traced run, the output checks, and
//! the assembly of the result line.

use crate::host;
use crate::metrics::{self, SPANS, SPAN_FIELDS};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// What one replay produced that must repeat exactly: every later run of
/// the same replay, traced or not, is compared against the first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Det {
    /// Scenario events (arrive, depart, fail, repair, restart) sampled.
    pub events: u64,
    /// Operations attempted: events plus sweeps.
    pub ops: u64,
    pub ops_failed: u64,
    pub requests: u64,
    pub admitted: u64,
    pub request_errors: u64,
    /// Control messages and the connections they are averaged over.
    pub msgs: u64,
    pub msgs_conns: u64,
    /// Numerator and denominator of the reported `p_act_bk`.
    pub act_affected: u64,
    pub act_activated: u64,
    pub failures: u64,
    pub repairs: u64,
    pub affected: u64,
    pub switched: u64,
    pub lost: u64,
    pub unprotected: u64,
    pub reprotected: u64,
    /// Re-protections that left a connection without a backup.
    pub reprotect_failures: u64,
    pub reprotect_no_route: u64,
    pub reoptimized: u64,
    pub restarts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub sweep_trials: u64,
    /// Static single-failure probe results of the snapshot sweeps.
    pub probe_affected: u64,
    pub probe_activated: u64,
    pub proto_messages: u64,
    pub proto_bytes: u64,
    pub proto_retransmits: u64,
    pub proto_exhausted: u64,
    pub journal_records: u64,
    pub journal_replayed: u64,
    pub des_events: u64,
    /// Digest of the final state of every component the replay drove.
    pub fingerprint: u64,
}

/// Counts only the traced run can split out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TracedCounts {
    /// Requests refused by route selection.
    pub refused: u64,
    /// Requests whose selected routes admission refused.
    pub admit_refused: u64,
}

/// Wall-clock samples of one replay.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub request_us: Vec<f64>,
    pub recovery_us: Vec<f64>,
    pub sweep_ms: Vec<f64>,
    /// Seconds spent in the sampled segment (after the warm-up mark).
    pub window_s: f64,
}

#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub det: Det,
    pub traced: TracedCounts,
    pub timing: Timing,
}

impl Outcome {
    /// Times `f` as one sampled segment of this replay.
    pub fn segment<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self);
        self.timing.window_s += t0.elapsed().as_secs_f64();
        r
    }
}

pub fn micros(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// A seeded workload, already set up.
pub trait Workload {
    /// Independent replays a run cycles through, each deterministic.
    fn replays(&self) -> usize;
    /// Runs replay `i` once, sampling only after its warm-up mark.
    fn run(&mut self, i: usize, tr: &mut Tracer) -> Outcome;
    /// Compares the first outcome of every replay with the repository's
    /// own reference replays. Runs outside every timed segment.
    fn oracle(&self, firsts: &[Det]) -> Result<(), String>;
    /// One line per fact worth printing beside the metrics.
    fn describe(&self) -> Vec<String>;
}

/// Everything measured in one phase (untraced or traced).
struct Phase {
    firsts: Vec<Option<Outcome>>,
    timing: Timing,
    events: u64,
    ops: u64,
    ops_failed: u64,
    runs: usize,
    /// `VmHWM` once every replay has run once: set-up plus one pass, before
    /// the window's sample buffers grow with the number of replays run.
    peak_rss_mb: Option<f64>,
    mismatch: Option<String>,
}

impl Phase {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.timing.window_s
    }
}

/// Cycles through the replays for about `seconds`, running every replay
/// at least once.
fn measure<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    seconds: f64,
    expect: Option<&[Option<Outcome>]>,
) -> Phase {
    let n = w.replays();
    let mut p = Phase {
        firsts: vec![None; n],
        timing: Timing::default(),
        events: 0,
        ops: 0,
        ops_failed: 0,
        runs: 0,
        peak_rss_mb: None,
        mismatch: None,
    };
    let start = Instant::now();
    loop {
        let i = p.runs % n;
        let out = w.run(i, tr);
        let reference = expect.and_then(|e| e[i].as_ref()).or(p.firsts[i].as_ref());
        if let Some(r) = reference {
            if r.det != out.det && p.mismatch.is_none() {
                p.mismatch = Some(format!(
                    "replay {i} diverged:\n  first {:?}\n  now   {:?}",
                    r.det, out.det
                ));
            }
        }
        p.events += out.det.events;
        p.ops += out.det.ops;
        p.ops_failed += out.det.ops_failed;
        p.timing.request_us.extend(&out.timing.request_us);
        p.timing.recovery_us.extend(&out.timing.recovery_us);
        p.timing.sweep_ms.extend(&out.timing.sweep_ms);
        p.timing.window_s += out.timing.window_s;
        if p.firsts[i].is_none() {
            p.firsts[i] = Some(out);
        }
        p.runs += 1;
        if p.runs == n {
            p.peak_rss_mb = host::peak_rss_mb();
        }
        // Stop at the replay boundary nearest to `seconds`, so a workload
        // with long replays neither overshoots nor undershoots by more than
        // half a replay.
        let elapsed = start.elapsed().as_secs_f64();
        let per_run = elapsed / p.runs as f64;
        if p.runs >= n && elapsed + per_run / 2.0 >= seconds {
            return p;
        }
    }
}

/// A metric value with the sample facts behind it.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

pub struct Report {
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Value>,
    pub order: Vec<String>,
    pub info: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.order.push(name.to_string());
        self.metrics
            .insert(name.to_string(), Value { value, unit, note });
    }
}

fn sum(firsts: &[Det], f: impl Fn(&Det) -> u64) -> u64 {
    firsts.iter().map(f).sum()
}

fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

/// Sets the workload up [`SETUP_REPEATS`] times, keeping the last, and
/// measures it. With `trace` the window is split: an untraced half gives
/// the reference throughput, a traced half gives the per-layer metrics.
pub fn run<W: Workload>(
    mut setup: impl FnMut(&mut Tracer) -> W,
    seconds: f64,
    trace: bool,
) -> (Report, Tracer) {
    let mut tr = Tracer::new(trace);
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(setup(&mut tr));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    let window = if trace { seconds / 2.0 } else { seconds };
    let plain = measure(&mut w, &mut off, window, None);
    let sched0 = host::schedstat();
    let traced = trace.then(|| measure(&mut w, &mut tr, window, Some(&plain.firsts)));
    let sched1 = host::schedstat();

    let firsts: Vec<Det> = plain
        .firsts
        .iter()
        .map(|o| o.as_ref().expect("every replay ran").det.clone())
        .collect();
    let mut problems = Vec::new();
    if let Some(m) = &plain.mismatch {
        problems.push(format!("untraced run not repeatable: {m}"));
    }
    if let Some(m) = traced.as_ref().and_then(|t| t.mismatch.as_ref()) {
        problems.push(format!("traced run differs from untraced: {m}"));
    }
    if let Err(e) = w.oracle(&firsts) {
        problems.push(format!("oracle mismatch: {e}"));
    }

    let phase = traced.as_ref().unwrap_or(&plain);
    let mut report = Report {
        correct: problems.is_empty(),
        problems,
        attempted: phase.ops,
        failed: phase.ops_failed,
        metrics: BTreeMap::new(),
        order: Vec::new(),
        info: w.describe(),
    };
    report.info.push(match host::schedstat() {
        Some((cpu, wait)) => format!(
            "host: {} cpus; this process so far: {cpu:.3} s on CPU, {wait:.3} s waiting to run",
            host::cpus()
        ),
        None => format!("host: {} cpus; /proc/self/schedstat absent", host::cpus()),
    });
    report.info.push(format!(
        "replays run: {} untraced{}",
        plain.runs,
        traced
            .as_ref()
            .map_or(String::new(), |t| format!(", {} traced", t.runs))
    ));
    let ops = sum(&firsts, |d| d.ops);
    let ops_failed = sum(&firsts, |d| d.ops_failed);
    report.info.push(format!(
        "ops_failed: {} ({ops_failed} of {ops} ops in one pass over the replays)",
        ratio(ops_failed, ops, 0.0)
    ));

    if trace {
        let t = traced.as_ref().expect("traced phase ran");
        let tf: Vec<TracedCounts> = t
            .firsts
            .iter()
            .map(|o| o.as_ref().expect("every replay ran").traced.clone())
            .collect();
        per_layer(
            &mut report,
            &tr,
            &firsts,
            &tf,
            &plain,
            t,
            sched0.zip(sched1),
        );
    } else {
        end_to_end(&mut report, &mut setup_s, &firsts, &plain);
    }
    (report, tr)
}

fn quantile_note(q: &stats::Quantile) -> String {
    if q.pct == 100 {
        format!("max of n={}", q.n)
    } else {
        format!("p{} of n={}", q.pct, q.n)
    }
}

fn end_to_end(report: &mut Report, setup_s: &mut [f64], firsts: &[Det], p: &Phase) {
    let n_setup = setup_s.len();
    let setup = stats::median(setup_s).expect("set-up ran");
    report.put("setup_s", setup, "s", format!("median of {n_setup}"));
    report.put(
        "events_per_s",
        p.events_per_s(),
        "1/s",
        format!("{} events in {:.3} s", p.events, p.timing.window_s),
    );
    let mut t = p.timing.clone();
    for (name, samples, unit) in [
        ("request", &mut t.request_us, "us"),
        ("recovery", &mut t.recovery_us, "us"),
    ] {
        let med = stats::percentile(samples, 50);
        let tail = stats::tail(samples);
        if let (Some(m), Some(q)) = (med, tail) {
            report.put(
                &format!("{name}_p50_us"),
                m.value,
                unit,
                format!("n={}", m.n),
            );
            report.put(&format!("{name}_p99_us"), q.value, unit, quantile_note(&q));
        }
    }
    if let Some(m) = stats::percentile(&mut t.sweep_ms, 50) {
        report.put("sweep_p50_ms", m.value, "ms", format!("n={}", m.n));
    }
    report.put(
        "acceptance",
        ratio(
            sum(firsts, |d| d.admitted),
            sum(firsts, |d| d.requests),
            0.0,
        ),
        "ratio",
        format!("{} requests", sum(firsts, |d| d.requests)),
    );
    report.put(
        "p_act_bk",
        ratio(
            sum(firsts, |d| d.act_activated),
            sum(firsts, |d| d.act_affected),
            1.0,
        ),
        "ratio",
        format!("{} affected", sum(firsts, |d| d.act_affected)),
    );
    report.put(
        "msgs_per_conn",
        ratio(sum(firsts, |d| d.msgs), sum(firsts, |d| d.msgs_conns), 0.0),
        "count",
        format!("{} connections", sum(firsts, |d| d.msgs_conns)),
    );
    if let Some(rss) = p.peak_rss_mb {
        report.put(
            "peak_rss_mb",
            rss,
            "MB",
            "VmHWM after set-up and one pass".into(),
        );
    }
}

fn per_layer(
    report: &mut Report,
    tr: &Tracer,
    firsts: &[Det],
    tf: &[TracedCounts],
    plain: &Phase,
    traced: &Phase,
    sched: Option<((f64, f64), (f64, f64))>,
) {
    let (mut op_self, mut op_total) = (0u64, 0u64);
    for &span in SPANS {
        let s = tr.stats(span);
        let mut d: Vec<f64> = s.map_or(Vec::new(), |s| {
            s.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
        });
        let calls = s.map_or(0, |s| s.calls);
        let self_ns = s.map_or(0, |s| s.self_ns);
        if span.starts_with("op.") {
            op_self += self_ns;
            op_total += s.map_or(0, |s| s.total_ns);
        }
        // A span a workload never enters reports zero time over zero calls.
        // Below 20 samples the tail rule would land under the median, so
        // the maximum stands in.
        let p50 = stats::percentile(&mut d, 50);
        let tail = stats::tail(&mut d)
            .filter(|q| q.pct >= 50)
            .or(stats::percentile(&mut d, 100));
        let values = [
            (
                calls as f64,
                format!(
                    "self {:.3} of {:.3} ms",
                    self_ns as f64 / 1e6,
                    s.map_or(0, |s| s.total_ns) as f64 / 1e6
                ),
            ),
            (self_ns as f64 / 1e6, String::new()),
            (
                p50.map_or(0.0, |q| q.value),
                p50.map_or(String::new(), |q| format!("n={}", q.n)),
            ),
            (
                tail.map_or(0.0, |q| q.value),
                tail.map_or(String::new(), |q| quantile_note(&q)),
            ),
        ];
        for ((field, unit), (value, note)) in SPAN_FIELDS.iter().zip(values) {
            report.put(&format!("{span}.{field}"), value, unit, note);
        }
    }
    let s = |f: fn(&Det) -> u64| sum(firsts, f);
    let refused: u64 = tf.iter().map(|t| t.refused).sum();
    let admit_refused: u64 = tf.iter().map(|t| t.admit_refused).sum();
    let lookups = s(|d| d.cache_hits) + s(|d| d.cache_misses);
    let ops = s(|d| d.ops);
    let counts: Vec<(&str, f64)> = vec![
        ("core.routing.refused", refused as f64),
        ("core.manager.admit_refused", admit_refused as f64),
        ("core.failure.affected", s(|d| d.affected) as f64),
        ("core.failure.switched", s(|d| d.switched) as f64),
        ("core.failure.lost", s(|d| d.lost) as f64),
        ("core.failure.unprotected", s(|d| d.unprotected) as f64),
        (
            "core.manager.reprotect_no_route",
            s(|d| d.reprotect_no_route) as f64,
        ),
        ("core.route_cache.hits", s(|d| d.cache_hits) as f64),
        ("core.route_cache.misses", s(|d| d.cache_misses) as f64),
        (
            "core.route_cache.invalidations",
            s(|d| d.cache_invalidations) as f64,
        ),
        (
            "core.route_cache.hit_ratio",
            ratio(s(|d| d.cache_hits), lookups, 0.0),
        ),
        ("core.failure.sweep_trials", s(|d| d.sweep_trials) as f64),
        ("proto.messages", s(|d| d.proto_messages) as f64),
        ("proto.bytes", s(|d| d.proto_bytes) as f64),
        (
            "proto.retransmit_ratio",
            ratio(s(|d| d.proto_retransmits), s(|d| d.proto_messages), 0.0),
        ),
        ("proto.exhausted", s(|d| d.proto_exhausted) as f64),
        ("proto.journal.records", s(|d| d.journal_records) as f64),
        (
            "proto.journal.replayed_records",
            s(|d| d.journal_replayed) as f64,
        ),
        ("sim.des.events", s(|d| d.des_events) as f64),
        (
            "sim.des.events_per_op",
            ratio(s(|d| d.des_events), ops, 0.0),
        ),
        ("ops_failed", ratio(s(|d| d.ops_failed), ops, 0.0)),
    ];
    for (name, v) in counts {
        let unit = metrics::COUNTS
            .iter()
            .find(|m| m.name == name)
            .expect("catalogued")
            .unit;
        report.put(name, v, unit, "one pass over the replays".into());
    }
    if let Some(((cpu0, wait0), (cpu1, wait1))) = sched {
        let note = format!("traced phase, {} cpus", host::cpus());
        report.put("proc.cpu_s", cpu1 - cpu0, "s", note.clone());
        report.put("proc.runqueue_wait_s", wait1 - wait0, "s", note);
    }
    report.put(
        "trace.overhead_ratio",
        1.0 - traced.events_per_s() / plain.events_per_s(),
        "ratio",
        format!(
            "events_per_s untraced {:.1}, traced {:.1}",
            plain.events_per_s(),
            traced.events_per_s()
        ),
    );
    report.put(
        "trace.unattributed_ratio",
        ratio(op_self, op_total, 0.0),
        "ratio",
        "op time outside every layer span".into(),
    );
    report.info.push(format!(
        "spans kept for the trace file: {} dropped past the cap",
        tr.spans_not_kept()
    ));
}
