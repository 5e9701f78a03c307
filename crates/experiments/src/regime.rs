//! One driver for every campaign family.
//!
//! Each family — the control-plane loss sweep ([`crate::campaign`]), the
//! correlated multi-failure sweep ([`crate::multi_failure`]), the
//! adversarial sweep ([`crate::adversarial`]) and the restart storm
//! ([`crate::restart`]) — is a [`Regime`]: it enumerates its cells in
//! canonical order, runs one cell into a [`CellOutcome`] (the cell's
//! [`Telemetry`] plus its closing sweep's worst links), and declares its
//! table as [`Column`] specs. Everything else lives here once:
//!
//! * one driver runs the cells on `--jobs` workers over
//!   [`par::for_each_ordered`], one [`Regime::Worker`] per worker, and
//!   hands the cells' closing sweeps whatever workers the cells leave
//!   idle. Cells seed every RNG substream from the master seed and their
//!   own identity, so the outcomes are byte-identical for every job count.
//! * [`render`] and [`stream`] print the title, the header, one row per
//!   cell and the worst-links breakdown from the column specs. Every
//!   non-identity column is a projection of the cell's telemetry.
//!   [`run`] collects the outcomes instead.

use crate::config::ExperimentConfig;
use crate::{failure_analysis, par};
use drt_core::failure::LinkImpact;
use drt_core::routing::{RouteRequest, RoutingScheme};
use drt_core::{ConnectionId, DrtpManager, Telemetry};
use drt_net::LinkId;
use drt_sim::workload::{TimelineEvent, TrafficPattern};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// What one cell produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Every tally of the cell: manager, orchestrator and family counters,
    /// plus the closing sweep recorded by [`Telemetry::record_sweep`].
    pub telemetry: Telemetry,
    /// The failure units losing the most connections in the closing
    /// sweep, worst first.
    pub worst_links: Vec<LinkImpact>,
}

/// A campaign family: its cells, how one cell runs, and its table.
pub trait Regime: Sync {
    /// One independent unit of work.
    type Cell: Send;
    /// Per-worker state, built once per worker and reused across the
    /// cells it runs (the hoisting point for scheme instances).
    type Worker;

    /// The cells in canonical (rendered) order.
    fn cells(&self) -> Vec<Self::Cell>;
    /// Builds one worker's state.
    fn worker(&self) -> Self::Worker;
    /// Runs one cell; its closing sweep may use `sweep_jobs` workers.
    fn run_cell(
        &self,
        worker: &mut Self::Worker,
        cell: &Self::Cell,
        sweep_jobs: usize,
    ) -> CellOutcome;
    /// The table's title line (without the newline).
    fn title(&self) -> String;
    /// The table's columns, left to right.
    fn columns(&self) -> Vec<Column<Self::Cell>>;
    /// The label of the cell's worst-links line; `None` (the default)
    /// prints no breakdown.
    fn breakdown_label(&self, _cell: &Self::Cell) -> Option<String> {
        None
    }
    /// What the binary prints after the table, given the telemetry of
    /// every cell merged in canonical order.
    fn footer(&self, merged: &Telemetry) -> String;
}

/// One table column: header, width, alignment and value.
#[derive(Debug)]
pub struct Column<C> {
    header: &'static str,
    width: usize,
    left: bool,
    value: Value<C>,
}

impl<C> Column<C> {
    /// A right-aligned column.
    pub fn right(header: &'static str, width: usize, value: Value<C>) -> Self {
        Column {
            header,
            width,
            left: false,
            value,
        }
    }

    /// A left-aligned column.
    pub fn left(header: &'static str, width: usize, value: Value<C>) -> Self {
        Column {
            left: true,
            ..Column::right(header, width, value)
        }
    }

    fn pad(&self, text: &str) -> String {
        if self.left {
            format!("{text:<w$}", w = self.width)
        } else {
            format!("{text:>w$}", w = self.width)
        }
    }
}

/// A column's value: a field of the cell's identity or a projection of
/// its telemetry.
#[derive(Debug)]
pub enum Value<C> {
    /// A field of the cell's identity (loss rate, regime, scheme, arm).
    Cell(fn(&C) -> String),
    /// A counter, or the sum of several.
    Count(&'static [&'static str]),
    /// An integer gauge.
    Gauge(&'static str),
    /// A parts-per-million gauge as a four-decimal fraction; `-` while
    /// the gauge is unset.
    Ppm(&'static str),
    /// `numerator / denominator` of two counters to four decimals; `-`
    /// while the denominator is zero.
    Ratio(&'static str, &'static str),
    /// A statistic of a microsecond histogram; `-` while it is empty.
    Hist(&'static str, Stat, Unit),
}

/// A histogram statistic.
#[derive(Debug, Clone, Copy)]
pub enum Stat {
    /// Integer mean.
    Mean,
    /// Largest sample.
    Max,
    /// Log₂-bucket percentile.
    Pct(u32),
}

/// How a microsecond statistic prints.
#[derive(Debug, Clone, Copy)]
pub enum Unit {
    /// Milliseconds, one decimal.
    Ms,
    /// Seconds, two decimals.
    Secs,
    /// Milliseconds below one second, seconds from there; `-` for zero.
    Auto,
}

impl<C> Value<C> {
    /// The column text for `cell` with telemetry `t`.
    fn project(&self, cell: &C, t: &Telemetry) -> String {
        let frac = |p: f64| format!("{p:.4}");
        match *self {
            Value::Cell(f) => f(cell),
            Value::Count(keys) => keys.iter().map(|k| t.counter(k)).sum::<u64>().to_string(),
            Value::Gauge(key) => t.gauge(key).to_string(),
            Value::Ppm(key) => t
                .try_gauge(key)
                .map_or_else(|| "-".into(), |ppm| frac(ppm as f64 / 1e6)),
            Value::Ratio(num, den) => match t.counter(den) {
                0 => "-".into(),
                d => frac(t.counter(num) as f64 / d as f64),
            },
            Value::Hist(key, stat, unit) => {
                let us = t.hist(key).map(|h| match stat {
                    Stat::Mean => h.mean(),
                    Stat::Max => h.max(),
                    Stat::Pct(p) => h.percentile(p),
                });
                match (us, unit) {
                    (None, _) | (Some(0), Unit::Auto) => "-".into(),
                    (Some(us), Unit::Secs) | (Some(us @ 1_000_000..), Unit::Auto) => {
                        format!("{:.2}s", us as f64 / 1e6)
                    }
                    (Some(us), _) => format!("{:.1}ms", us as f64 / 1e3),
                }
            }
        }
    }
}

/// Runs every cell of `regime` on at most `jobs` workers and hands each
/// outcome to `emit` in canonical order as soon as it and all its
/// predecessors are done.
///
/// # Panics
///
/// Propagates a panic from any cell.
pub(crate) fn for_each_cell<R: Regime>(
    regime: &R,
    jobs: usize,
    mut emit: impl FnMut(R::Cell, CellOutcome),
) {
    let cells = regime.cells();
    // Workers the cells cannot fill go to each cell's closing sweep; the
    // sharded sweep is bit-identical to the serial one.
    let sweep_jobs = (jobs / par::effective_jobs(jobs, cells.len())).max(1);
    par::for_each_ordered(
        jobs,
        cells,
        || regime.worker(),
        |worker, cell| {
            let outcome = regime.run_cell(worker, &cell, sweep_jobs);
            (cell, outcome)
        },
        |_, (cell, outcome)| emit(cell, outcome),
    );
}

/// Every cell's outcome, in canonical order.
pub fn run<R: Regime>(regime: &R, jobs: usize) -> Vec<(R::Cell, CellOutcome)> {
    let mut out = Vec::new();
    for_each_cell(regime, jobs, |cell, o| out.push((cell, o)));
    out
}

/// The telemetry of every outcome, merged in canonical order (counters
/// and histograms add; gauges keep the last cell's value).
pub fn merged<C>(outcomes: &[(C, CellOutcome)]) -> Telemetry {
    let mut out = Telemetry::new();
    for (_, o) in outcomes {
        out.merge(&o.telemetry);
    }
    out
}

/// The table: title, header, one row per cell, then the worst-links
/// breakdown. [`stream`] prints the same bytes.
pub fn render<R: Regime>(regime: &R, outcomes: &[(R::Cell, CellOutcome)]) -> String {
    let cols = regime.columns();
    let mut out = header(regime, &cols);
    for (cell, o) in outcomes {
        out.push_str(&row(&cols, cell, &o.telemetry));
    }
    for (cell, o) in outcomes {
        out.push_str(&breakdown(regime, cell, o));
    }
    out
}

/// Runs `regime` and writes its table to `sink` as it completes: the
/// header first, each row as soon as its cell and all earlier ones are
/// done, the breakdown at the end. Returns the merged telemetry for
/// [`Regime::footer`].
pub fn stream<R: Regime>(regime: &R, jobs: usize, mut sink: impl FnMut(&str)) -> Telemetry {
    let cols = regime.columns();
    sink(&header(regime, &cols));
    let mut breakdowns = String::new();
    let mut merged = Telemetry::new();
    for_each_cell(regime, jobs, |cell, o| {
        sink(&row(&cols, &cell, &o.telemetry));
        breakdowns.push_str(&breakdown(regime, &cell, &o));
        merged.merge(&o.telemetry);
    });
    sink(&breakdowns);
    merged
}

fn header<R: Regime>(regime: &R, cols: &[Column<R::Cell>]) -> String {
    let heads: Vec<String> = cols.iter().map(|c| c.pad(c.header)).collect();
    format!("{}\n{}\n", regime.title(), heads.join(" "))
}

fn row<C>(cols: &[Column<C>], cell: &C, t: &Telemetry) -> String {
    let fields: Vec<String> = cols
        .iter()
        .map(|c| c.pad(&c.value.project(cell, t)))
        .collect();
    format!("{}\n", fields.join(" "))
}

fn breakdown<R: Regime>(regime: &R, cell: &R::Cell, o: &CellOutcome) -> String {
    match regime.breakdown_label(cell) {
        Some(label) if !o.worst_links.is_empty() => {
            let ranked: Vec<String> = o
                .worst_links
                .iter()
                .map(|li| format!("{} (-{} of {})", li.link, li.lost(), li.affected))
                .collect();
            format!("  {label} worst links: {}\n", ranked.join(", "))
        }
        _ => String::new(),
    }
}

/// The closing probe every cell ends with: checks the manager stayed
/// coherent, sweeps every single failure on `jobs` workers, records the
/// sweep into `t` and returns its three worst failure units.
pub(crate) fn closing_sweep(
    mgr: &DrtpManager,
    seed: u64,
    jobs: usize,
    t: &mut Telemetry,
) -> Vec<LinkImpact> {
    mgr.assert_invariants();
    let sweep = failure_analysis::sweep_single_failures_jobs(mgr, seed, jobs);
    t.record_sweep(&sweep);
    sweep.worst_links(3)
}

/// The workload's connection requests in arrival order, on `pattern` at
/// the campaigns' offered load.
pub(crate) fn arrivals(cfg: &ExperimentConfig, pattern: TrafficPattern) -> Vec<RouteRequest> {
    let scenario = cfg.scenario_config(0.4, pattern).generate(cfg.nodes);
    scenario
        .timeline()
        .into_iter()
        .filter_map(|(_, ev)| match ev {
            TimelineEvent::Arrive(rid) => Some(rid),
            _ => None,
        })
        .map(|rid| {
            let r = scenario.request(rid).expect("valid id");
            RouteRequest::new(
                ConnectionId::new(rid.index() as u64),
                r.src,
                r.dst,
                scenario.bw_req(),
            )
            .with_backups(cfg.backups_per_connection)
        })
        .collect()
}

/// Admits the workload's arrivals in order until `connections` are
/// established (each admission is counted in `establish.*`).
pub(crate) fn establish(
    cfg: &ExperimentConfig,
    mgr: &mut DrtpManager,
    scheme: &mut dyn RoutingScheme,
    pattern: TrafficPattern,
    connections: usize,
) {
    let mut established = 0;
    for req in arrivals(cfg, pattern) {
        if established >= connections {
            break;
        }
        if mgr.request_connection(scheme, req).is_ok() {
            established += 1;
        }
    }
}

/// Live links carrying at least one primary, in id order.
pub(crate) fn loaded_links(mgr: &DrtpManager) -> Vec<LinkId> {
    let set: BTreeSet<LinkId> = mgr
        .connections()
        .filter(|c| c.state().is_carrying_traffic())
        .flat_map(|c| c.primary().links().iter().copied())
        .filter(|&l| !mgr.is_failed(l))
        .collect();
    set.into_iter().collect()
}

/// A uniform choice from `v`, `None` when it is empty.
pub(crate) fn pick<T: Copy>(v: &[T], rng: &mut StdRng) -> Option<T> {
    (!v.is_empty()).then(|| v[rng.gen_range(0..v.len())])
}

/// Fisher–Yates with the seeded stream, spelled out so the derivation
/// is obvious and stable.
pub(crate) fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project(v: Value<()>, t: &Telemetry) -> String {
        v.project(&(), t)
    }

    #[test]
    fn projections_mark_missing_data_with_a_dash() {
        let t = Telemetry::new();
        assert_eq!(project(Value::Count(&["a", "b"]), &t), "0");
        assert_eq!(project(Value::Ppm("p"), &t), "-");
        assert_eq!(project(Value::Ratio("n", "d"), &t), "-");
        for unit in [Unit::Ms, Unit::Secs, Unit::Auto] {
            assert_eq!(project(Value::Hist("h", Stat::Mean, unit), &t), "-");
        }
    }

    #[test]
    fn projections_format_like_the_tables() {
        let mut t = Telemetry::new();
        t.add("a", 2);
        t.add("b", 3);
        t.add("n", 1);
        t.add("d", 3);
        t.set_gauge("p", 987_654);
        t.observe("h", 1_133_000);
        t.observe("z", 0);
        assert_eq!(project(Value::Count(&["a", "b"]), &t), "5");
        assert_eq!(project(Value::Ppm("p"), &t), "0.9877");
        assert_eq!(project(Value::Ratio("n", "d"), &t), "0.3333");
        let h = |stat, unit| project(Value::Hist("h", stat, unit), &t);
        assert_eq!(h(Stat::Max, Unit::Ms), "1133.0ms");
        assert_eq!(h(Stat::Max, Unit::Secs), "1.13s");
        assert_eq!(h(Stat::Max, Unit::Auto), "1.13s");
        // A recorded zero is a value in ms/s, but "nothing" in auto units.
        assert_eq!(project(Value::Hist("z", Stat::Mean, Unit::Ms), &t), "0.0ms");
        assert_eq!(
            project(Value::Hist("z", Stat::Pct(50), Unit::Auto), &t),
            "-"
        );
    }

    #[test]
    fn columns_pad_to_their_width_and_side() {
        let right = Column::<()>::right("x", 5, Value::Count(&[]));
        let left = Column::<()>::left("x", 5, Value::Count(&[]));
        assert_eq!(right.pad("ab"), "   ab");
        assert_eq!(left.pad("ab"), "ab   ");
    }
}
