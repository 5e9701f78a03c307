//! The benchmark's metric catalogue. `BENCHMARK.json` at the repository
//! root lists the same names, units and directions; a test keeps the two
//! in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("events_per_s", "1/s", Higher),
    m("request_p50_us", "us", Lower),
    m("request_p99_us", "us", Lower),
    m("recovery_p50_us", "us", Lower),
    m("recovery_p99_us", "us", Lower),
    m("sweep_p50_ms", "ms", Lower),
    m("acceptance", "ratio", Higher),
    m("p_act_bk", "ratio", Higher),
    m("msgs_per_conn", "count", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Spans recorded by the traced run, each reported as four metrics.
/// `op.*` spans are the roots of workload operations: their self time is
/// the part of each op that no layer span covers.
pub const SPANS: &[&str] = &[
    "net.topology.build",
    "sim.scenario.generate",
    "core.routing.dlsr.select_routes",
    "core.routing.plsr.select_routes",
    "core.routing.bf.select_routes",
    "core.manager.admit_routes",
    "core.manager.release",
    "core.manager.reestablish_backup",
    "core.failure.inject",
    "core.failure.repair_link",
    "core.failure.sweep_single_failures",
    "proto.establish",
    "proto.add_backup",
    "proto.restart_router",
    "proto.release",
    "core.invariants.check",
    "op.arrive",
    "op.depart",
    "op.fail",
    "op.repair",
    "op.restart",
];

/// Per-span metric suffixes.
pub const SPAN_FIELDS: &[(&str, &str)] = &[
    ("calls", "count"),
    ("self_ms", "ms"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Counts and ratios reported by the traced run next to the spans.
pub const COUNTS: &[Metric] = &[
    m("core.routing.refused", "count", Lower),
    m("core.manager.admit_refused", "count", Lower),
    m("core.failure.affected", "count", Lower),
    m("core.failure.switched", "count", Higher),
    m("core.failure.lost", "count", Lower),
    m("core.failure.unprotected", "count", Lower),
    m("core.manager.reprotect_no_route", "count", Lower),
    m("core.route_cache.hits", "count", Higher),
    m("core.route_cache.misses", "count", Lower),
    m("core.route_cache.invalidations", "count", Lower),
    m("core.route_cache.hit_ratio", "ratio", Higher),
    m("core.failure.sweep_trials", "count", Lower),
    m("proto.messages", "count", Lower),
    m("proto.bytes", "bytes", Lower),
    m("proto.retransmit_ratio", "ratio", Lower),
    m("proto.exhausted", "count", Lower),
    m("proto.journal.records", "count", Lower),
    m("proto.journal.replayed_records", "count", Lower),
    m("sim.des.events", "count", Lower),
    m("sim.des.events_per_op", "ratio", Lower),
    m("ops_failed", "ratio", Lower),
    m("proc.cpu_s", "s", Lower),
    m("proc.runqueue_wait_s", "s", Lower),
    m("trace.overhead_ratio", "ratio", Lower),
    m("trace.unattributed_ratio", "ratio", Lower),
];

/// Which way `name` improves, for any catalogued metric.
pub fn better(name: &str) -> Option<Better> {
    END_TO_END
        .iter()
        .chain(COUNTS)
        .find(|m| m.name == name)
        .map(|m| m.better)
        .or_else(|| {
            SPANS
                .iter()
                .any(|s| name.starts_with(s))
                .then_some(Better::Lower)
        })
}

/// Every per-layer metric, spans first, in `BENCHMARK.json` order.
#[cfg(test)]
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for s in SPANS {
        for (field, unit) in SPAN_FIELDS {
            out.push((format!("{s}.{field}"), *unit, Lower));
        }
    }
    for c in COUNTS {
        out.push((c.name.to_string(), c.unit, c.better));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn all() -> Vec<(String, &'static str, Better)> {
        let mut v: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.better))
            .collect();
        v.extend(per_layer());
        v
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all = all();
        assert!(all.len() <= END_TO_END.len() + 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(END_TO_END[0].unit, "s");
        assert_eq!(END_TO_END[0].better, Lower);
    }

    /// `(name, unit, better)` triples of one section of `BENCHMARK.json`,
    /// in file order. The file is written by hand in a fixed layout, so a
    /// scan for the three keys suffices.
    fn section(json: &str, key: &str, next: Option<&str>) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = next.map_or(json.len(), |n| json.find(&format!("\"{n}\"")).unwrap());
        let body = &json[start..end];
        let field = |line: &str, k: &str| -> Option<String> {
            let i = line.find(&format!("\"{k}\": \""))? + k.len() + 5;
            Some(line[i..i + line[i..].find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?, field(l, "better")?)))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e = section(json, "end_to_end", Some("per_layer"));
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(e2e, want);
        let layer = section(json, "per_layer", None);
        let want: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(layer, want);
    }
}
