//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the program's layers from
//! the benchmark's own code; nothing inside the program is instrumented.
//! Every closed span updates its name's aggregate (calls, self time,
//! duration samples) and, up to [`KEEP_SPANS`], is kept verbatim so it can
//! be written out as JSON lines when the run ends.
//!
//! A disabled tracer turns every call into a branch on one `bool`, so the
//! untraced run executes the same workload code without reading the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Closed spans kept verbatim for the JSON-lines file. Aggregates cover
/// every span; only the file is capped, to bound memory and disk use.
pub const KEEP_SPANS: usize = 100_000;

/// One closed span as written to the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Id of the workload operation the span belongs to; 0 outside ops.
    pub op: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    pub calls: u64,
    /// Sum of durations minus the time covered by direct child spans.
    pub self_ns: u64,
    pub total_ns: u64,
    /// Every duration, for percentiles.
    pub durations_ns: Vec<u64>,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    op: u64,
    start_ns: u64,
    child_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    open: Vec<Open>,
    next_id: u64,
    ops_started: u64,
    op: u64,
    stats: BTreeMap<&'static str, SpanStats>,
    kept: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and otherwise does nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            next_id: 1,
            ops_started: 0,
            op: 0,
            stats: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new workload operation; spans opened until
    /// [`Tracer::end_op`] carry its id.
    pub fn begin_op(&mut self) {
        self.ops_started += 1;
        self.op = self.ops_started;
    }

    /// Ends the current operation; later spans carry op id 0.
    pub fn end_op(&mut self) {
        self.op = 0;
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.enter_at(name, start_ns);
    }

    /// Closes the innermost open span, which must be `name`.
    pub fn exit(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.exit_at(name, end_ns);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map_or(0, |o| o.id);
        self.open.push(Open {
            name,
            id,
            parent,
            op: self.op,
            start_ns,
            child_ns: 0,
        });
    }

    fn exit_at(&mut self, name: &'static str, end_ns: u64) {
        let open = self.open.pop().expect("exit without a matching enter");
        assert_eq!(open.name, name, "spans must close innermost first");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let s = self.stats.entry(name).or_default();
        s.calls += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(open.child_ns);
        s.durations_ns.push(dur);
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                op: open.op,
                name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// The aggregate for `name`, if any span with that name closed.
    pub fn stats(&self, name: &str) -> Option<&SpanStats> {
        self.stats.get(name)
    }

    /// Closed spans dropped from the file because of [`KEEP_SPANS`].
    pub fn spans_not_kept(&self) -> u64 {
        self.stats.values().map(|s| s.calls).sum::<u64>() - self.kept.len() as u64
    }

    /// Writes the kept spans as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.kept {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Tracer::new(true);
        t.begin_op();
        // op [0, 100) holds a [10, 40) and b [50, 90); b holds c [60, 70).
        t.enter_at("op.x", 0);
        t.enter_at("a", 10);
        t.exit_at("a", 40);
        t.enter_at("b", 50);
        t.enter_at("c", 60);
        t.exit_at("c", 70);
        t.exit_at("b", 90);
        t.exit_at("op.x", 100);

        let op = t.stats("op.x").unwrap();
        assert_eq!((op.calls, op.total_ns, op.self_ns), (1, 100, 30));
        let b = t.stats("b").unwrap();
        assert_eq!((b.total_ns, b.self_ns), (40, 30));
        let c = t.stats("c").unwrap();
        assert_eq!((c.total_ns, c.self_ns), (10, 10));
        // Self times partition the root's duration.
        let sum: u64 = ["op.x", "a", "b", "c"]
            .iter()
            .map(|n| t.stats(n).unwrap().self_ns)
            .sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn spans_carry_parent_and_op_ids() {
        let mut t = Tracer::new(true);
        t.enter_at("setup", 0);
        t.exit_at("setup", 5);
        t.begin_op();
        t.enter_at("op.x", 10);
        t.enter_at("a", 11);
        t.exit_at("a", 12);
        t.exit_at("op.x", 20);
        t.end_op();
        let k = &t.kept;
        assert_eq!(k.len(), 3);
        assert_eq!((k[0].name, k[0].parent, k[0].op), ("setup", 0, 0));
        // Children close first.
        assert_eq!((k[1].name, k[1].parent, k[1].op), ("a", k[2].id, 1));
        assert_eq!((k[2].name, k[2].parent, k[2].op), ("op.x", 0, 1));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"name\":\"a\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("a");
        t.exit("a");
        assert!(t.stats("a").is_none());
        assert_eq!(t.spans_not_kept(), 0);
    }
}
