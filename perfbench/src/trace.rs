//! Spans the benchmark records around its own calls into each layer.
//! They stay in memory and are written out when the run ends; nothing
//! is traced inside the program.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` is 0 for a root span, and every span of
/// one request carries that request's id.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept per list; later ones are counted but not kept, so a
/// traced run's memory and output stay bounded.
pub const SPAN_CAP: usize = 25_000;

/// A list of finished spans, with ids unique within the list.
pub struct Spans {
    epoch: Instant,
    next: u64,
    pub list: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    pub fn new(epoch: Instant, first_id: u64) -> Spans {
        Spans {
            epoch,
            next: first_id,
            list: Vec::new(),
            dropped: 0,
        }
    }

    /// Moves `other`'s spans into this list.
    pub fn absorb(&mut self, other: Spans) {
        self.list.extend(other.list);
        self.dropped += other.dropped;
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Reserves an id for a span recorded later with [`Spans::record_as`].
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id();
        self.record_as(id, name, parent, req, start, end);
    }

    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.list.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.list.push(Span {
            name,
            id,
            parent,
            req,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
    }
}

/// Per span name: `(count, total ns, self ns)`, where self time is a
/// span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| covered(kids, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut sum, mut reach) = (0, lo);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            sum += b - a;
            reach = b;
        }
    }
    sum
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            r#"{{"name":"{}","id":{},"parent":{},"req":{},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        );
    }
    out
}
