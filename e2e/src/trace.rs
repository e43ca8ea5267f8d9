//! Spans recorded by the benchmark around every call into a layer.
//!
//! The program under test carries no tracing yet, so the benchmark
//! thread records `{id, parent, op, name, start_ns, end_ns}` plus a
//! count at the same boundary, keeps the spans in memory, and derives
//! per-layer total and self time when the run ends. A disabled tracer
//! does nothing, so the untraced and the traced run execute the same
//! benchmark code.

use std::io::Write as _;
use std::time::Instant;

use crate::json::Json;

/// The layers of this repository, by module, plus the harness itself.
/// (`workloads`, the generators, has no variant: input generation sits
/// outside every span by construction.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    Spatial,
    Rtree,
    Sim,
    Core,
    Shard,
    Broker,
    Ingress,
    Federation,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Bench,
        Layer::Spatial,
        Layer::Rtree,
        Layer::Sim,
        Layer::Core,
        Layer::Shard,
        Layer::Broker,
        Layer::Ingress,
        Layer::Federation,
    ];

    /// The module name the README and the span file use.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Spatial => "spatial",
            Layer::Rtree => "rtree",
            Layer::Sim => "sim",
            Layer::Core => "core",
            Layer::Shard => "pubsub.shard",
            Layer::Broker => "pubsub.broker",
            Layer::Ingress => "pubsub.ingress",
            Layer::Federation => "pubsub.federation",
        }
    }
}

/// One recorded span. `op` is the layer, `name` the call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items the call handled (events, probes, rounds, ops).
    pub count: u64,
}

/// Handle of an open span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<u32>);

/// Single-threaded span recorder. Parents are the innermost span open
/// at `begin` time.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; the clock keeps running, so spans
    /// recorded before and after a pause share one timeline.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(
            self.stack.is_empty(),
            "toggle between spans, not inside one"
        );
        self.enabled = enabled;
    }

    pub fn begin(&mut self, layer: Layer, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            layer,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            count: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Runs `f` inside a span; `f` returns `(value, count)`.
    pub fn span<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let open = self.begin(layer, name);
        let (value, count) = f();
        self.end(open, count);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj()
                .field("id", u64::from(s.id))
                .field(
                    "parent",
                    s.parent.map_or(Json::Null, |p| u64::from(p).into()),
                )
                .field("op", s.layer.name())
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("count", s.count);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Total and self time of one layer over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-span self time: the span's duration minus the part of its
/// interval that its direct children cover (children clipped to the
/// parent, overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Folds the spans under every top-level span called `root_name` into
/// per-layer rows (ordered like [`Layer::ALL`]) and returns them with
/// the summed duration of those roots — the traced wall. Spans under
/// other roots (layer probes) stay out of the rows.
pub fn layer_times(spans: &[Span], root_name: &str) -> (u64, Vec<(Layer, LayerTime)>) {
    let selfs = self_times(spans);
    let mut rows: Vec<(Layer, LayerTime)> = Layer::ALL
        .iter()
        .map(|&l| (l, LayerTime::default()))
        .collect();
    // Parents always precede their children in the span list.
    let mut inside = vec![false; spans.len()];
    let mut wall_ns = 0u64;
    for (s, self_ns) in spans.iter().zip(selfs) {
        inside[s.id as usize] = match s.parent {
            None => s.name == root_name,
            Some(p) => inside[p as usize],
        };
        if !inside[s.id as usize] {
            continue;
        }
        if s.parent.is_none() {
            wall_ns += s.end_ns - s.start_ns;
        }
        let row = &mut rows
            .iter_mut()
            .find(|(l, _)| *l == s.layer)
            .expect("every layer has a row")
            .1;
        row.spans += 1;
        row.count += s.count;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += self_ns;
    }
    (wall_ns, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span(0, None, Layer::Bench, 0, 100),
            span(1, Some(0), Layer::Broker, 10, 60),
            span(2, Some(1), Layer::Core, 20, 50),
            span(3, Some(0), Layer::Sim, 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let (wall, rows) = layer_times(&spans, "t");
        let total_self: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
        assert_eq!(wall, 100);
        assert_eq!(total_self, 100, "self times partition the root span");
        let (wall, rows) = layer_times(&spans, "other-root");
        assert_eq!(wall, 0);
        assert!(rows.iter().all(|(_, t)| t.spans == 0));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, Layer::Bench, 100, 200),
            // Two children overlapping each other on [130, 150] …
            span(1, Some(0), Layer::Shard, 110, 150),
            span(2, Some(0), Layer::Shard, 130, 170),
            // … one overhanging the parent's end, one fully outside.
            span(3, Some(0), Layer::Rtree, 190, 230),
            span(4, Some(0), Layer::Rtree, 300, 310),
        ];
        let selfs = self_times(&spans);
        // Covered: [110, 170] ∪ [190, 200] = 70 of 100.
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 40);
        assert_eq!(selfs[3], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span(Layer::Core, "x", || (7, 1));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new(true);
        let root = t.begin(Layer::Bench, "run");
        t.span(Layer::Shard, "a", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            ((), 3)
        });
        let inner = t.begin(Layer::Broker, "b");
        t.span(Layer::Core, "c", || ((), 1));
        t.end(inner, 2);
        t.end(root, 0);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[1].count, 3);
        assert!(s[1].end_ns - s[1].start_ns >= 1_000_000);
        assert!(s[0].end_ns >= s[3].end_ns);
    }
}
