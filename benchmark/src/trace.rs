//! In-memory spans recorded around calls into each layer, written out when
//! the run ends. A span is `(name, start, end, parent)`; a layer's self time
//! is its spans' durations minus the parts of them their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks "no parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct Open(u32);

/// Records nested spans. A disabled tracer records nothing and reads no
/// clock, so the same code path runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Tab-separated `index name start_ns end_ns parent` lines, one per span
    /// (`parent` is -1 for top-level spans).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start, s.end)
                .expect("write to string");
        }
        out
    }
}

/// Per-name totals of span count and self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: f64,
}

/// Self time of every span: its duration minus the union of the intervals
/// of its direct children, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end);
                let b = b.clamp(a, s.end);
                covered += b - a;
                reach = reach.max(b);
            }
            (s.end - s.start - covered) as f64
        })
        .collect()
}

/// Sums [`self_times`] by span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.self_ns += own;
    }
    out
}

/// Times `pass` untraced and traced, alternating `reps` times after one
/// untraced warm-up. The last traced pass records into `tracer` inside a
/// `replay` span; earlier ones record into scratch tracers. Returns the
/// tracing overhead (median traced ÷ median untraced − 1) and the last
/// untraced and traced results.
pub fn with_overhead<T>(
    reps: usize,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> T,
) -> (f64, T, T) {
    pass(&mut Tracer::new(false));
    let mut time = |t: &mut Tracer| {
        let t0 = Instant::now();
        let r = pass(t);
        (t0.elapsed().as_secs_f64(), r)
    };
    let reps = reps.max(1);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..reps {
        let (s, plain) = time(&mut Tracer::new(false));
        plain_s.push(s);
        let (s, traced) = if i + 1 < reps {
            time(&mut Tracer::new(true))
        } else {
            tracer.span("replay", |t| time(t))
        };
        traced_s.push(s);
        last = Some((plain, traced));
    }
    let (plain, traced) = last.expect("reps >= 1");
    let overhead = crate::stats::median(&traced_s) / crate::stats::median(&plain_s) - 1.0;
    (overhead, plain, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_child_intervals_a_parent_covers() {
        let spans = [
            span("batch", 0, 100, ROOT),
            span("uf", 10, 30, 0),
            span("predecode", 40, 45, 0),
            span("uf", 50, 60, 0),
            span("inner", 52, 58, 3),
        ];
        assert_eq!(self_times(&spans), vec![65.0, 20.0, 5.0, 4.0, 6.0]);
        let layers = by_layer(&spans);
        assert_eq!(
            layers["uf"],
            LayerTime {
                calls: 2,
                self_ns: 24.0
            }
        );
        assert_eq!(layers["batch"].self_ns, 65.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("parent", 100, 200, ROOT),
            span("a", 90, 130, 0),
            span("b", 120, 150, 0),
            span("c", 190, 250, 0),
        ];
        // Covered: [100, 150) and [190, 200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40.0);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", ROOT));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(t.to_tsv().lines().count() == 3);

        let mut off = Tracer::new(false);
        off.span("outer", |t| t.span("inner", |_| ()));
        assert!(off.spans().is_empty());
    }
}
