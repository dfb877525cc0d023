//! In-memory span recorder for traced runs.
//!
//! A traced run records one span per call into a layer: its name
//! (`<layer>.<operation>`, e.g. `store.write`), start, end, parent and an
//! optional work count (bytes, devices, BDD nodes).  Spans stay in memory
//! until the run ends; [`Tracer::write_to`] then writes them out as a
//! tab-separated file and [`Trace::load`] reads that file back for the
//! per-layer numbers.
//!
//! Calls made once per trace (the archive writer's buffered `record`) are
//! too many to keep as spans.  They are kept as an *aggregate*: a call
//! count and a summed duration under the span they ran in.  A span's self
//! time is its duration minus the union of its child spans' intervals minus
//! its child aggregates.  Where child spans overlap (threads running in
//! parallel), their subtrees count with the weight
//! `union / Σ durations`, so that the self times of a campaign add up to
//! its wall clock.
//!
//! A disabled tracer records nothing and reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span; `0` means "no span" (the parent of a root).
pub type SpanId = u32;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done in the span (bytes, devices, nodes); `0` when not counted.
    pub n: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Calls too frequent to keep one span each, summed under their parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub parent: SpanId,
    pub name: String,
    pub calls: u64,
    pub total_ns: u64,
}

thread_local! {
    /// The open spans of this thread, innermost last.
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Median cost of reading the clock twice, measured at creation.
    clock_ns: u64,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    aggregates: Mutex<Vec<Aggregate>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        let clock_ns = if enabled { clock_pair_ns() } else { 0 };
        Tracer {
            enabled,
            epoch: Instant::now(),
            clock_ns,
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            aggregates: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// What two back-to-back clock reads cost, to be taken off a duration
    /// timed with [`Instant`] around a call of a few tens of nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// The innermost open span of the calling thread (`0` if none), for
    /// handing to work started on another thread.
    pub fn current(&self) -> SpanId {
        if !self.enabled {
            return 0;
        }
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Opens a span under the calling thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Open<'_> {
        let parent = self.current();
        self.span_under(name, parent)
    }

    /// Opens a span under an explicit parent (work started on another
    /// thread).
    pub fn span_under(&self, name: &'static str, parent: SpanId) -> Open<'_> {
        if !self.enabled {
            return Open {
                tracer: self,
                id: 0,
                parent,
                name,
                start: None,
                n: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        Open {
            tracer: self,
            id,
            parent,
            name,
            start: Some(Instant::now()),
            n: 0,
        }
    }

    /// Adds `calls` calls of `total_ns` summed duration under `parent`.
    pub fn aggregate(&self, parent: SpanId, name: &'static str, calls: u64, total_ns: u64) {
        if !self.enabled || calls == 0 {
            return;
        }
        self.aggregates
            .lock()
            .expect("a tracing thread panicked")
            .push(Aggregate {
                parent,
                name: name.to_string(),
                calls,
                total_ns,
            });
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Writes every recorded span and aggregate as tab-separated lines.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut out =
            String::from("# kind\tid|parent\tparent|name\tname|calls\tstart|ns\tend\tn\n");
        for s in self.spans.lock().expect("a tracing thread panicked").iter() {
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.n
            );
        }
        for a in self
            .aggregates
            .lock()
            .expect("a tracing thread panicked")
            .iter()
        {
            let _ = writeln!(
                out,
                "agg\t{}\t{}\t{}\t{}",
                a.parent, a.name, a.calls, a.total_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Median over 1001 tries of the time between two back-to-back clock reads.
fn clock_pair_ns() -> u64 {
    let mut tries: Vec<u64> = (0..1001)
        .map(|_| {
            let start = Instant::now();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    tries.sort_unstable();
    tries[tries.len() / 2]
}

/// An open span; closed (and recorded) when dropped.
#[derive(Debug)]
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Option<Instant>,
    n: u64,
}

impl Open<'_> {
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Counts work done in the span.
    pub fn add(&mut self, n: u64) {
        self.n += n;
    }
}

/// Closes the innermost open span of this thread.  Spans close innermost
/// first by construction (guards drop in reverse order); a mismatch is left
/// alone rather than panicking inside `Drop`.
fn pop(id: SpanId) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.last() == Some(&id) {
            stack.pop();
        }
    });
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let end = Instant::now();
        pop(self.id);
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            start_ns: self.tracer.nanos(start),
            end_ns: self.tracer.nanos(end),
            n: self.n,
        };
        // Never panic in drop: a poisoned list only loses this span.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// A trace file read back: the spans and aggregates of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub aggregates: Vec<Aggregate>,
}

/// Per-name totals over one subtree of a [`Trace`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTotals {
    /// Summed self time per span or aggregate name, in seconds.
    pub self_s: BTreeMap<String, f64>,
    /// Number of spans (or aggregated calls) per name.
    pub calls: BTreeMap<String, u64>,
    /// Summed work counts per span name.
    pub work: BTreeMap<String, u64>,
    /// Every span duration per span name, in seconds.
    pub durations: BTreeMap<String, Vec<f64>>,
}

impl LayerTotals {
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    pub fn work(&self, name: &str) -> u64 {
        self.work.get(name).copied().unwrap_or(0)
    }
}

impl Trace {
    /// Parses a file written by [`Tracer::write_to`].
    pub fn load(path: &Path) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
        let mut trace = Trace::default();
        for (number, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("trace {} line {}: malformed", path.display(), number + 1);
            let num = |i: usize| -> Result<u64, String> {
                fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(bad)
            };
            match (fields.first().copied(), fields.len()) {
                (Some("span"), 7) => trace.spans.push(Span {
                    id: u32::try_from(num(1)?).map_err(|_| bad())?,
                    parent: u32::try_from(num(2)?).map_err(|_| bad())?,
                    name: fields[3].to_string(),
                    start_ns: num(4)?,
                    end_ns: num(5)?,
                    n: num(6)?,
                }),
                (Some("agg"), 5) => trace.aggregates.push(Aggregate {
                    parent: u32::try_from(num(1)?).map_err(|_| bad())?,
                    name: fields[2].to_string(),
                    calls: num(3)?,
                    total_ns: num(4)?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(trace)
    }

    /// The root spans with the given name, in start order.
    pub fn roots(&self, name: &str) -> Vec<&Span> {
        let mut roots: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == name)
            .collect();
        roots.sort_by_key(|s| s.start_ns);
        roots
    }

    /// Self time, call counts, work counts and durations per name over the
    /// subtree under `root` (the root included).
    pub fn totals(&self, root: SpanId) -> LayerTotals {
        let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            children.entry(s.parent).or_default().push(s);
        }
        let mut aggregates: BTreeMap<SpanId, Vec<&Aggregate>> = BTreeMap::new();
        for a in &self.aggregates {
            aggregates.entry(a.parent).or_default().push(a);
        }
        let mut totals = LayerTotals::default();
        // Each entry carries the share of its time that is wall-clock time:
        // 1 on the main thread; below 1 under a span whose children ran in
        // parallel, so that layer times add up to the root's duration.
        let mut pending: Vec<(&Span, f64)> = self
            .spans
            .iter()
            .filter(|s| s.id == root)
            .map(|s| (s, 1.0))
            .collect();
        while let Some((span, weight)) = pending.pop() {
            let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
            let aggs = aggregates.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
            let covered = union_ns(kids.iter().map(|k| (k.start_ns, k.end_ns)));
            // An aggregate may be an estimate; it never claims more than the
            // time its span's children leave uncovered.
            let uncovered = span.duration_ns().saturating_sub(covered);
            let aggregated: u64 = aggs.iter().map(|a| a.total_ns).sum();
            let aggregate_scale = if aggregated > uncovered {
                uncovered as f64 / aggregated as f64
            } else {
                1.0
            };
            let self_ns = uncovered.saturating_sub(aggregated);
            *totals.self_s.entry(span.name.clone()).or_default() += self_ns as f64 * 1e-9 * weight;
            *totals.calls.entry(span.name.clone()).or_default() += 1;
            *totals.work.entry(span.name.clone()).or_default() += span.n;
            totals
                .durations
                .entry(span.name.clone())
                .or_default()
                .push(span.duration_ns() as f64 * 1e-9);
            for a in aggs {
                *totals.self_s.entry(a.name.clone()).or_default() +=
                    a.total_ns as f64 * 1e-9 * weight * aggregate_scale;
                *totals.calls.entry(a.name.clone()).or_default() += a.calls;
            }
            let summed: u64 = kids.iter().map(|k| k.duration_ns()).sum();
            let share = if summed > covered {
                covered as f64 / summed as f64
            } else {
                1.0
            };
            pending.extend(kids.iter().map(|&k| (k, weight * share)));
        }
        totals
    }
}

/// Length of the union of half-open intervals.
fn union_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let trace = Trace {
            spans: vec![
                Span {
                    id: 1,
                    parent: 0,
                    name: "bench.campaign".into(),
                    start_ns: 0,
                    end_ns: 100,
                    n: 0,
                },
                Span {
                    id: 2,
                    parent: 1,
                    name: "store.write".into(),
                    start_ns: 10,
                    end_ns: 30,
                    n: 8,
                },
                // Overlapping siblings (two threads) share the 30 ns of wall
                // clock they cover.
                Span {
                    id: 3,
                    parent: 1,
                    name: "store.write".into(),
                    start_ns: 20,
                    end_ns: 40,
                    n: 8,
                },
            ],
            aggregates: vec![Aggregate {
                parent: 1,
                name: "store.append".into(),
                calls: 5,
                total_ns: 10,
            }],
        };
        let totals = trace.totals(1);
        assert!((totals.self_s("bench.campaign") - 60e-9).abs() < 1e-15);
        assert!((totals.self_s("store.write") - 30e-9).abs() < 1e-15);
        let summed: f64 = totals.self_s.values().sum();
        assert!(
            (summed - 100e-9).abs() < 1e-15,
            "self times add up to the root"
        );
        assert!((totals.self_s("store.append") - 10e-9).abs() < 1e-15);
        assert_eq!(totals.calls("store.write"), 2);
        assert_eq!(totals.calls("store.append"), 5);
        assert_eq!(totals.work("store.write"), 16);
    }

    #[test]
    fn spans_round_trip_through_the_file() {
        let tracer = Tracer::new(true);
        {
            let root = tracer.span("bench.campaign");
            let mut child = tracer.span("store.write");
            child.add(42);
            drop(child);
            tracer.aggregate(root.id(), "store.append", 1, 7);
        }
        let dir = Path::new(".bench_tmp").join(format!("unit-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tsv");
        tracer.write_to(&path).unwrap();
        let trace = Trace::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.aggregates.len(), 1);
        let root = trace.roots("bench.campaign")[0].id;
        let totals = trace.totals(root);
        assert_eq!(totals.work("store.write"), 42);
        assert_eq!(totals.calls("store.append"), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let span = tracer.span("store.write");
        assert_eq!(span.id(), 0);
        drop(span);
        assert_eq!(tracer.current(), 0);
        assert!(tracer.spans.lock().unwrap().is_empty());
    }
}
