//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around each call it makes into
//! a layer, kept in memory and written out once the workload ends, so
//! recording costs one lock per span and no I/O while measuring.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::union_len;

/// One recorded interval. Times are nanoseconds since the trace began.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the trace (never 0).
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Layer name, e.g. `models.fit`.
    pub name: &'static str,
    /// Start, in ns since the trace began.
    pub start: u64,
    /// End, in ns since the trace began.
    pub end: u64,
    /// Small per-process index of the recording thread.
    pub thread: u64,
    /// The AL run (grid job or served session) the span belongs to.
    pub run: u64,
    /// Time spent inside the layer. Equals `end - start` except for
    /// aggregated spans, which cover many short calls on one thread.
    pub busy: u64,
    /// Calls the span stands for (1 unless aggregated).
    pub calls: u64,
}

/// Collects spans from every thread of one workload process.
pub struct Trace {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Index of the calling thread, stable for the thread's lifetime.
pub fn thread_index() -> u64 {
    THREAD.with(|t| *t)
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Reserve a span id, so children can name a parent that is
    /// recorded after them.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span. Never panics, so `Drop` impls may call
    /// it: a push leaves the list valid even if another pusher panicked.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Record `[start, now)` under a reserved `id`.
    pub fn close(&self, id: u64, parent: u64, name: &'static str, run: u64, start: u64) {
        let end = self.now();
        self.push(Span {
            id,
            parent,
            name,
            start,
            end,
            thread: thread_index(),
            run,
            busy: end - start,
            calls: 1,
        });
    }

    /// Run `f` inside a new span and return its result with the span id.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        run: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id();
        let start = self.now();
        let out = f(id);
        self.close(id, parent, name, run, start);
        out
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace lock poisoned").clone()
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"thread\":{},\"run\":{},\"busy_ns\":{},\"calls\":{}}}",
                s.id, s.parent, s.name, s.start, s.end, s.thread, s.run, s.busy, s.calls
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span when tracing, or just run it.
pub fn maybe_time<T>(
    trace: Option<&Trace>,
    name: &'static str,
    parent: u64,
    run: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match trace {
        Some(t) => t.time(name, parent, run, f),
        None => f(0),
    }
}

/// Aggregate of one layer over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Calls into the layer.
    pub calls: u64,
    /// Time inside the layer, ns.
    pub total: u64,
    /// Time inside the layer and outside every child span, ns. The
    /// children's intervals are merged first: children that overlap
    /// (eval on two threads) are subtracted once.
    pub self_time: u64,
}

/// Per-layer count, total and self time over `spans`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| {
            let clipped: Vec<(u64, u64)> = c
                .iter()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .collect();
            union_len(&clipped)
        });
        let stat = out.entry(s.name).or_default();
        stat.calls += s.calls;
        stat.total += s.busy;
        stat.self_time += s.busy.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            thread: 0,
            run: 0,
            busy: end - start,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "core.run", 0, 100),
            span(2, 1, "models.fit", 0, 40),
            // Two threads evaluating at once: 30 ns of wall, not 50.
            span(3, 1, "models.eval", 50, 75),
            span(4, 1, "models.eval", 55, 80),
        ];
        let s = summarize(&spans);
        assert_eq!(s["core.run"].self_time, 100 - 40 - 30);
        assert_eq!(s["models.eval"].calls, 2);
        assert_eq!(s["models.eval"].total, 50);
        assert_eq!(s["models.fit"].self_time, 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span(1, 0, "a", 10, 20), span(2, 1, "b", 5, 15)];
        assert_eq!(summarize(&spans)["a"].self_time, 5);
    }
}
