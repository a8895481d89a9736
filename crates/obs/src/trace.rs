//! Structured-tracing facade: spans, events, and pluggable subscribers.
//!
//! The design follows the `tracing` crate's architecture at a fraction of
//! its surface:
//!
//! * every [`span!`](crate::span!)/[`event!`](crate::event!) expansion owns one `static`
//!   [`Metadata`] (name, target, level) — callsite identity is the
//!   metadata address;
//! * a process-global [`Subscriber`] receives enter/exit/event
//!   notifications; when none is installed the instrumentation cost is a
//!   single relaxed atomic load (no field evaluation, no clock reads);
//! * entered spans are tracked on a thread-local stack, so
//!   [`current_span_id`] gives error paths and journal records a context
//!   id without threading one through every signature.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Severity / verbosity of a span or event, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or run-aborting conditions.
    Error,
    /// Suspicious conditions the run survives.
    Warn,
    /// Run/round milestones (the default emission level).
    Info,
    /// Per-phase detail: fit, eval, score, select.
    Debug,
    /// Hot-path detail; avoid per-sample spans even here.
    Trace,
}

impl Level {
    /// Fixed-width display name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// Static description of a callsite, shared by every firing of it. Each
/// macro expansion owns one `static` instance.
#[derive(Debug)]
pub struct Metadata {
    /// Span/event name, e.g. `"al.round"`.
    pub name: &'static str,
    /// Emitting module path (`module_path!()` of the expansion).
    pub target: &'static str,
    /// Verbosity level.
    pub level: Level,
}

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field.
    F64(f64),
    /// Static string field.
    Str(&'static str),
    /// Owned string field.
    String(String),
    /// Boolean field.
    Bool(bool),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::String(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}

field_from!(
    u64 => U64 as u64,
    usize => U64 as u64,
    u32 => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::String(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

/// A `(name, value)` field pair.
pub(crate) type Field = (&'static str, FieldValue);

/// Process-unique span identifier (non-zero, monotone allocation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

fn next_span_id() -> SpanId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Receives span and event notifications. Implementations must be cheap
/// and re-entrant: notifications arrive from every worker thread.
pub trait Subscriber: Send + Sync {
    /// Level/target filter; a `false` suppresses the span or event before
    /// any field is materialized into a notification.
    fn enabled(&self, meta: &Metadata) -> bool {
        let _ = meta;
        true
    }

    /// A span was entered. `parent` is the innermost live span on the
    /// entering thread, if any.
    fn span_enter(&self, id: SpanId, parent: Option<SpanId>, meta: &Metadata, fields: &[Field]);

    /// A span closed after `elapsed_ns` nanoseconds.
    fn span_exit(&self, id: SpanId, meta: &Metadata, elapsed_ns: u64);

    /// A point event fired inside `span` (innermost live span, if any).
    fn event(&self, span: Option<SpanId>, meta: &Metadata, fields: &[Field]);
}

// ---------------------------------------------------------------------------
// Global dispatch
// ---------------------------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn global() -> &'static RwLock<Option<Arc<dyn Subscriber>>> {
    static GLOBAL: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);
    &GLOBAL
}

/// `true` iff a subscriber is installed. This is the whole cost of a
/// disabled callsite: one relaxed load.
#[inline]
pub fn dispatch_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Install `sub` as the process-global subscriber, returning the previous
/// one. Pass the result to `restore_subscriber` to undo.
pub fn set_subscriber(sub: Arc<dyn Subscriber>) -> Option<Arc<dyn Subscriber>> {
    let mut slot = global().write().unwrap();
    let prev = slot.replace(sub);
    ACTIVE.store(true, Ordering::Relaxed);
    prev
}

/// Restore a previous subscriber (or none) returned by
/// [`set_subscriber`].
pub(crate) fn restore_subscriber(prev: Option<Arc<dyn Subscriber>>) {
    let mut slot = global().write().unwrap();
    ACTIVE.store(prev.is_some(), Ordering::Relaxed);
    *slot = prev;
}

/// RAII guard installing a subscriber for a scope (tests, bench modes).
/// Scopes must not overlap across threads — the global slot is single.
pub struct SubscriberGuard {
    prev: Option<Option<Arc<dyn Subscriber>>>,
}

/// Install `sub` globally until the returned guard drops.
pub fn subscriber_scope(sub: Arc<dyn Subscriber>) -> SubscriberGuard {
    SubscriberGuard {
        prev: Some(set_subscriber(sub)),
    }
}

impl Drop for SubscriberGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            restore_subscriber(prev);
        }
    }
}

fn current_subscriber() -> Option<Arc<dyn Subscriber>> {
    if !dispatch_active() {
        return None;
    }
    global().read().unwrap().clone()
}

// ---------------------------------------------------------------------------
// Thread-local span stack
// ---------------------------------------------------------------------------

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<SpanId>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The innermost span entered (and not yet closed) on this thread, if
/// any. Error constructors use this to stamp context onto failures.
pub fn current_span_id() -> Option<SpanId> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

// ---------------------------------------------------------------------------
// Span / event entry points
// ---------------------------------------------------------------------------

struct LiveSpan {
    sub: Arc<dyn Subscriber>,
    id: SpanId,
    meta: &'static Metadata,
    start: Instant,
}

/// An entered span; closes (and notifies the subscriber) on drop.
/// A disabled callsite yields an inert `Span` that costs nothing.
pub struct Span {
    live: Option<LiveSpan>,
}

impl Span {
    /// A span that was filtered out (or fired with dispatch inactive).
    pub const fn disabled() -> Span {
        Span { live: None }
    }

    /// The id of this span, when recorded.
    pub fn id(&self) -> Option<SpanId> {
        self.live.as_ref().map(|l| l.id)
    }

    /// Enter a span dispatching to the global subscriber.
    pub fn enter(meta: &'static Metadata, fields: &[Field]) -> Span {
        let Some(sub) = current_subscriber() else {
            return Span::disabled();
        };
        if !sub.enabled(meta) {
            return Span::disabled();
        }
        let id = next_span_id();
        let parent = current_span_id();
        sub.span_enter(id, parent, meta, fields);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Span {
            live: Some(LiveSpan {
                sub,
                id,
                meta,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let elapsed = live.start.elapsed().as_nanos() as u64;
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&id| id == live.id) {
                    stack.remove(pos);
                }
            });
            live.sub.span_exit(live.id, live.meta, elapsed);
        }
    }
}

/// Fire a point event at `meta` through the global dispatch.
pub fn fire_event(meta: &'static Metadata, fields: &[Field]) {
    if let Some(sub) = current_subscriber() {
        if sub.enabled(meta) {
            sub.event(current_span_id(), meta, fields);
        }
    }
}

/// Open a span: `span!(Level::Debug, "al.fit", n = 120)`. Binds the
/// returned guard — the span closes when the guard drops. With no
/// subscriber installed the expansion costs one atomic load and never
/// evaluates its field expressions.
#[macro_export]
macro_rules! span {
    ($lvl:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        static __META: $crate::trace::Metadata = $crate::trace::Metadata {
            name: $name,
            target: module_path!(),
            level: $lvl,
        };
        if $crate::trace::dispatch_active() {
            $crate::trace::Span::enter(
                &__META,
                &[$((stringify!($k), $crate::trace::FieldValue::from($v))),*],
            )
        } else {
            $crate::trace::Span::disabled()
        }
    }};
}

/// Fire a point event: `event!(Level::Info, "journal.skip", cell = key)`.
/// Free (one atomic load, fields unevaluated) when no subscriber is
/// installed.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        static __META: $crate::trace::Metadata = $crate::trace::Metadata {
            name: $name,
            target: module_path!(),
            level: $lvl,
        };
        if $crate::trace::dispatch_active() {
            $crate::trace::fire_event(
                &__META,
                &[$((stringify!($k), $crate::trace::FieldValue::from($v))),*],
            );
        }
    }};
}

// ---------------------------------------------------------------------------
// Bundled subscribers
// ---------------------------------------------------------------------------

/// One recorded span closure or event, as collected by
/// [`CollectingSubscriber`].
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Callsite name.
    pub name: &'static str,
    /// `true` for span closures, `false` for events.
    pub is_span: bool,
    /// Span duration (ns); zero for events.
    pub elapsed_ns: u64,
    /// Field values captured at enter/fire time.
    pub fields: Vec<(&'static str, String)>,
}

/// A span-entry notification retained by [`CollectingSubscriber`].
type Entered = (SpanId, &'static str, Vec<(&'static str, String)>);

/// Test/diagnostic subscriber that records every notification in memory.
#[derive(Default)]
pub struct CollectingSubscriber {
    records: Mutex<Vec<Recorded>>,
    enters: Mutex<Vec<Entered>>,
    min_level: Option<Level>,
}

impl CollectingSubscriber {
    /// Collect everything.
    pub fn new() -> CollectingSubscriber {
        CollectingSubscriber::default()
    }

    /// Collect only notifications at `level` or coarser.
    pub fn with_max_level(level: Level) -> CollectingSubscriber {
        CollectingSubscriber {
            min_level: Some(level),
            ..CollectingSubscriber::default()
        }
    }

    /// All records so far (span closures + events, completion order).
    pub fn records(&self) -> Vec<Recorded> {
        self.records.lock().unwrap().clone()
    }

    /// Number of records named `name`.
    #[cfg(test)]
    fn count(&self, name: &str) -> usize {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.name == name)
            .count()
    }
}

fn render_fields(fields: &[Field]) -> Vec<(&'static str, String)> {
    fields.iter().map(|(k, v)| (*k, v.to_string())).collect()
}

impl Subscriber for CollectingSubscriber {
    fn enabled(&self, meta: &Metadata) -> bool {
        self.min_level.map_or(true, |max| meta.level <= max)
    }

    fn span_enter(&self, id: SpanId, _parent: Option<SpanId>, meta: &Metadata, fields: &[Field]) {
        self.enters
            .lock()
            .unwrap()
            .push((id, meta.name, render_fields(fields)));
    }

    fn span_exit(&self, id: SpanId, meta: &Metadata, elapsed_ns: u64) {
        let fields = {
            let mut enters = self.enters.lock().unwrap();
            match enters.iter().rposition(|(eid, _, _)| *eid == id) {
                Some(pos) => enters.remove(pos).2,
                None => Vec::new(),
            }
        };
        self.records.lock().unwrap().push(Recorded {
            name: meta.name,
            is_span: true,
            elapsed_ns,
            fields,
        });
    }

    fn event(&self, _span: Option<SpanId>, meta: &Metadata, fields: &[Field]) {
        self.records.lock().unwrap().push(Recorded {
            name: meta.name,
            is_span: false,
            elapsed_ns: 0,
            fields: render_fields(fields),
        });
    }
}

/// Subscriber printing span closures and events to stderr, one line
/// each — the `--trace` mode of the experiment harness. Output goes to
/// stderr only, so instrumented runs keep byte-identical stdout.
pub struct StderrSubscriber {
    /// Coarsest level printed.
    pub max_level: Level,
}

impl Subscriber for StderrSubscriber {
    fn enabled(&self, meta: &Metadata) -> bool {
        meta.level <= self.max_level
    }

    fn span_enter(&self, _: SpanId, _: Option<SpanId>, _: &Metadata, _: &[Field]) {}

    fn span_exit(&self, _id: SpanId, meta: &Metadata, elapsed_ns: u64) {
        eprintln!(
            "[{:>5}] {} close {:.3} ms",
            meta.level.as_str(),
            meta.name,
            elapsed_ns as f64 / 1e6
        );
    }

    fn event(&self, _span: Option<SpanId>, meta: &Metadata, fields: &[Field]) {
        let rendered: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        eprintln!(
            "[{:>5}] {} {}",
            meta.level.as_str(),
            meta.name,
            rendered.join(" ")
        );
    }
}

/// Measure the disabled-callsite cost: fire `iters` span expansions with
/// no subscriber consulted and return the mean cost per expansion in
/// nanoseconds. Used by `bench --check` to pin the "observability off"
/// overhead.
pub fn disabled_span_cost_ns(iters: u64) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        let _s = crate::span!(Level::Trace, "obs.disabled_probe", i = i);
        std::hint::black_box(&_s);
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global subscriber slot is shared: tests that install one are
    // serialized behind this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_inert() {
        let _l = TEST_LOCK.lock().unwrap();
        let s = span!(Level::Info, "t.disabled", x = 1usize);
        assert!(s.id().is_none());
        assert!(current_span_id().is_none());
    }

    #[test]
    fn spans_nest_and_record() {
        let _l = TEST_LOCK.lock().unwrap();
        let sub = Arc::new(CollectingSubscriber::new());
        let _guard = subscriber_scope(sub.clone());
        {
            let outer = span!(Level::Info, "t.outer", n = 2usize);
            assert_eq!(current_span_id(), outer.id());
            {
                let inner = span!(Level::Debug, "t.inner");
                assert_eq!(current_span_id(), inner.id());
            }
            assert_eq!(current_span_id(), outer.id());
            event!(Level::Info, "t.event", msg = "hello");
        }
        assert_eq!(sub.count("t.inner"), 1);
        assert_eq!(sub.count("t.outer"), 1);
        assert_eq!(sub.count("t.event"), 1);
        let outer = sub
            .records()
            .into_iter()
            .find(|r| r.name == "t.outer")
            .unwrap();
        assert!(outer.is_span);
        assert_eq!(outer.fields, vec![("n", "2".to_string())]);
    }

    #[test]
    fn level_filter_suppresses() {
        let _l = TEST_LOCK.lock().unwrap();
        let sub = Arc::new(CollectingSubscriber::with_max_level(Level::Info));
        let _guard = subscriber_scope(sub.clone());
        {
            let s = span!(Level::Debug, "t.filtered");
            assert!(s.id().is_none());
        }
        event!(Level::Trace, "t.filtered_event");
        event!(Level::Warn, "t.kept_event");
        assert_eq!(sub.count("t.filtered"), 0);
        assert_eq!(sub.count("t.filtered_event"), 0);
        assert_eq!(sub.count("t.kept_event"), 1);
    }

    #[test]
    fn scope_restores_previous_subscriber() {
        let _l = TEST_LOCK.lock().unwrap();
        let first = Arc::new(CollectingSubscriber::new());
        let guard_a = subscriber_scope(first.clone());
        {
            let second = Arc::new(CollectingSubscriber::new());
            let _guard_b = subscriber_scope(second.clone());
            event!(Level::Info, "t.scoped");
            assert_eq!(second.count("t.scoped"), 1);
        }
        event!(Level::Info, "t.after");
        assert_eq!(first.count("t.scoped"), 0);
        assert_eq!(first.count("t.after"), 1);
        drop(guard_a);
        assert!(!dispatch_active());
    }

    #[test]
    fn disabled_cost_is_small() {
        let _l = TEST_LOCK.lock().unwrap();
        // Generous bound: a disabled callsite is one atomic load + branch;
        // even debug builds come in far under a microsecond.
        assert!(disabled_span_cost_ns(10_000) < 1_000.0);
    }
}
