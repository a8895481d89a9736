//! # histal-obs — observability substrate for the histal workspace
//!
//! Hand-rolled, zero-external-dependency observability in the same
//! spirit as the workspace's vendored `rayon`/`serde` shims: the API
//! shapes follow the `tracing` / `metrics` ecosystems closely enough to
//! be familiar, but everything here is self-contained and deterministic.
//!
//! Three layers, each usable on its own:
//!
//! * [`trace`] — a structured-tracing facade. `span!` / `event!` macros
//!   own a static [`trace::Metadata`] per expansion and dispatch to a
//!   pluggable [`trace::Subscriber`]. When no subscriber is installed
//!   the macros cost one relaxed atomic load and never evaluate their
//!   field expressions, so instrumented hot loops stay hot.
//! * [`metrics`] — a registry of counters, gauges, and HDR-style
//!   log-bucket histograms. [`metrics::ShardedMetrics`] gives each
//!   parallel task its own shard by *task index* and merges shards in
//!   index order, so aggregate metrics are identical regardless of how
//!   the thread pool interleaved the work.
//! * [`Journal`] / [`JournalReader`] — a crash-safe JSONL run journal: one flushed line per
//!   record, and a reader that tolerates (and repairs) a truncated
//!   crash-tail line. The experiment harness uses it to checkpoint
//!   every grid cell and resume interrupted runs.
//!
//! ## Quick start
//!
//! ```
//! use histal_obs::{span, event, trace::{CollectingSubscriber, Level}};
//! use std::sync::Arc;
//!
//! let sub = Arc::new(CollectingSubscriber::new());
//! let _guard = histal_obs::trace::subscriber_scope(sub.clone());
//! {
//!     let _span = span!(Level::Info, "demo.work", items = 3usize);
//!     event!(Level::Debug, "demo.step", step = 1usize);
//! }
//! assert!(sub.records().iter().any(|r| r.name == "demo.work"));
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub(crate) mod journal;
pub mod metrics;
pub mod trace;

pub use journal::{Journal, JournalReader};
pub use metrics::{MetricValue, MetricsRegistry, ShardedMetrics};
pub use trace::{subscriber_scope, CollectingSubscriber, Level};
