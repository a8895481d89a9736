//! The typed session builder behind [`ActiveLearner`] and [`Session`].
//!
//! [`SessionBuilder`] is the only way to construct an [`ActiveLearner`]
//! or a [`Session`]:
//! a typestate chain that makes the required inputs unforgettable and
//! the optional ones named (the old eight-argument positional
//! constructor, with its four pairwise-swappable `Vec`s, is gone):
//!
//! ```text
//! ActiveLearner::builder(model)   SessionBuilder<M, NeedsPool>
//!     .pool(samples, labels)      SessionBuilder<M, NeedsTest>
//!     .test(samples, labels)      SessionBuilder<M, NeedsStrategy>
//!     .strategy(strategy)         SessionBuilder<M, Ready>
//!     .seed(42)                   // optional, Ready-only
//!     .config(config)
//!     .metrics(registry)          // observability handles
//!     .journal(run_journal)
//!     .build()                    ActiveLearner<M>
//!  or .build_session()            Session<M>
//! ```
//!
//! Skipping a required stage is a *compile* error, not a panic: each
//! `pool`/`test`/`strategy` call consumes the builder and returns the
//! next stage marker, and `build()` only exists on
//! `SessionBuilder<M, Ready>`.
//!
//! The builder also owns the session's observability handles
//! (`SessionObs`): a [`MetricsRegistry`] accumulating phase-timing
//! histograms and a [`RunJournal`] that checkpoints every round to a
//! crash-safe JSONL file. Spans and events go to the process-global
//! subscriber (`histal_obs::trace::set_subscriber`), when one is
//! installed.

use std::marker::PhantomData;
use std::sync::Arc;

use serde::Serialize;

use histal_obs::metrics::MetricsRegistry;
use histal_obs::Journal;
use histal_text::{PoolGeometry, SparseVec};

use crate::driver::{ActiveLearner, PoolConfig, RoundRecord};
use crate::error::Error;
use crate::learned::LearnedSelector;
use crate::live::{Session, SessionSnapshot, SessionStep, SNAPSHOT_VERSION};
use crate::model::Model;
use crate::pipeline::LabelResponse;
use crate::strategy::Strategy;

// ---------------------------------------------------------------------------
// Observability handles
// ---------------------------------------------------------------------------

/// The observability handles a session carries: all optional, all
/// default-off, and all deliberately outside the algorithmic state so a
/// fully-instrumented run selects the exact same samples as a bare one.
#[derive(Default, Clone)]
pub(crate) struct SessionObs {
    /// Phase-timing histograms (`al.fit_us`, `al.eval_us`, `al.score_us`,
    /// `al.select_us`) and round counters land here when present.
    pub(crate) metrics: Option<Arc<MetricsRegistry>>,
    /// Per-round crash-safe checkpointing.
    pub(crate) journal: Option<Arc<RunJournal>>,
}

impl SessionObs {
    pub(crate) fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref()
    }

    pub(crate) fn journal(&self) -> Option<&RunJournal> {
        self.journal.as_deref()
    }

    /// Publish a completed round to every attached handle: a debug
    /// event, the phase-timing histograms (microsecond units so the
    /// log-bucket resolution is useful at sub-millisecond phases), and
    /// the crash-safe journal checkpoint. Called once per completed
    /// round, when the round's ticket is fulfilled.
    pub(crate) fn publish_round(&self, record: &RoundRecord) -> Result<(), Error> {
        histal_obs::event!(
            histal_obs::trace::Level::Debug,
            "al.round.complete",
            round = record.round,
            selected = record.selected.len(),
            fit_ms = record.fit_ms,
            eval_ms = record.eval_ms,
            score_ms = record.score_ms,
            select_ms = record.select_ms,
        );
        if let Some(metrics) = self.metrics() {
            metrics.counter_add("al.rounds", 1);
            metrics.counter_add("al.selected", record.selected.len() as u64);
            metrics.histogram_record("al.fit_us", (record.fit_ms * 1e3) as u64);
            metrics.histogram_record("al.eval_us", (record.eval_ms * 1e3) as u64);
            metrics.histogram_record("al.score_us", (record.score_ms * 1e3) as u64);
            metrics.histogram_record("al.select_us", (record.select_ms * 1e3) as u64);
        }
        if let Some(journal) = self.journal() {
            journal.record_round(record)?;
        }
        Ok(())
    }
}

/// One journal line per completed selection round: the minimal record
/// needed to audit *what* was picked *when* and at what cost, keyed so a
/// resume can verify it belongs to the same configured run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct RoundJournalRecord {
    /// Record discriminator, always `"round"`.
    pub kind: String,
    /// Grid-cell key, e.g. `"fig3_text/ag_news/WSHS(entropy)/r0"`.
    pub cell: String,
    /// Hash of the full cell configuration; a resume must see the same
    /// hash or the journaled rounds are ignored.
    pub config_hash: u64,
    /// The run's RNG seed.
    pub seed: u64,
    /// Round index (0-based).
    pub round: usize,
    /// Pool ids selected this round.
    pub selected: Vec<usize>,
    /// Phase timings, milliseconds (wall-clock; *not* covered by the
    /// config hash, they vary run to run).
    pub fit_ms: f64,
    /// Pool evaluation time (ms).
    pub eval_ms: f64,
    /// Scoring time (ms).
    pub score_ms: f64,
    /// Batch selection time (ms).
    pub select_ms: f64,
}

/// A journal handle scoped to one run (one grid cell): the shared
/// [`Journal`] file plus the cell key, config hash and seed stamped on
/// every record this session appends.
pub struct RunJournal {
    journal: Arc<Journal>,
    cell: String,
    config_hash: u64,
    seed: u64,
}

impl RunJournal {
    /// Scope `journal` to the run identified by `cell`/`config_hash`/
    /// `seed`.
    pub fn new(
        journal: Arc<Journal>,
        cell: impl Into<String>,
        config_hash: u64,
        seed: u64,
    ) -> RunJournal {
        RunJournal {
            journal,
            cell: cell.into(),
            config_hash,
            seed,
        }
    }

    /// Append the per-round checkpoint record.
    pub(crate) fn record_round(&self, record: &RoundRecord) -> Result<(), Error> {
        let line = RoundJournalRecord {
            kind: "round".to_string(),
            cell: self.cell.clone(),
            config_hash: self.config_hash,
            seed: self.seed,
            round: record.round,
            selected: record.selected.clone(),
            fit_ms: record.fit_ms,
            eval_ms: record.eval_ms,
            score_ms: record.score_ms,
            select_ms: record.select_ms,
        };
        self.journal.append(&line).map_err(Error::journal)
    }

    /// Append an arbitrary extra record (e.g. the harness's cell-complete
    /// record) stamped with nothing — the caller owns the schema.
    pub fn append<T: serde::Serialize>(&self, record: &T) -> Result<(), Error> {
        self.journal.append(record).map_err(Error::journal)
    }
}

/// Deterministic FNV-1a hash of a run configuration, for stamping
/// journal records. Callers fold in whatever identifies the cell
/// (config JSON, strategy name, scale, …); the exact inputs are the
/// caller's contract with itself across restarts.
pub fn fingerprint(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Separator so ["ab","c"] ≠ ["a","bc"].
        h ^= 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Typestate builder
// ---------------------------------------------------------------------------

/// Builder stage: the unlabeled pool (samples + hidden oracle labels) is
/// still missing.
pub struct NeedsPool(());
/// Builder stage: the held-out test split is still missing.
pub struct NeedsTest(());
/// Builder stage: the query [`Strategy`] is still missing.
pub struct NeedsStrategy(());
/// Builder stage: all required inputs present; optional knobs and
/// `build()` are available.
pub struct Ready(());

/// Typed builder for an [`ActiveLearner`] session. See the
/// [module docs](self) for the stage diagram; obtain one via
/// [`ActiveLearner::builder`].
pub struct SessionBuilder<M: Model, Stage = NeedsPool> {
    model: M,
    samples: Vec<M::Sample>,
    oracle_labels: Vec<M::Label>,
    test_samples: Vec<M::Sample>,
    test_labels: Vec<M::Label>,
    strategy: Option<Strategy>,
    config: PoolConfig,
    seed: u64,
    lhs: Option<Arc<LearnedSelector>>,
    geometry: Option<Arc<PoolGeometry>>,
    obs: SessionObs,
    _stage: PhantomData<Stage>,
}

impl<M: Model, Stage> SessionBuilder<M, Stage> {
    fn advance<Next>(self) -> SessionBuilder<M, Next> {
        SessionBuilder {
            model: self.model,
            samples: self.samples,
            oracle_labels: self.oracle_labels,
            test_samples: self.test_samples,
            test_labels: self.test_labels,
            strategy: self.strategy,
            config: self.config,
            seed: self.seed,
            lhs: self.lhs,
            geometry: self.geometry,
            obs: self.obs,
            _stage: PhantomData,
        }
    }
}

impl<M: Model> SessionBuilder<M, NeedsPool> {
    pub(crate) fn start(model: M) -> SessionBuilder<M, NeedsPool> {
        SessionBuilder {
            model,
            samples: Vec::new(),
            oracle_labels: Vec::new(),
            test_samples: Vec::new(),
            test_labels: Vec::new(),
            strategy: None,
            config: PoolConfig::default(),
            seed: 0,
            lhs: None,
            geometry: None,
            obs: SessionObs::default(),
            _stage: PhantomData,
        }
    }

    /// The unlabeled pool and its hidden oracle labels (`labels[i]` is
    /// revealed when sample `i` is "annotated").
    pub fn pool(
        mut self,
        samples: Vec<M::Sample>,
        oracle_labels: Vec<M::Label>,
    ) -> SessionBuilder<M, NeedsTest> {
        assert_eq!(
            samples.len(),
            oracle_labels.len(),
            "pool samples/labels misaligned"
        );
        self.samples = samples;
        self.oracle_labels = oracle_labels;
        self.advance()
    }
}

impl<M: Model> SessionBuilder<M, NeedsTest> {
    /// The held-out test split the learning curve is measured on.
    pub fn test(
        mut self,
        samples: Vec<M::Sample>,
        labels: Vec<M::Label>,
    ) -> SessionBuilder<M, NeedsStrategy> {
        assert_eq!(
            samples.len(),
            labels.len(),
            "test samples/labels misaligned"
        );
        self.test_samples = samples;
        self.test_labels = labels;
        self.advance()
    }
}

impl<M: Model> SessionBuilder<M, NeedsStrategy> {
    /// The query strategy (base + history policy + combinators).
    pub fn strategy(mut self, strategy: Strategy) -> SessionBuilder<M, Ready> {
        self.strategy = Some(strategy);
        self.advance()
    }
}

impl<M: Model> SessionBuilder<M, Ready> {
    /// RNG seed making the whole run deterministic (default `0`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Loop configuration (default [`PoolConfig::default`]).
    pub fn config(mut self, config: PoolConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        self.config = config;
        self
    }

    /// Attach a trained learned selector (LHS or LAL); selection then
    /// ranks a candidate set with the learned ranker instead of sorting
    /// by the history policy. The selector is shared, not copied: many
    /// sessions can run one trained instance.
    pub fn lhs(mut self, lhs: Arc<LearnedSelector>) -> Self {
        self.lhs = Some(lhs);
        self
    }

    /// The pool geometry enabling the density / MMR / k-center
    /// combinators; row `i` must describe pool sample `i`. The geometry
    /// is shared, not copied: every session on one pool can read one
    /// instance. A session whose strategy has no similarity combinator
    /// drops it.
    pub fn geometry(mut self, geometry: Arc<PoolGeometry>) -> Self {
        assert_eq!(
            geometry.len(),
            self.samples.len(),
            "one geometry row per pool sample"
        );
        self.geometry = Some(geometry);
        self
    }

    /// [`SessionBuilder::geometry`] built from sparse representations,
    /// `reps[i]` describing pool sample `i`, for callers that hold no
    /// shared geometry.
    pub fn representations(self, reps: Vec<SparseVec>) -> Self {
        self.geometry(Arc::new(PoolGeometry::build(&reps)))
    }

    /// Metrics registry accumulating the session's phase-timing
    /// histograms and counters.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.obs.metrics = Some(metrics);
        self
    }

    /// Crash-safe per-round journaling. Each completed round appends one
    /// `RoundJournalRecord`; a journal write failure aborts the run
    /// with [`crate::error::ErrorKind::Journal`].
    pub fn journal(mut self, journal: RunJournal) -> Self {
        self.obs.journal = Some(Arc::new(journal));
        self
    }

    /// Construct an interactive [`Session`]: the caller drives the
    /// annotate boundary through `step`/`submit` tickets (see
    /// [`crate::live`]), or lets the session answer its own tickets from
    /// the [`pool`](SessionBuilder::pool) labels
    /// ([`Session::answer_from_hidden`]).
    pub fn build_session(self) -> Session<M> {
        Session::from_parts(
            self.model,
            self.samples,
            self.oracle_labels,
            self.test_samples,
            self.test_labels,
            self.strategy.expect("strategy set by typestate"),
            self.lhs,
            self.config,
            self.geometry,
            self.seed,
            self.obs,
        )
    }

    /// Rebuild a session from a [`SessionSnapshot`], replaying its label
    /// events through the deterministic pipeline. The builder must carry
    /// the *same* configuration the snapshot was taken from (enforced via
    /// the snapshot's config hash → [`ErrorKind::Conflict`] on mismatch);
    /// the restored session is then byte-identical to the one that was
    /// snapshotted — same RNG position, same pool, same pending ticket
    /// with the same partially-received labels.
    ///
    /// [`ErrorKind::Conflict`]: crate::error::ErrorKind::Conflict
    pub fn restore(self, snapshot: &SessionSnapshot<M::Label>) -> Result<Session<M>, Error> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(Error::conflict(format!(
                "snapshot version {} is not the supported version {SNAPSHOT_VERSION}",
                snapshot.version
            )));
        }
        let mut session = self.build_session();
        if snapshot.config_hash != session.config_hash() {
            return Err(Error::conflict(format!(
                "snapshot config hash {:#x} does not match this configuration ({:#x})",
                snapshot.config_hash,
                session.config_hash()
            )));
        }
        for ticket in &snapshot.tickets {
            match session.step()? {
                SessionStep::AwaitingLabels => {}
                SessionStep::Done => {
                    return Err(Error::conflict(
                        "snapshot carries more fulfilled tickets than this \
                         configuration can replay",
                    ))
                }
            }
            let pending = session
                .pending()
                .expect("awaiting session has a pending request")
                .ticket;
            if pending != ticket.ticket {
                return Err(Error::conflict(format!(
                    "snapshot ticket {} does not line up with replayed ticket {pending}",
                    ticket.ticket
                )));
            }
            session.submit(&LabelResponse {
                ticket: ticket.ticket,
                labels: ticket.labels.clone(),
            })?;
        }
        // Park on the next ticket and re-deliver the labels that had
        // already arrived for it.
        if !snapshot.partial.is_empty() {
            session.step()?;
            let ticket = session.pending().map(|p| p.ticket).ok_or_else(|| {
                Error::conflict(
                    "snapshot carries partial labels but the replayed session \
                         has no pending ticket",
                )
            })?;
            session.submit(&LabelResponse {
                ticket,
                labels: snapshot.partial.clone(),
            })?;
        }
        Ok(session)
    }

    /// Construct the batch learner: a [`Session`] the learner answers
    /// from the pool labels.
    pub fn build(self) -> ActiveLearner<M> {
        ActiveLearner(self.build_session())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_boundaries() {
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_ne!(fingerprint(&[]), fingerprint(&[""]));
        assert_eq!(fingerprint(&["x", "y"]), fingerprint(&["x", "y"]));
    }
}
