//! Long-lived interactive sessions: the AL loop with the annotate
//! boundary turned inside out.
//!
//! [`Session`] is the one implementation of the round pipeline
//! (fit → eval → score → fold history → select → annotate). It is a
//! state machine the *caller* advances, because a deployment with human
//! annotators gets labels late, out of order, and in pieces:
//!
//! ```text
//!   step()    → AwaitingLabels(LabelRequest { ticket, indices })
//!   submit()  ← LabelResponse { ticket, labels }   (partial, repeated,
//!   step()    → AwaitingLabels(..)                  any order)
//!   …
//!   step()    → Done            → result()
//! ```
//!
//! The paper's simulated-annotator protocol is the same machine answered
//! from the pool's own gold labels: [`Session::run_hidden`] loops
//! `step → answer_from_hidden → submit`, and the batch
//! [`ActiveLearner`](crate::driver::ActiveLearner) is a thin handle over
//! exactly that loop.
//!
//! [`Session::step`] runs every compute stage (fit/eval/score/select)
//! until the loop cannot continue without labels, then parks on a
//! ticketed [`LabelRequest`]. [`Session::submit`] accepts label
//! responses with *at-least-once* delivery semantics: chunks may arrive
//! out of order and duplicated; a duplicate that agrees with the
//! established label is acknowledged idempotently, one that disagrees is
//! an [`ErrorKind::Conflict`]. A rejected chunk changes nothing. When
//! the last label of a ticket lands, the batch is applied to the pool
//! **in request order** — so the pool state after a ticket is a pure
//! function of the label *values*, never of their arrival order
//! (property-tested in `tests/live_props.rs`).
//!
//! ## Snapshot / restore
//!
//! Every run is deterministic given the seed and the sequence of label
//! values, so a session's complete state compresses to its fulfilled
//! tickets: [`Session::snapshot`] returns exactly that (plus any labels
//! of the still-pending ticket), and
//! [`SessionBuilder::restore`](crate::session::SessionBuilder::restore)
//! replays it through the same deterministic pipeline, reproducing the
//! pre-snapshot state byte for byte. This is the public API behind the
//! experiment binary's `resume` subcommand and `histal-serve`'s
//! kill-`-9`-and-restart story; persistence of the snapshot (or of the
//! label events it is derived from) belongs to the caller — the server
//! journals label events through `histal-obs` and rebuilds snapshots on
//! boot.
//!
//! [`ErrorKind::Conflict`]: crate::error::ErrorKind::Conflict

use std::sync::Arc;

use rand::prelude::SliceRandom;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use histal_obs::span;
use histal_obs::trace::Level;
use histal_text::{LshIndex, NeighborIndex, PoolGeometry};

use crate::driver::{
    mix_seed, selection_diagnostics, CurvePoint, PoolConfig, RoundRecord, RunResult,
};
use crate::error::Error;
use crate::eval::EvalCaps;
use crate::history::HistoryStore;
use crate::learned::LearnedSelector;
use crate::model::Model;
use crate::pipeline::{
    apply_response, eval_pool, fit_measure, score_base, FoldHistory, LabelRequest, LabelResponse,
    RoundCtx, Select, SelectCtx, Ticket,
};
use crate::pool::{Pool, SampleId};
use crate::session::{fingerprint, SessionObs};
use crate::stopping::{StopReason, StoppingRule};
use crate::strategy::combinators::apply_density;
use crate::strategy::Strategy;

/// What [`Session::step`] left the session waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStep {
    /// The loop cannot continue without labels; the outstanding request
    /// is available via [`Session::pending`].
    AwaitingLabels,
    /// All rounds are complete; [`Session::result`] is available.
    Done,
}

/// What one [`Session::submit`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SubmitOutcome {
    /// Labels newly recorded by this call.
    pub accepted: usize,
    /// Labels that were already established (idempotent re-delivery).
    pub duplicates: usize,
    /// Labels the pending ticket still waits for after this call.
    pub remaining: usize,
    /// `true` if this call completed the ticket and applied the batch.
    pub batch_complete: bool,
}

/// A point-in-time summary of a session, cheap to produce and
/// serializable (the server's `session-status` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStatus {
    /// Completed selection rounds.
    pub round: usize,
    /// Configured selection rounds.
    pub total_rounds: usize,
    /// Labeled samples.
    pub n_labeled: usize,
    /// Unlabeled samples.
    pub n_unlabeled: usize,
    /// Outstanding ticket, if the session is awaiting labels.
    pub pending_ticket: Option<Ticket>,
    /// Labels the outstanding ticket still needs.
    pub pending_remaining: usize,
    /// `true` once the run is complete.
    pub done: bool,
    /// Most recent learning-curve metric, if any round has been fitted.
    pub last_metric: Option<f64>,
}

/// One fulfilled ticket: the labels that answered it, in request-index
/// order. The unit of [`SessionSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TicketLabels<L> {
    /// The fulfilled ticket.
    pub ticket: Ticket,
    /// `(pool id, label)` in the order the request listed the ids.
    pub labels: Vec<(SampleId, L)>,
}

/// The complete durable state of a [`Session`], as an event log: because
/// the pipeline is deterministic given `(configuration, seed, label
/// values)`, the fulfilled tickets *are* the state. Restore with
/// [`SessionBuilder::restore`](crate::session::SessionBuilder::restore),
/// which replays the log and leaves the session exactly where it was —
/// including a partially-fulfilled pending ticket.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionSnapshot<L> {
    /// Snapshot schema version (currently 1).
    pub version: u32,
    /// Fingerprint of the session configuration (strategy, loop config,
    /// seed); restore refuses a snapshot whose hash does not match the
    /// builder it is replayed on.
    pub config_hash: u64,
    /// The session RNG seed.
    pub seed: u64,
    /// Fulfilled tickets, in ticket order.
    pub tickets: Vec<TicketLabels<L>>,
    /// Labels already received for the pending (unfulfilled) ticket.
    pub partial: Vec<(SampleId, L)>,
}

/// Current snapshot schema version.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// The outstanding labeling work of a session.
struct PendingBatch<L> {
    request: LabelRequest,
    /// Received labels, parallel to `request.indices`.
    got: Vec<Option<L>>,
    remaining: usize,
    /// Round bookkeeping captured at selection time; `None` for the
    /// initial random batch (ticket 0), which precedes round 0.
    round_info: Option<PendingRound>,
}

/// Diagnostics and timings frozen when the batch was selected, applied
/// to the [`RoundRecord`] once the ticket completes.
struct PendingRound {
    round: usize,
    mean_wshs: f64,
    mean_fluct: f64,
    fit_ms: f64,
    eval_ms: f64,
    score_ms: f64,
    select_ms: f64,
}

/// Where the state machine stands between calls.
enum Phase {
    /// Nothing has run; the first `step` draws the initial random set.
    Created,
    /// A ticket is outstanding.
    AwaitingLabels,
    /// Labels applied; the next `step` computes round `round` (or the
    /// final fit when rounds are exhausted).
    RoundReady,
    /// Run complete.
    Done,
}

/// An interactive AL session: the staged round pipeline with the caller
/// in control of the annotate boundary. Construct via
/// [`SessionBuilder::build_session`](crate::session::SessionBuilder::build_session);
/// see the [module docs](self) for the protocol.
pub struct Session<M: Model> {
    model: M,
    samples: Vec<M::Sample>,
    revealed: Vec<Option<M::Label>>,
    /// Hidden gold labels given to `pool()` — lets simulated runs answer
    /// their own tickets ([`Session::answer_from_hidden`]).
    hidden: Vec<M::Label>,
    test_samples: Vec<M::Sample>,
    test_labels: Vec<M::Label>,
    strategy: Strategy,
    config: PoolConfig,
    rng: ChaCha8Rng,
    seed: u64,
    obs: SessionObs,
    fold: FoldHistory,
    select: Select,
    caps: EvalCaps,
    pool: Pool,
    history: HistoryStore,
    geometry: Option<Arc<PoolGeometry>>,
    ann_index: Option<LshIndex>,
    ctx: RoundCtx,
    curve: Vec<CurvePoint>,
    rounds_log: Vec<RoundRecord>,
    /// Next round to compute (= completed selection rounds).
    round: usize,
    phase: Phase,
    next_ticket: Ticket,
    pending: Option<PendingBatch<M::Label>>,
    /// Fulfilled tickets, for [`Session::snapshot`].
    fulfilled: Vec<TicketLabels<M::Label>>,
    result: Option<RunResult>,
    stop_reason: Option<StopReason>,
    config_hash: u64,
}

impl<M: Model> Session<M> {
    /// Lowering target of
    /// [`SessionBuilder::build_session`](crate::session::SessionBuilder::build_session):
    /// builds the history store and ANN index, and
    /// picks the [`FoldHistory`] and [`Select`] variants once.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        model: M,
        samples: Vec<M::Sample>,
        hidden: Vec<M::Label>,
        test_samples: Vec<M::Sample>,
        test_labels: Vec<M::Label>,
        strategy: Strategy,
        lhs: Option<Arc<LearnedSelector>>,
        config: PoolConfig,
        geometry: Option<Arc<PoolGeometry>>,
        seed: u64,
        obs: SessionObs,
    ) -> Self {
        use rand::SeedableRng;
        let n = samples.len();
        let mut history = match config.history_max_len {
            Some(cap) => HistoryStore::with_max_len(n, cap),
            None => HistoryStore::new(n),
        };
        // Rolling trackers make the per-round history fold O(1) per
        // sample; they are the only scalar fold, so a zero window (e.g.
        // HUS with k = 0) panics here. HKLD replaces the scalar fold
        // entirely.
        if strategy.hkld.is_none() {
            history = history.with_rolling(strategy.history.window());
        }
        // The pool geometry is shared read-only with every other session
        // on the same pool; a strategy without a similarity combinator
        // drops it.
        let geometry = geometry.filter(|_| strategy.needs_representations());
        // ANN index over the same rows, from its own seed stream. `ann:
        // None` skips it and every combinator runs its exact path.
        let ann_index: Option<LshIndex> = match (&config.ann, &geometry) {
            (Some(cfg), Some(geom)) => Some(LshIndex::build(geom, cfg, mix_seed(seed, 0xA11, 0))),
            _ => None,
        };
        let fold = match strategy.hkld {
            Some(k) => FoldHistory::hkld(k, n, config.history_max_len),
            None => FoldHistory::Policy(strategy.history),
        };
        // The base strategy declares its own needs; side-channel
        // consumers (HKLD reads posteriors, LHS features read entropy and
        // optionally posteriors) widen the request so the model computes
        // exactly what this run's stages will observe — and nothing more.
        let mut caps = strategy.base.caps();
        if strategy.hkld.is_some() {
            caps.probs = true;
        }
        if let Some(lhs) = &lhs {
            caps.entropy = true;
            caps.probs = caps.probs || lhs.features.use_probs;
        }
        let config_hash = session_config_hash(&strategy, lhs.is_some(), &config, seed);
        let select = if let Some(lhs) = lhs {
            Select::Lhs(lhs)
        } else if let (Some(cfg), true) = (strategy.mmr, geometry.is_some()) {
            Select::Mmr(cfg)
        } else if strategy.kcenter && geometry.is_some() {
            Select::KCenter
        } else {
            Select::TopK
        };
        Self {
            model,
            revealed: (0..n).map(|_| None).collect(),
            samples,
            hidden,
            test_samples,
            test_labels,
            strategy,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
            obs,
            fold,
            select,
            caps,
            pool: Pool::new(n),
            history,
            geometry,
            ann_index,
            ctx: RoundCtx::new(),
            curve: Vec::with_capacity(config.rounds + 1),
            rounds_log: Vec::with_capacity(config.rounds),
            config,
            round: 0,
            phase: Phase::Created,
            next_ticket: 0,
            pending: None,
            fulfilled: Vec::new(),
            result: None,
            stop_reason: None,
            config_hash,
        }
    }

    /// Fingerprint of the session configuration; stamped on snapshots.
    pub(crate) fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Advance the pipeline as far as it can go without labels: runs
    /// fit/eval/score/select for as many rounds as have labels, then
    /// either parks on a [`LabelRequest`] (see [`Session::pending`]) or
    /// finishes. Idempotent while waiting: stepping an awaiting session
    /// returns [`SessionStep::AwaitingLabels`] again without computing.
    pub fn step(&mut self) -> Result<SessionStep, Error> {
        self.step_until(&StoppingRule::none())
    }

    /// [`Session::step`] that also finishes the run as soon as `rule`
    /// fires on a freshly recorded curve point.
    fn step_until(&mut self, rule: &StoppingRule) -> Result<SessionStep, Error> {
        loop {
            match self.phase {
                Phase::AwaitingLabels => return Ok(SessionStep::AwaitingLabels),
                Phase::Done => return Ok(SessionStep::Done),
                Phase::Created => {
                    // Initial random labeled set s₀.
                    let n = self.samples.len();
                    let mut order: Vec<SampleId> = (0..n).collect();
                    order.shuffle(&mut self.rng);
                    let init = self.config.init_labeled.min(n);
                    self.issue_ticket(order[..init].to_vec(), None);
                }
                Phase::RoundReady => {
                    if self.round >= self.config.rounds {
                        // Metric after the final batch, then done.
                        self.fit_and_record();
                        let reason = rule.should_stop(&self.curve);
                        self.finish(reason.unwrap_or(StopReason::RoundsExhausted));
                    } else {
                        self.compute_round(rule)?;
                    }
                }
            }
        }
    }

    /// Compute one round up to (and including) batch selection, then
    /// park on the round's ticket — the AL round body. A round whose fit
    /// makes `rule` fire finishes the run before any eval, score or
    /// select.
    fn compute_round(&mut self, rule: &StoppingRule) -> Result<(), Error> {
        let round = self.round;
        self.ctx.begin(round);
        let _round_span = span!(
            Level::Debug,
            "al.round",
            round = round,
            n_labeled = self.pool.n_labeled(),
        );
        let fit_start = std::time::Instant::now();
        self.fit_and_record();
        self.ctx.timers.fit_ms = fit_start.elapsed().as_secs_f64() * 1e3;
        if let Some(reason) = rule.should_stop(&self.curve) {
            self.finish(reason);
            return Ok(());
        }
        if self.pool.n_unlabeled() == 0 {
            // The metric for the fully-labeled pool was just recorded, so
            // there is no final fit to run.
            self.finish(StopReason::PoolExhausted);
            return Ok(());
        }

        let eval_start = std::time::Instant::now();
        let eval_span = span!(
            Level::Debug,
            "al.eval",
            n_unlabeled = self.pool.n_unlabeled(),
        );
        eval_pool(
            &self.model,
            &self.samples,
            self.pool.unlabeled(),
            &self.caps,
            self.seed,
            round,
            &mut self.ctx.evals,
        );
        drop(eval_span);
        self.ctx.timers.eval_ms = eval_start.elapsed().as_secs_f64() * 1e3;

        let score_start = std::time::Instant::now();
        let score_span = span!(Level::Debug, "al.score");
        score_base(
            self.strategy.base,
            &self.ctx.evals,
            &mut self.rng,
            &mut self.ctx.base_scores,
        )?;
        self.fold.record(
            self.pool.unlabeled(),
            &self.ctx.base_scores,
            &self.ctx.evals,
            &mut self.history,
        );
        self.fold.fold(
            self.pool.unlabeled(),
            &self.history,
            &mut self.ctx.final_scores,
        );
        if let (Some(cfg), Some(geom)) = (&self.strategy.density, &self.geometry) {
            apply_density(
                &mut self.ctx.final_scores,
                self.pool.unlabeled(),
                geom,
                self.ann_index.as_ref().map(|i| i as &dyn NeighborIndex),
                cfg,
                &mut self.rng,
                &mut self.ctx.sim,
            );
        }
        drop(score_span);
        self.ctx.timers.score_ms = score_start.elapsed().as_secs_f64() * 1e3;

        let pick_start = std::time::Instant::now();
        let select_span = span!(Level::Debug, "al.select");
        let batch = self.config.batch_size.min(self.pool.n_unlabeled());
        let picked_positions = self.select.select(SelectCtx {
            scores: &self.ctx.final_scores,
            unlabeled: self.pool.unlabeled(),
            evals: &self.ctx.evals,
            history: &self.history,
            geometry: self.geometry.as_deref(),
            index: self.ann_index.as_ref().map(|i| i as &dyn NeighborIndex),
            batch,
            round,
            n_labeled: self.pool.n_labeled(),
            scratch: &mut self.ctx.sim,
            seq_buf: &mut self.ctx.seq_buf,
        });
        drop(select_span);
        self.ctx.timers.select_ms = pick_start.elapsed().as_secs_f64() * 1e3;

        let selected: Vec<SampleId> = picked_positions
            .iter()
            .map(|&p| self.pool.unlabeled()[p])
            .collect();
        let (mean_wshs, mean_fluct) =
            selection_diagnostics(&selected, &self.history, &mut self.ctx.seq_buf);
        let info = PendingRound {
            round,
            mean_wshs,
            mean_fluct,
            fit_ms: self.ctx.timers.fit_ms,
            eval_ms: self.ctx.timers.eval_ms,
            score_ms: self.ctx.timers.score_ms,
            select_ms: self.ctx.timers.select_ms,
        };
        self.issue_ticket(selected, Some(info));
        Ok(())
    }

    /// Park on a new ticket for `indices`.
    fn issue_ticket(&mut self, indices: Vec<SampleId>, round_info: Option<PendingRound>) {
        let request = LabelRequest {
            ticket: self.next_ticket,
            indices,
        };
        self.next_ticket += 1;
        let n = request.indices.len();
        self.pending = Some(PendingBatch {
            got: (0..n).map(|_| None).collect(),
            remaining: n,
            request,
            round_info,
        });
        self.phase = Phase::AwaitingLabels;
    }

    /// The outstanding labeling request, if the session awaits labels.
    pub fn pending(&self) -> Option<&LabelRequest> {
        self.pending.as_ref().map(|p| &p.request)
    }

    /// Answer the outstanding request from the hidden gold labels the
    /// session was built with (`pool()` construction) — the simulated
    /// annotator. `None` when nothing is pending.
    pub fn answer_from_hidden(&self) -> Option<LabelResponse<M::Label>> {
        let pending = self.pending.as_ref()?;
        let hidden = &self.hidden;
        Some(LabelResponse {
            ticket: pending.request.ticket,
            labels: pending
                .request
                .indices
                .iter()
                .map(|&id| (id, hidden[id].clone()))
                .collect(),
        })
    }

    /// Completed-run result, once [`Session::step`] returned
    /// [`SessionStep::Done`].
    pub fn result(&self) -> Option<&RunResult> {
        self.result.as_ref()
    }

    /// Why the run stopped, once done.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    /// The learning curve recorded so far.
    pub fn curve(&self) -> &[CurvePoint] {
        &self.curve
    }

    /// Cheap serializable summary (the `session-status` payload).
    pub fn status(&self) -> SessionStatus {
        SessionStatus {
            round: self.round,
            total_rounds: self.config.rounds,
            n_labeled: self.pool.n_labeled(),
            n_unlabeled: self.pool.n_unlabeled(),
            pending_ticket: self.pending.as_ref().map(|p| p.request.ticket),
            pending_remaining: self.pending.as_ref().map_or(0, |p| p.remaining),
            done: matches!(self.phase, Phase::Done),
            last_metric: self.curve.last().map(|p| p.metric),
        }
    }

    fn fit_and_record(&mut self) {
        let _fit_span = span!(Level::Debug, "al.fit", n_labeled = self.pool.n_labeled());
        let samples: Vec<&M::Sample> = self
            .pool
            .labeled()
            .iter()
            .map(|&i| &self.samples[i])
            .collect();
        let labels: Vec<&M::Label> = self
            .pool
            .labeled()
            .iter()
            .map(|&i| {
                self.revealed[i]
                    .as_ref()
                    .expect("labeled sample has a revealed label")
            })
            .collect();
        let test_s: Vec<&M::Sample> = self.test_samples.iter().collect();
        let test_l: Vec<&M::Label> = self.test_labels.iter().collect();
        let metric = fit_measure(
            &mut self.model,
            &samples,
            &labels,
            &test_s,
            &test_l,
            &mut self.rng,
        );
        self.curve.push(CurvePoint {
            n_labeled: self.pool.n_labeled(),
            metric,
        });
    }

    /// Finish the run now with the rounds completed so far — the
    /// adaptive scheduler's early-stop path. The truncated
    /// [`RunResult`] is exactly the prefix a full run would have
    /// produced (the pipeline never looks ahead), so a pruned run is
    /// journal-compatible with any later decision to extend it. No-op
    /// if the session is already done.
    pub fn finish_early(&mut self, reason: StopReason) {
        if !matches!(self.phase, Phase::Done) {
            self.finish(reason);
        }
    }

    fn finish(&mut self, reason: StopReason) {
        let strategy_name = if matches!(self.select, Select::Lhs(_)) {
            format!("LHS({})", self.strategy.base.name())
        } else {
            self.strategy.name()
        };
        let history = if self.config.record_history {
            std::mem::replace(&mut self.history, HistoryStore::new(0)).into_sequences()
        } else {
            Vec::new()
        };
        self.result = Some(RunResult {
            strategy_name,
            curve: self.curve.clone(),
            rounds: self.rounds_log.clone(),
            history,
        });
        self.stop_reason = Some(reason);
        self.phase = Phase::Done;
    }

    /// Consume the session, returning the model as last trained.
    pub(crate) fn into_model(self) -> M {
        self.model
    }

    /// Deliver labels for the outstanding ticket. At-least-once
    /// semantics: any subset of the requested ids, in any order, any
    /// number of times —
    ///
    /// * a label for a slot not yet filled is **accepted**;
    /// * a re-delivery that agrees with the established label (pending
    ///   or already applied) is counted as a **duplicate** and otherwise
    ///   ignored;
    /// * a re-delivery that *disagrees* is an [`ErrorKind::Conflict`] —
    ///   first write wins, and the conflict never reaches the pool;
    /// * a label for a sample no ticket asked about is
    ///   [`ErrorKind::NotFound`], as is a ticket that was never issued.
    ///
    /// When the last slot fills, the batch is applied in request order
    /// and the round is recorded; the *session journal side effects*
    /// (round record, metrics) happen exactly once, here. The next
    /// [`Session::step`] then computes the following round.
    ///
    /// [`ErrorKind::Conflict`]: crate::error::ErrorKind::Conflict
    /// [`ErrorKind::NotFound`]: crate::error::ErrorKind::NotFound
    pub fn submit(&mut self, response: &LabelResponse<M::Label>) -> Result<SubmitOutcome, Error> {
        if response.ticket >= self.next_ticket {
            return Err(Error::not_found("ticket", response.ticket.to_string()));
        }
        // Validate the whole chunk before touching any state, so a
        // rejected chunk leaves the session (and the caller's journal of
        // accepted labels) exactly as it was. `staged[pos]` holds the
        // labels this chunk fills, so conflicts inside the chunk are
        // caught too.
        let mut staged: Vec<Option<&M::Label>> = match &self.pending {
            Some(p) => vec![None; p.got.len()],
            None => Vec::new(),
        };
        let mut accepted = 0;
        let mut duplicates = 0;
        for (id, label) in &response.labels {
            let id = *id;
            if id >= self.samples.len() {
                return Err(Error::not_found("sample", id.to_string()));
            }
            if self.pool.is_labeled(id) {
                // The ticket that asked for this id already completed.
                match &self.revealed[id] {
                    Some(existing) if existing == label => duplicates += 1,
                    _ => {
                        return Err(Error::conflict(format!(
                            "sample {id} is already labeled with a different value"
                        )))
                    }
                }
                continue;
            }
            let pending = self
                .pending
                .as_ref()
                .ok_or_else(|| Error::not_found("sample awaiting labels", id.to_string()))?;
            if response.ticket != pending.request.ticket {
                return Err(Error::conflict(format!(
                    "ticket {} is not the pending ticket {}",
                    response.ticket, pending.request.ticket
                )));
            }
            let pos = pending
                .request
                .indices
                .iter()
                .position(|&i| i == id)
                .ok_or_else(|| Error::not_found("sample awaiting labels", id.to_string()))?;
            match pending.got[pos].as_ref().or(staged[pos]) {
                Some(existing) if existing == label => duplicates += 1,
                Some(_) => {
                    return Err(Error::conflict(format!(
                        "sample {id} was already submitted with a different label \
                         on ticket {}",
                        response.ticket
                    )))
                }
                None => {
                    staged[pos] = Some(label);
                    accepted += 1;
                }
            }
        }
        if let Some(pending) = &mut self.pending {
            for (slot, label) in pending.got.iter_mut().zip(staged) {
                if let Some(label) = label {
                    *slot = Some(label.clone());
                    pending.remaining -= 1;
                }
            }
        }
        let remaining = self.pending.as_ref().map_or(0, |p| p.remaining);
        let batch_complete = self.pending.is_some() && remaining == 0;
        if batch_complete {
            self.apply_pending()?;
        }
        Ok(SubmitOutcome {
            accepted,
            duplicates,
            remaining,
            batch_complete,
        })
    }

    /// Apply the completed pending ticket: reveal labels in request
    /// order, update the pool, record the round.
    fn apply_pending(&mut self) -> Result<(), Error> {
        let pending = self.pending.take().expect("pending batch present");
        let labels: Vec<(SampleId, M::Label)> = pending
            .request
            .indices
            .iter()
            .zip(pending.got)
            .map(|(&id, l)| (id, l.expect("complete ticket has every label")))
            .collect();
        let response = LabelResponse {
            ticket: pending.request.ticket,
            labels,
        };
        apply_response(
            &pending.request,
            &response,
            &mut self.pool,
            &mut self.revealed,
        );
        self.fulfilled.push(TicketLabels {
            ticket: response.ticket,
            labels: response.labels,
        });
        if let Some(info) = pending.round_info {
            let record = RoundRecord {
                round: info.round,
                selected: pending.request.indices,
                mean_wshs_of_selected: info.mean_wshs,
                mean_fluct_of_selected: info.mean_fluct,
                fit_ms: info.fit_ms,
                eval_ms: info.eval_ms,
                score_ms: info.score_ms,
                select_ms: info.select_ms,
            };
            self.obs.publish_round(&record)?;
            self.rounds_log.push(record);
            self.round = info.round + 1;
        }
        self.phase = Phase::RoundReady;
        Ok(())
    }

    /// The session's durable state: every fulfilled ticket plus the
    /// labels already received for the pending one. See the
    /// [module docs](self) for the replay contract.
    pub fn snapshot(&self) -> SessionSnapshot<M::Label> {
        let partial = match &self.pending {
            Some(p) => p
                .request
                .indices
                .iter()
                .zip(&p.got)
                .filter_map(|(&id, l)| l.as_ref().map(|l| (id, l.clone())))
                .collect(),
            None => Vec::new(),
        };
        SessionSnapshot {
            version: SNAPSHOT_VERSION,
            config_hash: self.config_hash,
            seed: self.seed,
            tickets: self.fulfilled.clone(),
            partial,
        }
    }

    /// Drive the session against its own hidden labels until exactly
    /// one more learning-curve point has been recorded — one
    /// fit/eval/score/select cycle — or the run completes. This is the
    /// incremental unit of the round-streamed grid executor: after `k`
    /// calls on a fresh session, [`Session::curve`] holds `k` points
    /// (the metric with `init + (k−1)·batch` labels) and the batch of
    /// round `k−1` is selected but not yet applied, byte-identical to
    /// the prefix of an uninterrupted [`Session::run_hidden`].
    ///
    /// Returns [`SessionStep::Done`] once the final fit has run (the
    /// result is then available).
    pub fn run_round_hidden(&mut self) -> Result<SessionStep, Error> {
        let target = self.curve.len() + 1;
        loop {
            let step = self.step()?;
            if step == SessionStep::Done || self.curve.len() >= target {
                return Ok(step);
            }
            self.answer_pending()?;
        }
    }

    /// Drive the session to completion against its own hidden labels —
    /// the simulated annotator as a one-call loop.
    pub fn run_hidden(&mut self) -> Result<RunResult, Error> {
        self.run_hidden_until(&StoppingRule::none())
    }

    /// [`Session::run_hidden`] that stops early once `rule` fires — the
    /// loop behind [`ActiveLearner::run_until`](crate::driver::ActiveLearner::run_until).
    pub(crate) fn run_hidden_until(&mut self, rule: &StoppingRule) -> Result<RunResult, Error> {
        let _run_span = span!(
            Level::Info,
            "al.run",
            strategy = self.strategy.name(),
            pool = self.samples.len(),
            rounds = self.config.rounds,
            batch = self.config.batch_size,
            seed = self.seed,
        );
        while self.step_until(rule)? == SessionStep::AwaitingLabels {
            self.answer_pending()?;
        }
        Ok(self.result().expect("done session has a result").clone())
    }

    /// Submit the hidden gold labels for the pending ticket.
    fn answer_pending(&mut self) -> Result<(), Error> {
        let response = self
            .answer_from_hidden()
            .expect("awaiting session has a pending request");
        self.submit(&response).map(|_| ())
    }
}

/// Deterministic fingerprint of everything that shapes a session's
/// computation: the full strategy debug rendering (disambiguates
/// hyperparameter variants, as the bench journal does), the loop config
/// JSON, the LHS marker, and the seed.
pub(crate) fn session_config_hash(
    strategy: &Strategy,
    has_lhs: bool,
    config: &PoolConfig,
    seed: u64,
) -> u64 {
    let config_json = serde_json::to_string(config).unwrap_or_default();
    fingerprint(&[
        &format!("{strategy:?}"),
        &config_json,
        if has_lhs { "lhs" } else { "no-lhs" },
        &seed.to_string(),
    ])
}
