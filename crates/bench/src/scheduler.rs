//! Grid cell execution: one epoch-stepped slot loop runs every grid.
//!
//! [`crate::executor::GridExecutor`] resolves a spec into a `GridCtx`
//! — built datasets, flattened cells, and the LHS selectors needed by
//! the slots `plan_slots` could not replay from the journal — and hands
//! it to `execute`. Every `(cell, repeat)` is a *slot*. The loop
//! advances the slots of every surviving cell to an epoch *horizon*
//! (a number of completed curve points), waits for all of them, and —
//! when the spec carries a [`crate::spec::PruneSpec`] — cuts the cells a
//! same-dataset cell dominates with [`StopReason::Pruned`]. With
//! `prune` the horizons are the decision checkpoints `k·checkpoint + 1`
//! and then the end of the run; without it the end of the run is the
//! only epoch, so an unpruned grid is a pruned grid with no decisions.
//!
//! Within an epoch the alive cells fan out across the rayon pool (a
//! plain loop under [`crate::executor::GridExecutor::serial`]) and each
//! cell fans its repeats out in turn. A cell's `wall_ms` is the elapsed
//! time of its repeat fan-out, summed over epochs. A slot builds its
//! session on its first advance and drops it as soon as the journal
//! holds its `cell` record, so an unpruned grid holds no more sessions
//! than it has slots running.
//!
//! # Determinism rules
//!
//! * Each slot's bytes depend only on its seed and configuration;
//!   which thread advances it, and when, never reaches its RNG.
//! * Decisions run on the calling thread after the epoch barrier and
//!   read **only curve points completed before it**, never a round in
//!   flight, so they are a pure function of the curves.
//! * A cell is pruned at epoch `p` iff some same-dataset cell beats it
//!   by ≥ `margin` on **every** repeat (strictly on at least one) at
//!   the epoch's curve point. The rule is order-independent and, with
//!   the strict clause, two cells can never prune each other.
//! * The prune policy joins [`crate::executor::cell_hash`], so a
//!   journal written under one policy never replays into another.
//!   Within a policy, a resumed run replays each completed slot's
//!   (possibly truncated) curve verbatim; decisions recompute from the
//!   same prefixes and land identically, byte for byte.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use histal_core::analysis::average_curves;
use histal_core::driver::{CurvePoint, PoolConfig, RunResult};
use histal_core::error::Error;
use histal_core::learned::LearnedSelector;
use histal_core::stopping::StopReason;
use histal_core::strategy::Strategy;
use histal_obs::trace::Level;
use histal_obs::{event, span};

use crate::executor::{cell_hash, seed_for};
use crate::journal::JournalCtx;
use crate::registry::ModelKind;
use crate::spec::ExperimentSpec;
use crate::tasks::{build_session, AnySession, Scale, Task};

/// One resolved dataset of a grid: the built task plus its pool config.
pub(crate) struct TaskInstance {
    pub(crate) task: Task,
    pub(crate) config: PoolConfig,
}

/// One flattened grid cell awaiting execution.
pub(crate) struct Cell {
    pub(crate) task: usize,
    pub(crate) group: usize,
    pub(crate) strategy: Strategy,
    /// Index into the trained selector list, for LHS cells.
    pub(crate) lhs: Option<usize>,
    /// Non-classic selector tag (`lal`, `meta`, `train=DS`), for the
    /// replay-guard hash; `None` keeps classic LHS hashes untouched.
    pub(crate) lhs_variant: Option<String>,
    /// Report label (spec rename, or the resolved display name).
    pub(crate) display: String,
    /// Experiment id for seeds and journal keys (entry override or the
    /// spec's).
    pub(crate) experiment: String,
}

/// One executed cell: the averaged curve plus the raw repeats.
pub struct CellOutcome {
    /// Report label of the cell.
    pub name: String,
    /// Curves averaged over repeats, `strategy_name` set to `name`.
    pub avg: RunResult,
    /// The raw per-repeat results (with round diagnostics / history).
    pub runs: Vec<RunResult>,
    /// Wall clock of the cell's repeat fan-outs, summed over epochs,
    /// for BENCH.
    pub wall_ms: f64,
}

/// Everything a cell needs to run, resolved once per grid by the
/// executor and shared (read-only) by every slot.
pub(crate) struct GridCtx<'a> {
    pub(crate) spec: &'a ExperimentSpec,
    pub(crate) scale: Scale,
    pub(crate) journal: Option<&'a JournalCtx>,
    pub(crate) model: ModelKind,
    pub(crate) instances: Vec<TaskInstance>,
    /// Trained selectors by plan index; a plan no pending slot needs
    /// stays untrained.
    pub(crate) selectors: Vec<Option<Arc<LearnedSelector>>>,
    pub(crate) cells: Vec<Cell>,
}

/// What pruning did to the grid, for reports and BENCH.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveSummary {
    /// Cell-rounds (recorded curve points) an exhaustive run would
    /// execute: `slots × (rounds + 1)`.
    pub scheduled_cell_rounds: usize,
    /// Cell-rounds actually recorded across all slots.
    pub completed_cell_rounds: usize,
    /// Cells cut short by the pruning rule.
    pub pruned_cells: usize,
}

impl AdaptiveSummary {
    /// Cell-rounds the pruning rule avoided.
    pub fn saved_cell_rounds(&self) -> usize {
        self.scheduled_cell_rounds
            .saturating_sub(self.completed_cell_rounds)
    }
}

/// Where one `(cell, repeat)` slot stands.
#[allow(clippy::large_enum_variant)] // one per slot, never moved in bulk
enum SlotState {
    /// Not advanced yet: no session built.
    Pending,
    /// A live round-streamed session.
    Live(AnySession),
    /// Finished (run out, pruned, or replayed from the journal); the
    /// journal holds its record and the session is gone.
    Done(RunResult),
}

/// One `(cell, repeat)` execution slot.
pub(crate) struct Slot {
    cell: usize,
    key: String,
    seed: u64,
    hash: u64,
    state: SlotState,
}

impl Slot {
    /// The slot's cell while it still has to run; `None` once the journal
    /// has supplied its record.
    pub(crate) fn pending_cell(&self) -> Option<usize> {
        matches!(self.state, SlotState::Pending).then_some(self.cell)
    }

    /// The curve points completed so far.
    fn curve(&self) -> &[CurvePoint] {
        match &self.state {
            SlotState::Pending => &[],
            SlotState::Live(run) => run.curve(),
            SlotState::Done(r) => &r.curve,
        }
    }

    /// Advance to `horizon` completed points or natural completion,
    /// whichever comes first. The first advance of a pending slot builds
    /// its session.
    fn advance(&mut self, ctx: &GridCtx<'_>, horizon: usize) -> Result<(), Error> {
        if let SlotState::Pending = self.state {
            let cell = &ctx.cells[self.cell];
            let inst = &ctx.instances[cell.task];
            let selector = cell.lhs.map(|i| {
                ctx.selectors[i]
                    .clone()
                    .expect("a pending slot's selector was trained")
            });
            let journal = ctx
                .journal
                .map(|j| j.run_journal(&self.key, self.hash, self.seed));
            self.state = SlotState::Live(build_session(
                &inst.task,
                ctx.model,
                cell.strategy.clone(),
                &inst.config,
                self.seed,
                selector,
                journal,
                None,
            ));
        }
        let SlotState::Live(run) = &mut self.state else {
            return Ok(());
        };
        if run.curve().len() >= horizon {
            return Ok(());
        }
        let _span = span!(
            Level::Debug,
            "harness.cell",
            cell = self.key.clone(),
            seed = self.seed
        );
        let mut done = false;
        while !done && run.curve().len() < horizon {
            done = run.advance_round()?;
        }
        if done {
            self.finish(ctx, StopReason::RoundsExhausted)?;
        }
        Ok(())
    }

    /// Close a live session with `reason`, write its journal record and
    /// drop it — a pruned result is an exact prefix of the full run.
    fn finish(&mut self, ctx: &GridCtx<'_>, reason: StopReason) -> Result<(), Error> {
        if let SlotState::Live(run) = &mut self.state {
            let result = run.finish(reason);
            if let Some(j) = ctx.journal {
                j.try_complete(&self.key, self.hash, self.seed, &result)?;
            }
            self.state = SlotState::Done(result);
        }
        Ok(())
    }
}

/// A slot's lock is poisoned only when its advance panicked, and that
/// panic has already unwound out of the epoch's fan-out.
const POISONED: &str = "a slot's advance panicked and was re-raised";

/// Lay out the grid's slots, cell-major, then repeat. Seeds and journal
/// keys derive only from `(experiment, dataset, strategy, repeat)`, per
/// the determinism contract; the replay-guard hash is everything else
/// that determines a cell's bytes (see [`cell_hash`]). A slot whose
/// record the journal holds under the same key and hash starts done,
/// with that record; every other slot starts pending. Reads neither
/// `ctx.selectors` nor any RNG, so it can run before selector training.
pub(crate) fn plan_slots(ctx: &GridCtx<'_>) -> Vec<Slot> {
    let repeats = ctx.scale.repeats;
    let mut slots: Vec<Slot> = Vec::with_capacity(ctx.cells.len() * repeats);
    for (c, cell) in ctx.cells.iter().enumerate() {
        let inst = &ctx.instances[cell.task];
        let beam = match &inst.task {
            Task::Ner(task) => task.score_beam,
            Task::Text(_) => None,
        };
        // A token's `?noise=`/`?priors=` modifiers change the corpus but
        // not its generated name, so they join the hashed dataset — only
        // when set, so unmodified datasets keep their journal hashes.
        let dataset = match ctx.spec.datasets[cell.task].dataset.split_once('?') {
            Some((_, modifiers)) => format!("{}?{}", inst.task.name(), modifiers.trim()),
            None => inst.task.name().to_string(),
        };
        let hash = cell_hash(
            &cell.experiment,
            &dataset,
            &cell.strategy,
            &inst.config,
            &ctx.scale,
            cell.lhs.is_some(),
            cell.lhs_variant.as_deref(),
            beam,
            ctx.spec.budget.as_ref(),
            ctx.spec.prune.as_ref(),
        );
        let strategy = cell.strategy.name();
        for r in 0..repeats {
            let key = format!("{}/{}/{strategy}/r{r}", cell.experiment, inst.task.name());
            let state = match ctx.journal.and_then(|j| j.cached(&key, hash)) {
                Some(cached) => {
                    event!(Level::Info, "journal.replay", cell = key.clone());
                    SlotState::Done(cached.clone())
                }
                None => SlotState::Pending,
            };
            slots.push(Slot {
                cell: c,
                seed: seed_for(&cell.experiment, inst.task.name(), &strategy, r),
                key,
                hash,
                state,
            });
        }
    }
    slots
}

/// Run the grid's `slots` (from [`plan_slots`]) through the epoch loop.
/// Returns the cell outcomes in flattened cell order, plus the pruning
/// summary when the spec sets `prune`. The first failing slot, in slot
/// order, aborts the grid with an error naming its cell key.
pub(crate) fn execute(
    ctx: &GridCtx<'_>,
    slots: Vec<Slot>,
    serial: bool,
) -> Result<(Vec<CellOutcome>, Option<AdaptiveSummary>), Error> {
    let repeats = ctx.scale.repeats;
    let n_cells = ctx.cells.len();

    // Total curve points of each cell's runs (rounds + the initial
    // point). Uniform within a dataset; datasets may differ.
    let totals: Vec<usize> = ctx
        .cells
        .iter()
        .map(|cell| ctx.instances[cell.task].config.rounds + 1)
        .collect();

    // Each slot sits behind its own lock so a cell's repeat fan-out can
    // advance them in place.
    let mut slots: Vec<Mutex<Slot>> = slots.into_iter().map(Mutex::new).collect();

    let mut alive: Vec<bool> = vec![true; n_cells];
    let mut walls: Vec<f64> = vec![0.0; n_cells];
    let mut pruned_cells = 0usize;

    // Decision epochs: every checkpoint short of the longest run.
    let checkpoints: Vec<usize> = match &ctx.spec.prune {
        Some(prune) => {
            let max_total = totals.iter().copied().max().unwrap_or(0);
            (1..)
                .map(|k| k * prune.checkpoint_rounds() + 1)
                .take_while(|&p| p < max_total)
                .collect()
        }
        None => Vec::new(),
    };
    let margin = ctx.spec.prune.as_ref().map_or(0.0, |p| p.margin_value());
    for &p in &checkpoints {
        advance_epoch(ctx, &slots, &alive, p, serial, &mut walls)?;
        // Snapshot each slot's point `p - 1` after the barrier, then
        // decide from it — the rule is order-independent, so computing
        // the doomed set before applying it keeps resume byte-identical.
        let snapshot: Vec<Option<f64>> = slots
            .iter_mut()
            .map(|s| {
                s.get_mut()
                    .expect(POISONED)
                    .curve()
                    .get(p - 1)
                    .map(|pt| pt.metric)
            })
            .collect();
        let metric = |c: usize| -> Option<Vec<f64>> {
            snapshot[c * repeats..(c + 1) * repeats]
                .iter()
                .copied()
                .collect()
        };
        let survivors: Vec<usize> = (0..n_cells).filter(|&c| alive[c]).collect();
        let mut doomed: Vec<usize> = Vec::new();
        for &a in &survivors {
            if totals[a] <= p {
                continue; // already complete — nothing left to save
            }
            let Some(ma) = metric(a) else {
                continue;
            };
            let dominated = survivors.iter().any(|&b| {
                if b == a || ctx.cells[b].task != ctx.cells[a].task {
                    return false;
                }
                let Some(mb) = metric(b) else {
                    return false;
                };
                let all = ma.iter().zip(&mb).all(|(a, b)| *b >= *a + margin);
                let strict = ma.iter().zip(&mb).any(|(a, b)| *b > *a + margin);
                all && strict
            });
            if dominated {
                doomed.push(a);
            }
        }
        for c in doomed {
            for slot in &mut slots[c * repeats..(c + 1) * repeats] {
                slot.get_mut()
                    .expect(POISONED)
                    .finish(ctx, StopReason::Pruned)?;
            }
            alive[c] = false;
            pruned_cells += 1;
        }
    }
    // The last epoch: run every survivor to its end.
    advance_epoch(ctx, &slots, &alive, usize::MAX, serial, &mut walls)?;

    let slots: Vec<Slot> = slots
        .into_iter()
        .map(|s| s.into_inner().expect(POISONED))
        .collect();
    let adaptive = ctx.spec.prune.as_ref().map(|_| AdaptiveSummary {
        scheduled_cell_rounds: totals.iter().sum::<usize>() * repeats,
        completed_cell_rounds: slots.iter().map(|s| s.curve().len()).sum(),
        pruned_cells,
    });

    // Fold the slots back into per-cell outcomes, repeat order.
    let mut slots = slots.into_iter();
    let mut outcomes: Vec<CellOutcome> = Vec::with_capacity(n_cells);
    for (c, cell) in ctx.cells.iter().enumerate() {
        let runs: Vec<RunResult> = slots
            .by_ref()
            .take(repeats)
            .map(|s| match s.state {
                SlotState::Done(r) => r,
                SlotState::Pending | SlotState::Live(_) => {
                    unreachable!("slot left unfinished after the last epoch")
                }
            })
            .collect();
        let mut avg = average_curves(&runs);
        avg.strategy_name = cell.display.clone();
        outcomes.push(CellOutcome {
            name: cell.display.clone(),
            avg,
            runs,
            wall_ms: walls[c],
        });
    }
    if let Some(summary) = &adaptive {
        eprintln!(
            "# adaptive: pruned {}/{} cells, saved {}/{} cell-rounds",
            summary.pruned_cells,
            n_cells,
            summary.saved_cell_rounds(),
            summary.scheduled_cell_rounds
        );
    }
    Ok((outcomes, adaptive))
}

/// Bring every slot of every alive cell to `horizon` completed points
/// (`usize::MAX`: to the end of its run). Cells fan out across the pool
/// unless `serial`, and each cell fans its repeats out; the call returns
/// once all of them have — the epoch barrier. Each advanced cell's
/// fan-out time is added to `walls`.
fn advance_epoch(
    ctx: &GridCtx<'_>,
    slots: &[Mutex<Slot>],
    alive: &[bool],
    horizon: usize,
    serial: bool,
    walls: &mut [f64],
) -> Result<(), Error> {
    let repeats = ctx.scale.repeats;
    let cells: Vec<usize> = (0..alive.len()).filter(|&c| alive[c]).collect();
    let advance_cell = |i: usize| {
        let c = cells[i];
        let start = Instant::now();
        let results = rayon::run_indexed(repeats, |r| {
            // Each index locks a different slot: the lock is never
            // contended.
            let mut slot = slots[c * repeats + r].lock().expect(POISONED);
            slot.advance(ctx, horizon)
                .map_err(|e| e.in_cell(slot.key.clone()))
        });
        (start.elapsed().as_secs_f64() * 1e3, results)
    };
    let advanced: Vec<(f64, Vec<Result<(), Error>>)> = if serial {
        (0..cells.len()).map(advance_cell).collect()
    } else {
        rayon::run_indexed(cells.len(), advance_cell)
    };
    let mut errors = Vec::new();
    for (&c, (ms, results)) in cells.iter().zip(advanced) {
        walls[c] += ms;
        errors.extend(results.into_iter().filter_map(Result::err));
    }
    errors.into_iter().next().map_or(Ok(()), Err)
}
