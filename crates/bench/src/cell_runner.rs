//! Cell-runner layer of the grid engine: everything about executing
//! *one* resolved grid cell, shared by the classic run-to-completion
//! path ([`run_classic`]) and the round-streamed adaptive scheduler
//! ([`crate::scheduler`]). Both drive the session `stream_repeat`
//! builds.
//!
//! [`crate::executor::GridExecutor`] resolves a spec into a [`GridCtx`]
//! — built datasets, trained LHS selectors, flattened cells — and then
//! dispatches: specs without a `prune` policy fan [`run_classic`] out
//! across the rayon pool exactly as the pre-split executor did (the
//! byte-identity contract), specs with one hand the whole context to
//! the scheduler, which drives [`stream_repeat`] sessions round by
//! round.

use std::time::Instant;

use histal_core::analysis::average_curves;
use histal_core::driver::{PoolConfig, RunResult};
use histal_core::error::Error;
use histal_core::lhs::LhsSelector;
use histal_core::session::RunJournal;
use histal_core::strategy::Strategy;
use histal_obs::span;
use histal_obs::trace::Level;

use crate::executor::{cell_hash, seed_for};
use crate::journal::{try_run_cell_opt, JournalCtx};
use crate::spec::ExperimentSpec;
use crate::tasks::{with_extras, NerTask, Scale, StreamRun, TextModel, TextTask};

/// One resolved dataset of a grid: the built task plus its pool config.
pub(crate) enum TaskInstance {
    Text {
        task: TextTask,
        config: PoolConfig,
        /// Multiclass dataset — LHS entries are skipped (the ranker is
        /// trained on binary Subj; §5.4 applies it to binary tasks).
        trec_like: bool,
    },
    Ner {
        task: NerTask,
        config: PoolConfig,
    },
}

impl TaskInstance {
    pub(crate) fn name(&self) -> &str {
        match self {
            Self::Text { task, .. } => &task.name,
            Self::Ner { task, .. } => &task.name,
        }
    }

    pub(crate) fn config(&self) -> &PoolConfig {
        match self {
            Self::Text { config, .. } => config,
            Self::Ner { config, .. } => config,
        }
    }
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
    /// End-to-end wall clock of the cell (all repeats), for BENCH.
    pub wall_ms: f64,
}

/// Everything a cell needs to run, resolved once per grid by the
/// executor and shared (read-only) by both execution paths.
pub(crate) struct GridCtx<'a> {
    pub(crate) spec: &'a ExperimentSpec,
    pub(crate) scale: Scale,
    pub(crate) journal: Option<&'a JournalCtx>,
    pub(crate) model: TextModel,
    pub(crate) representations: bool,
    pub(crate) instances: Vec<TaskInstance>,
    pub(crate) selectors: Vec<LhsSelector>,
    pub(crate) cells: Vec<Cell>,
}

impl GridCtx<'_> {
    /// The replay-guard hash of cell `c` — everything that determines
    /// its bytes besides the seed (see [`cell_hash`]).
    pub(crate) fn hash(&self, c: usize) -> u64 {
        let cell = &self.cells[c];
        let inst = &self.instances[cell.task];
        let beam = match inst {
            TaskInstance::Ner { task, .. } => task.score_beam,
            TaskInstance::Text { .. } => None,
        };
        cell_hash(
            &cell.experiment,
            inst.name(),
            &cell.strategy,
            inst.config(),
            &self.scale,
            cell.lhs.is_some(),
            cell.lhs_variant.as_deref(),
            beam,
            self.spec.budget.as_ref(),
            self.spec.prune.as_ref(),
        )
    }

    /// The journal key of `(cell c, repeat r)`.
    pub(crate) fn key(&self, c: usize, r: usize) -> String {
        let cell = &self.cells[c];
        let name = cell.strategy.name();
        format!(
            "{}/{}/{name}/r{r}",
            cell.experiment,
            self.instances[cell.task].name()
        )
    }

    /// The seed of `(cell c, repeat r)` — derived only from
    /// `(experiment, dataset, strategy, repeat)` per the determinism
    /// contract.
    pub(crate) fn seed(&self, c: usize, r: usize) -> u64 {
        let cell = &self.cells[c];
        seed_for(
            &cell.experiment,
            self.instances[cell.task].name(),
            &cell.strategy.name(),
            r,
        )
    }
}

/// Build the session for one repeat of one cell. The classic path
/// drives it to the end ([`run_classic`]); the scheduler advances it
/// round by round.
pub(crate) fn stream_repeat(
    ctx: &GridCtx<'_>,
    c: usize,
    seed: u64,
    journal: Option<RunJournal>,
) -> StreamRun {
    let cell = &ctx.cells[c];
    let strategy = cell.strategy.clone();
    match &ctx.instances[cell.task] {
        TaskInstance::Text { task, config, .. } => {
            // Specs reject learned selectors alongside representations.
            let lhs = cell.lhs.map(|i| ctx.selectors[i].clone());
            match ctx.model {
                // Representation grids always train the logistic model.
                TextModel::NaiveBayes if !ctx.representations => {
                    let builder = task.builder(task.naive_bayes(), strategy, config, seed);
                    StreamRun::Nb(with_extras(builder, lhs, journal).build_session())
                }
                _ => {
                    let mut builder = task.builder(task.model(0), strategy, config, seed);
                    if ctx.representations {
                        builder = builder.representations(task.representations());
                    }
                    StreamRun::Text(with_extras(builder, lhs, journal).build_session())
                }
            }
        }
        TaskInstance::Ner { task, config } => {
            let builder = task.builder(task.model(), strategy, config, seed);
            StreamRun::Ner(with_extras(builder, None, journal).build_session())
        }
    }
}

/// Execute cell `c` run-to-completion: fan the repeats out, journal
/// each, average the curves. Specs without a prune policy take this
/// path.
pub(crate) fn run_classic(ctx: &GridCtx<'_>, c: usize) -> Result<CellOutcome, Error> {
    let cell = &ctx.cells[c];
    let start = Instant::now();
    let hash = ctx.hash(c);
    let runs: Vec<Result<RunResult, Error>> = rayon::run_indexed(ctx.scale.repeats, |r| {
        let seed = ctx.seed(c, r);
        let key = ctx.key(c, r);
        let _span = span!(
            Level::Debug,
            "harness.cell",
            cell = key.clone(),
            seed = seed
        );
        try_run_cell_opt(ctx.journal, &key, hash, seed, |j| {
            stream_repeat(ctx, c, seed, j).run_to_end()
        })
        .map_err(|e| e.in_cell(&key))
    });
    let runs: Vec<RunResult> = runs.into_iter().collect::<Result<_, _>>()?;
    let mut avg = average_curves(&runs);
    avg.strategy_name = cell.display.clone();
    Ok(CellOutcome {
        name: cell.display.clone(),
        avg,
        runs,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}
