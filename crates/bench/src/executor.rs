//! Generic grid executor behind the declarative experiment engine.
//!
//! [`GridExecutor`] turns an [`ExperimentSpec`] into results: it
//! resolves datasets/strategies through [`crate::registry`], flattens
//! the `(dataset × group × strategy)` grid into a `scheduler::GridCtx`,
//! lays out its slots (replaying what the journal holds), trains the LHS
//! selectors the remaining slots need (deduplicated by training plan),
//! and runs it through the one epoch-stepped slot loop,
//! `scheduler::execute`: cells fan out across the rayon pool,
//! each cell fans its repeats out, and a spec with a `prune` policy
//! stops at decision epochs where the successive-halving rule cuts
//! dominated cells short.
//!
//! Outcomes are grouped back into report blocks in spec order.
//! `render_spec` then prints the blocks according to the spec's
//! [`ReportKind`] and produces the JSON payload `write_rendered`
//! persists.
//!
//! # Determinism contract (journal-key compatibility)
//!
//! Seeds and journal cell keys are derived **only** from
//! `(experiment, dataset, strategy, repeat)` — [`seed_for`] via FNV-1a,
//! cell keys as `{experiment}/{dataset}/{strategy}/r{repeat}`, and the
//! replay guard via `cell_hash`. `dataset` is always the *generated*
//! corpus name (`task.name`, e.g. `MR`) and `strategy` the resolved
//! strategy's canonical `Strategy::name()` — never a spec `rename`, and
//! for `LHS(...)` tokens the *base* strategy's name. Display renames
//! therefore never move a cell's RNG stream or its journal key, which is
//! what keeps spec-driven runs byte-identical to the historical
//! hand-coded grids and lets pre-refactor journals resume under the
//! engine. Do not fold new inputs into these derivations.

use std::sync::Arc;

use histal_core::analysis::{area_under_curve, selection_stats};
use histal_core::driver::{CurvePoint, PoolConfig, RunResult};
use histal_core::error::Error;
use histal_core::learned::{train_learned, LearnedSelector, LearnedTrainerConfig, TargetKind};
use histal_core::session::fingerprint;
use histal_core::stats::{paired_bootstrap_ci, paired_permutation, PairedComparison};
use histal_core::strategy::Strategy;
use histal_data::TextSpec;
use histal_obs::span;
use histal_obs::trace::Level;

use crate::journal::JournalCtx;
use crate::registry::{self, LhsPlan, Metric, TaskKind};
use crate::report::{print_curves, print_table, write_json};
pub(crate) use crate::scheduler::CellOutcome;
use crate::scheduler::{self, AdaptiveSummary, Cell, GridCtx, Slot, TaskInstance};
use crate::spec::{
    check_repeats, render_template, BudgetSpec, ExperimentSpec, PruneSpec, ReportKind,
    SignificanceSpec,
};
use crate::tasks::{Scale, Task, TextTask};

/// Pool configuration for a text dataset: the paper samples 20 batches of
/// 25 (MR, SST-2) or 100 (TREC), the first batch random.
pub fn text_pool_config(trec_like: bool, scale: &Scale) -> PoolConfig {
    let batch = if trec_like { 100 } else { 25 };
    PoolConfig {
        batch_size: batch,
        rounds: rounds_for(scale),
        init_labeled: batch,
        record_history: false,
        ann: None,
    }
}

/// NER pool configuration: batch 100 up to 2 000 annotated sentences.
pub fn ner_pool_config(scale: &Scale) -> PoolConfig {
    PoolConfig {
        batch_size: 100,
        rounds: rounds_for(scale),
        init_labeled: 100,
        record_history: false,
        ann: None,
    }
}

/// 19 selection rounds at full scale (init batch + 19 batches = the
/// paper's 20 sampling rounds); scaled down for quick runs.
pub(crate) fn rounds_for(scale: &Scale) -> usize {
    ((19.0 * scale.factor).round() as usize).clamp(5, 19)
}

/// Per-repeat seed derivation (FNV-1a over
/// `experiment ‖ dataset ‖ strategy ‖ repeat`). Part of the determinism
/// contract — see the module docs before changing anything here.
pub fn seed_for(experiment: &str, dataset: &str, strategy: &str, repeat: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in experiment
        .bytes()
        .chain(dataset.bytes())
        .chain(strategy.bytes())
        .chain([repeat as u8])
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of everything that determines a grid cell's output besides the
/// seed. A resumed journal only replays a cell when this matches, so a
/// journal written at one scale or pool config is never mixed into a run
/// at another. The strategy goes in via its full `Debug` form, not its
/// display name — variants that share a name but differ in
/// hyper-parameters (fig5's WSHS window sweep) must hash apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cell_hash(
    experiment: &str,
    dataset: &str,
    strategy: &Strategy,
    config: &PoolConfig,
    scale: &Scale,
    lhs: bool,
    lhs_variant: Option<&str>,
    ner_beam: Option<f64>,
    budget: Option<&BudgetSpec>,
    prune: Option<&PruneSpec>,
) -> u64 {
    // The beam width is part of the hash because pruned scoring changes
    // cell bytes: a journal written exact must never replay into a
    // beamed grid or vice versa. Exact cells omit the component so they
    // hash identically to journals written before the beam existed.
    let strategy_dbg = format!("{strategy:?}");
    let pool = format!(
        "batch={} rounds={} init={}",
        config.batch_size, config.rounds, config.init_labeled
    );
    let scale_s = format!("factor={} repeats={}", scale.factor, scale.repeats);
    let lhs_s = if lhs { "lhs" } else { "no-lhs" };
    let mut parts: Vec<&str> = vec![experiment, dataset, &strategy_dbg, &pool, &scale_s, lhs_s];
    // Non-classic selector configurations (LAL targets, meta-features,
    // train= overrides) change cell bytes, so the variant tag joins the
    // hash — but only when set: classic LHS cells keep hashing
    // identically to journals written before the variants existed.
    let variant_s;
    if let Some(v) = lhs_variant {
        variant_s = format!("selector={v}");
        parts.push(&variant_s);
    }
    let beam;
    if let Some(b) = ner_beam {
        beam = format!("beam={b}");
        parts.push(&beam);
    }
    // Same rule for ANN: approximate neighbor sets change cell bytes, so
    // the component joins the hash only when set — exact (`ann=off`)
    // cells keep hashing identically to journals written before the
    // index existed, which is what lets them resume unchanged.
    let ann;
    if let Some(a) = &config.ann {
        ann = format!("ann=t{}b{}p{}", a.tables, a.bits, a.probes);
        parts.push(&ann);
    }
    // Budget and prune policies change cell bytes (fewer rounds,
    // truncated curves), so they join the hash — but, like beam/ann,
    // only when set: specs without them keep hashing identically to
    // journals written before the policies existed.
    let budget_s;
    if let Some(b) = budget {
        budget_s = format!(
            "budget=c{}m{}",
            b.cost_per_label.unwrap_or(1.0),
            b.max_cost.unwrap_or(f64::INFINITY)
        );
        parts.push(&budget_s);
    }
    let prune_s;
    if let Some(p) = prune {
        prune_s = format!("prune=c{}m{}", p.checkpoint_rounds(), p.margin_value());
        parts.push(&prune_s);
    }
    fingerprint(&parts)
}

/// The learned-trainer configuration a spec-level plan lowers into:
/// the historical Subj-analogue protocol's simulation parameters, with
/// the plan's feature/predictor/ranker/target choices on top.
fn learned_config(plan: &LhsPlan) -> LearnedTrainerConfig {
    LearnedTrainerConfig {
        base: plan.base,
        features: plan.features,
        predictor: plan.predictor.clone(),
        ranker: plan.ranker.clone(),
        target: plan.target,
        use_meta: plan.use_meta,
        ..Default::default()
    }
}

/// The `(experiment, dataset)` pair a plan's training seed derives from.
/// Classic pairwise plans keep the historical `("lhs-train", "subj")`
/// stream byte-for-byte; pointwise (LAL) plans get their own experiment
/// id, and `train=DATASET` swaps the dataset component.
fn train_seed_parts(plan: &LhsPlan) -> (&'static str, &str) {
    let experiment = match plan.target {
        TargetKind::Pairwise => "lhs-train",
        TargetKind::Pointwise => "lal-train",
    };
    (experiment, plan.train.as_deref().unwrap_or("subj"))
}

/// Train the learned selector per a spec-level training plan — §4.4's
/// protocol: "train a ranker on an applicable labeled dataset and apply
/// it on other unlabeled datasets of the same task". The training corpus
/// defaults to the Subj analogue; `train=DATASET` substitutes any text
/// dataset (the transfer grid's rows). Training failures propagate as
/// structured errors. The selector comes back shared, ready for
/// `SessionBuilder::lhs`; the `selector-train` CLI saves the same value
/// as an `HLRN1` file.
pub fn train_lhs_plan(plan: &LhsPlan, scale: &Scale) -> Result<Arc<LearnedSelector>, Error> {
    let (experiment, train_name) = train_seed_parts(plan);
    let tspec = match &plan.train {
        None => TextSpec::subj(),
        Some(name) => TextSpec::by_name(name)
            .ok_or_else(|| Error::spec(format!("unknown selector training dataset `{name}`")))?,
    };
    let corpus = TextTask::build(&tspec, scale, 0x53_42);
    train_learned(
        &corpus.classifier_for(plan.base),
        &corpus.pool_docs,
        &corpus.pool_labels,
        &corpus.test_docs,
        &corpus.test_labels,
        &learned_config(plan),
        seed_for(experiment, train_name, plan.base.name(), 0),
    )
    .map(Arc::new)
}

/// One report block: the cells of one `(dataset × group)` pair.
pub struct Block {
    /// Dataset display label (spec rename, or the generated corpus name).
    pub dataset: String,
    /// Group label (for `{label}` templates).
    pub label: String,
    /// The block's pool configuration (budget, checkpoint maths).
    pub config: PoolConfig,
    /// Executed cells in spec order.
    pub cells: Vec<CellOutcome>,
}

impl Block {
    /// Total label budget of the block's cells (annotations consumed by
    /// a full run: the seed set plus every selection batch).
    pub(crate) fn label_budget(&self) -> usize {
        self.config.init_labeled + self.config.batch_size * self.config.rounds
    }
}

/// The executed grid, grouped into report blocks in spec order.
pub struct GridOutcome {
    /// One block per `(dataset × group)` pair that produced cells.
    pub blocks: Vec<Block>,
    /// Pruning summary, `Some` exactly when the spec sets `prune`.
    pub adaptive: Option<AdaptiveSummary>,
    /// Wall clock of each *fresh* selector training this grid performed,
    /// as `(plan label, ms)` in training order. Deduplicated plans
    /// appear once; grids without learned selectors leave it empty.
    pub selector_train_ms: Vec<(String, f64)>,
}

/// Executes one [`ExperimentSpec`] deterministically.
pub struct GridExecutor<'a> {
    spec: &'a ExperimentSpec,
    scale: Scale,
    journal: Option<&'a JournalCtx>,
    serial: bool,
}

impl<'a> GridExecutor<'a> {
    /// Build an executor; `cli_scale` supplies whatever the spec's
    /// `scale` section leaves unset (spec fields win, so a spec can pin
    /// e.g. `repeats: 1` regardless of the command line).
    pub fn new(spec: &'a ExperimentSpec, cli_scale: &Scale) -> Self {
        let mut scale = *cli_scale;
        if let Some(s) = &spec.scale {
            if let Some(f) = s.factor {
                scale.factor = f;
            }
            if let Some(r) = s.repeats {
                scale.repeats = r;
            }
        }
        Self {
            spec,
            scale,
            journal: None,
            serial: false,
        }
    }

    /// Attach a journal context: every `(cell, repeat)` is checkpointed
    /// and previously completed cells replay instead of re-running.
    pub fn journal(mut self, journal: Option<&'a JournalCtx>) -> Self {
        self.journal = journal;
        self
    }

    /// Run cells one at a time instead of fanning them out — for BENCH,
    /// where each cell's wall clock must be unpolluted by its
    /// neighbours. Repeats still fan out inside the cell.
    pub(crate) fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    fn apply_pool(&self, mut config: PoolConfig) -> PoolConfig {
        if let Some(p) = &self.spec.pool {
            if let Some(b) = p.batch_size {
                config.batch_size = b;
            }
            if let Some(r) = p.rounds {
                config.rounds = r;
            }
            if let Some(i) = p.init_labeled {
                config.init_labeled = i;
            }
            if p.record_history {
                config.record_history = true;
            }
        }
        if let Some(a) = &self.spec.ann {
            config.ann = Some(a.to_config());
        }
        // An annotation budget lowers the round count to what the spec
        // can afford — a shorter run is an exact RNG prefix of the full
        // one, so this composes with journaling and the scheduler.
        if let Some(b) = &self.spec.budget {
            config.rounds = config
                .rounds
                .min(b.affordable_rounds(config.init_labeled, config.batch_size));
        }
        if self.spec.report == ReportKind::TrendCensus {
            config.record_history = true;
        }
        config
    }

    /// Execute the grid. Validates the spec, builds every dataset,
    /// trains the (deduplicated) LHS selectors the journal cannot replay,
    /// then runs all cells.
    /// The first failing cell aborts the grid with an error naming its
    /// cell key.
    pub fn execute(&self) -> Result<GridOutcome, Error> {
        let spec = self.spec;
        spec.validate()?;
        // `--repeats` reaches the merged scale without passing through
        // `validate`, so the bound is checked again here.
        check_repeats("repeats", self.scale.repeats)?;
        let _span = span!(Level::Info, "harness.experiment", name = spec.name.clone());

        // Datasets → built tasks with per-kind pool configs.
        let mut instances: Vec<TaskInstance> = Vec::new();
        let mut kind = TaskKind::Text;
        for d in &spec.datasets {
            let def = registry::parse_dataset(&d.dataset)?;
            kind = def.kind();
            let mut task = Task::build(&def, &self.scale, spec.split_seed);
            let config = match &mut task {
                Task::Text(t) => text_pool_config(t.n_classes > 2, &self.scale),
                Task::Ner(t) => {
                    t.score_beam = spec.ner_beam;
                    ner_pool_config(&self.scale)
                }
            };
            let config = self.apply_pool(config);
            instances.push(TaskInstance { task, config });
        }
        let model = registry::parse_model(spec.model.as_deref(), kind)?;

        // Strategies: resolve every entry once and number each distinct
        // LHS plan; training waits until the journal has been consulted.
        let mut resolved: Vec<Vec<(registry::ResolvedStrategy, Option<usize>)>> = Vec::new();
        let mut plans: Vec<LhsPlan> = Vec::new();
        for group in &spec.groups {
            let mut row = Vec::new();
            for entry in &group.strategies {
                let r = registry::parse_strategy(&entry.strategy)?;
                let lhs = r.lhs.as_ref().map(|plan| {
                    let key = plan.cache_key();
                    plans
                        .iter()
                        .position(|p| p.cache_key() == key)
                        .unwrap_or_else(|| {
                            plans.push(plan.clone());
                            plans.len() - 1
                        })
                });
                row.push((r, lhs));
            }
            resolved.push(row);
        }

        // Flatten the grid, dataset-major, skipping LHS cells on
        // multiclass text datasets (the selector is trained on binary
        // Subj — matches the historical fig3 grid).
        let mut cells: Vec<Cell> = Vec::new();
        for (ti, inst) in instances.iter().enumerate() {
            let multiclass = matches!(&inst.task, Task::Text(t) if t.n_classes > 2);
            for (gi, group) in spec.groups.iter().enumerate() {
                for (ei, entry) in group.strategies.iter().enumerate() {
                    let (r, lhs) = &resolved[gi][ei];
                    if lhs.is_some() && multiclass {
                        continue;
                    }
                    cells.push(Cell {
                        task: ti,
                        group: gi,
                        strategy: r.strategy.clone(),
                        lhs: *lhs,
                        lhs_variant: r.lhs.as_ref().and_then(|p| p.variant()),
                        display: entry.rename.clone().unwrap_or_else(|| r.display_name()),
                        experiment: entry
                            .experiment
                            .clone()
                            .unwrap_or_else(|| spec.experiment_id().to_string()),
                    });
                }
            }
        }

        let mut ctx = GridCtx {
            spec,
            scale: self.scale,
            journal: self.journal,
            model,
            instances,
            selectors: vec![None; plans.len()],
            cells,
        };

        // Train each distinct LHS plan that some slot the journal cannot
        // replay still needs: once, in plan order, serially before the
        // fan-out. A resume that replays every cell of a plan skips it.
        let slots = scheduler::plan_slots(&ctx);
        let mut needed = vec![false; plans.len()];
        for c in slots.iter().filter_map(Slot::pending_cell) {
            if let Some(p) = ctx.cells[c].lhs {
                needed[p] = true;
            }
        }
        let mut selector_train_ms: Vec<(String, f64)> = Vec::new();
        for (p, plan) in plans.iter().enumerate().filter(|(p, _)| needed[*p]) {
            let start = std::time::Instant::now();
            ctx.selectors[p] = Some(train_lhs_plan(plan, &self.scale)?);
            selector_train_ms.push((plan.label(), start.elapsed().as_secs_f64() * 1e3));
        }

        let (outcomes, adaptive) = scheduler::execute(&ctx, slots, self.serial)?;

        // Regroup consecutive cells per (dataset, group) into blocks —
        // output order matches the historical serial nested loops.
        let mut blocks: Vec<Block> = Vec::new();
        let mut last_key = None;
        for (cell, outcome) in ctx.cells.iter().zip(outcomes) {
            let key = (cell.task, cell.group);
            if last_key != Some(key) {
                last_key = Some(key);
                blocks.push(Block {
                    dataset: spec.datasets[cell.task]
                        .rename
                        .clone()
                        .unwrap_or_else(|| ctx.instances[cell.task].task.name().to_string()),
                    label: spec.groups[cell.group].label.clone(),
                    config: ctx.instances[cell.task].config.clone(),
                    cells: Vec::new(),
                });
            }
            blocks
                .last_mut()
                .expect("block pushed above")
                .cells
                .push(outcome);
        }
        Ok(GridOutcome {
            blocks,
            adaptive,
            selector_train_ms,
        })
    }
}

/// One block's curve series: `(strategy display name, curve points)`.
pub(crate) type CurveSeries = Vec<(String, Vec<CurvePoint>)>;

/// JSON payload produced by [`render_spec`], mirroring the historical
/// per-figure shapes so `results/*.json` files stay byte-compatible.
pub(crate) enum Rendered {
    /// Curves grouped per block under a `json_key` template
    /// (fig3-style).
    Grouped(Vec<(String, CurveSeries)>),
    /// One flat curve list across all blocks (fig5-style).
    Flat(CurveSeries),
    /// Table rows (metrics / timing / stats reports).
    Rows(Vec<Vec<String>>),
}

/// Render an executed grid: print the spec's tables/curves and return
/// the JSON payload to persist.
pub(crate) fn render_spec(spec: &ExperimentSpec, outcome: &GridOutcome) -> Result<Rendered, Error> {
    match spec.report {
        ReportKind::Curves => Ok(render_curves(spec, outcome)),
        ReportKind::Metrics => render_metrics(spec, outcome),
        ReportKind::Timing => Ok(render_timing(spec, outcome)),
        ReportKind::SelectionStats => Ok(render_selection_stats(spec, outcome)),
        ReportKind::TrendCensus => Ok(render_trend_census(spec, outcome)),
        ReportKind::Checkpoints => Ok(render_checkpoints(spec, outcome)),
        ReportKind::AlcMatrix => Ok(render_alc_matrix(spec, outcome)),
    }
}

/// Persist a rendered payload as `results/{name}.json`.
pub(crate) fn write_rendered(name: &str, rendered: &Rendered) {
    match rendered {
        Rendered::Grouped(g) => write_json(name, g),
        Rendered::Flat(f) => write_json(name, f),
        Rendered::Rows(r) => write_json(name, r),
    }
}

/// Execute + render + persist one spec — the whole figure/table pipeline.
/// Selector-training wall clocks go to stderr (like the `# adaptive:`
/// summary), so stdout stays byte-identical across resumes and thread
/// counts.
pub fn run_spec(
    spec: &ExperimentSpec,
    cli_scale: &Scale,
    journal: Option<&JournalCtx>,
) -> Result<GridOutcome, Error> {
    let outcome = GridExecutor::new(spec, cli_scale)
        .journal(journal)
        .execute()?;
    let rendered = render_spec(spec, &outcome)?;
    write_rendered(&spec.name, &rendered);
    for (label, ms) in &outcome.selector_train_ms {
        eprintln!("# selector train: {label} {ms:.1} ms");
    }
    Ok(outcome)
}

fn render_curves(spec: &ExperimentSpec, outcome: &GridOutcome) -> Rendered {
    for block in &outcome.blocks {
        let title = render_template(&spec.title, &block.dataset, &block.label);
        let results: Vec<RunResult> = block.cells.iter().map(|c| c.avg.clone()).collect();
        print_curves(&title, &results);
    }
    let curves = |block: &Block| -> CurveSeries {
        block
            .cells
            .iter()
            .map(|c| (c.name.clone(), c.avg.curve.clone()))
            .collect()
    };
    match &spec.json_key {
        Some(template) => Rendered::Grouped(
            outcome
                .blocks
                .iter()
                .map(|b| (render_template(template, &b.dataset, &b.label), curves(b)))
                .collect(),
        ),
        None => Rendered::Flat(outcome.blocks.iter().flat_map(&curves).collect()),
    }
}

fn render_metrics(spec: &ExperimentSpec, outcome: &GridOutcome) -> Result<Rendered, Error> {
    let metrics: Vec<Metric> = spec
        .metrics
        .iter()
        .map(|m| registry::parse_metric(m))
        .collect::<Result<_, _>>()?;
    let dataset_col = spec.dataset_column.is_some() || spec.datasets.len() > 1;
    let mut rows = Vec::new();
    for block in &outcome.blocks {
        let lookup: Vec<(String, &RunResult)> = block
            .cells
            .iter()
            .map(|c| (c.name.clone(), &c.avg))
            .collect();
        for cell in &block.cells {
            let mut row = Vec::new();
            if dataset_col {
                row.push(block.dataset.clone());
            }
            row.push(cell.name.clone());
            for m in &metrics {
                row.push(registry::evaluate_metric(
                    m,
                    &cell.avg,
                    block.label_budget(),
                    &lookup,
                ));
            }
            rows.push(row);
        }
    }
    let mut header: Vec<String> = Vec::new();
    if dataset_col {
        header.push(
            spec.dataset_column
                .clone()
                .unwrap_or_else(|| "Dataset".into()),
        );
    }
    header.push("Strategy".into());
    header.extend(metrics.iter().map(|m| m.header()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(&spec.title, &header_refs, &rows);
    if let Some(sig) = &spec.significance {
        rows.extend(render_significance(sig, outcome)?);
    }
    Ok(Rendered::Rows(rows))
}

/// Paired per-repeat metric samples of `cell` vs `baseline`: every
/// `(repeat, round)` coordinate both curves recorded, in repeat order.
/// Truncated (pruned/budgeted) curves pair only over their common
/// prefix.
pub(crate) fn paired_samples(cell: &CellOutcome, baseline: &CellOutcome) -> (Vec<f64>, Vec<f64>) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (run, base) in cell.runs.iter().zip(&baseline.runs) {
        for (p, q) in run.curve.iter().zip(&base.curve) {
            a.push(p.metric);
            b.push(q.metric);
        }
    }
    (a, b)
}

/// Render the paired-significance table of a metrics report: every
/// non-baseline cell vs the spec's baseline, per block, with a
/// bootstrap CI (or permutation interval), a p-value, and a win/loss
/// verdict over the paired per-round deltas.
fn render_significance(
    sig: &SignificanceSpec,
    outcome: &GridOutcome,
) -> Result<Vec<Vec<String>>, Error> {
    let method = sig.method.as_deref().unwrap_or("bootstrap");
    let iters = sig.iters.unwrap_or(2000);
    let alpha = sig.alpha.unwrap_or(0.05);
    let seed = sig.seed.unwrap_or(0x51);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for block in &outcome.blocks {
        // The baseline can be legitimately absent from a block (LHS
        // cells are skipped on multiclass datasets) — skip the block.
        let Some(baseline) = block.cells.iter().find(|c| c.name == sig.baseline) else {
            continue;
        };
        for cell in &block.cells {
            if cell.name == sig.baseline {
                continue;
            }
            let (a, b) = paired_samples(cell, baseline);
            let cmp: PairedComparison = match method {
                "permutation" => paired_permutation(&a, &b, iters, seed, alpha),
                _ => paired_bootstrap_ci(&a, &b, iters, seed, alpha),
            };
            rows.push(vec![
                block.dataset.clone(),
                cell.name.clone(),
                format!("{:+.4}", cmp.mean_diff),
                format!("[{:+.4}, {:+.4}]", cmp.ci_low, cmp.ci_high),
                format!("{:.4}", cmp.p_value),
                cmp.verdict(alpha).to_string(),
                format!("{}-{}-{}", cmp.wins, cmp.losses, cmp.ties),
            ]);
        }
    }
    let title = format!("Significance vs {} ({method}, alpha={alpha})", sig.baseline);
    print_table(
        &title,
        &[
            "Dataset", "Strategy", "d-mean", "CI", "p", "verdict", "W-L-T",
        ],
        &rows,
    );
    Ok(rows)
}

fn render_timing(spec: &ExperimentSpec, outcome: &GridOutcome) -> Rendered {
    let mut rows = Vec::new();
    for cell in outcome.blocks.iter().flat_map(|b| &b.cells) {
        let rounds: Vec<_> = cell.runs.iter().flat_map(|r| &r.rounds).collect();
        let n = rounds.len().max(1) as f64;
        let fit: f64 = rounds.iter().map(|r| r.fit_ms).sum::<f64>() / n;
        let eval: f64 = rounds.iter().map(|r| r.eval_ms).sum::<f64>() / n;
        let score: f64 = rounds.iter().map(|r| r.score_ms).sum::<f64>() / n;
        let select: f64 = rounds.iter().map(|r| r.select_ms).sum::<f64>() / n;
        rows.push(vec![
            cell.name.clone(),
            format!("{fit:.2}"),
            format!("{eval:.2}"),
            format!("{score:.3}"),
            format!("{select:.3}"),
        ]);
    }
    print_table(
        &spec.title,
        &[
            "Strategy",
            "train (ms)",
            "evaluate pool O(T) (ms)",
            "history fold (ms)",
            "select (ms)",
        ],
        &rows,
    );
    Rendered::Rows(rows)
}

fn render_selection_stats(spec: &ExperimentSpec, outcome: &GridOutcome) -> Rendered {
    let mut rows = Vec::new();
    for cell in outcome.blocks.iter().flat_map(|b| &b.cells) {
        let n = cell.runs.len() as f64;
        let (mut w, mut f) = (0.0, 0.0);
        for r in &cell.runs {
            let s = selection_stats(r);
            w += s.mean_wshs;
            f += s.mean_fluct;
        }
        rows.push(vec![
            cell.name.clone(),
            format!("{:.4}", w / n),
            format!("{:.6}", f / n),
        ]);
    }
    print_table(
        &spec.title,
        &["Method", "WSHS score", "FHS (fluctuation) score"],
        &rows,
    );
    Rendered::Rows(rows)
}

fn render_trend_census(spec: &ExperimentSpec, outcome: &GridOutcome) -> Rendered {
    use histal_tseries::{mann_kendall, variance, Trend};

    let block = outcome.blocks.first();
    let seqs: &[Vec<f64>] = block
        .and_then(|b| b.cells.first())
        .and_then(|c| c.runs.first())
        .map(|r| r.history.as_slice())
        .unwrap_or(&[]);
    // Census over samples that survived all rounds unlabeled.
    let full_len = block.map(|b| b.config.rounds).unwrap_or(0);
    let mut counts = [0usize; 4]; // stable, increasing, decreasing, fluctuating
    let mut exemplar: [Option<Vec<f64>>; 4] = [None, None, None, None];
    let mut vars: Vec<f64> = seqs
        .iter()
        .filter(|s| s.len() == full_len)
        .map(|s| variance(s))
        .collect();
    vars.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let var_hi = vars.get(vars.len() * 3 / 4).copied().unwrap_or(0.0);
    for s in seqs.iter().filter(|s| s.len() == full_len) {
        let mk = mann_kendall(s);
        let class = match mk.trend() {
            Trend::Increasing => 1,
            Trend::Decreasing => 2,
            Trend::NoTrend => {
                if variance(s) > var_hi {
                    3
                } else {
                    0
                }
            }
        };
        counts[class] += 1;
        if exemplar[class].is_none() {
            exemplar[class] = Some(s.clone());
        }
    }
    let names = [
        "(a) stable",
        "(b) increasing",
        "(c) decreasing",
        "(d) fluctuating",
    ];
    let total: usize = counts.iter().sum();
    let mut rows = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let example = exemplar[i]
            .as_ref()
            .map(|s| {
                s.iter()
                    .rev()
                    .take(5)
                    .rev()
                    .map(|v| format!("{v:.2}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_default();
        rows.push(vec![
            name.to_string(),
            counts[i].to_string(),
            format!("{:.1}%", 100.0 * counts[i] as f64 / total.max(1) as f64),
            example,
        ]);
    }
    print_table(
        &spec.title,
        &["Shape", "#samples", "share", "example (last 5 scores)"],
        &rows,
    );
    Rendered::Rows(rows)
}

fn render_checkpoints(spec: &ExperimentSpec, outcome: &GridOutcome) -> Rendered {
    // Accuracy checkpoints: five evenly spaced label budgets.
    let checkpoints: Vec<usize> = outcome
        .blocks
        .first()
        .map(|b| {
            (1..=5)
                .map(|k| b.config.init_labeled + b.config.batch_size * (k * b.config.rounds / 5))
                .collect()
        })
        .unwrap_or_default();
    let mut rows = Vec::new();
    for cell in outcome.blocks.iter().flat_map(|b| &b.cells) {
        let mut row = vec![cell.name.clone()];
        for &cp in &checkpoints {
            let metric = cell
                .avg
                .curve
                .iter()
                .rfind(|p| p.n_labeled <= cp)
                .map(|p| p.metric)
                .unwrap_or(0.0);
            row.push(format!("{metric:.4}"));
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["#Samples".into()];
    header.extend(checkpoints.iter().map(|c| c.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(&spec.title, &header_refs, &rows);
    Rendered::Rows(rows)
}

/// One `train \ apply` table per strategy display name: a row per
/// group label, a column per dataset, each cell's [`mean_auc`]. The JSON
/// payload is the flat matrix, one `[strategy, train, apply, alc]` row
/// per cell in block order. Validation guarantees no cell was skipped.
fn render_alc_matrix(spec: &ExperimentSpec, outcome: &GridOutcome) -> Rendered {
    fn distinct<'a>(names: impl Iterator<Item = &'a String>) -> Vec<&'a str> {
        let mut out: Vec<&str> = Vec::new();
        for name in names {
            if !out.contains(&name.as_str()) {
                out.push(name);
            }
        }
        out
    }
    let cells = || {
        outcome
            .blocks
            .iter()
            .flat_map(|b| b.cells.iter().map(move |c| (b, c)))
    };
    let datasets = distinct(outcome.blocks.iter().map(|b| &b.dataset));
    let labels = distinct(outcome.blocks.iter().map(|b| &b.label));
    for strategy in distinct(cells().map(|(_, c)| &c.name)) {
        let alc = |label: &str, dataset: &str| {
            cells()
                .find(|(b, c)| b.label == label && b.dataset == dataset && c.name == strategy)
                .map(|(_, c)| format!("{:.4}", mean_auc(c)))
                .unwrap_or_default()
        };
        let rows: Vec<Vec<String>> = labels
            .iter()
            .filter(|label| cells().any(|(b, c)| b.label == **label && c.name == strategy))
            .map(|label| {
                let mut row = vec![label.to_string()];
                row.extend(datasets.iter().map(|dataset| alc(label, dataset)));
                row
            })
            .collect();
        let mut header = vec!["train \\ apply"];
        header.extend(&datasets);
        print_table(&format!("{} — {strategy}", spec.title), &header, &rows);
    }
    Rendered::Rows(
        cells()
            .map(|(b, c)| {
                let alc = format!("{:.6}", mean_auc(c));
                vec![c.name.clone(), b.label.clone(), b.dataset.clone(), alc]
            })
            .collect(),
    )
}

/// Mean of per-run areas under the learning curve — matches the
/// historical extension experiments, which averaged AUCs over raw
/// repeats rather than taking the AUC of the averaged curve.
pub(crate) fn mean_auc(cell: &CellOutcome) -> f64 {
    let n = cell.runs.len().max(1) as f64;
    cell.runs.iter().map(area_under_curve).sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_vary_by_all_inputs() {
        let base = seed_for("e", "d", "s", 0);
        assert_ne!(base, seed_for("x", "d", "s", 0));
        assert_ne!(base, seed_for("e", "x", "s", 0));
        assert_ne!(base, seed_for("e", "d", "x", 0));
        assert_ne!(base, seed_for("e", "d", "s", 1));
        assert_eq!(base, seed_for("e", "d", "s", 0));
    }

    #[test]
    fn rounds_scale_with_factor() {
        assert_eq!(rounds_for(&Scale::full()), 19);
        let tiny = Scale {
            factor: 0.1,
            repeats: 1,
        };
        assert_eq!(rounds_for(&tiny), 5);
    }

    #[test]
    fn spec_scale_overrides_cli_scale() {
        let spec = ExperimentSpec::from_json(
            r#"{"name":"x","datasets":["mr"],
                "groups":[{"strategies":["entropy"]}],
                "scale":{"repeats":1}}"#,
        )
        .unwrap();
        let cli = Scale {
            factor: 0.5,
            repeats: 4,
        };
        let exec = GridExecutor::new(&spec, &cli);
        assert_eq!(exec.scale.repeats, 1);
        assert_eq!(exec.scale.factor, 0.5);
    }

    /// Zero repeats used to pass validation and panic while averaging;
    /// 257 would reuse repeat 0's seed. Both must come back as spec
    /// errors, whether the count comes from `--repeats` or the spec.
    #[test]
    fn unusable_repeat_counts_are_spec_errors() {
        let mut spec = ExperimentSpec::from_json(
            r#"{"name":"x","datasets":["mr"],"groups":[{"strategies":["entropy"]}]}"#,
        )
        .unwrap();
        let cli = |repeats| Scale {
            factor: 0.02,
            repeats,
        };
        for repeats in [0, 257] {
            spec.scale = None;
            let from_cli = GridExecutor::new(&spec, &cli(repeats)).execute().err();
            spec.scale = Some(crate::spec::ScaleSpec {
                factor: None,
                repeats: Some(repeats),
            });
            let from_spec = GridExecutor::new(&spec, &cli(1)).execute().err();
            for err in [from_cli, from_spec] {
                let err = err.expect("repeats outside 1..=256 must be rejected");
                let spec_error = matches!(err.kind, histal_core::error::ErrorKind::Spec { .. });
                assert!(spec_error && err.to_string().contains("1..=256"), "{err}");
            }
        }
        spec.scale.as_mut().unwrap().repeats = Some(256);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn failing_cell_reports_its_key() {
        // Spec validation refuses every cell its model cannot score, so
        // this grid context is laid out by hand: MNLP on the logistic
        // model fails at its first scored round, and the error must name
        // the cell key.
        let spec = ExperimentSpec::from_json(
            r#"{"name":"x","datasets":["mr"],"groups":[{"strategies":["entropy"]}]}"#,
        )
        .unwrap();
        let scale = Scale {
            factor: 0.02,
            repeats: 1,
        };
        let def = registry::parse_dataset("mr").unwrap();
        let ctx = GridCtx {
            spec: &spec,
            scale,
            journal: None,
            model: registry::ModelKind::LogReg,
            instances: vec![TaskInstance {
                task: Task::build(&def, &scale, 0),
                config: text_pool_config(false, &scale),
            }],
            selectors: Vec::new(),
            cells: vec![Cell {
                task: 0,
                group: 0,
                strategy: Strategy::new(histal_core::strategy::BaseStrategy::Mnlp),
                lhs: None,
                lhs_variant: None,
                display: "MNLP".into(),
                experiment: "xx".into(),
            }],
        };
        let err = match scheduler::execute(&ctx, scheduler::plan_slots(&ctx), true) {
            Ok(_) => panic!("MNLP on the logistic model must fail"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(msg.contains("xx/MR/MNLP"), "{msg}");
    }
}
