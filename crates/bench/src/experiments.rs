//! The experiments that stay in code, and the BENCH emitter and gates.
//!
//! Most tables and figures are checked-in `specs/*.json` grids run from
//! the command table in [`crate::commands`]. The functions here render
//! something no [`ReportKind`](crate::spec::ReportKind) produces:
//!
//! | function | artifact |
//! |---|---|
//! | [`table3`] | Table 3 — text dataset statistics |
//! | [`table4`] | Table 4 — NER dataset statistics |
//! | [`fig4`] | Figure 4 — SOTA strategies + history wrappers (two specs, one results file) |
//! | [`agnostic`], [`sweep_batch`] | extensions that run one spec per model / batch size |
//! | [`compare`], [`significance`] | verdict tables over paired curve points |
//! | [`ceiling`] | diagnostic: fully-supervised accuracy |
//! | [`bench()`] | `BENCH_harness.json`, or the `bench --check` gates |
//!
//! Their grids are still [`ExperimentSpec`]s run by
//! [`crate::executor::GridExecutor`].

use histal_core::analysis::area_under_curve;
use histal_core::driver::RunResult;
use histal_core::error::Error;
use histal_core::strategy::{BaseStrategy, Strategy};
use histal_data::{NerDataset, NerSpec, TextDataset, TextSpec};

use crate::executor::{
    mean_auc, paired_samples, render_spec, seed_for, text_pool_config, train_lhs_plan, CellOutcome,
    GridExecutor, Rendered,
};
use crate::registry;
use crate::report::{print_curves, print_table, write_json};
use crate::spec::{DatasetEntry, ExperimentSpec, GroupSpec, PoolSpec, ScaleSpec, StrategyEntry};
use crate::tasks::{Scale, TextTask};
use crate::transfer::{execute_transfer, TransferSpec};

/// Format an optional final metric for a table cell.
fn fmt_metric(m: Option<f64>) -> String {
    m.map(|v| format!("{v:.4}")).unwrap_or_else(|| "n/a".into())
}

/// A label-less [`GroupSpec`] from plain strategy tokens.
fn group(tokens: &[&str]) -> GroupSpec {
    GroupSpec {
        label: String::new(),
        strategies: tokens.iter().map(|t| StrategyEntry::new(*t)).collect(),
    }
}

/// Extension experiment: model-agnosticism. The paper claims its
/// strategies are "not task- or model-specific"; this swaps the
/// discriminative classifier for multinomial Naive Bayes (a one-pass
/// generative model with very different score dynamics) and reruns the
/// entropy family.
pub fn agnostic(scale: &Scale) -> Result<(), Error> {
    let mut rows = Vec::new();
    for (model_name, model, experiment) in [
        ("logistic (TextCNN proxy)", None, "agnostic-logreg"),
        ("naive bayes", Some("nb"), "agnostic-nb"),
    ] {
        let spec = ExperimentSpec {
            name: experiment.into(),
            experiment: experiment.into(),
            split_seed: 0xA6,
            model: model.map(String::from),
            datasets: vec![DatasetEntry::new("mr")],
            groups: vec![group(&["entropy", "WSHS(entropy)", "FHS(entropy)"])],
            ..Default::default()
        };
        let outcome = GridExecutor::new(&spec, scale).execute()?;
        for cell in outcome.blocks.iter().flat_map(|b| &b.cells) {
            rows.push(vec![
                model_name.to_string(),
                cell.name.clone(),
                format!("{:.4}", mean_auc(cell)),
            ]);
        }
    }
    print_table(
        "Extension — model-agnosticism: ALC by model × strategy (MR analogue)",
        &["Model", "Strategy", "area under learning curve"],
        &rows,
    );
    write_json("agnostic", &rows);
    Ok(())
}

/// Head-to-head comparison of two strategy tokens on the MR analogue:
/// averaged curves, ALC, and a Wilcoxon significance verdict — the
/// harness's user-facing utility command. Tokens go through the full
/// registry grammar, so wrapper parameters, `LHS(...)` (trained on the
/// fly) and diversity suffixes all work here, in either position: a
/// diversity cell reads the task's shared pool geometry.
pub fn compare(scale: &Scale, token_a: &str, token_b: &str) -> Result<(), Error> {
    use histal_core::stats::wilcoxon_signed_rank;

    let spec = ExperimentSpec {
        name: "compare".into(),
        experiment: "cmp".into(),
        split_seed: 0xC0,
        datasets: vec![DatasetEntry::new("mr")],
        groups: vec![group(&[token_a, token_b])],
        scale: Some(repeats_at_least_3(scale)),
        ..Default::default()
    };
    let outcome = GridExecutor::new(&spec, scale).execute()?;
    let [a, b] = &outcome.blocks[0].cells[..] else {
        unreachable!("a one-dataset, two-strategy grid has two cells");
    };
    print_curves(
        &format!("Compare — {} vs {}", a.name, b.name),
        &[a.avg.clone(), b.avg.clone()],
    );
    let (xs, ys) = paired_samples(a, b);
    let t = wilcoxon_signed_rank(&xs, &ys);
    let mut rows: Vec<Vec<String>> = [&a.avg, &b.avg]
        .iter()
        .map(|run| {
            vec![
                run.strategy_name.clone(),
                format!("{:.4}", area_under_curve(run)),
                fmt_metric(run.final_metric()),
            ]
        })
        .collect();
    rows.push(vec![
        "Wilcoxon".to_string(),
        format!("p = {:.4}", t.p_value),
        if t.significantly_better(0.05) {
            format!("{} significantly better", a.name)
        } else if t.p_value < 0.05 {
            format!("{} significantly better", b.name)
        } else {
            "no significant difference".to_string()
        },
    ]);
    print_table("Verdict", &["Strategy", "ALC", "Final accuracy"], &rows);
    Ok(())
}

/// The scale override of the paired diagnostics (`compare`,
/// `significance`): at least three repeats, whatever the command line
/// asks for.
fn repeats_at_least_3(scale: &Scale) -> ScaleSpec {
    ScaleSpec {
        factor: None,
        repeats: Some(scale.repeats.max(3)),
    }
}

/// Extension experiment: batch-size sensitivity. The paper fixes batch
/// 25 (MR/SST-2) and 100 (TREC); this sweeps the batch size at a fixed
/// 500-label budget to show where batch-mode selection starts costing
/// accuracy (larger batches select more redundantly per round).
pub fn sweep_batch(scale: &Scale) -> Result<(), Error> {
    let budget = 500;
    let mut rows = Vec::new();
    for &batch in &[10usize, 25, 50, 100] {
        let spec = ExperimentSpec {
            name: format!("sweep_{batch}"),
            experiment: "sweep".into(),
            split_seed: 0x5B,
            datasets: vec![DatasetEntry::new("mr")],
            groups: vec![group(&["entropy", "FHS(entropy)"])],
            pool: Some(PoolSpec {
                batch_size: Some(batch),
                rounds: Some((budget / batch).saturating_sub(1).max(1)),
                init_labeled: Some(batch),
                ..Default::default()
            }),
            ..Default::default()
        };
        let outcome = GridExecutor::new(&spec, scale).execute()?;
        for cell in outcome.blocks.iter().flat_map(|b| &b.cells) {
            rows.push(vec![
                batch.to_string(),
                cell.name.clone(),
                format!("{:.4}", area_under_curve(&cell.avg)),
                fmt_metric(cell.avg.final_metric()),
            ]);
        }
    }
    print_table(
        "Extension — batch-size sweep at a 500-label budget (MR analogue)",
        &["Batch", "Strategy", "ALC", "Final accuracy"],
        &rows,
    );
    write_json("sweep_batch", &rows);
    Ok(())
}

/// Extension experiment: statistical significance of the history-aware
/// improvements. Pools paired per-point curve metrics across repeats and
/// runs Wilcoxon signed-rank + paired bootstrap against the base
/// strategy (the paper claims its improvements are significant).
pub fn significance(scale: &Scale) -> Result<(), Error> {
    use histal_core::stats::{paired_bootstrap, wilcoxon_signed_rank};

    let spec = ExperimentSpec {
        name: "significance".into(),
        experiment: "sig".into(),
        split_seed: 0x51,
        datasets: vec![DatasetEntry::new("mr")],
        groups: vec![group(&[
            "entropy",
            "HUS(entropy)",
            "WSHS(entropy)",
            "FHS(entropy)",
        ])],
        scale: Some(repeats_at_least_3(scale)),
        ..Default::default()
    };
    let outcome = GridExecutor::new(&spec, scale).execute()?;
    let (base, variants) = outcome.blocks[0]
        .cells
        .split_first()
        .expect("the grid has four cells");
    let mut rows = Vec::new();
    for cell in variants {
        let (variant, baseline) = paired_samples(cell, base);
        let w = wilcoxon_signed_rank(&variant, &baseline);
        let b = paired_bootstrap(&variant, &baseline, 5_000, 0x51);
        rows.push(vec![
            cell.name.clone(),
            format!("{:+.4}", w.mean_diff),
            format!("{:.4}", w.p_value),
            format!("{:.4}", b.p_value),
            if w.significantly_better(0.05) {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    print_table(
        "Extension — significance of history-aware improvements vs entropy (MR analogue)",
        &[
            "Strategy",
            "mean Δacc",
            "Wilcoxon p",
            "bootstrap p",
            "sig. better @0.05",
        ],
        &rows,
    );
    write_json("significance", &rows);
    Ok(())
}

/// Diagnostic (not a paper artifact): fully-supervised test accuracy of
/// each text dataset — the ceiling the learning curves approach.
pub fn ceiling(scale: &Scale) -> Result<(), Error> {
    let mut rows = Vec::new();
    for spec in [
        TextSpec::mr(),
        TextSpec::sst2(),
        TextSpec::subj(),
        TextSpec::trec(),
    ] {
        let task = TextTask::build(&spec, scale, 0xCE11);
        let mut model = task.model(0);
        let s: Vec<&histal_models::Document> = task.pool_docs.iter().collect();
        let l: Vec<&usize> = task.pool_labels.iter().collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        use histal_core::model::Model;
        use rand_chacha::rand_core::SeedableRng;
        model.fit(&s, &l, &mut rng);
        model.fit(&s, &l, &mut rng);
        let ts: Vec<&histal_models::Document> = task.test_docs.iter().collect();
        let tl: Vec<&usize> = task.test_labels.iter().collect();
        rows.push(vec![
            task.name.clone(),
            task.pool_docs.len().to_string(),
            format!("{:.4}", model.metric(&ts, &tl)),
        ]);
    }
    print_table(
        "Diagnostic — fully-supervised accuracy ceiling",
        &["Dataset", "#train", "accuracy"],
        &rows,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// E1 / E2: dataset statistics tables
// ---------------------------------------------------------------------

/// Table 3: statistics of the four text-classification datasets.
pub fn table3() -> Result<(), Error> {
    let mut rows = Vec::new();
    for spec in [
        TextSpec::mr(),
        TextSpec::sst2(),
        TextSpec::subj(),
        TextSpec::trec(),
    ] {
        let stats = TextDataset::generate(&spec).stats();
        rows.push(vec![
            stats.name,
            stats.n_classes.to_string(),
            stats.max_len.to_string(),
            stats.n.to_string(),
            stats.vocab.to_string(),
            stats.vocab_pre.to_string(),
        ]);
    }
    print_table(
        "Table 3 — text classification dataset statistics (synthetic analogues)",
        &["Dataset", "#class", "maxlen", "N", "|V|", "V_pre"],
        &rows,
    );
    write_json("table3", &rows);
    Ok(())
}

/// Table 4: statistics of the three NER datasets.
pub fn table4() -> Result<(), Error> {
    let mut rows = Vec::new();
    for spec in [
        NerSpec::conll2003_english(),
        NerSpec::conll2002_spanish(),
        NerSpec::conll2002_dutch(),
    ] {
        let data = NerDataset::generate(&spec);
        for s in data.stats() {
            rows.push(vec![
                data.name.clone(),
                s.split,
                s.n_sentences.to_string(),
                s.n_tokens.to_string(),
                s.n_entities.to_string(),
            ]);
        }
    }
    print_table(
        "Table 4 — NER dataset statistics (synthetic analogues)",
        &["Dataset", "Split", "#Sentences", "#Tokens", "#Entities"],
        &rows,
    );
    write_json("table4", &rows);
    Ok(())
}

// ---------------------------------------------------------------------
// E6: Figure 4 — state-of-the-art strategies
// ---------------------------------------------------------------------

/// Figure 4: history wrappers on the SOTA strategies — BALD and EGL-word
/// for text; BALD and MNLP for NER. Two specs (one per task kind) whose
/// grouped payloads merge into the single historical `results/fig4.json`.
pub fn fig4(scale: &Scale) -> Result<(), Error> {
    let text = ExperimentSpec {
        name: "fig4".into(),
        experiment: "fig4".into(),
        split_seed: 0xF4,
        datasets: vec![
            DatasetEntry::new("mr"),
            DatasetEntry::new("sst2"),
            DatasetEntry::new("trec"),
        ],
        groups: vec![group(&[
            "bald",
            "WSHS(bald)",
            "egl-word",
            "WSHS(egl-word)",
            "FHS(egl-word)",
        ])],
        title: "Figure 4 — text / {dataset}".into(),
        json_key: Some("{dataset}".into()),
        ..Default::default()
    };
    let ner = ExperimentSpec {
        name: "fig4n".into(),
        experiment: "fig4n".into(),
        datasets: vec![
            DatasetEntry::new("conll2003-en"),
            DatasetEntry::new("conll2002-es"),
            DatasetEntry::new("conll2002-nl"),
        ],
        groups: vec![group(&["bald", "WSHS(bald)", "mnlp", "WSHS(mnlp)"])],
        title: "Figure 4 — NER / {dataset}".into(),
        json_key: Some("{dataset}".into()),
        ..Default::default()
    };
    let mut json = Vec::new();
    for spec in [text, ner] {
        let outcome = GridExecutor::new(&spec, scale).execute()?;
        // Curves + json_key always renders Grouped.
        if let Rendered::Grouped(groups) = render_spec(&spec, &outcome)? {
            json.extend(groups);
        }
    }
    write_json("fig4", &json);
    Ok(())
}

// ---------------------------------------------------------------------
// BENCH: harness performance trajectory
// ---------------------------------------------------------------------

/// Per-cell timing record of the BENCH emitter. `wall_ms` is the
/// end-to-end wall clock of the cell (all repeats); `fit_ms`/`eval_ms`/
/// `score_ms`/`select_ms` sum the per-round phase timings the driver
/// records (`score_ms` = history folding + density weighting,
/// `select_ms` = batch selection).
#[derive(serde::Serialize, serde::Deserialize)]
pub struct BenchCell {
    pub experiment: String,
    pub dataset: String,
    pub strategy: String,
    pub wall_ms: f64,
    pub fit_ms: f64,
    pub eval_ms: f64,
    pub score_ms: f64,
    pub select_ms: f64,
}

/// Adaptive-scheduler slice of `BENCH_harness.json`: what the pruning
/// policy of the checked-in diagnostic sweep saved. Cell-rounds are
/// recorded curve points; `saved_cell_rounds` is the work an exhaustive
/// run would have spent that the scheduler cut.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct AdaptiveBench {
    pub spec: String,
    pub cells: usize,
    pub pruned_cells: usize,
    pub scheduled_cell_rounds: usize,
    pub completed_cell_rounds: usize,
    pub saved_cell_rounds: usize,
}

/// One cell of the checked-in transfer matrix
/// (`specs/transfer-matrix.json`): `strategy` trained on `train`,
/// deployed on `apply`. The ALC is deterministic (unlike the timings),
/// so EXPERIMENTS.md can cite these rows directly.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct TransferBenchRow {
    pub strategy: String,
    pub train: String,
    pub apply: String,
    pub alc: f64,
}

/// Wall clock of one deduplicated selector training performed by the
/// transfer grid, keyed by the plan label (e.g. `LAL(entropy)@mr`).
/// `selector_train_gate` re-times these against the committed values.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct SelectorTrainBench {
    pub selector: String,
    pub wall_ms: f64,
}

/// Top-level payload of `BENCH_harness.json`.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct BenchReport {
    pub git_rev: String,
    pub threads: usize,
    pub cells: Vec<BenchCell>,
    /// Pruning summary of the adaptive sweep; absent in artifacts
    /// recorded before the scheduler existed.
    #[serde(default)]
    pub adaptive: Option<AdaptiveBench>,
    /// Measured transfer matrix of `specs/transfer-matrix.json`; empty
    /// in artifacts recorded before transfer grids existed.
    #[serde(default)]
    pub transfer: Vec<TransferBenchRow>,
    /// Selector-training wall clocks of the transfer grid.
    #[serde(default)]
    pub selector_train: Vec<SelectorTrainBench>,
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Fold one executed cell into a [`BenchCell`]: the cell's wall clock
/// plus the per-round phase timings summed over every repeat.
fn bench_cell(experiment: &str, dataset: &str, cell: &CellOutcome) -> BenchCell {
    let (mut fit_ms, mut eval_ms, mut score_ms, mut select_ms) = (0.0, 0.0, 0.0, 0.0);
    for round in cell.runs.iter().flat_map(|r| &r.rounds) {
        fit_ms += round.fit_ms;
        eval_ms += round.eval_ms;
        score_ms += round.score_ms;
        select_ms += round.select_ms;
    }
    let strategy = cell.name.clone();
    let wall_ms = cell.wall_ms;
    eprintln!(
        "  {experiment:>9} {dataset:<20} {strategy:<14} wall {wall_ms:>9.1} ms \
         (fit {fit_ms:.1} / eval {eval_ms:.1} / score {score_ms:.1} / select {select_ms:.1})"
    );
    BenchCell {
        experiment: experiment.into(),
        dataset: dataset.into(),
        strategy,
        wall_ms,
        fit_ms,
        eval_ms,
        score_ms,
        select_ms,
    }
}

/// The timed grid of `bench` (and, reduced, of `bench --check`): the
/// text cells, the diversity cell, and — full mode only — the beamed
/// NER cells. [`grid_perf_gate`] re-times the *full* grid against the
/// committed artifact, so keep both callers sharing this builder.
fn bench_grid_specs(check: bool) -> Vec<ExperimentSpec> {
    let text_datasets = if check {
        vec![DatasetEntry::new("mr")]
    } else {
        vec![
            DatasetEntry::new("mr"),
            DatasetEntry::new("sst2"),
            DatasetEntry::new("trec"),
        ]
    };
    let mut specs = vec![
        ExperimentSpec {
            name: "bench".into(),
            experiment: "bench".into(),
            split_seed: 0xBE,
            datasets: text_datasets,
            groups: vec![group(&["random", "entropy", "WSHS(entropy)"])],
            ..Default::default()
        },
        // Diversity-combinator cell: density weighting + MMR batch
        // selection on MR — the cosine-heavy path the scoring engine
        // optimizes.
        ExperimentSpec {
            name: "bench-div".into(),
            experiment: "bench-div".into(),
            split_seed: 0xBE,
            datasets: vec![DatasetEntry::new("mr")],
            groups: vec![group(&["WSHS(entropy)+density+mmr"])],
            ..Default::default()
        },
    ];
    if !check {
        // δ = 8 bounds the per-timestep log Z loss at
        // −ln(1 − L·e^{−δ}) = −ln(1 − 17·e^{−8}) ≈ 5.7e-3 (DESIGN.md
        // §5.7) while pruning most lattice sources once the CRF
        // sharpens; the figure specs never set a beam, so their outputs
        // stay exact.
        specs.push(ExperimentSpec {
            name: "bench-ner".into(),
            experiment: "bench-ner".into(),
            datasets: vec![DatasetEntry::new("conll2003-en")],
            groups: vec![group(&["LC", "WSHS(LC)"])],
            ner_beam: Some(8.0),
            ..Default::default()
        });
    }
    specs
}

/// The checked-in adaptive diagnostic sweep (pins its own scale, so
/// the CLI scale only fills gaps).
fn adaptive_sweep_spec() -> Result<ExperimentSpec, Error> {
    ExperimentSpec::from_json(include_str!("../../../specs/adaptive-sweep.json"))
}

/// The checked-in cross-dataset transfer matrix.
fn transfer_matrix_spec() -> Result<TransferSpec, Error> {
    let spec = TransferSpec::from_json(include_str!("../../../specs/transfer-matrix.json"))?;
    spec.validate()?;
    Ok(spec)
}

/// BENCH: time a representative slice of the experiment grid and write
/// the perf trajectory to `BENCH_harness.json` at the repo root. With
/// `check` (`bench --check`, the CI smoke): run a reduced grid — MR text
/// cells plus the diversity cell, no NER — validate the timing
/// diagnostics, run the gates, and never touch `BENCH_harness.json`.
///
/// Cells run **serially** (the executor's serial mode) so each cell's
/// wall clock is unpolluted by its neighbours; the parallelism being
/// measured is the intra-cell kind (repeat fan-out plus the chunked
/// training kernels), which scales with `--threads`. Timings vary run to
/// run, but the `RunResult` behind each cell is byte-identical at any
/// thread count.
pub fn bench(scale: &Scale, check: bool) -> Result<(), Error> {
    let threads = rayon::current_num_threads();
    eprintln!("# BENCH: {threads} thread(s), scale {:.2}", scale.factor);

    let specs = bench_grid_specs(check);
    let mut cells: Vec<BenchCell> = Vec::new();
    for spec in &specs {
        let outcome = GridExecutor::new(spec, scale).serial().execute()?;
        for block in &outcome.blocks {
            for c in &block.cells {
                cells.push(bench_cell(spec.experiment_id(), &block.dataset, c));
            }
        }
    }

    if !check {
        // The pool-scaling grid (selection-only wall clocks at 10k/100k/1M
        // rows, exact vs LSH) rides along in the same artifact; its fixed
        // settings live in `scaling`.
        eprintln!("# BENCH: pool-scaling grid");
        cells.extend(crate::scaling::run_pool_scaling(&crate::scaling::SIZES));
    }

    if check {
        assert!(!cells.is_empty(), "bench --check produced no cells");
        for c in &cells {
            assert!(
                c.wall_ms.is_finite() && c.wall_ms > 0.0,
                "{}/{}: bad wall_ms {}",
                c.experiment,
                c.strategy,
                c.wall_ms
            );
            assert!(
                c.score_ms.is_finite() && c.score_ms >= 0.0,
                "{}/{}: bad score_ms {}",
                c.experiment,
                c.strategy,
                c.score_ms
            );
            assert!(
                c.select_ms.is_finite() && c.select_ms >= 0.0,
                "{}/{}: bad select_ms {}",
                c.experiment,
                c.strategy,
                c.select_ms
            );
        }
        assert!(
            cells.iter().any(|c| c.experiment == "bench-div"),
            "bench --check must cover the diversity cell"
        );
        obs_overhead_gate(scale, &cells);
        sharded_metrics_gate(scale)?;
        grid_perf_gate()?;
        adaptive_gate()?;
        pool_scaling_gate();
        sessions_throughput_gate()?;
        selector_train_gate()?;
        println!("bench --check OK ({} cells)", cells.len());
        return Ok(());
    }

    // The adaptive diagnostic sweep rides along in the artifact: its
    // pruning counts are deterministic (unlike the timings), so CI can
    // pin them and EXPERIMENTS.md can cite them.
    eprintln!("# BENCH: adaptive sweep (specs/adaptive-sweep.json)");
    let sweep = adaptive_sweep_spec()?;
    let sweep_outcome = GridExecutor::new(&sweep, scale).serial().execute()?;
    let summary = sweep_outcome
        .adaptive
        .expect("adaptive sweep spec carries a prune policy");
    let adaptive = Some(AdaptiveBench {
        spec: "specs/adaptive-sweep.json".into(),
        cells: sweep_outcome.blocks.iter().map(|b| b.cells.len()).sum(),
        pruned_cells: summary.pruned_cells,
        scheduled_cell_rounds: summary.scheduled_cell_rounds,
        completed_cell_rounds: summary.completed_cell_rounds,
        saved_cell_rounds: summary.saved_cell_rounds(),
    });

    // The cross-dataset transfer matrix rides along too: its ALCs are
    // deterministic, and the deduplicated selector-training wall clocks
    // give `selector_train_gate` its reference.
    eprintln!("# BENCH: transfer matrix (specs/transfer-matrix.json)");
    let transfer_outcome = execute_transfer(&transfer_matrix_spec()?, scale, None, true)?;
    let transfer = transfer_outcome
        .rows
        .iter()
        .map(|r| TransferBenchRow {
            strategy: r.strategy.clone(),
            train: r.train.clone(),
            apply: r.apply.clone(),
            alc: r.alc,
        })
        .collect();
    let selector_train = transfer_outcome
        .selector_train_ms
        .iter()
        .map(|(selector, wall_ms)| SelectorTrainBench {
            selector: selector.clone(),
            wall_ms: *wall_ms,
        })
        .collect();

    let report = BenchReport {
        git_rev: git_rev(),
        threads,
        cells,
        adaptive,
        transfer,
        selector_train,
    };
    let body = serde_json::to_string_pretty(&report).expect("serializable bench report");
    let path = "BENCH_harness.json";
    match std::fs::write(path, body) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("warn: cannot write {path}: {e}"),
    }
    Ok(())
}

/// `bench --check` gate: with no subscriber installed (the default),
/// instrumentation must be free. Measures the disabled fast path (one
/// relaxed atomic load per callsite), counts how many callsites one MR
/// entropy repeat actually fires, and bounds the implied per-cell cost at
/// 5% of that cell's measured wall clock.
///
/// Runs after every timed cell so the counting pass (which installs a
/// trace-level collector) can't pollute the timings.
fn obs_overhead_gate(scale: &Scale, cells: &[BenchCell]) {
    use histal_obs::trace::{disabled_span_cost_ns, Level};
    use histal_obs::{subscriber_scope, CollectingSubscriber};
    use std::sync::Arc;

    let per_span_ns = disabled_span_cost_ns(2_000_000);
    assert!(
        per_span_ns < 250.0,
        "disabled span cost {per_span_ns:.1} ns — the no-subscriber fast path regressed"
    );

    let entropy = cells
        .iter()
        .find(|c| c.experiment == "bench" && c.strategy == "entropy")
        .expect("bench --check always times an MR entropy cell");

    let task = TextTask::build(&TextSpec::mr(), scale, 0xBE);
    let config = text_pool_config(false, scale);
    let strategy = Strategy::new(BaseStrategy::Entropy);
    let name = strategy.name();
    let collector = Arc::new(CollectingSubscriber::with_max_level(Level::Trace));
    let hits = {
        let _guard = subscriber_scope(collector.clone());
        task.builder(
            task.model(0),
            strategy,
            &config,
            seed_for("bench", &task.name, &name, 0),
        )
        .build()
        .run()
        .expect("entropy needs no extra capability");
        collector.records().len()
    };
    assert!(hits > 0, "instrumented run fired no callsites");
    let implied_ms = hits as f64 * scale.repeats as f64 * per_span_ns / 1e6;
    let budget_ms = entropy.wall_ms * 0.05;
    assert!(
        implied_ms < budget_ms,
        "no-subscriber overhead gate: {hits} callsites/repeat × {per_span_ns:.1} ns \
         → {implied_ms:.3} ms implied, budget {budget_ms:.3} ms (5% of {:.1} ms)",
        entropy.wall_ms
    );
    eprintln!(
        "  obs gate: disabled span {per_span_ns:.1} ns, {hits} callsites/repeat, \
         implied {implied_ms:.3} ms < {budget_ms:.3} ms budget"
    );
}

/// `bench --check` gate: per-worker metric shards merged in index order
/// must add up exactly. Runs the MR entropy cell with one registry per
/// repeat, merges, and checks the counters against the runs' own round
/// diagnostics. A missing counter or a failed run surfaces as a
/// structured [`Error`] (span context attached) instead of a panic.
fn sharded_metrics_gate(scale: &Scale) -> Result<(), Error> {
    use histal_obs::{MetricValue, MetricsRegistry};
    use std::sync::Arc;

    let task = TextTask::build(&TextSpec::mr(), scale, 0xBE);
    let config = text_pool_config(false, scale);
    let strategy = Strategy::new(BaseStrategy::Entropy);
    let name = strategy.name();
    let shards: Vec<Arc<MetricsRegistry>> = (0..scale.repeats)
        .map(|_| Arc::new(MetricsRegistry::new()))
        .collect();
    let runs: Vec<Result<RunResult, Error>> = rayon::run_indexed(scale.repeats, |r| {
        let seed = seed_for("bench", &task.name, &name, r);
        task.builder(task.model(0), strategy.clone(), &config, seed)
            .metrics(shards[r].clone())
            .build()
            .run()
    });
    let runs: Vec<RunResult> = runs.into_iter().collect::<Result<_, _>>()?;
    let merged = MetricsRegistry::new();
    for shard in &shards {
        merged.merge_from(shard);
    }
    let counter = |metric: &str| -> Result<u64, Error> {
        merged
            .snapshot()
            .into_iter()
            .find_map(|(n, v)| match v {
                MetricValue::Counter(c) if n == metric => Some(c),
                _ => None,
            })
            .ok_or_else(|| Error::invariant(format!("merged registry missing counter {metric}")))
    };
    let expect_rounds: u64 = runs.iter().map(|r| r.rounds.len() as u64).sum();
    let expect_selected: u64 = runs
        .iter()
        .flat_map(|r| &r.rounds)
        .map(|round| round.selected.len() as u64)
        .sum();
    assert_eq!(
        counter("al.rounds")?,
        expect_rounds,
        "sharded al.rounds counter disagrees with round diagnostics"
    );
    assert_eq!(
        counter("al.selected")?,
        expect_selected,
        "sharded al.selected counter disagrees with round diagnostics"
    );
    eprintln!(
        "  metrics gate: {} shards merged, al.rounds {expect_rounds}, al.selected {expect_selected}",
        shards.len()
    );
    Ok(())
}

/// The committed-reference timing gates' shared body: checks the fresh
/// timings of every group with [`check_walls`] against the `(key,
/// committed wall_ms)` rows `reference` picks from the committed
/// `BENCH_harness.json`. Skips, after a note, when no comparable
/// reference exists — file missing, unreadable, recorded under a
/// different thread count, or predating these rows (`None`).
fn reference_gate<G>(
    gate: &str,
    reference: impl Fn(&BenchReport) -> Option<Vec<(String, f64)>>,
    groups: &[G],
    time: impl FnMut(&G) -> Result<Vec<(String, f64)>, Error>,
) -> Result<(), Error> {
    let threads = rayon::current_num_threads();
    let raw = std::fs::read_to_string("BENCH_harness.json");
    let skip = match raw.map(|raw| serde_json::from_str::<BenchReport>(&raw)) {
        Err(e) => format!("no BENCH_harness.json: {e}"),
        Ok(Err(e)) => format!("unreadable BENCH_harness.json: {e}"),
        Ok(Ok(r)) if r.threads != threads => format!(
            "reference recorded with {} thread(s), running {threads}",
            r.threads
        ),
        Ok(Ok(r)) => match reference(&r) {
            Some(rows) => return check_walls(gate, &rows, groups, time),
            None => "no committed rows".into(),
        },
    };
    eprintln!("  {gate}: skipped ({skip})");
    Ok(())
}

/// Check fresh wall clocks against committed ones. `time` times one
/// group and returns its `(key, wall_ms)` rows. A group with any row
/// over its committed wall + 20% is re-timed once and each row keeps
/// its minimum: a best-of-two absorbs transient machine jitter and
/// still catches real regressions, which reproduce. Rows without a
/// committed twin are noted and skipped. Fails if a compared row stays
/// over the bound, or if no row was compared at all.
fn check_walls<G>(
    gate: &str,
    reference: &[(String, f64)],
    groups: &[G],
    mut time: impl FnMut(&G) -> Result<Vec<(String, f64)>, Error>,
) -> Result<(), Error> {
    let committed = |key: &str| reference.iter().find(|(k, _)| k == key).map(|r| r.1);
    let over = |(key, wall): &(String, f64)| committed(key).is_some_and(|c| *wall > c * 1.2);
    let (mut compared, mut skipped) = (0usize, 0usize);
    for group in groups {
        let mut rows = time(group)?;
        if rows.iter().any(over) {
            eprintln!("  {gate}: over limit on first pass — re-timing once");
            for (row, fresh) in rows.iter_mut().zip(time(group)?) {
                row.1 = row.1.min(fresh.1);
            }
        }
        for (key, wall) in &rows {
            let Some(committed) = committed(key) else {
                eprintln!("  {gate}: no committed {key} row — skipped");
                skipped += 1;
                continue;
            };
            if *wall > committed * 1.2 {
                return Err(Error::invariant(format!(
                    "{gate}: {key} wall {wall:.1} ms exceeds {:.1} ms \
                     (committed {committed:.1} ms + 20%)",
                    committed * 1.2
                )));
            }
            compared += 1;
        }
    }
    if compared == 0 {
        return Err(Error::invariant(format!("{gate} compared no rows")));
    }
    eprintln!("  {gate}: {compared} row(s) within +20% of committed ({skipped} skipped)");
    Ok(())
}

/// `bench --check` gate: harness perf must not regress anywhere in the
/// timed grid. Re-times the *full* bench grid (text, diversity, beamed
/// NER) serially at the committed bench scale ([`Scale::quick`], the
/// scale `bench` records), one spec per group, against the committed
/// cells, matched by `experiment/dataset/strategy`. Pool-scaling rows
/// have their own gate.
fn grid_perf_gate() -> Result<(), Error> {
    let key = |e: &str, d: &str, s: &str| format!("{e}/{d}/{s}");
    let committed = |r: &BenchReport| {
        let cells = r.cells.iter();
        Some(
            cells
                .map(|c| (key(&c.experiment, &c.dataset, &c.strategy), c.wall_ms))
                .collect(),
        )
    };
    let time = |spec: &ExperimentSpec| -> Result<Vec<(String, f64)>, Error> {
        let outcome = GridExecutor::new(spec, &Scale::quick())
            .serial()
            .execute()?;
        let mut rows = Vec::new();
        for b in &outcome.blocks {
            for c in &b.cells {
                rows.push((key(spec.experiment_id(), &b.dataset, &c.name), c.wall_ms));
            }
        }
        Ok(rows)
    };
    reference_gate("grid perf gate", committed, &bench_grid_specs(false), time)
}

/// `bench --check` gate: selector training must not regress. Re-times
/// only the *deduplicated* selector trainings of the checked-in
/// transfer matrix (not the full apply grid) at the committed bench
/// scale against the committed selector rows, matched by plan label.
fn selector_train_gate() -> Result<(), Error> {
    // The same dedup the executor performs: one training per distinct
    // plan cache key across the strategy × train grid.
    let mut plans: Vec<registry::LhsPlan> = Vec::new();
    for group in transfer_matrix_spec()?.to_experiment_spec().groups {
        for entry in group.strategies {
            let plan = registry::parse_strategy(&entry.strategy)?
                .lhs
                .expect("transfer strategies are selector tokens");
            if !plans.iter().any(|p| p.cache_key() == plan.cache_key()) {
                plans.push(plan);
            }
        }
    }
    let committed = |r: &BenchReport| {
        let rows = r.selector_train.iter();
        (!r.selector_train.is_empty())
            .then(|| rows.map(|t| (t.selector.clone(), t.wall_ms)).collect())
    };
    reference_gate("selector train gate", committed, &[plans], |plans| {
        let time = |plan: &registry::LhsPlan| {
            let start = std::time::Instant::now();
            train_lhs_plan(plan, &Scale::quick())?;
            Ok((plan.label(), start.elapsed().as_secs_f64() * 1e3))
        };
        plans.iter().map(time).collect()
    })
}

/// `bench --check` gate: the adaptive scheduler must actually pay for
/// itself on the checked-in diagnostic sweep — prune at least 30% of
/// the scheduled cell-rounds — while still reporting the same
/// per-dataset winning strategy (by mean per-repeat ALC) as an
/// exhaustive run of the identical spec with pruning off.
fn adaptive_gate() -> Result<(), Error> {
    let spec = adaptive_sweep_spec()?;
    let scale = Scale::quick();
    let outcome = GridExecutor::new(&spec, &scale).serial().execute()?;
    let summary = outcome
        .adaptive
        .expect("adaptive sweep spec carries a prune policy");
    let saved = summary.saved_cell_rounds() as f64 / summary.scheduled_cell_rounds.max(1) as f64;
    assert!(
        saved >= 0.30,
        "adaptive gate: pruning saved only {:.0}% of cell-rounds ({} of {})",
        saved * 100.0,
        summary.saved_cell_rounds(),
        summary.scheduled_cell_rounds
    );

    let mut exhaustive = spec.clone();
    exhaustive.prune = None;
    let full = GridExecutor::new(&exhaustive, &scale).serial().execute()?;

    let winner = |cells: &[CellOutcome], full_points: usize, survivors_only: bool| -> String {
        cells
            .iter()
            .filter(|c| !survivors_only || c.runs.iter().all(|r| r.curve.len() == full_points))
            .max_by(|a, b| mean_auc(a).partial_cmp(&mean_auc(b)).expect("finite AUCs"))
            .map(|c| c.name.clone())
            .expect("non-empty block")
    };
    for (adaptive_block, full_block) in outcome.blocks.iter().zip(&full.blocks) {
        let points = adaptive_block.config.rounds + 1;
        let picked = winner(&adaptive_block.cells, points, true);
        let truth = winner(&full_block.cells, points, false);
        assert_eq!(
            picked, truth,
            "adaptive gate: {} winner diverged (adaptive {picked}, exhaustive {truth})",
            adaptive_block.dataset
        );
        eprintln!(
            "  adaptive gate: {} winner {picked} (matches exhaustive)",
            adaptive_block.dataset
        );
    }
    eprintln!(
        "  adaptive gate: saved {}/{} cell-rounds ({:.0}%), {} of {} cells pruned",
        summary.saved_cell_rounds(),
        summary.scheduled_cell_rounds,
        saved * 100.0,
        summary.pruned_cells,
        outcome.blocks.iter().map(|b| b.cells.len()).sum::<usize>()
    );
    Ok(())
}

/// `bench --check` gate: pool-scaling smoke. Runs the scaling grid at
/// its smallest size only (10k rows — seconds, not minutes) and requires
/// the LSH-indexed path to beat the exact path outright for every
/// combinator. A same-order ANN path means the index is not pruning
/// candidates and the scaling story is broken.
fn pool_scaling_gate() {
    use crate::scaling::{run_pool_scaling, SIZES, STRATEGIES};

    let rows = SIZES[0];
    let cells = run_pool_scaling(&[rows]);
    let wall = |strategy: &str, mode: &str| {
        cells
            .iter()
            .find(|c| c.strategy == format!("{strategy}/{mode}"))
            .map(|c| c.wall_ms)
            .expect("both paths run at the smallest size")
    };
    for strategy in STRATEGIES {
        let (exact, ann) = (wall(strategy, "exact"), wall(strategy, "ann"));
        assert!(
            ann < exact,
            "pool scaling gate: {strategy} ann {ann:.1} ms not faster than exact {exact:.1} ms \
             at {rows} rows"
        );
    }
    eprintln!(
        "  pool scaling gate: ann beat exact on {} combinator(s)",
        STRATEGIES.len()
    );
}

/// `bench --check` gate: the interactive [`Session`] form of the
/// pipeline (the one `histal-serve` hosts) must sustain a floor of
/// simulated-oracle sessions per second. Runs a fleet of tiny MR
/// sessions through `build_session()` + `run_hidden()` across the rayon
/// pool and gates on throughput. The floor is deliberately conservative
/// (release builds clear it by well over an order of magnitude); what
/// it catches is accidental super-linear work sneaking into the
/// step/submit path. Equal-seeded fleet members must also produce
/// byte-identical curves — session concurrency may never leak into
/// results.
///
/// [`Session`]: histal_core::live::Session
fn sessions_throughput_gate() -> Result<(), Error> {
    use histal_core::driver::PoolConfig;

    const FLEET: usize = 32;
    const DISTINCT_SEEDS: usize = 4;
    const FLOOR_PER_SEC: f64 = 5.0;

    let scale = Scale {
        factor: 0.05,
        repeats: 1,
    };
    let task = TextTask::build(&TextSpec::mr(), &scale, 0xBE);
    let config = PoolConfig {
        batch_size: 5,
        rounds: 2,
        init_labeled: 10,
        ..PoolConfig::default()
    };
    let start = std::time::Instant::now();
    let results: Vec<Result<RunResult, Error>> = rayon::run_indexed(FLEET, |i| {
        let strategy = Strategy::new(BaseStrategy::Entropy);
        task.builder(
            task.model(0),
            strategy,
            &config,
            (i % DISTINCT_SEEDS) as u64,
        )
        .build_session()
        .run_hidden()
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let results: Vec<RunResult> = results.into_iter().collect::<Result<_, _>>()?;

    let curve_json = |r: &RunResult| serde_json::to_string(&r.curve).expect("curve serializes");
    for (i, result) in results.iter().enumerate() {
        assert_eq!(
            curve_json(result),
            curve_json(&results[i % DISTINCT_SEEDS]),
            "sessions gate: fleet member {i} diverged from its seed twin"
        );
    }
    assert_ne!(
        curve_json(&results[0]),
        curve_json(&results[1]),
        "sessions gate: distinct seeds produced identical curves"
    );

    let per_sec = FLEET as f64 / elapsed;
    assert!(
        per_sec >= FLOOR_PER_SEC,
        "sessions gate: {per_sec:.1} sessions/s below the {FLOOR_PER_SEC:.0}/s floor \
         ({FLEET} sessions in {elapsed:.2} s)"
    );
    eprintln!("  sessions gate: {per_sec:.0} sessions/s ({FLEET} sessions in {elapsed:.2} s)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`check_walls`] against a committed `a` = 100 ms row, with a fake
    /// re-timer that returns `passes` in turn: the error (if any) and
    /// how many passes were timed.
    fn gate(passes: &[&[(&str, f64)]]) -> (Option<String>, usize) {
        let reference = [("a".to_string(), 100.0)];
        let mut timed = 0;
        let verdict = check_walls("gate", &reference, &[()], |_| {
            timed += 1;
            Ok(passes[timed - 1]
                .iter()
                .map(|(k, w)| (k.to_string(), *w))
                .collect())
        });
        (verdict.err().map(|e| e.to_string()), timed)
    }

    #[test]
    fn check_walls_bounds_retries_and_skips() {
        // Within the bound: one pass.
        assert_eq!(gate(&[&[("a", 119.0)]]), (None, 1));
        // Over, then under on the retry: the minimum passes.
        assert_eq!(gate(&[&[("a", 150.0)], &[("a", 110.0)]]), (None, 2));
        // Over on both passes fails, on the minimum of the two.
        let (e, timed) = gate(&[&[("a", 121.0)], &[("a", 130.0)]]);
        assert!(e.unwrap().contains("a wall 121.0 ms exceeds 120.0 ms"));
        assert_eq!(timed, 2);
        // A row without a committed twin is skipped, never retried.
        assert_eq!(gate(&[&[("a", 100.0), ("new", 1e9)]]), (None, 1));
        // No row compared at all fails.
        let (e, _) = gate(&[&[("new", 1.0)]]);
        assert!(e.unwrap().contains("compared no rows"));
    }
}
