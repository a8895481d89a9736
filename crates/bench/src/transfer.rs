//! Cross-dataset transfer grids (`kind: "transfer"`).
//!
//! A [`TransferSpec`] describes a train-on-A × apply-to-B matrix over
//! learned selectors: every strategy token (an `LHS(...)` / `LAL(...)`
//! selector) is trained once per `train` dataset and evaluated on every
//! `apply` dataset — Chu & Lin's experience-transfer protocol as a
//! declarative grid. The spec lowers onto the ordinary
//! [`ExperimentSpec`] engine: one group per training dataset whose
//! strategy tokens carry an injected `train=DATASET` parameter, so
//! selector-training deduplication, journaling and the replay guard all
//! fall out of the existing [`GridExecutor`] machinery.
//!
//! Results are rendered as one ALC matrix per strategy (rows = training
//! dataset, columns = application dataset) plus a selector-training
//! timing table, and persisted as flat
//! `[strategy, train, apply, alc]` rows in `results/<name>.json`.
//!
//! The module also hosts the `selector-train` / `selector-apply` CLI
//! halves of the transfer story: train a selector on one dataset, save
//! it as an `HLRN1` artifact, load it in another process and deploy it
//! on a different dataset.

use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use histal_core::analysis::area_under_curve;
use histal_core::error::Error;
use histal_core::learned::{load_artifacts, save_artifacts, ArtifactProvenance, TargetKind};
use histal_data::TextSpec;

use crate::executor::{mean_auc, seed_for, text_pool_config, train_lhs_plan, GridExecutor};
use crate::journal::JournalCtx;
use crate::registry;
use crate::report::{print_curves, print_table, write_json};
use crate::spec::{DatasetEntry, ExperimentSpec, GroupSpec, ScaleSpec, StrategyEntry};
use crate::tasks::{Scale, TextTask};

/// The `kind` discriminator of transfer spec files.
pub const TRANSFER_KIND: &str = "transfer";

/// Declarative description of one transfer matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferSpec {
    /// Schema discriminator; must be `"transfer"`.
    pub kind: String,
    /// Spec name; also the `results/<name>.json` output stem.
    pub name: String,
    /// Experiment-id stem for seeds and journal keys (empty → `name`).
    /// Every synthesized cell gets a per-(strategy, train) id derived
    /// from it, so no two matrix cells ever share a journal key.
    #[serde(default)]
    pub experiment: String,
    /// Selector-training datasets — the matrix rows. Plain text-dataset
    /// names (they are injected as `train=` parameters).
    pub train: Vec<String>,
    /// Application datasets — the matrix columns. Ordinary dataset
    /// tokens (modifiers like `?noise=` allowed), binary text only.
    pub apply: Vec<String>,
    /// Learned-selector strategy tokens (`LHS(...)` / `LAL(...)`),
    /// without a `train=` parameter — the grid injects one per row.
    pub strategies: Vec<String>,
    /// Train/test split seed for the application datasets.
    #[serde(default)]
    pub split_seed: u64,
    /// Scale overrides; set fields win over the command-line scale.
    #[serde(default)]
    pub scale: Option<ScaleSpec>,
}

/// One measured matrix cell: `strategy` trained on `train`, deployed on
/// `apply`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferRow {
    /// Strategy token, as written in the spec.
    pub strategy: String,
    /// Training dataset (matrix row).
    pub train: String,
    /// Application dataset display name (matrix column).
    pub apply: String,
    /// Mean per-repeat area under the learning curve.
    pub alc: f64,
    /// End-to-end wall clock of the cell (all repeats).
    pub wall_ms: f64,
}

/// The executed transfer matrix.
pub struct TransferOutcome {
    /// Matrix cells, application-dataset-major (the executor's block
    /// order): for each `apply`, for each `train`, one row per strategy.
    pub rows: Vec<TransferRow>,
    /// Wall clock of each fresh selector training, `(label, ms)`.
    pub selector_train_ms: Vec<(String, f64)>,
}

impl TransferSpec {
    /// Parse a transfer spec from its JSON text.
    pub fn from_json(json: &str) -> Result<TransferSpec, Error> {
        serde_json::from_str(json)
            .map_err(|e| Error::spec(format!("cannot parse transfer spec: {e}")))
    }

    /// Serialize to pretty JSON (the `specs/` file format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }

    /// The experiment-id stem used for seeds and journal keys.
    pub fn experiment_id(&self) -> &str {
        if self.experiment.is_empty() {
            &self.name
        } else {
            &self.experiment
        }
    }

    /// Resolve every reference eagerly so a broken spec fails with one
    /// actionable error before any selector trains.
    pub fn validate(&self) -> Result<(), Error> {
        if self.kind != TRANSFER_KIND {
            return Err(Error::spec(format!(
                "transfer spec `kind` must be {TRANSFER_KIND:?}, got {:?}",
                self.kind
            )));
        }
        if self.name.is_empty() {
            return Err(Error::spec("transfer spec `name` must not be empty"));
        }
        if self.train.is_empty() || self.apply.is_empty() || self.strategies.is_empty() {
            return Err(Error::spec(
                "a transfer spec needs at least one `train` dataset, one `apply` dataset \
                 and one strategy",
            ));
        }
        for name in &self.train {
            let spec = TextSpec::by_name(name).ok_or_else(|| {
                Error::unknown_name(
                    "selector training dataset",
                    name.clone(),
                    TextSpec::NAMES.iter().copied(),
                )
            })?;
            if spec.n_classes > 2 {
                return Err(Error::spec(format!(
                    "training dataset `{name}` is multiclass — learned selectors train on \
                     binary text tasks"
                )));
            }
        }
        for token in &self.apply {
            match registry::parse_dataset(token)? {
                registry::DatasetDef::Text { spec, .. } if spec.n_classes <= 2 => {}
                registry::DatasetDef::Text { .. } => {
                    return Err(Error::spec(format!(
                        "apply dataset `{token}` is multiclass — learned-selector cells are \
                         skipped there, so the matrix would have holes"
                    )))
                }
                registry::DatasetDef::Ner { .. } => {
                    return Err(Error::spec(format!(
                        "apply dataset `{token}` is an NER corpus — learned selectors are \
                         only supported on text datasets"
                    )))
                }
            }
        }
        for token in &self.strategies {
            let resolved = registry::parse_strategy(token)?;
            let Some(plan) = resolved.lhs else {
                return Err(Error::spec(format!(
                    "strategy `{token}` is not a learned selector — transfer grids take \
                     LHS(...) / LAL(...) tokens"
                )));
            };
            if plan.train.is_some() {
                return Err(Error::spec(format!(
                    "strategy `{token}` already pins `train=` — the transfer grid injects \
                     one per matrix row"
                )));
            }
        }
        Ok(())
    }

    /// Lower onto the experiment-grid engine: one group per training
    /// dataset (its label), strategy tokens with `train=` injected, and
    /// a per-(strategy, train) experiment id so no two matrix cells —
    /// which can share a base strategy name — collide on journal keys.
    pub fn to_experiment_spec(&self) -> ExperimentSpec {
        let exp = self.experiment_id();
        ExperimentSpec {
            name: self.name.clone(),
            split_seed: self.split_seed,
            datasets: self.apply.iter().map(DatasetEntry::new).collect(),
            groups: self
                .train
                .iter()
                .map(|ds| GroupSpec {
                    label: ds.clone(),
                    strategies: self
                        .strategies
                        .iter()
                        .enumerate()
                        .map(|(si, token)| StrategyEntry {
                            strategy: registry::add_selector_param(token, &format!("train={ds}")),
                            rename: None,
                            experiment: Some(format!("{exp}-s{si}-t-{ds}")),
                        })
                        .collect(),
                })
                .collect(),
            title: "Transfer — {dataset} / trained on {label}".into(),
            scale: self.scale.clone(),
            ..Default::default()
        }
    }
}

/// Execute a transfer spec through the grid engine. `serial` runs cells
/// one at a time (BENCH timing mode); repeats still fan out inside each
/// cell.
pub fn execute_transfer(
    spec: &TransferSpec,
    cli_scale: &Scale,
    journal: Option<&JournalCtx>,
    serial: bool,
) -> Result<TransferOutcome, Error> {
    spec.validate()?;
    let grid = spec.to_experiment_spec();
    let mut exec = GridExecutor::new(&grid, cli_scale).journal(journal);
    if serial {
        exec = exec.serial();
    }
    let outcome = exec.execute()?;
    // Blocks arrive application-dataset-major, one per (apply, train)
    // pair; validation guarantees no cell was skipped, so the block's
    // cells line up with the spec's strategy list.
    let mut rows = Vec::new();
    for block in &outcome.blocks {
        for (si, cell) in block.cells.iter().enumerate() {
            rows.push(TransferRow {
                strategy: spec
                    .strategies
                    .get(si)
                    .cloned()
                    .unwrap_or_else(|| cell.name.clone()),
                train: block.label.clone(),
                apply: block.dataset.clone(),
                alc: mean_auc(cell),
                wall_ms: cell.wall_ms,
            });
        }
    }
    Ok(TransferOutcome {
        rows,
        selector_train_ms: outcome.selector_train_ms,
    })
}

/// Print the per-strategy ALC matrices and the selector-training timing
/// table of an executed transfer grid.
pub fn render_transfer(spec: &TransferSpec, outcome: &TransferOutcome) {
    let (s, t, a) = (spec.strategies.len(), spec.train.len(), spec.apply.len());
    let idx = |ai: usize, ti: usize, si: usize| ai * t * s + ti * s + si;
    let apply_names: Vec<String> = (0..a)
        .map(|ai| outcome.rows[idx(ai, 0, 0)].apply.clone())
        .collect();
    for (si, strategy) in spec.strategies.iter().enumerate() {
        let rows: Vec<Vec<String>> = spec
            .train
            .iter()
            .enumerate()
            .map(|(ti, train)| {
                let mut row = vec![train.clone()];
                row.extend((0..a).map(|ai| format!("{:.4}", outcome.rows[idx(ai, ti, si)].alc)));
                row
            })
            .collect();
        let mut header: Vec<&str> = vec!["train \\ apply"];
        header.extend(apply_names.iter().map(String::as_str));
        print_table(&format!("Transfer ALC — {strategy}"), &header, &rows);
    }
    // Wall clocks go to stderr (like the `# adaptive:` summary), so
    // stdout stays byte-identical across resumes and thread counts.
    for (label, ms) in &outcome.selector_train_ms {
        eprintln!("# selector train: {label} {ms:.1} ms");
    }
}

/// Execute + render + persist one transfer spec — the `run --spec` path
/// for `kind: "transfer"` files. The results JSON is the flat matrix:
/// one `[strategy, train, apply, alc]` row per cell.
pub fn run_transfer(
    spec: &TransferSpec,
    cli_scale: &Scale,
    journal: Option<&JournalCtx>,
) -> Result<TransferOutcome, Error> {
    let outcome = execute_transfer(spec, cli_scale, journal, false)?;
    render_transfer(spec, &outcome);
    let json_rows: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.train.clone(),
                r.apply.clone(),
                format!("{:.6}", r.alc),
            ]
        })
        .collect();
    write_json(&spec.name, &json_rows);
    Ok(outcome)
}

/// `selector-train TOKEN DATASET OUT`: train the learned selector the
/// token describes on `dataset` and save it (with provenance) as an
/// `HLRN1` artifact at `out_path`.
pub fn selector_train(
    token: &str,
    dataset: &str,
    out_path: &str,
    scale: &Scale,
) -> Result<(), Error> {
    let resolved = registry::parse_strategy(token)?;
    let Some(mut plan) = resolved.lhs else {
        return Err(Error::spec(format!(
            "strategy `{token}` is not a learned selector — selector-train takes \
             LHS(...) / LAL(...) tokens"
        )));
    };
    let dataset = dataset.trim().to_ascii_lowercase();
    if TextSpec::by_name(&dataset).is_none() {
        return Err(Error::unknown_name(
            "selector training dataset",
            dataset,
            TextSpec::NAMES.iter().copied(),
        ));
    }
    plan.train = Some(dataset.clone());
    let selector = train_lhs_plan(&plan, scale)?;
    let (target, experiment) = match plan.target {
        TargetKind::Pairwise => ("pairwise", "lhs-train"),
        TargetKind::Pointwise => ("pointwise", "lal-train"),
    };
    let provenance = ArtifactProvenance {
        trained_on: dataset.clone(),
        base: plan.base.name().to_string(),
        target: target.to_string(),
        seed: seed_for(experiment, &dataset, plan.base.name(), 0),
    };
    save_artifacts(&selector, &provenance, Path::new(out_path))?;
    println!(
        "trained {} on {dataset} → {out_path} ({target} targets)",
        plan.label()
    );
    Ok(())
}

/// `selector-apply ARTIFACT DATASET`: load an `HLRN1` artifact and run
/// one active-learning pass with it on `dataset`, printing the learning
/// curve and its ALC — the deployment half of the transfer protocol.
pub fn selector_apply(artifact_path: &str, dataset: &str, scale: &Scale) -> Result<(), Error> {
    let (selector, provenance) = load_artifacts(Path::new(artifact_path))?;
    let tspec = TextSpec::by_name(dataset.trim())
        .ok_or_else(|| Error::unknown_name("dataset", dataset, TextSpec::NAMES.iter().copied()))?;
    if tspec.n_classes > 2 {
        return Err(Error::spec(format!(
            "dataset `{dataset}` is multiclass — learned selectors deploy on binary \
             text tasks"
        )));
    }
    let strategy = registry::parse_strategy(&provenance.base)?.strategy;
    let task = TextTask::build(&tspec, scale, 0);
    let config = text_pool_config(false, scale);
    let seed = seed_for("selector-apply", &task.name, &strategy.name(), 0);
    let mut result = task
        .builder(task.model(0), strategy, &config, seed)
        .lhs(Arc::new(selector))
        .build()
        .run()?;
    result.strategy_name = format!(
        "{}({})@{}",
        if provenance.target == "pointwise" {
            "LAL"
        } else {
            "LHS"
        },
        provenance.base,
        provenance.trained_on
    );
    let title = format!("{} applied to {}", result.strategy_name, task.name);
    print_curves(&title, std::slice::from_ref(&result));
    println!("ALC {:.4}", area_under_curve(&result));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransferSpec {
        TransferSpec {
            kind: TRANSFER_KIND.into(),
            name: "transfer-demo".into(),
            experiment: "tdemo".into(),
            train: vec!["subj".into(), "mr".into()],
            apply: vec!["mr".into(), "sst2".into()],
            strategies: vec!["LHS(entropy)".into(), "LAL(entropy)".into()],
            split_seed: 7,
            scale: Some(ScaleSpec {
                factor: None,
                repeats: Some(2),
            }),
        }
    }

    #[test]
    fn kind_probe_routes_transfer_files() {
        use crate::spec::SpecKind;
        let kind = SpecKind::of_json;
        assert_eq!(
            kind(r#"{"kind": "transfer", "name": "x"}"#),
            SpecKind::Transfer
        );
        assert_eq!(kind(r#"{"kind": "pool-scaling"}"#), SpecKind::PoolScaling);
        assert_eq!(kind(r#"{"name": "fig5"}"#), SpecKind::Experiment);
        assert_eq!(kind("not json"), SpecKind::Experiment);
    }

    #[test]
    fn round_trip_is_idempotent() {
        let spec = sample();
        let json = spec.to_json_pretty();
        let back = TransferSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json_pretty(), json);
    }

    #[test]
    fn validate_accepts_the_sample() {
        sample().validate().expect("sample spec validates");
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut spec = sample();
        spec.kind = "experiment".into();
        assert!(spec.validate().unwrap_err().to_string().contains("kind"));

        let mut spec = sample();
        spec.train = vec!["imdb".into()];
        assert!(spec.validate().unwrap_err().to_string().contains("imdb"));

        let mut spec = sample();
        spec.train = vec!["trec".into()];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("multiclass"));

        let mut spec = sample();
        spec.apply = vec!["trec".into()];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("multiclass"));

        let mut spec = sample();
        spec.apply = vec!["conll2003-en".into()];
        assert!(spec.validate().unwrap_err().to_string().contains("NER"));

        let mut spec = sample();
        spec.strategies = vec!["entropy".into()];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("learned selector"));

        let mut spec = sample();
        spec.strategies = vec!["LHS{train=subj}(entropy)".into()];
        assert!(spec.validate().unwrap_err().to_string().contains("train="));

        let mut spec = sample();
        spec.apply.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn lowering_builds_one_group_per_training_dataset() {
        let spec = sample();
        let grid = spec.to_experiment_spec();
        grid.validate().expect("lowered grid validates");
        assert_eq!(grid.datasets.len(), 2);
        assert_eq!(grid.groups.len(), 2);
        assert_eq!(grid.groups[0].label, "subj");
        assert_eq!(grid.groups[1].label, "mr");
        // Every cell has a distinct experiment id: strategies sharing a
        // base name must never collide on journal keys.
        let mut ids = Vec::new();
        for g in &grid.groups {
            for e in &g.strategies {
                let plan = registry::parse_strategy(&e.strategy)
                    .unwrap()
                    .lhs
                    .expect("transfer entries are selector tokens");
                assert_eq!(plan.train.as_deref(), Some(g.label.as_str()));
                let id = e.experiment.clone().expect("per-entry experiment id");
                assert!(!ids.contains(&id), "duplicate experiment id {id}");
                ids.push(id);
            }
        }
        assert_eq!(ids.len(), 4);
        assert!(ids.contains(&"tdemo-s0-t-subj".to_string()));
        assert!(ids.contains(&"tdemo-s1-t-mr".to_string()));
    }
}
