//! Experiment specifications, parsed from JSON.
//!
//! An [`ExperimentSpec`] is the declarative description of one
//! experiment grid: which datasets, which strategy groups, which seeds,
//! how to report. The JSON files under `specs/` at the repo root are
//! written by hand and only ever read: the figure/table commands of
//! `histal-experiments` parse embedded copies of those files and hand
//! them to the [`GridExecutor`](crate::executor::GridExecutor), and
//! `run --spec FILE` does the same for arbitrary user-written grids.
//! Unknown fields are refused, so a misspelt field never silently falls
//! back to its default.

use serde::{DeError, Deserialize, Value};

use histal_core::error::Error;

use crate::registry;

/// Reject a repeat count the seed derivation cannot honour:
/// [`crate::executor::seed_for`] folds the repeat index in as one byte,
/// so repeat 256 would reuse repeat 0's seed, and zero repeats leave
/// nothing to average. `what` names the setting in the error.
pub(crate) fn check_repeats(what: &str, repeats: usize) -> Result<(), Error> {
    if (1..=256).contains(&repeats) {
        Ok(())
    } else {
        Err(Error::spec(format!(
            "{what} must be in 1..=256, got {repeats} — seeds fold the repeat index into one byte"
        )))
    }
}

/// Declarative description of one experiment grid.
///
/// String-typed references (`datasets`, strategy tokens, `metrics`,
/// `model`) are resolved through the registries in
/// [`crate::registry`]; [`Self::validate`] resolves all of them eagerly
/// so a typo fails before any cell runs.
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExperimentSpec {
    /// Spec name; also the `results/<name>.json` output stem.
    pub name: String,
    /// Experiment id used in seed derivation and journal cell keys
    /// (empty → `name`). Kept separate from `name` so renaming an
    /// output file never invalidates old journals.
    #[serde(default)]
    pub experiment: String,
    /// Train/test split seed for text datasets (NER corpora carry their
    /// split sizes in the generator spec and ignore this).
    #[serde(default)]
    pub split_seed: u64,
    /// Model reference: `"logreg"` (default) or `"nb"` for text,
    /// `"crf"` (default) for NER.
    #[serde(default)]
    pub model: Option<String>,
    /// Dataset references (see [`registry::parse_dataset`]); all must
    /// resolve to the same task kind.
    pub datasets: Vec<DatasetEntry>,
    /// Strategy groups; each (dataset × group) pair is one report block.
    pub groups: Vec<GroupSpec>,
    /// Report title template; `{dataset}` and `{label}` are substituted
    /// per block.
    #[serde(default)]
    pub title: String,
    /// JSON grouping key template (same placeholders as `title`). When
    /// set, `results/<name>.json` is a list of `(key, results)` groups,
    /// one per block; when absent it is one flat result list.
    #[serde(default)]
    pub json_key: Option<String>,
    /// Scale overrides; set fields win over the command-line scale.
    #[serde(default)]
    pub scale: Option<ScaleSpec>,
    /// Pool-configuration overrides on top of the per-kind defaults.
    #[serde(default)]
    pub pool: Option<PoolSpec>,
    /// CRF score-beam width `δ` for NER cells
    /// ([`histal_models::CrfConfig::score_beam`]): scoring-only
    /// forward–backward passes prune lattice source states more than
    /// `δ` below each row's maximum. `None` (default, and the setting
    /// of every figure spec) keeps scoring exact. Fit and Viterbi are
    /// exact regardless. Text datasets ignore it.
    #[serde(default)]
    pub ner_beam: Option<f64>,
    /// Approximate-neighbor settings for the similarity combinators
    /// ([`histal_text::LshIndex`]). `None` (default, and the setting of
    /// every figure spec) keeps the exact exhaustive sweeps and the
    /// pre-ANN journal hashes; `Some` routes density/MMR/k-center
    /// neighbor queries through a seeded LSH index and joins the cell
    /// hash, mirroring `ner_beam`. Requires a `+density`/`+mmr`/
    /// `+kcenter` strategy on a text dataset.
    #[serde(default)]
    pub ann: Option<AnnSpec>,
    /// Annotation-cost model: a per-label cost and a total budget
    /// ceiling. When set, each cell's selection rounds are lowered to
    /// the largest count the budget affords (`init + k·batch` labels at
    /// `cost_per_label` each staying within `max_cost`); a shortened run
    /// is an exact RNG prefix of the full one. Joins the cell hash only
    /// when set, so budget-less specs keep their pre-existing journal
    /// hashes.
    #[serde(default)]
    pub budget: Option<BudgetSpec>,
    /// Successive-halving pruning policy for the adaptive scheduler.
    /// When set, cells run round-streamed and dominated cells stop
    /// early at checkpoints (see `DESIGN.md` §5.10 for the determinism
    /// rules). Joins the cell hash only when set — prune-less specs and
    /// their journals stay byte-identical to the classic executor.
    #[serde(default)]
    pub prune: Option<PruneSpec>,
    /// Paired-significance rendering for [`ReportKind::Metrics`]: every
    /// non-baseline cell is compared against `baseline` with a paired
    /// bootstrap or permutation test over the per-repeat curve points.
    /// Render-only — never part of seeds or cell hashes.
    #[serde(default)]
    pub significance: Option<SignificanceSpec>,
    /// Metric columns for [`ReportKind::Metrics`] (see
    /// `registry::parse_metric`).
    #[serde(default)]
    pub metrics: Vec<String>,
    /// Header of the dataset label column in metric tables (default
    /// `"Dataset"`).
    #[serde(default)]
    pub dataset_column: Option<String>,
    /// How to render the grid outcome.
    #[serde(default)]
    pub report: ReportKind,
}

/// One dataset reference, optionally display-renamed. Written as a bare
/// string or as a `{"dataset", "rename"}` object.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetEntry {
    /// Dataset token (see [`registry::parse_dataset`]).
    pub dataset: String,
    /// Display-name override for titles and label columns. Seeds and
    /// journal keys always use the generated corpus name, so renames
    /// never invalidate journals.
    pub rename: Option<String>,
}

impl DatasetEntry {
    /// A plain, un-renamed reference.
    pub fn new(dataset: impl Into<String>) -> Self {
        Self {
            dataset: dataset.into(),
            rename: None,
        }
    }
}

/// One strategy cell within a group. Written as a bare string or as a
/// `{"strategy", "rename", "experiment"}` object.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyEntry {
    /// Strategy token (see [`registry::parse_strategy`]).
    pub strategy: String,
    /// Display-name override for reports (seeds and journal keys always
    /// use the resolved strategy's canonical name).
    pub rename: Option<String>,
    /// Per-entry experiment-id override (seeds + journal keys), for
    /// grids whose historical seed pairing splits one group across
    /// experiment ids (e.g. fig3's `fig3` / `fig3-lhs`).
    pub experiment: Option<String>,
}

impl StrategyEntry {
    /// A plain entry with no overrides.
    pub fn new(strategy: impl Into<String>) -> Self {
        Self {
            strategy: strategy.into(),
            rename: None,
            experiment: None,
        }
    }
}

/// A named group of strategies; each (dataset × group) is one printed
/// block / JSON group.
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GroupSpec {
    /// Group label for `{label}` template substitution.
    #[serde(default)]
    pub label: String,
    /// The strategies of the group, in report order.
    pub strategies: Vec<StrategyEntry>,
}

/// Scale overrides; unset fields inherit the command-line scale.
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScaleSpec {
    /// Pool/budget multiplier.
    #[serde(default)]
    pub factor: Option<f64>,
    /// Independent repetitions to average.
    #[serde(default)]
    pub repeats: Option<usize>,
}

/// Pool-configuration overrides on top of the per-kind defaults
/// (batch 25/100 for binary/multiclass text, 100 for NER; rounds scaled
/// from the paper's 19).
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PoolSpec {
    /// Samples selected per round.
    #[serde(default)]
    pub batch_size: Option<usize>,
    /// Selection rounds after the seed batch.
    #[serde(default)]
    pub rounds: Option<usize>,
    /// Randomly labeled seed-set size.
    #[serde(default)]
    pub init_labeled: Option<usize>,
    /// Record full per-sample history sequences (forced on for
    /// [`ReportKind::TrendCensus`]).
    #[serde(default)]
    pub record_history: bool,
    /// Changes no run: every `+density` / `+mmr` / `+kcenter` cell gets
    /// its task's shared pool geometry from the strategy alone. Still
    /// parsed so spec files that set it keep loading; the
    /// out-of-workspace `benchmark/` package reads it.
    #[serde(default)]
    pub representations: bool,
}

/// Approximate-neighbor overrides; unset fields inherit the
/// [`histal_text::AnnConfig`] defaults (8 tables, auto bits, 2 probes).
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AnnSpec {
    /// Independent LSH hash tables (1..=64).
    #[serde(default)]
    pub tables: Option<usize>,
    /// Signature width in bits; 0 or unset = auto from pool size
    /// (explicit widths are capped at 20).
    #[serde(default)]
    pub bits: Option<usize>,
    /// One-bit-flip probes per table per query.
    #[serde(default)]
    pub probes: Option<usize>,
}

impl AnnSpec {
    /// Check the LSH knobs against the index's bounds.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        let bad = |field: &str, bound: &str, got: usize| {
            Err(Error::spec(format!(
                "`ann.{field}` must be {bound}, got {got}"
            )))
        };
        match *self {
            AnnSpec {
                tables: Some(t), ..
            } if !(1..=64).contains(&t) => bad("tables", "in 1..=64", t),
            AnnSpec { bits: Some(b), .. } if b > 20 => bad("bits", "0 (auto) or at most 20", b),
            AnnSpec {
                probes: Some(q), ..
            } if q > 20 => bad("probes", "at most 20", q),
            _ => Ok(()),
        }
    }

    /// Lower the spec overrides onto the crate defaults.
    pub(crate) fn to_config(&self) -> histal_text::AnnConfig {
        let d = histal_text::AnnConfig::default();
        histal_text::AnnConfig {
            tables: self.tables.unwrap_or(d.tables),
            bits: self.bits.unwrap_or(d.bits),
            probes: self.probes.unwrap_or(d.probes),
        }
    }
}

/// Annotation-cost/budget model. Unset fields take the defaults noted
/// per field; `max_cost` itself is required (validated) — a budget with
/// no ceiling caps nothing.
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BudgetSpec {
    /// Cost of one annotated sample (default 1.0, i.e. the budget is a
    /// label count).
    #[serde(default)]
    pub cost_per_label: Option<f64>,
    /// Total annotation budget; rounds stop before the first batch that
    /// would exceed it.
    #[serde(default)]
    pub max_cost: Option<f64>,
}

impl BudgetSpec {
    /// The largest selection-round count the budget affords on top of
    /// the seed set: `init + k·batch` labels at `cost_per_label` each
    /// must stay within `max_cost`.
    pub(crate) fn affordable_rounds(&self, init_labeled: usize, batch_size: usize) -> usize {
        let cost = self.cost_per_label.unwrap_or(1.0);
        let max = match self.max_cost {
            Some(m) => m,
            None => return usize::MAX,
        };
        let labels = (max / cost).floor();
        let after_init = labels - init_labeled as f64;
        if after_init <= 0.0 {
            0
        } else {
            (after_init / batch_size.max(1) as f64).floor() as usize
        }
    }
}

/// Successive-halving pruning policy for the adaptive grid scheduler.
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PruneSpec {
    /// Rounds between pruning decisions (default 2): interim curves are
    /// compared each time every live cell has completed another
    /// `checkpoint` selection rounds.
    #[serde(default)]
    pub checkpoint: Option<usize>,
    /// Domination margin (default 0.0): a cell is pruned only when some
    /// single competitor beats it by at least this much on *every*
    /// paired repeat (and strictly on at least one).
    #[serde(default)]
    pub margin: Option<f64>,
}

impl PruneSpec {
    /// Rounds between pruning decisions.
    pub(crate) fn checkpoint_rounds(&self) -> usize {
        self.checkpoint.unwrap_or(2).max(1)
    }

    /// Domination margin.
    pub(crate) fn margin_value(&self) -> f64 {
        self.margin.unwrap_or(0.0)
    }
}

/// Paired-significance rendering settings for metric reports.
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SignificanceSpec {
    /// Display name of the baseline strategy every other cell is
    /// compared against (an entry's `rename`, or its resolved display
    /// name).
    pub baseline: String,
    /// `"bootstrap"` (default) or `"permutation"`.
    #[serde(default)]
    pub method: Option<String>,
    /// Resampling iterations (default 2000).
    #[serde(default)]
    pub iters: Option<usize>,
    /// Two-sided significance level (default 0.05).
    #[serde(default)]
    pub alpha: Option<f64>,
    /// Resampling RNG seed (default 0x51). Render-only: never part of
    /// cell seeds or hashes.
    #[serde(default)]
    pub seed: Option<u64>,
}

/// How a grid outcome is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportKind {
    /// Learning-curve tables per block + curves JSON.
    #[default]
    Curves,
    /// One row per cell with the spec's metric columns.
    Metrics,
    /// Mean WSHS / fluctuation scores of the selected samples.
    SelectionStats,
    /// Mean per-round phase timings (train / eval / fold / select).
    Timing,
    /// Mann–Kendall census of the recorded history sequences.
    TrendCensus,
    /// Metric at evenly spaced label-budget checkpoints.
    Checkpoints,
    /// One `train \ apply` table of mean per-repeat ALCs per strategy
    /// display name: group labels are the rows (the datasets a
    /// `train=` selector learned on), datasets the columns.
    AlcMatrix,
}

impl ReportKind {
    const NAMES: &'static [(&'static str, ReportKind)] = &[
        ("curves", ReportKind::Curves),
        ("metrics", ReportKind::Metrics),
        ("selection-stats", ReportKind::SelectionStats),
        ("timing", ReportKind::Timing),
        ("trend-census", ReportKind::TrendCensus),
        ("checkpoints", ReportKind::Checkpoints),
        ("alc-matrix", ReportKind::AlcMatrix),
    ];
}

impl Deserialize for ReportKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::custom("report kind must be a string"))?;
        Self::NAMES
            .iter()
            .find(|(n, _)| *n == s)
            .map(|(_, k)| *k)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::NAMES.iter().map(|(n, _)| *n).collect();
                DeError::custom(format!(
                    "unknown report kind `{s}` (valid: {})",
                    names.join(", ")
                ))
            })
    }
}

impl Deserialize for StrategyEntry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(StrategyEntry::new(s.clone())),
            Value::Map(entries) => {
                let mut out = StrategyEntry::new(String::new());
                let mut saw_strategy = false;
                for (k, val) in entries {
                    let s = val
                        .as_str()
                        .ok_or_else(|| {
                            DeError::custom(format!("strategy entry field `{k}` must be a string"))
                        })?
                        .to_string();
                    match k.as_str() {
                        "strategy" => {
                            out.strategy = s;
                            saw_strategy = true;
                        }
                        "rename" => out.rename = Some(s),
                        "experiment" => out.experiment = Some(s),
                        _ => {
                            return Err(DeError::custom(format!(
                                "unknown strategy entry field `{k}` (valid: strategy, rename, experiment)"
                            )))
                        }
                    }
                }
                if !saw_strategy {
                    return Err(DeError::custom("strategy entry is missing `strategy`"));
                }
                Ok(out)
            }
            _ => Err(DeError::custom(
                "strategy entry must be a string or an object",
            )),
        }
    }
}

impl Deserialize for DatasetEntry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(DatasetEntry::new(s.clone())),
            Value::Map(entries) => {
                let mut out = DatasetEntry::new(String::new());
                let mut saw_dataset = false;
                for (k, val) in entries {
                    let s = val
                        .as_str()
                        .ok_or_else(|| {
                            DeError::custom(format!("dataset entry field `{k}` must be a string"))
                        })?
                        .to_string();
                    match k.as_str() {
                        "dataset" => {
                            out.dataset = s;
                            saw_dataset = true;
                        }
                        "rename" => out.rename = Some(s),
                        _ => {
                            return Err(DeError::custom(format!(
                                "unknown dataset entry field `{k}` (valid: dataset, rename)"
                            )))
                        }
                    }
                }
                if !saw_dataset {
                    return Err(DeError::custom("dataset entry is missing `dataset`"));
                }
                Ok(out)
            }
            _ => Err(DeError::custom(
                "dataset entry must be a string or an object",
            )),
        }
    }
}

impl ExperimentSpec {
    /// Parse a spec from its JSON text.
    pub fn from_json(json: &str) -> Result<ExperimentSpec, Error> {
        serde_json::from_str(json).map_err(|e| Error::spec(format!("cannot parse spec: {e}")))
    }

    /// The experiment id used for seeds and journal keys.
    pub fn experiment_id(&self) -> &str {
        if self.experiment.is_empty() {
            &self.name
        } else {
            &self.experiment
        }
    }

    /// Resolve every registry reference eagerly, so a broken spec fails
    /// with one actionable error before any cell runs.
    pub fn validate(&self) -> Result<(), Error> {
        if self.name.is_empty() {
            return Err(Error::spec("spec `name` must not be empty"));
        }
        if self.datasets.is_empty() {
            return Err(Error::spec("spec lists no datasets"));
        }
        if self.groups.iter().all(|g| g.strategies.is_empty()) {
            return Err(Error::spec("spec lists no strategies"));
        }
        let mut kind = None;
        let mut multiclass = None;
        for d in &self.datasets {
            let def = registry::parse_dataset(&d.dataset)?;
            if matches!(&def, registry::DatasetDef::Text { spec, .. } if spec.n_classes > 2) {
                multiclass.get_or_insert(&d.dataset);
            }
            match kind {
                None => kind = Some(def.kind()),
                Some(k) if k != def.kind() => {
                    return Err(Error::spec(format!(
                        "dataset `{}` mixes task kinds within one spec — split text and NER \
                         datasets into separate specs",
                        d.dataset
                    )))
                }
                _ => {}
            }
        }
        let kind = kind.expect("datasets checked non-empty");
        let model = registry::parse_model(self.model.as_deref(), kind)?;
        let mut diversity = false;
        let alc_matrix = self.report == ReportKind::AlcMatrix;
        // Every dataset shares `kind`, so resolving each entry once vets
        // every dataset × entry cell.
        for g in &self.groups {
            for e in &g.strategies {
                let resolved = registry::resolve_cell(kind, model, &e.strategy)?;
                if let Some(dataset) = multiclass.filter(|_| alc_matrix && resolved.lhs.is_some()) {
                    return Err(Error::spec(format!(
                        "strategy `{}` on multiclass dataset `{dataset}`: the grid skips \
                         learned-selector cells there, so the `alc-matrix` would have a hole",
                        e.strategy
                    )));
                }
                diversity |= resolved.strategy.needs_representations();
            }
        }
        if let Some(r) = self.scale.as_ref().and_then(|s| s.repeats) {
            check_repeats("`scale.repeats`", r)?;
        }
        if self.pool.as_ref().and_then(|p| p.batch_size) == Some(0) {
            return Err(Error::spec("`pool.batch_size` must be at least 1"));
        }
        for m in &self.metrics {
            registry::parse_metric(m)?;
        }
        if self.report == ReportKind::Metrics && self.metrics.is_empty() {
            return Err(Error::spec("a `metrics` report needs at least one metric"));
        }
        if let Some(beam) = self.ner_beam {
            if !(beam.is_finite() && beam > 0.0) {
                return Err(Error::spec(format!(
                    "`ner_beam` must be a positive finite width, got {beam}"
                )));
            }
            if kind != registry::TaskKind::Ner {
                return Err(Error::spec(
                    "`ner_beam` only applies to NER datasets — remove it from text specs",
                ));
            }
        }
        if let Some(ann) = &self.ann {
            if kind != registry::TaskKind::Text {
                return Err(Error::spec(
                    "`ann` only applies to text datasets — NER cells have no pool geometry",
                ));
            }
            if !diversity {
                return Err(Error::spec(
                    "`ann` indexes the pool geometry, which only `+density`/`+mmr`/\
                     `+kcenter` strategies read — without one the index would never be \
                     consulted",
                ));
            }
            ann.validate()?;
        }
        if let Some(b) = &self.budget {
            let cost = b.cost_per_label.unwrap_or(1.0);
            if !(cost.is_finite() && cost > 0.0) {
                return Err(Error::invariant(format!(
                    "`budget.cost_per_label` must be a positive finite cost, got {cost}"
                )));
            }
            match b.max_cost {
                None => {
                    return Err(Error::invariant(
                        "`budget.max_cost` must be set — a budget with no ceiling caps nothing",
                    ))
                }
                Some(m) if !(m.is_finite() && m > 0.0) => {
                    return Err(Error::invariant(format!(
                        "`budget.max_cost` must be a positive finite budget, got {m}"
                    )))
                }
                Some(_) => {}
            }
        }
        if let Some(p) = &self.prune {
            if p.checkpoint == Some(0) {
                return Err(Error::invariant(
                    "`prune.checkpoint` must be at least 1 round between decisions",
                ));
            }
            if let Some(m) = p.margin {
                if !(m.is_finite() && m >= 0.0) {
                    return Err(Error::invariant(format!(
                        "`prune.margin` must be a finite non-negative margin, got {m}"
                    )));
                }
            }
        }
        if let Some(s) = &self.significance {
            match s.method.as_deref() {
                None | Some("bootstrap") | Some("permutation") => {}
                Some(other) => {
                    return Err(Error::unknown_name(
                        "significance method",
                        other,
                        ["bootstrap", "permutation"],
                    ))
                }
            }
            if s.iters == Some(0) {
                return Err(Error::invariant(
                    "`significance.iters` must be at least 1 resampling iteration",
                ));
            }
            if let Some(a) = s.alpha {
                if !(a > 0.0 && a < 1.0) {
                    return Err(Error::invariant(format!(
                        "`significance.alpha` must lie strictly between 0 and 1, got {a}"
                    )));
                }
            }
            if self.report != ReportKind::Metrics {
                return Err(Error::invariant(
                    "`significance` renders into metric tables — set `report: \"metrics\"`",
                ));
            }
            let mut displays = Vec::new();
            for g in &self.groups {
                for e in &g.strategies {
                    displays.push(match &e.rename {
                        Some(r) => r.clone(),
                        None => registry::parse_strategy(&e.strategy)?.display_name(),
                    });
                }
            }
            if !displays.contains(&s.baseline) {
                return Err(Error::unknown_name(
                    "significance baseline",
                    &s.baseline,
                    displays,
                ));
            }
        }
        Ok(())
    }
}

/// Substitute `{dataset}` / `{label}` placeholders in a title or
/// json-key template.
pub(crate) fn render_template(template: &str, dataset: &str, label: &str) -> String {
    template
        .replace("{dataset}", dataset)
        .replace("{label}", label)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentSpec {
        ExperimentSpec {
            name: "demo".into(),
            experiment: "demo-x".into(),
            split_seed: 7,
            model: None,
            datasets: vec![DatasetEntry::new("mr")],
            groups: vec![GroupSpec {
                label: "entropy".into(),
                strategies: vec![
                    StrategyEntry::new("entropy"),
                    StrategyEntry {
                        strategy: "WSHS{l=6}(entropy)".into(),
                        rename: Some("WSHS l=6".into()),
                        experiment: None,
                    },
                ],
            }],
            title: "Demo — {dataset} / {label}".into(),
            json_key: Some("{dataset}".into()),
            scale: Some(ScaleSpec {
                factor: None,
                repeats: Some(2),
            }),
            pool: None,
            metrics: vec!["final".into(), "alc".into()],
            dataset_column: None,
            report: ReportKind::Curves,
            ner_beam: None,
            ann: None,
            budget: None,
            prune: None,
            significance: None,
        }
    }

    #[test]
    fn validate_catches_bad_references() {
        let mut spec = sample();
        spec.datasets = vec![DatasetEntry::new("imdb")];
        assert!(spec.validate().unwrap_err().to_string().contains("imdb"));
        let mut spec = sample();
        spec.groups[0]
            .strategies
            .push(StrategyEntry::new("WSHS(entrpy)"));
        assert!(spec.validate().unwrap_err().to_string().contains("entrpy"));
        let mut spec = sample();
        spec.metrics = vec!["auc".into()];
        assert!(spec.validate().is_err());
        let mut spec = sample();
        spec.datasets.push(DatasetEntry::new("conll2003-en"));
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("task kinds"));
        let mut spec = sample();
        spec.model = Some("transformer".into());
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("transformer"));
        // A diversity suffix gets its geometry from the strategy alone on
        // text datasets; NER tasks build none, and a learned selector
        // ranks its own candidates.
        let mut spec = sample();
        for token in ["entropy+density", "entropy+mmr", "entropy+kcenter"] {
            spec.groups[0].strategies = vec![StrategyEntry::new(token)];
            assert!(spec.validate().is_ok(), "{token}");
        }
        for token in [
            "LHS(entropy)+density",
            "LHS(entropy)+mmr",
            "LAL(entropy)+kcenter",
        ] {
            let mut lhs = sample();
            lhs.groups[0].strategies = vec![StrategyEntry::new(token)];
            let msg = lhs.validate().unwrap_err().to_string();
            assert!(msg.contains(token) && msg.contains("LHS`/`LAL"), "{msg}");
        }
        spec.datasets = vec![DatasetEntry::new("conll2003-en")];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("text datasets"));
        assert!(sample().validate().is_ok());
    }

    fn validate_dataset(token: &str) -> Result<(), Error> {
        let mut spec = sample();
        spec.datasets = vec![DatasetEntry::new(token)];
        spec.validate()
    }

    #[test]
    fn validate_rejects_priors_that_do_not_sum_to_one() {
        assert!(validate_dataset("mr?priors=0.9/0.3").is_err());
    }

    #[test]
    fn validate_rejects_noise_rate_above_one() {
        assert!(validate_dataset("mr?noise=1.5").is_err());
    }

    #[test]
    fn validate_rejects_negative_or_non_finite_noise_rate() {
        assert!(validate_dataset("mr?noise=-0.5").is_err());
        assert!(validate_dataset("mr?noise=NaN").is_err());
    }

    #[test]
    fn validate_rejects_zero_batch_size() {
        let mut spec = sample();
        spec.pool = Some(PoolSpec {
            batch_size: Some(0),
            ..Default::default()
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn experiment_id_defaults_to_name() {
        let mut spec = sample();
        assert_eq!(spec.experiment_id(), "demo-x");
        spec.experiment.clear();
        assert_eq!(spec.experiment_id(), "demo");
    }

    fn adaptive_sample() -> ExperimentSpec {
        let mut spec = sample();
        spec.budget = Some(BudgetSpec {
            cost_per_label: Some(2.0),
            max_cost: Some(500.0),
        });
        spec.prune = Some(PruneSpec {
            checkpoint: Some(2),
            margin: Some(0.01),
        });
        spec.significance = Some(SignificanceSpec {
            baseline: "entropy".into(),
            method: Some("permutation".into()),
            iters: Some(1000),
            alpha: Some(0.05),
            seed: Some(7),
        });
        spec.report = ReportKind::Metrics;
        spec
    }

    #[test]
    fn adaptive_sample_parses_from_literal_json() {
        let json = r#"{
            "name": "demo",
            "experiment": "demo-x",
            "split_seed": 7,
            "datasets": ["mr"],
            "groups": [{"label": "entropy", "strategies": [
                "entropy",
                {"strategy": "WSHS{l=6}(entropy)", "rename": "WSHS l=6"}
            ]}],
            "title": "Demo — {dataset} / {label}",
            "json_key": "{dataset}",
            "scale": {"repeats": 2},
            "budget": {"cost_per_label": 2.0, "max_cost": 500.0},
            "prune": {"checkpoint": 2, "margin": 0.01},
            "significance": {"baseline": "entropy", "method": "permutation",
                             "iters": 1000, "alpha": 0.05, "seed": 7},
            "metrics": ["final", "alc"],
            "report": "metrics"
        }"#;
        let spec = ExperimentSpec::from_json(json).unwrap();
        assert_eq!(spec, adaptive_sample());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validate_checks_ann() {
        let ann = AnnSpec {
            tables: Some(4),
            bits: None,
            probes: Some(1),
        };
        let mut spec = sample();
        spec.ann = Some(ann.clone());
        // Without a diversity strategy no geometry is built to index.
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("`ann`") && msg.contains("+mmr"), "{msg}");
        spec.groups[0].strategies = vec![StrategyEntry::new("entropy+mmr")];
        spec.validate()
            .expect("ann over an MMR text grid validates");
        // The LSH bounds.
        for field in ["tables", "bits", "probes"] {
            let mut bad = ann.clone();
            match field {
                "tables" => bad.tables = Some(65),
                "bits" => bad.bits = Some(21),
                _ => bad.probes = Some(21),
            }
            spec.ann = Some(bad);
            let msg = spec.validate().unwrap_err().to_string();
            assert!(msg.contains(&format!("`ann.{field}`")), "{msg}");
        }
        spec.ann = Some(ann);
        spec.datasets = vec![DatasetEntry::new("conll2003-en")];
        assert!(spec.validate().is_err(), "NER tasks have no geometry");
    }

    #[test]
    fn validate_catches_bad_adaptive_fields() {
        let mut spec = adaptive_sample();
        spec.budget = Some(BudgetSpec {
            cost_per_label: Some(1.0),
            max_cost: None,
        });
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_cost"));
        let mut spec = adaptive_sample();
        spec.prune = Some(PruneSpec {
            checkpoint: Some(0),
            margin: None,
        });
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("checkpoint"));
        let mut spec = adaptive_sample();
        spec.significance.as_mut().unwrap().method = Some("wilcoxon".into());
        let msg = spec.validate().unwrap_err().to_string();
        assert!(
            msg.contains("wilcoxon") && msg.contains("permutation"),
            "{msg}"
        );
        let mut spec = adaptive_sample();
        spec.significance.as_mut().unwrap().baseline = "margin".into();
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("margin") && msg.contains("WSHS l=6"), "{msg}");
        let mut spec = adaptive_sample();
        spec.report = ReportKind::Curves;
        assert!(spec.validate().unwrap_err().to_string().contains("metrics"));
    }

    #[test]
    fn budget_affordable_rounds() {
        let budget = |cost: Option<f64>, max: Option<f64>| BudgetSpec {
            cost_per_label: cost,
            max_cost: max,
        };
        // 500 labels at cost 1: init 25 + 19 batches of 25 fits exactly.
        assert_eq!(budget(None, Some(500.0)).affordable_rounds(25, 25), 19);
        // One label short of the last batch drops a round.
        assert_eq!(budget(None, Some(499.0)).affordable_rounds(25, 25), 18);
        // Cost 2 halves the label count.
        assert_eq!(budget(Some(2.0), Some(500.0)).affordable_rounds(25, 25), 9);
        // Budget below the seed set affords no selection rounds.
        assert_eq!(budget(None, Some(10.0)).affordable_rounds(25, 25), 0);
        // No ceiling → unconstrained (validate() rejects this spec).
        assert_eq!(budget(None, None).affordable_rounds(25, 25), usize::MAX);
    }

    #[test]
    fn alc_matrix_rejects_learned_cells_the_grid_would_skip() {
        let mut spec = sample();
        spec.report = ReportKind::AlcMatrix;
        spec.groups[0].strategies = vec![StrategyEntry::new("LHS{train=subj}(entropy)")];
        spec.validate().expect("binary datasets fill every cell");
        spec.datasets.push(DatasetEntry::new("trec"));
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("`trec`") && msg.contains("hole"), "{msg}");
        // Other reports show the skipped cell as absent (fig3's TREC).
        spec.report = ReportKind::Curves;
        spec.validate().expect("curves tolerate skipped cells");
    }
}
