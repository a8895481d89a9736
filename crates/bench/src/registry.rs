//! Name-keyed registries behind the declarative experiment engine.
//!
//! These registries resolve the string tokens an
//! [`ExperimentSpec`](crate::spec::ExperimentSpec) carries into the
//! concrete objects the executor runs:
//!
//! * [`parse_strategy`] — the strategy grammar (`base`,
//!   `WRAPPER(base)`, `WRAPPER{param=value,…}(base)`, plus `+density` /
//!   `+mmr` / `+kcenter` diversity suffixes). Subsumes the old
//!   `Option`-returning `parse_strategy` of the experiments module: an
//!   unknown token now produces a structured
//!   [`histal_core::error::Error`] naming the token and listing every
//!   valid strategy and wrapper.
//! * [`parse_dataset`] — dataset references over the `histal-data`
//!   builders (`mr`, `sst2`, `trec`, `conll2003-en`, …), with optional
//!   `?noise=RATE` / `?priors=a/b` generation modifiers.
//! * `parse_metric` — pluggable report metrics (`final`, `alc`,
//!   `target:T`, `speedup:REF`), evaluated over the full learning curve
//!   in `evaluate_metric`.
//! * [`parse_model`] and [`resolve_cell`] — the `model` token, and every
//!   rule on which (task, model, strategy) cells can run.
//!
//! All of them return `Result<_, histal_core::error::Error>` with
//! [`ErrorKind::UnknownName`](histal_core::error::ErrorKind) /
//! [`ErrorKind::Spec`](histal_core::error::ErrorKind) payloads, so a
//! typo'd spec fails with an actionable message instead of a silent
//! `None`.

use histal_core::analysis::{area_under_curve, format_cost, samples_to_target};
use histal_core::driver::RunResult;
use histal_core::error::Error;
use histal_core::learned::{LhsFeatureConfig, PredictorKind, RankerKind, TargetKind};
use histal_core::strategy::{BaseStrategy, DensityConfig, HistoryPolicy, MmrConfig, Strategy};
use histal_data::{NerSpec, TextSpec};
use histal_ltr::LambdaMartConfig;

/// History window used throughout the harness defaults (the paper
/// recommends 3–5; Fig. 5).
pub(crate) const WINDOW: usize = 3;
/// Default FHS fluctuation weight (Fig. 5 finds w_f ≈ 0.5 best); the
/// score weight is `1 - w_f`.
pub(crate) const FHS_WF: f64 = 0.5;

/// Canonical base-strategy names the grammar accepts.
pub const BASE_NAMES: &[&str] = &[
    "random", "entropy", "lc", "margin", "egl", "egl-word", "bald", "mnlp", "qbc",
];

/// Wrapper names the grammar accepts (shown as `WRAPPER(base)` in
/// error listings).
pub(crate) const WRAPPER_NAMES: &[&str] = &["HUS", "WSHS", "FHS", "HKLD", "LHS", "LAL"];

/// Everything a strategy token resolves to. `strategy` is what the
/// driver runs (and what seeds / journal cell keys derive from — for an
/// LHS token that is the *base* strategy, matching the historical
/// hand-coded grids); `lhs` is the selector-training plan for LHS
/// tokens; `display` overrides the report label when it differs from
/// `strategy.name()` (again only for LHS).
#[derive(Debug, Clone)]
pub struct ResolvedStrategy {
    /// The configured driver strategy.
    pub strategy: Strategy,
    /// Selector training plan, for `LHS(...)` tokens.
    pub lhs: Option<LhsPlan>,
    /// Report label override (e.g. `"LHS(entropy)"`).
    pub display: Option<String>,
}

impl ResolvedStrategy {
    /// The label this strategy carries in reports.
    pub(crate) fn display_name(&self) -> String {
        self.display.clone().unwrap_or_else(|| self.strategy.name())
    }
}

/// How to train an LHS selector (ranker + predictor + feature set);
/// §4.4's protocol trains it once on the Subj analogue and applies it
/// to the target dataset.
#[derive(Debug, Clone)]
pub struct LhsPlan {
    /// Base strategy whose scores seed the history corpus.
    pub base: BaseStrategy,
    /// Feature groups the ranker sees.
    pub features: LhsFeatureConfig,
    /// Next-score predictor.
    pub predictor: PredictorKind,
    /// Learning-to-rank model.
    pub ranker: RankerKind,
    /// Target shape the training simulation emits: pairwise ranking
    /// groups (`LHS`) or pointwise regression deltas (`LAL`).
    pub target: TargetKind,
    /// Append pool-level meta-features (label ratio, pool size, round,
    /// score moments) to every feature row — the transfer-enabling block.
    pub use_meta: bool,
    /// Training dataset override (`train=DATASET`); `None` keeps the
    /// historical Subj-analogue protocol.
    pub train: Option<String>,
}

impl LhsPlan {
    /// Cache key: two plans with equal keys train identical selectors.
    /// New components join only when set, so classic `LHS(...)` plans
    /// keep their historical keys.
    pub fn cache_key(&self) -> String {
        let mut key = format!(
            "{:?}|{:?}|{:?}|{:?}",
            self.base, self.features, self.predictor, self.ranker
        );
        if let Some(v) = self.variant() {
            key.push('|');
            key.push_str(&v);
        }
        key
    }

    /// Human-readable selector label (`LHS(entropy)`, `LAL(entropy)@mr`)
    /// for training-time tables and the BENCH artifact. Non-default
    /// meta-feature settings join as an explicit `{meta=...}` block so
    /// two plans never share a label while training different rankers.
    pub(crate) fn label(&self) -> String {
        let wrapper = match self.target {
            TargetKind::Pairwise => "LHS",
            TargetKind::Pointwise => "LAL",
        };
        let meta_default = self.target == TargetKind::Pointwise;
        let meta = if self.use_meta == meta_default {
            String::new()
        } else {
            format!("{{meta={}}}", if self.use_meta { "on" } else { "off" })
        };
        let train = self
            .train
            .as_deref()
            .map(|ds| format!("@{ds}"))
            .unwrap_or_default();
        format!("{wrapper}{meta}({}){train}", self.base.name())
    }

    /// Compact tag of everything that departs from the classic LHS
    /// configuration, `None` for a default plan. Joins the replay-guard
    /// cell hash only when set, so classic cells keep their historical
    /// hashes while `LAL` / `train=` / `meta=` cells hash apart.
    pub(crate) fn variant(&self) -> Option<String> {
        let mut parts = Vec::new();
        if self.target == TargetKind::Pointwise {
            parts.push("lal".to_string());
        }
        if self.use_meta {
            parts.push("meta".to_string());
        }
        if let Some(ds) = &self.train {
            parts.push(format!("train={ds}"));
        }
        (!parts.is_empty()).then(|| parts.join(","))
    }
}

fn valid_strategy_names() -> Vec<String> {
    BASE_NAMES
        .iter()
        .map(|b| b.to_string())
        .chain(WRAPPER_NAMES.iter().map(|w| format!("{w}(base)")))
        .collect()
}

fn parse_base(token: &str) -> Result<BaseStrategy, Error> {
    match token.to_ascii_lowercase().as_str() {
        "random" => Ok(BaseStrategy::Random),
        "entropy" => Ok(BaseStrategy::Entropy),
        "lc" | "least-confidence" | "leastconfidence" => Ok(BaseStrategy::LeastConfidence),
        "margin" => Ok(BaseStrategy::Margin),
        "egl" => Ok(BaseStrategy::Egl),
        "egl-word" | "eglword" => Ok(BaseStrategy::EglWord),
        "bald" => Ok(BaseStrategy::Bald),
        "mnlp" => Ok(BaseStrategy::Mnlp),
        "qbc" => Ok(BaseStrategy::QbcKl),
        _ => Err(Error::unknown_name(
            "strategy",
            token,
            valid_strategy_names(),
        )),
    }
}

/// One `key=value` wrapper parameter (`WSHS{l=6}(entropy)`).
struct Param<'a> {
    key: String,
    value: &'a str,
}

fn parse_params(body: &str) -> Result<Vec<Param<'_>>, Error> {
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, v) = part.split_once('=').ok_or_else(|| {
            Error::spec(format!("parameter `{part}` is not of the form key=value"))
        })?;
        out.push(Param {
            key: k.trim().to_ascii_lowercase(),
            value: v.trim(),
        });
    }
    Ok(out)
}

fn param_usize(p: &Param<'_>) -> Result<usize, Error> {
    p.value.parse().map_err(|_| {
        Error::spec(format!(
            "parameter `{}={}` is not an integer",
            p.key, p.value
        ))
    })
}

/// A history window (`k` / `l`): a positive integer. A zero window has
/// nothing to fold, so it is a spec error rather than an all-zero score.
fn param_window(p: &Param<'_>) -> Result<usize, Error> {
    match param_usize(p)? {
        0 => Err(Error::spec(format!(
            "parameter `{}=0`: the history window must be positive",
            p.key
        ))),
        l => Ok(l),
    }
}

fn param_f64(p: &Param<'_>) -> Result<f64, Error> {
    p.value
        .parse()
        .map_err(|_| Error::spec(format!("parameter `{}={}` is not a number", p.key, p.value)))
}

fn param_bool(p: &Param<'_>) -> Result<bool, Error> {
    match p.value {
        "true" | "on" | "1" => Ok(true),
        "false" | "off" | "0" => Ok(false),
        _ => Err(Error::spec(format!(
            "parameter `{}={}` is not a boolean",
            p.key, p.value
        ))),
    }
}

/// Unknown `key=value` wrapper parameter — an [`ErrorKind::UnknownName`]
/// listing the valid parameter names, matching the strategy-token error
/// style (so a typo'd `LHS{predicter=...}` reads like a typo'd wrapper).
///
/// [`ErrorKind::UnknownName`]: histal_core::error::ErrorKind
fn unknown_param(wrapper: &str, p: &Param<'_>, valid: &[&str]) -> Error {
    let what = match wrapper {
        "HUS" => "HUS parameter",
        "WSHS" => "WSHS parameter",
        "FHS" => "FHS parameter",
        "HKLD" => "HKLD parameter",
        "LHS" => "LHS parameter",
        "LAL" => "LAL parameter",
        _ => "wrapper parameter",
    };
    Error::unknown_name(what, p.key.clone(), valid.iter().copied())
}

/// Resolve a selector-training dataset to its canonical name
/// (`sst-2` → `sst2`), so every spelling of one corpus trains, caches
/// and labels the same selector. Only binary text datasets can train
/// one: the simulated labelling histories rank binary uncertainty.
pub(crate) fn training_dataset(name: &str) -> Result<&'static str, Error> {
    let name = name.trim();
    let spec = TextSpec::by_name(name).ok_or_else(|| {
        Error::unknown_name(
            "selector training dataset",
            name,
            TextSpec::NAMES.iter().copied(),
        )
    })?;
    if spec.n_classes > 2 {
        return Err(Error::spec(format!(
            "training dataset `{name}` is multiclass — learned selectors train on binary \
             text tasks"
        )));
    }
    let same_corpus = |n: &&str| TextSpec::by_name(n).is_some_and(|s| s.name == spec.name);
    Ok(TextSpec::NAMES
        .iter()
        .copied()
        .find(same_corpus)
        .expect("by_name resolves only canonical names and their aliases"))
}

/// Shared plan parser behind the `LHS{...}` and `LAL{...}` tokens.
/// `wrapper` picks the defaults: `LHS` is the classic pairwise ranker
/// without meta-features; `LAL` defaults to pointwise regression targets
/// with the pool-level meta block (the transferable configuration).
fn lhs_plan(
    wrapper: &'static str,
    base: BaseStrategy,
    params: &[Param<'_>],
) -> Result<LhsPlan, Error> {
    let mut features = LhsFeatureConfig {
        window: WINDOW,
        ..Default::default()
    };
    let mut predictor = PredictorKind::default();
    let mut ranker = RankerKind::LambdaMart(LambdaMartConfig::default());
    let lal = wrapper == "LAL";
    let target = if lal {
        TargetKind::Pointwise
    } else {
        TargetKind::Pairwise
    };
    let mut use_meta = lal;
    let mut train: Option<String> = None;
    for p in params {
        match p.key.as_str() {
            "window" => features.window = param_usize(p)?,
            "history" => features.use_history = param_bool(p)?,
            "fluctuation" => features.use_fluctuation = param_bool(p)?,
            "trend" => features.use_trend = param_bool(p)?,
            "prediction" => features.use_prediction = param_bool(p)?,
            "probs" => features.use_probs = param_bool(p)?,
            "autocorr" => features.use_autocorr = param_bool(p)?,
            "predictor" => {
                predictor = match p.value.to_ascii_lowercase().as_str() {
                    "lstm" => PredictorKind::default(),
                    v => match v.strip_prefix("ar:").map(str::parse) {
                        Some(Ok(order)) => PredictorKind::Ar { order },
                        _ => {
                            return Err(Error::unknown_name(
                                "LHS predictor",
                                p.value,
                                ["lstm", "ar:ORDER"],
                            ))
                        }
                    },
                }
            }
            "ranker" => {
                ranker = match p.value.to_ascii_lowercase().as_str() {
                    "lambdamart" => RankerKind::LambdaMart(LambdaMartConfig::default()),
                    "linear" => RankerKind::Linear(Default::default()),
                    _ => {
                        return Err(Error::unknown_name(
                            "LHS ranker",
                            p.value,
                            ["lambdamart", "linear"],
                        ))
                    }
                }
            }
            "meta" => use_meta = param_bool(p)?,
            "train" => train = Some(training_dataset(p.value)?.to_string()),
            _ => {
                return Err(unknown_param(
                    wrapper,
                    p,
                    &[
                        "window",
                        "history",
                        "fluctuation",
                        "trend",
                        "prediction",
                        "probs",
                        "autocorr",
                        "predictor",
                        "ranker",
                        "meta",
                        "train",
                    ],
                ))
            }
        }
    }
    Ok(LhsPlan {
        base,
        features,
        predictor,
        ranker,
        target,
        use_meta,
        train,
    })
}

/// Parse a strategy token: `base`, `WRAPPER(base)` or
/// `WRAPPER{k=v,…}(base)`, optionally followed by `+density` / `+mmr` /
/// `+kcenter` diversity suffixes. Examples: `entropy`, `WSHS(LC)`,
/// `WSHS{l=6}(entropy)`, `FHS{l=3,wf=0.2}(entropy)`, `HKLD{k=3}(entropy)`,
/// `LHS{predictor=ar:3}(entropy)`, `WSHS(entropy)+density+mmr`.
///
/// Unknown bases, wrappers, parameters or suffixes produce a structured
/// [`Error`] naming the offending token and listing the valid choices.
pub fn parse_strategy(token: &str) -> Result<ResolvedStrategy, Error> {
    let mut rest = token.trim();
    // Split off `+modifier` suffixes (rightmost first, outside parens).
    let mut modifiers = Vec::new();
    while let Some(pos) = rest.rfind('+') {
        if rest[pos..].contains(')') {
            break; // '+' inside the wrapped part — not a suffix
        }
        modifiers.push(rest[pos + 1..].trim().to_string());
        rest = rest[..pos].trim_end();
    }
    modifiers.reverse();

    let (head, inner) = match rest.split_once('(') {
        Some((head, tail)) => {
            let tail = tail.trim_end();
            let Some(inner) = tail.strip_suffix(')') else {
                return Err(Error::spec(format!("unbalanced parentheses in `{token}`")));
            };
            (head.trim(), Some(inner.trim()))
        }
        None => (rest, None),
    };
    let (name, params) = match head.split_once('{') {
        Some((name, tail)) => {
            let Some(body) = tail.trim_end().strip_suffix('}') else {
                return Err(Error::spec(format!("unbalanced braces in `{token}`")));
            };
            (name.trim(), parse_params(body)?)
        }
        None => (head, Vec::new()),
    };

    let mut resolved = match inner {
        None => {
            if !params.is_empty() {
                return Err(Error::spec(format!(
                    "base strategy `{name}` takes no parameters"
                )));
            }
            ResolvedStrategy {
                strategy: Strategy::new(parse_base(name)?),
                lhs: None,
                display: None,
            }
        }
        Some(inner) => {
            let base = parse_base(inner)?;
            match name.to_ascii_uppercase().as_str() {
                "HUS" => {
                    let mut k = WINDOW;
                    for p in &params {
                        match p.key.as_str() {
                            "k" | "l" => k = param_window(p)?,
                            _ => return Err(unknown_param("HUS", p, &["k"])),
                        }
                    }
                    ResolvedStrategy {
                        strategy: Strategy::new(base).with_history(HistoryPolicy::Hus { k }),
                        lhs: None,
                        display: None,
                    }
                }
                "WSHS" => {
                    let mut l = WINDOW;
                    for p in &params {
                        match p.key.as_str() {
                            "l" => l = param_window(p)?,
                            _ => return Err(unknown_param("WSHS", p, &["l"])),
                        }
                    }
                    ResolvedStrategy {
                        strategy: Strategy::new(base).with_history(HistoryPolicy::Wshs { l }),
                        lhs: None,
                        display: None,
                    }
                }
                "FHS" => {
                    let mut l = WINDOW;
                    let mut wf = FHS_WF;
                    let mut ws = None;
                    for p in &params {
                        match p.key.as_str() {
                            "l" => l = param_window(p)?,
                            "wf" => wf = param_f64(p)?,
                            "ws" => ws = Some(param_f64(p)?),
                            _ => return Err(unknown_param("FHS", p, &["l", "wf", "ws"])),
                        }
                    }
                    // Default w_s complements w_f (Fig. 5's convention);
                    // with the default w_f this is the paper's 0.5/0.5.
                    let w_score = ws.unwrap_or(1.0 - wf);
                    ResolvedStrategy {
                        strategy: Strategy::new(base).with_history(HistoryPolicy::Fhs {
                            l,
                            w_score,
                            w_fluct: wf,
                        }),
                        lhs: None,
                        display: None,
                    }
                }
                "HKLD" => {
                    let mut k = WINDOW;
                    for p in &params {
                        match p.key.as_str() {
                            "k" => k = param_usize(p)?,
                            _ => return Err(unknown_param("HKLD", p, &["k"])),
                        }
                    }
                    if k < 2 {
                        return Err(Error::spec(format!(
                            "parameter `k={k}`: HKLD needs a committee of at least two \
                             iterations"
                        )));
                    }
                    ResolvedStrategy {
                        strategy: Strategy::new(base).with_hkld(k),
                        lhs: None,
                        display: None,
                    }
                }
                wrapper @ ("LHS" | "LAL") => {
                    let wrapper: &'static str = if wrapper == "LAL" { "LAL" } else { "LHS" };
                    let plan = lhs_plan(wrapper, base, &params)?;
                    // `train=` joins the display so transfer rows stay
                    // distinguishable in reports; plain tokens keep the
                    // historical label.
                    let display = match &plan.train {
                        Some(ds) => format!("{wrapper}({})@{ds}", base.name()),
                        None => format!("{wrapper}({})", base.name()),
                    };
                    ResolvedStrategy {
                        strategy: Strategy::new(base),
                        lhs: Some(plan),
                        display: Some(display),
                    }
                }
                _ => {
                    return Err(Error::unknown_name(
                        "strategy wrapper",
                        name,
                        WRAPPER_NAMES.iter().map(|w| format!("{w}(base)")),
                    ))
                }
            }
        }
    };

    for m in &modifiers {
        match m.to_ascii_lowercase().as_str() {
            "density" => {
                resolved.strategy = resolved.strategy.with_density(DensityConfig::default())
            }
            "mmr" => resolved.strategy = resolved.strategy.with_mmr(MmrConfig::default()),
            "kcenter" => resolved.strategy = resolved.strategy.with_kcenter(),
            _ => {
                return Err(Error::unknown_name(
                    "strategy modifier",
                    m.as_str(),
                    ["density", "mmr", "kcenter"],
                ))
            }
        }
    }
    Ok(resolved)
}

/// Insert a `key=value` parameter at the front of a wrapped token's
/// `{…}` list, creating the list when absent: `LHS(entropy)` +
/// `ranker=linear` → `LHS{ranker=linear}(entropy)`, and
/// `LAL{meta=on}(LC)` + `train=mr` → `LAL{train=mr,meta=on}(LC)`. A bare
/// base token comes back unchanged.
pub(crate) fn add_selector_param(token: &str, param: &str) -> String {
    match token.split_once('{') {
        Some((head, rest)) => format!("{head}{{{param},{rest}"),
        None => match token.split_once('(') {
            Some((head, rest)) => format!("{head}{{{param}}}({rest}"),
            None => token.to_string(),
        },
    }
}

// ---------------------------------------------------------------------
// Dataset registry
// ---------------------------------------------------------------------

/// Which task family a dataset reference belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Text classification (logreg / naive-bayes models).
    Text,
    /// Named-entity recognition (CRF model).
    Ner,
}

/// A resolved dataset reference: the generator spec plus the optional
/// `?key=value` modifiers of the token.
#[derive(Debug, Clone)]
pub enum DatasetDef {
    /// A text-classification corpus.
    Text {
        /// Generator spec (priors modifier already applied).
        spec: TextSpec,
        /// Fraction of pool labels to corrupt after the split
        /// (`?noise=RATE`); the corruption seed is `split_seed + 1`.
        noise: Option<f64>,
    },
    /// An NER corpus.
    Ner {
        /// Generator spec.
        spec: NerSpec,
    },
}

impl DatasetDef {
    /// Which task family this dataset drives.
    pub fn kind(&self) -> TaskKind {
        match self {
            Self::Text { .. } => TaskKind::Text,
            Self::Ner { .. } => TaskKind::Ner,
        }
    }
}

/// Parse a dataset token: a `histal-data` builder name optionally
/// followed by `?key=value&key=value` modifiers. Examples: `mr`,
/// `sst2`, `conll2003-en`, `mr?noise=0.1`, `mr?priors=0.8/0.2`.
pub fn parse_dataset(token: &str) -> Result<DatasetDef, Error> {
    let token = token.trim();
    let (name, mods) = match token.split_once('?') {
        Some((n, m)) => (n.trim(), Some(m)),
        None => (token, None),
    };
    let mut def = if let Some(spec) = TextSpec::by_name(name) {
        DatasetDef::Text { spec, noise: None }
    } else if let Some(spec) = NerSpec::by_name(name) {
        DatasetDef::Ner { spec }
    } else {
        let valid: Vec<&str> = TextSpec::NAMES
            .iter()
            .chain(NerSpec::NAMES.iter())
            .copied()
            .collect();
        return Err(Error::unknown_name("dataset", name, valid));
    };
    if let Some(mods) = mods {
        for part in mods.split('&') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part.split_once('=').ok_or_else(|| {
                Error::spec(format!("dataset modifier `{part}` is not key=value"))
            })?;
            match (k.trim(), &mut def) {
                ("noise", DatasetDef::Text { noise, .. }) => {
                    let rate: f64 = v
                        .parse()
                        .map_err(|_| Error::spec(format!("noise rate `{v}` is not a number")))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(Error::spec(format!(
                            "noise rate `{v}` must be a fraction in [0, 1]"
                        )));
                    }
                    *noise = (rate > 0.0).then_some(rate);
                }
                ("priors", DatasetDef::Text { spec, .. }) => {
                    let priors: Result<Vec<f64>, _> =
                        v.split('/').map(|p| p.trim().parse::<f64>()).collect();
                    let priors = priors.map_err(|_| {
                        Error::spec(format!("priors `{v}` are not numbers separated by `/`"))
                    })?;
                    if priors.len() != spec.n_classes {
                        return Err(Error::spec(format!(
                            "dataset {} has {} classes but priors `{v}` list {}",
                            spec.name,
                            spec.n_classes,
                            priors.len()
                        )));
                    }
                    let sum: f64 = priors.iter().sum();
                    if priors.iter().any(|p| !(p.is_finite() && *p >= 0.0))
                        || (sum - 1.0).abs() >= 1e-6
                    {
                        return Err(Error::spec(format!(
                            "priors `{v}` must be finite, non-negative and sum to 1"
                        )));
                    }
                    *spec = spec.clone().with_class_priors(priors);
                }
                (k, DatasetDef::Text { .. }) => {
                    return Err(Error::unknown_name(
                        "dataset modifier",
                        k,
                        ["noise", "priors"],
                    ))
                }
                (k, DatasetDef::Ner { .. }) => {
                    return Err(Error::spec(format!(
                        "modifier `{k}` is not supported for NER datasets"
                    )))
                }
            }
        }
    }
    Ok(def)
}

// ---------------------------------------------------------------------
// Model registry and the cell rules
// ---------------------------------------------------------------------

/// Which model a cell trains: the logistic classifier (text default, the
/// TextCNN proxy), naive bayes (text) or the CRF (NER); see [`parse_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    LogReg,
    NaiveBayes,
    Crf,
}

impl ModelKind {
    /// The spec token naming this model.
    pub fn name(self) -> &'static str {
        match self {
            Self::LogReg => "logreg",
            Self::NaiveBayes => "nb",
            Self::Crf => "crf",
        }
    }

    /// Whether this model computes `base`'s score. Every model scores
    /// the posterior-only bases; the logistic model adds EGL, BALD and
    /// QBC (its session trains the committee), the CRF BALD and MNLP.
    pub(crate) fn scores(self, base: BaseStrategy) -> bool {
        use BaseStrategy::*;
        matches!(
            (self, base),
            (_, Random | Entropy | LeastConfidence | Margin)
                | (Self::LogReg, Egl | EglWord | Bald | QbcKl)
                | (Self::Crf, Bald | Mnlp)
        )
    }
}

/// Resolve a spec's `model` token for a task kind: `logreg` (the text
/// default) or `nb` on text, `crf` (the only, default, choice) on NER.
pub fn parse_model(token: Option<&str>, kind: TaskKind) -> Result<ModelKind, Error> {
    match (token, kind) {
        (None | Some("logreg"), TaskKind::Text) => Ok(ModelKind::LogReg),
        (Some("nb"), TaskKind::Text) => Ok(ModelKind::NaiveBayes),
        (None | Some("crf"), TaskKind::Ner) => Ok(ModelKind::Crf),
        (Some(other), TaskKind::Text) => {
            Err(Error::unknown_name("text model", other, ["logreg", "nb"]))
        }
        (Some(other), TaskKind::Ner) => Err(Error::unknown_name("NER model", other, ["crf"])),
    }
}

/// Resolve strategy `token` for a cell of task `kind` trained by `model`,
/// refusing a cell that could not run — every such rule, for spec
/// validation and served-session creation alike: `LHS`/`LAL` run on text
/// only; `+density`/`+mmr`/`+kcenter` need a text task and cannot ride on
/// `LHS`/`LAL`; `model` must score the base (`ModelKind::scores`).
pub fn resolve_cell(
    kind: TaskKind,
    model: ModelKind,
    token: &str,
) -> Result<ResolvedStrategy, Error> {
    let resolved = parse_strategy(token)?;
    let learned = resolved.lhs.is_some();
    let diversity = resolved.strategy.needs_representations();
    let base = resolved.strategy.base;
    let refusal: String = if learned && kind != TaskKind::Text {
        "LHS selectors are only supported on text datasets".into()
    } else if diversity && learned {
        "a learned selector ranks its own candidates — `+density`/`+mmr`/`+kcenter` cannot \
         ride on `LHS`/`LAL`"
            .into()
    } else if diversity && kind != TaskKind::Text {
        "`+density`/`+mmr`/`+kcenter` need the pool geometry only text datasets build — \
         without it the suffix would do nothing"
            .into()
    } else if !model.scores(base) {
        let scored: Vec<&str> = BASE_NAMES
            .iter()
            .copied()
            .filter(|b| parse_base(b).is_ok_and(|b| model.scores(b)))
            .collect();
        let (model, base, scored) = (model.name(), base.name(), scored.join(", "));
        format!("model `{model}` cannot score {base} — it scores {scored}")
    } else {
        return Ok(resolved);
    };
    Err(Error::spec(format!(
        "strategy `{}`: {refusal}",
        token.trim()
    )))
}

// ---------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------

/// A resolved report metric: one table column evaluated per run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Metric {
    /// Final-point metric of the learning curve.
    Final,
    /// Area under the learning curve.
    Alc,
    /// Labels needed to first reach the target metric.
    Target(f64),
    /// Speed-up factor vs the named strategy in the same block: the mean
    /// over the reference curve's checkpoints of
    /// `labels_ref(m) / labels_self(m)` for every metric level `m` both
    /// curves reach (Kath et al.'s curve-ratio evaluation). > 1 means
    /// this strategy needs fewer labels than the reference.
    Speedup(String),
}

impl Metric {
    /// Column header for this metric.
    pub(crate) fn header(&self) -> String {
        match self {
            Self::Final => "Final accuracy".into(),
            Self::Alc => "ALC".into(),
            Self::Target(t) => format!("acc ≥ {t}"),
            Self::Speedup(r) => format!("speed-up vs {r}"),
        }
    }
}

/// Parse a metric token: `final`, `alc`, `target:T`, `speedup:REF`.
pub(crate) fn parse_metric(token: &str) -> Result<Metric, Error> {
    let token = token.trim();
    let lower = token.to_ascii_lowercase();
    match lower.as_str() {
        "final" => return Ok(Metric::Final),
        "alc" => return Ok(Metric::Alc),
        _ => {}
    }
    if let Some(t) = lower.strip_prefix("target:") {
        return t
            .parse()
            .map(Metric::Target)
            .map_err(|_| Error::spec(format!("target `{t}` is not a number")));
    }
    if let Some(r) = token
        .split_once(':')
        .and_then(|(k, r)| k.eq_ignore_ascii_case("speedup").then_some(r))
    {
        return Ok(Metric::Speedup(r.trim().to_string()));
    }
    Err(Error::unknown_name(
        "metric",
        token,
        ["final", "alc", "target:T", "speedup:REF"],
    ))
}

/// Evaluate `metric` for `result` into a formatted table cell. `budget`
/// is the cell's total label budget (for [`Metric::Target`]);
/// `block` is the result's report block (label → averaged run), the
/// lookup space for [`Metric::Speedup`] references.
pub(crate) fn evaluate_metric(
    metric: &Metric,
    result: &RunResult,
    budget: usize,
    block: &[(String, &RunResult)],
) -> String {
    match metric {
        Metric::Final => result
            .final_metric()
            .map(|v| format!("{v:.4}"))
            .unwrap_or_else(|| "n/a".into()),
        Metric::Alc => format!("{:.4}", area_under_curve(result)),
        Metric::Target(t) => format_cost(samples_to_target(result, *t), budget),
        Metric::Speedup(name) => {
            let Some((_, reference)) = block.iter().find(|(n, _)| n == name) else {
                return "n/a".into();
            };
            let mut ratios = Vec::new();
            for p in reference.curve.iter().skip(1) {
                let (Some(n_self), Some(n_ref)) = (
                    samples_to_target(result, p.metric),
                    samples_to_target(reference, p.metric),
                ) else {
                    continue;
                };
                if n_self > 0 {
                    ratios.push(n_ref as f64 / n_self as f64);
                }
            }
            if ratios.is_empty() {
                "n/a".into()
            } else {
                format!("{:.2}×", ratios.iter().sum::<f64>() / ratios.len() as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_core::error::ErrorKind;

    #[test]
    fn parse_bare_bases() {
        assert_eq!(
            parse_strategy("entropy").unwrap().strategy.name(),
            "entropy"
        );
        assert_eq!(parse_strategy("LC").unwrap().strategy.name(), "LC");
        assert_eq!(parse_strategy("random").unwrap().strategy.name(), "random");
        assert_eq!(
            parse_strategy("egl-word").unwrap().strategy.name(),
            "EGL-word"
        );
    }

    #[test]
    fn parse_wrapped_strategies() {
        assert_eq!(
            parse_strategy("WSHS(entropy)").unwrap().strategy.name(),
            "WSHS(entropy)"
        );
        assert_eq!(
            parse_strategy("fhs(LC)").unwrap().strategy.name(),
            "FHS(LC)"
        );
        assert_eq!(
            parse_strategy("HUS(EGL)").unwrap().strategy.name(),
            "HUS(EGL)"
        );
        assert_eq!(
            parse_strategy(" wshs( mnlp ) ").unwrap().strategy.name(),
            "WSHS(MNLP)"
        );
    }

    #[test]
    fn parse_wrapper_params() {
        let s = parse_strategy("WSHS{l=6}(entropy)").unwrap().strategy;
        assert_eq!(s.history, HistoryPolicy::Wshs { l: 6 });
        let s = parse_strategy("FHS{l=3,wf=0.2}(entropy)").unwrap().strategy;
        assert_eq!(
            s.history,
            HistoryPolicy::Fhs {
                l: 3,
                w_score: 1.0 - 0.2,
                w_fluct: 0.2
            }
        );
        // Defaults reproduce the hand-coded helpers.
        assert_eq!(
            parse_strategy("FHS(entropy)").unwrap().strategy.history,
            HistoryPolicy::Fhs {
                l: WINDOW,
                w_score: 1.0 - FHS_WF,
                w_fluct: FHS_WF
            }
        );
        let s = parse_strategy("HKLD{k=3}(entropy)").unwrap().strategy;
        assert_eq!(s.name(), "HKLD(k=3)");
    }

    #[test]
    fn degenerate_windows_and_committees_are_spec_errors() {
        // A zero window has nothing to fold and a one-member committee no
        // disagreement: each is a structured spec error, never a panic in
        // `Strategy::with_hkld` or an all-zero fold run under the label.
        for token in [
            "HKLD{k=0}(entropy)",
            "HKLD{k=1}(entropy)",
            "HUS{k=0}(entropy)",
            "WSHS{l=0}(entropy)",
            "FHS{l=0}(entropy)",
        ] {
            let err = parse_strategy(token).expect_err(token);
            assert!(matches!(err.kind, ErrorKind::Spec { .. }), "{token}: {err}");
        }
        assert!(parse_strategy("HKLD{k=2}(entropy)").is_ok());
        assert!(parse_strategy("WSHS{l=1}(entropy)").is_ok());
    }

    #[test]
    fn parse_lhs_plans() {
        let r = parse_strategy("LHS(entropy)").unwrap();
        assert_eq!(r.strategy.name(), "entropy"); // seeds pair with the base
        assert_eq!(r.display_name(), "LHS(entropy)");
        let plan = r.lhs.unwrap();
        assert_eq!(plan.features.window, WINDOW);
        assert!(plan.features.use_history);
        let r = parse_strategy("LHS{fluctuation=false,predictor=ar:3,ranker=linear}(LC)").unwrap();
        let plan = r.lhs.unwrap();
        assert!(!plan.features.use_fluctuation);
        assert!(matches!(plan.predictor, PredictorKind::Ar { order: 3 }));
        assert!(matches!(plan.ranker, RankerKind::Linear(_)));
    }

    #[test]
    fn parse_lal_plans() {
        let r = parse_strategy("LAL(entropy)").unwrap();
        assert_eq!(r.strategy.name(), "entropy");
        assert_eq!(r.display_name(), "LAL(entropy)");
        let plan = r.lhs.unwrap();
        assert_eq!(plan.target, TargetKind::Pointwise);
        assert!(plan.use_meta, "LAL defaults to meta-features on");
        assert_eq!(plan.label(), "LAL(entropy)");
        // Classic LHS keeps its default cache key (no variant suffix)
        // while LAL hashes apart.
        let classic = parse_strategy("LHS(entropy)").unwrap().lhs.unwrap();
        assert_eq!(classic.variant(), None);
        assert!(plan.variant().is_some());
        assert_ne!(plan.cache_key(), classic.cache_key());
        // Meta can be toggled on either wrapper.
        let plan = parse_strategy("LAL{meta=off}(LC)").unwrap().lhs.unwrap();
        assert!(!plan.use_meta);
        assert_eq!(plan.label(), "LAL{meta=off}(LC)");
    }

    #[test]
    fn parse_train_modifier() {
        let r = parse_strategy("LHS{train=mr}(entropy)").unwrap();
        assert_eq!(r.display_name(), "LHS(entropy)@mr");
        let plan = r.lhs.unwrap();
        assert_eq!(plan.train.as_deref(), Some("mr"));
        assert_eq!(plan.label(), "LHS(entropy)@mr");
        assert_eq!(plan.variant().as_deref(), Some("train=mr"));
        let default = parse_strategy("LHS(entropy)").unwrap().lhs.unwrap();
        assert_ne!(plan.cache_key(), default.cache_key());
        // Unknown training datasets fail up front with the valid list.
        let e = parse_strategy("LHS{train=imdb}(entropy)").unwrap_err();
        assert!(matches!(
            e.kind,
            ErrorKind::UnknownName {
                what: "selector training dataset",
                ..
            }
        ));
        assert!(e.to_string().contains("mr"), "{e}");
        // Multiclass corpora cannot train a selector.
        let e = parse_strategy("LAL{train=trec}(entropy)").unwrap_err();
        assert!(e.to_string().contains("multiclass"), "{e}");
        // Aliases resolve to the canonical name: one plan, one label,
        // one cache key and one training seed per corpus.
        let alias = parse_strategy("LHS{train=SST-2}(entropy)").unwrap();
        let canonical = parse_strategy("LHS{train=sst2}(entropy)").unwrap();
        assert_eq!(alias.display_name(), "LHS(entropy)@sst2");
        let (alias, canonical) = (alias.lhs.unwrap(), canonical.lhs.unwrap());
        assert_eq!(alias.train.as_deref(), Some("sst2"));
        assert_eq!(alias.cache_key(), canonical.cache_key());
    }

    #[test]
    fn unknown_selector_params_list_valid_names() {
        for token in ["LHS{bogus=1}(entropy)", "LAL{bogus=1}(entropy)"] {
            let e = parse_strategy(token).unwrap_err();
            let msg = e.to_string();
            assert!(matches!(e.kind, ErrorKind::UnknownName { .. }), "{msg}");
            assert!(msg.contains("bogus"), "{msg}");
            for valid in ["window", "predictor", "ranker", "meta", "train"] {
                assert!(msg.contains(valid), "{token}: {msg} missing {valid}");
            }
        }
    }

    #[test]
    fn parse_modifiers() {
        let s = parse_strategy("WSHS(entropy)+density+mmr")
            .unwrap()
            .strategy;
        assert!(s.density.is_some());
        assert!(s.mmr.is_some());
    }

    #[test]
    fn parse_errors_name_token_and_list_valid() {
        let e = parse_strategy("frobnicate").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("frobnicate"), "{msg}");
        assert!(
            msg.contains("entropy") && msg.contains("WSHS(base)"),
            "{msg}"
        );
        let e = parse_strategy("WSHS(entrpy)").unwrap_err();
        assert!(e.to_string().contains("entrpy"));
        let e = parse_strategy("XYZ(entropy)").unwrap_err();
        assert!(matches!(
            e.kind,
            ErrorKind::UnknownName {
                what: "strategy wrapper",
                ..
            }
        ));
        assert!(parse_strategy("WSHS{q=1}(entropy)").is_err());
        assert!(parse_strategy("").is_err());
    }

    #[test]
    fn parse_datasets_and_modifiers() {
        assert!(matches!(
            parse_dataset("mr").unwrap(),
            DatasetDef::Text { noise: None, .. }
        ));
        assert_eq!(parse_dataset("conll2003-en").unwrap().kind(), TaskKind::Ner);
        let DatasetDef::Text { spec, noise } = parse_dataset("mr?noise=0.1").unwrap() else {
            panic!("text dataset expected");
        };
        assert_eq!(noise, Some(0.1));
        assert!(spec.class_priors.is_none());
        let DatasetDef::Text { spec, .. } = parse_dataset("mr?priors=0.8/0.2").unwrap() else {
            panic!("text dataset expected");
        };
        assert_eq!(spec.class_priors, Some(vec![0.8, 0.2]));
        let e = parse_dataset("imdb").unwrap_err();
        assert!(e.to_string().contains("imdb") && e.to_string().contains("mr"));
        assert!(parse_dataset("conll2003-en?noise=0.1").is_err());
    }

    #[test]
    fn priors_that_do_not_sum_to_one_are_a_spec_error() {
        for token in ["mr?priors=0.9/0.3", "mr?priors=NaN/0.5"] {
            let e = parse_dataset(token).unwrap_err();
            assert!(matches!(e.kind, ErrorKind::Spec { .. }), "{e}");
        }
    }

    #[test]
    fn noise_rate_above_one_is_a_spec_error() {
        assert!(parse_dataset("mr?noise=1.5").is_err());
    }

    #[test]
    fn negative_or_non_finite_noise_rate_is_a_spec_error() {
        for token in ["mr?noise=-0.5", "mr?noise=NaN", "mr?noise=inf"] {
            assert!(parse_dataset(token).is_err(), "{token}");
        }
        assert!(parse_dataset("mr?noise=1").is_ok());
    }

    #[test]
    fn add_selector_param_inserts_into_both_token_forms() {
        for (token, want) in [
            ("LHS(entropy)", "LHS{p=1}(entropy)"),
            ("LHS{history=false}(LC)", "LHS{p=1,history=false}(LC)"),
            ("LAL{meta=on}(LC)", "LAL{p=1,meta=on}(LC)"),
            ("entropy", "entropy"),
        ] {
            assert_eq!(add_selector_param(token, "p=1"), want);
        }
        let token = add_selector_param("LAL(entropy)", "train=mr");
        let plan = parse_strategy(&token).unwrap().lhs.unwrap();
        assert_eq!(plan.train.as_deref(), Some("mr"));
    }

    #[test]
    fn parse_metrics() {
        assert_eq!(parse_metric("final").unwrap(), Metric::Final);
        assert_eq!(parse_metric("alc").unwrap(), Metric::Alc);
        assert_eq!(parse_metric("target:0.72").unwrap(), Metric::Target(0.72));
        assert_eq!(
            parse_metric("speedup:entropy").unwrap(),
            Metric::Speedup("entropy".into())
        );
        assert!(parse_metric("auc").is_err());
    }

    #[test]
    fn speedup_metric_is_relative_label_cost() {
        use histal_core::driver::CurvePoint;
        let curve = |pts: &[(usize, f64)]| RunResult {
            strategy_name: "x".into(),
            curve: pts
                .iter()
                .map(|&(n_labeled, metric)| CurvePoint { n_labeled, metric })
                .collect(),
            rounds: vec![],
            history: vec![],
        };
        let slow = curve(&[(100, 0.5), (200, 0.6), (300, 0.7)]);
        let fast = curve(&[(100, 0.6), (200, 0.7), (300, 0.8)]);
        let block = vec![("base".to_string(), &slow)];
        // fast reaches 0.6 at 100 vs 200, 0.7 at 200 vs 300 → mean 1.75×.
        let cell = evaluate_metric(&Metric::Speedup("base".into()), &fast, 300, &block);
        assert_eq!(cell, "1.75×");
        // Missing reference degrades to n/a, not a panic.
        assert_eq!(
            evaluate_metric(&Metric::Speedup("nope".into()), &fast, 300, &block),
            "n/a"
        );
    }
}
