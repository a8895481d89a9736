//! Featurized experiment tasks built from the synthetic corpora.

use std::sync::{Arc, OnceLock};

use histal_core::driver::{CurvePoint, PoolConfig, RunResult};
use histal_core::error::Error;
use histal_core::learned::LearnedSelector;
use histal_core::live::{Session, SessionStatus, SessionStep, SubmitOutcome};
use histal_core::model::Model;
use histal_core::pipeline::{LabelRequest, LabelResponse, Ticket};
use histal_core::pool::SampleId;
use histal_core::session::{Ready, RunJournal, SessionBuilder};
use histal_core::stopping::StopReason;
use histal_core::strategy::{BaseStrategy, Strategy};
use histal_core::ActiveLearner;
use histal_data::{train_test_split, NerDataset, NerSpec, TextDataset, TextSpec};
use histal_models::{
    CrfConfig, CrfTagger, Document, NaiveBayes, NaiveBayesConfig, Sentence, TextClassifier,
    TextClassifierConfig,
};
use histal_obs::MetricsRegistry;
use histal_text::{FeatureHasher, PoolGeometry};

use crate::registry::{DatasetDef, ModelKind};

/// Global experiment scale. `1.0` reproduces the paper's dataset sizes
/// and budgets; smaller factors shrink pools, batches and budgets
/// proportionally for quick runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on pool sizes and label budgets.
    pub factor: f64,
    /// Independent repetitions to average (the paper cross-validates /
    /// repeats its runs).
    pub repeats: usize,
}

impl Scale {
    /// Paper-scale configuration.
    pub fn full() -> Self {
        Self {
            factor: 1.0,
            repeats: 3,
        }
    }

    /// Quick configuration for smoke runs (~25% size, 2 repeats).
    pub fn quick() -> Self {
        Self {
            factor: 0.25,
            repeats: 2,
        }
    }

    /// Scale a count, keeping at least `min`.
    pub(crate) fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.factor).round() as usize).max(min)
    }
}

/// Feature-space width used by all text-classification experiments.
pub(crate) const TEXT_FEATURES: u32 = 1 << 16;
/// Feature-space width used by all NER experiments.
pub(crate) const NER_FEATURES: u32 = 1 << 16;

/// A featurized text-classification task (pool + test).
#[derive(Clone)]
pub struct TextTask {
    pub name: String,
    pub n_classes: usize,
    pub pool_docs: Vec<Document>,
    pub pool_labels: Vec<usize>,
    pub test_docs: Vec<Document>,
    pub test_labels: Vec<usize>,
    /// The pool documents' similarity geometry, built on first use and
    /// shared by every session on this task.
    geometry: OnceLock<Arc<PoolGeometry>>,
}

impl TextTask {
    /// Build from a dataset spec: generate, scale the corpus, featurize,
    /// and carve a 20% test split (the CV/test protocols of §5.1 reduce
    /// to a held-out split once curves are averaged over repeats).
    pub fn build(spec: &TextSpec, scale: &Scale, split_seed: u64) -> Self {
        let mut spec = spec.clone();
        spec.n_samples = scale.scaled(spec.n_samples, 200);
        let data = TextDataset::generate(&spec);
        let hasher = FeatureHasher::new(TEXT_FEATURES);
        let docs: Vec<Document> = data
            .docs
            .iter()
            .map(|t| Document::from_tokens(t, &hasher))
            .collect();
        let (train, test) = train_test_split(docs.len(), 0.2, split_seed);
        Self {
            name: data.name.clone(),
            n_classes: data.n_classes,
            pool_docs: train.iter().map(|&i| docs[i].clone()).collect(),
            pool_labels: train.iter().map(|&i| data.labels[i]).collect(),
            test_docs: test.iter().map(|&i| docs[i].clone()).collect(),
            test_labels: test.iter().map(|&i| data.labels[i]).collect(),
            geometry: OnceLock::new(),
        }
    }

    /// A fresh classifier configured for this task. `committee` enables
    /// QBC support.
    pub fn model(&self, committee: usize) -> TextClassifier {
        TextClassifier::new(TextClassifierConfig {
            n_classes: self.n_classes,
            n_features: TEXT_FEATURES,
            epochs: 10,
            committee,
            ..Default::default()
        })
    }

    /// The logistic classifier that scores `base`: a
    /// [`QBC_COMMITTEE`]-member committee for QBC, none otherwise.
    pub(crate) fn classifier_for(&self, base: BaseStrategy) -> TextClassifier {
        let committee = if base == BaseStrategy::QbcKl {
            QBC_COMMITTEE
        } else {
            0
        };
        self.model(committee)
    }

    /// A fresh naive-bayes classifier configured for this task.
    pub(crate) fn naive_bayes(&self) -> NaiveBayes {
        NaiveBayes::new(NaiveBayesConfig {
            n_classes: self.n_classes,
            n_features: TEXT_FEATURES,
            ..Default::default()
        })
    }

    /// The pool geometry the density / MMR / k-center combinators read:
    /// row `i` is pool document `i`'s sparse features. Built once per
    /// task, on first call; later calls share it.
    pub(crate) fn geometry(&self) -> Arc<PoolGeometry> {
        let geometry = self.geometry.get_or_init(|| {
            Arc::new(PoolGeometry::build(
                self.pool_docs.iter().map(|d| &d.features),
            ))
        });
        Arc::clone(geometry)
    }

    /// The builder chain every text run starts from: this task's pool
    /// and test split, `strategy`, `config` and `seed`, training
    /// `model`, plus the task's shared geometry when `strategy` has a
    /// similarity combinator. Finish it with `build()` for a batch run
    /// or `build_session()` for a session the caller drives.
    pub fn builder<M: Model<Sample = Document, Label = usize>>(
        &self,
        model: M,
        strategy: Strategy,
        config: &PoolConfig,
        seed: u64,
    ) -> SessionBuilder<M, Ready> {
        let diversity = strategy.needs_representations();
        let builder = ActiveLearner::builder(model)
            .pool(self.pool_docs.clone(), self.pool_labels.clone())
            .test(self.test_docs.clone(), self.test_labels.clone())
            .strategy(strategy)
            .config(config.clone())
            .seed(seed);
        if diversity {
            builder.geometry(self.geometry())
        } else {
            builder
        }
    }
}

/// Committee size the logistic model trains for QBC (Eq. 6).
pub(crate) const QBC_COMMITTEE: usize = 4;

/// A built dataset, shared by every cell and served session on it.
pub enum Task {
    Text(TextTask),
    Ner(NerTask),
}

impl Task {
    /// Build the task `def` describes. `split_seed` carves a text test
    /// split and, plus one, seeds a `?noise=` label corruption; NER
    /// corpora carry their own splits.
    pub fn build(def: &DatasetDef, scale: &Scale, split_seed: u64) -> Task {
        match def {
            DatasetDef::Text { spec, noise } => {
                let mut task = TextTask::build(spec, scale, split_seed);
                if let Some(rate) = noise {
                    let labels = &mut task.pool_labels;
                    histal_data::corrupt_labels(labels, task.n_classes, *rate, split_seed + 1);
                }
                Task::Text(task)
            }
            DatasetDef::Ner { spec } => Task::Ner(NerTask::build(spec, scale)),
        }
    }

    /// The generated corpus name.
    pub(crate) fn name(&self) -> &str {
        match self {
            Task::Text(TextTask { name, .. }) | Task::Ner(NerTask { name, .. }) => name,
        }
    }
}

/// The one cell constructor, behind grid slots, served sessions and
/// `selector-apply`: `task` under `strategy`, `config` and `seed`, a fresh
/// `model` (QBC on the logistic model trains `QBC_COMMITTEE` members),
/// and the `selector`, `journal` and `metrics` shard when given. It checks
/// nothing — [`crate::registry::resolve_cell`] decides which cells run —
/// and panics on a model/task pair `parse_model` never resolves.
#[allow(clippy::too_many_arguments)]
pub fn build_session(
    task: &Task,
    model: ModelKind,
    strategy: Strategy,
    config: &PoolConfig,
    seed: u64,
    selector: Option<Arc<LearnedSelector>>,
    journal: Option<RunJournal>,
    metrics: Option<Arc<MetricsRegistry>>,
) -> AnySession {
    macro_rules! session {
        ($variant:ident, $builder:expr) => {{
            let mut builder = $builder;
            if let Some(selector) = selector {
                builder = builder.lhs(selector);
            }
            if let Some(journal) = journal {
                builder = builder.journal(journal);
            }
            if let Some(metrics) = metrics {
                builder = builder.metrics(metrics);
            }
            AnySession::$variant(builder.build_session())
        }};
    }
    match (task, model) {
        (Task::Text(t), ModelKind::LogReg) => {
            let classifier = t.classifier_for(strategy.base);
            session!(LogReg, t.builder(classifier, strategy, config, seed))
        }
        (Task::Text(t), ModelKind::NaiveBayes) => {
            session!(Nb, t.builder(t.naive_bayes(), strategy, config, seed))
        }
        (Task::Ner(t), ModelKind::Crf) => {
            session!(Crf, t.builder(t.model(), strategy, config, seed))
        }
        (task, model) => panic!("model `{}` cannot train on {}", model.name(), task.name()),
    }
}

/// A cell's session with the model type erased: the grid advances it
/// against hidden labels, serving steps it and takes labels over the wire.
pub enum AnySession {
    LogReg(Session<TextClassifier>),
    Nb(Session<NaiveBayes>),
    Crf(Session<CrfTagger>),
}

/// Evaluate `$body` with `$s` bound to whichever session `$run` holds.
macro_rules! with_session {
    ($run:expr, $s:ident => $body:expr) => {
        match $run {
            AnySession::LogReg($s) => $body,
            AnySession::Nb($s) => $body,
            AnySession::Crf($s) => $body,
        }
    };
}

impl AnySession {
    /// Record one more curve point (one fit/eval/score/select cycle)
    /// against the hidden labels; returns `true` once the run is done.
    pub(crate) fn advance_round(&mut self) -> Result<bool, Error> {
        Ok(with_session!(self, s => s.run_round_hidden())? == SessionStep::Done)
    }

    /// Run to the end against the hidden labels.
    pub fn run_hidden(&mut self) -> Result<RunResult, Error> {
        with_session!(self, s => s.run_hidden())
    }

    /// The learning curve recorded so far.
    pub(crate) fn curve(&self) -> &[CurvePoint] {
        with_session!(self, s => s.curve())
    }

    /// Finish now (no-op when already done) and take the result — the
    /// exact prefix a full run would have produced. Pass
    /// [`StopReason::Pruned`] when the slot loop prunes the cell.
    pub(crate) fn finish(&mut self, reason: StopReason) -> RunResult {
        with_session!(self, s => {
            s.finish_early(reason);
            s.result().expect("finished session has a result").clone()
        })
    }

    /// Advance as far as labels allow; see [`Session::step`].
    pub fn step(&mut self) -> Result<SessionStep, Error> {
        with_session!(self, s => s.step())
    }

    /// The outstanding label request, `None` once done.
    pub fn pending(&self) -> Option<&LabelRequest> {
        with_session!(self, s => s.pending())
    }

    /// Cheap serializable status.
    pub fn status(&self) -> SessionStatus {
        with_session!(self, s => s.status())
    }

    /// The durable state as JSON, the crash/resume byte-identity witness.
    pub fn snapshot_json(&self) -> String {
        with_session!(self, s => serde_json::to_string(&s.snapshot()).expect("snapshot serializes"))
    }

    /// Submit labels in a wire encoding `L` that converts to class indices
    /// and tag sequences; a wrong shape is a spec error, before any change.
    pub fn submit<L: Clone>(
        &mut self,
        ticket: Ticket,
        labels: &[(SampleId, L)],
    ) -> Result<SubmitOutcome, Error>
    where
        usize: TryFrom<L, Error = &'static str>,
        Vec<u16>: TryFrom<L, Error = &'static str>,
    {
        with_session!(self, s => {
            let labels = labels
                .iter()
                .map(|(id, label)| match label.clone().try_into() {
                    Ok(label) => Ok((*id, label)),
                    Err(e) => Err(Error::spec(format!("sample {id}: {e}"))),
                })
                .collect::<Result<Vec<_>, Error>>()?;
            s.submit(&LabelResponse { ticket, labels })
        })
    }

    /// Answer the pending ticket from the session's hidden gold labels,
    /// in the wire encoding [`Self::submit`] takes.
    pub fn answer_from_hidden<L: From<usize> + From<Vec<u16>>>(
        &self,
    ) -> Option<(Ticket, Vec<(SampleId, L)>)> {
        with_session!(self, s => s.answer_from_hidden().map(|r| {
            (r.ticket, r.labels.into_iter().map(|(id, label)| (id, L::from(label))).collect())
        }))
    }
}

// Serving shares sessions across threads: a stage losing Send fails here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<AnySession>();
};

/// A featurized NER task (pool = train split, test = test split).
#[derive(Clone)]
pub struct NerTask {
    pub name: String,
    pub pool: Vec<Sentence>,
    pub pool_tags: Vec<Vec<u16>>,
    pub test: Vec<Sentence>,
    pub test_tags: Vec<Vec<u16>>,
    /// Score-beam width `δ` forwarded to [`CrfConfig::score_beam`];
    /// `None` keeps every lattice pass exact.
    pub score_beam: Option<f64>,
}

impl NerTask {
    /// Build from a dataset spec, scaling the split sizes.
    pub fn build(spec: &NerSpec, scale: &Scale) -> Self {
        let mut spec = spec.clone();
        spec.n_train = scale.scaled(spec.n_train, 300);
        spec.n_dev = scale.scaled(spec.n_dev, 60);
        spec.n_test = scale.scaled(spec.n_test, 60);
        let data = NerDataset::generate(&spec);
        let hasher = FeatureHasher::new(NER_FEATURES);
        let feats = |sents: &[histal_data::ner::NerSentence]| {
            let s: Vec<Sentence> = sents
                .iter()
                .map(|x| Sentence::featurize(&x.tokens, &hasher))
                .collect();
            let t: Vec<Vec<u16>> = sents.iter().map(|x| x.tags.clone()).collect();
            (s, t)
        };
        let (pool, pool_tags) = feats(&data.train);
        let (test, test_tags) = feats(&data.test);
        Self {
            name: data.name.clone(),
            pool,
            pool_tags,
            test,
            test_tags,
            score_beam: None,
        }
    }

    /// A fresh CRF configured for this task.
    pub fn model(&self) -> CrfTagger {
        CrfTagger::new(CrfConfig {
            n_features: NER_FEATURES,
            epochs: 5,
            mc_passes: 8,
            score_beam: self.score_beam,
            ..Default::default()
        })
    }

    /// The builder chain every NER run starts from: this task's pool and
    /// test split, `strategy`, `config` and `seed`, training `model`.
    pub(crate) fn builder<M: Model<Sample = Sentence, Label = Vec<u16>>>(
        &self,
        model: M,
        strategy: Strategy,
        config: &PoolConfig,
        seed: u64,
    ) -> SessionBuilder<M, Ready> {
        ActiveLearner::builder(model)
            .pool(self.pool.clone(), self.pool_tags.clone())
            .test(self.test.clone(), self.test_tags.clone())
            .strategy(strategy)
            .config(config.clone())
            .seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_presets() {
        let full = Scale::full();
        assert_eq!(full.factor, 1.0);
        let quick = Scale::quick();
        assert!(quick.factor < 1.0);
        assert!(quick.repeats >= 1);
    }

    #[test]
    fn scaled_respects_minimum() {
        let s = Scale {
            factor: 0.01,
            repeats: 1,
        };
        assert_eq!(s.scaled(1000, 200), 200);
        assert_eq!(s.scaled(100_000, 200), 1000);
        let full = Scale::full();
        assert_eq!(full.scaled(1234, 10), 1234);
    }

    #[test]
    fn text_task_builds_and_splits() {
        let scale = Scale {
            factor: 0.05,
            repeats: 1,
        };
        let task = TextTask::build(&histal_data::TextSpec::tiny(2, 400, 1), &scale, 7);
        assert!(!task.pool_docs.is_empty());
        assert!(!task.test_docs.is_empty());
        assert_eq!(task.pool_docs.len(), task.pool_labels.len());
        assert_eq!(task.test_docs.len(), task.test_labels.len());
        // ~20% test split.
        let frac =
            task.test_docs.len() as f64 / (task.pool_docs.len() + task.test_docs.len()) as f64;
        assert!((frac - 0.2).abs() < 0.05, "test fraction {frac}");
    }

    #[test]
    fn ner_task_builds() {
        let scale = Scale {
            factor: 0.05,
            repeats: 1,
        };
        let task = NerTask::build(&histal_data::NerSpec::tiny(100, 2), &scale);
        assert!(!task.pool.is_empty());
        assert_eq!(task.pool.len(), task.pool_tags.len());
    }
}
