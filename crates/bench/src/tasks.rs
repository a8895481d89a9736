//! Featurized experiment tasks built from the synthetic corpora.

use std::sync::Arc;

use histal_core::driver::{CurvePoint, PoolConfig, RunResult};
use histal_core::error::Error;
use histal_core::learned::LearnedSelector;
use histal_core::live::{Session, SessionStep};
use histal_core::model::Model;
use histal_core::session::{Ready, RunJournal, SessionBuilder};
use histal_core::stopping::StopReason;
use histal_core::strategy::Strategy;
use histal_core::ActiveLearner;
use histal_data::{train_test_split, NerDataset, NerSpec, TextDataset, TextSpec};
use histal_models::{
    CrfConfig, CrfTagger, Document, NaiveBayes, NaiveBayesConfig, Sentence, TextClassifier,
    TextClassifierConfig,
};
use histal_text::{FeatureHasher, SparseVec};

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
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.factor).round() as usize).max(min)
    }
}

/// Which classifier a text experiment cell trains (the spec engine's
/// `model` field; the paper's TextCNN is proxied by the discriminative
/// logistic model, naive bayes is the model-agnosticism extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TextModel {
    /// Discriminative logistic classifier (TextCNN proxy).
    #[default]
    LogReg,
    /// Multinomial Naive Bayes (generative, one-pass).
    NaiveBayes,
}

/// Feature-space width used by all text-classification experiments.
pub const TEXT_FEATURES: u32 = 1 << 16;
/// Feature-space width used by all NER experiments.
pub const NER_FEATURES: u32 = 1 << 16;

/// A featurized text-classification task (pool + test).
#[derive(Clone)]
pub struct TextTask {
    pub name: String,
    pub n_classes: usize,
    pub pool_docs: Vec<Document>,
    pub pool_labels: Vec<usize>,
    pub test_docs: Vec<Document>,
    pub test_labels: Vec<usize>,
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

    /// A fresh naive-bayes classifier configured for this task.
    pub(crate) fn naive_bayes(&self) -> NaiveBayes {
        NaiveBayes::new(NaiveBayesConfig {
            n_classes: self.n_classes,
            n_features: TEXT_FEATURES,
            ..Default::default()
        })
    }

    /// The pool documents' sparse features, one per pool sample — the
    /// representations the density / MMR / k-center combinators need.
    pub fn representations(&self) -> Vec<SparseVec> {
        self.pool_docs.iter().map(|d| d.features.clone()).collect()
    }

    /// The builder chain every text run starts from: this task's pool
    /// and test split, `strategy`, `config` and `seed`, training
    /// `model`. Finish it with `build()` for a batch run or
    /// `build_session()` for a session the caller drives.
    pub fn builder<M: Model<Sample = Document, Label = usize>>(
        &self,
        model: M,
        strategy: Strategy,
        config: &PoolConfig,
        seed: u64,
    ) -> SessionBuilder<M, Ready> {
        ActiveLearner::builder(model)
            .pool(self.pool_docs.clone(), self.pool_labels.clone())
            .test(self.test_docs.clone(), self.test_labels.clone())
            .strategy(strategy)
            .config(config.clone())
            .seed(seed)
    }
}

/// Attach an optional learned selector and an optional run journal to a
/// builder chain.
pub(crate) fn with_extras<M: Model>(
    mut builder: SessionBuilder<M, Ready>,
    lhs: Option<Arc<LearnedSelector>>,
    journal: Option<RunJournal>,
) -> SessionBuilder<M, Ready> {
    if let Some(lhs) = lhs {
        builder = builder.lhs(lhs);
    }
    if let Some(journal) = journal {
        builder = builder.journal(journal);
    }
    builder
}

/// One grid cell repeat as a round-streamed [`Session`], advanced one
/// curve point at a time by the grid's slot loop
/// ([`crate::scheduler`]). The enum erases the model type so text
/// (logistic / naive bayes) and NER (CRF) cells sit in one pool of
/// slots.
pub enum StreamRun {
    /// Logistic text classifier session.
    Text(Session<TextClassifier>),
    /// Naive-bayes text classifier session.
    Nb(Session<NaiveBayes>),
    /// CRF tagger session.
    Ner(Session<CrfTagger>),
}

/// Evaluate `$body` with `$s` bound to whichever session `$run` holds.
macro_rules! with_session {
    ($run:expr, $s:ident => $body:expr) => {
        match $run {
            StreamRun::Text($s) => $body,
            StreamRun::Nb($s) => $body,
            StreamRun::Ner($s) => $body,
        }
    };
}

impl StreamRun {
    /// Record one more curve point (one fit/eval/score/select cycle)
    /// against the hidden labels; returns `true` once the run is done.
    pub fn advance_round(&mut self) -> Result<bool, Error> {
        Ok(with_session!(self, s => s.run_round_hidden())? == SessionStep::Done)
    }

    /// The learning curve recorded so far.
    pub fn curve(&self) -> &[CurvePoint] {
        with_session!(self, s => s.curve())
    }

    /// Finish now (no-op when already done) and take the result — the
    /// exact prefix a full run would have produced. Pass
    /// [`StopReason::Pruned`] when the slot loop prunes the cell.
    pub fn finish(&mut self, reason: StopReason) -> RunResult {
        with_session!(self, s => {
            s.finish_early(reason);
            s.result().expect("finished session has a result").clone()
        })
    }
}

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
    pub fn builder<M: Model<Sample = Sentence, Label = Vec<u16>>>(
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
