//! Training-target generation: the Algorithm 1 simulation, generalized.
//!
//! Both learned selectors are trained by simulating active learning on a
//! fully labeled dataset and measuring, for every candidate, how much
//! adding it actually improved the model (`Eval(M′) − Eval(M)`). What
//! differs is the *shape* of the emitted training data
//! ([`TargetKind`]):
//!
//! * [`TargetKind::Pairwise`] — the paper's LHS formulation: each round
//!   is a ranking query group, deltas are bucketed into graded relevance
//!   levels, and a pairwise ranker (LambdaMART or pairwise-logistic
//!   linear) is fitted. This is [`LearnedTrainerConfig`]'s default.
//! * [`TargetKind::Pointwise`] — the LAL formulation (Konyushkova et
//!   al., "Learning Active Learning from Data"): the raw deltas are
//!   pointwise expected-error-reduction regression targets, flattened
//!   across rounds, and a regression model is fitted directly. Combined
//!   with the pool-level meta-features this is what transfers across
//!   datasets (Chu & Lin).
//!
//! The two-phase protocol is shared: Phase 1 simulates plain AL with the
//! base strategy to collect historical sequences and trains the
//! next-score predictor on them; Phase 2 reruns the loop measuring
//! per-candidate deltas.

use rand::prelude::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use histal_ltr::{
    LambdaMart, LambdaMartConfig, LinearRanker, LinearRankerConfig, PointwiseConfig,
    PointwiseRegressor, QueryGroup, RankingDataset,
};
use histal_obs::{span, Level};
use histal_tseries::{ArPredictor, LstmConfig, LstmPredictor};

use crate::driver::{mix_seed, top_k};
use crate::error::Error;
use crate::eval::SampleEval;
use crate::history::HistoryStore;
use crate::model::Model;
use crate::pool::Pool;
use crate::strategy::BaseStrategy;

use super::artifacts::{TrainedPredictor, TrainedRanker};
use super::features::{candidate_set, LhsFeatureConfig, PoolMetaFeatures};
use super::selector::LearnedSelector;

/// Which next-score predictor to train (§4.4.2 feature 4).
#[derive(Debug, Clone)]
pub enum PredictorKind {
    /// The paper's choice: a small scalar LSTM.
    Lstm(LstmConfig),
    /// Ablation alternative: AR(p) least squares.
    Ar {
        /// Autoregressive order.
        order: usize,
    },
}

impl Default for PredictorKind {
    fn default() -> Self {
        Self::Lstm(LstmConfig::default())
    }
}

/// Which learning-to-rank model to train.
#[derive(Debug, Clone)]
pub enum RankerKind {
    /// The paper's choice (LambdaMART, Wu et al. 2010).
    LambdaMart(LambdaMartConfig),
    /// Ablation alternative: pairwise-logistic linear ranker.
    Linear(LinearRankerConfig),
}

impl Default for RankerKind {
    fn default() -> Self {
        Self::LambdaMart(LambdaMartConfig::default())
    }
}

/// What the training simulation emits and fits (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetKind {
    /// Graded ranking query groups, pairwise ranker (LHS, Algorithm 1).
    #[default]
    Pairwise,
    /// Flat expected-error-reduction regression targets, pointwise
    /// regressor (LAL).
    Pointwise,
}

/// Configuration for the Algorithm 1 trainer. The default is the
/// classic LHS configuration (pairwise targets, no meta block); LAL sets
/// `target: TargetKind::Pointwise` and `use_meta: true`.
#[derive(Debug, Clone)]
pub struct LearnedTrainerConfig {
    /// The base strategy whose scores populate the historical sequences.
    pub base: BaseStrategy,
    /// Algorithm 1 outer iterations (ranking query groups).
    pub rounds: usize,
    /// Candidate-set size per round (model-retrain trials per round).
    pub candidates_per_round: usize,
    /// Initial labeled set size.
    pub init_labeled: usize,
    /// Candidates with the highest measured delta moved to `L` per round.
    pub add_per_round: usize,
    /// Bucket width for converting deltas into ranking levels; `0.0`
    /// buckets each group into four equal-width levels (the paper uses a
    /// fixed interval like 0.01, which assumes a known metric scale).
    pub level_interval: f64,
    /// Feature layout for the ranker.
    pub features: LhsFeatureConfig,
    /// Next-score predictor to train.
    pub predictor: PredictorKind,
    /// Ranking model to train.
    pub ranker: RankerKind,
    /// Candidate-set size used at *selection* time by the produced
    /// [`LearnedSelector`]; must be positive.
    pub selector_candidate_pool: usize,
    /// What the simulation emits and fits.
    pub target: TargetKind,
    /// Append pool-level meta-features to every training row (and mark
    /// the produced selector to do the same at deployment).
    pub use_meta: bool,
}

impl Default for LearnedTrainerConfig {
    fn default() -> Self {
        Self {
            base: BaseStrategy::Entropy,
            rounds: 8,
            candidates_per_round: 24,
            init_labeled: 25,
            add_per_round: 5,
            level_interval: 0.0,
            features: LhsFeatureConfig::default(),
            predictor: PredictorKind::default(),
            ranker: RankerKind::default(),
            selector_candidate_pool: 75,
            target: TargetKind::Pairwise,
            use_meta: false,
        }
    }
}

/// Train a learned selector per Algorithm 1 on a fully labeled dataset
/// (the paper uses Subj) and a held-out evaluation split — the one
/// trainer behind both `LHS(...)` and `LAL(...)` tokens.
///
/// Phase 1 simulates plain active learning with the base strategy to
/// collect historical sequences and trains the next-score predictor on
/// them. Phase 2 reruns the loop measuring `Eval(M′) − Eval(M)` for every
/// candidate and emits one training row per candidate, with the
/// pool-level meta-features appended when requested: a graded ranking
/// query group per round (pairwise) or flat regression pairs
/// (pointwise). The ranker or regressor is fitted last.
///
/// Each phase runs in a `Level::Trace` span — `learned.simulate`,
/// `learned.predictor_fit`, `learned.trials` and `learned.ranker_fit` —
/// so a `--trace=trace` run shows where selector training goes.
pub fn train_learned<M>(
    prototype: &M,
    samples: &[M::Sample],
    labels: &[M::Label],
    eval_samples: &[M::Sample],
    eval_labels: &[M::Label],
    config: &LearnedTrainerConfig,
    seed: u64,
) -> Result<LearnedSelector, Error>
where
    M: Model + Clone,
    M::Sample: Clone,
    M::Label: Clone,
{
    assert!(
        config.selector_candidate_pool > 0,
        "selector candidate pool must be positive"
    );
    assert_eq!(
        samples.len(),
        labels.len(),
        "training samples/labels misaligned"
    );
    assert_eq!(
        eval_samples.len(),
        eval_labels.len(),
        "eval samples/labels misaligned"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Beyond the base strategy's own needs, Algorithm 1 builds its
    // candidate set from entropy + LC and may featurize posteriors.
    let mut caps = config.base.caps();
    caps.entropy = true;
    caps.probs = caps.probs || config.features.use_probs;

    // ---- Phase 1: collect history sequences, train the predictor. ----
    let simulate_span = span!(Level::Trace, "learned.simulate", rounds = config.rounds);
    let mut sim = Simulation::new(
        prototype.clone(),
        samples,
        labels,
        config.init_labeled,
        &mut rng,
    );
    for round in 0..config.rounds {
        sim.fit(&mut rng);
        let (unlabeled, base_scores) = sim.score_pool(config.base, &caps, seed, round, &mut rng)?;
        let batch = config.add_per_round.min(unlabeled.len());
        let picks = top_k(&base_scores, batch);
        let ids: Vec<usize> = picks.iter().map(|&p| unlabeled[p]).collect();
        sim.label(&ids);
    }
    drop(simulate_span);
    let sequences = sim.history.non_empty_sequences();
    let fit_span = span!(
        Level::Trace,
        "learned.predictor_fit",
        sequences = sequences.len()
    );
    let predictor: TrainedPredictor = match &config.predictor {
        PredictorKind::Lstm(cfg) => {
            TrainedPredictor::Lstm(LstmPredictor::fit(&sequences, cfg.clone(), &mut rng))
        }
        PredictorKind::Ar { order } => TrainedPredictor::Ar(ArPredictor::fit(&sequences, *order)),
    };
    drop(fit_span);

    // ---- Phase 2: Algorithm 1 — measure deltas, emit training rows. ----
    let trials_span = span!(Level::Trace, "learned.trials", rounds = config.rounds);
    let mut sim = Simulation::new(
        prototype.clone(),
        samples,
        labels,
        config.init_labeled,
        &mut rng,
    );
    let eval_s: Vec<&M::Sample> = eval_samples.iter().collect();
    let eval_l: Vec<&M::Label> = eval_labels.iter().collect();
    let mut dataset = RankingDataset::new();
    let mut flat_rows: Vec<Vec<f64>> = Vec::new();
    let mut flat_targets: Vec<f64> = Vec::new();
    let pool_size = samples.len();
    for round in 0..config.rounds {
        sim.fit(&mut rng);
        let base_metric = sim.model.metric(&eval_s, &eval_l);
        let (unlabeled, _) = sim.score_pool(config.base, &caps, seed, round, &mut rng)?;
        if unlabeled.is_empty() {
            break;
        }
        let evals = &sim.last_evals;
        let candidates = candidate_set(evals, config.candidates_per_round);
        // Trial-retrain for every candidate in parallel (line 7 of Alg. 1).
        let labeled_ids = sim.pool.labeled().to_vec();
        let deltas: Vec<f64> = candidates
            .par_iter()
            .map(|&pos| {
                let id = unlabeled[pos];
                let mut trial = sim.model.clone();
                let mut trial_ids = labeled_ids.clone();
                trial_ids.push(id);
                let s: Vec<&M::Sample> = trial_ids.iter().map(|&i| &samples[i]).collect();
                let l: Vec<&M::Label> = trial_ids.iter().map(|&i| &labels[i]).collect();
                let mut trial_rng =
                    ChaCha8Rng::seed_from_u64(mix_seed(seed, round as u64, id as u64));
                trial.fit(&s, &l, &mut trial_rng);
                trial.metric(&eval_s, &eval_l) - base_metric
            })
            .collect();
        let meta = config
            .use_meta
            .then(|| PoolMetaFeatures::from_evals(evals, labeled_ids.len(), pool_size, round));
        let rows: Vec<Vec<f64>> = candidates
            .iter()
            .map(|&pos| {
                let mut row = config.features.extract(
                    &sim.history.seq(unlabeled[pos]).to_vec(),
                    &evals[pos],
                    &predictor,
                );
                if let Some(meta) = &meta {
                    meta.append_to(&mut row);
                }
                row
            })
            .collect();
        match config.target {
            TargetKind::Pairwise => {
                let levels = bucket_levels(&deltas, config.level_interval);
                dataset.push(QueryGroup::new(rows, levels));
            }
            TargetKind::Pointwise => {
                flat_rows.extend(rows);
                flat_targets.extend_from_slice(&deltas);
            }
        }
        // Line 11: move the highest-delta candidates into L.
        let best = top_k(&deltas, config.add_per_round.min(candidates.len()));
        let ids: Vec<usize> = best.iter().map(|&i| unlabeled[candidates[i]]).collect();
        sim.label(&ids);
    }
    drop(trials_span);

    let _ranker_span = span!(Level::Trace, "learned.ranker_fit");
    let ranker: TrainedRanker = match config.target {
        TargetKind::Pairwise => match &config.ranker {
            RankerKind::LambdaMart(cfg) => {
                TrainedRanker::LambdaMart(LambdaMart::fit(&dataset, cfg))
            }
            RankerKind::Linear(cfg) => {
                TrainedRanker::Linear(LinearRanker::fit(&dataset, cfg, &mut rng))
            }
        },
        // LAL reuses the ranker hyper-parameters for its regression fit:
        // boosted mean-leaf trees mirror the LambdaMART ensemble shape,
        // and the linear ablation becomes ridge least squares.
        TargetKind::Pointwise => match &config.ranker {
            RankerKind::LambdaMart(cfg) => {
                let pw = PointwiseConfig {
                    n_trees: cfg.n_trees,
                    learning_rate: cfg.learning_rate,
                    tree: cfg.tree.clone(),
                    l2: 1.0,
                };
                TrainedRanker::Pointwise(PointwiseRegressor::fit_trees(
                    &flat_rows,
                    &flat_targets,
                    &pw,
                ))
            }
            RankerKind::Linear(_) => TrainedRanker::Pointwise(PointwiseRegressor::fit_linear(
                &flat_rows,
                &flat_targets,
                1.0,
            )),
        },
    };
    Ok(LearnedSelector {
        ranker,
        predictor,
        features: config.features,
        candidate_pool: config.selector_candidate_pool,
        use_meta: config.use_meta,
    })
}

/// Convert raw improvement deltas into graded relevance levels (§4.4.3):
/// with a fixed `interval`, level = number of intervals above the group
/// minimum; with `interval == 0`, each group spans four equal-width
/// levels. Degenerate groups (all deltas equal) get all-zero levels.
pub fn bucket_levels(deltas: &[f64], interval: f64) -> Vec<f64> {
    if deltas.is_empty() {
        return Vec::new();
    }
    let min = deltas.iter().copied().fold(f64::INFINITY, f64::min);
    let max = deltas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (max - min) < 1e-12 {
        return vec![0.0; deltas.len()];
    }
    let width = if interval > 0.0 {
        interval
    } else {
        (max - min) / 4.0
    };
    deltas
        .iter()
        .map(|&d| {
            let level = ((d - min) / width).floor();
            // Cap so the max delta is its own level even with rounding.
            level.min(((max - min) / width).floor())
        })
        .collect()
}

/// Internal simulation state shared by the two phases of
/// [`train_learned`]:
/// the same [`Pool`] partition the driver uses, minus the pipeline
/// plumbing the trainer does not need.
struct Simulation<'a, M: Model> {
    model: M,
    samples: &'a [M::Sample],
    labels: &'a [M::Label],
    pool: Pool,
    history: HistoryStore,
    last_evals: Vec<SampleEval>,
}

impl<'a, M: Model> Simulation<'a, M> {
    fn new(
        model: M,
        samples: &'a [M::Sample],
        labels: &'a [M::Label],
        init: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let n = samples.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut pool = Pool::new(n);
        pool.label_batch(&order[..init.min(n)]);
        Self {
            model,
            samples,
            labels,
            pool,
            history: HistoryStore::new(n),
            last_evals: Vec::new(),
        }
    }

    fn fit(&mut self, rng: &mut ChaCha8Rng) {
        let s: Vec<&M::Sample> = self
            .pool
            .labeled()
            .iter()
            .map(|&i| &self.samples[i])
            .collect();
        let l: Vec<&M::Label> = self
            .pool
            .labeled()
            .iter()
            .map(|&i| &self.labels[i])
            .collect();
        self.model.fit(&s, &l, rng);
    }

    /// Evaluate the unlabeled pool, appending base scores to the history.
    /// Returns the unlabeled ids and their base scores; evals are stashed
    /// in `last_evals` (parallel to the returned ids).
    fn score_pool(
        &mut self,
        base: BaseStrategy,
        caps: &crate::eval::EvalCaps,
        seed: u64,
        round: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(Vec<usize>, Vec<f64>), Error> {
        let unlabeled: Vec<usize> = self.pool.unlabeled().to_vec();
        let model = &self.model;
        let samples = self.samples;
        self.last_evals = unlabeled
            .par_iter()
            .map(|&id| {
                model.eval_sample(&samples[id], caps, mix_seed(seed, round as u64, id as u64))
            })
            .collect();
        let mut scores = Vec::with_capacity(unlabeled.len());
        for eval in &self.last_evals {
            let r: f64 = rand::Rng::gen(rng);
            scores.push(base.base_score(eval, r)?);
        }
        for (&id, &s) in unlabeled.iter().zip(&scores) {
            self.history.append(id, s);
        }
        Ok((unlabeled, scores))
    }

    fn label(&mut self, ids: &[usize]) {
        for &id in ids {
            if !self.pool.is_labeled(id) {
                self.pool.label(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_levels_fixed_interval() {
        // The paper's worked example: interval 0.01 over
        // [0.01, 0.015, 0.02, 0.008, 0.025] → levels {0,0,1,0,1} relative
        // to min 0.008… the paper groups into 3 levels; with floor
        // semantics: (d - 0.008)/0.01 → [0.2,0.7,1.2,0,1.7] → [0,0,1,0,1].
        let levels = bucket_levels(&[0.01, 0.015, 0.02, 0.008, 0.025], 0.01);
        assert_eq!(levels, vec![0.0, 0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn bucket_levels_auto_spans_four_buckets() {
        let levels = bucket_levels(&[0.0, 0.25, 0.5, 0.75, 1.0], 0.0);
        assert_eq!(levels, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn bucket_levels_degenerate_and_empty() {
        assert_eq!(bucket_levels(&[0.5, 0.5], 0.0), vec![0.0, 0.0]);
        assert!(bucket_levels(&[], 0.01).is_empty());
    }
}
