//! Property-based tests of the [`Pool`] labeled/unlabeled partition and
//! of the driver's guarantee that every annotated sample comes from the
//! unlabeled side.
//!
//! The partition invariants are checked against a naive oracle — a
//! `Vec<bool>` mask filtered per query, exactly the representation the
//! pipeline refactor replaced — across random label sequences.

use proptest::prelude::*;
use rand_chacha::ChaCha8Rng;

use histal_core::driver::{ActiveLearner, PoolConfig};
use histal_core::eval::{EvalCaps, SampleEval};
use histal_core::live::SessionStep;
use histal_core::model::Model;
use histal_core::pool::{Pool, SampleId};
use histal_core::strategy::{BaseStrategy, HistoryPolicy, Strategy as AlStrategy};

/// A random partition workout: each batch of raw indices is labeled
/// (mod pool size), skipping duplicates and already-labeled ids.
fn batches() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..1000, 1..8), 0..40)
}

/// The naive mask representation the `Pool` replaced: a `Vec<bool>` plus
/// a labeling-order list, with the unlabeled side rebuilt by filtering.
struct NaiveMask {
    mask: Vec<bool>,
    labeled_order: Vec<usize>,
}

impl NaiveMask {
    fn new(n: usize) -> Self {
        Self {
            mask: vec![false; n],
            labeled_order: Vec::new(),
        }
    }

    fn unlabeled(&self) -> Vec<usize> {
        (0..self.mask.len()).filter(|&i| !self.mask[i]).collect()
    }
}

proptest! {
    /// After any sequence of batched labelings, the pool's incremental
    /// partition equals the naive mask-filter oracle: unlabeled ascending
    /// by id, labeled in labeling order, counts consistent.
    #[test]
    fn partition_matches_naive_mask_oracle(n in 1usize..60, batches in batches()) {
        let mut pool = Pool::new(n);
        let mut naive = NaiveMask::new(n);

        for raw in batches {
            let mut batch: Vec<usize> = Vec::new();
            for r in raw {
                let id = r % n;
                if !naive.mask[id] && !batch.contains(&id) {
                    batch.push(id);
                }
            }
            if batch.is_empty() {
                continue;
            }
            pool.label_batch(&batch);
            for &id in &batch {
                naive.mask[id] = true;
                naive.labeled_order.push(id);
            }

            // Partition equality against the filter-rebuilt oracle.
            prop_assert_eq!(pool.unlabeled(), &naive.unlabeled()[..]);
            prop_assert_eq!(pool.labeled(), &naive.labeled_order[..]);
            prop_assert_eq!(pool.n_labeled() + pool.n_unlabeled(), n);
            for id in 0..n {
                prop_assert_eq!(pool.is_labeled(id), naive.mask[id]);
            }
            // The unlabeled side stays ascending — the iteration-order
            // contract the RNG pairing depends on.
            prop_assert!(pool.unlabeled().windows(2).all(|w| w[0] < w[1]));
        }
    }
}

/// Posterior fixed by the sample value; fit is a no-op.
#[derive(Clone)]
struct FixedModel;

impl Model for FixedModel {
    type Sample = f64;
    type Label = usize;

    fn fit(&mut self, _: &[&f64], _: &[&usize], _: &mut ChaCha8Rng) {}

    fn eval_sample(&self, sample: &f64, _: &EvalCaps, _: u64) -> SampleEval {
        let p = sample.clamp(0.0, 1.0);
        SampleEval::from_probs(vec![p, 1.0 - p])
    }

    fn metric(&self, _: &[&f64], _: &[&usize]) -> f64 {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every id a session asks to annotate — the initial set and each
    /// round's `RoundRecord::selected` — was on the unlabeled side at
    /// request time: replaying the log of requested ids against a fresh
    /// `Pool` never labels a sample twice, and the per-round records
    /// match the post-init request log exactly.
    #[test]
    fn selected_always_from_unlabeled_side(
        n in 8usize..40,
        batch in 1usize..4,
        rounds in 1usize..6,
        seed in 0u64..1000,
    ) {
        let pool_samples: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let labels: Vec<usize> = pool_samples.iter().map(|&x| usize::from(x >= 0.5)).collect();

        let mut session = ActiveLearner::builder(FixedModel)
            .pool(pool_samples, labels)
            .test(vec![0.1, 0.9], vec![0, 1])
            .strategy(AlStrategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Wshs { l: 3 }))
            .config(PoolConfig {
                batch_size: batch,
                rounds,
                init_labeled: batch,
                record_history: false,
                ann: None,
            })
            .seed(seed)
            .build_session();
        // Answer every ticket, logging the ids each request asked for.
        let mut calls: Vec<SampleId> = Vec::new();
        while session.step().expect("entropy needs no extra capabilities") == SessionStep::AwaitingLabels {
            calls.extend(&session.pending().expect("awaiting session has a request").indices);
            let response = session.answer_from_hidden().expect("pending request");
            session.submit(&response).expect("gold labels are accepted");
        }
        let result = session.result().expect("done session has a result");
        let init = batch.min(n);

        // Replaying the full annotation log against a fresh Pool panics
        // if any id was ever labeled twice; reaching the end proves every
        // annotation came from the unlabeled side.
        let mut replay = Pool::new(n);
        for &id in calls.iter() {
            prop_assert!(!replay.is_labeled(id), "sample {} annotated twice", id);
            replay.label(id);
        }

        // The round records are exactly the oracle's post-init call log.
        let from_rounds: Vec<usize> =
            result.rounds.iter().flat_map(|r| r.selected.iter().copied()).collect();
        prop_assert_eq!(&calls[init..], &from_rounds[..]);
        prop_assert_eq!(replay.n_labeled(), init + from_rounds.len());
    }
}
