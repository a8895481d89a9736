//! Property tests of the interactive [`Session`], the one
//! implementation of the AL round.
//!
//! The contracts pinned here:
//!
//! 1. **Stop rules cut a prefix** — `ActiveLearner::run_until(rule)`
//!    returns an exact prefix of the unstopped run, and the round whose
//!    fit fires the rule evaluates nothing.
//! 2. **Arrival-order independence** — chunked, shuffled, duplicated
//!    `submit` deliveries converge to the same state as one in-order
//!    delivery per ticket; a rejected chunk changes nothing.
//! 3. **Snapshot/restore byte-identity** — restoring a mid-run snapshot
//!    onto a fresh builder reproduces the original session exactly:
//!    finishing both yields equal results.
//! 4. **Round streaming** — driving one round at a time yields a prefix
//!    of the uninterrupted run.

use proptest::prelude::*;
use rand_chacha::ChaCha8Rng;

use histal_core::driver::{ActiveLearner, PoolConfig, RunResult};
use histal_core::error::ErrorKind;
use histal_core::eval::{EvalCaps, SampleEval};
use histal_core::live::SessionStep;
use histal_core::model::Model;
use histal_core::pipeline::LabelResponse;
use histal_core::session::SessionBuilder;
use histal_core::strategy::{BaseStrategy, HistoryPolicy, Strategy as AlStrategy};

/// Posterior fixed by the sample value; fit is a no-op, metric counts
/// the labeled set so curves are distinguishable run to run.
#[derive(Clone)]
struct FixedModel {
    fitted: usize,
}

impl Model for FixedModel {
    type Sample = f64;
    type Label = usize;

    fn fit(&mut self, samples: &[&f64], _: &[&usize], _: &mut ChaCha8Rng) {
        self.fitted = samples.len();
    }

    fn eval_sample(&self, sample: &f64, _: &EvalCaps, _: u64) -> SampleEval {
        let p = sample.clamp(0.0, 1.0);
        SampleEval::from_probs(vec![p, 1.0 - p])
    }

    fn metric(&self, _: &[&f64], _: &[&usize]) -> f64 {
        self.fitted as f64
    }
}

fn pool_data(n: usize) -> (Vec<f64>, Vec<usize>) {
    // Irrational-ish stride keeps scores distinct and order nontrivial.
    let samples: Vec<f64> = (0..n)
        .map(|i| ((i * 37 + 11) % n) as f64 / n as f64)
        .collect();
    let labels: Vec<usize> = samples.iter().map(|&x| usize::from(x >= 0.5)).collect();
    (samples, labels)
}

fn builder(
    n: usize,
    policy: HistoryPolicy,
    batch: usize,
    rounds: usize,
    seed: u64,
) -> SessionBuilder<FixedModel, histal_core::session::Ready> {
    builder_for(FixedModel { fitted: 0 }, n, policy, batch, rounds, seed)
}

fn builder_for<M: Model<Sample = f64, Label = usize>>(
    model: M,
    n: usize,
    policy: HistoryPolicy,
    batch: usize,
    rounds: usize,
    seed: u64,
) -> SessionBuilder<M, histal_core::session::Ready> {
    let (samples, labels) = pool_data(n);
    ActiveLearner::builder(model)
        .pool(samples, labels)
        .test(vec![0.1, 0.9], vec![0, 1])
        .strategy(AlStrategy::new(BaseStrategy::Entropy).with_history(policy))
        .config(PoolConfig {
            batch_size: batch,
            rounds,
            init_labeled: batch,
            history_max_len: None,
            record_history: true,
            ann: None,
        })
        .seed(seed)
}

/// Wall-clock fields are the one legitimate difference between two runs
/// of the same computation; zero them before comparing.
fn canonical(mut result: RunResult) -> String {
    for round in &mut result.rounds {
        round.fit_ms = 0.0;
        round.eval_ms = 0.0;
        round.score_ms = 0.0;
        round.select_ms = 0.0;
    }
    serde_json::to_string(&result).expect("RunResult serializes")
}

fn policies() -> impl Strategy<Value = HistoryPolicy> {
    prop_oneof![
        Just(HistoryPolicy::CurrentOnly),
        Just(HistoryPolicy::Hus { k: 2 }),
        Just(HistoryPolicy::Wshs { l: 3 }),
        Just(HistoryPolicy::Fhs {
            l: 3,
            w_score: 1.0,
            w_fluct: 0.5
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: a budget or target rule cuts the run to an exact
    /// prefix of the unstopped run — same curve points, same round
    /// records — and the model sees no `eval_sample` call after the fit
    /// where the rule fired.
    #[test]
    fn run_until_is_a_prefix_of_run(
        n in 8usize..40,
        batch in 1usize..4,
        rounds in 1usize..6,
        seed in 0u64..1000,
        budget in prop_oneof![Just(None), (1usize..20).prop_map(Some)],
        target in prop_oneof![Just(None), (1.0f64..20.0).prop_map(Some)],
        policy in policies(),
    ) {
        use std::sync::{Arc, Mutex};

        use histal_core::stopping::{StopReason, StoppingRule};

        /// [`FixedModel`] that logs its calls: `'f'` per fit, `'e'` per
        /// sample evaluation.
        #[derive(Clone)]
        struct Counting {
            inner: FixedModel,
            log: Arc<Mutex<Vec<char>>>,
        }
        impl Model for Counting {
            type Sample = f64;
            type Label = usize;
            fn fit(&mut self, s: &[&f64], l: &[&usize], rng: &mut ChaCha8Rng) {
                self.log.lock().expect("log lock").push('f');
                self.inner.fit(s, l, rng);
            }
            fn eval_sample(&self, sample: &f64, caps: &EvalCaps, seed: u64) -> SampleEval {
                self.log.lock().expect("log lock").push('e');
                self.inner.eval_sample(sample, caps, seed)
            }
            fn metric(&self, s: &[&f64], l: &[&usize]) -> f64 {
                self.inner.metric(s, l)
            }
        }

        let full = builder(n, policy, batch, rounds, seed)
            .build()
            .run()
            .expect("entropy needs no extra capabilities");

        let mut rule = StoppingRule::none();
        rule.max_labeled = budget;
        rule.target_metric = target;
        let log = Arc::new(Mutex::new(Vec::new()));
        let model = Counting { inner: FixedModel { fitted: 0 }, log: log.clone() };
        let (cut, reason) = builder_for(model, n, policy, batch, rounds, seed)
            .build()
            .run_until(&rule)
            .expect("entropy needs no extra capabilities");

        let curve_json = |c: &[histal_core::driver::CurvePoint]| {
            serde_json::to_string(c).expect("curve serializes")
        };
        prop_assert_eq!(curve_json(&cut.curve), curve_json(&full.curve[..cut.curve.len()]));
        // Round records: the cut run's are the first `k` of the full
        // run's (histories differ in length, so compare without them).
        let rounds_only = |r: &RunResult, k: usize| {
            let mut r = r.clone();
            r.rounds.truncate(k);
            r.curve.clear();
            r.history.clear();
            canonical(r)
        };
        let k = cut.rounds.len();
        prop_assert_eq!(rounds_only(&cut, k), rounds_only(&full, k));

        if matches!(reason, StopReason::BudgetReached | StopReason::TargetReached) {
            prop_assert_eq!(Some(reason), rule.should_stop(&cut.curve));
            let last = log.lock().expect("log lock").last().copied();
            prop_assert_eq!(last, Some('f'));
        } else {
            prop_assert_eq!(canonical(cut), canonical(full));
        }
    }

    /// Contract 2: chunked / shuffled / partially duplicated deliveries
    /// converge to the in-order result. The shuffle order is driven by
    /// proptest, independent of the session's own RNG.
    #[test]
    fn submission_order_is_irrelevant(
        n in 8usize..32,
        batch in 2usize..5,
        rounds in 1usize..5,
        seed in 0u64..1000,
        perm_seed in 0u64..1000,
        policy in policies(),
    ) {
        let reference = builder(n, policy, batch, rounds, seed)
            .build_session()
            .run_hidden()
            .expect("hidden labels present");

        let mut session = builder(n, policy, batch, rounds, seed).build_session();
        let mut scramble = {
            use rand::SeedableRng;
            ChaCha8Rng::seed_from_u64(perm_seed)
        };
        loop {
            match session.step().expect("step never fails for entropy") {
                SessionStep::Done => break,
                SessionStep::AwaitingLabels => {
                    let full = session.answer_from_hidden().expect("hidden labels");
                    // Shuffle the labels, then deliver one at a time,
                    // re-sending the previous label alongside each new
                    // one (duplicate delivery).
                    let mut labels = full.labels.clone();
                    use rand::prelude::SliceRandom;
                    labels.shuffle(&mut scramble);
                    let mut prev: Option<(usize, usize)> = None;
                    for &(id, label) in &labels {
                        let mut chunk = vec![(id, label)];
                        if let Some(p) = prev {
                            chunk.push(p);
                        }
                        let outcome = session
                            .submit(&LabelResponse { ticket: full.ticket, labels: chunk })
                            .expect("valid labels are accepted");
                        prop_assert_eq!(outcome.accepted, 1);
                        prop_assert_eq!(outcome.duplicates, usize::from(prev.is_some()));
                        prev = Some((id, label));
                    }
                }
            }
        }
        let scrambled = session.result().expect("session done").clone();
        prop_assert_eq!(canonical(reference), canonical(scrambled));
    }

    /// Contract 3: a snapshot taken at any ticket boundary restores to a
    /// session whose remaining run is identical to the original's.
    #[test]
    fn snapshot_restore_is_byte_identical(
        n in 8usize..32,
        batch in 1usize..4,
        rounds in 2usize..6,
        seed in 0u64..1000,
        stop_after in 0usize..4,
        policy in policies(),
    ) {
        let mut original = builder(n, policy, batch, rounds, seed).build_session();
        // Run the original up to `stop_after` fulfilled tickets (or done).
        let mut fulfilled = 0;
        while fulfilled < stop_after {
            match original.step().expect("step") {
                SessionStep::Done => break,
                SessionStep::AwaitingLabels => {
                    let full = original.answer_from_hidden().expect("hidden labels");
                    original.submit(&full).expect("valid labels");
                    fulfilled += 1;
                }
            }
        }
        let snapshot = original.snapshot();
        prop_assert_eq!(snapshot.tickets.len(), fulfilled);

        let mut restored = builder(n, policy, batch, rounds, seed)
            .restore(&snapshot)
            .expect("snapshot matches its own configuration");
        prop_assert_eq!(
            serde_json::to_string(&original.status()).unwrap(),
            serde_json::to_string(&restored.status()).unwrap()
        );
        let a = original.run_hidden().expect("hidden labels");
        let b = restored.run_hidden().expect("hidden labels");
        prop_assert_eq!(canonical(a), canonical(b));
    }

    /// Contract 4: driving the session one round at a time
    /// (`run_round_hidden`) yields a byte-identical prefix of the
    /// uninterrupted run.
    #[test]
    fn round_streaming_is_a_byte_identical_prefix(
        n in 8usize..32,
        batch in 1usize..4,
        rounds in 2usize..6,
        seed in 0u64..1000,
        cut in 1usize..5,
        policy in policies(),
    ) {
        use histal_core::driver::CurvePoint;
        use histal_core::stopping::StopReason;

        let full = builder(n, policy, batch, rounds, seed)
            .build_session()
            .run_hidden()
            .expect("hidden labels present");

        let mut session = builder(n, policy, batch, rounds, seed).build_session();
        let mut done = false;
        for _ in 0..cut {
            if session.run_round_hidden().expect("hidden labels") == SessionStep::Done {
                done = true;
                break;
            }
        }
        let points = session.curve().len();
        let curve_json =
            |c: &[CurvePoint]| serde_json::to_string(c).expect("curve serializes");
        prop_assert_eq!(curve_json(session.curve()), curve_json(&full.curve[..points]));
        if !done {
            session.finish_early(StopReason::Pruned);
            prop_assert_eq!(session.stop_reason(), Some(StopReason::Pruned));
        }
        let truncated = session.result().expect("finished session").clone();
        prop_assert_eq!(curve_json(&truncated.curve), curve_json(&full.curve[..points]));
        let selections = |rounds: &[histal_core::driver::RoundRecord]| -> Vec<(usize, Vec<usize>)> {
            rounds.iter().map(|r| (r.round, r.selected.clone())).collect()
        };
        prop_assert_eq!(
            selections(&truncated.rounds),
            selections(&full.rounds[..truncated.rounds.len()])
        );
    }
}

#[test]
fn snapshot_restore_preserves_partial_labels() {
    let mut session = builder(12, HistoryPolicy::Wshs { l: 3 }, 3, 3, 7).build_session();
    assert_eq!(session.step().unwrap(), SessionStep::AwaitingLabels);
    let full = session.answer_from_hidden().unwrap();
    session.submit(&full).unwrap();
    assert_eq!(session.step().unwrap(), SessionStep::AwaitingLabels);
    // Deliver only part of the second ticket.
    let next = session.answer_from_hidden().unwrap();
    let partial = LabelResponse {
        ticket: next.ticket,
        labels: next.labels[..1].to_vec(),
    };
    session.submit(&partial).unwrap();

    let snapshot = session.snapshot();
    assert_eq!(snapshot.tickets.len(), 1);
    assert_eq!(snapshot.partial.len(), 1);

    let restored = builder(12, HistoryPolicy::Wshs { l: 3 }, 3, 3, 7)
        .restore(&snapshot)
        .unwrap();
    assert_eq!(restored.status(), session.status());
    assert_eq!(restored.status().pending_remaining, next.labels.len() - 1);
}

#[test]
fn restore_rejects_mismatched_configuration() {
    let mut session = builder(12, HistoryPolicy::Wshs { l: 3 }, 3, 3, 7).build_session();
    session.step().unwrap();
    let snapshot = session.snapshot();
    // Different seed → different config hash → Conflict.
    let err = match builder(12, HistoryPolicy::Wshs { l: 3 }, 3, 3, 8).restore(&snapshot) {
        Err(err) => err,
        Ok(_) => panic!("restore onto a different seed must fail"),
    };
    assert!(
        matches!(err.kind, ErrorKind::Conflict { .. }),
        "got {:?}",
        err.kind
    );
}

#[test]
fn submit_rejects_conflicts_and_unknowns() {
    let mut session = builder(12, HistoryPolicy::CurrentOnly, 3, 3, 7).build_session();
    session.step().unwrap();
    let full = session.answer_from_hidden().unwrap();
    let (first_id, first_label) = full.labels[0];

    // Unknown ticket.
    let err = session
        .submit(&LabelResponse {
            ticket: 99,
            labels: vec![(first_id, first_label)],
        })
        .unwrap_err();
    assert!(
        matches!(err.kind, ErrorKind::NotFound { .. }),
        "got {:?}",
        err.kind
    );

    // Sample the ticket never asked about.
    let not_asked = (0..12).find(|id| !full.indices_contains(*id)).unwrap();
    let err = session
        .submit(&LabelResponse {
            ticket: full.ticket,
            labels: vec![(not_asked, 0)],
        })
        .unwrap_err();
    assert!(
        matches!(err.kind, ErrorKind::NotFound { .. }),
        "got {:?}",
        err.kind
    );

    // Contradicting an accepted label is a conflict; re-sending the same
    // value is an acknowledged duplicate.
    session
        .submit(&LabelResponse {
            ticket: full.ticket,
            labels: vec![(first_id, first_label)],
        })
        .unwrap();
    let err = session
        .submit(&LabelResponse {
            ticket: full.ticket,
            labels: vec![(first_id, 1 - first_label)],
        })
        .unwrap_err();
    assert!(
        matches!(err.kind, ErrorKind::Conflict { .. }),
        "got {:?}",
        err.kind
    );
    let again = session
        .submit(&LabelResponse {
            ticket: full.ticket,
            labels: vec![(first_id, first_label)],
        })
        .unwrap();
    assert_eq!(again.duplicates, 1);
    assert_eq!(again.accepted, 0);
}

/// A chunk rejected part-way — an out-of-range id, an id the ticket
/// never asked for, or two different labels for one id inside the
/// chunk — records none of its labels, not even the valid ones before
/// the failure: re-sending the valid label alone is then accepted.
#[test]
fn rejected_chunk_changes_nothing() {
    let mut session = builder(12, HistoryPolicy::CurrentOnly, 3, 3, 7).build_session();
    session.step().unwrap();
    let full = session.answer_from_hidden().unwrap();
    let (id, label) = full.labels[0];
    let (other, other_label) = full.labels[1];
    let not_asked = (0..12).find(|i| !full.indices_contains(*i)).unwrap();
    let before = (session.snapshot(), session.status());
    let bad_chunks = [
        vec![(id, label), (12, 0)],
        vec![(id, label), (not_asked, 0)],
        vec![(id, label), (other, other_label), (other, 1 - other_label)],
    ];
    for labels in bad_chunks {
        let response = LabelResponse {
            ticket: full.ticket,
            labels,
        };
        assert!(session.submit(&response).is_err(), "{response:?}");
        assert_eq!(session.snapshot(), before.0);
        assert_eq!(session.status(), before.1);
    }
    let outcome = session
        .submit(&LabelResponse {
            ticket: full.ticket,
            labels: vec![(id, label)],
        })
        .unwrap();
    assert_eq!(outcome.accepted, 1);
    assert_eq!(outcome.duplicates, 0);
}

/// Convenience used by the unknown-sample test.
trait IndicesContains {
    fn indices_contains(&self, id: usize) -> bool;
}

impl IndicesContains for LabelResponse<usize> {
    fn indices_contains(&self, id: usize) -> bool {
        self.labels.iter().any(|&(i, _)| i == id)
    }
}
