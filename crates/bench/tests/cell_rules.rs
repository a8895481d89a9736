//! The cell rules match what runs: spec validation accepts a (model,
//! base strategy) pair exactly when a one-round session of that pair,
//! built by the one session constructor, runs.

use histal_bench::registry::{parse_dataset, parse_strategy, ModelKind, BASE_NAMES};
use histal_bench::spec::ExperimentSpec;
use histal_bench::tasks::{build_session, Scale, Task};
use histal_core::PoolConfig;

#[test]
fn validate_accepts_exactly_the_pairs_that_run() {
    let scale = Scale {
        factor: 0.02,
        repeats: 1,
    };
    let config = PoolConfig {
        batch_size: 5,
        rounds: 1,
        init_labeled: 10,
        ..PoolConfig::default()
    };
    let text = Task::build(&parse_dataset("mr").unwrap(), &scale, 0);
    let ner = Task::build(&parse_dataset("conll2003-en").unwrap(), &scale, 0);
    let mut accepted = Vec::new();
    for (model, dataset, task) in [
        (ModelKind::LogReg, "mr", &text),
        (ModelKind::NaiveBayes, "mr", &text),
        (ModelKind::Crf, "conll2003-en", &ner),
    ] {
        for base in BASE_NAMES {
            let spec = ExperimentSpec::from_json(&format!(
                r#"{{"name": "x", "model": "{}", "datasets": ["{dataset}"],
                    "groups": [{{"strategies": ["{base}"]}}]}}"#,
                model.name()
            ))
            .unwrap();
            let valid = spec.validate().is_ok();
            let strategy = parse_strategy(base).unwrap().strategy;
            let runs = build_session(task, model, strategy, &config, 7, None, None, None)
                .run_hidden()
                .is_ok();
            assert_eq!(valid, runs, "{} × {base}", model.name());
            if valid {
                accepted.push(format!("{}:{base}", model.name()));
            }
        }
    }
    assert_eq!(accepted.len(), 18, "{accepted:?}");
}
