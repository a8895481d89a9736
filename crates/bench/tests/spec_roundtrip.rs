//! Property tests for the [`ExperimentSpec`] serde layer.
//!
//! A spec must survive `spec → JSON → spec → JSON` with the second JSON
//! byte-equal to the first — otherwise tooling that round-trips a spec
//! file silently edits it. The generator covers every optional field and
//! puts quotes/backslashes in strings to stress JSON escaping; the
//! checked-in `specs/*.json` library is covered as real-world instances.

use proptest::prelude::*;
use proptest::strategy::Just;

use histal_bench::spec::{
    AnnSpec, BudgetSpec, DatasetEntry, ExperimentSpec, GroupSpec, PoolSpec, PruneSpec, ReportKind,
    ScaleSpec, SignificanceSpec, StrategyEntry,
};

/// Short identifier-ish strings, possibly empty, including characters
/// JSON must escape (`"`, `\`) and spaces.
const NAME: &str = "[a-zA-Z0-9 _:(){}\"\\\\-]{0,10}";

fn opt<V, S>(s: S) -> impl Strategy<Value = Option<V>>
where
    V: Clone + 'static,
    S: Strategy<Value = V> + 'static,
{
    prop_oneof![s.prop_map(Some), Just(None)]
}

fn any_bool() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

fn dataset_entry() -> impl Strategy<Value = DatasetEntry> {
    (NAME, opt(NAME)).prop_map(|(dataset, rename)| DatasetEntry { dataset, rename })
}

fn strategy_entry() -> impl Strategy<Value = StrategyEntry> {
    (NAME, opt(NAME), opt(NAME)).prop_map(|(strategy, rename, experiment)| StrategyEntry {
        strategy,
        rename,
        experiment,
    })
}

fn group() -> impl Strategy<Value = GroupSpec> {
    (NAME, prop::collection::vec(strategy_entry(), 1..4))
        .prop_map(|(label, strategies)| GroupSpec { label, strategies })
}

fn scale_spec() -> impl Strategy<Value = ScaleSpec> {
    (opt(0.01f64..2.0), opt(1usize..9)).prop_map(|(factor, repeats)| ScaleSpec { factor, repeats })
}

fn pool_spec() -> impl Strategy<Value = PoolSpec> {
    (
        opt(1usize..200),
        opt(1usize..30),
        opt(1usize..200),
        any_bool(),
        any_bool(),
    )
        .prop_map(
            |(batch_size, rounds, init_labeled, record_history, representations)| PoolSpec {
                batch_size,
                rounds,
                init_labeled,
                record_history,
                representations,
            },
        )
}

fn budget_spec() -> impl Strategy<Value = BudgetSpec> {
    (opt(0.25f64..8.0), opt(1.0f64..4000.0)).prop_map(|(cost_per_label, max_cost)| BudgetSpec {
        cost_per_label,
        max_cost,
    })
}

fn prune_spec() -> impl Strategy<Value = PruneSpec> {
    (opt(1usize..8), opt(0.0f64..0.2))
        .prop_map(|(checkpoint, margin)| PruneSpec { checkpoint, margin })
}

fn significance_spec() -> impl Strategy<Value = SignificanceSpec> {
    (
        NAME,
        opt(prop_oneof![
            Just("bootstrap".to_string()),
            Just("permutation".to_string())
        ]),
        opt(1usize..5000),
        opt(0.001f64..0.5),
        opt(0u64..u64::MAX),
    )
        .prop_map(|(baseline, method, iters, alpha, seed)| SignificanceSpec {
            baseline,
            method,
            iters,
            alpha,
            seed,
        })
}

fn report_kind() -> impl Strategy<Value = ReportKind> {
    prop_oneof![
        Just(ReportKind::Curves),
        Just(ReportKind::Metrics),
        Just(ReportKind::SelectionStats),
        Just(ReportKind::Timing),
        Just(ReportKind::TrendCensus),
        Just(ReportKind::Checkpoints),
    ]
}

fn spec() -> impl Strategy<Value = ExperimentSpec> {
    (
        (
            NAME,
            NAME,
            0u64..u64::MAX,
            opt(NAME),
            prop::collection::vec(dataset_entry(), 1..4),
        ),
        (
            prop::collection::vec(group(), 1..3),
            NAME,
            opt(NAME),
            opt(scale_spec()),
            opt(pool_spec()),
        ),
        (prop::collection::vec(NAME, 0..3), opt(NAME), report_kind()),
        (
            opt(budget_spec()),
            opt(prune_spec()),
            opt(significance_spec()),
        ),
    )
        .prop_map(
            |(
                (name, experiment, split_seed, model, datasets),
                (groups, title, json_key, scale, pool),
                (metrics, dataset_column, report),
                (budget, prune, significance),
            )| ExperimentSpec {
                name,
                experiment,
                split_seed,
                model,
                datasets,
                groups,
                title,
                json_key,
                scale,
                pool,
                metrics,
                dataset_column,
                report,
                // Kept `None` here: `ner_beam` is only valid on NER
                // specs and the generated datasets are arbitrary. Its
                // round-trip is pinned by `ner_beam_round_trips`.
                ner_beam: None,
                // Same story: `ann` requires a diversity strategy on a
                // text spec; pinned by `ann_round_trips`.
                ann: None,
                budget,
                prune,
                significance,
            },
        )
}

/// `ann` survives the JSON round trip, partial fields included.
#[test]
fn ann_round_trips() {
    let spec = ExperimentSpec {
        name: "bench-div".into(),
        experiment: "bench-div".into(),
        datasets: vec![DatasetEntry::new("mr")],
        groups: vec![GroupSpec {
            label: "div".into(),
            strategies: vec![StrategyEntry::new("WSHS(entropy)+mmr")],
        }],
        pool: Some(PoolSpec {
            representations: true,
            ..Default::default()
        }),
        ann: Some(AnnSpec {
            tables: Some(4),
            bits: None,
            probes: Some(1),
        }),
        ..Default::default()
    };
    let json = spec.to_json_pretty();
    let reparsed = ExperimentSpec::from_json(&json).expect("ann spec reparses");
    assert_eq!(reparsed.ann, spec.ann);
    assert_eq!(reparsed.to_json_pretty(), json);
    spec.validate().expect("ann spec validates");
}

/// `ner_beam` survives the JSON round trip on a spec where it is valid.
#[test]
fn ner_beam_round_trips() {
    let spec = ExperimentSpec {
        name: "bench-ner".into(),
        experiment: "bench-ner".into(),
        datasets: vec![DatasetEntry::new("conll2003-en")],
        ner_beam: Some(8.0),
        ..Default::default()
    };
    let json = spec.to_json_pretty();
    let reparsed = ExperimentSpec::from_json(&json).expect("beam spec reparses");
    assert_eq!(reparsed.ner_beam, Some(8.0));
    assert_eq!(reparsed.to_json_pretty(), json);
}

proptest! {
    /// `spec → JSON → spec → JSON` is idempotent: the reparsed spec
    /// equals the original and its serialization is byte-stable.
    #[test]
    fn json_round_trip_is_idempotent(original in spec()) {
        let json1 = original.to_json_pretty();
        let reparsed = match ExperimentSpec::from_json(&json1) {
            Ok(s) => s,
            Err(e) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "generated spec did not reparse: {e}\n{json1}"
                )))
            }
        };
        prop_assert_eq!(&original, &reparsed, "reparse changed the spec");
        prop_assert_eq!(json1, reparsed.to_json_pretty(), "serialization not byte-stable");
    }
}

/// Every checked-in spec file must parse, validate, and round-trip
/// byte-idempotently. Files declaring `"kind": "transfer"` follow the
/// transfer-matrix schema; everything else is an [`ExperimentSpec`].
#[test]
fn checked_in_specs_parse_validate_and_round_trip() {
    use histal_bench::spec::SpecFile;

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("specs/ directory exists at the repo root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let (mut experiment_specs, mut transfer_specs) = (0usize, 0usize);
    for path in paths {
        let body = std::fs::read_to_string(&path).unwrap();
        let spec = SpecFile::from_json(&body)
            .unwrap_or_else(|e| panic!("{}: parse or validate failed: {e}", path.display()));
        match spec {
            SpecFile::Experiment(_) => experiment_specs += 1,
            SpecFile::Transfer(_) => transfer_specs += 1,
        }
        let json1 = spec.to_json_pretty();
        let spec2 = SpecFile::from_json(&json1).unwrap();
        assert_eq!(
            spec,
            spec2,
            "{}: round trip changed the spec",
            path.display()
        );
        assert_eq!(
            json1,
            spec2.to_json_pretty(),
            "{}: serialization not idempotent",
            path.display()
        );
    }
    assert!(
        experiment_specs >= 7,
        "expected the seven checked-in experiment specs, found {experiment_specs}"
    );
    assert!(
        transfer_specs >= 1,
        "expected the checked-in transfer spec, found {transfer_specs}"
    );
}
