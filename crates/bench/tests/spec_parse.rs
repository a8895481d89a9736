//! What the [`ExperimentSpec`] parser reads from literal JSON.
//!
//! Spec files are input only: the parser is the one consumer, so these
//! tests pin the struct each JSON spelling parses to — every optional
//! field, both entry forms (a bare string and an object with overrides)
//! and every report name — and the checked-in `specs/*.json` library as
//! real-world instances.

use histal_bench::spec::{
    AnnSpec, BudgetSpec, DatasetEntry, ExperimentSpec, GroupSpec, PoolSpec, PruneSpec, ReportKind,
    ScaleSpec, SignificanceSpec, StrategyEntry,
};

fn parse(json: &str) -> ExperimentSpec {
    ExperimentSpec::from_json(json).unwrap_or_else(|e| panic!("{e}\n{json}"))
}

/// A spec that sets every field parses to exactly that struct. Strings
/// carry the characters JSON must escape.
#[test]
fn every_field_parses_from_literal_json() {
    let spec = parse(
        r#"{
            "name": "all \"fields\"",
            "experiment": "exp\\id",
            "split_seed": 18446744073709551615,
            "model": "nb",
            "datasets": ["mr", {"dataset": "subj", "rename": "Subj"}],
            "groups": [{
                "label": "g",
                "strategies": [
                    "entropy",
                    {"strategy": "WSHS{l=6}(entropy)", "rename": "WSHS l=6"},
                    {"strategy": "LHS(entropy)", "experiment": "fig3-lhs"},
                    {"strategy": "margin", "rename": "M", "experiment": "x"}
                ]
            }],
            "title": "{dataset} / {label}",
            "json_key": "{dataset}",
            "scale": {"factor": 0.5, "repeats": 3},
            "pool": {"batch_size": 10, "rounds": 4, "init_labeled": 20,
                     "record_history": true, "representations": true},
            "ner_beam": 8.0,
            "ann": {"tables": 4, "bits": 12, "probes": 1},
            "budget": {"cost_per_label": 2.0, "max_cost": 500.0},
            "prune": {"checkpoint": 2, "margin": 0.01},
            "significance": {"baseline": "entropy", "method": "permutation",
                             "iters": 1000, "alpha": 0.05, "seed": 7},
            "metrics": ["final", "alc"],
            "dataset_column": "Corpus",
            "report": "metrics"
        }"#,
    );
    let expected = ExperimentSpec {
        name: "all \"fields\"".into(),
        experiment: "exp\\id".into(),
        split_seed: u64::MAX,
        model: Some("nb".into()),
        datasets: vec![
            DatasetEntry::new("mr"),
            DatasetEntry {
                dataset: "subj".into(),
                rename: Some("Subj".into()),
            },
        ],
        groups: vec![GroupSpec {
            label: "g".into(),
            strategies: vec![
                StrategyEntry::new("entropy"),
                StrategyEntry {
                    strategy: "WSHS{l=6}(entropy)".into(),
                    rename: Some("WSHS l=6".into()),
                    experiment: None,
                },
                StrategyEntry {
                    strategy: "LHS(entropy)".into(),
                    rename: None,
                    experiment: Some("fig3-lhs".into()),
                },
                StrategyEntry {
                    strategy: "margin".into(),
                    rename: Some("M".into()),
                    experiment: Some("x".into()),
                },
            ],
        }],
        title: "{dataset} / {label}".into(),
        json_key: Some("{dataset}".into()),
        scale: Some(ScaleSpec {
            factor: Some(0.5),
            repeats: Some(3),
        }),
        pool: Some(PoolSpec {
            batch_size: Some(10),
            rounds: Some(4),
            init_labeled: Some(20),
            record_history: true,
            representations: true,
        }),
        ner_beam: Some(8.0),
        ann: Some(AnnSpec {
            tables: Some(4),
            bits: Some(12),
            probes: Some(1),
        }),
        budget: Some(BudgetSpec {
            cost_per_label: Some(2.0),
            max_cost: Some(500.0),
        }),
        prune: Some(PruneSpec {
            checkpoint: Some(2),
            margin: Some(0.01),
        }),
        significance: Some(SignificanceSpec {
            baseline: "entropy".into(),
            method: Some("permutation".into()),
            iters: Some(1000),
            alpha: Some(0.05),
            seed: Some(7),
        }),
        metrics: vec!["final".into(), "alc".into()],
        dataset_column: Some("Corpus".into()),
        report: ReportKind::Metrics,
    };
    assert_eq!(spec, expected);
}

/// Omitted fields take their defaults, in the spec and in every nested
/// section.
#[test]
fn omitted_fields_take_their_defaults() {
    let spec = parse(
        r#"{"name": "min", "datasets": ["mr"], "groups": [{"strategies": ["entropy"]}],
            "scale": {}, "pool": {}, "ann": {}, "budget": {}, "prune": {},
            "significance": {"baseline": "entropy"}}"#,
    );
    let expected = ExperimentSpec {
        name: "min".into(),
        datasets: vec![DatasetEntry::new("mr")],
        groups: vec![GroupSpec {
            label: String::new(),
            strategies: vec![StrategyEntry::new("entropy")],
        }],
        scale: Some(ScaleSpec::default()),
        pool: Some(PoolSpec::default()),
        ann: Some(AnnSpec::default()),
        budget: Some(BudgetSpec::default()),
        prune: Some(PruneSpec::default()),
        significance: Some(SignificanceSpec {
            baseline: "entropy".into(),
            ..Default::default()
        }),
        ..Default::default()
    };
    assert_eq!(spec, expected);
    assert_eq!(spec.report, ReportKind::Curves);
}

/// Every report name parses to its kind; any other name is refused with
/// the valid list.
#[test]
fn every_report_name_parses() {
    let names = [
        ("curves", ReportKind::Curves),
        ("metrics", ReportKind::Metrics),
        ("selection-stats", ReportKind::SelectionStats),
        ("timing", ReportKind::Timing),
        ("trend-census", ReportKind::TrendCensus),
        ("checkpoints", ReportKind::Checkpoints),
        ("alc-matrix", ReportKind::AlcMatrix),
    ];
    let spec = |report: &str| {
        format!(
            r#"{{"name": "r", "datasets": ["mr"], "groups": [{{"strategies": ["entropy"]}}], "report": "{report}"}}"#
        )
    };
    for (name, kind) in names {
        assert_eq!(parse(&spec(name)).report, kind, "{name}");
    }
    let msg = ExperimentSpec::from_json(&spec("plots"))
        .unwrap_err()
        .to_string();
    assert!(
        msg.contains("`plots`") && msg.contains("alc-matrix"),
        "{msg}"
    );
}

/// An entry object must name its token and may carry only the known
/// overrides.
#[test]
fn entry_objects_are_checked() {
    let refused = [
        (r#"{"rename": "R"}"#, r#""mr""#, "missing `strategy`"),
        (
            r#"{"strategy": "entropy", "renmae": "R"}"#,
            r#""mr""#,
            "`renmae`",
        ),
        (r#""entropy""#, r#"{"rename": "R"}"#, "missing `dataset`"),
        (
            r#""entropy""#,
            r#"{"dataset": "mr", "experiment": "x"}"#,
            "`experiment`",
        ),
        (r#"7"#, r#""mr""#, "string or an object"),
    ];
    for (strategy, dataset, needle) in refused {
        let json = format!(
            r#"{{"name": "e", "datasets": [{dataset}], "groups": [{{"strategies": [{strategy}]}}]}}"#
        );
        let msg = ExperimentSpec::from_json(&json).unwrap_err().to_string();
        assert!(msg.contains(needle), "{json}: {msg}");
    }
}

/// Every checked-in spec file parses and validates as an
/// [`ExperimentSpec`] — the one spec schema.
#[test]
fn checked_in_specs_parse_and_validate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("specs/ directory exists at the repo root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in &paths {
        let body = std::fs::read_to_string(path).unwrap();
        ExperimentSpec::from_json(&body)
            .and_then(|spec| spec.validate())
            .unwrap_or_else(|e| panic!("{}: parse or validate failed: {e}", path.display()));
    }
    assert!(
        paths.len() >= 12,
        "expected the twelve checked-in specs, found {}",
        paths.len()
    );
}
