//! Per-worker metric shards merged in index order add up exactly: the
//! MR entropy cell runs its repeats concurrently, each with its own
//! registry, and the merged `al.rounds` / `al.selected` counters must
//! equal what the runs' own round diagnostics count.

use std::sync::Arc;

use histal_bench::executor::{seed_for, text_pool_config};
use histal_bench::tasks::{Scale, TextTask};
use histal_core::strategy::{BaseStrategy, Strategy};
use histal_data::TextSpec;
use histal_obs::{MetricValue, MetricsRegistry};

fn counter(registry: &MetricsRegistry, metric: &str) -> u64 {
    registry
        .snapshot()
        .into_iter()
        .find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == metric => Some(c),
            _ => None,
        })
        .unwrap_or_else(|| panic!("merged registry missing counter {metric}"))
}

#[test]
fn merged_shards_count_every_round_and_selection() {
    // Several repeats, so the merge folds more than one shard.
    let scale = Scale {
        factor: 0.02,
        repeats: 3,
    };
    let task = TextTask::build(&TextSpec::mr(), &scale, 0xBE);
    let config = text_pool_config(false, &scale);
    let strategy = Strategy::new(BaseStrategy::Entropy);
    let name = strategy.name();
    let shards: Vec<Arc<MetricsRegistry>> = (0..scale.repeats)
        .map(|_| Arc::new(MetricsRegistry::new()))
        .collect();
    let runs = rayon::run_indexed(scale.repeats, |r| {
        let seed = seed_for("bench", &task.name, &name, r);
        task.builder(task.model(0), strategy.clone(), &config, seed)
            .metrics(shards[r].clone())
            .build()
            .run()
            .expect("cell runs")
    });
    let merged = MetricsRegistry::new();
    for shard in &shards {
        merged.merge_from(shard);
    }
    let rounds: u64 = runs.iter().map(|r| r.rounds.len() as u64).sum();
    let selected: u64 = runs
        .iter()
        .flat_map(|r| &r.rounds)
        .map(|round| round.selected.len() as u64)
        .sum();
    assert!(rounds > 0 && selected > 0);
    assert_eq!(counter(&merged, "al.rounds"), rounds);
    assert_eq!(counter(&merged, "al.selected"), selected);
}
