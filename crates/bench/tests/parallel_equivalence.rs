//! Serial-vs-parallel equivalence: one small Figure-3-style text cell
//! must produce a byte-identical `RunResult` whether the harness runs on
//! 1 worker thread or 4. Only the wall-clock diagnostics (`fit_ms`,
//! `eval_ms`, `select_ms`) may differ — they are zeroed before
//! comparing; curve, selections and score diagnostics are compared
//! bit-for-bit through their JSON encoding.

use histal_bench::tasks::{Scale, TextTask};
use histal_core::driver::{PoolConfig, RunResult};
use histal_core::strategy::{BaseStrategy, DensityConfig, HistoryPolicy, MmrConfig, Strategy};
use histal_data::TextSpec;

fn run_cell() -> Vec<RunResult> {
    let scale = Scale {
        factor: 0.05,
        repeats: 2,
    };
    let task = TextTask::build(&TextSpec::mr(), &scale, 0xE0);
    let config = PoolConfig {
        batch_size: 10,
        rounds: 4,
        init_labeled: 10,
        record_history: false,
        ann: None,
    };
    let strategies = [
        Strategy::new(BaseStrategy::Entropy),
        Strategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Wshs { l: 3 }),
    ];
    // Fan the (strategy × repeat) grid out exactly like the harness does.
    let cells: Vec<(usize, u64)> = (0..strategies.len())
        .flat_map(|s| (0..2u64).map(move |r| (s, 0xE0_0000 + r)))
        .collect();
    rayon::run_indexed(cells.len(), |c| {
        let (s, seed) = cells[c];
        task.builder(task.model(0), strategies[s].clone(), &config, seed)
            .build()
            .run()
            .expect("entropy needs no extra capability")
    })
}

/// A diversity-combinator cell: density weighting plus MMR selection
/// over the task's shared pool geometry, the paths that reuse per-round
/// similarity scratch buffers.
fn run_diversity_cell() -> Vec<RunResult> {
    let scale = Scale {
        factor: 0.05,
        repeats: 2,
    };
    let task = TextTask::build(&TextSpec::mr(), &scale, 0xE1);
    let config = PoolConfig {
        batch_size: 10,
        rounds: 4,
        init_labeled: 10,
        record_history: false,
        ann: None,
    };
    let strategy = Strategy::new(BaseStrategy::Entropy)
        .with_history(HistoryPolicy::Wshs { l: 3 })
        .with_density(DensityConfig::default())
        .with_mmr(MmrConfig::default());
    rayon::run_indexed(2, |r| {
        task.builder(
            task.model(0),
            strategy.clone(),
            &config,
            0xE1_0000 + r as u64,
        )
        .build()
        .run()
        .expect("entropy needs no extra capability")
    })
}

/// JSON encoding with the legitimately nondeterministic wall-clock
/// fields zeroed out.
fn canonical_json(mut results: Vec<RunResult>) -> String {
    for r in &mut results {
        for round in &mut r.rounds {
            round.fit_ms = 0.0;
            round.eval_ms = 0.0;
            round.score_ms = 0.0;
            round.select_ms = 0.0;
        }
    }
    serde_json::to_string(&results).expect("RunResult serializes")
}

#[test]
fn one_thread_and_four_threads_are_byte_identical() {
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    let pool4 = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("4-thread pool");

    let serial = canonical_json(pool1.install(run_cell));
    let parallel = canonical_json(pool4.install(run_cell));

    assert!(
        !serial.is_empty() && serial.contains("curve"),
        "cell produced no output"
    );
    assert_eq!(
        serial, parallel,
        "RunResult JSON must be byte-identical at 1 vs 4 threads"
    );
}

#[test]
fn diversity_combinators_are_byte_identical_across_threads() {
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    let pool4 = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("4-thread pool");

    let serial = canonical_json(pool1.install(run_diversity_cell));
    let parallel = canonical_json(pool4.install(run_diversity_cell));

    assert!(
        !serial.is_empty() && serial.contains("curve"),
        "diversity cell produced no output"
    );
    assert_eq!(
        serial, parallel,
        "density + MMR RunResult JSON must be byte-identical at 1 vs 4 threads"
    );
}
