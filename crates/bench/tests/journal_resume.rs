//! Golden tests of the crash-safe run journal on the path the harness
//! runs: a 4-cell spec through `GridExecutor::journal`. Replayed cells
//! must reproduce their `RunResult` byte-for-byte, and a grid killed at
//! an arbitrary byte offset must resume to output identical to an
//! uninterrupted run.

use histal_bench::executor::{GridExecutor, GridOutcome};
use histal_bench::journal::JournalCtx;
use histal_bench::spec::ExperimentSpec;
use histal_bench::tasks::Scale;
use histal_core::driver::RunResult;

fn scale() -> Scale {
    // The spec pins its own scale; this only fills gaps.
    Scale {
        factor: 0.05,
        repeats: 1,
    }
}

/// Four cells, one repeat each, on MR: split seed `split_seed` picks
/// the corpus split, so the two tests run on different data.
fn spec(split_seed: u64) -> ExperimentSpec {
    ExperimentSpec::from_json(&format!(
        r#"{{
          "name": "journal-test",
          "experiment": "journal-test",
          "split_seed": {split_seed},
          "datasets": ["mr"],
          "groups": [
            {{"strategies": ["entropy", "WSHS{{l=2}}(entropy)", "WSHS{{l=3}}(entropy)", "random"]}}
          ],
          "scale": {{"factor": 0.05, "repeats": 1}},
          "pool": {{"batch_size": 25, "rounds": 4, "init_labeled": 25}}
        }}"#
    ))
    .expect("test spec parses")
}

const CELLS: usize = 4;

fn run_grid(spec: &ExperimentSpec, ctx: Option<&JournalCtx>) -> GridOutcome {
    GridExecutor::new(spec, &scale())
        .journal(ctx)
        .execute()
        .expect("grid runs")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("histal-journal-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

fn runs(outcome: &GridOutcome) -> Vec<RunResult> {
    let runs: Vec<RunResult> = outcome
        .blocks
        .iter()
        .flat_map(|b| &b.cells)
        .flat_map(|c| c.runs.iter().cloned())
        .collect();
    assert_eq!(runs.len(), CELLS);
    runs
}

fn to_json(outcome: &GridOutcome) -> Vec<String> {
    runs(outcome)
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect()
}

/// JSON with the per-round wall-clock diagnostics zeroed: two
/// *independent executions* agree on everything except how long each
/// phase happened to take. Replay comparisons don't need this — a cached
/// cell carries the original timings and matches byte-for-byte.
fn to_json_no_timings(outcome: &GridOutcome) -> Vec<String> {
    runs(outcome)
        .into_iter()
        .map(|mut r| {
            for round in &mut r.rounds {
                round.fit_ms = 0.0;
                round.eval_ms = 0.0;
                round.score_ms = 0.0;
                round.select_ms = 0.0;
            }
            serde_json::to_string(&r).unwrap()
        })
        .collect()
}

/// A journaled cell replayed on resume is byte-identical to the original
/// run — the JSON writer's exact `f64` round-trip makes the embedded
/// `RunResult` lossless.
#[test]
fn replay_reproduces_run_result_byte_identically() {
    let spec = spec(0x60);
    let path = tmp("replay");
    let fresh = {
        let ctx = JournalCtx::create(&path).unwrap();
        run_grid(&spec, Some(&ctx))
    };
    let journaled_len = std::fs::metadata(&path).unwrap().len();
    let replayed = {
        let ctx = JournalCtx::resume(&path).unwrap();
        assert_eq!(ctx.resumed, CELLS);
        run_grid(&spec, Some(&ctx))
    };
    // Every cell came from the journal: a re-run would have appended its
    // round and cell records, and measured its own wall clocks.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), journaled_len);
    assert_eq!(to_json(&fresh), to_json(&replayed));
    // And both match an unjournaled run of the same grid (timings aside —
    // wall clocks differ between independent executions).
    assert_eq!(
        to_json_no_timings(&fresh),
        to_json_no_timings(&run_grid(&spec, None))
    );
    std::fs::remove_file(&path).ok();
}

/// Kill the harness at an arbitrary point — here, truncate the journal
/// mid-record after cell k — and `resume` must complete the grid with
/// output identical to an uninterrupted run, re-running only the cells
/// whose completion record was lost.
#[test]
fn kill_at_round_k_resume_completes_grid() {
    let spec = spec(0x61);
    let reference = run_grid(&spec, None);
    let path = tmp("kill");
    {
        let ctx = JournalCtx::create(&path).unwrap();
        run_grid(&spec, Some(&ctx));
    }
    let full_len = std::fs::metadata(&path).unwrap().len();
    // Chop at several offsets, including mid-line (a torn write): resume
    // must repair the tail and still complete the whole grid.
    for cut in [full_len / 4, full_len / 2, full_len * 3 / 4, full_len - 7] {
        let bytes = std::fs::read(&path).unwrap();
        let torn = tmp(&format!("kill-cut-{cut}"));
        std::fs::write(&torn, &bytes[..cut as usize]).unwrap();
        let ctx = JournalCtx::resume(&torn).unwrap();
        assert!(
            ctx.resumed < CELLS,
            "cut at {cut}/{full_len} bytes lost no cells"
        );
        let resumed = run_grid(&spec, Some(&ctx));
        assert_eq!(
            to_json_no_timings(&reference),
            to_json_no_timings(&resumed),
            "resume after cut at {cut} bytes diverged"
        );
        // A second resume of the now-complete journal replays everything.
        drop(ctx);
        let ctx = JournalCtx::resume(&torn).unwrap();
        assert_eq!(ctx.resumed, CELLS);
        std::fs::remove_file(&torn).ok();
    }
    std::fs::remove_file(&path).ok();
}
