//! Golden tests of pruned grid execution: pruned curves must be exact
//! prefixes of exhaustive ones, a torn journal must resume to
//! byte-identical output — including the pruning decisions themselves —
//! and the thread count must not move a byte or a decision, although
//! slots advance in parallel within each epoch.

use histal_bench::executor::{GridExecutor, GridOutcome};
use histal_bench::journal::JournalCtx;
use histal_bench::spec::ExperimentSpec;
use histal_bench::tasks::Scale;
use histal_core::driver::RunResult;

fn scale() -> Scale {
    // The spec pins its own scale; this only fills gaps.
    Scale {
        factor: 0.05,
        repeats: 2,
    }
}

fn adaptive_spec(prune: bool) -> ExperimentSpec {
    let mut spec = ExperimentSpec::from_json(
        r#"{
          "name": "adaptive-test",
          "experiment": "adaptive-test",
          "split_seed": 99,
          "datasets": ["mr"],
          "groups": [
            {"strategies": ["random", "entropy", "WSHS(entropy)", "FHS(entropy)"]}
          ],
          "scale": {"factor": 0.05, "repeats": 2},
          "prune": {"checkpoint": 1, "margin": 0.0}
        }"#,
    )
    .expect("test spec parses");
    if !prune {
        spec.prune = None;
    }
    spec
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("histal-adaptive-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// Serialize every cell's repeats with the per-round wall-clock
/// diagnostics zeroed — independent executions agree on everything but
/// how long each phase took.
fn to_json_no_timings(outcome: &GridOutcome) -> Vec<String> {
    outcome
        .blocks
        .iter()
        .flat_map(|b| &b.cells)
        .flat_map(|c| {
            c.runs.iter().map(|r| {
                let mut r: RunResult = r.clone();
                for round in &mut r.rounds {
                    round.fit_ms = 0.0;
                    round.eval_ms = 0.0;
                    round.score_ms = 0.0;
                    round.select_ms = 0.0;
                }
                serde_json::to_string(&r).unwrap()
            })
        })
        .collect()
}

/// Every pruned cell's curve is an exact byte prefix of the same cell's
/// exhaustive curve, survivors run to full length and match exactly,
/// and the classic path reports no adaptive summary.
#[test]
fn pruned_curves_are_exact_prefixes_of_exhaustive_run() {
    let adaptive = GridExecutor::new(&adaptive_spec(true), &scale())
        .execute()
        .expect("adaptive grid runs");
    let exhaustive = GridExecutor::new(&adaptive_spec(false), &scale())
        .execute()
        .expect("exhaustive grid runs");
    assert!(exhaustive.adaptive.is_none(), "classic path has no summary");
    let summary = adaptive.adaptive.expect("adaptive path has a summary");
    assert!(summary.pruned_cells > 0, "margin 0 must prune something");
    assert!(summary.saved_cell_rounds() > 0);

    let point_json = |r: &RunResult| -> Vec<String> {
        r.curve
            .iter()
            .map(|p| serde_json::to_string(p).unwrap())
            .collect()
    };
    let full_points = exhaustive.blocks[0].config.rounds + 1;
    let mut truncated = 0usize;
    for (a_cell, e_cell) in adaptive.blocks[0]
        .cells
        .iter()
        .zip(&exhaustive.blocks[0].cells)
    {
        assert_eq!(a_cell.name, e_cell.name);
        for (a_run, e_run) in a_cell.runs.iter().zip(&e_cell.runs) {
            let (a_pts, e_pts) = (point_json(a_run), point_json(e_run));
            assert_eq!(e_pts.len(), full_points);
            assert!(a_pts.len() <= e_pts.len());
            assert_eq!(
                a_pts,
                e_pts[..a_pts.len()],
                "{}: streamed curve diverged from the run-to-completion curve",
                a_cell.name
            );
            if a_pts.len() < e_pts.len() {
                truncated += 1;
            }
        }
    }
    assert!(truncated > 0, "no run was actually cut short");
}

/// Kill an adaptive run at arbitrary byte offsets and resume: the
/// journal replays the completed (possibly truncated) slots, the
/// scheduler re-derives identical pruning decisions from them, and the
/// grid output — summary included — is byte-identical.
#[test]
fn adaptive_resume_from_torn_journal_is_byte_identical() {
    let spec = adaptive_spec(true);
    let path = tmp("adaptive-kill");
    let reference = {
        let ctx = JournalCtx::create(&path).unwrap();
        GridExecutor::new(&spec, &scale())
            .journal(Some(&ctx))
            .execute()
            .expect("journaled adaptive grid runs")
    };
    let ref_summary = reference.adaptive.expect("summary present");
    let full_len = std::fs::metadata(&path).unwrap().len();
    for cut in [full_len / 4, full_len / 2, full_len * 3 / 4, full_len - 7] {
        let bytes = std::fs::read(&path).unwrap();
        let torn = tmp(&format!("adaptive-cut-{cut}"));
        std::fs::write(&torn, &bytes[..cut as usize]).unwrap();
        let ctx = JournalCtx::resume(&torn).unwrap();
        let resumed = GridExecutor::new(&spec, &scale())
            .journal(Some(&ctx))
            .execute()
            .expect("resumed adaptive grid runs");
        assert_eq!(
            to_json_no_timings(&reference),
            to_json_no_timings(&resumed),
            "resume after cut at {cut}/{full_len} bytes diverged"
        );
        assert_eq!(
            resumed.adaptive.expect("summary present"),
            ref_summary,
            "pruning decisions changed across resume (cut at {cut} bytes)"
        );
        std::fs::remove_file(&torn).ok();
    }
    std::fs::remove_file(&path).ok();
}

/// The `specs/adaptive-sweep.json` shape (two datasets, six strategies,
/// checkpoint 1, margin 0): slots advance in parallel within each epoch,
/// so running at 1 and 4 threads must give the same timing-free outcome
/// and the same pruning decisions.
#[test]
fn pruned_grid_is_identical_at_one_and_four_threads() {
    let spec = ExperimentSpec::from_json(
        r#"{
          "name": "adaptive-threads",
          "experiment": "adaptive-threads",
          "split_seed": 173,
          "datasets": ["mr", "sst2"],
          "groups": [
            {"strategies": ["random", "entropy", "LC",
                            "HUS(entropy)", "WSHS(entropy)", "FHS(entropy)"]}
          ],
          "scale": {"factor": 0.05, "repeats": 2},
          "prune": {"checkpoint": 1, "margin": 0.0}
        }"#,
    )
    .expect("test spec parses");
    let run_at = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(|| GridExecutor::new(&spec, &scale()).execute())
            .expect("pruned grid runs")
    };
    let serial = run_at(1);
    let parallel = run_at(4);
    let summary = serial.adaptive.expect("pruned grid has a summary");
    assert!(summary.pruned_cells > 0, "margin 0 must prune something");
    assert_eq!(
        parallel.adaptive.expect("pruned grid has a summary"),
        summary,
        "pruning decisions changed with the thread count"
    );
    assert_eq!(
        to_json_no_timings(&serial),
        to_json_no_timings(&parallel),
        "pruned grid output changed with the thread count"
    );
}
