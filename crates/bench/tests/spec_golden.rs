//! Golden tests for the spec-driven experiment engine.
//!
//! The refactor contract: `histal-experiments fig5` / `fig3-text` (and
//! the same grids via `run --spec specs/<name>.json`) must produce
//! stdout and `results/*.json` byte-identical to the pre-refactor
//! harness, and a journal written by the pre-refactor binary must resume
//! byte-identically. The goldens under `tests/goldens/` were captured
//! from the hand-coded monolith at `--scale 0.02 --repeats 1` (debug);
//! the `compare` and `significance` goldens from those commands' own
//! serial repeat loops, before they became specs run by the executor.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_histal-experiments");

fn goldens() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn specs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// Fresh scratch directory (the harness writes `results/` into its cwd).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("histal-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn golden(name: &str) -> String {
    let path = goldens().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"))
}

/// Run the harness in `dir` at the golden scale, returning (stdout, stderr).
fn run(dir: &Path, args: &[&str]) -> (String, String) {
    let out = Command::new(BIN)
        .args(args)
        .args(["--scale", "0.02", "--repeats", "1"])
        .current_dir(dir)
        .output()
        .expect("spawn histal-experiments");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

fn results_json(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join("results").join(name))
        .unwrap_or_else(|e| panic!("harness did not write results/{name}: {e}"))
}

#[test]
fn fig5_matches_pre_refactor_golden_via_command_and_spec() {
    let dir = scratch("fig5");
    let (stdout, _) = run(&dir, &["fig5"]);
    assert_eq!(stdout, golden("fig5_s002_r1.stdout"), "fig5 stdout drifted");
    assert_eq!(
        results_json(&dir, "fig5.json"),
        golden("fig5_s002_r1.json"),
        "fig5 results JSON drifted"
    );

    // The declarative path must be the same bytes as the named command.
    let spec = specs().join("fig5.json");
    let (stdout, _) = run(&dir, &["run", "--spec", spec.to_str().unwrap()]);
    assert_eq!(
        stdout,
        golden("fig5_s002_r1.stdout"),
        "run --spec fig5 stdout drifted"
    );
    assert_eq!(
        results_json(&dir, "fig5.json"),
        golden("fig5_s002_r1.json"),
        "run --spec fig5 results JSON drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig3_text_matches_pre_refactor_golden() {
    let dir = scratch("fig3t");
    let (stdout, _) = run(&dir, &["fig3-text"]);
    assert_eq!(
        stdout,
        golden("fig3_text_s002_r1.stdout"),
        "fig3-text stdout drifted"
    );
    assert_eq!(
        results_json(&dir, "fig3_text.json"),
        golden("fig3_text_s002_r1.json"),
        "fig3-text results JSON drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal written by the pre-refactor binary must replay: same cell
/// keys, same config hashes, byte-identical stdout, no cell re-run.
#[test]
fn fig5_resumes_pre_refactor_journal_byte_identically() {
    let dir = scratch("fig5-resume");
    let journal = dir.join("fig5.jsonl");
    std::fs::copy(goldens().join("fig5_s002_r1.jsonl"), &journal).expect("copy golden journal");
    let (stdout, stderr) = run(
        &dir,
        &["resume", "fig5", "--journal", journal.to_str().unwrap()],
    );
    assert!(
        stderr.contains("# resume: 6 completed cell(s) in journal"),
        "journal cells not recognized:\n{stderr}"
    );
    assert_eq!(
        stdout,
        golden("fig5_s002_r1.stdout"),
        "resumed fig5 stdout drifted from the pre-refactor golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same contract for the fig3-text grid, whose LHS cells now route
/// through the `histal_core::learned` subsystem: a pre-refactor journal
/// must replay byte-identically with every cell recognized.
#[test]
fn fig3_text_resumes_pre_refactor_journal_byte_identically() {
    let dir = scratch("fig3t-resume");
    let journal = dir.join("fig3_text.jsonl");
    std::fs::copy(goldens().join("fig3_text_s002_r1.jsonl"), &journal)
        .expect("copy golden journal");
    let (stdout, stderr) = run(
        &dir,
        &[
            "resume",
            "fig3-text",
            "--journal",
            journal.to_str().unwrap(),
        ],
    );
    assert!(
        stderr.contains("# resume: 42 completed cell(s) in journal"),
        "journal cells not recognized:\n{stderr}"
    );
    assert_eq!(
        stdout,
        golden("fig3_text_s002_r1.stdout"),
        "resumed fig3-text stdout drifted from the pre-refactor golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `compare` runs as a two-cell spec through the grid executor; its
/// curves and verdict table must match the hand-rolled repeat loop it
/// replaced.
#[test]
fn compare_matches_golden() {
    let dir = scratch("compare");
    let (stdout, _) = run(&dir, &["compare", "entropy", "WSHS(entropy)"]);
    assert_eq!(
        stdout,
        golden("compare_s002_r1.stdout"),
        "compare stdout drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same contract for `significance`: stdout and its results JSON.
#[test]
fn significance_matches_golden() {
    let dir = scratch("significance");
    let (stdout, _) = run(&dir, &["significance"]);
    assert_eq!(
        stdout,
        golden("significance_s002_r1.stdout"),
        "significance stdout drifted"
    );
    assert_eq!(
        results_json(&dir, "significance.json"),
        golden("significance_s002_r1.json"),
        "significance results JSON drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
