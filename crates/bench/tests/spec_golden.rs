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
use std::sync::atomic::{AtomicUsize, Ordering};

const BIN: &str = env!("CARGO_BIN_EXE_histal-experiments");

fn goldens() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn specs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// Fresh scratch directory (the harness writes `results/` into its cwd).
/// Unique per call, so two tests that pass the same tag never share one
/// and delete it under each other.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("histal-golden-{tag}-{}-{n}", std::process::id()));
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
    run_at(dir, args, "0.02")
}

/// [`run`] at scale `factor` (one repeat).
fn run_at(dir: &Path, args: &[&str], factor: &str) -> (String, String) {
    let out = Command::new(BIN)
        .args(args)
        .args(["--scale", factor, "--repeats", "1"])
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

/// `compare` takes any two registry tokens: a learned selector against
/// a diversity token runs, the selector cell without pool geometry and
/// the MMR cell with it.
#[test]
fn compare_runs_a_learned_selector_against_a_diversity_token() {
    let dir = scratch("compare-lhs-mmr");
    let (stdout, _) = run(&dir, &["compare", "LHS(entropy)", "entropy+mmr"]);
    assert!(
        stdout.contains("Compare — LHS(entropy) vs entropy"),
        "{stdout}"
    );
    assert!(stdout.contains("Wilcoxon"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same contract for `significance`: stdout and its results JSON, at 1
/// and at 4 worker threads (its repeats fan out through the grid
/// executor, so the thread count must not move a byte).
#[test]
fn significance_matches_golden() {
    for threads in ["1", "4"] {
        let dir = scratch(&format!("significance-{threads}t"));
        let (stdout, _) = run(&dir, &["significance", "--threads", threads]);
        assert_eq!(
            stdout,
            golden("significance_s002_r1.stdout"),
            "significance stdout drifted at {threads} thread(s)"
        );
        assert_eq!(
            results_json(&dir, "significance.json"),
            golden("significance_s002_r1.json"),
            "significance results JSON drifted at {threads} thread(s)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `noise`, `imbalance` and `table5 --targets` became embedded specs;
/// their goldens were captured from the in-code specs they replaced.
#[test]
fn noise_imbalance_and_table5_targets_match_goldens() {
    for (args, stem) in [
        (&["noise"][..], "noise"),
        (&["imbalance"], "imbalance"),
        (&["table5", "--targets", "0.6,0.65"], "table5_targets"),
    ] {
        let dir = scratch(stem);
        let (stdout, _) = run(&dir, args);
        assert_eq!(
            stdout,
            golden(&format!("{stem}_s002_r1.stdout")),
            "{args:?}"
        );
        let json = results_json(&dir, &format!("{}.json", args[0]));
        assert_eq!(json, golden(&format!("{stem}_s002_r1.json")), "{args:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `run --spec` on the fig5 file at scale 0.05.
#[test]
fn fig5_spec_matches_s005_golden() {
    let dir = scratch("fig5-s005");
    let spec = specs().join("fig5.json");
    let (stdout, _) = run_at(&dir, &["run", "--spec", spec.to_str().unwrap()], "0.05");
    assert_eq!(stdout, golden("fig5_s005_r1.stdout"), "fig5 stdout");
    assert_eq!(
        results_json(&dir, "fig5.json"),
        golden("fig5_s005_r1.json"),
        "fig5 results JSON"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `agnostic` is the only grid that trains naive bayes (`model: nb`),
/// beside the same strategies on the logistic model.
#[test]
fn agnostic_matches_golden() {
    let dir = scratch("agnostic");
    let (stdout, _) = run(&dir, &["agnostic"]);
    assert_eq!(stdout, golden("agnostic_s002_r1.stdout"), "agnostic stdout");
    assert_eq!(
        results_json(&dir, "agnostic.json"),
        golden("agnostic_s002_r1.json"),
        "agnostic results JSON"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The NER grid (every CRF strategy of Fig. 3) at scale 0.05.
#[test]
fn fig3_ner_matches_s005_golden() {
    let dir = scratch("fig3-ner-s005");
    let (stdout, _) = run_at(&dir, &["fig3-ner"], "0.05");
    assert_eq!(stdout, golden("fig3_ner_s005_r1.stdout"), "fig3-ner stdout");
    assert_eq!(
        results_json(&dir, "fig3_ner.json"),
        golden("fig3_ner_s005_r1.json"),
        "fig3-ner results JSON"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every spec-backed row of the command table prints the same bytes as
/// `run --spec` on its checked-in file. Table 2's cells are wall clocks,
/// so only its table shape (numbers and rules masked, padding trimmed)
/// must match.
#[test]
fn every_spec_command_matches_run_spec_on_its_file() {
    use histal_bench::commands::{Runs, COMMANDS};

    let mask = |s: String| -> Vec<Vec<String>> {
        let cell = |c: &str| match c.trim() {
            c if c.parse::<f64>().is_ok() || c.chars().all(|c| c == '-') => "#".to_string(),
            c => c.to_string(),
        };
        s.lines()
            .map(|l| l.split('|').map(cell).collect())
            .collect()
    };
    for command in COMMANDS {
        let Runs::Spec(file, _) = command.runs else {
            continue;
        };
        let dir = scratch(command.name);
        let (by_name, _) = run(&dir, &[command.name]);
        let spec = specs().join(file);
        let (by_spec, _) = run(&dir, &["run", "--spec", spec.to_str().unwrap()]);
        match command.name {
            "table2" => assert_eq!(mask(by_name), mask(by_spec), "table2 shape"),
            name => assert_eq!(by_name, by_spec, "{name} != run --spec {file}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A journal torn mid-append resumes to the same stdout. `noise` runs
/// three corpora that share the generated name `MR`, so their journal
/// keys collide; the noise rate joins the replay-guard hash, so a torn
/// journal still resumes each corpus from its own cells. `fig5` and
/// `table6` journal through the command table like every spec-backed
/// command. `run --spec specs/adaptive-sweep.json` prunes cells, and its
/// pruning decisions resume with the rest (the spec pins its own scale
/// and repeats).
#[test]
fn noise_resumes_byte_identically_from_a_torn_journal() {
    let adaptive = specs().join("adaptive-sweep.json");
    let adaptive = adaptive.to_str().unwrap();
    // (tag, command, scale, cells the torn journal still holds, a line
    // the first run's stderr must contain)
    let cases = [
        ("noise", &["noise"][..], "0.02", Some(8), None),
        ("fig5", &["fig5"][..], "0.05", None, None),
        ("table6", &["table6"][..], "0.05", None, None),
        (
            "adaptive",
            &["run", "--spec", adaptive][..],
            "0.05",
            None,
            Some("# adaptive: pruned"),
        ),
    ];
    for (tag, command, factor, kept, marker) in cases {
        let dir = scratch(&format!("{tag}-resume"));
        let journal = dir.join(format!("{tag}.jsonl"));
        let journal = journal.to_str().unwrap();
        let flags = ["--journal", journal];
        let (first, stderr) = run_at(&dir, &[command, &flags].concat(), factor);
        if let Some(marker) = marker {
            assert!(stderr.contains(marker), "{tag}: {stderr}");
        }
        let written = std::fs::read_to_string(journal).expect("journal written");
        assert!(
            written.contains(r#""kind":"cell""#),
            "{tag}: no cell record"
        );
        let torn = written.len() as u64 - 50;
        let file = std::fs::OpenOptions::new().write(true).open(journal);
        file.unwrap().set_len(torn).expect("tear the journal tail");
        let resume = [&["resume"], command, &flags].concat();
        let (resumed, stderr) = run_at(&dir, &resume, factor);
        if let Some(n) = kept {
            let line = format!("# resume: {n} completed cell(s)");
            assert!(stderr.contains(&line), "{tag}: {stderr}");
        }
        assert_eq!(resumed, first, "resumed {tag} output drifted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The cross-dataset transfer matrix (`specs/transfer-matrix.json`, which
/// pins its own `repeats: 2`): stdout, the flat ALC rows of its results
/// JSON, at 1 and at 4 worker threads.
#[test]
fn transfer_matrix_matches_golden() {
    let spec = specs().join("transfer-matrix.json");
    for threads in ["1", "4"] {
        let dir = scratch(&format!("transfer-{threads}t"));
        let (stdout, stderr) = run(
            &dir,
            &[
                "run",
                "--spec",
                spec.to_str().unwrap(),
                "--threads",
                threads,
            ],
        );
        assert_eq!(
            stdout,
            golden("transfer_matrix_s002_r1.stdout"),
            "transfer matrix stdout drifted at {threads} thread(s)"
        );
        assert_eq!(
            results_json(&dir, "transfer-matrix.json"),
            golden("transfer_matrix_s002_r1.json"),
            "transfer matrix results JSON drifted at {threads} thread(s)"
        );
        assert_eq!(stderr.matches("# selector train: ").count(), 4, "{stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A transfer-matrix journal captured from an earlier binary must replay:
/// the per-entry experiment ids, seeds, cell keys and config hashes of
/// every matrix cell stay the same, so no cell re-runs, the journal
/// gains no byte and no selector is trained.
#[test]
fn transfer_matrix_resumes_golden_journal_byte_identically() {
    let dir = scratch("transfer-resume");
    let journal = dir.join("transfer.jsonl");
    std::fs::copy(goldens().join("transfer_matrix_s002_r1.jsonl"), &journal)
        .expect("copy golden journal");
    let spec = specs().join("transfer-matrix.json");
    let (stdout, stderr) = run(
        &dir,
        &[
            "resume",
            "run",
            "--spec",
            spec.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ],
    );
    assert!(
        stderr.contains("# resume: 16 completed cell(s) in journal"),
        "journal cells not recognized:\n{stderr}"
    );
    assert_eq!(
        stdout,
        golden("transfer_matrix_s002_r1.stdout"),
        "resumed transfer matrix stdout drifted from the golden"
    );
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        std::fs::read(goldens().join("transfer_matrix_s002_r1.jsonl")).unwrap(),
        "a replayed cell re-ran and appended to the journal"
    );
    assert!(
        !stderr.contains("# selector train:"),
        "a fully replayed resume trained a selector:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume the golden transfer journal with one slot's records cut out
/// (`transfer-s0-t-mr/SST-2/entropy/r1`): that slot re-runs and the other
/// 15 replay, so only its selector, `LHS(entropy)@mr`, is trained, and
/// stdout still equals the golden.
#[test]
fn a_partial_transfer_resume_trains_only_the_selectors_unreplayed_cells_need() {
    let dir = scratch("transfer-partial");
    let journal = dir.join("transfer.jsonl");
    let golden_journal = golden("transfer_matrix_s002_r1.jsonl");
    let cut = "\"cell\":\"transfer-s0-t-mr/SST-2/entropy/r1\"";
    let kept: String = golden_journal
        .lines()
        .filter(|line| !line.contains(cut))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(kept.lines().count(), golden_journal.lines().count() - 6);
    std::fs::write(&journal, kept).expect("write cut journal");
    let spec = specs().join("transfer-matrix.json");
    let (stdout, stderr) = run(
        &dir,
        &[
            "resume",
            "run",
            "--spec",
            spec.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ],
    );
    assert!(
        stderr.contains("# resume: 15 completed cell(s) in journal"),
        "journal cells not recognized:\n{stderr}"
    );
    assert_eq!(
        stdout,
        golden("transfer_matrix_s002_r1.stdout"),
        "partially resumed transfer matrix stdout drifted from the golden"
    );
    let trained: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("# selector train: "))
        .collect();
    assert_eq!(trained.len(), 1, "{stderr}");
    assert!(
        trained[0].starts_with("# selector train: LHS(entropy)@mr "),
        "{stderr}"
    );
    let records = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(records.matches("\"kind\":\"cell\"").count(), 16);
    let _ = std::fs::remove_dir_all(&dir);
}
