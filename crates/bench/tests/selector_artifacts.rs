//! `selector-train` / `selector-apply` across processes: a selector
//! trained on one dataset is saved as an `HLRN1` artifact, reloaded by a
//! second process and deployed on another dataset. Training is
//! deterministic: the artifact bytes do not depend on the worker-thread
//! count or on how the training dataset is spelled.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_histal-experiments");

/// Fresh scratch directory (artifacts and `results/` land in the cwd).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("histal-selector-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn histal-experiments")
}

/// Run and require success, returning stdout.
fn ok(dir: &Path, args: &[&str]) -> String {
    let out = run(dir, args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn a_selector_trained_on_mr_deploys_on_sst2_in_another_process() {
    let dir = scratch("transfer");
    let train = ["selector-train", "LAL(entropy)", "mr", "lal-mr.hlrn"];
    ok(&dir, &[&train[..], &["--scale", "0.05"]].concat());
    let artifact = std::fs::metadata(dir.join("lal-mr.hlrn")).expect("artifact written");
    assert!(artifact.len() > 0, "empty artifact");
    let stdout = ok(
        &dir,
        &["selector-apply", "lal-mr.hlrn", "sst2", "--scale", "0.05"],
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("ALC 0.")),
        "no ALC line:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn selector_artifacts_are_identical_at_1_and_4_threads() {
    let dir = scratch("threads");
    for token in ["LHS(entropy)", "LAL(entropy)"] {
        for threads in ["1", "4"] {
            let out = format!("st-{threads}t.hlrn");
            let args = ["selector-train", token, "mr", &out, "--scale", "0.05"];
            ok(&dir, &[&args[..], &["--threads", threads]].concat());
        }
        let one = std::fs::read(dir.join("st-1t.hlrn")).unwrap();
        let four = std::fs::read(dir.join("st-4t.hlrn")).unwrap();
        assert!(
            one == four,
            "{token}: artifacts differ across thread counts"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn training_dataset_aliases_train_the_same_selector_and_multiclass_is_refused() {
    let dir = scratch("alias");
    for (name, out) in [("sst-2", "alias.hlrn"), ("sst2", "canonical.hlrn")] {
        ok(
            &dir,
            &[
                "selector-train",
                "LHS(entropy)",
                name,
                out,
                "--scale",
                "0.02",
            ],
        );
    }
    let alias = std::fs::read(dir.join("alias.hlrn")).unwrap();
    let canonical = std::fs::read(dir.join("canonical.hlrn")).unwrap();
    assert!(
        alias == canonical,
        "sst-2 and sst2 trained different selectors"
    );

    let out = run(
        &dir,
        &["selector-train", "LHS(entropy)", "trec", "trec.hlrn"],
    );
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("multiclass"), "{stderr}");
    assert!(
        !dir.join("trec.hlrn").exists(),
        "a refused training wrote a file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An artifact whose provenance carries a key this build does not know
/// is refused on load with one error naming the key, instead of being
/// applied with the key silently dropped. A truncated artifact is
/// refused the same way. Neither is reported as a spec error: no spec
/// is involved.
#[test]
fn an_unknown_provenance_key_is_refused() {
    let dir = scratch("strict");
    ok(
        &dir,
        &[
            "selector-train",
            "LAL(entropy)",
            "mr",
            "lal.hlrn",
            "--scale",
            "0.02",
        ],
    );
    let body = std::fs::read_to_string(dir.join("lal.hlrn")).unwrap();
    assert!(body.contains("\"provenance\":{"), "{body}");
    let tampered = body.replacen(
        "\"provenance\":{",
        "\"provenance\":{\"trained_by\":\"x\",",
        1,
    );
    std::fs::write(dir.join("tampered.hlrn"), tampered).unwrap();
    std::fs::write(dir.join("truncated.hlrn"), &body[..body.len() / 2]).unwrap();
    for (file, expect) in [
        ("tampered.hlrn", "unknown field `trained_by`"),
        ("truncated.hlrn", "parsing truncated.hlrn"),
    ] {
        let out = run(&dir, &["selector-apply", file, "mr", "--scale", "0.02"]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("error")).collect();
        assert_eq!(errors.len(), 1, "{stderr}");
        assert!(errors[0].contains(expect), "{stderr}");
        assert!(errors[0].contains("selector artifact"), "{stderr}");
        assert!(!stderr.contains("invalid experiment spec"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
