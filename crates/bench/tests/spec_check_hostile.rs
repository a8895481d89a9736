//! `spec-check` on hostile specs: every file that fails validation
//! exits 1 with one `ERR` line, never a panic (exit 101). `run --spec`
//! on a refused spec fails the same way, with one error prefix.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_histal-experiments");

/// Fresh scratch directory holding only the hostile specs; `tag` keeps
/// the tests of this file out of each other's directories.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("histal-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn hostile_specs_exit_1_with_one_err_line_each() {
    let dir = scratch("check");
    // (file name, dataset token, strategy token, pool section)
    let hostile = [
        ("priors", "mr?priors=0.9/0.3", "entropy", "{}"),
        ("noise", "mr?noise=1.5", "entropy", "{}"),
        ("batch", "mr", "entropy", r#"{"batch_size": 0}"#),
        ("hkld-k1", "mr", "HKLD{k=1}(entropy)", "{}"),
        ("hus-k0", "mr", "HUS{k=0}(entropy)", "{}"),
        // Only binary datasets can train a selector.
        ("train-trec", "mr", "LHS{train=trec}(entropy)", "{}"),
    ];
    let mut files: Vec<(&str, String)> = hostile
        .iter()
        .map(|(name, dataset, strategy, pool)| {
            let body = format!(
                r#"{{"name": "{name}", "datasets": ["{dataset}"], "groups": [{{"strategies": ["{strategy}"]}}], "pool": {pool}}}"#
            );
            (*name, body)
        })
        .collect();
    // Fields no spec struct declares: (file name, body, the field the
    // ERR line must name). The retired second schema is one of them: a
    // train × apply matrix is now an ordinary grid with an `alc-matrix`
    // report, so its `kind` is refused before anything else.
    let unknown_fields = [
        (
            "transfer-kind",
            r#"{"kind": "transfer", "name": "t", "train": ["subj"], "apply": ["mr"], "strategies": ["LHS(entropy)"]}"#,
            "kind",
        ),
        (
            "misspelt-top",
            r#"{"name": "m", "datasets": ["mr"], "groups": [{"strategies": ["entropy"]}], "reprot": "metrics"}"#,
            "reprot",
        ),
        (
            "misspelt-nested",
            r#"{"name": "n", "datasets": ["mr"], "groups": [{"strategies": ["entropy"]}], "pool": {"batch_sise": 5}}"#,
            "batch_sise",
        ),
    ];
    for (name, body, _) in unknown_fields {
        files.push((name, body.to_string()));
    }
    // Cells whose model cannot score the base strategy: (file name,
    // dataset token, model, strategy token).
    let unscorable = [
        ("mnlp-mr", "mr", "logreg", "mnlp"),
        ("egl-conll", "conll2003-en", "crf", "egl"),
        ("bald-nb", "mr", "nb", "bald"),
        ("qbc-conll", "conll2003-en", "crf", "qbc"),
    ];
    for (name, dataset, model, strategy) in unscorable {
        // Only a non-default model is spelled out.
        let model_field = if model == "nb" {
            r#""model": "nb", "#
        } else {
            ""
        };
        files.push((
            name,
            format!(
                r#"{{"name": "{name}", {model_field}"datasets": ["{dataset}"], "groups": [{{"strategies": ["{strategy}"]}}]}}"#
            ),
        ));
    }
    for (name, body) in &files {
        std::fs::write(dir.join(format!("{name}.json")), body).expect("write spec");
    }
    let out = Command::new(BIN)
        .arg("spec-check")
        .arg(&dir)
        .output()
        .expect("spawn histal-experiments");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let errs: Vec<&str> = stdout.lines().filter(|l| l.starts_with("ERR ")).collect();
    assert_eq!(errs.len(), files.len(), "{stdout}");
    for (name, _) in &files {
        let file = format!("{name}.json:");
        assert!(
            errs.iter().any(|l| l.contains(&file)),
            "no ERR line for {name}: {stdout}"
        );
    }
    for (name, _, field) in unknown_fields {
        let file = format!("{name}.json:");
        let line = errs.iter().find(|l| l.contains(&file)).unwrap();
        assert!(
            line.contains(&format!("unknown field `{field}`")),
            "{name}: the ERR line must name the unknown field: {line}"
        );
    }
    for (name, _, model, strategy) in unscorable {
        let file = format!("{name}.json:");
        let line = errs.iter().find(|l| l.contains(&file)).unwrap();
        assert!(
            line.contains(&format!("`{strategy}`")) && line.contains(&format!("`{model}`")),
            "{name}: the ERR line must name the token and the model: {line}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_spec_on_a_refused_spec_names_the_error_once() {
    let dir = scratch("run");
    let refused = [
        (
            "mnlp-mr",
            r#"{"name": "mnlp-mr", "datasets": ["mr"], "groups": [{"strategies": ["mnlp"]}]}"#,
        ),
        ("truncated", r#"{"name": "truncated", "datasets": ["#),
    ];
    for (name, body) in refused {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, body).expect("write spec");
        let out = Command::new(BIN)
            .args(["run", "--spec"])
            .arg(&path)
            .args(["--scale", "0.02", "--repeats", "1"])
            .current_dir(&dir)
            .output()
            .expect("spawn histal-experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success() && out.status.code() != Some(101),
            "{name}: {stderr}"
        );
        assert_eq!(
            stderr.matches("invalid experiment spec").count(),
            1,
            "{name}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("{name}.json: ")),
            "{name}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
