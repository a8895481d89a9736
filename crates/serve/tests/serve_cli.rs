//! The `histal-serve` binary end to end: `serve` on an ephemeral port,
//! `smoke` against it (external and simulated oracles, duplicate
//! absorption, per-tenant `/metrics`), a clean `POST /shutdown`, then a
//! restart on the same state directory must list the same sessions,
//! byte for byte: the finished session boots from its result record,
//! the unfinished one by replay.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

use histal_serve::http::http_request;

const BIN: &str = env!("CARGO_BIN_EXE_histal-serve");

/// Start `histal-serve serve` on port 0 in `dir` and return the child
/// with the address it printed.
fn start(dir: &Path) -> (Child, String) {
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state-dir",
            "serve-state",
            "--threads",
            "4",
        ])
        .current_dir(dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn histal-serve serve");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .strip_prefix("histal-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listening line: {line:?}"))
        .to_string();
    (child, addr)
}

fn get_sessions(addr: &str) -> String {
    let (status, body) = http_request(addr, "GET", "/sessions", None).expect("GET /sessions");
    assert_eq!(status, 200, "{body}");
    body
}

/// `POST /shutdown`, then require the server to exit 0.
fn stop(mut child: Child, addr: &str) {
    let (status, body) = http_request(addr, "POST", "/shutdown", None).expect("POST /shutdown");
    assert_eq!(status, 200, "{body}");
    let exit = child.wait().expect("wait for histal-serve");
    assert_eq!(exit.code(), Some(0));
}

#[test]
fn smoke_passes_and_a_restart_lists_the_same_sessions() {
    let dir = std::env::temp_dir().join(format!("histal-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let (server, addr) = start(&dir);
    let smoke = Command::new(BIN)
        .args(["smoke", "--addr", &addr])
        .output()
        .expect("run histal-serve smoke");
    assert_eq!(
        smoke.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&smoke.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&smoke.stdout), "serve smoke OK\n");
    let before = get_sessions(&addr);
    stop(server, &addr);

    let (server, addr) = start(&dir);
    let after = get_sessions(&addr);
    stop(server, &addr);

    assert!(before.contains("\"tenant\":\"smoke\""), "{before}");
    assert_eq!(before, after);
    let _ = std::fs::remove_dir_all(&dir);
}
