//! `histal-serve` — run or smoke-test the AL session service.
//!
//! ```text
//! histal-serve serve --addr 127.0.0.1:8437 --state-dir ./serve-state --threads 8
//! histal-serve smoke --addr 127.0.0.1:8437
//! ```
//!
//! `serve` hosts the HTTP API until `POST /shutdown`. `smoke` exercises
//! a running server end to end — creates an external-oracle session,
//! fetches a ticket, submits labels, runs a simulated session to
//! completion, scrapes `/metrics` — and prints `serve smoke OK`.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use histal_serve::http::http_request;
use histal_serve::{Server, Store};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  histal-serve serve [--addr A] [--state-dir D] [--threads N]\n  histal-serve smoke --addr A"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("smoke") => smoke(&args[1..]),
        _ => usage(),
    }
}

fn serve(args: &[String]) -> ExitCode {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:8437".into());
    let state_dir = flag_value(args, "--state-dir").unwrap_or_else(|| "serve-state".into());
    let threads: usize = match flag_value(args, "--threads").as_deref() {
        None => 8,
        Some(n) => match n.parse() {
            Ok(n) => n,
            Err(_) => return usage(),
        },
    };

    let store = match Store::open(&state_dir) {
        Ok(store) => Arc::new(store),
        Err(e) => {
            eprintln!("histal-serve: open state dir {state_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n_sessions = store.session_count();
    let server = match Server::bind(&addr, store, threads) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("histal-serve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "histal-serve listening on {} (state {state_dir}, {n_sessions} sessions resumed, {threads} threads)",
        server.addr()
    );
    match server.run() {
        Ok(()) => {
            println!("histal-serve: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("histal-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One end-to-end pass against a running server. Panics (non-zero exit)
/// on any unexpected response so CI fails loudly.
fn smoke(args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, "--addr") else {
        return usage();
    };
    let request = |method: &str, path: &str, body: Option<&str>| {
        let (status, body) = http_request(&addr, method, path, body)
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        (status, body)
    };

    let (status, body) = request("GET", "/healthz", None);
    assert_eq!(status, 200, "healthz: {body}");

    // External-oracle session: fetch a ticket, answer it ourselves.
    let config = r#"{"tenant":"smoke","dataset":"mr","strategy":"WSHS{l=3}(entropy)",
        "scale":0.05,"batch_size":5,"rounds":2,"init_labeled":10,"oracle":"external"}"#;
    let (status, body) = request("POST", "/sessions", Some(config));
    assert_eq!(status, 200, "create: {body}");
    let id = body
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("create response carries an id")
        .to_string();

    let (status, batch) = request("GET", &format!("/sessions/{id}/batch"), None);
    assert_eq!(status, 200, "batch: {batch}");
    assert!(batch.contains("awaiting"), "batch: {batch}");
    let ticket = batch
        .split("\"ticket\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .expect("batch carries a ticket")
        .trim()
        .to_string();
    let indices: Vec<usize> = batch
        .split("\"indices\":[")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("batch carries indices")
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    assert!(!indices.is_empty(), "batch has indices: {batch}");
    let labels: Vec<String> = indices.iter().map(|i| format!("[{i},0]")).collect();
    let submit = format!("{{\"ticket\":{ticket},\"labels\":[{}]}}", labels.join(","));
    let (status, body) = request("POST", &format!("/sessions/{id}/labels"), Some(&submit));
    assert_eq!(status, 200, "labels: {body}");
    assert!(body.contains("\"batch_complete\":true"), "labels: {body}");
    // Re-submitting the same chunk must be absorbed as duplicates.
    let (status, body) = request("POST", &format!("/sessions/{id}/labels"), Some(&submit));
    assert_eq!(status, 200, "duplicate labels: {body}");
    assert!(body.contains("\"accepted\":0"), "duplicate labels: {body}");

    // Simulated-oracle session driven to completion server-side.
    let config = r#"{"tenant":"smoke","dataset":"mr","strategy":"entropy",
        "scale":0.05,"batch_size":5,"rounds":2,"init_labeled":10,"oracle":"simulated"}"#;
    let (status, body) = request("POST", "/sessions", Some(config));
    assert_eq!(status, 200, "create simulated: {body}");
    let sim_id = body
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("create response carries an id")
        .to_string();
    let (status, body) = request("POST", &format!("/sessions/{sim_id}/run"), None);
    assert_eq!(status, 200, "run: {body}");
    assert!(body.contains("\"done\":true"), "run: {body}");

    let (status, metrics) = request("GET", "/metrics", None);
    assert_eq!(status, 200, "metrics: {metrics}");
    assert!(
        metrics.contains("smoke.al.rounds"),
        "per-tenant round counter missing from metrics:\n{metrics}"
    );
    assert!(
        metrics.contains("smoke.serve.sessions.completed = 1"),
        "completion counter missing from metrics:\n{metrics}"
    );

    println!("serve smoke OK");
    ExitCode::SUCCESS
}
