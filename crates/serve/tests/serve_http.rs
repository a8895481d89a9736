//! End-to-end service tests: the full HTTP surface, hostile request
//! heads, crash/resume byte-identity under arbitrary journal truncation,
//! and the many-concurrent-sessions load shape the service exists for.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use histal_serve::http::http_request;
use histal_serve::{Server, SessionConfig, Store};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("histal-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_config(tenant: &str, oracle: &str, seed: u64) -> SessionConfig {
    SessionConfig {
        tenant: tenant.into(),
        dataset: "mr".into(),
        strategy: "WSHS{l=3}(entropy)".into(),
        seed,
        scale: 0.05,
        batch_size: 5,
        rounds: 2,
        init_labeled: 10,
        oracle: oracle.into(),
    }
}

fn spawn_server(
    dir: &Path,
    threads: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let store = Arc::new(Store::open(dir).unwrap());
    Server::bind("127.0.0.1:0", store, threads).unwrap().spawn()
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (status, _) = http_request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap().unwrap();
}

fn json_str(body: &str, key: &str) -> String {
    body.split(&format!("\"{key}\":\""))
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or_else(|| panic!("no string field {key} in {body}"))
        .to_string()
}

fn json_u64(body: &str, key: &str) -> u64 {
    body.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no numeric field {key} in {body}"))
}

fn json_indices(body: &str) -> Vec<usize> {
    body.split("\"indices\":[")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .unwrap_or_else(|| panic!("no indices in {body}"))
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect()
}

/// Send raw request bytes, half-close, and return the response status.
fn raw_status(addr: std::net::SocketAddr, request: &[u8]) -> u16 {
    let response = raw_response(addr, request);
    let status_line = response.lines().next().unwrap_or_default();
    status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
}

/// Send raw request bytes, half-close, and return the whole response.
fn raw_response(addr: std::net::SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may answer and close before it has read everything, so
    // a write or half-close that races that close is not a failure.
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    // A reset that races the close may cut the read short; what arrived
    // before it is the response.
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

/// A chunked body is refused with a 400 that names the header, instead
/// of being left unread and parsed as an empty body.
#[test]
fn transfer_encoding_is_a_400_naming_the_header() {
    let dir = tmp_dir("chunked");
    let (addr, handle) = spawn_server(&dir, 2);
    let request = b"POST /sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
        2\r\n{}\r\n0\r\n\r\n";
    let response = raw_response(addr, request);
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("Transfer-Encoding"), "{response}");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A header line that never ends is cut off at `MAX_LINE` and answered
/// with a 400 instead of being buffered without limit.
#[test]
fn unterminated_64k_header_line_is_a_400() {
    let dir = tmp_dir("long-header");
    let (addr, handle) = spawn_server(&dir, 2);
    let mut request = b"GET /healthz HTTP/1.1\r\nX-Long: ".to_vec();
    request.resize(request.len() + (64 << 10), b'a');
    assert_eq!(raw_status(addr, &request), 400);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `MAX_HEADERS` headers are served; one more is a 400.
#[test]
fn more_than_100_headers_is_a_400() {
    let dir = tmp_dir("many-headers");
    let (addr, handle) = spawn_server(&dir, 2);
    let request = |n: usize| {
        let mut r = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..n {
            r.push_str(&format!("X-H{i}: v\r\n"));
        }
        r.push_str("\r\n");
        r
    };
    assert_eq!(raw_status(addr, request(100).as_bytes()), 200);
    assert_eq!(raw_status(addr, request(101).as_bytes()), 400);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The whole external-oracle lifecycle over real HTTP: create, ticket,
/// out-of-order partial submissions with duplicate redelivery, error
/// statuses, status/snapshot endpoints.
#[test]
fn external_oracle_lifecycle_over_http() {
    let dir = tmp_dir("lifecycle");
    let (addr, handle) = spawn_server(&dir, 4);

    let config = serde_json::to_string(&tiny_config("acme", "external", 7)).unwrap();
    let (status, body) = http_request(addr, "POST", "/sessions", Some(&config)).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = json_str(&body, "id");

    // Unknown session and unknown route are 404s.
    let (status, _) = http_request(addr, "GET", "/sessions/s999999/batch", None).unwrap();
    assert_eq!(status, 404);

    let (status, batch) =
        http_request(addr, "GET", &format!("/sessions/{id}/batch"), None).unwrap();
    assert_eq!(status, 200, "{batch}");
    let ticket = json_u64(&batch, "ticket");
    let indices = json_indices(&batch);
    assert_eq!(indices.len(), 10, "initial ticket covers init_labeled");

    // A second batch request returns the same ticket (coalescing).
    let (_, batch2) = http_request(addr, "GET", &format!("/sessions/{id}/batch"), None).unwrap();
    assert_eq!(batch, batch2);

    // Submit in reverse order, split into two chunks, with the first
    // chunk redelivered in between.
    let chunk = |ids: &[usize]| {
        let labels: Vec<String> = ids.iter().map(|i| format!("[{i},1]")).collect();
        format!("{{\"ticket\":{ticket},\"labels\":[{}]}}", labels.join(","))
    };
    let mut reversed = indices.clone();
    reversed.reverse();
    let first = chunk(&reversed[..4]);
    let labels_path = format!("/sessions/{id}/labels");
    let (status, body) = http_request(addr, "POST", &labels_path, Some(&first)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "accepted"), 4);
    assert_eq!(json_u64(&body, "remaining"), 6);
    // Redelivery of the same chunk: all duplicates, no error.
    let (status, body) = http_request(addr, "POST", &labels_path, Some(&first)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "accepted"), 0);
    assert_eq!(json_u64(&body, "duplicates"), 4);
    // Conflicting label for an already-filled slot is a 409.
    let conflicting = format!("{{\"ticket\":{ticket},\"labels\":[[{},0]]}}", reversed[0]);
    let (status, body) = http_request(addr, "POST", &labels_path, Some(&conflicting)).unwrap();
    assert_eq!(status, 409, "{body}");
    // Wrong-shaped label (tags for a text session) is a 400.
    let wrong_shape = format!(
        "{{\"ticket\":{ticket},\"labels\":[[{},[1,2]]]}}",
        reversed[5]
    );
    let (status, body) = http_request(addr, "POST", &labels_path, Some(&wrong_shape)).unwrap();
    assert_eq!(status, 400, "{body}");
    // Unissued ticket is a 404.
    let future = format!(
        "{{\"ticket\":{},\"labels\":[[{},1]]}}",
        ticket + 50,
        reversed[5]
    );
    let (status, body) = http_request(addr, "POST", &labels_path, Some(&future)).unwrap();
    assert_eq!(status, 404, "{body}");

    let rest = chunk(&reversed[4..]);
    let (status, body) = http_request(addr, "POST", &labels_path, Some(&rest)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"batch_complete\":true"), "{body}");

    // The next batch is the first selection round's ticket.
    let (status, batch) =
        http_request(addr, "GET", &format!("/sessions/{id}/batch"), None).unwrap();
    assert_eq!(status, 200, "{batch}");
    assert_eq!(json_u64(&batch, "ticket"), ticket + 1);
    assert_eq!(
        json_indices(&batch).len(),
        5,
        "round ticket covers batch_size"
    );

    let (status, body) = http_request(addr, "GET", &format!("/sessions/{id}"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_str(&body, "tenant"), "acme");
    let (status, snapshot) =
        http_request(addr, "GET", &format!("/sessions/{id}/snapshot"), None).unwrap();
    assert_eq!(status, 200);
    assert!(snapshot.contains("\"tickets\""), "{snapshot}");

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strategies the registry rejects — a one-member HKLD committee, a zero
/// history window — are a 400 at session creation, never a panicked
/// handler's 500.
#[test]
fn degenerate_strategies_are_a_400() {
    let dir = tmp_dir("degenerate");
    let (addr, handle) = spawn_server(&dir, 2);
    for strategy in ["HKLD{k=1}(entropy)", "HUS{k=0}(entropy)"] {
        let mut config = tiny_config("acme", "external", 7);
        config.strategy = strategy.into();
        let config = serde_json::to_string(&config).unwrap();
        let (status, body) = http_request(addr, "POST", "/sessions", Some(&config)).unwrap();
        assert_eq!(status, 400, "{strategy}: {body}");
    }
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A create body with a misspelt field is a 400 naming that field, and
/// journals nothing, instead of a session that silently runs the default.
#[test]
fn misspelt_create_field_is_a_400_naming_it() {
    let dir = tmp_dir("misspelt");
    let (addr, handle) = spawn_server(&dir, 2);
    let body = r#"{"dataset": "mr", "strategyy": "entropy", "scale": 0.05}"#;
    let (status, reply) = http_request(addr, "POST", "/sessions", Some(body)).unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("unknown field `strategyy`"), "{reply}");
    let journals = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    assert_eq!(journals, 0, "a refused session left a journal");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell no model can score is refused where the request enters: MNLP
/// on the logistic model is a 400 that journals nothing, while QBC, whose
/// committee the session constructor trains, runs to done.
#[test]
fn unscorable_cells_are_refused_at_the_door() {
    let dir = tmp_dir("door");
    let (addr, handle) = spawn_server(&dir, 2);
    let mut config = tiny_config("acme", "simulated", 7);
    config.strategy = "mnlp".into();
    let body = serde_json::to_string(&config).unwrap();
    let (status, reply) = http_request(addr, "POST", "/sessions", Some(&body)).unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(
        reply.contains("mnlp") && reply.contains("logreg"),
        "{reply}"
    );
    let journals = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            let path = e.as_ref().unwrap().path();
            path.extension().is_some_and(|x| x == "jsonl")
        })
        .count();
    assert_eq!(journals, 0, "a refused session left a journal");

    config.strategy = "qbc".into();
    let body = serde_json::to_string(&config).unwrap();
    let (status, reply) = http_request(addr, "POST", "/sessions", Some(&body)).unwrap();
    assert_eq!(status, 200, "{reply}");
    let id = json_str(&reply, "id");
    let (status, reply) = http_request(addr, "POST", &format!("/sessions/{id}/run"), None).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"done\":true"), "{reply}");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill -9 at an arbitrary journal offset, restart, and the session
/// resumes byte-identically: the reopened snapshot equals the snapshot
/// the live session had after exactly the chunks that survived in the
/// (possibly torn) journal prefix.
#[test]
fn crash_at_arbitrary_journal_offset_resumes_byte_identically() {
    let dir = tmp_dir("crash");
    let id;
    // `snapshots[k]` is the live session's snapshot after k accepted
    // chunks.
    let mut snapshots = Vec::new();
    {
        let store = Store::open(&dir).unwrap();
        let view = store
            .create_session(tiny_config("acme", "external", 11))
            .unwrap();
        id = view.id.clone();
        snapshots.push(store.snapshot_json(&id).unwrap());
        // Drive a few rounds one single-label chunk at a time so the
        // journal has many records and truncation can land mid-batch.
        loop {
            let batch = store.next_batch(&id).unwrap();
            if batch.state == "done" || snapshots.len() > 20 {
                break;
            }
            for &i in &batch.indices {
                store
                    .submit(
                        &id,
                        batch.ticket,
                        vec![(i, histal_serve::LabelValue::Class(0))],
                    )
                    .unwrap();
                snapshots.push(store.snapshot_json(&id).unwrap());
            }
        }
    }

    let journal_path = dir.join(format!("{id}.jsonl"));
    let full = std::fs::read(&journal_path).unwrap();
    let create_len = full
        .iter()
        .position(|&b| b == b'\n')
        .expect("journal has a create line")
        + 1;
    assert!(full.len() > create_len + 100, "journal long enough to cut");

    // Cut points: mid-journal quarters plus a torn final line.
    for cut in [
        create_len + (full.len() - create_len) / 4,
        create_len + (full.len() - create_len) / 2,
        create_len + 3 * (full.len() - create_len) / 4,
        full.len() - 7,
    ] {
        let case_dir = tmp_dir(&format!("crash-cut-{cut}"));
        std::fs::create_dir_all(&case_dir).unwrap();
        std::fs::write(case_dir.join(format!("{id}.jsonl")), &full[..cut]).unwrap();
        // Chunks that survive = complete lines after the create record.
        let survived = full[create_len..cut]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();

        let store = Store::open(&case_dir).unwrap();
        assert_eq!(
            store.snapshot_json(&id).unwrap(),
            snapshots[survived],
            "cut at byte {cut} ({survived} chunks survived)"
        );
        // The reopened store keeps serving: the journal tail was
        // repaired, so the next chunk appends cleanly.
        let batch = store.next_batch(&id).unwrap();
        if batch.state == "awaiting" {
            store
                .submit(
                    &id,
                    batch.ticket,
                    vec![(batch.indices[0], histal_serve::LabelValue::Class(0))],
                )
                .unwrap();
        }
        let _ = std::fs::remove_dir_all(&case_dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The load shape the service is for: many concurrent simulated-oracle
/// sessions across tenants, driven over HTTP in parallel, all landing
/// complete with per-tenant counters visible at /metrics.
///
/// The session count scales with `HISTAL_SERVE_SESSIONS` (default 200
/// to keep the suite quick; the acceptance bar of 1000 is exercised by
/// `ci.sh` setting the variable).
#[test]
fn concurrent_simulated_sessions_complete_with_tenant_metrics() {
    let n_sessions: usize = std::env::var("HISTAL_SERVE_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let n_tenants = 8;
    let dir = tmp_dir("load");
    let (addr, handle) = spawn_server(&dir, 8);

    // Same dataset/scale/seed for every session: the featurized task is
    // built once and shared through the task cache; sessions differ by
    // tenant only (identical pipelines, which is fine for a load test).
    let mut ids = Vec::with_capacity(n_sessions);
    for i in 0..n_sessions {
        let config =
            serde_json::to_string(&tiny_config(&format!("t{}", i % n_tenants), "simulated", 3))
                .unwrap();
        let (status, body) = http_request(addr, "POST", "/sessions", Some(&config)).unwrap();
        assert_eq!(status, 200, "{body}");
        ids.push(json_str(&body, "id"));
    }

    // Fire the runs from a bounded set of client threads.
    let ids = Arc::new(std::sync::Mutex::new(ids));
    let workers: Vec<_> = (0..16)
        .map(|_| {
            let ids = Arc::clone(&ids);
            std::thread::spawn(move || {
                let mut done = 0usize;
                loop {
                    let Some(id) = ids.lock().unwrap().pop() else {
                        return done;
                    };
                    let (status, body) =
                        http_request(addr, "POST", &format!("/sessions/{id}/run"), None).unwrap();
                    assert_eq!(status, 200, "{body}");
                    assert!(body.contains("\"done\":true"), "{body}");
                    done += 1;
                }
            })
        })
        .collect();
    let completed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(completed, n_sessions);

    let (status, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let mut total = 0u64;
    for t in 0..n_tenants {
        let needle = format!("t{t}.serve.sessions.completed = ");
        let count: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix(&needle))
            .unwrap_or_else(|| panic!("tenant t{t} missing from metrics:\n{metrics}"))
            .trim()
            .parse()
            .unwrap();
        assert!(count > 0, "tenant t{t} completed nothing");
        total += count;
    }
    assert_eq!(total, n_sessions as u64, "completions across tenants");

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions survive a clean restart too: a mid-flight external session
/// keeps its exact state across close + reopen, through HTTP.
#[test]
fn restart_preserves_sessions_over_http() {
    let dir = tmp_dir("restart");
    let snapshot_before;
    let id;
    {
        let (addr, handle) = spawn_server(&dir, 2);
        let config = serde_json::to_string(&tiny_config("acme", "external", 5)).unwrap();
        let (_, body) = http_request(addr, "POST", "/sessions", Some(&config)).unwrap();
        id = json_str(&body, "id");
        let (_, batch) = http_request(addr, "GET", &format!("/sessions/{id}/batch"), None).unwrap();
        let ticket = json_u64(&batch, "ticket");
        let indices = json_indices(&batch);
        let labels: Vec<String> = indices[..3].iter().map(|i| format!("[{i},0]")).collect();
        let submit = format!("{{\"ticket\":{ticket},\"labels\":[{}]}}", labels.join(","));
        let (status, body) = http_request(
            addr,
            "POST",
            &format!("/sessions/{id}/labels"),
            Some(&submit),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let (_, snap) =
            http_request(addr, "GET", &format!("/sessions/{id}/snapshot"), None).unwrap();
        snapshot_before = snap;
        shutdown(addr, handle);
    }
    // A session journaled before creation refused cells no model scores:
    // MNLP on the logistic model. Replay does not re-check it, so the
    // store still boots and the session answers as it always has — its
    // status at round 0, its seed batch, then the scoring error.
    let mut stale = tiny_config("acme", "external", 9);
    stale.strategy = "mnlp".into();
    let create = format!(
        r#"{{"kind":"create","id":"s000099","config":{}}}"#,
        serde_json::to_string(&stale.normalized()).unwrap()
    );
    std::fs::write(dir.join("s000099.jsonl"), create + "\n").unwrap();

    let (addr, handle) = spawn_server(&dir, 2);
    let (status, snap) =
        http_request(addr, "GET", &format!("/sessions/{id}/snapshot"), None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(snap, snapshot_before);
    // And the listing still shows it.
    let (_, list) = http_request(addr, "GET", "/sessions", None).unwrap();
    assert!(list.contains(&id), "{list}");
    let (status, body) = http_request(addr, "GET", "/sessions/s000099", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "round"), 0, "{body}");
    let (status, batch) = http_request(addr, "GET", "/sessions/s000099/batch", None).unwrap();
    assert_eq!(status, 200, "{batch}");
    let labels: Vec<String> = json_indices(&batch)
        .iter()
        .map(|i| format!("[{i},{}]", i % 2))
        .collect();
    let seed_labels = format!(
        "{{\"ticket\":{},\"labels\":[{}]}}",
        json_u64(&batch, "ticket"),
        labels.join(",")
    );
    let (status, body) =
        http_request(addr, "POST", "/sessions/s000099/labels", Some(&seed_labels)).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = http_request(addr, "GET", "/sessions/s000099/batch", None).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("MNLP"), "{body}");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drive an external session to done over HTTP, one full chunk per
/// ticket. Returns the last chunk's request body.
fn drive_to_done_over_http(addr: std::net::SocketAddr, id: &str) -> String {
    let mut last = String::new();
    loop {
        let (status, batch) =
            http_request(addr, "GET", &format!("/sessions/{id}/batch"), None).unwrap();
        assert_eq!(status, 200, "{batch}");
        if json_str(&batch, "state") == "done" {
            return last;
        }
        let ticket = json_u64(&batch, "ticket");
        let labels: Vec<String> = json_indices(&batch)
            .iter()
            .map(|i| format!("[{i},{}]", i % 2))
            .collect();
        last = format!("{{\"ticket\":{ticket},\"labels\":[{}]}}", labels.join(","));
        let (status, body) =
            http_request(addr, "POST", &format!("/sessions/{id}/labels"), Some(&last)).unwrap();
        assert_eq!(status, 200, "{body}");
    }
}

/// `tenant`'s `serve.sessions.completed` counter at `/metrics`.
fn completed(addr: std::net::SocketAddr, tenant: &str) -> Option<u64> {
    let (status, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let needle = format!("{tenant}.serve.sessions.completed = ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&needle))
        .map(|n| n.trim().parse().unwrap())
}

/// A finished session is kept as a summary and rebuilt from its journal
/// for snapshots and late labels. Every response must be the one a live
/// session replayed from that journal gives, before and after a
/// restart.
#[test]
fn finished_session_answers_like_its_replayed_journal() {
    use histal_core::live::SubmitOutcome;
    use histal_obs::MetricsRegistry;
    use histal_serve::{BatchView, LabelValue, StatusView, SubmitRequest, TaskCache};
    use serde::{Deserialize, Value};

    let dir = tmp_dir("finished");
    let (addr, handle) = spawn_server(&dir, 2);
    let config = serde_json::to_string(&tiny_config("acme", "external", 13)).unwrap();
    let (_, body) = http_request(addr, "POST", "/sessions", Some(&config)).unwrap();
    let id = json_str(&body, "id");
    let last_chunk = drive_to_done_over_http(addr, &id);

    // The reference: a live session replayed from the journal.
    let journal = std::fs::read_to_string(dir.join(format!("{id}.jsonl"))).unwrap();
    let mut lines = journal
        .lines()
        .map(|l| serde_json::from_str::<Value>(l).unwrap());
    let create = lines.next().unwrap();
    let config = SessionConfig::from_value(create.get("config").unwrap()).unwrap();
    let mut live = config
        .build_session(&TaskCache::new(), Arc::new(MetricsRegistry::new()))
        .unwrap();
    for record in lines.filter(|r| r.get("kind").and_then(Value::as_str) == Some("labels")) {
        let chunk = SubmitRequest::from_value(&record).unwrap();
        live.step().unwrap();
        live.submit(chunk.ticket, &chunk.labels).unwrap();
    }
    live.step().unwrap();

    let json = |r: Result<String, histal_core::Error>| match r {
        Ok(body) => (200, body),
        Err(e) => (
            e.kind.http_status(),
            serde_json::to_string(&Value::Map(vec![(
                "error".to_string(),
                Value::Str(e.to_string()),
            )]))
            .unwrap(),
        ),
    };
    let submit = |live: &mut histal_serve::AnySession, body: &str| {
        let chunk: SubmitRequest = serde_json::from_str(body).unwrap();
        json(
            live.submit(chunk.ticket, &chunk.labels)
                .map(|o: SubmitOutcome| serde_json::to_string(&o).unwrap()),
        )
    };
    let last: SubmitRequest = serde_json::from_str(&last_chunk).unwrap();
    let (sample, label) = last.labels[0].clone();
    let LabelValue::Class(class) = label else {
        panic!("text sessions label classes")
    };
    let conflicting = format!(
        "{{\"ticket\":{},\"labels\":[[{sample},{}]]}}",
        last.ticket,
        1 - class
    );
    let wrong_shape = format!(
        "{{\"ticket\":{},\"labels\":[[{sample},[0,1]]]}}",
        last.ticket
    );
    let labels_path = format!("/sessions/{id}/labels");
    let status = StatusView {
        id: id.clone(),
        tenant: "acme".into(),
        oracle: "external".into(),
        status: live.status(),
    };
    assert!(status.status.done);
    // (method, path, body, expected (status, body))
    type Exchange<'a> = (&'a str, String, Option<&'a str>, (u16, String));
    let expected: Vec<Exchange> = vec![
        (
            "GET",
            format!("/sessions/{id}"),
            None,
            (200, serde_json::to_string(&status).unwrap()),
        ),
        (
            "GET",
            "/sessions".into(),
            None,
            (200, serde_json::to_string(&vec![status.clone()]).unwrap()),
        ),
        (
            "GET",
            format!("/sessions/{id}/batch"),
            None,
            (200, serde_json::to_string(&BatchView::of(&live)).unwrap()),
        ),
        (
            "GET",
            format!("/sessions/{id}/snapshot"),
            None,
            (200, live.snapshot_json()),
        ),
        (
            "POST",
            labels_path.clone(),
            Some(&last_chunk),
            submit(&mut live, &last_chunk),
        ),
        (
            "POST",
            labels_path.clone(),
            Some(&conflicting),
            submit(&mut live, &conflicting),
        ),
        (
            "POST",
            labels_path.clone(),
            Some(&wrong_shape),
            submit(&mut live, &wrong_shape),
        ),
    ];
    assert_eq!(
        expected[2].3 .1,
        serde_json::to_string(&BatchView::done()).unwrap()
    );
    assert_eq!(expected[4].3 .0, 200);
    assert_eq!(expected[5].3 .0, 409);
    assert_eq!(expected[6].3 .0, 400);

    let check = |addr, when: &str| {
        for (method, path, body, want) in &expected {
            let got = http_request(addr, method, path, *body).unwrap();
            assert_eq!(&got, want, "{method} {path} ({when})");
        }
    };
    check(addr, "as finished");
    shutdown(addr, handle);
    let (addr, handle) = spawn_server(&dir, 2);
    check(addr, "after Store::open");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve.sessions.completed` counts the step to done, once per
/// session, however the session got there.
#[test]
fn each_finished_session_is_counted_once() {
    let dir = tmp_dir("completed");
    let (addr, handle) = spawn_server(&dir, 2);
    let create = |tenant: &str, oracle: &str| {
        let config = serde_json::to_string(&tiny_config(tenant, oracle, 17)).unwrap();
        let (status, body) = http_request(addr, "POST", "/sessions", Some(&config)).unwrap();
        assert_eq!(status, 200, "{body}");
        json_str(&body, "id")
    };

    let ext = create("ext", "external");
    drive_to_done_over_http(addr, &ext);
    assert_eq!(completed(addr, "ext"), Some(1));
    drive_to_done_over_http(addr, &ext);
    assert_eq!(completed(addr, "ext"), Some(1));

    let sim = create("sim", "simulated");
    for _ in 0..2 {
        let (status, body) =
            http_request(addr, "POST", &format!("/sessions/{sim}/run"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(completed(addr, "sim"), Some(1));
    }
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bytes of two simulated sessions built by
/// `SessionConfig::build_session` and answered from their hidden labels
/// to done: a CRF session on the NER corpus, and a QBC session on the
/// logistic model, whose four-member committee only the session
/// constructor sizes.
#[test]
fn simulated_session_snapshots_are_pinned() {
    use histal_core::live::SessionStep;
    use histal_obs::MetricsRegistry;
    use histal_serve::{LabelValue, TaskCache};

    let tasks = TaskCache::new();
    let mut hashes = Vec::new();
    for (dataset, strategy) in [("conll2003-en", "WSHS{l=3}(entropy)"), ("mr", "qbc")] {
        let config = SessionConfig {
            dataset: dataset.into(),
            strategy: strategy.into(),
            ..tiny_config("pins", "simulated", 3)
        }
        .normalized();
        let mut session = config
            .build_session(&tasks, Arc::new(MetricsRegistry::new()))
            .unwrap();
        while session.step().unwrap() == SessionStep::AwaitingLabels {
            let (ticket, labels): (_, Vec<(_, LabelValue)>) = session.answer_from_hidden().unwrap();
            session.submit(ticket, &labels).unwrap();
        }
        assert!(session.status().done, "{dataset} {strategy}");
        hashes.push(format!("{:016x}", fnv(session.snapshot_json().as_bytes())));
    }
    assert_eq!(hashes, ["33c09125bcff4ad3", "55dfa8e4566b1110"]);
}
