//! The HTTP server: routing, JSON encoding, error mapping.
//!
//! Routes (all bodies JSON):
//!
//! | method & path                 | action                                   |
//! |-------------------------------|------------------------------------------|
//! | `GET /healthz`                | liveness probe                           |
//! | `GET /metrics`                | per-tenant metrics text                  |
//! | `POST /sessions`              | create a session ([`SessionConfig`])     |
//! | `GET /sessions`               | list session statuses                    |
//! | `GET /sessions/{id}`          | one session's status                     |
//! | `GET /sessions/{id}/batch`    | issue / fetch the pending label ticket   |
//! | `POST /sessions/{id}/labels`  | submit labels ([`SubmitRequest`])        |
//! | `POST /sessions/{id}/run`     | drive a simulated session to completion  |
//! | `GET /sessions/{id}/snapshot` | durable-state snapshot JSON              |
//! | `POST /shutdown`              | stop accepting, drain, exit              |
//!
//! Every pipeline error carries an [`ErrorKind`], and
//! [`ErrorKind::http_status`] is the single mapping from error space to
//! status space — handlers never pick status codes ad hoc.
//!
//! [`ErrorKind`]: histal_core::error::ErrorKind
//! [`ErrorKind::http_status`]: histal_core::error::ErrorKind::http_status

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize, Value};

use histal_core::error::Error;
use histal_core::pipeline::Ticket;
use histal_core::pool::SampleId;

use crate::config::SessionConfig;
use crate::executor::ThreadPool;
use crate::http::{read_request, write_response, Request};
use crate::session::LabelValue;
use crate::store::Store;

/// The submit-labels request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Ticket being answered (from the batch response).
    #[serde(default)]
    pub ticket: Ticket,
    /// `[sample_id, label]` pairs; any subset of the ticket, any order.
    #[serde(default)]
    pub labels: Vec<(SampleId, LabelValue)>,
}

/// A JSON `{"error": ...}` body.
fn error_body(message: &str) -> String {
    serde_json::to_string(&Value::Map(vec![(
        "error".to_string(),
        Value::Str(message.to_string()),
    )]))
    .expect("error body serializes")
}

/// A handler's outcome: status + JSON (or plain-text) body.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Reply {
    fn json(body: String) -> Reply {
        Reply {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    fn text(body: String) -> Reply {
        Reply {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }

    fn bad_request(message: &str) -> Reply {
        Reply {
            status: 400,
            content_type: "application/json",
            body: error_body(message),
        }
    }

    fn from_error(e: &Error) -> Reply {
        Reply {
            status: e.kind.http_status(),
            content_type: "application/json",
            body: error_body(&e.to_string()),
        }
    }
}

fn ok_or_reply<T: Serialize>(result: Result<T, Error>) -> Reply {
    match result {
        Ok(v) => Reply::json(serde_json::to_string(&v).expect("response serializes")),
        Err(e) => Reply::from_error(&e),
    }
}

fn parse_body<T: Deserialize>(req: &Request) -> Result<T, Reply> {
    let body = req.body_str().map_err(|e| Reply::bad_request(&e))?;
    let body = if body.trim().is_empty() { "{}" } else { body };
    serde_json::from_str(body).map_err(|e| Reply::bad_request(&format!("bad request body: {e}")))
}

fn route(store: &Store, shutdown: &AtomicBool, req: &Request) -> Reply {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Reply::text("ok\n".into()),
        ("GET", ["metrics"]) => Reply::text(store.metrics_text()),
        ("POST", ["shutdown"]) => {
            shutdown.store(true, Ordering::SeqCst);
            Reply::json("{\"shutting_down\":true}".into())
        }
        ("POST", ["sessions"]) => match parse_body::<SessionConfig>(req) {
            Ok(config) => ok_or_reply(store.create_session(config)),
            Err(reply) => reply,
        },
        ("GET", ["sessions"]) => ok_or_reply(store.list()),
        ("GET", ["sessions", id]) => ok_or_reply(store.status(id)),
        ("GET", ["sessions", id, "batch"]) => ok_or_reply(store.next_batch(id)),
        ("GET", ["sessions", id, "snapshot"]) => match store.snapshot_json(id) {
            Ok(json) => Reply::json(json),
            Err(e) => Reply::from_error(&e),
        },
        ("POST", ["sessions", id, "labels"]) => match parse_body::<SubmitRequest>(req) {
            Ok(submit) => ok_or_reply(store.submit(id, submit.ticket, submit.labels)),
            Err(reply) => reply,
        },
        ("POST", ["sessions", id, "run"]) => ok_or_reply(store.run_to_completion(id)),
        _ => Reply {
            status: 404,
            content_type: "application/json",
            body: error_body(&format!("no route for {} {}", req.method, req.path)),
        },
    }
}

/// Run a handler, answering a panic with a 500 instead of a closed
/// connection. A panic inside a session's lock also poisons that lock,
/// which quarantines the session (see [`Store`]).
fn guarded(handler: impl FnOnce() -> Reply) -> Reply {
    std::panic::catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| Reply {
        status: 500,
        content_type: "application/json",
        body: error_body("the request handler panicked"),
    })
}

fn handle_connection(store: &Store, shutdown: &AtomicBool, mut stream: TcpStream) {
    let reply = match read_request(&mut stream) {
        Ok(Some(req)) => guarded(|| route(store, shutdown, &req)),
        Ok(None) => return, // probe connect, nothing to answer
        Err(message) => Reply::bad_request(&message),
    };
    let _ = write_response(&mut stream, reply.status, reply.content_type, &reply.body);
}

/// Read and write inactivity timeout on every accepted connection: a
/// client that stalls this long mid-request gets a 400 (or, mid-reply,
/// a dropped connection), so an idle socket cannot pin a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The accept loop plus its worker pool.
pub struct Server {
    store: Arc<Store>,
    listener: TcpListener,
    addr: SocketAddr,
    threads: usize,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) over `store`.
    pub fn bind(addr: &str, store: Arc<Store>, threads: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            store,
            listener,
            addr,
            threads,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A flag that stops the accept loop when set (the `/shutdown`
    /// route sets the same flag).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until shutdown, then drain in-flight requests and return.
    pub fn run(self) -> std::io::Result<()> {
        let pool = ThreadPool::new(self.threads);
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
                || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
            {
                continue;
            }
            let store = Arc::clone(&self.store);
            let shutdown = Arc::clone(&self.shutdown);
            let addr = self.addr;
            pool.execute(move || {
                handle_connection(&store, &shutdown, stream);
                if shutdown.load(Ordering::SeqCst) {
                    // Wake the accept loop so it notices the flag.
                    let _ = TcpStream::connect(addr);
                }
            });
        }
        // ThreadPool::drop joins the workers, finishing in-flight work.
        drop(pool);
        Ok(())
    }

    /// Run on a background thread; returns the bound address and the
    /// join handle. Used by the tests and the smoke subcommand.
    pub fn spawn(self) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
        let addr = self.addr;
        let handle = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || self.run())
            .expect("spawn accept thread");
        (addr, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_request;

    #[test]
    fn health_metrics_and_unknown_route() {
        let dir = std::env::temp_dir().join(format!("histal-serve-srv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let server = Server::bind("127.0.0.1:0", store, 2).unwrap();
        let (addr, handle) = server.spawn();

        let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _) = http_request(addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let (status, body) = http_request(addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("error"));
        let (status, body) = http_request(addr, "POST", "/sessions", Some("{not json")).unwrap();
        assert_eq!(status, 400, "{body}");

        let (status, _) = http_request(addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_handler_is_a_500() {
        let reply = guarded(|| panic!("handler bug"));
        assert_eq!(reply.status, 500);
        assert!(reply.body.contains("\"error\""), "{}", reply.body);
    }

    #[test]
    fn a_poisoned_session_answers_500_and_others_keep_working() {
        let dir = std::env::temp_dir().join(format!("histal-serve-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let config = |oracle: &str| SessionConfig {
            tenant: "acme".into(),
            dataset: "mr".into(),
            strategy: "entropy".into(),
            scale: 0.05,
            batch_size: 5,
            rounds: 2,
            init_labeled: 10,
            oracle: oracle.into(),
            ..SessionConfig::default()
        };
        let sick = store.create_session(config("external")).unwrap().id;
        let well = store.create_session(config("simulated")).unwrap().id;
        let entry = store.entry(&sick).unwrap();
        let panicked = std::thread::spawn(move || {
            let _slot = entry.lock().unwrap();
            panic!("poison the session lock");
        })
        .join();
        assert!(panicked.is_err());
        let (addr, handle) = Server::bind("127.0.0.1:0", store, 2).unwrap().spawn();

        for path in [
            format!("/sessions/{sick}"),
            format!("/sessions/{sick}/batch"),
            format!("/sessions/{sick}/snapshot"),
        ] {
            let (status, body) = http_request(addr, "GET", &path, None).unwrap();
            assert_eq!(status, 500, "GET {path}: {body}");
            assert!(body.contains(&sick), "GET {path}: {body}");
        }
        let (status, body) =
            http_request(addr, "POST", &format!("/sessions/{well}/run"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"done\":true"), "{body}");
        let (status, body) =
            http_request(addr, "GET", &format!("/sessions/{well}/batch"), None).unwrap();
        assert_eq!((status, body.contains("\"done\"")), (200, true), "{body}");

        let (status, _) = http_request(addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_socket_does_not_pin_the_only_worker() {
        use std::io::{Read, Write};

        let dir = std::env::temp_dir().join(format!("histal-serve-idle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let (addr, handle) = Server::bind("127.0.0.1:0", store, 1).unwrap().spawn();

        // Connected first, sends nothing: it takes the only worker.
        let idle = TcpStream::connect(addr).unwrap();
        let mut probe = TcpStream::connect(addr).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(15)))
            .unwrap();
        probe
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        probe
            .read_to_string(&mut reply)
            .expect("healthz must be answered while an idle socket is open");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        drop(idle);

        let (status, _) = http_request(addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
