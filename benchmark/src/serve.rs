//! The `serve-annotate` workload: annotator clients driving an
//! in-process `histal-serve` in a closed loop with zero think time.
//!
//! Each client is a plain `std::thread`. Clients placed on the rayon
//! pool would compete with the server's own eval jobs for its workers.
//!
//! The end-to-end run has one client. A round's compute already fans
//! out over the rayon pool's two threads, so a second client puts more
//! runnable threads than cores on the host, and its latencies then
//! measure the scheduler as much as the server (see `README.md`). The
//! traced run measures two clients against one.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use histal_bench::registry::{parse_dataset, DatasetDef};
use histal_bench::spec::{
    DatasetEntry, ExperimentSpec, GroupSpec, PoolSpec, ScaleSpec, StrategyEntry,
};
use histal_bench::tasks::{Scale, TextTask};
use histal_core::live::SessionStatus;
use histal_core::pipeline::Ticket;
use histal_core::pool::SampleId;
use histal_core::Error;
use histal_serve::http::http_request;
use histal_serve::{
    BatchView, LabelValue, Server, SessionConfig, StatusView, Store, SubmitRequest,
};

use crate::grid::{Fanout, Grid};
use crate::host::Host;
use crate::stats::{percentile, Fnv};
use crate::trace::{maybe_time, summarize, Span, Trace};
use crate::{
    end_to_end, finish_trace, layer_metrics, measure_s, out_dir, run_setups, secs, setups, Opts,
    Outcome, Seeds, Workload, THREADS,
};

/// Annotator clients of the end-to-end run.
const CLIENTS: usize = 1;

/// Label submissions per ticket: each batch is answered in this many
/// `POST`s, so the journal takes several appends per round.
const CHUNKS: usize = 2;

/// The serve workload waits (untimed) until fewer sockets than this sit
/// in TIME_WAIT, so sockets left by earlier runs cannot use up the
/// ephemeral port range (28k ports by default). A run leaves about
/// 3,300, nearly all on the server side of a port that is new each run.
const TIME_WAIT_LIMIT: usize = 16_000;
/// Longest such wait: TIME_WAIT lasts 60 s on Linux.
const TIME_WAIT_MAX: Duration = Duration::from_secs(65);

/// A session transport: HTTP against the in-process server, or the
/// `Store` called directly, so one client loop measures both.
trait Api: Sync {
    /// Span names of this transport's requests.
    fn routes(&self) -> &'static Routes;
    /// Create a session, returning its id.
    fn create(&self, config: &SessionConfig) -> Result<String, String>;
    /// Fetch (computing if needed) the session's next batch.
    fn batch(&self, id: &str) -> Result<BatchView, String>;
    /// Submit one chunk of labels.
    fn labels(
        &self,
        id: &str,
        ticket: Ticket,
        labels: Vec<(SampleId, LabelValue)>,
    ) -> Result<(), String>;
    /// The session's status.
    fn status(&self, id: &str) -> Result<SessionStatus, String>;
}

/// Requests over loopback HTTP through `histal_serve::http`.
struct Http(SocketAddr);

impl Http {
    fn call(&self, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
        match http_request(self.0, method, path, body) {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!("{method} {path}: HTTP {status}: {body}")),
            Err(e) => Err(format!("{method} {path}: {e}")),
        }
    }
}

fn parse<T: serde::Deserialize>(body: &str) -> Result<T, String> {
    serde_json::from_str(body).map_err(|e| format!("bad response body: {e}"))
}

impl Api for Http {
    fn routes(&self) -> &'static Routes {
        &Routes {
            create: "serve.http.create",
            batch: "serve.http.batch",
            labels: "serve.http.labels",
            status: "serve.http.status",
        }
    }

    fn create(&self, config: &SessionConfig) -> Result<String, String> {
        let body = serde_json::to_string(config).map_err(|e| e.to_string())?;
        let view: StatusView = parse(&self.call("POST", "/sessions", Some(&body))?)?;
        Ok(view.id)
    }

    fn batch(&self, id: &str) -> Result<BatchView, String> {
        parse(&self.call("GET", &format!("/sessions/{id}/batch"), None)?)
    }

    fn labels(
        &self,
        id: &str,
        ticket: Ticket,
        labels: Vec<(SampleId, LabelValue)>,
    ) -> Result<(), String> {
        let body =
            serde_json::to_string(&SubmitRequest { ticket, labels }).map_err(|e| e.to_string())?;
        self.call("POST", &format!("/sessions/{id}/labels"), Some(&body))
            .map(drop)
    }

    fn status(&self, id: &str) -> Result<SessionStatus, String> {
        let view: StatusView = parse(&self.call("GET", &format!("/sessions/{id}"), None)?)?;
        Ok(view.status)
    }
}

/// The same calls on the `Store`, with no sockets or JSON.
struct Direct<'a>(&'a Store);

impl Api for Direct<'_> {
    fn routes(&self) -> &'static Routes {
        &Routes {
            create: "serve.store.create",
            batch: "serve.store.batch",
            labels: "serve.store.labels",
            status: "serve.store.status",
        }
    }

    fn create(&self, config: &SessionConfig) -> Result<String, String> {
        self.0
            .create_session(config.clone())
            .map(|v| v.id)
            .map_err(|e| e.to_string())
    }

    fn batch(&self, id: &str) -> Result<BatchView, String> {
        self.0.next_batch(id).map_err(|e| e.to_string())
    }

    fn labels(
        &self,
        id: &str,
        ticket: Ticket,
        labels: Vec<(SampleId, LabelValue)>,
    ) -> Result<(), String> {
        self.0
            .submit(id, ticket, labels)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn status(&self, id: &str) -> Result<SessionStatus, String> {
        self.0
            .status(id)
            .map(|v| v.status)
            .map_err(|e| e.to_string())
    }
}

/// What one client loop observed.
#[derive(Default)]
struct ClientStats {
    /// Requests sent.
    requests: usize,
    /// Errors, non-2xx replies and connect failures.
    failed: usize,
    /// Sessions driven to completion.
    sessions: usize,
    /// Selection rounds those sessions completed.
    rounds: usize,
    /// Rounds per second of the client's time in sessions, at the
    /// calibration host's speed, summed over clients.
    rate: f64,
    /// The same from the times as measured.
    raw_rate: f64,
    /// Per ticket: sending its last label chunk → receiving the next
    /// batch (ms, at the calibration host's speed).
    turnaround_ms: Vec<f64>,
    /// Per label-chunk `POST` (ms, as measured).
    submit_ms: Vec<f64>,
    /// Final status JSON of every completed session.
    finals: Vec<String>,
}

impl ClientStats {
    /// Fold another client's observations into this one.
    fn merge(&mut self, other: ClientStats) {
        self.requests += other.requests;
        self.failed += other.failed;
        self.sessions += other.sessions;
        self.rounds += other.rounds;
        self.rate += other.rate;
        self.raw_rate += other.raw_rate;
        self.turnaround_ms.extend(other.turnaround_ms);
        self.submit_ms.extend(other.submit_ms);
        self.finals.extend(other.finals);
    }
}

struct Client<'a> {
    api: &'a dyn Api,
    trace: Option<&'a Trace>,
    stats: ClientStats,
    /// Scale of the current session's times (see `host.rs`).
    scale: f64,
}

impl Client<'_> {
    /// Time one request; under a trace it becomes a `<layer>.<route>`
    /// span of session span `parent`.
    fn request<T>(
        &mut self,
        route: &'static str,
        parent: u64,
        f: impl FnOnce(&dyn Api) -> Result<T, String>,
    ) -> Option<T> {
        let api = self.api;
        let out = maybe_time(self.trace, route, parent, parent, |_| f(api));
        self.stats.requests += 1;
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("# request failed: {e}");
                self.stats.failed += 1;
                None
            }
        }
    }

    /// Drive one session to completion, answering from `gold`.
    fn session(&mut self, config: &SessionConfig, gold: &[usize]) {
        let run = self.trace.map_or(0, |t| t.next_id());
        let start = self.trace.map_or(0, |t| t.now());
        self.drive(config, gold, run);
        if let Some(t) = self.trace {
            t.close(run, 0, "serve.session", run, start);
        }
    }

    fn drive(&mut self, config: &SessionConfig, gold: &[usize], run: u64) {
        let routes = self.api.routes();
        let Some(id) = self.request(routes.create, run, |api| api.create(config)) else {
            return;
        };
        let mut last_sent: Option<Instant> = None;
        loop {
            let Some(batch) = self.request(routes.batch, run, |api| api.batch(&id)) else {
                return;
            };
            if let Some(sent) = last_sent {
                self.stats
                    .turnaround_ms
                    .push(sent.elapsed().as_secs_f64() * 1e3 * self.scale);
            }
            if batch.state == "done" {
                break;
            }
            let per_chunk = batch.indices.len().div_ceil(CHUNKS).max(1);
            for chunk in batch.indices.chunks(per_chunk) {
                let Some(labels) = chunk
                    .iter()
                    .map(|&i| gold.get(i).map(|&c| (i, LabelValue::Class(c))))
                    .collect::<Option<Vec<_>>>()
                else {
                    eprintln!("# batch names a sample outside the pool");
                    self.stats.failed += 1;
                    return;
                };
                let sent = Instant::now();
                last_sent = Some(sent);
                let ok = self.request(routes.labels, run, |api| {
                    api.labels(&id, batch.ticket, labels)
                });
                self.stats
                    .submit_ms
                    .push(sent.elapsed().as_secs_f64() * 1e3);
                if ok.is_none() {
                    return;
                }
            }
        }
        if let Some(status) = self.request(routes.status, run, |api| api.status(&id)) {
            self.stats.sessions += 1;
            self.stats.rounds += status.round;
            self.stats
                .finals
                .push(serde_json::to_string(&status).expect("session status serializes"));
        }
    }
}

/// Span names per route, for one transport.
struct Routes {
    create: &'static str,
    batch: &'static str,
    labels: &'static str,
    status: &'static str,
}

/// Run `clients` annotators, each driving sessions back to back until
/// `sessions` have been started between them, and merge what they saw.
/// Returns the stats and the wall clock. Sessions are taken from one
/// counter, so the clients finish within a session of each other.
/// Each client samples `host` between sessions, and a session's times
/// are scaled by its client's latest sample.
fn run_clients(
    api: &dyn Api,
    config: &SessionConfig,
    gold: &[usize],
    clients: usize,
    sessions: usize,
    host: &Host,
    trace: Option<&Trace>,
) -> (ClientStats, f64) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let next = &next;
    let per_client: Vec<ClientStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let mut config = config.clone();
                config.tenant = format!("client-{i}");
                s.spawn(move || {
                    let mut client = Client {
                        api,
                        trace,
                        stats: ClientStats::default(),
                        scale: 1.0,
                    };
                    let mut sampler = host.sampler();
                    let (mut busy_s, mut nominal_s) = (0.0, 0.0);
                    while next.fetch_add(1, Ordering::Relaxed) < sessions {
                        client.scale = sampler.scale();
                        let session_start = Instant::now();
                        client.session(&config, gold);
                        let busy = session_start.elapsed().as_secs_f64();
                        busy_s += busy;
                        nominal_s += busy * client.scale;
                    }
                    let rounds = client.stats.rounds as f64;
                    client.stats.rate = rounds / nominal_s;
                    client.stats.raw_rate = rounds / busy_s;
                    client.stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut stats = ClientStats::default();
    for c in per_client {
        stats.merge(c);
    }
    (stats, wall)
}

/// A running in-process server over a store in its own state dir.
struct Served {
    /// The store the server serves (also called directly).
    store: Arc<Store>,
    /// The server's bound address.
    addr: SocketAddr,
    /// Gold labels of the served pool, for answering tickets.
    gold: Vec<usize>,
    dir: PathBuf,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Served {
    /// Open a store in a fresh `dir`, start a server with `threads`
    /// workers, build the gold labels and create the first session:
    /// everything before the first round can run.
    fn start(
        dir: &Path,
        config: &SessionConfig,
        threads: usize,
        trace: Option<&Trace>,
        parent: u64,
    ) -> Result<Served, Error> {
        let _ = std::fs::remove_dir_all(dir);
        let store = Arc::new(Store::open(dir)?);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), threads)
            .map_err(|e| Error::invariant(format!("bind: {e}")))?;
        let shutdown = server.shutdown_flag();
        let (addr, handle) = server.spawn();
        // Built before the fallible steps, so its Drop stops the server
        // if one of them fails.
        let mut served = Served {
            store,
            addr,
            gold: Vec::new(),
            dir: dir.to_path_buf(),
            shutdown,
            handle: Some(handle),
        };
        served.gold = maybe_time(trace, "bench.task_build", parent, 0, |_| {
            gold_labels(config)
        })?;
        Http(addr).create(config).map_err(Error::invariant)?;
        Ok(served)
    }

    /// Stop the server, wait for it, and remove the state dir.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop checks the flag when a connection arrives.
        let _ = TcpStream::connect(self.addr);
        let joined = match handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server stopped with an error: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("remove state dir: {e}"))?;
        joined
    }
}

impl Drop for Served {
    /// Stops the server and removes its state on early returns too;
    /// [`Served::stop`] is the way to see the errors.
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The pool's gold labels, built exactly as the server's task cache
/// builds the session's task.
fn gold_labels(config: &SessionConfig) -> Result<Vec<usize>, Error> {
    match parse_dataset(&config.dataset)? {
        DatasetDef::Text { spec, noise: None } => {
            let scale = Scale {
                factor: config.scale,
                repeats: 1,
            };
            Ok(TextTask::build(&spec, &scale, config.seed).pool_labels)
        }
        _ => Err(Error::spec(
            "serve-annotate labels a noise-free text dataset",
        )),
    }
}

/// Digest of the sessions' common final status.
fn digest(final_status: &str) -> String {
    let mut h = Fnv::default();
    h.write(final_status.as_bytes());
    h.hex()
}

/// Sockets in TIME_WAIT on this host (IPv4 and IPv6).
fn time_wait_sockets() -> usize {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|table| {
            table
                .lines()
                .skip(1)
                .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                .count()
        })
        .sum()
}

/// The served session's compute as a grid: same dataset, strategy,
/// scale and pool, one job per client. A traced pass over it gives the
/// core and model layers a served round runs inside the server.
fn serve_core_spec(config: &SessionConfig) -> ExperimentSpec {
    ExperimentSpec {
        name: "serve-core".into(),
        split_seed: config.seed,
        datasets: vec![DatasetEntry::new(config.dataset.clone())],
        groups: vec![GroupSpec {
            label: String::new(),
            strategies: vec![StrategyEntry::new(config.strategy.clone())],
        }],
        scale: Some(ScaleSpec {
            factor: Some(config.scale),
            repeats: Some(THREADS),
        }),
        pool: Some(PoolSpec {
            batch_size: Some(config.batch_size),
            rounds: Some(config.rounds),
            init_labeled: Some(config.init_labeled),
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// Every session's final status must equal the reference session's.
fn check_finals(out: &mut Outcome, stats: &ClientStats, reference: &str) {
    let wrong = stats.finals.iter().filter(|f| *f != reference).count();
    if wrong > 0 {
        eprintln!("# {wrong} session(s) ended in another state than the reference");
    }
    out.ops += stats.requests;
    out.failed += stats.failed + wrong;
}

fn route_percentiles(spans: &[Span], name: &str) -> (f64, f64) {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.busy as f64 / 1e6)
        .collect();
    (percentile(&ms, 50.0), percentile(&ms, 99.0))
}

/// Sessions a run drives between its clients: `--seconds` of work at
/// `session_s` per session and client.
fn sessions(session_s: f64, opts: &Opts) -> usize {
    CLIENTS * ((measure_s(opts) / session_s).round() as usize).max(1)
}

pub(crate) fn run_serve(
    w: &Workload,
    session_s: f64,
    opts: &Opts,
    started: Instant,
) -> Result<Outcome, Error> {
    let mut config: SessionConfig = serde_json::from_str(w.input)
        .map_err(|e| Error::spec(format!("serve-annotate.json: {e}")))?;
    config.seed = opts.seeds.perturb(config.seed);
    if opts.smoke {
        config.scale = 0.05;
        config.rounds = 3;
    }
    let config = config.normalized();
    let mut out = Outcome::default();

    // Untimed: let sockets an earlier run left in TIME_WAIT expire.
    let wait = Instant::now();
    let mut time_wait = time_wait_sockets();
    while time_wait >= TIME_WAIT_LIMIT && wait.elapsed() < TIME_WAIT_MAX {
        std::thread::sleep(Duration::from_secs(1));
        time_wait = time_wait_sockets();
    }
    let waited = secs(wait.elapsed());
    eprintln!("# {time_wait} sockets in TIME_WAIT after waiting {waited:.1} s");

    let trace = opts.trace.then(|| Arc::new(Trace::new()));
    let tr = trace.as_deref();
    let host = Host::default();
    let mut k = 0;
    let (served, setups_done) = run_setups(setups(w, opts), tr, |id| {
        k += 1;
        let dir = out_dir().join(format!("serve-state-{}-{k}", std::process::id()));
        Served::start(&dir, &config, THREADS, tr, id)
    })?;
    let http = Http(served.addr);
    let direct = Direct(&served.store);
    let sessions = sessions(session_s, opts);

    let Some(trace) = trace else {
        let (stats, wall) =
            run_clients(&http, &config, &served.gold, CLIENTS, sessions, &host, None);
        let wall = format!("{wall:.2} s");
        // The reference: one session through the store, no sockets.
        let (reference, _) = run_clients(&direct, &config, &served.gold, 1, 1, &host, None);
        Served::stop(served).map_err(Error::invariant)?;
        let Some(expected) = reference.finals.first() else {
            return Err(Error::invariant("the reference session did not finish"));
        };
        out.digest = digest(expected);
        check_finals(&mut out, &stats, expected);
        end_to_end(
            &mut out,
            &setups_done,
            &host,
            (stats.rate, stats.raw_rate),
            &stats.turnaround_ms,
        );
        eprintln!(
            "# serve-annotate: {} sessions in {wall}, {} rounds, {} requests ({} failed), \
             {} turnaround samples (p99 {:.3} ms), {} submits (as measured: p50 {:.3} ms, \
             p99 {:.3} ms)",
            stats.sessions,
            stats.rounds,
            stats.requests,
            stats.failed,
            stats.turnaround_ms.len(),
            percentile(&stats.turnaround_ms, 99.0),
            stats.submit_ms.len(),
            percentile(&stats.submit_ms, 50.0),
            percentile(&stats.submit_ms, 99.0),
        );
        return Ok(out);
    };

    // Traced: an untraced HTTP client (the baseline), a traced one
    // (per-route client latency), the same loop on the store (no
    // sockets), two HTTP clients (the speed-up), then the session's
    // compute as a grid: one traced pass (core and model layers), and
    // one pass each in lanes and through the executor's fan-out.
    let n = (sessions / 4).max(THREADS);
    let gold = &served.gold;
    let (plain, plain_wall) = run_clients(&http, &config, gold, CLIENTS, n, &host, None);
    let (traced, traced_wall) = run_clients(&http, &config, gold, CLIENTS, n, &host, Some(&*trace));
    let (stored, stored_wall) =
        run_clients(&direct, &config, gold, CLIENTS, n, &host, Some(&*trace));
    let (pair, pair_wall) = run_clients(&http, &config, gold, 2, n, &host, None);
    Served::stop(served).map_err(Error::invariant)?;
    let core_start = Instant::now();
    let core = Grid::setup(&serve_core_spec(&config), &Seeds::default(), None, 0)?;
    let core_pass = core.stream(0.0, Fanout::Lanes(THREADS), &host, Some(&trace));
    let lanes = core.stream(0.0, Fanout::Lanes(THREADS), &host, None);
    let executor = core.stream(0.0, Fanout::Executor, &host, None);
    let core_wall = secs(core_start.elapsed());
    let wall = secs(started.elapsed()) - waited;

    let Some(expected) = stored.finals.first().cloned() else {
        return Err(Error::invariant("no session finished through the store"));
    };
    out.digest = digest(&expected);
    for stats in [&plain, &traced, &stored, &pair] {
        check_finals(&mut out, stats, &expected);
    }
    out.failed += core_pass.failed + lanes.failed + executor.failed;

    let spans = trace.spans();
    let layers = summarize(&spans);
    layer_metrics(
        &mut out,
        &setups_done,
        &host,
        &layers,
        &spans,
        1.0,
        &core_pass,
    );
    let http_busy: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("serve.http."))
        .map(|s| s.busy)
        .sum();
    out.metric(
        "fanout.busy_ratio",
        http_busy as f64 / 1e9 / (CLIENTS as f64 * traced_wall),
        "ratio",
    );
    out.metric("fanout.speedup_1t", pair.rate / plain.rate, "ratio");
    out.metric("fanout.executor_ratio", executor.rate / lanes.rate, "ratio");
    let attributed = setups_done.walls.iter().sum::<f64>()
        + plain_wall
        + traced_wall
        + stored_wall
        + pair_wall
        + core_wall;
    out.metric("unattributed_pct", 100.0 * (wall - attributed) / wall, "%");
    out.metric(
        "trace.overhead_pct",
        100.0 * (plain.rate / traced.rate - 1.0),
        "%",
    );

    eprintln!("# serve-annotate routes (client-side; http minus store is transport)");
    eprintln!(
        "#   {:<8} {:>12} {:>12} {:>13} {:>13} {:>14}",
        "route", "http p50 ms", "http p99 ms", "store p50 ms", "store p99 ms", "overhead p50"
    );
    for route in ["create", "batch", "labels", "status"] {
        let (h50, h99) = route_percentiles(&spans, &format!("serve.http.{route}"));
        let (s50, s99) = route_percentiles(&spans, &format!("serve.store.{route}"));
        eprintln!(
            "#   {route:<8} {h50:>12.3} {h99:>12.3} {s50:>13.3} {s99:>13.3} {:>14.3}",
            h50 - s50
        );
    }
    eprintln!(
        "# serve-annotate: sessions {}, rounds {}, requests {}, failed {}, TIME_WAIT {time_wait}",
        plain.sessions + traced.sessions + pair.sessions,
        plain.rounds + traced.rounds + pair.rounds,
        plain.requests + traced.requests + pair.requests,
        plain.failed + traced.failed + pair.failed,
    );
    finish_trace(w.name, &trace, &layers);
    Ok(out)
}
