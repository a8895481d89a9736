//! End-to-end and per-layer benchmark of the histal workspace.
//!
//! ```text
//! histal-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! histal-benchmark verify [--smoke]
//! ```
//!
//! One workload runs per process, so its peak memory is its own;
//! `--workload all` (the default) runs each in a child process. The
//! last line of standard output is one JSON object with the run's
//! metrics. See `README.md` for the workloads and metrics.

mod grid;
mod host;
mod serve;
mod stats;
mod timed;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use histal_core::Error;

use crate::grid::{grid_spec, run_grid, Stream};
use crate::host::Host;
use crate::serve::run_serve;
use crate::stats::{median, percentile};
use crate::trace::{maybe_time, LayerStat, Span, Trace};

/// Rayon pool size, grid lanes and server worker count: the logical
/// CPU count of the host the bounds were calibrated on.
const THREADS: usize = 2;

enum Kind {
    /// An `ExperimentSpec` run as a stream of flat passes for
    /// `--seconds`.
    Grid,
    /// A `SessionConfig` served to annotator clients. A run drives
    /// `--seconds / session_s` sessions per client, where `session_s`
    /// is what one took on the calibration host, so the store's memory
    /// and the connection count never depend on how fast the code is.
    Serve { session_s: f64 },
}

struct Workload {
    name: &'static str,
    kind: Kind,
    /// The frozen input: a spec or a session config.
    input: &'static str,
    /// Setups per run; `setup_s` is their median. Short setups repeat
    /// more, since their relative noise is larger.
    setups: usize,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig3-text",
        kind: Kind::Grid,
        input: include_str!("../workloads/fig3-text.json"),
        setups: 2,
    },
    Workload {
        name: "ner",
        kind: Kind::Grid,
        input: include_str!("../workloads/ner.json"),
        setups: 9,
    },
    Workload {
        name: "serve-annotate",
        kind: Kind::Serve { session_s: 0.33 },
        input: include_str!("../workloads/serve-annotate.json"),
        setups: 9,
    },
];

/// Output digests of every workload at seed 0 (full size).
const DIGESTS: &str = include_str!("../workloads/digests.json");

/// How `--seed` perturbs the generated inputs. Seed 0 leaves every
/// input exactly as the frozen workload file gives it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seeds(u64);

impl Seeds {
    /// A corpus, split or session seed under this benchmark seed.
    pub fn perturb(&self, base: u64) -> u64 {
        if self.0 == 0 {
            return base;
        }
        // splitmix64 finaliser.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        base ^ z ^ (z >> 31)
    }

    /// The experiment id fed to `seed_for` under this benchmark seed.
    pub fn namespace(&self, experiment: &str) -> String {
        if self.0 == 0 {
            experiment.to_string()
        } else {
            format!("{experiment}~seed{}", self.0)
        }
    }
}

struct Opts {
    workload: String,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
    smoke: bool,
    verify: bool,
}

const USAGE: &str = "usage: histal-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]\n       histal-benchmark verify [--smoke]";

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: "all".into(),
        seeds: Seeds::default(),
        seconds: 25.0,
        trace: false,
        smoke: false,
        verify: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "verify" => opts.verify = true,
            "--smoke" => opts.smoke = true,
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                let v = value("--seed")?;
                opts.seeds = Seeds(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.iter().any(|w| w.name == opts.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {:?} (one of {}, all)",
            opts.workload,
            names.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build_global()
        .expect("configure the rayon pool");
    if opts.verify {
        return verify(&opts);
    }
    if opts.workload == "all" {
        return run_all(&opts);
    }
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == opts.workload)
        .expect("workload name checked");
    let result = match w.kind {
        Kind::Grid => run_grid(w, &opts, started),
        Kind::Serve { session_s } => run_serve(w, session_s, &opts, started),
    };
    match result {
        Ok(mut outcome) => {
            check_digest(w, &opts, &mut outcome);
            outcome.print(w.name);
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// Run every workload in a child process of its own.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &opts.seeds.0.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `verify`: the flat fan-out must reproduce `GridExecutor` curves.
fn verify(opts: &Opts) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS.iter().filter(|w| matches!(w.kind, Kind::Grid)) {
        let result = grid_spec(w, opts).and_then(|spec| grid::verify(&spec));
        match result {
            Ok((runs, sum)) => println!(
                "verify {}: {runs} runs match (Σ curve metrics {sum:.10})",
                w.name
            ),
            Err(e) => {
                println!("verify {}: FAILED: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// One workload run's result.
#[derive(Default)]
struct Outcome {
    ops: usize,
    failed: usize,
    digest: String,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            eprintln!("# {name} is not a finite number");
            self.failed += 1;
        }
        self.metrics.push(Metric { name, value, unit });
    }

    fn print(&self, workload: &str) {
        println!(
            "{workload}  digest {}  ops {}  failed {}",
            self.digest, self.ops, self.failed
        );
        for m in &self.metrics {
            println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.ops.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// At seed 0 and full size, the digest must be the recorded one.
fn check_digest(w: &Workload, opts: &Opts, outcome: &mut Outcome) {
    if opts.seeds.0 != 0 || opts.smoke {
        return;
    }
    let recorded: BTreeMap<String, String> =
        serde_json::from_str(DIGESTS).expect("workloads/digests.json parses");
    let expected = recorded.get(w.name).map(String::as_str);
    if expected != Some(outcome.digest.as_str()) {
        eprintln!(
            "# {}: digest {} differs from the recorded {}",
            w.name,
            outcome.digest,
            expected.unwrap_or("(none)")
        );
        outcome.failed += 1;
    }
}

/// Seconds a run measures for; a smoke run measures one pass.
fn measure_s(opts: &Opts) -> f64 {
    if opts.smoke {
        0.0
    } else {
        opts.seconds
    }
}

fn setups(w: &Workload, opts: &Opts) -> usize {
    if opts.smoke {
        1
    } else {
        w.setups
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The set-ups of one run: their times as measured, s, and the kernel
/// samples taken around and during them.
struct Setups {
    walls: Vec<f64>,
    host: Host,
}

/// Run `n` set-ups, timing each (under a trace, also as a `setup`
/// span whose id `f` receives), and keep the last. Each earlier one is
/// dropped after its successor is built, outside the timing. The host
/// is sampled on this thread just before and after each set-up, which
/// tells the speed of a short single-threaded one, and by a second
/// thread while they run, which tells that of a long one.
fn run_setups<T>(
    n: usize,
    trace: Option<&Trace>,
    mut f: impl FnMut(u64) -> Result<T, Error>,
) -> Result<(T, Setups), Error> {
    let host = Host::default();
    let mut walls = Vec::new();
    let last = host.sample_during(|| {
        let mut last = None;
        for _ in 0..n {
            host.sample();
            let t = Instant::now();
            let made = maybe_time(trace, "setup", 0, 0, &mut f)?;
            walls.push(secs(t.elapsed()));
            host.sample();
            last = Some(made);
        }
        Ok::<_, Error>(last.expect("at least one set-up"))
    })?;
    Ok((last, Setups { walls, host }))
}

/// The end-to-end metrics. `rounds_per_s` is (at the calibration host's
/// speed, as measured) and `turnaround_ms` at that speed; the raw
/// numbers and the kernel's times go to stderr. `host` was sampled over
/// the measured phase.
fn end_to_end(
    out: &mut Outcome,
    setups: &Setups,
    host: &Host,
    (rounds_per_s, raw_rounds_per_s): (f64, f64),
    turnaround_ms: &[f64],
) {
    out.metric("setup_s", median(&setups.walls) * setups.host.scale(), "s");
    out.metric("rounds_per_s", rounds_per_s, "1/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("turnaround_ms_p50", percentile(turnaround_ms, 50.0), "ms");
    out.metric("turnaround_ms_p90", percentile(turnaround_ms, 90.0), "ms");
    eprintln!(
        "# as measured: setup {:.4} s, {raw_rounds_per_s:.3} rounds/s; kernel {:.4} ms \
         during set-ups, {:.4} ms (median of {} samples) while measuring",
        median(&setups.walls),
        setups.host.kernel_ms(),
        host.kernel_ms(),
        host.samples()
    );
}

/// Median per setup of the task-build time and the rest of the setup,
/// ms as measured.
fn setup_layers(spans: &[Span]) -> (f64, f64) {
    let (mut build, mut rest) = (Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == "setup") {
        let b: u64 = spans
            .iter()
            .filter(|c| c.parent == s.id && c.name == "bench.task_build")
            .map(|c| c.busy)
            .sum();
        build.push(b as f64 / 1e6);
        rest.push((s.busy - b) as f64 / 1e6);
    }
    (median(&build), median(&rest))
}

/// The per-layer metrics both kinds of workload report, from the
/// summary of a traced stream of `passes` passes. Times are at the
/// calibration host's speed, like the end-to-end ones.
fn layer_metrics(
    out: &mut Outcome,
    setups: &Setups,
    host: &Host,
    layers: &BTreeMap<&'static str, LayerStat>,
    spans: &[Span],
    passes: f64,
    traced: &Stream,
) {
    let scale = host.scale();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per_pass = |ns: u64| ns as f64 / 1e6 / passes * scale;
    let calls = |name: &str| get(name).calls as f64 / passes;
    let (build, rest) = setup_layers(spans);
    out.metric("host.kernel_ms", host.kernel_ms(), "ms");
    out.metric("bench.task_build_ms", build * setups.host.scale(), "ms");
    out.metric("setup.rest_ms", rest * setups.host.scale(), "ms");
    out.metric(
        "core.session_build_ms",
        per_pass(get("core.session_build").total),
        "ms",
    );
    out.metric("core.run_ms", per_pass(get("core.run").total), "ms");
    out.metric("core.run.calls", calls("core.run"), "count");
    out.metric("core.self_ms", per_pass(get("core.run").self_time), "ms");
    out.metric("core.score_ms", traced.score_ms / passes * scale, "ms");
    out.metric("core.select_ms", traced.select_ms / passes * scale, "ms");
    for (layer, ms, n) in [
        ("models.fit", "models.fit_ms", "models.fit.calls"),
        ("models.eval", "models.eval_ms", "models.eval.calls"),
        ("models.metric", "models.metric_ms", "models.metric.calls"),
    ] {
        out.metric(ms, per_pass(get(layer).total), "ms");
        out.metric(n, calls(layer), "count");
    }
}

/// Print every layer of the trace and write it out.
fn finish_trace(name: &str, trace: &Trace, layers: &BTreeMap<&'static str, LayerStat>) {
    eprintln!("# {name} per-layer summary (all traced spans)");
    eprintln!(
        "#   {:<24} {:>9} {:>12} {:>12}",
        "layer", "calls", "total ms", "self ms"
    );
    for (layer, s) in layers {
        eprintln!(
            "#   {:<24} {:>9} {:>12.3} {:>12.3}",
            layer,
            s.calls,
            s.total as f64 / 1e6,
            s.self_time as f64 / 1e6
        );
    }
    let path = out_dir().join(format!("{name}.trace.jsonl"));
    match trace.write_jsonl(&path) {
        Ok(()) => eprintln!("# spans written to {}", path.display()),
        Err(e) => eprintln!("# cannot write {}: {e}", path.display()),
    }
}
