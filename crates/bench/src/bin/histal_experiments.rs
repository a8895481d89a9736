//! Experiment harness CLI — regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```text
//! histal-experiments <command> [--full] [--quick] [--repeats N] [--scale F]
//!                    [--threads N] [--targets a,b,c]
//!                    [--variant paper|ar|linear|autocorr]
//!                    [--spec FILE] [--journal FILE] [--trace[=LEVEL]]
//!
//! Commands (`histal_bench::commands::COMMANDS`; the usage text lists all):
//!   fig2 table2 table3 table4 fig3-text fig3-ner table5 fig4 fig5 table6 table7
//!              The paper's figures and tables; `all` runs them in order.
//!              `table5 --targets` and `table7 --variant` rewrite their specs.
//!   noise imbalance agnostic sweep-batch significance ceiling
//!              Extensions and diagnostics (EXPERIMENTS.md)
//!   compare    Two strategy tokens head to head: `compare <A> <B>`
//!   run        Execute any spec file: `run --spec FILE`
//!   spec-check Parse + validate every spec file:  `spec-check [DIR]`
//!   selector-train  `selector-train <TOKEN> <DATASET> <OUT>`: train a
//!              learned selector and save it as an HLRN1 artifact
//!   selector-apply  `selector-apply <ARTIFACT> <DATASET>`: load and run it
//!   bench      Per-cell harness timings → BENCH_harness.json
//!              (`bench --check`: CI smoke on a reduced grid, no artifact)
//!   resume     Re-run a journaled command: `resume <command> --journal FILE`
//! ```
//!
//! `--threads N` sizes the global worker pool (default: one per CPU).
//! Results are byte-identical at any thread count; only wall time
//! changes.
//!
//! Every command that runs a spec — the checked-in `specs/*.json` it
//! embeds, or `run --spec FILE` — goes through the same grid engine, so
//! `fig5` and `run --spec specs/fig5.json` print the same bytes. Those
//! commands take `--journal FILE`: a crash-safe JSONL run journal, one
//! record per driver round plus one per completed grid cell. After an
//! interruption, `resume <command> --journal FILE` repairs the journal
//! tail, replays every completed cell byte-identically and runs only
//! what's missing. `--trace` prints span closures and events to stderr
//! (`--trace=debug` and `--trace=trace` widen the level); stdout stays
//! byte-identical to an uninstrumented run.
//!
//! `table2` measures per-round phase timings of whole AL runs.

#![forbid(unsafe_code)]

use std::sync::Arc;

use histal_bench::commands::{self, Command, Runs, SpecOptions, COMMANDS, TABLE7_VARIANTS};
use histal_bench::executor::run_spec;
use histal_bench::experiments;
use histal_bench::journal::JournalCtx;
use histal_bench::spec::ExperimentSpec;
use histal_bench::tasks::Scale;
use histal_core::error::{Error, ErrorKind};
use histal_obs::trace::{set_subscriber, Level, StderrSubscriber};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let command = args[0].as_str();
    // `compare` consumes its two strategy specs positionally; `resume`
    // consumes the command to re-run; `spec-check` an optional directory.
    let mut positional: Vec<String> = Vec::new();
    let mut scale = Scale::quick();
    let mut options = SpecOptions::default();
    let mut threads: Option<usize> = None;
    let mut check = false;
    let mut spec_path: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut trace: Option<Level> = None;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => scale = Scale::full(),
            "--quick" => scale = Scale::quick(),
            "--check" => check = true,
            "--spec" => {
                i += 1;
                spec_path = Some(args.get(i).unwrap_or_else(|| bad_flag("spec")).to_string());
            }
            "--journal" => {
                i += 1;
                journal_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| bad_flag("journal"))
                        .to_string(),
                );
            }
            "--trace" => trace = Some(Level::Info),
            "--trace=info" => trace = Some(Level::Info),
            "--trace=debug" => trace = Some(Level::Debug),
            "--trace=trace" => trace = Some(Level::Trace),
            "--repeats" => {
                i += 1;
                scale.repeats = parse(&args, i, "repeats");
            }
            "--scale" => {
                i += 1;
                scale.factor = parse(&args, i, "scale");
            }
            "--threads" => {
                i += 1;
                let n: usize = parse(&args, i, "threads");
                if n == 0 {
                    bad_flag("threads");
                }
                threads = Some(n);
            }
            "--targets" => {
                i += 1;
                options.targets = Some(
                    args.get(i)
                        .unwrap_or_else(|| bad_flag("targets"))
                        .split(',')
                        .map(|s| s.trim().parse().unwrap_or_else(|_| bad_flag("targets")))
                        .collect(),
                );
            }
            "--variant" => {
                i += 1;
                options.variant = match args.get(i).map(String::as_str) {
                    Some("paper") => None,
                    v => Some(
                        TABLE7_VARIANTS
                            .iter()
                            .find(|(flag, ..)| Some(*flag) == v)
                            .unwrap_or_else(|| bad_flag("variant")),
                    ),
                };
            }
            other if !other.starts_with("--") => positional.push(other.to_string()),
            other => {
                eprintln!("unknown flag: {other}");
                usage_and_exit();
            }
        }
        i += 1;
    }

    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("global thread pool not yet initialised");
    }
    if let Some(level) = trace {
        set_subscriber(Arc::new(StderrSubscriber { max_level: level }));
    }

    // `spec-check [DIR]` is a pure parse/validate pass — no grid runs, no
    // journal, no scale banner.
    if command == "spec-check" {
        let dir = positional.first().map(String::as_str).unwrap_or("specs");
        spec_check(dir);
        return;
    }

    // `resume <command> --journal FILE` reopens the journal and re-runs
    // the command; completed cells are replayed instead of re-run.
    let resuming = command == "resume";
    let command = if resuming {
        if positional.len() != 1 {
            eprintln!(
                "usage: histal-experiments resume <{}> --journal FILE",
                commands::names(Command::journals)
            );
            std::process::exit(2);
        }
        positional.remove(0)
    } else {
        command.to_string()
    };
    let command = command.as_str();
    let journal = journal_path.as_deref().map(|path| {
        if !commands::lookup(command).is_some_and(Command::journals) {
            let journaling = commands::names(Command::journals);
            eprintln!("--journal is supported for the commands that run a spec only: {journaling}");
            std::process::exit(2);
        }
        let ctx = if resuming {
            JournalCtx::resume(path)
        } else {
            JournalCtx::create(path)
        };
        ctx.unwrap_or_else(|e| {
            eprintln!("cannot open journal {path}: {e}");
            std::process::exit(2);
        })
    });
    if resuming {
        let Some(ctx) = journal.as_ref() else {
            eprintln!("resume requires --journal FILE");
            std::process::exit(2);
        };
        eprintln!("# resume: {} completed cell(s) in journal", ctx.resumed);
    }

    eprintln!(
        "# scale factor {:.2}, repeats {}, {} worker thread(s) — use --full for paper-scale runs",
        scale.factor,
        scale.repeats,
        rayon::current_num_threads()
    );
    let Some(row) = commands::lookup(command) else {
        eprintln!("unknown command: {command}");
        usage_and_exit();
    };
    // `all` runs the paper rows in table order; every other command is
    // its own row.
    let rows: Vec<&Command> = match command {
        "all" => COMMANDS.iter().filter(|c| c.paper).collect(),
        _ => vec![row],
    };
    let operands = |n: usize, usage: &str| {
        if positional.len() != n {
            eprintln!("usage: histal-experiments {command} {usage}");
            std::process::exit(2);
        }
        &positional
    };
    let start = std::time::Instant::now();
    let result = rows
        .into_iter()
        .try_for_each(|row| match (row.runs, row.name) {
            (Runs::Spec(_, json), name) => {
                run_spec(&options.spec(name, json)?, &scale, journal.as_ref()).map(|_| ())
            }
            (_, "table3") => experiments::table3(),
            (_, "table4") => experiments::table4(),
            (_, "fig4") => experiments::fig4(&scale),
            (_, "ceiling") => experiments::ceiling(&scale),
            (_, "agnostic") => experiments::agnostic(&scale),
            (_, "sweep-batch") => experiments::sweep_batch(&scale),
            (_, "run") => {
                let Some(path) = spec_path.as_deref() else {
                    eprintln!("usage: histal-experiments run --spec FILE [--journal FILE]");
                    std::process::exit(2);
                };
                let spec = load_spec(path).map_err(|e| {
                    let message = match e.kind {
                        ErrorKind::Spec { message } => message,
                        kind => kind.to_string(),
                    };
                    Error::spec(format!("{path}: {message}"))
                })?;
                run_spec(&spec, &scale, journal.as_ref()).map(|_| ())
            }
            (_, "selector-train") => {
                let ops = operands(3, "<TOKEN> <DATASET> <OUT>");
                experiments::selector_train(&ops[0], &ops[1], &ops[2], &scale)
            }
            (_, "selector-apply") => {
                let ops = operands(2, "<ARTIFACT> <DATASET>");
                experiments::selector_apply(&ops[0], &ops[1], &scale)
            }
            (_, "compare") => {
                let ops = operands(2, "<strategyA> <strategyB> [--full]");
                experiments::compare(&scale, &ops[0], &ops[1])
            }
            (_, "significance") => experiments::significance(&scale),
            (_, "bench") => experiments::bench(&scale, check),
            (_, other) => Err(Error::invariant(format!("`{other}` runs before dispatch"))),
        });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    eprintln!("# done in {:.1}s", start.elapsed().as_secs_f64());
}

/// Read, parse and validate one spec file.
fn load_spec(path: impl AsRef<std::path::Path>) -> Result<ExperimentSpec, Error> {
    let body =
        std::fs::read_to_string(path).map_err(|e| Error::spec(format!("cannot read spec: {e}")))?;
    let spec = ExperimentSpec::from_json(&body)?;
    spec.validate()?;
    Ok(spec)
}

/// Parse + validate every `*.json` under `dir`; exit nonzero if any
/// fails. Used by CI to keep the checked-in spec library loadable.
fn spec_check(dir: &str) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        eprintln!("spec-check: cannot read {dir}: {e}");
        std::process::exit(2);
    });
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("spec-check: no spec files in {dir}");
        std::process::exit(2);
    }
    let mut failures = 0usize;
    for path in &paths {
        let shown = path.display();
        match load_spec(path) {
            Ok(spec) => println!("ok  {shown} ({})", spec.name),
            Err(e) => {
                println!("ERR {shown}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("spec-check: {failures} of {} spec(s) failed", paths.len());
        std::process::exit(1);
    }
    println!("spec-check OK ({} specs)", paths.len());
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, name: &str) -> T {
    args.get(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| bad_flag(name))
}

fn bad_flag(name: &str) -> ! {
    eprintln!("invalid or missing value for --{name}");
    std::process::exit(2);
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: histal-experiments <{}> \
         [--full|--quick|--check] [--repeats N] [--scale F] [--threads N] [--targets a,b,c] \
         [--variant paper|ar|linear|autocorr] [--spec FILE] [--journal FILE] [--trace[=info|debug|trace]]",
        commands::names(|_| true)
    );
    std::process::exit(2);
}
