//! Experiment harness CLI — regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```text
//! histal-experiments <command> [--full] [--quick] [--repeats N] [--scale F]
//!                    [--threads N] [--targets a,b,c]
//!                    [--variant paper|ar|linear|autocorr]
//!                    [--spec FILE] [--journal FILE] [--trace[=LEVEL]]
//!
//! Commands:
//!   table2     Measured per-round strategy cost  (Table 2)
//!   table3     Text dataset statistics           (Table 3)
//!   table4     NER dataset statistics            (Table 4)
//!   fig3-text  General strategies, text          (Figure 3, rows 1–3)
//!   fig3-ner   General strategies, NER           (Figure 3, row 4)
//!   table5     Annotation cost to target acc.    (Table 5)
//!   fig4       SOTA strategies + history         (Figure 4)
//!   fig5       Hyper-parameter sensitivity       (Figure 5)
//!   table6     Scores of selected samples        (Table 6)
//!   table7     LHS feature ablation              (Table 7)
//!   run        Execute an arbitrary experiment grid: `run --spec FILE`
//!              (files with `"kind": "transfer"` run as train×apply
//!              transfer matrices, see EXPERIMENTS.md)
//!   spec-check Parse + validate every spec file:  `spec-check [DIR]`
//!   selector-train  Train a learned selector and save it as an HLRN1
//!              artifact: `selector-train <TOKEN> <DATASET> <OUT>`
//!   selector-apply  Load a saved selector and run it on a dataset:
//!              `selector-apply <ARTIFACT> <DATASET>`
//!   bench      Per-cell harness timings → BENCH_harness.json
//!              (`bench --check`: CI smoke on a reduced grid, no artifact)
//!   resume     Re-run a journaled command, replaying completed cells:
//!              `resume <fig3-text|fig3-ner|fig5|run> --journal FILE`
//!   all        Everything above in order
//! ```
//!
//! `--threads N` sizes the global worker pool (default: one per CPU).
//! Results are byte-identical at any thread count; only wall time
//! changes.
//!
//! `run --spec FILE` loads a JSON [`histal_bench::spec::ExperimentSpec`]
//! and executes it with the same grid engine that powers the named
//! commands — the checked-in files under `specs/` reproduce fig2, fig3,
//! fig5, table2, table6 and table7 byte-for-byte, and custom files can
//! describe new grids without touching code (see EXPERIMENTS.md).
//!
//! `--journal FILE` (fig3-text, fig3-ner, fig5, run) writes a crash-safe
//! JSONL run journal: one record per driver round plus one per completed
//! grid cell. After an interruption, `resume <command> --journal FILE`
//! repairs the journal tail, replays every completed cell byte-identically
//! and runs only what's missing. `--trace` prints span closures and
//! events to stderr (`--trace=debug` and `--trace=trace` widen the
//! level); stdout stays byte-identical to an uninstrumented run.
//!
//! Table 2 (efficiency) is a Criterion bench:
//! `cargo bench -p histal-bench --bench strategy_overhead`.

use std::sync::Arc;

use histal_bench::executor::run_spec;
use histal_bench::experiments::{self, Table7Variant};
use histal_bench::journal::JournalCtx;
use histal_bench::scaling::PoolScalingSpec;
use histal_bench::spec::{ExperimentSpec, SpecKind};
use histal_bench::tasks::Scale;
use histal_bench::transfer::{run_transfer, selector_apply, selector_train, TransferSpec};
use histal_core::error::Error;
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
    let mut targets = vec![0.72, 0.73, 0.735];
    let mut variant = Table7Variant::Paper;
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
                targets = args
                    .get(i)
                    .unwrap_or_else(|| bad_flag("targets"))
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| bad_flag("targets")))
                    .collect();
            }
            "--variant" => {
                i += 1;
                variant = match args.get(i).map(String::as_str) {
                    Some("paper") => Table7Variant::Paper,
                    Some("ar") => Table7Variant::ArPredictor,
                    Some("linear") => Table7Variant::LinearRanker,
                    Some("autocorr") => Table7Variant::Autocorr,
                    _ => bad_flag("variant"),
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
                "usage: histal-experiments resume <fig3-text|fig3-ner|fig5|run> --journal FILE"
            );
            std::process::exit(2);
        }
        positional.remove(0)
    } else {
        command.to_string()
    };
    let command = command.as_str();
    let journal = journal_path.as_deref().map(|path| {
        if !matches!(command, "fig3-text" | "fig3-ner" | "fig5" | "run") {
            eprintln!("--journal is supported for fig3-text, fig3-ner, fig5 and run only");
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
    let start = std::time::Instant::now();
    let result: Result<(), Error> = match command {
        "table3" => {
            experiments::table3();
            Ok(())
        }
        "table4" => {
            experiments::table4();
            Ok(())
        }
        "fig3-text" => experiments::fig3_text(&scale, journal.as_ref()).map(|_| ()),
        "fig3-ner" => experiments::fig3_ner(&scale, journal.as_ref()).map(|_| ()),
        "table5" => experiments::table5(&scale, &targets),
        "fig4" => experiments::fig4(&scale),
        "fig5" => experiments::fig5(&scale, journal.as_ref()),
        "table6" => experiments::table6(&scale),
        "table7" => experiments::table7(&scale, variant),
        "ceiling" => {
            experiments::ceiling(&scale);
            Ok(())
        }
        "table2" => experiments::table2(&scale),
        "fig2" => experiments::fig2(&scale),
        "noise" => experiments::noise(&scale),
        "agnostic" => experiments::agnostic(&scale),
        "imbalance" => experiments::imbalance(&scale),
        "sweep-batch" => experiments::sweep_batch(&scale),
        "run" => {
            let Some(path) = spec_path.as_deref() else {
                eprintln!("usage: histal-experiments run --spec FILE [--journal FILE]");
                std::process::exit(2);
            };
            run_spec_file(path, &scale, journal.as_ref())
        }
        "selector-train" => {
            if positional.len() != 3 {
                eprintln!("usage: histal-experiments selector-train <TOKEN> <DATASET> <OUT>");
                std::process::exit(2);
            }
            selector_train(&positional[0], &positional[1], &positional[2], &scale)
        }
        "selector-apply" => {
            if positional.len() != 2 {
                eprintln!("usage: histal-experiments selector-apply <ARTIFACT> <DATASET>");
                std::process::exit(2);
            }
            selector_apply(&positional[0], &positional[1], &scale)
        }
        "compare" => {
            if positional.len() != 2 {
                eprintln!("usage: histal-experiments compare <strategyA> <strategyB> [--full]");
                std::process::exit(2);
            }
            experiments::compare(&scale, &positional[0], &positional[1])
        }
        "significance" => experiments::significance(&scale),
        "bench" => {
            if check {
                experiments::bench_check(&scale)
            } else {
                experiments::bench(&scale)
            }
        }
        "all" => experiments::fig2(&scale)
            .and_then(|()| experiments::table2(&scale))
            .and_then(|()| {
                experiments::table3();
                experiments::table4();
                experiments::fig3_text(&scale, None).map(|_| ())
            })
            .and_then(|()| experiments::fig3_ner(&scale, None).map(|_| ()))
            .and_then(|()| experiments::table5(&scale, &targets))
            .and_then(|()| experiments::fig4(&scale))
            .and_then(|()| experiments::fig5(&scale, None))
            .and_then(|()| experiments::table6(&scale))
            .and_then(|()| experiments::table7(&scale, variant)),
        other => {
            eprintln!("unknown command: {other}");
            usage_and_exit();
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    eprintln!("# done in {:.1}s", start.elapsed().as_secs_f64());
}

/// Execute one spec file, routing on its `kind`: transfer specs run as
/// train×apply matrices, experiment specs as ordinary grids. Pool-scaling
/// grids only run inside `bench`.
fn run_spec_file(path: &str, scale: &Scale, journal: Option<&JournalCtx>) -> Result<(), Error> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| Error::spec(format!("cannot read spec {path}: {e}")))?;
    match SpecKind::of_json(&body) {
        SpecKind::PoolScaling => Err(Error::spec(format!(
            "{path}: pool-scaling specs are not experiment grids — they run inside \
             `histal-experiments bench`"
        ))),
        SpecKind::Transfer => {
            let spec =
                TransferSpec::from_json(&body).map_err(|e| Error::spec(format!("{path}: {e}")))?;
            run_transfer(&spec, scale, journal).map(|_| ())
        }
        SpecKind::Experiment => {
            let spec = ExperimentSpec::from_json(&body)
                .map_err(|e| Error::spec(format!("{path}: {e}")))?;
            spec.validate()?;
            run_spec(&spec, scale, journal).map(|_| ())
        }
    }
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
        // Files carrying a `kind` discriminator use their own schema
        // (`pool-scaling`, `transfer`); everything else is an
        // experiment grid.
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| Error::spec(format!("cannot read: {e}")))
            .and_then(|body| match SpecKind::of_json(&body) {
                SpecKind::PoolScaling => PoolScalingSpec::from_json(&body)
                    .and_then(|spec| spec.validate().map(|()| spec.name)),
                SpecKind::Transfer => TransferSpec::from_json(&body)
                    .and_then(|spec| spec.validate().map(|()| spec.name)),
                SpecKind::Experiment => ExperimentSpec::from_json(&body)
                    .and_then(|spec| spec.validate().map(|()| spec.name)),
            });
        match parsed {
            Ok(name) => println!("ok  {shown} ({name})"),
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
        "usage: histal-experiments <table2|table3|table4|fig3-text|fig3-ner|table5|fig4|fig5|table6|table7|run|spec-check|selector-train|selector-apply|bench|resume|all> \
         [--full|--quick|--check] [--repeats N] [--scale F] [--threads N] [--targets a,b,c] \
         [--variant paper|ar|linear|autocorr] [--spec FILE] [--journal FILE] [--trace[=info|debug|trace]]"
    );
    std::process::exit(2);
}
