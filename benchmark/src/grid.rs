//! Grid workloads: a frozen `ExperimentSpec` resolved the way
//! `GridExecutor` resolves it, then run as a stream of flat
//! (cell × repeat) passes over the rayon pool's threads.
//!
//! The benchmark builds each learner itself instead of calling the
//! executor, so that a traced run can wrap the model in [`Timed`] and
//! time the session build and the run as separate layers. `verify`
//! checks that the flat fan-out reproduces the executor's curves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use histal_bench::executor::{
    ner_pool_config, seed_for, text_pool_config, train_lhs_plan, GridExecutor,
};
use histal_bench::registry::{parse_dataset, parse_strategy, DatasetDef};
use histal_bench::spec::ExperimentSpec;
use histal_bench::tasks::{NerTask, Scale, TextTask};
use histal_core::lhs::LhsSelector;
use histal_core::session::{Ready, SessionBuilder};
use histal_core::{ActiveLearner, Error, Model, PoolConfig, RunResult, Strategy};

use crate::host::Host;
use crate::stats::Fnv;
use crate::timed::Timed;
use crate::trace::{maybe_time, summarize, Trace};
use crate::{
    end_to_end, finish_trace, layer_metrics, measure_s, run_setups, secs, setups, Opts, Outcome,
    Seeds, Workload, THREADS,
};

enum Task {
    Text { task: TextTask, config: PoolConfig },
    Ner { task: NerTask, config: PoolConfig },
}

struct Job {
    task: usize,
    strategy: Strategy,
    lhs: Option<usize>,
    seed: u64,
}

/// A resolved grid: built tasks, trained selectors and the flat job list.
pub struct Grid {
    tasks: Vec<Task>,
    selectors: Vec<LhsSelector>,
    jobs: Vec<Job>,
    representations: bool,
}

/// How a stream spreads jobs over threads.
#[derive(Debug, Clone, Copy)]
pub enum Fanout {
    /// This many lanes, each taking the next job and running it with
    /// nested parallelism off, the way a pool worker runs nested calls.
    /// Jobs flow across pass boundaries, so no lane waits at a barrier.
    Lanes(usize),
    /// One `rayon::run_indexed` per pass from the calling thread, the
    /// way `GridExecutor` fans out: nested calls made on the calling
    /// thread are queued to the pool behind the outer fan-out.
    Executor,
}

/// One finished job of a stream.
struct Done {
    /// Position in the stream; the job is `index % jobs`.
    index: usize,
    rounds: usize,
    turnaround_ms: Vec<f64>,
    score_ms: f64,
    select_ms: f64,
    /// [`curve_digest`] of the run.
    curve: u64,
    failed: bool,
}

/// One lane's share of a stream.
struct Lane {
    done: Vec<Done>,
    /// Seconds spent in jobs, as measured.
    busy_s: f64,
    /// The same at the calibration host's speed (see `host.rs`).
    nominal_s: f64,
}

/// What a stream of passes over every job produced. Times are at the
/// calibration host's speed unless named raw.
pub struct Stream {
    /// Wall clock from the first job's start to the last job's end, s.
    pub wall_s: f64,
    /// Selection rounds per second: each lane's rounds over the time it
    /// spent in jobs, summed over lanes. A lane left idle by the
    /// others' last jobs does not lower it, and neither do kernel
    /// samples.
    pub rate: f64,
    /// The same from the times as measured.
    pub raw_rate: f64,
    /// (cell, repeat) jobs run, the first pass always complete.
    pub jobs: usize,
    /// Selection rounds completed.
    pub rounds: usize,
    /// Per round: wall clock from a batch's labels being applied to
    /// the next batch's, measured at the model's fit calls (ms).
    pub turnaround_ms: Vec<f64>,
    /// Σ score-phase time the program reports in its round records (ms).
    pub score_ms: f64,
    /// Σ select-phase time the program reports (ms).
    pub select_ms: f64,
    /// Jobs that returned an error, or whose curve differs from the
    /// same job's in the first pass.
    pub failed: usize,
    /// FNV over the first pass's curves, in job order.
    pub digest: String,
}

/// Shrink a spec for `--smoke`: tiny pools, one repeat.
fn smoke(spec: &mut ExperimentSpec) {
    let scale = spec.scale.get_or_insert_with(Default::default);
    scale.factor = Some(0.02);
    scale.repeats = Some(1);
}

fn spec_scale(spec: &ExperimentSpec) -> Result<Scale, Error> {
    match spec.scale.as_ref().map(|s| (s.factor, s.repeats)) {
        Some((Some(factor), Some(repeats))) => Ok(Scale { factor, repeats }),
        _ => Err(Error::spec("benchmark specs pin scale.factor and repeats")),
    }
}

/// The pool overrides `GridExecutor` applies; the options it has beyond
/// these are rejected, since the benchmark could not mirror them.
fn apply_pool(spec: &ExperimentSpec, mut config: PoolConfig) -> Result<PoolConfig, Error> {
    if spec.ann.is_some() || spec.budget.is_some() || spec.prune.is_some() {
        return Err(Error::spec("benchmark specs take no ann, budget or prune"));
    }
    if let Some(p) = &spec.pool {
        config.batch_size = p.batch_size.unwrap_or(config.batch_size);
        config.rounds = p.rounds.unwrap_or(config.rounds);
        config.init_labeled = p.init_labeled.unwrap_or(config.init_labeled);
        config.record_history |= p.record_history;
    }
    Ok(config)
}

impl Grid {
    /// Build every task and train every distinct selector, as
    /// `GridExecutor::execute` does before its fan-out. With a trace,
    /// task builds and selector trainings become spans under `parent`.
    pub fn setup(
        spec: &ExperimentSpec,
        seeds: &Seeds,
        trace: Option<&Trace>,
        parent: u64,
    ) -> Result<Grid, Error> {
        spec.validate()?;
        if spec
            .model
            .as_deref()
            .is_some_and(|m| m != "logreg" && m != "crf")
        {
            return Err(Error::spec("benchmark specs use the default models"));
        }
        let scale = spec_scale(spec)?;
        let representations = spec.pool.as_ref().is_some_and(|p| p.representations);
        let split_seed = seeds.perturb(spec.split_seed);

        let mut tasks = Vec::new();
        for d in &spec.datasets {
            let task = match parse_dataset(&d.dataset)? {
                DatasetDef::Text { noise: Some(_), .. } => {
                    return Err(Error::spec("benchmark specs take no label noise"))
                }
                DatasetDef::Text {
                    spec: mut tspec, ..
                } => {
                    tspec.seed = seeds.perturb(tspec.seed);
                    let multiclass = tspec.n_classes > 2;
                    let task = maybe_time(trace, "bench.task_build", parent, 0, |_| {
                        TextTask::build(&tspec, &scale, split_seed)
                    });
                    let config = apply_pool(spec, text_pool_config(multiclass, &scale))?;
                    Task::Text { task, config }
                }
                DatasetDef::Ner { spec: mut nspec } => {
                    nspec.seed = seeds.perturb(nspec.seed);
                    let mut task = maybe_time(trace, "bench.task_build", parent, 0, |_| {
                        NerTask::build(&nspec, &scale)
                    });
                    task.score_beam = spec.ner_beam;
                    let config = apply_pool(spec, ner_pool_config(&scale))?;
                    Task::Ner { task, config }
                }
            };
            tasks.push(task);
        }

        // Resolve every entry once and train each distinct plan once.
        let mut selectors = Vec::new();
        let mut selector_keys: Vec<String> = Vec::new();
        let mut resolved = Vec::new();
        for group in &spec.groups {
            for entry in &group.strategies {
                let r = parse_strategy(&entry.strategy)?;
                let lhs = match &r.lhs {
                    None => None,
                    Some(plan) => {
                        let key = plan.cache_key();
                        Some(match selector_keys.iter().position(|k| *k == key) {
                            Some(i) => i,
                            None => {
                                let selector =
                                    maybe_time(trace, "learned.selector_train", parent, 0, |_| {
                                        train_lhs_plan(plan, &scale)
                                    })?;
                                selectors.push(selector);
                                selector_keys.push(key);
                                selectors.len() - 1
                            }
                        })
                    }
                };
                let experiment = entry
                    .experiment
                    .clone()
                    .unwrap_or_else(|| spec.experiment_id().to_string());
                resolved.push((r.strategy, lhs, seeds.namespace(&experiment)));
            }
        }

        // Dataset-major, like the executor; learned selectors are
        // trained on binary data and skip multiclass datasets.
        let mut jobs = Vec::new();
        for (ti, task) in tasks.iter().enumerate() {
            let (name, multiclass) = match task {
                Task::Text { task, .. } => (&task.name, task.n_classes > 2),
                Task::Ner { task, .. } => (&task.name, false),
            };
            for (strategy, lhs, experiment) in &resolved {
                if lhs.is_some() && multiclass {
                    continue;
                }
                for r in 0..scale.repeats {
                    jobs.push(Job {
                        task: ti,
                        strategy: strategy.clone(),
                        lhs: *lhs,
                        seed: seed_for(experiment, name, &strategy.name(), r),
                    });
                }
            }
        }
        Ok(Grid {
            tasks,
            selectors,
            jobs,
            representations,
        })
    }

    /// Number of (cell, repeat) jobs in one pass.
    pub fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn text_builder<M: Model<Sample = histal_models::Document, Label = usize>>(
        &self,
        model: M,
        task: &TextTask,
        config: &PoolConfig,
        job: &Job,
    ) -> SessionBuilder<M, Ready> {
        let mut b = ActiveLearner::builder(model)
            .pool(task.pool_docs.clone(), task.pool_labels.clone())
            .test(task.test_docs.clone(), task.test_labels.clone())
            .strategy(job.strategy.clone())
            .config(config.clone())
            .seed(job.seed);
        if let Some(i) = job.lhs {
            b = b.lhs(self.selectors[i].clone());
        }
        if self.representations {
            b = b.representations(task.pool_docs.iter().map(|d| d.features.clone()).collect());
        }
        b
    }

    fn ner_builder<M: Model<Sample = histal_models::Sentence, Label = Vec<u16>>>(
        model: M,
        task: &NerTask,
        config: &PoolConfig,
        job: &Job,
    ) -> SessionBuilder<M, Ready> {
        ActiveLearner::builder(model)
            .pool(task.pool.clone(), task.pool_tags.clone())
            .test(task.test.clone(), task.test_tags.clone())
            .strategy(job.strategy.clone())
            .config(config.clone())
            .seed(job.seed)
    }

    /// Run job `j`, returning its result and its rounds' latencies
    /// (ms). With a trace, the session build and the run become spans
    /// under `parent`, and the model records its own spans.
    pub fn run_job(
        &self,
        j: usize,
        trace: Option<&Arc<Trace>>,
        parent: u64,
    ) -> (Result<RunResult, Error>, Vec<f64>) {
        let job = &self.jobs[j];
        // The run's id doubles as its `core.run` span id, so the model's
        // spans can name their parent before it is recorded.
        let run = trace.map_or(0, |t| t.next_id());
        let tr = trace.map(|t| &**t);
        match &self.tasks[job.task] {
            Task::Text { task, config } => {
                let model = Timed::new(task.model(0), trace.cloned(), run);
                let learner = maybe_time(tr, "core.session_build", parent, run, |_| {
                    self.text_builder(model, task, config, job).build()
                });
                drive(tr, learner, parent, run)
            }
            Task::Ner { task, config } => {
                let model = Timed::new(task.model(), trace.cloned(), run);
                let learner = maybe_time(tr, "core.session_build", parent, run, |_| {
                    Self::ner_builder(model, task, config, job).build()
                });
                drive(tr, learner, parent, run)
            }
        }
    }

    /// Run stream position `index` and keep what the metrics need, its
    /// round latencies multiplied by `scale`.
    fn finish(&self, index: usize, scale: f64, trace: Option<&Arc<Trace>>, parent: u64) -> Done {
        let (result, turnaround_ms) = self.run_job(index % self.jobs.len(), trace, parent);
        let mut done = Done {
            index,
            rounds: 0,
            turnaround_ms: turnaround_ms.into_iter().map(|ms| ms * scale).collect(),
            score_ms: 0.0,
            select_ms: 0.0,
            curve: curve_digest(&result),
            failed: false,
        };
        match result {
            Ok(run) => {
                done.rounds = run.rounds.len();
                for rr in &run.rounds {
                    done.score_ms += rr.score_ms;
                    done.select_ms += rr.select_ms;
                }
            }
            Err(e) => {
                eprintln!("# job failed: {e}");
                done.failed = true;
            }
        }
        done
    }

    /// Run passes over every job until `seconds` have passed; the first
    /// pass always runs to the end, since it is the reference the later
    /// ones are checked against. Each thread samples `host` between
    /// jobs, and a job's times are scaled by its thread's latest sample.
    pub fn stream(
        &self,
        seconds: f64,
        fanout: Fanout,
        host: &Host,
        trace: Option<&Arc<Trace>>,
    ) -> Stream {
        let n = self.jobs.len();
        let stream_id = trace.map_or(0, |t| t.next_id());
        let stream_start = trace.map_or(0, |t| t.now());
        let start = Instant::now();
        let more = |index: usize| index < n || start.elapsed().as_secs_f64() < seconds;
        let lanes: Vec<Lane> = match fanout {
            Fanout::Lanes(lanes) => {
                let lanes_pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(lanes)
                    .build()
                    .expect("build the lanes' pool");
                let inline = rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()
                    .expect("build a 1-thread pool");
                let next = AtomicUsize::new(0);
                lanes_pool.install(|| {
                    rayon::run_indexed(lanes, |_| {
                        let mut sampler = host.sampler();
                        let mut lane = Lane {
                            done: Vec::new(),
                            busy_s: 0.0,
                            nominal_s: 0.0,
                        };
                        loop {
                            // Positions are taken in order, so the ones
                            // run are always a prefix of the stream.
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if !more(index) {
                                break lane;
                            }
                            let scale = sampler.scale();
                            let job_start = Instant::now();
                            lane.done.push(
                                inline.install(|| self.finish(index, scale, trace, stream_id)),
                            );
                            let busy = job_start.elapsed().as_secs_f64();
                            lane.busy_s += busy;
                            lane.nominal_s += busy * scale;
                        }
                    })
                })
            }
            Fanout::Executor => {
                let mut sampler = host.sampler();
                let mut lane = Lane {
                    done: Vec::new(),
                    busy_s: 0.0,
                    nominal_s: 0.0,
                };
                while more(lane.done.len()) {
                    let scale = sampler.scale();
                    let pass_start = Instant::now();
                    let base = lane.done.len();
                    lane.done.extend(rayon::run_indexed(n, |j| {
                        self.finish(base + j, scale, trace, stream_id)
                    }));
                    let busy = pass_start.elapsed().as_secs_f64();
                    lane.busy_s += busy;
                    lane.nominal_s += busy * scale;
                }
                vec![lane]
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(t) = trace {
            t.close(stream_id, 0, "fanout.stream", 0, stream_start);
        }
        let rounds = |lane: &Lane| lane.done.iter().map(|d| d.rounds).sum::<usize>() as f64;
        let rate = lanes.iter().map(|l| rounds(l) / l.nominal_s).sum();
        let raw_rate = lanes.iter().map(|l| rounds(l) / l.busy_s).sum();
        let mut done: Vec<Done> = lanes.into_iter().flat_map(|l| l.done).collect();
        done.sort_unstable_by_key(|d| d.index);

        let mut stream = Stream {
            wall_s,
            rate,
            raw_rate,
            jobs: done.len(),
            rounds: 0,
            turnaround_ms: Vec::new(),
            score_ms: 0.0,
            select_ms: 0.0,
            failed: 0,
            digest: fold_digest(done.iter().take(n).map(|d| d.curve)),
        };
        for d in &done {
            stream.rounds += d.rounds;
            stream.turnaround_ms.extend(&d.turnaround_ms);
            stream.score_ms += d.score_ms;
            stream.select_ms += d.select_ms;
            let reference = done[d.index % n].curve;
            if d.failed {
                stream.failed += 1;
            } else if d.curve != reference {
                eprintln!(
                    "# job {} gave another curve than in the first pass",
                    d.index
                );
                stream.failed += 1;
            }
        }
        stream
    }

    /// Every job's result in job order (for `verify`).
    fn run_all(&self) -> Vec<Result<RunResult, Error>> {
        rayon::run_indexed(self.jobs.len(), |j| self.run_job(j, None, 0).0)
    }
}

fn drive<M: Model>(
    trace: Option<&Trace>,
    mut learner: ActiveLearner<Timed<M>>,
    parent: u64,
    run: u64,
) -> (Result<RunResult, Error>, Vec<f64>) {
    let start = trace.map_or(0, |t| t.now());
    let out = learner.run();
    if let Some(t) = trace {
        t.close(run, parent, "core.run", run, start);
    }
    (out, learner.into_model().round_ms())
}

/// FNV over one run's curve bits; a failed run gets a marker no curve
/// can produce.
fn curve_digest(run: &Result<RunResult, Error>) -> u64 {
    let Ok(run) = run else {
        return u64::MAX;
    };
    let mut h = Fnv::default();
    h.write_u64(run.curve.len() as u64);
    for p in &run.curve {
        h.write_u64(p.n_labeled as u64);
        h.write_u64(p.metric.to_bits());
    }
    h.finish()
}

/// FNV over the runs' curve digests, in job order.
fn fold_digest(curves: impl IntoIterator<Item = u64>) -> String {
    let mut h = Fnv::default();
    for c in curves {
        h.write_u64(c);
    }
    h.hex()
}

fn digest(runs: &[Result<RunResult, Error>]) -> String {
    fold_digest(runs.iter().map(curve_digest))
}

/// Check that the flat fan-out reproduces `GridExecutor::execute`'s
/// per-repeat curves at seed 0. Returns (runs compared, Σ curve metrics).
pub fn verify(spec: &ExperimentSpec) -> Result<(usize, f64), Error> {
    let scale = spec_scale(spec)?;
    let outcome = GridExecutor::new(spec, &scale).execute()?;
    let reference: Vec<Result<RunResult, Error>> = outcome
        .blocks
        .into_iter()
        .flat_map(|b| b.cells)
        .flat_map(|c| c.runs)
        .map(Ok)
        .collect();
    let grid = Grid::setup(spec, &Seeds::default(), None, 0)?;
    let flat = grid.run_all();
    if flat.len() != reference.len() || digest(&flat) != digest(&reference) {
        return Err(Error::invariant(format!(
            "flat fan-out ({} runs, digest {}) differs from GridExecutor ({} runs, digest {})",
            flat.len(),
            digest(&flat),
            reference.len(),
            digest(&reference)
        )));
    }
    let sum = reference
        .iter()
        .flatten()
        .flat_map(|r| &r.curve)
        .map(|p| p.metric)
        .sum();
    Ok((flat.len(), sum))
}

pub(crate) fn grid_spec(w: &Workload, opts: &Opts) -> Result<ExperimentSpec, Error> {
    let mut spec = ExperimentSpec::from_json(w.input)?;
    if opts.smoke {
        smoke(&mut spec);
    }
    Ok(spec)
}

/// Fold a stream into the outcome; every stream must give the same
/// digest.
fn absorb(out: &mut Outcome, stream: &Stream) {
    out.ops += stream.jobs;
    out.failed += stream.failed;
    if out.digest.is_empty() {
        out.digest = stream.digest.clone();
    } else if stream.digest != out.digest {
        eprintln!(
            "# stream digest {} differs from {}",
            stream.digest, out.digest
        );
        out.failed += 1;
    }
}

pub(crate) fn run_grid(w: &Workload, opts: &Opts, started: Instant) -> Result<Outcome, Error> {
    let spec = grid_spec(w, opts)?;
    let trace = opts.trace.then(|| Arc::new(Trace::new()));
    let tr = trace.as_deref();
    let host = Host::default();
    let (grid, setups_done) = run_setups(setups(w, opts), tr, |id| {
        Grid::setup(&spec, &opts.seeds, tr, id)
    })?;
    let mut out = Outcome::default();
    let seconds = measure_s(opts);
    let Some(trace) = &trace else {
        let s = grid.stream(seconds, Fanout::Lanes(THREADS), &host, None);
        absorb(&mut out, &s);
        end_to_end(
            &mut out,
            &setups_done,
            &host,
            (s.rate, s.raw_rate),
            &s.turnaround_ms,
        );
        eprintln!(
            "# {}: {} jobs ({} a pass) in {:.2} s, {} round samples",
            w.name,
            s.jobs,
            grid.jobs(),
            s.wall_s,
            s.turnaround_ms.len()
        );
        return Ok(out);
    };

    // Traced: a quarter of the time each for untraced lanes (the
    // baseline), traced lanes (the layers), one lane (the speed-up) and
    // the executor's own fan-out.
    let quarter = seconds / 4.0;
    let plain = grid.stream(quarter, Fanout::Lanes(THREADS), &host, None);
    let traced = grid.stream(quarter, Fanout::Lanes(THREADS), &host, Some(trace));
    let single = grid.stream(quarter, Fanout::Lanes(1), &host, None);
    let executor = grid.stream(quarter, Fanout::Executor, &host, None);
    let wall = secs(started.elapsed());
    for s in [&plain, &traced, &single, &executor] {
        absorb(&mut out, s);
    }

    let spans = trace.spans();
    let layers = summarize(&spans);
    let passes = traced.jobs as f64 / grid.jobs() as f64;
    layer_metrics(
        &mut out,
        &setups_done,
        &host,
        &layers,
        &spans,
        passes,
        &traced,
    );
    let run_total = layers.get("core.run").map_or(0, |s| s.total) as f64 / 1e9;
    out.metric(
        "fanout.busy_ratio",
        run_total / (THREADS as f64 * traced.wall_s),
        "ratio",
    );
    out.metric("fanout.speedup_1t", plain.rate / single.rate, "ratio");
    out.metric("fanout.executor_ratio", executor.rate / plain.rate, "ratio");
    let attributed: f64 = setups_done.walls.iter().sum::<f64>()
        + [&plain, &traced, &single, &executor]
            .iter()
            .map(|s| s.wall_s)
            .sum::<f64>();
    out.metric("unattributed_pct", 100.0 * (wall - attributed) / wall, "%");
    out.metric(
        "trace.overhead_pct",
        100.0 * (plain.rate / traced.rate - 1.0),
        "%",
    );
    finish_trace(w.name, trace, &layers);
    Ok(out)
}
