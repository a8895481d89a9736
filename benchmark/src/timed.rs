//! `Timed<M>`: a [`Model`] wrapper that observes the model layer from
//! outside the program.
//!
//! Every round of the AL loop starts with a fit, so the gaps between
//! fit calls are the rounds' wall-clock latencies; those are recorded
//! always, at one clock read per round. Under a trace the wrapper also
//! records the model layer's spans.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use histal_core::{EvalCaps, Model, SampleEval};
use rand_chacha::ChaCha8Rng;

use crate::trace::{thread_index, Span, Trace};

/// Eval calls of one round on one thread, folded into one span:
/// per-sample spans would cost more than some evals they time.
struct EvalAgg {
    round: usize,
    thread: u64,
    start: u64,
    end: u64,
    busy: u64,
    calls: u64,
}

/// Records each fit's start and, under a trace, `models.fit` and
/// `models.metric` per call and `models.eval` per (round, thread), as
/// children of the run's `core.run` span.
pub struct Timed<M> {
    inner: M,
    trace: Option<Arc<Trace>>,
    /// The run's id, which is also its `core.run` span id.
    run: u64,
    fit_starts: Vec<Instant>,
    evals: Mutex<Vec<EvalAgg>>,
}

impl<M> Timed<M> {
    /// Wrap `inner` for run `run`; `trace` turns span recording on.
    pub fn new(inner: M, trace: Option<Arc<Trace>>, run: u64) -> Self {
        Timed {
            inner,
            trace,
            run,
            fit_starts: Vec::new(),
            evals: Mutex::new(Vec::new()),
        }
    }

    /// Wall clock of each completed round (ms): from one fit's start
    /// to the next, i.e. from a batch's labels being applied to the
    /// next batch's labels being applied.
    pub fn round_ms(&self) -> Vec<f64> {
        self.fit_starts
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }

    fn span(&self, trace: &Trace, name: &'static str, start: u64) {
        trace.close(trace.next_id(), self.run, name, self.run, start);
    }
}

impl<M: Model> Model for Timed<M> {
    type Sample = M::Sample;
    type Label = M::Label;

    fn fit(&mut self, samples: &[&Self::Sample], labels: &[&Self::Label], rng: &mut ChaCha8Rng) {
        self.fit_starts.push(Instant::now());
        let Some(trace) = self.trace.clone() else {
            return self.inner.fit(samples, labels, rng);
        };
        let start = trace.now();
        self.inner.fit(samples, labels, rng);
        self.span(&trace, "models.fit", start);
    }

    fn eval_sample(&self, sample: &Self::Sample, caps: &EvalCaps, seed: u64) -> SampleEval {
        let Some(trace) = &self.trace else {
            return self.inner.eval_sample(sample, caps, seed);
        };
        let start = trace.now();
        let out = self.inner.eval_sample(sample, caps, seed);
        let end = trace.now();
        // Evals follow the round's fit: the round index is fits − 1.
        let (round, thread) = (self.fit_starts.len(), thread_index());
        let mut evals = self.evals.lock().expect("eval aggregate lock poisoned");
        match evals
            .iter_mut()
            .rev()
            .find(|a| a.round == round && a.thread == thread)
        {
            Some(a) => {
                a.end = end;
                a.busy += end - start;
                a.calls += 1;
            }
            None => evals.push(EvalAgg {
                round,
                thread,
                start,
                end,
                busy: end - start,
                calls: 1,
            }),
        }
        out
    }

    fn metric(&self, samples: &[&Self::Sample], labels: &[&Self::Label]) -> f64 {
        let Some(trace) = &self.trace else {
            return self.inner.metric(samples, labels);
        };
        let start = trace.now();
        let out = self.inner.metric(samples, labels);
        self.span(trace, "models.metric", start);
        out
    }
}

impl<M> Drop for Timed<M> {
    fn drop(&mut self) {
        // The run is over once its model is dropped: flush evals now.
        let (Some(trace), Ok(evals)) = (&self.trace, self.evals.get_mut()) else {
            return;
        };
        for a in evals.drain(..) {
            trace.push(Span {
                id: trace.next_id(),
                parent: self.run,
                name: "models.eval",
                start: a.start,
                end: a.end,
                thread: a.thread,
                run: self.run,
                busy: a.busy,
                calls: a.calls,
            });
        }
    }
}
