//! A minimal fixed-size thread pool for connection handling.
//!
//! The workspace vendors its dependencies, so there is no tokio to lean
//! on; the service's concurrency needs are modest anyway — each
//! connection is one short request/response exchange, and the expensive
//! work (pool evaluation) already fans out through the shared rayon
//! pool inside the session pipeline. A handful of blocking workers
//! pulling jobs from one queue is the whole story.
//!
//! A job that panics is caught at the worker, which then takes the next
//! job, so a panicking handler never shrinks the pool.
//!
//! Shutdown is cooperative: dropping the pool closes the channel, each
//! worker drains what it holds and exits, and `Drop` joins them — so a
//! server that returns from its accept loop finishes in-flight requests
//! before the process exits (the "clean shutdown" the smoke test
//! scrapes for).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed worker pool: `execute` enqueues, workers run jobs FIFO.
pub(crate) struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `size` workers (at least one).
    pub(crate) fn new(size: usize) -> ThreadPool {
        let size = size.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Enqueue a job. Returns `false` if the pool is already shut down.
    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        match &self.sender {
            Some(sender) => sender.send(Box::new(job)).is_ok(),
            None => false,
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only while dequeuing, never while running a job.
        let job = match receiver.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // channel closed: pool dropped
        };
        // The panic message has already gone to stderr through the panic
        // hook; the worker lives on for the next job.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the queue, then wait for the workers to drain it.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_all_jobs_before_drop_returns() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4);
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                assert!(pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn zero_size_is_clamped() {
        let pool = ThreadPool::new(0);
        let (tx, rx) = channel();
        pool.execute(move || tx.send(42).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("deliberate job panic"));
        let (tx, rx) = channel();
        pool.execute(move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
    }
}
