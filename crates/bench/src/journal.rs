//! Grid-level journaling and resume for the experiment harness.
//!
//! The harness's unit of checkpointing is the **cell**: one seeded
//! active-learning run, keyed by a human-readable path like
//! `fig3_text/ag_news/WSHS(entropy)/r0` plus a hash of everything that
//! determines its output (strategy, scale, pool config, seed). Two
//! record kinds share the JSONL file:
//!
//! * `"round"` — appended by the driver after every selection round
//!   ([`histal_core::session::RoundJournalRecord`]); these mark progress
//!   *inside* a cell and are what a post-mortem reads to see where a
//!   crashed run died.
//! * `"cell"` — appended here when a cell finishes, embedding the full
//!   [`RunResult`]. On resume, cells with a matching key and config hash
//!   are replayed from this record instead of re-run; because the
//!   vendored JSON writer round-trips `f64` exactly, a resumed grid's
//!   aggregate output is byte-identical to an uninterrupted run's.
//!
//! A crash mid-append leaves at most one truncated line, which
//! [`histal_obs::Journal`] repairs on reopen — so `resume` after a kill
//! at any point re-runs only the cells whose `"cell"` record didn't make
//! it out.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use histal_core::driver::RunResult;
use histal_core::error::Error;
use histal_core::session::RunJournal;
use histal_obs::event;
use histal_obs::trace::Level;
use histal_obs::{Journal, JournalReader};

/// Cell-complete record: the terminal line a cell writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// Record discriminator, always `"cell"`.
    pub kind: String,
    /// Grid-cell key.
    pub cell: String,
    /// Hash of the cell's full configuration (see
    /// [`histal_core::session::fingerprint`]).
    pub config_hash: u64,
    /// The run's RNG seed.
    pub seed: u64,
    /// The complete run output, embedded for replay.
    pub result: RunResult,
}

/// Shared journaling context for one harness invocation: the append
/// handle plus the cells already completed by a previous (interrupted)
/// invocation. Cheap to share across the parallel fan-out — the resume
/// map is read-only and appends are internally locked.
pub struct JournalCtx {
    journal: Arc<Journal>,
    completed: HashMap<String, RunResult>,
    /// Cells loaded from a previous run's journal (0 for a fresh one).
    pub resumed: usize,
}

fn key(cell: &str, config_hash: u64) -> String {
    format!("{cell}#{config_hash:016x}")
}

impl JournalCtx {
    /// Start a fresh journal at `path` (truncates any existing file).
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JournalCtx> {
        Ok(JournalCtx {
            journal: Arc::new(Journal::create(path)?),
            completed: HashMap::new(),
            resumed: 0,
        })
    }

    /// Reopen `path` for appending, loading every completed cell. The
    /// file's crash tail (if any) is repaired first.
    pub fn resume(path: impl AsRef<Path>) -> std::io::Result<JournalCtx> {
        let path = path.as_ref();
        let reader = JournalReader::load(path)?;
        let mut completed = HashMap::new();
        for record in reader.records::<CellRecord>() {
            completed.insert(key(&record.cell, record.config_hash), record.result);
        }
        let resumed = completed.len();
        Ok(JournalCtx {
            journal: Arc::new(Journal::append_to(path)?),
            completed,
            resumed,
        })
    }

    /// The journaled result of `cell`, if a previous run completed it
    /// under the same config hash.
    pub fn cached(&self, cell: &str, config_hash: u64) -> Option<&RunResult> {
        self.completed.get(&key(cell, config_hash))
    }

    /// A per-round journal handle scoped to `cell`, for
    /// `SessionBuilder::journal`.
    pub fn run_journal(&self, cell: &str, config_hash: u64, seed: u64) -> RunJournal {
        RunJournal::new(Arc::clone(&self.journal), cell, config_hash, seed)
    }

    /// Append the cell-complete record, surfacing append failures as a
    /// structured [`Error`] (the run must abort rather than continue
    /// with a checkpoint file that would lie on resume).
    pub fn try_complete(
        &self,
        cell: &str,
        config_hash: u64,
        seed: u64,
        result: &RunResult,
    ) -> Result<(), Error> {
        let record = CellRecord {
            kind: "cell".to_string(),
            cell: cell.to_string(),
            config_hash,
            seed,
            result: result.clone(),
        };
        self.journal.append(&record).map_err(Error::journal)
    }

    /// Fallible [`Self::run_cell`]: replay `cell` if a previous run
    /// completed it, otherwise execute `run` with a per-round journal
    /// handle and checkpoint the result. Errors from `run` propagate
    /// without writing a cell record, so a failed cell re-runs on
    /// resume.
    pub fn try_run_cell(
        &self,
        cell: &str,
        config_hash: u64,
        seed: u64,
        run: impl FnOnce(Option<RunJournal>) -> Result<RunResult, Error>,
    ) -> Result<RunResult, Error> {
        if let Some(cached) = self.cached(cell, config_hash) {
            event!(Level::Info, "journal.replay", cell = cell.to_string());
            return Ok(cached.clone());
        }
        let result = run(Some(self.run_journal(cell, config_hash, seed)))?;
        self.try_complete(cell, config_hash, seed, &result)?;
        Ok(result)
    }

    /// Run `cell` through the journal: replay it if a previous run
    /// completed it, otherwise execute `run` with a per-round journal
    /// handle and checkpoint the result.
    pub fn run_cell(
        &self,
        cell: &str,
        config_hash: u64,
        seed: u64,
        run: impl FnOnce(Option<RunJournal>) -> RunResult,
    ) -> RunResult {
        self.try_run_cell(cell, config_hash, seed, |j| Ok(run(j)))
            .expect("journal cell record write failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_core::driver::CurvePoint;

    fn result(metric: f64) -> RunResult {
        RunResult {
            strategy_name: "test".to_string(),
            curve: vec![CurvePoint {
                n_labeled: 10,
                metric,
            }],
            rounds: Vec::new(),
            history: Vec::new(),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("histal-bench-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn resume_replays_completed_cells() {
        let path = tmp("resume");
        {
            let ctx = JournalCtx::create(&path).unwrap();
            let r = ctx.run_cell("grid/a/r0", 7, 42, |_| result(0.5));
            assert_eq!(r.curve[0].metric, 0.5);
        }
        let ctx = JournalCtx::resume(&path).unwrap();
        assert_eq!(ctx.resumed, 1);
        let mut ran = false;
        let r = ctx.run_cell("grid/a/r0", 7, 42, |_| {
            ran = true;
            result(0.9)
        });
        assert!(!ran, "cached cell must not re-run");
        assert_eq!(r.curve[0].metric, 0.5);
        // Different hash → treated as a different cell.
        let r2 = ctx.run_cell("grid/a/r0", 8, 42, |_| result(0.9));
        assert_eq!(r2.curve[0].metric, 0.9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_records_coexist_with_cell_records() {
        let path = tmp("mixed");
        let ctx = JournalCtx::create(&path).unwrap();
        let rj = ctx.run_journal("grid/b/r0", 1, 2);
        rj.append(&serde::Value::Map(vec![(
            "kind".to_string(),
            serde::Value::Str("round".to_string()),
        )]))
        .unwrap();
        ctx.try_complete("grid/b/r0", 1, 2, &result(0.25)).unwrap();
        drop(ctx);
        let ctx = JournalCtx::resume(&path).unwrap();
        assert_eq!(ctx.resumed, 1);
        assert!(ctx.cached("grid/b/r0", 1).is_some());
        std::fs::remove_file(&path).ok();
    }
}
