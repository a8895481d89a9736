//! The session store: journal-backed state for every hosted session.
//!
//! Each session owns one JSONL journal under the store's state
//! directory: a `create` record carrying the normalized
//! [`SessionConfig`], one `labels` record per accepted submission
//! chunk, and, once the run is done, one `result` record carrying its
//! final status. Because the live session is a deterministic replay of
//! its label events (see `histal_core::live`), that journal *is* the
//! session.
//!
//! A session is held in memory only while labels can still change it.
//! Its first step to done appends the `result` record, counts the
//! completion, and shrinks the entry to that final status: the model,
//! pool, score history and open journal file are dropped, so memory is
//! bounded by the live sessions rather than by every session ever
//! served. Status, listing and batch answer from the summary. The two
//! requests that need label history — the snapshot, and labels posted
//! to a finished session — rebuild the session from its journal through
//! the same replay as [`Store::open`], answer, and drop it again.
//!
//! [`Store::open`] registers a journal that ends in a `result` record
//! from its `create` and `result` records alone. Any other journal is
//! replayed: the config is re-resolved, the recorded chunks
//! re-submitted and the session stepped once, as its next request
//! would, landing byte-identical to the pre-crash state — same RNG
//! position, same pending ticket, same partially-filled batch. A torn
//! tail line (kill -9 mid-append) is dropped by the journal reader and
//! truncated on re-open, costing at most the one record that never
//! finished writing; a session whose `result` record was torn steps to
//! done again on re-open and writes it anew.
//!
//! Ordering makes the journal safe: a chunk is applied to the session
//! *first* and journaled only after it was accepted, so the journal
//! never holds a chunk the pipeline would reject. A crash between
//! apply and append loses that chunk — the client's retry is absorbed
//! as duplicates by the first-write-wins submit semantics.
//!
//! A request that panics while it holds a session's lock poisons that
//! lock. From then on the session answers every request with an
//! invariant error (HTTP 500) until the server restarts; other
//! sessions are unaffected.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use histal_bench::registry::resolve_cell;
use histal_core::error::Error;
use histal_core::live::{SessionStatus, SessionStep, SubmitOutcome};
use histal_core::pipeline::Ticket;
use histal_core::pool::SampleId;
use histal_obs::{Journal, JournalReader, MetricsRegistry, ShardedMetrics};

use crate::config::{SessionConfig, TaskCache};
use crate::session::{AnySession, BatchView, LabelValue};

/// Hard cap on distinct tenants (one metrics shard each).
pub(crate) const MAX_TENANTS: usize = 64;

/// Journal record written once at session creation.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CreateRecord {
    kind: String,
    id: String,
    config: SessionConfig,
}

/// Journal record written per accepted submission chunk.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LabelsRecord {
    kind: String,
    ticket: Ticket,
    labels: Vec<(SampleId, LabelValue)>,
}

/// Journal record written once, when the session first steps to done.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ResultRecord {
    kind: String,
    status: SessionStatus,
}

/// A session's status plus its serving identity, as listed to clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusView {
    /// Session id, e.g. `"s000017"`.
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// `"external"` or `"simulated"`.
    pub oracle: String,
    /// The live pipeline status.
    pub status: SessionStatus,
}

/// What a session entry holds: the live pipeline and its open journal
/// while labels can still change it, then only its final status. The
/// session is boxed so a finished entry does not keep its size.
pub(crate) enum Slot {
    /// An unfinished session.
    Live {
        session: Box<AnySession>,
        journal: Journal,
    },
    /// A session that stepped to done; its journal ends in a `result`
    /// record.
    Finished(SessionStatus),
}

impl Slot {
    fn status(&self) -> SessionStatus {
        match self {
            Slot::Live { session, .. } => session.status(),
            Slot::Finished(status) => status.clone(),
        }
    }
}

/// One hosted session behind a mutex. The mutex is the coalescing
/// point — concurrent get-next-batch calls serialize here, and every
/// caller after the first finds the ticket already issued and returns
/// it without re-entering the pipeline.
pub(crate) struct SessionEntry {
    /// Session id (also the journal file stem).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Normalized creation config.
    pub config: SessionConfig,
    path: PathBuf,
    slot: Mutex<Slot>,
}

impl SessionEntry {
    /// Lock the session. A lock poisoned by a panicking request is an
    /// invariant error (HTTP 500) for this session alone.
    pub(crate) fn lock(&self) -> Result<MutexGuard<'_, Slot>, Error> {
        self.slot.lock().map_err(|_| {
            Error::invariant(format!(
                "session {} was poisoned by a panicking request",
                self.id
            ))
        })
    }

    fn view(&self, status: SessionStatus) -> StatusView {
        StatusView {
            id: self.id.clone(),
            tenant: self.tenant.clone(),
            oracle: self.config.oracle.clone(),
            status,
        }
    }

    fn status_view(&self) -> Result<StatusView, Error> {
        let status = self.lock()?.status();
        Ok(self.view(status))
    }
}

/// The multi-tenant session store.
pub struct Store {
    state_dir: PathBuf,
    sessions: Mutex<BTreeMap<String, Arc<SessionEntry>>>,
    tenants: Mutex<Vec<String>>,
    metrics: ShardedMetrics,
    tasks: TaskCache,
    next_id: AtomicU64,
}

impl Store {
    /// Open (or create) a store over `state_dir`, registering every
    /// session journal found there.
    pub fn open(state_dir: impl AsRef<Path>) -> Result<Store, Error> {
        let state_dir = state_dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&state_dir).map_err(Error::journal)?;
        let store = Store {
            state_dir: state_dir.clone(),
            sessions: Mutex::new(BTreeMap::new()),
            tenants: Mutex::new(Vec::new()),
            metrics: ShardedMetrics::new(MAX_TENANTS),
            tasks: TaskCache::new(),
            next_id: AtomicU64::new(0),
        };

        let mut paths: Vec<PathBuf> = std::fs::read_dir(&state_dir)
            .map_err(Error::journal)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        paths.sort();
        for path in paths {
            store.load(&path)?;
        }
        Ok(store)
    }

    /// Register one session from its journal: a finished one from its
    /// `create` and `result` records, any other by replaying it.
    fn load(&self, path: &Path) -> Result<(), Error> {
        let reader = JournalReader::load(path).map_err(Error::journal)?;
        let Some(create) = reader.records::<CreateRecord>().into_iter().next() else {
            // Empty or headerless journal: a crash before the create
            // record landed. Nothing to resume.
            return Ok(());
        };
        let config = create.config;
        let shard = self.tenant_shard(&config.tenant)?;
        let result = reader
            .lines()
            .last()
            .and_then(|line| serde_json::from_str::<ResultRecord>(line).ok())
            .filter(|r| r.kind == "result");
        let slot = match result {
            Some(result) => Slot::Finished(result.status),
            None => {
                let mut session = Box::new(self.replay(&config, &reader, shard, path)?);
                // Step once, as the next request would: the session shows
                // the ticket it waits on, and one whose result record was
                // torn finishes and is settled below. A step error
                // surfaces again at the session's next request.
                let _ = session.step();
                Slot::Live {
                    session,
                    // Re-open truncates any torn tail so future appends
                    // are clean.
                    journal: Journal::append_to(path).map_err(Error::journal)?,
                }
            }
        };

        if let Some(n) = create
            .id
            .strip_prefix('s')
            .and_then(|n| n.parse::<u64>().ok())
        {
            self.next_id.fetch_max(n + 1, Ordering::SeqCst);
        }
        let entry = Arc::new(SessionEntry {
            id: create.id.clone(),
            tenant: config.tenant.clone(),
            config,
            path: path.to_path_buf(),
            slot: Mutex::new(slot),
        });
        self.settle(&entry, &mut *entry.lock()?)?;
        self.sessions.lock().unwrap().insert(create.id, entry);
        Ok(())
    }

    /// Build the session `config` describes and re-submit the label
    /// chunks `reader` holds, publishing its rounds to `metrics`.
    fn replay(
        &self,
        config: &SessionConfig,
        reader: &JournalReader,
        metrics: Arc<MetricsRegistry>,
        path: &Path,
    ) -> Result<AnySession, Error> {
        let mut session = config.build_session(&self.tasks, metrics)?;
        for record in reader.records::<LabelsRecord>() {
            session.step()?;
            session.submit(record.ticket, &record.labels).map_err(|e| {
                Error::invariant(format!(
                    "journal {} replays a chunk the pipeline rejects: {e}",
                    path.display()
                ))
            })?;
        }
        Ok(session)
    }

    /// A finished session rebuilt from its journal and stepped to done,
    /// for the requests that need its label history. Its rounds publish
    /// to a registry of their own, so `/metrics` does not count them
    /// twice; the caller drops it after answering.
    fn rebuild(&self, entry: &SessionEntry) -> Result<AnySession, Error> {
        let reader = JournalReader::load(&entry.path).map_err(Error::journal)?;
        let metrics = Arc::new(MetricsRegistry::new());
        let mut session = self.replay(&entry.config, &reader, metrics, &entry.path)?;
        match session.step()? {
            SessionStep::Done => Ok(session),
            SessionStep::AwaitingLabels => Err(Error::invariant(format!(
                "journal {} ends in a result record but replays to an unfinished session",
                entry.path.display()
            ))),
        }
    }

    /// Shrink a session that has reached done to its summary: journal
    /// the `result` record, count the completion, and drop the session
    /// and its journal file. A no-op for unfinished and already finished
    /// sessions, so every step to done passes through here exactly once.
    fn settle(&self, entry: &SessionEntry, slot: &mut Slot) -> Result<(), Error> {
        let Slot::Live { session, journal } = slot else {
            return Ok(());
        };
        let status = session.status();
        if !status.done {
            return Ok(());
        }
        journal
            .append(&ResultRecord {
                kind: "result".into(),
                status: status.clone(),
            })
            .map_err(Error::journal)?;
        self.tenant_shard(&entry.tenant)?
            .counter_add("serve.sessions.completed", 1);
        *slot = Slot::Finished(status);
        Ok(())
    }

    /// The metrics shard for `tenant`, allocating one for first-seen
    /// names. A full tenant table is a 503 ([`Error::busy`]).
    pub(crate) fn tenant_shard(&self, tenant: &str) -> Result<Arc<MetricsRegistry>, Error> {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(i) = tenants.iter().position(|t| t == tenant) {
            return Ok(self.metrics.shard_handle(i));
        }
        if tenants.len() >= MAX_TENANTS {
            return Err(Error::busy(format!(
                "tenant table is full ({MAX_TENANTS} tenants)"
            )));
        }
        tenants.push(tenant.to_string());
        Ok(self.metrics.shard_handle(tenants.len() - 1))
    }

    /// Create a session from a request config: resolve, journal the
    /// `create` record, register. Returns the id and initial status.
    pub fn create_session(&self, config: SessionConfig) -> Result<StatusView, Error> {
        let config = config.normalized();
        let shard = self.tenant_shard(&config.tenant)?;
        // Only new requests meet the cell rules: `load` replays without
        // them, so a journal written before a rule existed still boots.
        let (def, model, _) = config.resolve()?;
        resolve_cell(def.kind(), model, &config.strategy)?;
        let session = config.build_session(&self.tasks, Arc::clone(&shard))?;

        let id = format!("s{:06}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let path = self.state_dir.join(format!("{id}.jsonl"));
        let journal = Journal::create(&path).map_err(Error::journal)?;
        journal
            .append(&CreateRecord {
                kind: "create".into(),
                id: id.clone(),
                config: config.clone(),
            })
            .map_err(Error::journal)?;
        shard.counter_add("serve.sessions.created", 1);

        let view = StatusView {
            id: id.clone(),
            tenant: config.tenant.clone(),
            oracle: config.oracle.clone(),
            status: session.status(),
        };
        let entry = Arc::new(SessionEntry {
            id: id.clone(),
            tenant: config.tenant.clone(),
            config,
            path,
            slot: Mutex::new(Slot::Live {
                session: Box::new(session),
                journal,
            }),
        });
        self.sessions.lock().unwrap().insert(id, entry);
        Ok(view)
    }

    pub(crate) fn entry(&self, id: &str) -> Result<Arc<SessionEntry>, Error> {
        self.sessions
            .lock()
            .unwrap()
            .get(id)
            .cloned()
            .ok_or_else(|| Error::not_found("session", id))
    }

    /// Number of sessions the store holds, finished ones included.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Status of every session, in id order.
    pub(crate) fn list(&self) -> Result<Vec<StatusView>, Error> {
        let entries: Vec<Arc<SessionEntry>> =
            self.sessions.lock().unwrap().values().cloned().collect();
        entries.iter().map(|e| e.status_view()).collect()
    }

    /// Status of one session.
    pub fn status(&self, id: &str) -> Result<StatusView, Error> {
        self.entry(id)?.status_view()
    }

    /// Get (or compute) the session's next label batch. Advances the
    /// pipeline when no ticket is outstanding; concurrent callers
    /// coalesce on the session mutex and share the one computed ticket.
    pub fn next_batch(&self, id: &str) -> Result<BatchView, Error> {
        let entry = self.entry(id)?;
        let mut slot = entry.lock()?;
        let Slot::Live { session, .. } = &mut *slot else {
            return Ok(BatchView::done());
        };
        session.step()?;
        let view = BatchView::of(session);
        self.settle(&entry, &mut slot)?;
        Ok(view)
    }

    /// Submit a chunk of labels against a ticket: apply through the
    /// pipeline's first-write-wins semantics, then journal the accepted
    /// chunk. Labels for a finished session are checked against a
    /// session rebuilt from its journal; it never accepts any.
    pub fn submit(
        &self,
        id: &str,
        ticket: Ticket,
        labels: Vec<(SampleId, LabelValue)>,
    ) -> Result<SubmitOutcome, Error> {
        let entry = self.entry(id)?;
        let mut slot = entry.lock()?;
        let outcome = match &mut *slot {
            Slot::Live { session, journal } => {
                // Make sure the ticket the client is answering has
                // actually been issued on this side.
                session.step()?;
                let outcome = session.submit(ticket, &labels);
                if let Ok(o) = &outcome {
                    if o.accepted > 0 {
                        journal
                            .append(&LabelsRecord {
                                kind: "labels".into(),
                                ticket,
                                labels,
                            })
                            .map_err(Error::journal)?;
                    }
                }
                self.settle(&entry, &mut slot)?;
                outcome?
            }
            Slot::Finished(_) => {
                drop(slot);
                self.rebuild(&entry)?.submit(ticket, &labels)?
            }
        };
        let shard = self.tenant_shard(&entry.tenant)?;
        shard.counter_add("serve.labels.accepted", outcome.accepted as u64);
        shard.counter_add("serve.labels.duplicate", outcome.duplicates as u64);
        Ok(outcome)
    }

    /// Drive a simulated-oracle session to completion, journaling every
    /// chunk as if a client had submitted it. External-oracle sessions
    /// are refused with a conflict: their labels must arrive over HTTP.
    pub fn run_to_completion(&self, id: &str) -> Result<StatusView, Error> {
        let entry = self.entry(id)?;
        if !entry.config.is_simulated() {
            return Err(Error::conflict(format!(
                "session {id} has an external oracle; labels must be submitted, not simulated"
            )));
        }
        let mut slot = entry.lock()?;
        if let Slot::Live { session, journal } = &mut *slot {
            while session.step()? == SessionStep::AwaitingLabels {
                let (ticket, labels) = session
                    .answer_from_hidden()
                    .ok_or_else(|| Error::invariant("awaiting ticket with no hidden labels"))?;
                let outcome = session.submit(ticket, &labels)?;
                if outcome.accepted > 0 {
                    journal
                        .append(&LabelsRecord {
                            kind: "labels".into(),
                            ticket,
                            labels,
                        })
                        .map_err(Error::journal)?;
                }
            }
        }
        self.settle(&entry, &mut slot)?;
        Ok(entry.view(slot.status()))
    }

    /// The session's snapshot JSON (the byte-identity witness used by
    /// the crash/resume tests).
    pub fn snapshot_json(&self, id: &str) -> Result<String, Error> {
        let entry = self.entry(id)?;
        let slot = entry.lock()?;
        match &*slot {
            Slot::Live { session, .. } => Ok(session.snapshot_json()),
            Slot::Finished(_) => {
                drop(slot);
                Ok(self.rebuild(&entry)?.snapshot_json())
            }
        }
    }

    /// Render every tenant's metrics shard as one text block.
    pub(crate) fn metrics_text(&self) -> String {
        let tenants = self.tenants.lock().unwrap().clone();
        let mut out = String::new();
        for (i, tenant) in tenants.iter().enumerate() {
            out.push_str(&format!("# tenant {tenant}\n"));
            for line in self.metrics.shard(i).render().lines() {
                out.push_str(&format!("{tenant}.{line}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(tenant: &str, oracle: &str) -> SessionConfig {
        SessionConfig {
            tenant: tenant.into(),
            dataset: "mr".into(),
            strategy: "entropy".into(),
            scale: 0.05,
            batch_size: 5,
            rounds: 2,
            init_labeled: 10,
            oracle: oracle.into(),
            ..SessionConfig::default()
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("histal-serve-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_submit_and_reopen() {
        let dir = tmp_dir("reopen");
        let snapshot_before;
        let id;
        {
            let store = Store::open(&dir).unwrap();
            let view = store
                .create_session(tiny_config("acme", "external"))
                .unwrap();
            id = view.id.clone();
            let batch = store.next_batch(&id).unwrap();
            assert_eq!(batch.state, "awaiting");
            // Answer only part of the batch: the partial state must
            // survive the reopen.
            let labels: Vec<(SampleId, LabelValue)> = batch.indices[..2]
                .iter()
                .map(|&i| (i, LabelValue::Class(0)))
                .collect();
            let outcome = store.submit(&id, batch.ticket, labels).unwrap();
            assert_eq!(outcome.accepted, 2);
            assert!(!outcome.batch_complete);
            snapshot_before = store.snapshot_json(&id).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.snapshot_json(&id).unwrap(), snapshot_before);
        let status = store.status(&id).unwrap();
        assert_eq!(status.tenant, "acme");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulated_run_completes_and_external_run_refused() {
        let dir = tmp_dir("run");
        let store = Store::open(&dir).unwrap();
        let sim = store
            .create_session(tiny_config("t1", "simulated"))
            .unwrap();
        let done = store.run_to_completion(&sim.id).unwrap();
        assert!(done.status.done);
        let ext = store.create_session(tiny_config("t1", "external")).unwrap();
        let err = store.run_to_completion(&ext.id).unwrap_err();
        assert_eq!(err.kind.http_status(), 409);
        let metrics = store.metrics_text();
        assert!(
            metrics.contains("t1.serve.sessions.completed = 1"),
            "{metrics}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Drive an external session to done, one full chunk per ticket.
    fn drive_to_done(store: &Store, id: &str) {
        loop {
            let batch = store.next_batch(id).unwrap();
            if batch.state == "done" {
                return;
            }
            let labels = batch
                .indices
                .iter()
                .map(|&i| (i, LabelValue::Class(i % 2)))
                .collect();
            store.submit(id, batch.ticket, labels).unwrap();
        }
    }

    /// Complete lines of a journal, and how many are `result` records.
    fn journal_lines(path: &Path) -> (Vec<String>, usize) {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.ends_with('\n'), "journal ends in a complete line");
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let results = lines
            .iter()
            .filter(|l| l.starts_with("{\"kind\":\"result\""))
            .count();
        (lines, results)
    }

    /// Files this process holds open at `path`.
    #[cfg(target_os = "linux")]
    fn open_handles(path: &Path) -> usize {
        let path = path.canonicalize().unwrap();
        std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
            .filter(|target| *target == path)
            .count()
    }

    #[test]
    fn finished_sessions_hold_no_live_session_or_journal() {
        let dir = tmp_dir("compact");
        let store = Store::open(&dir).unwrap();
        let sim = store
            .create_session(tiny_config("t1", "simulated"))
            .unwrap()
            .id;
        let ext = store
            .create_session(tiny_config("t1", "external"))
            .unwrap()
            .id;
        let entry = store.entry(&ext).unwrap();
        assert!(matches!(*entry.lock().unwrap(), Slot::Live { .. }));
        #[cfg(target_os = "linux")]
        assert_eq!(open_handles(&entry.path), 1);

        store.run_to_completion(&sim).unwrap();
        drive_to_done(&store, &ext);
        for id in [&sim, &ext] {
            let entry = store.entry(id).unwrap();
            assert!(
                matches!(*entry.lock().unwrap(), Slot::Finished(_)),
                "{id} still holds a live session"
            );
            #[cfg(target_os = "linux")]
            assert_eq!(open_handles(&entry.path), 0, "{id} keeps its journal open");
            let (lines, results) = journal_lines(&entry.path);
            assert_eq!(results, 1);
            assert!(lines.last().unwrap().starts_with("{\"kind\":\"result\""));
        }
        // Later requests answer from the summary and journal nothing.
        store.next_batch(&ext).unwrap();
        store.run_to_completion(&sim).unwrap();
        assert_eq!(journal_lines(&store.entry(&sim).unwrap().path).1, 1);
        assert_eq!(journal_lines(&store.entry(&ext).unwrap().path).1, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_result_record_is_written_again() {
        let dir = tmp_dir("torn-result");
        let (id, status, snapshot) = {
            let store = Store::open(&dir).unwrap();
            let id = store
                .create_session(tiny_config("acme", "external"))
                .unwrap()
                .id;
            drive_to_done(&store, &id);
            let status = serde_json::to_string(&store.status(&id).unwrap()).unwrap();
            let snapshot = store.snapshot_json(&id).unwrap();
            (id, status, snapshot)
        };
        let full = std::fs::read(dir.join(format!("{id}.jsonl"))).unwrap();
        let (lines, _) = journal_lines(&dir.join(format!("{id}.jsonl")));
        let result_len = lines.last().unwrap().len() + 1;

        // Inside the result record, just before its newline, and intact.
        for cut in [full.len() - result_len / 2, full.len() - 1, full.len()] {
            let case_dir = tmp_dir(&format!("torn-result-{cut}"));
            std::fs::create_dir_all(&case_dir).unwrap();
            let path = case_dir.join(format!("{id}.jsonl"));
            std::fs::write(&path, &full[..cut]).unwrap();

            let store = Store::open(&case_dir).unwrap();
            assert!(
                matches!(
                    *store.entry(&id).unwrap().lock().unwrap(),
                    Slot::Finished(_)
                ),
                "cut at byte {cut}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), full, "cut at byte {cut}");
            let reopened = serde_json::to_string(&store.status(&id).unwrap()).unwrap();
            assert_eq!(reopened, status, "cut at byte {cut}");
            assert_eq!(
                store.snapshot_json(&id).unwrap(),
                snapshot,
                "cut at byte {cut}"
            );
            assert_eq!(store.next_batch(&id).unwrap(), BatchView::done());
            assert_eq!(journal_lines(&path).1, 1);
            let _ = std::fs::remove_dir_all(&case_dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_session_is_not_found() {
        let dir = tmp_dir("404");
        let store = Store::open(&dir).unwrap();
        let err = store.next_batch("s999999").unwrap_err();
        assert_eq!(err.kind.http_status(), 404);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
