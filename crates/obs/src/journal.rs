//! Crash-safe JSONL run journal.
//!
//! A journal is an append-only file of one JSON record per line. Writers
//! serialize a record, append it *as a single write*, and flush before
//! returning — after a crash the file contains every fully-appended
//! record plus at most one truncated tail line. The reader tolerates
//! exactly that failure mode: it stops at the first line that does not
//! parse, treating it (and anything after it) as the crash point.
//!
//! The journal itself is schema-agnostic: callers append any
//! `serde::Serialize` record carrying its own `kind` discriminator and
//! re-parse lines with [`JournalReader::records`]. The experiment
//! harness builds its cell/round schema on top (see
//! `histal-bench::journal`).

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

use serde::Serialize;

/// Append handle to a JSONL journal file. Clone-free: share via `Arc`.
/// Appends are serialized by an internal lock; each record is written and
/// flushed atomically with respect to other appenders.
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Create (truncate) a journal at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = File::create(&path)?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Open an existing journal for appending (resume mode). The file is
    /// first truncated back to its last complete line, so a crashed tail
    /// record cannot corrupt the records appended after it.
    pub fn append_to(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        truncate_to_last_complete_line(&path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Append one record as a single flushed line.
    pub fn append<T: Serialize>(&self, record: &T) -> std::io::Result<()> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::other(format!("journal record serialization: {e}")))?;
        debug_assert!(!line.contains('\n'), "records must be single-line");
        line.push('\n');
        let mut file = self.file.lock().unwrap();
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

/// Drop everything after the last `\n` in the file (a partially-written
/// crash tail). No-op on files ending in a newline or missing files.
fn truncate_to_last_complete_line(path: &Path) -> std::io::Result<()> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    match bytes.iter().rposition(|&b| b == b'\n') {
        Some(last) if last + 1 < bytes.len() => {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(last as u64 + 1)
        }
        Some(_) => Ok(()),
        None if bytes.is_empty() => Ok(()),
        None => {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(0)
        }
    }
}

/// Read side: the complete records of a (possibly crash-truncated)
/// journal.
pub struct JournalReader {
    lines: Vec<String>,
    /// `true` if the file ended in an incomplete or unparseable tail
    /// (i.e. the journal recorded a crash mid-append).
    pub truncated: bool,
}

impl JournalReader {
    /// Load `path`, keeping every line up to the first incomplete or
    /// non-JSON one.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<JournalReader> {
        let file = File::open(path.as_ref())?;
        let mut lines = Vec::new();
        let mut truncated = false;
        let mut reader = BufReader::new(file);
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = reader.read_line(&mut buf)?;
            if n == 0 {
                break;
            }
            if !buf.ends_with('\n') {
                // Partial tail line: crash point.
                truncated = true;
                break;
            }
            let line = buf.trim_end();
            if line.is_empty() {
                continue;
            }
            if serde_json::from_str::<serde::Value>(line).is_err() {
                // Corrupt line: treat as the crash point, drop the rest.
                truncated = true;
                break;
            }
            lines.push(line.to_string());
        }
        Ok(JournalReader { lines, truncated })
    }

    /// Raw complete lines, in append order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Parse every line as `T`, skipping lines of other record kinds
    /// (i.e. lines that fail to deserialize as `T`).
    pub fn records<T: serde::Deserialize>(&self) -> Vec<T> {
        self.lines
            .iter()
            .filter_map(|l| serde_json::from_str(l).ok())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Rec {
        kind: String,
        id: usize,
        value: f64,
    }

    fn rec(id: usize) -> Rec {
        Rec {
            kind: "rec".into(),
            id,
            value: id as f64 * 0.5,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("histal-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        let journal = Journal::create(&path).unwrap();
        for i in 0..5 {
            journal.append(&rec(i)).unwrap();
        }
        let reader = JournalReader::load(&path).unwrap();
        assert!(!reader.truncated);
        let records: Vec<Rec> = reader.records();
        assert_eq!(records, (0..5).map(rec).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped() {
        let path = tmp("truncated");
        let journal = Journal::create(&path).unwrap();
        for i in 0..4 {
            journal.append(&rec(i)).unwrap();
        }
        drop(journal);
        // Simulate a crash mid-append: chop the file inside the last line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let reader = JournalReader::load(&path).unwrap();
        assert!(reader.truncated);
        let records: Vec<Rec> = reader.records();
        assert_eq!(records, (0..3).map(rec).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_to_repairs_crash_tail() {
        let path = tmp("repair");
        {
            let journal = Journal::create(&path).unwrap();
            for i in 0..3 {
                journal.append(&rec(i)).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        {
            let journal = Journal::append_to(&path).unwrap();
            journal.append(&rec(99)).unwrap();
        }
        let reader = JournalReader::load(&path).unwrap();
        assert!(!reader.truncated);
        let records: Vec<Rec> = reader.records();
        assert_eq!(records, vec![rec(0), rec(1), rec(99)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_kinds_filter_by_type() {
        #[derive(Serialize, Deserialize)]
        struct Other {
            kind: String,
            flag: bool,
        }
        let path = tmp("mixed");
        let journal = Journal::create(&path).unwrap();
        journal.append(&rec(1)).unwrap();
        journal
            .append(&Other {
                kind: "other".into(),
                flag: true,
            })
            .unwrap();
        journal.append(&rec(2)).unwrap();
        let reader = JournalReader::load(&path).unwrap();
        let records: Vec<Rec> = reader.records();
        // `Other` lacks Rec's fields, so it is filtered out.
        assert_eq!(records.len(), 2);
        assert_eq!(reader.lines().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing() {
        let path = tmp("empty");
        Journal::create(&path).unwrap();
        let reader = JournalReader::load(&path).unwrap();
        assert!(reader.lines().is_empty() && !reader.truncated);
        std::fs::remove_file(&path).ok();
        assert!(JournalReader::load(&path).is_err());
        // append_to on a missing file behaves like create… of nothing:
        // the truncation pass is a no-op and open(append) fails cleanly.
        assert!(Journal::append_to(&path).is_err());
    }
}
