//! Type-erased served sessions and the wire-level label encoding.
//!
//! The core [`Session`](histal_core::live::Session) is generic over the
//! model, so its label type differs per task family (class index for
//! text, tag sequence for NER). HTTP clients need one encoding for
//! both: [`LabelValue`] is that sum type — a bare integer or a sequence
//! of integers — and [`AnySession`] is the enum that erases the model
//! parameter and converts at the boundary. A label of the wrong shape
//! for the session's task is a 400 ([`ErrorKind::Spec`]), never a
//! panic.
//!
//! [`ErrorKind::Spec`]: histal_core::error::ErrorKind::Spec

use serde::{DeError, Deserialize, Serialize, Value};

use histal_core::error::Error;
use histal_core::live::{Session, SessionStatus, SessionStep, SubmitOutcome};
use histal_core::pipeline::{LabelResponse, Ticket};
use histal_core::pool::SampleId;
use histal_models::{CrfTagger, TextClassifier};

/// A label as it travels over the wire: a class index (text tasks) or a
/// per-token tag sequence (NER tasks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelValue {
    /// Class index, e.g. `1`.
    Class(usize),
    /// Tag sequence, e.g. `[0, 3, 3, 0]`.
    Tags(Vec<u16>),
}

impl Serialize for LabelValue {
    fn to_value(&self) -> Value {
        match self {
            LabelValue::Class(c) => Value::U64(*c as u64),
            LabelValue::Tags(tags) => {
                Value::Seq(tags.iter().map(|&t| Value::U64(t as u64)).collect())
            }
        }
    }
}

impl Deserialize for LabelValue {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        fn int(v: &Value) -> Option<u64> {
            match v {
                Value::U64(x) => Some(*x),
                Value::I64(x) if *x >= 0 => Some(*x as u64),
                _ => None,
            }
        }
        if let Some(c) = int(v) {
            return Ok(LabelValue::Class(c as usize));
        }
        if let Some(items) = v.as_seq() {
            let tags = items
                .iter()
                .map(|i| {
                    int(i)
                        .and_then(|x| u16::try_from(x).ok())
                        .ok_or_else(|| DeError::custom("tag must be an integer in u16 range"))
                })
                .collect::<Result<Vec<u16>, _>>()?;
            return Ok(LabelValue::Tags(tags));
        }
        Err(DeError::custom(
            "label must be a class index or a tag sequence",
        ))
    }
}

/// The outstanding work of a session, as served to clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchView {
    /// `"awaiting"` (labels wanted) or `"done"` (run complete).
    pub state: String,
    /// Ticket to echo back in submissions (0 when done).
    #[serde(default)]
    pub ticket: Ticket,
    /// Pool ids to label (empty when done).
    #[serde(default)]
    pub indices: Vec<SampleId>,
}

impl BatchView {
    /// The batch of a finished session: nothing left to label.
    pub fn done() -> BatchView {
        BatchView {
            state: "done".into(),
            ticket: 0,
            indices: Vec::new(),
        }
    }
}

/// A served session with the model parameter erased: text-classification
/// sessions carry class labels, NER sessions tag sequences.
pub enum AnySession {
    /// Logistic text classifier over class labels.
    Text(Session<TextClassifier>),
    /// CRF tagger over tag-sequence labels.
    Ner(Session<CrfTagger>),
}

impl AnySession {
    /// Advance as far as labels allow; see
    /// [`Session::step`](histal_core::live::Session::step).
    pub fn step(&mut self) -> Result<SessionStep, Error> {
        match self {
            AnySession::Text(s) => s.step(),
            AnySession::Ner(s) => s.step(),
        }
    }

    /// The outstanding batch, shaped for the wire.
    pub fn batch_view(&self) -> BatchView {
        let pending = match self {
            AnySession::Text(s) => s.pending().cloned(),
            AnySession::Ner(s) => s.pending().cloned(),
        };
        match pending {
            Some(request) => BatchView {
                state: "awaiting".into(),
                ticket: request.ticket,
                indices: request.indices,
            },
            None => BatchView::done(),
        }
    }

    /// Cheap serializable status.
    pub fn status(&self) -> SessionStatus {
        match self {
            AnySession::Text(s) => s.status(),
            AnySession::Ner(s) => s.status(),
        }
    }

    /// Submit wire labels, converting to the session's label type. A
    /// label of the wrong shape is a spec error (HTTP 400) before any
    /// state changes.
    pub fn submit(
        &mut self,
        ticket: Ticket,
        labels: &[(SampleId, LabelValue)],
    ) -> Result<SubmitOutcome, Error> {
        match self {
            AnySession::Text(s) => {
                let labels = labels
                    .iter()
                    .map(|(id, label)| match label {
                        LabelValue::Class(c) => Ok((*id, *c)),
                        LabelValue::Tags(_) => Err(Error::spec(format!(
                            "sample {id}: this session labels classes, got a tag sequence"
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                s.submit(&LabelResponse { ticket, labels })
            }
            AnySession::Ner(s) => {
                let labels = labels
                    .iter()
                    .map(|(id, label)| match label {
                        LabelValue::Tags(tags) => Ok((*id, tags.clone())),
                        LabelValue::Class(_) => Err(Error::spec(format!(
                            "sample {id}: this session labels tag sequences, got a class"
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                s.submit(&LabelResponse { ticket, labels })
            }
        }
    }

    /// Answer the pending ticket from the session's hidden gold labels
    /// (simulated-oracle sessions), shaped for [`Self::submit`].
    pub fn answer_from_hidden(&self) -> Option<(Ticket, Vec<(SampleId, LabelValue)>)> {
        match self {
            AnySession::Text(s) => s.answer_from_hidden().map(|r| {
                (
                    r.ticket,
                    r.labels
                        .into_iter()
                        .map(|(id, c)| (id, LabelValue::Class(c)))
                        .collect(),
                )
            }),
            AnySession::Ner(s) => s.answer_from_hidden().map(|r| {
                (
                    r.ticket,
                    r.labels
                        .into_iter()
                        .map(|(id, tags)| (id, LabelValue::Tags(tags)))
                        .collect(),
                )
            }),
        }
    }

    /// The session's durable state rendered to JSON — the byte-identity
    /// witness the crash/resume tests compare.
    pub fn snapshot_json(&self) -> String {
        match self {
            AnySession::Text(s) => {
                serde_json::to_string(&s.snapshot()).expect("snapshot serializes")
            }
            AnySession::Ner(s) => {
                serde_json::to_string(&s.snapshot()).expect("snapshot serializes")
            }
        }
    }
}

// The store shares sessions across server threads behind a mutex; this
// fails to compile if a pipeline stage loses its Send bound.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<AnySession>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_value_json_roundtrip() {
        for label in [LabelValue::Class(3), LabelValue::Tags(vec![0, 2, 2, 1])] {
            let json = serde_json::to_string(&label).unwrap();
            let back: LabelValue = serde_json::from_str(&json).unwrap();
            assert_eq!(back, label);
        }
        assert_eq!(serde_json::to_string(&LabelValue::Class(3)).unwrap(), "3");
        let seq: LabelValue = serde_json::from_str("[1,2]").unwrap();
        assert_eq!(seq, LabelValue::Tags(vec![1, 2]));
        assert!(serde_json::from_str::<LabelValue>("\"x\"").is_err());
        assert!(serde_json::from_str::<LabelValue>("[70000]").is_err());
    }

    #[test]
    fn batch_view_roundtrip() {
        let view = BatchView {
            state: "awaiting".into(),
            ticket: 4,
            indices: vec![9, 1, 5],
        };
        let json = serde_json::to_string(&view).unwrap();
        assert_eq!(serde_json::from_str::<BatchView>(&json).unwrap(), view);
    }
}
