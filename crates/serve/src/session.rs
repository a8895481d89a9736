//! The wire-level label encoding of served sessions.
//!
//! A served [`AnySession`] labels classes (text) or tag sequences (NER);
//! [`LabelValue`] is one wire encoding for both and converts to and from
//! each. A label of the wrong shape is a 400 ([`ErrorKind::Spec`]), never
//! a panic.
//!
//! [`ErrorKind::Spec`]: histal_core::error::ErrorKind::Spec

use serde::{DeError, Deserialize, Serialize, Value};

pub use histal_bench::tasks::AnySession;
use histal_core::pipeline::Ticket;
use histal_core::pool::SampleId;

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

    /// `session`'s outstanding batch, shaped for the wire.
    pub fn of(session: &AnySession) -> BatchView {
        match session.pending() {
            Some(request) => BatchView {
                state: "awaiting".into(),
                ticket: request.ticket,
                indices: request.indices.clone(),
            },
            None => BatchView::done(),
        }
    }
}

impl TryFrom<LabelValue> for usize {
    type Error = &'static str;

    fn try_from(label: LabelValue) -> Result<usize, Self::Error> {
        match label {
            LabelValue::Class(c) => Ok(c),
            LabelValue::Tags(_) => Err("this session labels classes, got a tag sequence"),
        }
    }
}

impl TryFrom<LabelValue> for Vec<u16> {
    type Error = &'static str;

    fn try_from(label: LabelValue) -> Result<Vec<u16>, Self::Error> {
        match label {
            LabelValue::Tags(tags) => Ok(tags),
            LabelValue::Class(_) => Err("this session labels tag sequences, got a class"),
        }
    }
}

impl From<usize> for LabelValue {
    fn from(class: usize) -> LabelValue {
        LabelValue::Class(class)
    }
}

impl From<Vec<u16>> for LabelValue {
    fn from(tags: Vec<u16>) -> LabelValue {
        LabelValue::Tags(tags)
    }
}

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
