//! Structured errors for the active-learning session.
//!
//! [`Error`] pairs a machine-matchable [`ErrorKind`] with the tracing
//! span that was current when the error was raised, so failure records
//! in logs and the run journal can be correlated with the span tree the
//! subscriber saw. Construct with `Error::new` (captures the current
//! span automatically) and match on [`Error::kind`].

use std::fmt;

use histal_obs::trace::{current_span_id, SpanId};

/// What went wrong, independent of where.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorKind {
    /// The base strategy needs a capability (`egl`, `bald`, `mnlp`, …) the
    /// model's [`crate::eval::SampleEval`] left unset.
    MissingCapability {
        /// Strategy name, e.g. `"EGL"`.
        strategy: &'static str,
        /// Missing field, e.g. `"egl"`.
        field: &'static str,
    },
    /// The margin strategy needs at least two classes of probabilities.
    NotEnoughClasses {
        /// Number of classes the eval actually carried.
        got: usize,
    },
    /// The run journal could not be written; the run aborts rather than
    /// continue with a checkpoint file that would lie on resume.
    Journal {
        /// Underlying I/O or serialization failure, rendered.
        message: String,
    },
    /// A name lookup in a registry (strategy, dataset, metric, …)
    /// failed. Carries the valid names so the rendered message tells the
    /// user what would have worked.
    UnknownName {
        /// What kind of name was being resolved, e.g. `"strategy"`.
        what: &'static str,
        /// The token that failed to resolve.
        token: String,
        /// The names the registry would have accepted.
        valid: Vec<String>,
    },
    /// An experiment spec was structurally invalid (bad parameter,
    /// inconsistent dataset kinds, unsupported combination, …).
    Spec {
        /// Human-readable description of the problem.
        message: String,
    },
    /// A learned-selector artifact (`HLRN1`) could not be read, written
    /// or used: I/O, JSON, magic, version or selector-shape failures.
    Artifact {
        /// Human-readable description naming the file.
        message: String,
    },
    /// A harness invariant did not hold (e.g. a merged metrics registry
    /// missing a counter every run increments). Distinct from [`Self::Spec`]:
    /// the input was fine, the runtime state was not.
    Invariant {
        /// Human-readable description of the violated invariant.
        message: String,
    },
    /// A grid cell failed: the underlying failure plus the cell key
    /// (`{experiment}/{dataset}/{strategy}/r{repeat}`) so a failing grid
    /// reports *which* spec cell died.
    Cell {
        /// The journal-style cell key.
        cell: String,
        /// The underlying failure.
        source: Box<ErrorKind>,
    },
    /// A named entity (session, ticket, sample, …) does not exist.
    /// Service-facing: maps to HTTP 404.
    NotFound {
        /// What kind of entity was looked up, e.g. `"session"`.
        what: &'static str,
        /// The key that failed to resolve.
        key: String,
    },
    /// A request contradicts established state (a duplicate label with a
    /// different value, a submit against the wrong ticket, a snapshot
    /// restored onto a different configuration). Service-facing: maps to
    /// HTTP 409.
    Conflict {
        /// Human-readable description of the contradiction.
        message: String,
    },
    /// The system cannot take the request right now (shutting down,
    /// admission control); retrying later may succeed. Service-facing:
    /// maps to HTTP 503.
    Busy {
        /// Human-readable description; should say when to retry.
        message: String,
    },
}

impl ErrorKind {
    /// The single [`ErrorKind`] → HTTP status mapping. Service frontends
    /// (`histal-serve`) must derive every response status from this —
    /// never ad hoc per handler — so a given failure kind always renders
    /// as the same status. Kinds describing bad *input* map to 4xx,
    /// kinds describing internal failure map to 5xx, and [`Self::Cell`]
    /// defers to the failure it wraps.
    pub fn http_status(&self) -> u16 {
        match self {
            Self::NotFound { .. } | Self::UnknownName { .. } => 404,
            Self::Conflict { .. } => 409,
            Self::Busy { .. } => 503,
            Self::MissingCapability { .. }
            | Self::NotEnoughClasses { .. }
            | Self::Spec { .. }
            | Self::Artifact { .. } => 400,
            Self::Journal { .. } | Self::Invariant { .. } => 500,
            Self::Cell { source, .. } => source.http_status(),
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingCapability { strategy, field } => write!(
                f,
                "strategy {strategy} requires the model to provide `{field}` \
                 (enable it in EvalCaps / the model configuration)"
            ),
            Self::NotEnoughClasses { got } => {
                write!(
                    f,
                    "margin strategy needs ≥ 2 class probabilities, got {got}"
                )
            }
            Self::Journal { message } => write!(f, "run journal write failed: {message}"),
            Self::UnknownName { what, token, valid } => {
                write!(
                    f,
                    "unknown {what} `{token}` — valid {what}s: {}",
                    valid.join(", ")
                )
            }
            Self::Spec { message } => write!(f, "invalid experiment spec: {message}"),
            Self::Artifact { message } => write!(f, "selector artifact: {message}"),
            Self::Invariant { message } => write!(f, "harness invariant violated: {message}"),
            Self::Cell { cell, source } => write!(f, "cell {cell}: {source}"),
            Self::NotFound { what, key } => write!(f, "{what} `{key}` not found"),
            Self::Conflict { message } => write!(f, "conflict: {message}"),
            Self::Busy { message } => write!(f, "busy: {message}"),
        }
    }
}

/// A session error: an [`ErrorKind`] plus the tracing span (if any) that
/// was active when it was raised.
#[derive(Debug, Clone)]
pub struct Error {
    /// The failure, matchable.
    pub kind: ErrorKind,
    /// Id of the innermost span open on this thread at construction time
    /// (`None` when tracing was disabled or no span was open).
    pub span: Option<SpanId>,
}

impl Error {
    /// Wrap `kind`, capturing the current tracing span as context.
    pub(crate) fn new(kind: ErrorKind) -> Error {
        Error {
            kind,
            span: current_span_id(),
        }
    }

    /// Shorthand for a [`ErrorKind::MissingCapability`] error.
    pub(crate) fn missing_capability(strategy: &'static str, field: &'static str) -> Error {
        Error::new(ErrorKind::MissingCapability { strategy, field })
    }

    /// Shorthand for a [`ErrorKind::Journal`] error.
    pub fn journal(err: impl fmt::Display) -> Error {
        Error::new(ErrorKind::Journal {
            message: err.to_string(),
        })
    }

    /// Shorthand for an [`ErrorKind::UnknownName`] error.
    pub fn unknown_name(
        what: &'static str,
        token: impl Into<String>,
        valid: impl IntoIterator<Item = impl Into<String>>,
    ) -> Error {
        Error::new(ErrorKind::UnknownName {
            what,
            token: token.into(),
            valid: valid.into_iter().map(Into::into).collect(),
        })
    }

    /// Shorthand for an [`ErrorKind::Spec`] error.
    pub fn spec(message: impl fmt::Display) -> Error {
        Error::new(ErrorKind::Spec {
            message: message.to_string(),
        })
    }

    /// Shorthand for an [`ErrorKind::Artifact`] error.
    pub(crate) fn artifact(message: impl fmt::Display) -> Error {
        Error::new(ErrorKind::Artifact {
            message: message.to_string(),
        })
    }

    /// Shorthand for an [`ErrorKind::Invariant`] error.
    pub fn invariant(message: impl fmt::Display) -> Error {
        Error::new(ErrorKind::Invariant {
            message: message.to_string(),
        })
    }

    /// Shorthand for an [`ErrorKind::NotFound`] error.
    pub fn not_found(what: &'static str, key: impl Into<String>) -> Error {
        Error::new(ErrorKind::NotFound {
            what,
            key: key.into(),
        })
    }

    /// Shorthand for an [`ErrorKind::Conflict`] error.
    pub fn conflict(message: impl fmt::Display) -> Error {
        Error::new(ErrorKind::Conflict {
            message: message.to_string(),
        })
    }

    /// Shorthand for an [`ErrorKind::Busy`] error.
    pub fn busy(message: impl fmt::Display) -> Error {
        Error::new(ErrorKind::Busy {
            message: message.to_string(),
        })
    }

    /// Wrap this error with the grid-cell key it was raised in,
    /// preserving the original span context.
    pub fn in_cell(self, cell: impl Into<String>) -> Error {
        Error {
            kind: ErrorKind::Cell {
                cell: cell.into(),
                source: Box::new(self.kind),
            },
            span: self.span.or_else(histal_obs::trace::current_span_id),
        }
    }
}

impl From<ErrorKind> for Error {
    fn from(kind: ErrorKind) -> Error {
        Error::new(kind)
    }
}

/// Two errors are equal when their kinds are — the span is diagnostic
/// context, not identity (the same failure in two runs carries two
/// different span ids).
impl PartialEq for Error {
    fn eq(&self, other: &Error) -> bool {
        self.kind == other.kind
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.kind.fmt(f)?;
        if let Some(span) = self.span {
            write!(f, " (in span #{})", span.0)?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = Error::missing_capability("EGL", "egl");
        let msg = e.to_string();
        assert!(msg.contains("EGL") && msg.contains("egl"));
    }

    #[test]
    fn error_trait_impl() {
        let e: Box<dyn std::error::Error> =
            Box::new(Error::new(ErrorKind::NotEnoughClasses { got: 1 }));
        assert!(e.to_string().contains("got 1"));
    }

    #[test]
    fn equality_ignores_span_context() {
        let a = Error {
            kind: ErrorKind::NotEnoughClasses { got: 1 },
            span: None,
        };
        let b = Error {
            kind: ErrorKind::NotEnoughClasses { got: 1 },
            span: Some(SpanId(7)),
        };
        assert_eq!(a, b);
        assert_ne!(
            a,
            Error {
                kind: ErrorKind::NotEnoughClasses { got: 2 },
                span: None
            }
        );
    }

    #[test]
    fn captures_enclosing_span() {
        use histal_obs::trace::{subscriber_scope, CollectingSubscriber, Level};
        use std::sync::Arc;
        let sub = Arc::new(CollectingSubscriber::new());
        let _guard = subscriber_scope(sub);
        let _span = histal_obs::span!(Level::Info, "error.ctx");
        let e = Error::missing_capability("BALD", "bald");
        assert_eq!(e.span, _span.id());
        assert!(e.to_string().contains("in span #"));
    }
}
