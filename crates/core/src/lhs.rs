//! The historical name of a shared learned selector.
//!
//! Everything learned-selector lives in [`crate::learned`]; this module
//! keeps only the [`LhsSelector`] alias for callers outside the
//! workspace that still import it from here.

use std::sync::Arc;

use crate::learned::LearnedSelector;

/// A trained selector shared between sessions (what
/// [`SessionBuilder::lhs`](crate::session::SessionBuilder::lhs) takes).
pub type LhsSelector = Arc<LearnedSelector>;
