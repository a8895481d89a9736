//! Experiment harness for the histal reproduction.
//!
//! Each table and figure of the paper's evaluation section has one
//! experiment function here, driven by the `histal-experiments` binary.
//! `DESIGN.md` maps experiment ids (E1–E10) to these modules; see
//! `EXPERIMENTS.md` for recorded paper-vs-measured outcomes.

pub mod executor;
pub mod experiments;
pub mod journal;
pub mod plot;
pub mod registry;
pub mod report;
pub mod scaling;
pub mod scheduler;
pub mod spec;
pub mod tasks;
pub mod transfer;

pub use tasks::{NerTask, Scale, TextTask};
