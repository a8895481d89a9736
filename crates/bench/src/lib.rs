//! Experiment harness for the histal reproduction.
//!
//! Each table and figure of the paper's evaluation section is one row
//! of the `histal-experiments` command table ([`commands`]); most rows
//! are checked-in `specs/*.json` grids run by the [`executor`].
//! `DESIGN.md` maps experiment ids (E1–E10) to these modules; see
//! `EXPERIMENTS.md` for recorded paper-vs-measured outcomes.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod commands;
pub mod executor;
pub mod experiments;
pub mod journal;
pub(crate) mod plot;
pub mod registry;
pub(crate) mod report;
mod scaling;
pub(crate) mod scheduler;
pub mod spec;
pub mod tasks;
