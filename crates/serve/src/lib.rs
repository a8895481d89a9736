//! # histal-serve — multi-tenant active-learning session service
//!
//! An HTTP service hosting many concurrent interactive AL sessions over
//! the `histal_core::live` request/fulfill pipeline. Each session is
//! configured with the same dataset/strategy token grammar the bench
//! grids use, issues ticketed label requests, absorbs out-of-order /
//! duplicate / partial label submissions, and journals every accepted
//! chunk so a `kill -9` + restart resumes byte-identically.
//!
//! Everything is built on `std` plus the workspace's vendored crates:
//! the HTTP layer is a deliberately small HTTP/1.1 subset over
//! `std::net::TcpListener`, and concurrency is a fixed thread pool —
//! see [`http`] and `executor`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use histal_serve::{Server, Store};
//!
//! let store = Arc::new(Store::open("/tmp/histal-serve").unwrap());
//! let server = Server::bind("127.0.0.1:8437", store, 8).unwrap();
//! server.run().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub(crate) mod config;
pub(crate) mod executor;
pub mod http;
pub(crate) mod server;
pub(crate) mod session;
pub(crate) mod store;

pub use config::{SessionConfig, TaskCache};
pub use server::{Server, SubmitRequest};
pub use session::{AnySession, BatchView, LabelValue};
pub use store::{StatusView, Store};
