//! A fault-tolerant resident job server for simulation campaigns.
//!
//! `aqs serve` keeps a simulator process warm and accepts jobs over a
//! dependency-free JSONL-over-TCP protocol (std [`std::net::TcpListener`]
//! only — the build container has no registry access). A fixed worker
//! pool drains a bounded queue; per-tenant quotas and queue caps shed load
//! with typed rejections instead of dropped connections.
//!
//! The robustness story leans on the engine's quantum-edge snapshots
//! ([`aqs_cluster::Sim::step_snapshot`]):
//!
//! * case jobs execute in quantum chunks, journaling a checksummed
//!   snapshot at every chunk edge (write-ahead, fsynced);
//! * a panic in a job is caught, isolated, and retried with exponential
//!   backoff — the server and every other job keep running;
//! * an attempt past its deadline stops at the next chunk edge, where the
//!   executor reads the clock, producing a typed `deadline_exceeded`
//!   failure;
//! * one client cannot exhaust the server: connection handlers, request
//!   line length and idle time are each bounded by a constant in
//!   [`server`], answered with typed rejections;
//! * after `kill -9`, startup replays the journal and resumes every
//!   in-flight case job from its last intact snapshot — the resumed run
//!   is bit-identical to an uninterrupted one, which the conformance
//!   oracle in `aqs-check` proves for every engine.
//!
//! Every request is a connection of its own, so the accept path is on
//! every `submit` and every `wait`: the accept thread blocks in `accept`
//! (no poll interval), and `shutdown` wakes it by connecting once to the
//! server's own address — loopback with the bound port when the listen
//! address is a wildcard. [`Server::join`] and [`Server::stop`] return
//! when every thread has been joined.
//!
//! See [`protocol`] for the wire format, [`journal`] for the on-disk
//! record framing, and [`server`] for the fault envelope.
//!
//! # Examples
//!
//! ```
//! use aqs_serve::{client, protocol, ServeConfig, Server};
//! use serde_json::Value;
//!
//! let mut cfg = ServeConfig::default();
//! cfg.journal = std::env::temp_dir().join("aqs-serve-doc.journal");
//! let _ = std::fs::remove_file(&cfg.journal);
//! let server = Server::start(cfg).unwrap();
//! let addr = server.addr().to_string();
//!
//! let resp = client::request(
//!     &addr,
//!     &protocol::obj(vec![
//!         ("op", Value::Str("submit".into())),
//!         ("workload", Value::Str("pingpong".into())),
//!         ("nodes", Value::U64(2)),
//!     ]),
//! )
//! .unwrap();
//! assert_eq!(protocol::get_bool(&resp, "ok"), Some(true));
//!
//! let job = protocol::get_u64(&resp, "job").unwrap();
//! let done = client::request(
//!     &addr,
//!     &protocol::obj(vec![
//!         ("op", Value::Str("wait".into())),
//!         ("job", Value::U64(job)),
//!     ]),
//! )
//! .unwrap();
//! assert_eq!(protocol::get_bool(&done, "ok"), Some(true));
//! server.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod jobs;
pub mod journal;
pub mod protocol;
pub mod server;

pub use jobs::{CaseJob, JobError, JobSpec, ScenarioJob};
pub use journal::Journal;
pub use protocol::RejectKind;
pub use server::{ServeConfig, Server};
