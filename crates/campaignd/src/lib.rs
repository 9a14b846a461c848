//! `campaignd` — a campaign *server*: durable job queue, fsync'd store and
//! std-only HTTP/1.1 API over the deterministic campaign engine.
//!
//! The one-shot `campaign` CLI runs a [`harness::CampaignSpec`] to
//! completion in a single process; this crate turns the same specs into
//! durable jobs that survive crashes and restarts:
//!
//! - [`store`] — an append-only, fsync'd filesystem store keyed by spec
//!   fingerprint, with atomic-rename writes and a replay-on-startup
//!   recovery protocol.
//! - [`server`] — the job queue and its one runner thread, driving the job
//!   protocol (the crate-private `job` module, which does no I/O and is
//!   checked in every interleaving by its tests).  A job's pending
//!   cells run as at most eight contiguous batches, each through
//!   [`harness::Campaign::run_cells`] on the engine's threads, and are
//!   persisted before they become visible, so a server-run campaign is
//!   byte-identical (same summary, trajectory and report fingerprint) to the
//!   one-shot CLI run, and a SIGKILLed server resumes without re-executing
//!   any completed cell.
//! - [`http`] — the minimal hand-rolled HTTP/1.1 subset (the workspace is
//!   offline; no hyper) shared by server and client.
//! - [`api_types`] — typed request/response documents with JSON codecs
//!   built on `harness::json`.
//! - [`client`] — a typed client used by the `campaignctl` binary, the
//!   integration tests and CI.
//!
//! Everything is `std`-only; the only dependency is the harness itself.

#![warn(missing_docs)]

pub mod api_types;
pub mod client;
pub mod http;
mod job;
pub mod server;
pub mod store;

pub use api_types::{ApiError, JobList, JobState, JobStatus, QueryParams, QueryResponse, QueryRow};
pub use client::Client;
pub use server::{start, Config, Handle};
pub use store::{FsStore, Store, StoreError, StoredJob};

/// The campaign harness this server drives, re-exported for callers that
/// need spec/report types alongside the client.
pub use mobile_congest_harness as harness;
