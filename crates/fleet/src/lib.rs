//! Deterministic parallel execution runtime for the MAPLE workspace.
//!
//! Every experiment in this reproduction — the figure sweeps, the
//! differential oracle grid, the chaos grid, the property suites — is an
//! embarrassingly parallel matrix of independent `System` runs. This
//! crate is the shared runtime that executes such matrices across worker
//! threads without giving up the workspace's bit-exact reproducibility:
//!
//! - [`pool`]: a work-stealing thread-pool executor over `std::thread`
//!   scoped threads. A batch of jobs returns its results **in submission
//!   order, bit-identical regardless of worker count or completion
//!   order**; a panicking job becomes a typed [`pool::JobError`] without
//!   poisoning the pool, and every job carries wall-clock and placement
//!   accounting.
//! - [`digest`]: an in-tree FNV-1a/splitmix64 content digest used to form
//!   cache keys from full case descriptors (workload, dataset, variant,
//!   thread count, `SocConfig` timing parameters, fault schedule, schema
//!   version).
//! - [`cache`]: a content-addressed result cache on disk, rooted under
//!   the workspace `target/` directory (honoring `CARGO_TARGET_DIR`), so
//!   editing a configuration or timing table invalidates exactly the
//!   affected entries instead of requiring a manual cache wipe. Entries
//!   carry an integrity header: truncated or bit-rotted files are
//!   evicted misses, never panics.
//!
//! The crate is hermetic by design: std-only, zero dependencies (not even
//! on other workspace crates — `maple-sim` itself builds on it).
//!
//! # Determinism contract
//!
//! The pool guarantees submission-order collection; it is the *caller's*
//! side of the contract that each job is a pure function of its inputs
//! (the cycle-level simulator is deterministic by construction). Under
//! that contract, `MAPLE_JOBS=1`, `=2` and `=8` produce byte-identical
//! result vectors — asserted by `tests/fleet.rs` and by the
//! `scripts/ci.sh` determinism gate.

#![deny(missing_docs)]

pub mod cache;
pub mod digest;
pub mod pool;

pub use cache::ResultCache;
pub use digest::Digest;
pub use pool::{
    jobs_from_env, run_batch, Batch, BatchStats, FleetConfig, JobError, JobOutcome, JobStats,
};
