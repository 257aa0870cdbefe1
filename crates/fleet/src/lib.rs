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
//! - [`digest`]: an in-tree FNV-1a/splitmix64 content digest, stable
//!   across runs and hosts, behind the `metrics digest` lines of the
//!   serve and scale gates.
//!
//! The crate is hermetic by design: std-only, zero dependencies. The
//! simulator crates do not depend on it; the workload, testkit and bench
//! layers use it to run their case matrices.
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

pub mod digest;
pub mod pool;

pub use digest::Digest;
pub use pool::{
    jobs_from_env, run_batch, Batch, BatchStats, FleetConfig, JobError, JobOutcome, JobStats,
};
