//! `maple-perf`: the host-performance benchmark of the MAPLE simulator.
//!
//! Four workloads, each a closed loop of back-to-back reps in one
//! single-threaded process, report end-to-end host metrics (best-of-reps
//! Mcycles/s and wall time, median set-up time, peak memory). A traced
//! run adds per-layer metrics: outside-in spans around every layer call,
//! a standalone NoC probe, and the simulator's exact counters. Every
//! output is checked byte-exact against a host reference. See the crate
//! README for the workloads, the metric table and the A/B procedure.

#![deny(missing_docs)]

pub mod bench;
pub mod compare;
mod counters;
pub mod metrics;
mod probe;
mod spans;
pub mod workloads;
