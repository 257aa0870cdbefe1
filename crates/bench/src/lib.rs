//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) on the simulated SoC.
//!
//! The `results` binary regenerates (or, with `--check`, byte-checks)
//! every file under `results/`: each is an entry of [`figures`] that
//! names the workload/variant cases it needs and renders the paper's
//! rows alongside the measured values, or runs one of the determinism
//! gates ([`oracle`], [`serving`], [`stepper`], [`scaling`]). The [`instances`] module pins the
//! evaluation-grade problem sizes (gather targets far larger than the
//! caches), and [`report`] renders the result tables.

#![deny(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod figures;
pub mod instances;
pub mod oracle;
pub mod report;
pub mod rtt;
pub mod scaling;
pub mod serving;
pub mod stepper;
