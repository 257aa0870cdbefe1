//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) on the simulated SoC.
//!
//! Each figure has a binary (`fig08` … `fig15`, `queue_sweep`, `area`,
//! `tables`) that runs the workload/variant matrix and prints the paper's
//! rows alongside the measured values. The [`instances`] module pins the
//! evaluation-grade problem sizes (gather targets far larger than the
//! caches), and [`report`] renders the result tables.

#![deny(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod instances;
pub mod report;
pub mod rtt;
pub mod scaling;
pub mod serving;
pub mod stepper;
pub mod summary;

pub use report::{print_banner, FigureReport, SpeedupTable};
