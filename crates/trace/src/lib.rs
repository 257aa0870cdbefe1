//! The MAPLE observability plane.
//!
//! The paper studies MAPLE through its MMIO debug counters (§4.4) and
//! per-figure latency and occupancy measurements; this crate is the
//! reproduction's unified window onto the same signals. It provides, with
//! zero crates.io dependencies (the workspace is hermetic — see DESIGN.md
//! §5 — so even the JSON layer is in-tree):
//!
//! * [`json`] — a minimal JSON document model: escaping-correct writer and
//!   a strict parser, used by every machine-readable artifact the
//!   workspace emits (`results/*.json` sidecars, `BENCH_maple.json`,
//!   Chrome traces).
//! * [`event`] — the cycle-level event taxonomy: core stalls with cause,
//!   engine fetch issue/fill, queue push/pop with occupancy, NoC hops,
//!   MMIO transactions, and fault-plane injections/recoveries.
//! * [`tracer`] — a ring-buffered event recorder. The [`Tracer`] handle is
//!   cheaply cloneable and **zero-cost when disabled**: components thread
//!   a disabled handle by default and the emit path reduces to one
//!   `Option` test, so tracing-off runs are cycle-for-cycle (and
//!   heap-allocation-for-heap-allocation) identical to a build without
//!   this crate. A soc-level test asserts the cycle identity.
//! * [`chrome`] — an exporter to the Chrome `trace_event` JSON format, so
//!   a simulated run opens directly in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev) (one simulated cycle is rendered
//!   as one microsecond).
//! * [`metrics`] — the unified metrics registry: the scattered per-crate
//!   stats structs are flattened into one named, typed
//!   [`MetricsSnapshot`] with a single renderer
//!   (text table and JSON), plus the per-core stall-attribution report
//!   (compute / L1-miss / L2-miss / DRAM / consume-wait / MMIO /
//!   fault-recovery) printed under the paper's figures.

#![deny(missing_docs)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod tracer;

pub use event::{FaultSite, StallCause, TraceEvent, WaitKind};
pub use json::Json;
pub use metrics::{
    stall_json, stall_table, HistogramSummary, MetricsSnapshot, StallBreakdown, StallRow,
};
pub use tracer::{merge_rings, TraceConfig, TraceRecord, Tracer};
