//! SoC assembly for the MAPLE reproduction: tiles on a mesh, OS services,
//! the user-level API, and the experiment control surface.
//!
//! The crate mirrors the evaluation platforms of the paper: a tiled
//! OpenPiton-style SoC ([`system::System`]) configured from Table 2/3
//! parameters ([`config::SocConfig`]), running programs under virtual
//! memory with demand paging ([`os`]), and driving MAPLE through the
//! MMIO API ([`runtime::MapleApi`]).
//!
//! # Observability
//!
//! [`config::SocConfig::with_tracing`] threads one [`maple_trace::Tracer`]
//! through cores, engines, NoC and memory; the finished
//! [`system::System`] then offers `write_trace` (Chrome `trace_event`
//! export), `stall_rows` (per-core stall attribution) and
//! `metrics_snapshot` (the unified counter registry). Traced runs are
//! cycle-identical to untraced ones.
//!
//! # Quickstart
//!
//! ```
//! use maple_isa::builder::ProgramBuilder;
//! use maple_soc::config::SocConfig;
//! use maple_soc::runtime::MapleApi;
//! use maple_soc::system::System;
//!
//! let mut sys = System::new(SocConfig::fpga_prototype());
//! let maple_va = sys.map_maple(0);
//!
//! // One core produces 7 into queue 0 and consumes it back.
//! let mut b = ProgramBuilder::new();
//! let base = b.reg("maple");
//! let v = b.reg("v");
//! let api = MapleApi::new(base);
//! b.li(v, 7);
//! api.produce(&mut b, 0, v);
//! api.consume(&mut b, 0, v, 4);
//! b.halt();
//! let prog = b.build().unwrap();
//!
//! let core = sys.load_program(prog, &[(base, maple_va.0)]);
//! assert!(sys.run(1_000_000).is_finished());
//! assert_eq!(sys.core(core).reg(v), 7);
//! ```

#![deny(missing_docs)]

pub mod compiler;
pub mod config;
pub mod os;
pub mod runtime;
pub mod system;
mod wake;

pub use config::{ClusterConfig, SocConfig};
pub use system::{ChaosStats, HostWork, System};

/// Re-export of the MAPLE MMIO encoding, for programs that form engine
/// addresses at run time (e.g. dynamic queue selection).
pub use maple_core::mmio;
