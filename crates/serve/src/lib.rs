//! Multi-tenant request serving with MAPLE engine virtualization.
//!
//! The paper argues MAPLE's decoupling engines are cheap enough to be a
//! shared SoC resource. This crate takes that seriously: thousands of
//! short requests (SPMV row slices, BFS-style neighbor-gather queries)
//! from several tenants are multiplexed onto one cycle-accurate
//! [`maple_soc::system::System`], with a driver-level virtualization
//! layer that context-switches the engines between tenants — save and
//! restore of the architectural queue + fetch-unit state, an MMIO page
//! remap, and a TLB shootdown on every remap.
//!
//! * [`request`] — tenants and their seeded open-loop request streams.
//! * [`sim`] — the serving driver: batch scheduler, engine context
//!   switching, the graceful-degradation ladder, and the
//!   latency/fairness summary.
//! * [`oracle`] — the multi-tenant differential oracle: every tenant's
//!   outputs must be byte-identical to a solo run of the same stream.
//!
//! The whole layer sits **above** the existing model: it drives the
//! same `System` the figures use, through public driver APIs only, so
//! nothing about the cycle-accurate core/engine/NoC model is forked or
//! specialized for serving.

#![deny(missing_docs)]

pub mod oracle;
pub mod request;
pub mod sim;

pub use request::{Request, TenantSpec};
pub use sim::{serve, ServeConfig, ServeSim, ServingSummary, TenantSummary, CONTEXT_SWITCH_CYCLES};
