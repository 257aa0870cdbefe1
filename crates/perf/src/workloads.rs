//! The four benchmark workloads and what one rep of each runs.
//!
//! Every rep builds a fresh system, so the modelled caches start empty in
//! every rep. Every call into a simulator layer is wrapped in a span
//! whose name says which layer it enters; the rep's end-to-end timings
//! are sums over those spans.

use maple_serve::{ServeConfig, ServeSim};
use maple_soc::system::System;
use maple_soc::{ClusterConfig, SocConfig};
use maple_trace::MetricsSnapshot;
use maple_vm::VAddr;
use maple_workloads::bfs::Bfs;
use maple_workloads::data::{dense_vector, rmat, uniform_sparse};
use maple_workloads::harness::{alloc_u32, config_for, partition};
use maple_workloads::slice::{
    maple_access_query, maple_execute_query, upload_tenant, QueryKind, SliceQuery, TenantArrays,
};
use maple_workloads::spmv::Spmv;
use maple_workloads::Variant;

use crate::counters::Counters;
use crate::spans::Spans;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Slice-built MAPLE-decoupled SPMV on the 1024-tile clustered fabric.
    Fabric1024,
    /// The same slice-built SPMV on a small flat mesh, DRAM-bound.
    FlatSpmvDec,
    /// The figure suite shrunk: SPMV under seven variants, BFS under two.
    KernelMix,
    /// Four multi-tenant serving sessions.
    ServeMt,
}

/// Instance size: the benchmark's own, or tiny instances for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny instances that finish in a debug build within seconds.
    Smoke,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fabric1024,
        Workload::FlatSpmvDec,
        Workload::KernelMix,
        Workload::ServeMt,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fabric1024 => "fabric_1024",
            Workload::FlatSpmvDec => "flat_spmv_dec",
            Workload::KernelMix => "kernel_mix",
            Workload::ServeMt => "serve_mt",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The minimum number of reps one run makes.
    #[must_use]
    pub fn default_reps(self) -> usize {
        match self {
            Workload::KernelMix => 4,
            _ => 5,
        }
    }

    /// The SoC configuration whose fabric the workload exercises (for
    /// `kernel_mix` and `serve_mt`, the configuration all cells or
    /// sessions share).
    #[must_use]
    pub fn soc_config(self, scale: Scale) -> SocConfig {
        match (self, scale) {
            (Workload::Fabric1024, Scale::Full) => {
                decoupled_config(128, 64).with_clusters(ClusterConfig::new(16, 8, 8))
            }
            (Workload::Fabric1024, Scale::Smoke) => {
                decoupled_config(8, 4).with_clusters(ClusterConfig::new(16, 2, 2))
            }
            (Workload::FlatSpmvDec, Scale::Full) => decoupled_config(16, 8),
            (Workload::FlatSpmvDec, Scale::Smoke) => decoupled_config(4, 2),
            (Workload::KernelMix, _) => config_for(Variant::Doall, 2),
            (Workload::ServeMt, _) => serve_configs(0, scale)[0].soc_config(),
        }
    }

    /// Runs one rep, recording its spans in `spans`.
    pub(crate) fn run_rep(self, scale: Scale, seed: u64, spans: &mut Spans) -> RepOutcome {
        match self {
            Workload::Fabric1024 | Workload::FlatSpmvDec => slice_spmv_rep(
                self.soc_config(scale),
                SpmvShape::of(self, scale),
                seed,
                spans,
            ),
            Workload::KernelMix => kernel_mix_rep(scale, seed, spans),
            Workload::ServeMt => serve_rep(scale, seed, spans),
        }
    }
}

/// `cores` cores in Access/Execute pairs over `engines` MAPLE engines.
fn decoupled_config(cores: usize, engines: usize) -> SocConfig {
    config_for(Variant::MapleDecoupled, cores).with_maples(engines)
}

/// What one rep produced, apart from its timings (those are its spans).
#[derive(Debug, Clone, Default)]
pub(crate) struct RepOutcome {
    /// Simulated cycles inside the rep's run calls.
    pub cycles: u64,
    /// Ops attempted: verified kernel runs or serving requests.
    pub ops: u64,
    /// Ops unverified, hung or unserved.
    pub failed: u64,
    /// The rep's exact counters.
    pub counters: Counters,
}

/// Span names whose time is set-up: data generation, system
/// construction, upload, and program build and load.
pub(crate) const SETUP_SPANS: [&str; 5] = [
    "workloads.gen",
    "soc.new",
    "soc.upload",
    "soc.load",
    "serve.new",
];

/// Whether a span is one of the run calls `sim_mcps` divides by.
#[must_use]
pub(crate) fn is_run_span(name: &str) -> bool {
    name == "soc.run" || name == "serve.run" || name.starts_with(CELL_PREFIX)
}

/// Span-name prefix of the `kernel_mix` cells.
const CELL_PREFIX: &str = "workloads.cell.";

/// Cycle budget per slice-built SPMV run: far above the expected count,
/// low enough that a hung run ends in a failed op, not a stuck process.
const SLICE_MAX_CYCLES: u64 = 4_000_000;

/// Shape of a slice-built SPMV instance.
#[derive(Debug, Clone, Copy)]
pub struct SpmvShape {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns, the length of `x`.
    pub cols: usize,
    /// Nonzeros per row.
    pub nnz: usize,
}

impl SpmvShape {
    /// The shape `w` runs at `scale`.
    ///
    /// # Panics
    ///
    /// Panics for workloads that do not run slice-built SPMV.
    #[must_use]
    pub fn of(w: Workload, scale: Scale) -> Self {
        let (rows, cols, nnz) = match (w, scale) {
            (Workload::Fabric1024, Scale::Full) => (8192, 32 * 1024, 6),
            (Workload::FlatSpmvDec, Scale::Full) => (8192, 128 * 1024, 8),
            (Workload::Fabric1024 | Workload::FlatSpmvDec, Scale::Smoke) => (64, 2048, 4),
            _ => unreachable!("only the slice-built workloads have an SPMV shape"),
        };
        SpmvShape { rows, cols, nnz }
    }

    /// The seeded instance.
    #[must_use]
    pub fn instance(self, seed: u64) -> Spmv {
        Spmv {
            a: uniform_sparse(self.rows, self.cols, self.nnz, seed),
            x: dense_vector(self.cols, seed ^ 0x9),
        }
    }
}

/// Loads MAPLE-decoupled SPMV as Access/Execute slice pairs, one pair per
/// two cores, rows split evenly and pairs assigned round-robin over the
/// engines (as `Spmv::load_maple_dec` does). Row `r`'s result lands at
/// `y + 4r`.
pub fn load_slice_spmv(sys: &mut System, arrays: &TenantArrays, y: VAddr, rows: usize) {
    let pairs = sys.config().cores / 2;
    let maples = sys.config().maples;
    let maple_vas: Vec<VAddr> = (0..maples).map(|e| sys.map_maple(e)).collect();
    for (pair, (lo, hi)) in partition(rows, pairs).into_iter().enumerate() {
        let q = SliceQuery {
            kind: QueryKind::SpmvSlice,
            lo,
            hi,
        };
        let va = maple_vas[pair % maples];
        let queue = u8::try_from(pair / maples).expect("at most 256 pairs per engine");
        let (ap, ab) = maple_access_query(&q, arrays, va, queue);
        let (ep, eb) = maple_execute_query(&q, arrays, y.offset(lo as u64 * 4), va, queue);
        sys.load_program(ap, &ab);
        sys.load_program(ep, &eb);
    }
}

fn slice_spmv_rep(cfg: SocConfig, shape: SpmvShape, seed: u64, spans: &mut Spans) -> RepOutcome {
    let spmv = spans.span("workloads.gen", || shape.instance(seed));
    let mut sys = spans.span("soc.new", || System::new(cfg));
    let (arrays, y) = spans.span("soc.upload", || {
        (
            upload_tenant(&mut sys, &spmv.a, &spmv.x),
            alloc_u32(&mut sys, shape.rows),
        )
    });
    spans.span("soc.load", || {
        load_slice_spmv(&mut sys, &arrays, y, shape.rows)
    });
    let outcome = spans.span("soc.run", || sys.run(SLICE_MAX_CYCLES));
    let verified = spans.span("workloads.verify", || {
        outcome.is_finished() && sys.read_slice_u32(y, shape.rows) == spmv.reference()
    });
    let mut counters = Counters::default();
    counters.add_snapshot(&spans.span("trace.snapshot", || exported(sys.metrics_snapshot())));
    RepOutcome {
        cycles: outcome.cycle().0,
        ops: 1,
        failed: u64::from(!verified),
        counters,
    }
}

/// Renders a metrics snapshot as JSON, as a user exporting metrics
/// would, and hands it back for counting.
fn exported(m: MetricsSnapshot) -> MetricsSnapshot {
    std::hint::black_box(m.to_json().render());
    m
}

/// The SPMV cells of `kernel_mix`: every variant the figures compare,
/// with the thread counts the figures run them at.
const SPMV_CELLS: [(Variant, usize); 7] = [
    (Variant::Doall, 2),
    (Variant::SwDecoupled, 2),
    (Variant::MapleDecoupled, 2),
    (Variant::Desc, 2),
    (Variant::MapleLima, 1),
    (Variant::Droplet, 2),
    (Variant::SwPrefetch { dist: 16 }, 1),
];

/// The BFS cells of `kernel_mix`.
const BFS_CELLS: [(Variant, usize); 2] = [(Variant::MapleDecoupled, 2), (Variant::Desc, 2)];

/// The span name of a `kernel_mix` cell.
fn cell_name(kernel: &str, variant: Variant) -> String {
    format!("{CELL_PREFIX}{kernel}.{}", variant.label())
}

fn kernel_mix_rep(scale: Scale, seed: u64, spans: &mut Spans) -> RepOutcome {
    let (spmv, bfs) = spans.span("workloads.gen", || {
        let (rows, cols, nnz, rmat_scale, edges) = match scale {
            Scale::Full => (256, 64 * 1024, 8, 12, 16),
            Scale::Smoke => (32, 1024, 4, 6, 4),
        };
        let spmv = Spmv {
            a: uniform_sparse(rows, cols, nnz, seed),
            x: dense_vector(cols, seed ^ 0x1234),
        };
        let graph = rmat(rmat_scale, edges, (0.57, 0.19, 0.19, 0.05), seed ^ 0x71);
        let root = (0..graph.nrows)
            .find(|&r| !graph.row_range(r).is_empty())
            .unwrap_or(0) as u32;
        (spmv, Bfs { graph, root })
    });
    let mut out = RepOutcome::default();
    for (variant, threads) in SPMV_CELLS {
        let (stats, sys) = spans.span(cell_name("spmv", variant), || {
            spmv.run_observed(variant, threads, |c| c)
        });
        out.counters
            .add_snapshot(&spans.span("trace.snapshot", || exported(sys.metrics_snapshot())));
        out.cycles += stats.cycles;
        out.ops += 1;
        out.failed += u64::from(!stats.verified || stats.hung);
    }
    for (variant, threads) in BFS_CELLS {
        let stats = spans.span(cell_name("bfs", variant), || bfs.run(variant, threads));
        out.counters.add_run_stats(&stats);
        out.cycles += stats.cycles;
        out.ops += 1;
        out.failed += u64::from(!stats.verified || stats.hung);
    }
    out
}

/// The serving sessions of one rep: seeds `seed..seed+4`.
fn serve_configs(seed: u64, scale: Scale) -> Vec<ServeConfig> {
    (0..4)
        .map(|i| {
            let s = seed.wrapping_add(i);
            match scale {
                Scale::Full => ServeConfig::standard(s),
                Scale::Smoke => ServeConfig::quick(s),
            }
        })
        .collect()
}

/// The host reference output of every request of a session, indexed
/// `[tenant][request index]`.
fn serve_reference(cfg: &ServeConfig) -> Vec<Vec<Vec<u32>>> {
    cfg.tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let (a, x) = spec.dataset();
            spec.schedule(t as u64)
                .iter()
                .map(|r| r.query.reference(&a, &x))
                .collect()
        })
        .collect()
}

fn serve_rep(scale: Scale, seed: u64, spans: &mut Spans) -> RepOutcome {
    let mut out = RepOutcome::default();
    for cfg in spans.span("workloads.gen", || serve_configs(seed, scale)) {
        let mut sim = spans.span("serve.new", || ServeSim::new(cfg.clone()));
        let summary = spans.span("serve.run", || sim.run());
        let unserved = spans.span("workloads.verify", || {
            let expected = serve_reference(&cfg);
            let served = sim.outputs();
            expected
                .iter()
                .zip(served)
                .flat_map(|(want, got)| want.iter().zip(got))
                .filter(|(want, got)| got.as_ref() != Some(*want))
                .count() as u64
        });
        out.counters
            .add_snapshot(&spans.span("trace.snapshot", || exported(sim.metrics())));
        out.counters.add_serving_tail(summary.p50, summary.p99);
        out.cycles += summary.sim_cycles;
        out.ops += summary.total_requests;
        out.failed += unserved.max(summary.total_requests - summary.completed);
    }
    out
}
