//! Every result file under `results/`, one [`Entry`] each.
//!
//! An entry names the simulated cases it reads and renders its text
//! (and, for the figures, its JSON sidecar) from their rows. The
//! `results` binary simulates the union of the requested entries' cases
//! once through [`simulate`](crate::experiments::simulate) and renders
//! every entry from the rows; the millisecond microbenchmarks (Figure
//! 14, the counters and the hop sweep) and the gates (the oracle grid,
//! serving, stepper and scale gates, whose render fails on a
//! divergence) simulate inside their render functions. Each figure
//! banner quotes the paper's claim next to the measured rows.

use std::fmt::Write;

use maple_core::area::{engine_area, ARIANE_CORE_MM2};
use maple_core::mmio::LoadOp;
use maple_core::MapleConfig;
use maple_isa::builder::ProgramBuilder;
use maple_sim::stats::geomean;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;
use maple_trace::{Json, StallRow};
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::spmv::Spmv;
use maple_workloads::Variant;

use crate::experiments::{self, app_datasets, find, stall_rows_by_variant};
use crate::experiments::{CaseSpec, Measurement, Tuning};
use crate::oracle::oracle_grid;
use crate::report::{banner, FigureReport, SpeedupTable};
use crate::rtt::measure_roundtrip;
use crate::scaling::scale_gate;
use crate::serving::serve_gate;
use crate::stepper::stepper_gate;

/// What an entry renders: the text of `results/NAME.txt` and, for the
/// figures, the JSON of `results/NAME.json`.
#[derive(Debug)]
pub struct Output {
    /// The text view.
    pub text: String,
    /// The JSON sidecar, when the entry has one.
    pub sidecar: Option<Json>,
}

impl Output {
    fn text(text: String) -> Self {
        let sidecar = None;
        Output { text, sidecar }
    }
}

/// One result file (or text + sidecar pair) under `results/`.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The file stem: `results/NAME.txt` (and `results/NAME.json`).
    pub name: &'static str,
    /// The simulated cases the entry reads.
    pub cases: fn() -> Vec<CaseSpec>,
    /// Renders the entry from the rows of `cases`, in case order, or
    /// says why a gate failed.
    pub render: fn(&[Measurement]) -> Result<Output, String>,
}

/// Every result entry, in the order the driver renders them.
pub const ENTRIES: [Entry; 19] = {
    use experiments::{decoupling_suite, prefetch_suite, prior_work_suite};
    const fn entry(
        name: &'static str,
        cases: fn() -> Vec<CaseSpec>,
        render: fn(&[Measurement]) -> Result<Output, String>,
    ) -> Entry {
        Entry {
            name,
            cases,
            render,
        }
    }
    [
        entry("fig08", decoupling_suite, |rows| Ok(FIG08.render(rows))),
        entry("fig09", prefetch_suite, |rows| Ok(FIG09.render(rows))),
        entry("fig10", prefetch_suite, |rows| Ok(FIG10.render(rows))),
        entry("fig11", prefetch_suite, |rows| Ok(FIG11.render(rows))),
        entry("fig12", prior_work_suite, |rows| Ok(FIG12.render(rows))),
        entry("fig13", fig13_cases, |rows| Ok(fig13(rows))),
        entry("fig14", Vec::new, |_| Ok(fig14())),
        entry("fig15", fig15_cases, |rows| Ok(fig15(rows))),
        entry("counters", Vec::new, |_| Ok(counters())),
        entry("queue_sweep", queue_sweep_cases, |rows| {
            Ok(queue_sweep(rows))
        }),
        entry("ablation_maple_scaling", ablation_cases, |rows| {
            Ok(ablation(rows))
        }),
        entry("hops", Vec::new, |_| Ok(hops())),
        entry("area", Vec::new, |_| Ok(area())),
        entry("tables", Vec::new, |_| Ok(tables())),
        entry("oracle_grid", Vec::new, |_| gate(oracle_grid(0x0A_C1E5))),
        entry("serve_gate", Vec::new, |_| gate(serve_gate(0x5E12E))),
        entry("stepper_gate", Vec::new, |_| gate(stepper_gate(0x57E9))),
        entry("scale_gate_256", Vec::new, |_| {
            gate(scale_gate(0x5CA1E, 256))
        }),
        entry("scale_gate_1024", Vec::new, |_| {
            gate(scale_gate(0x5CA1E, 1024))
        }),
    ]
};

/// A gate's rendered lines as its result file, or its failure.
fn gate(report: Result<String, String>) -> Result<Output, String> {
    report.map(|text| Output::text(text + "\n"))
}

/// The speedup of `m` over `base`.
fn speedup(base: &Measurement, m: &Measurement) -> f64 {
    base.cycles as f64 / m.cycles as f64
}

/// A figure over every (app, dataset) of the evaluation: one table row
/// per workload, one cell per variant, and headline numbers that are
/// geomeans over the workloads.
struct Matrix {
    /// The sidecar slug, the title and the paper's claim.
    figure: [&'static str; 3],
    /// (column label, variant); the first is the row's baseline.
    columns: &'static [(&'static str, &'static str)],
    /// A row's cell for `m` against the row's baseline.
    cell: fn(base: &Measurement, m: &Measurement) -> f64,
    /// `Some("cy")` for latency cells (no geomean footer).
    unit: Option<&'static str>,
    /// Headline numbers: a label, the columns `(i, j)` whose
    /// `ratio(row[i], row[j])` is averaged, and the paper's value.
    lines: &'static [(&'static str, (usize, usize), &'static str)],
    /// The headline ratio of two cells of a row.
    ratio: fn(&Measurement, &Measurement) -> f64,
}

impl Matrix {
    fn render(&self, rows: &[Measurement]) -> Output {
        let variants: Vec<&str> = self.columns.iter().map(|c| c.1).collect();
        let labels: Vec<&str> = self.columns.iter().map(|c| c.0).collect();
        let workloads: Vec<(String, Vec<&Measurement>)> = app_datasets()
            .into_iter()
            .map(|(app, ds)| {
                let cells = variants.iter().map(|v| find(rows, &app, &ds, v));
                (format!("{app}/{ds}"), cells.collect())
            })
            .collect();
        let mut table = SpeedupTable::new(&labels);
        if let Some(unit) = self.unit {
            table = table.with_unit(unit);
        }
        for (label, ms) in &workloads {
            let cells = ms.iter().map(|m| (self.cell)(ms[0], m)).collect();
            table.add_row(label.clone(), cells);
        }
        let [figure, title, paper] = self.figure;
        let mut report = FigureReport::new(figure, title, paper);
        for &(label, (i, j), paper) in self.lines {
            let ratios: Vec<f64> = workloads
                .iter()
                .map(|(_, ms)| (self.ratio)(ms[i], ms[j]))
                .collect();
            report.line(label, geomean(&ratios), "x", paper);
        }
        report.table = Some(table);
        report.stalls = stall_rows_by_variant(rows, &variants);
        report.output()
    }
}

/// Figure 8: decoupling speedups over 2-thread do-all parallelism.
const FIG08: Matrix = Matrix {
    figure: [
        "fig08",
        "Figure 8 — decoupling (1 Access + 1 Execute) vs 2-thread do-all",
        "MAPLE 1.51x geomean over doall; 2.27x over software decoupling",
    ],
    columns: &[
        ("doall", "doall"),
        ("sw-dec", "sw-dec"),
        ("maple-dec", "maple-dec"),
    ],
    cell: speedup,
    unit: None,
    lines: &[
        ("MAPLE over software decoupling (geomean)", (1, 2), "2.27x"),
        ("MAPLE over doall (geomean)", (0, 2), "1.51x"),
    ],
    ratio: speedup,
};

/// Figures 9–11's columns: no prefetching, software prefetching, LIMA.
const PREFETCH_COLUMNS: &[(&str, &str)] = &[
    ("no-pref", "doall"),
    ("sw-pref", "sw-pref"),
    ("maple-lima", "maple-lima"),
];

/// Figure 9: prefetching speedups over no prefetching (single thread).
const FIG09: Matrix = Matrix {
    figure: [
        "fig09",
        "Figure 9 — prefetching IMAs, single thread",
        "LIMA 1.73x geomean over no-prefetch (2.4x SPMV); 2.35x over sw-prefetch",
    ],
    columns: PREFETCH_COLUMNS,
    cell: speedup,
    unit: None,
    lines: &[
        ("LIMA over no prefetching (geomean)", (0, 2), "1.73x"),
        ("LIMA over software prefetching (geomean)", (1, 2), "2.35x"),
    ],
    ratio: speedup,
};

/// Figure 10: load-instruction count, normalized to no prefetching.
const FIG10: Matrix = Matrix {
    figure: [
        "fig10",
        "Figure 10 — normalized load-instruction count (single thread)",
        "sw-prefetch ≈ 2x loads; MAPLE slightly below 1x",
    ],
    columns: PREFETCH_COLUMNS,
    cell: |base, m| m.loads as f64 / base.loads as f64,
    unit: None,
    lines: &[
        ("sw-prefetch load overhead (geomean)", (0, 1), "~2x"),
        ("MAPLE load count (geomean)", (0, 2), "slightly < 1x"),
    ],
    ratio: |base, m| m.loads as f64 / base.loads as f64,
};

/// Figure 11: mean load-to-use latency with and without prefetching.
const FIG11: Matrix = Matrix {
    figure: [
        "fig11",
        "Figure 11 — average load latency in cycles (single thread)",
        "LIMA cuts mean load latency ~1.85x vs no prefetching",
    ],
    columns: PREFETCH_COLUMNS,
    cell: |_, m| m.load_latency,
    unit: Some("cy"),
    lines: &[("LIMA latency reduction (geomean)", (0, 2), "1.85x")],
    ratio: |base, m| base.load_latency / m.load_latency,
};

/// Figure 12: MAPLE vs DeSC vs DROPLET vs do-all (2 threads).
const FIG12: Matrix = Matrix {
    figure: [
        "fig12",
        "Figure 12 — prior-work comparison (2 threads)",
        "MAPLE 1.72x over DeSC, 1.82x over DROPLET; up to 3x over doall on BFS",
    ],
    columns: &[
        ("doall", "doall"),
        ("droplet", "droplet"),
        ("desc", "desc"),
        ("maple-dec", "maple-dec"),
    ],
    cell: speedup,
    unit: None,
    lines: &[
        ("MAPLE over DeSC (geomean)", (2, 3), "1.72x"),
        ("MAPLE over DROPLET (geomean)", (1, 3), "1.82x"),
    ],
    ratio: speedup,
};

/// For each kernel and setting, one figure cell: a do-all run and a
/// MAPLE-decoupled run on the same thread count, MAPLE under the
/// setting's tuning. `cell` maps a setting to (threads, tuning).
fn pairs<S: Copy>(
    kernels: &[(&str, &str)],
    settings: &[S],
    cell: impl Fn(S) -> (usize, Tuning),
) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for &(app, ds) in kernels {
        for &s in settings {
            let (threads, tuning) = cell(s);
            let maple = CaseSpec::new(app, ds, Variant::MapleDecoupled, threads);
            cases.push(CaseSpec::new(app, ds, Variant::Doall, threads));
            cases.push(CaseSpec { tuning, ..maple });
        }
    }
    cases
}

/// MAPLE's speedup over do-all in each (do-all, MAPLE) pair of `rows`.
fn pair_speedups(rows: &[Measurement]) -> Vec<f64> {
    rows.chunks(2).map(|p| speedup(&p[0], &p[1])).collect()
}

/// One row of pair speedups per kernel, one column per setting.
fn pair_table(rows: &[Measurement], kernels: &[(&str, &str)], columns: &[String]) -> SpeedupTable {
    let mut table = SpeedupTable::new(&columns.iter().map(String::as_str).collect::<Vec<_>>());
    for ((app, ds), rows) in kernels.iter().zip(rows.chunks(2 * columns.len())) {
        table.add_row(format!("{app}/{ds}"), pair_speedups(rows));
    }
    table
}

/// The stall row of each pair's MAPLE run, labelled by `label(pair index)`.
fn pair_stalls(rows: &[Measurement], label: impl Fn(usize) -> String) -> Vec<StallRow> {
    let maple = rows.chunks(2).map(|p| &p[1]);
    let row = |(i, m): (usize, &Measurement)| StallRow {
        label: label(i),
        core_cycles: m.core_cycles,
        breakdown: m.stall,
    };
    maple.enumerate().map(row).collect()
}

/// A figure of pair speedups and MAPLE stall rows, with a closing note.
fn pair_figure(
    figure: [&str; 3],
    table: SpeedupTable,
    stalls: Vec<StallRow>,
    note: &str,
) -> Output {
    let mut report = FigureReport::new(figure[0], figure[1], figure[2]);
    report.table = Some(table);
    report.stalls = stalls;
    let mut out = report.output();
    let _ = writeln!(out.text, "\n{note}");
    out
}

/// A text-only table under a banner, with a closing note.
fn table_text(banner_lines: [&str; 2], table: &SpeedupTable, note: &str) -> Output {
    let text = banner(banner_lines[0], banner_lines[1]) + &table.render();
    Output::text(text + "\n" + note + "\n")
}

/// Figure 13's decoupling-friendly kernels (the first dataset of each).
const FIG13_KERNELS: [(&str, &str); 3] = [
    ("spmv", "riscv-s"),
    ("sdhp", "suitesparse"),
    ("bfs", "wiki"),
];
const FIG13_THREADS: [usize; 3] = [2, 4, 8];

fn fig13_cases() -> Vec<CaseSpec> {
    pairs(&FIG13_KERNELS, &FIG13_THREADS, |t| (t, Tuning::Default))
}

/// Figure 13: thread scaling — decoupled pairs sharing a single MAPLE
/// unit vs equal-thread do-all.
fn fig13(rows: &[Measurement]) -> Output {
    let columns = FIG13_THREADS.map(|t| format!("{t} threads"));
    let stalls = pair_stalls(rows, |i| {
        let n = FIG13_THREADS.len();
        let ((app, ds), t) = (FIG13_KERNELS[i / n], FIG13_THREADS[i % n]);
        format!("{app}/{ds} maple t={t}")
    });
    pair_figure(
        [
            "fig13",
            "Figure 13 — scaling threads over one shared MAPLE",
            "speedup over do-all holds at 2, 4 and 8 threads",
        ],
        pair_table(rows, &FIG13_KERNELS, &columns),
        stalls,
        "(each cell: MAPLE-decoupled speedup over do-all at the same thread count)",
    )
}

/// Figure 14: round-trip latency breakdown of core-to-MAPLE
/// communication.
fn fig14() -> Output {
    let cfg = SocConfig::fpga_prototype();
    let steps = [
        ("L1 miss handling + core retire", 2 * cfg.cpu.l1.hit_latency),
        ("tile uncore (L1.5 + NoC codec) x2", 2 * cfg.uncore_latency),
        ("NoC hops (adjacent tiles) x2", 2),
        ("MAPLE decode pipeline", cfg.maple.decode_latency),
        ("MAPLE consume + respond", cfg.maple.respond_latency),
    ];
    let modelled: u64 = steps.iter().map(|(_, cycles)| cycles).sum();
    let rtt = measure_roundtrip(cfg.clone());
    assert!(
        (15.0..45.0).contains(&rtt.mean_rtt),
        "round trip should be L2-scale"
    );
    let dram = cfg.l2.latency + cfg.dram.latency;

    let mut r = FigureReport::new(
        "fig14",
        "Figure 14 — core-to-MAPLE round-trip latency breakdown",
        "≈25 cycles + 1 per hop; similar to L2, ~10x below DRAM",
    );
    r.line("modelled round trip", modelled as f64, "cy", "~25 + hops");
    r.line(
        "measured mean consume round trip",
        rtt.mean_rtt,
        "cy",
        "~25 + hops",
    );
    let dram_paper = "~10x slower than the round trip";
    r.line("DRAM access for comparison", dram as f64, "cy", dram_paper);
    r.stalls = rtt.stalls;
    let mut out = r.output();
    out.text += "\nmodelled step breakdown (one way and back):\n";
    let row = |(step, cycles): (&str, u64)| format!("  {step:<35}{cycles:>3} cy\n");
    out.text.extend(steps.map(row));
    out.text += "  ------------------------------------------\n";
    out.text += &row(("modelled total", modelled));
    out
}

/// The kernels of Figure 15 and the queue-size sweep.
const SPMV_SDHP: [(&str, &str); 2] = [("spmv", "riscv-s"), ("sdhp", "suitesparse")];
/// Figure 15's extra MAPLE pipeline cycles: on top of the ~25-cycle
/// baseline they approximate round trips of ~25, ~50 and ~100 cycles.
const FIG15_SWEEP: [(u64, &str); 3] = [(0, "~25"), (25, "~50"), (75, "~100")];

fn fig15_cases() -> Vec<CaseSpec> {
    pairs(&SPMV_SDHP, &FIG15_SWEEP, |(extra, _)| {
        (2, Tuning::MapleExtraLatency(extra))
    })
}

/// Figure 15: sensitivity to the core-to-MAPLE communication latency.
fn fig15(rows: &[Measurement]) -> Output {
    let columns = FIG15_SWEEP.map(|(_, rtt)| format!("rtt {rtt}"));
    let stalls = pair_stalls(rows, |i| {
        let n = columns.len();
        format!("{} maple {}", SPMV_SDHP[i / n].0, columns[i % n])
    });
    pair_figure(
        [
            "fig15",
            "Figure 15 — speedup vs core-to-MAPLE round-trip latency",
            "lower NoC delay → greater decoupling benefit",
        ],
        pair_table(rows, &SPMV_SDHP, &columns),
        stalls,
        "(cells: MAPLE-decoupled speedup over 2-thread do-all at each RTT)",
    )
}

/// Section 4.4's methodology: MAPLE's performance counters, read out
/// after a decoupled run and, in-program, through user-mode loads.
fn counters() -> Output {
    let mut out = banner(
        "Section 4.4 — MAPLE performance counters (debug operations)",
        "queue runahead and engine activity observed through the API",
    );
    let inst = Spmv {
        a: uniform_sparse(192, 64 * 1024, 8, 77),
        x: dense_vector(64 * 1024, 78),
    };
    let s = inst.run(Variant::MapleDecoupled, 2);
    assert!(s.verified);
    let (fetches, produce_stalls, consume_stalls, tlb_misses) = s.engine;
    let _ = write!(
        out,
        "run: spmv maple-decoupled, {} cycles\n  \
         engine memory fetches      {fetches}\n  \
         produce stalls (queue full){produce_stalls:>12} cycles\n  \
         consume stalls (data wait) {consume_stalls:>12} cycles\n  \
         engine TLB misses          {tlb_misses}\n  \
         mean load-to-use latency   {:>12.1} cycles\n",
        s.cycles, s.mean_load_latency
    );

    // Produce 5 values, consume 3, then read the queue's counters.
    let mut sys = System::new(SocConfig::fpga_prototype());
    let maple_va = sys.map_maple(0);
    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let v = b.reg("v");
    let api = MapleApi::new(base);
    b.li(v, 9);
    for _ in 0..5 {
        api.produce(&mut b, 2, v);
    }
    for _ in 0..3 {
        api.consume(&mut b, 2, v, 4);
    }
    let stats = [
        ("STAT_PRODUCED", LoadOp::StatProduced, 5),
        ("STAT_CONSUMED", LoadOp::StatConsumed, 3),
        ("STAT_OCCUPANCY", LoadOp::StatOccupancy, 2),
    ]
    .map(|(name, op, want)| {
        let rd = b.reg(name);
        api.stat(&mut b, 2, op, rd);
        (name, rd, want)
    });
    b.halt();
    let core = sys.load_program(b.build().unwrap(), &[(base, maple_va.0)]);
    assert!(sys.run(1_000_000).is_finished());
    out += "\nuser-mode counter reads on queue 2 after 5 produces / 3 consumes:\n";
    for (name, rd, want) in stats {
        let got = sys.core(core).reg(rd);
        assert_eq!(got, want, "{name}");
        let _ = writeln!(out, "  {name:<14} = {got}");
    }

    // The decoupled run above also sampled queue 0 every 64 cycles.
    let occupancy = s.queue0_occupancy_mean;
    let _ = writeln!(
        out,
        "\nqueue-0 occupancy during the decoupled run (runahead): mean {occupancy:.1} / 32 entries"
    );
    Output::text(out)
}

/// Section 5.3's queue sizes (entries per queue).
const QUEUE_SIZES: [usize; 4] = [8, 16, 32, 64];

fn queue_sweep_cases() -> Vec<CaseSpec> {
    pairs(&SPMV_SDHP, &QUEUE_SIZES, |s| (2, Tuning::QueueEntries(s)))
}

/// Section 5.3 queue-size sensitivity.
fn queue_sweep(rows: &[Measurement]) -> Output {
    let columns = QUEUE_SIZES.map(|s| format!("{s} entries"));
    table_text(
        [
            "Section 5.3 — queue-size sweep (entries per queue, 4 B each)",
            "32 entries suffice; 16 entries cost 5-10%",
        ],
        &pair_table(rows, &SPMV_SDHP, &columns),
        "(cells: MAPLE-decoupled speedup over 2-thread do-all per queue size)",
    )
}

/// MAPLE instance counts of the engine-scaling ablation (8 threads).
const ABLATION_MAPLES: [usize; 3] = [1, 2, 4];

fn ablation_cases() -> Vec<CaseSpec> {
    pairs(&[("spmv", "riscv-s")], &ABLATION_MAPLES, |e| {
        (8, Tuning::Maples(e))
    })
}

/// Ablation: 8 threads (4 Access/Execute pairs) over 1, 2 and 4 MAPLE
/// instances — the paper's "more units can be employed for larger
/// thread counts in a tiled manner", quantified.
fn ablation(rows: &[Measurement]) -> Output {
    let columns = ABLATION_MAPLES.map(|e| format!("{e} MAPLE"));
    let mut table = SpeedupTable::new(&columns.each_ref().map(String::as_str));
    table.add_row("spmv/riscv-s (8t)", pair_speedups(rows));
    table_text(
        [
            "Ablation — 8 threads, scaling MAPLE instances",
            "tiled MAPLE units recover the decoupling speedup at high thread counts",
        ],
        &table,
        "(cells: MAPLE-decoupled speedup over 8-thread do-all)",
    )
}

/// Placement study: the consume round trip with one MAPLE placed at
/// increasing Manhattan distances from core 0 on a 6×6 mesh; the slope
/// should be ~2 cycles per hop (one each way).
fn hops() -> Output {
    let mut out = banner(
        "Placement study — consume round trip vs hop distance",
        "≈25 cycles + 1 per hop (Figure 14); OS maps a nearby instance",
    );
    out += "MAPLE tile      hops   mean RTT (cy)\n";
    let mut prev: Option<(u64, f64)> = None;
    // Core 0 sits at (0,0); sweep the engine along the diagonal-ish path.
    for ((x, y), hops) in [
        ((1, 1), 2),
        ((3, 1), 4),
        ((3, 3), 6),
        ((5, 3), 8),
        ((5, 5), 10),
    ] {
        let mut cfg = SocConfig::fpga_prototype();
        (cfg.mesh_width, cfg.mesh_height) = (6, 6);
        cfg.maple_tile_override = Some(vec![(x, y)]);
        let rtt = measure_roundtrip(cfg).mean_rtt;
        let _ = writeln!(out, "({x},{y}){hops:>13}{rtt:>15.1}");
        if let Some((ph, pr)) = prev {
            let slope = (rtt - pr) / (hops - ph) as f64;
            assert!(
                (0.5..4.0).contains(&slope),
                "per-hop cost should be ~1-2 cycles each way, got {slope:.2}"
            );
        }
        prev = Some((hops, rtt));
    }
    Output::text(out + "\nslope ≈ 2 cycles per hop of distance (1 per hop, each way) ✓\n")
}

/// Section 5.4 area analysis (12 nm component model).
fn area() -> Output {
    let a = engine_area(&MapleConfig::default());
    let percent = a.fraction_of_ariane() * 100.0;
    let mut out = banner(
        "Section 5.4 — area analysis (12 nm model)",
        "MAPLE (8 queues, 1 KB scratchpad) ≈ 1.1% of one Ariane core",
    );
    let _ = write!(
        out,
        "component                 area (mm^2)\n\
         scratchpad SRAM           {:>12.6}\n\
         queue controller          {:>12.6}\n\
         MMU (TLB + PTW)           {:>12.6}\n\
         pipelines + NoC codecs    {:>12.6}\n\
         LIMA unit                 {:>12.6}\n\
         --------------------------------------\n\
         total                     {:>12.6}\n\
         Ariane core               {ARIANE_CORE_MM2:>12.6}\n\
         \nMAPLE / Ariane: {percent:.2}%   [paper: 1.1%]\n\
         amortized over 8 cores: {:.3}% per core\n\
         \nscratchpad scaling:\n",
        a.scratchpad,
        a.queue_controller,
        a.mmu,
        a.pipelines,
        a.lima,
        a.total(),
        percent / 8.0
    );
    for kb in [1u64, 2, 4, 8] {
        let area = engine_area(&MapleConfig {
            scratchpad_bytes: kb * 1024,
            ..MapleConfig::default()
        });
        let (mm2, percent) = (area.total(), area.fraction_of_ariane() * 100.0);
        let _ = writeln!(
            out,
            "  {kb} KB scratchpad -> {mm2:.6} mm^2 ({percent:.2}% of Ariane)"
        );
    }
    Output::text(out)
}

/// One configuration table (Tables 2 and 3).
fn config_table(cfg: &SocConfig) -> String {
    let (m, l1, l2) = (&cfg.maple, &cfg.cpu.l1, &cfg.l2);
    format!(
        "MAPLE instances / scratchpad      {} / {} B\n\
         queues x entries x entry bytes    {} x {} x {}\n\
         core count / threads per core     {} / 1\n\
         core type                         single-issue in-order, blocking loads (window 1)\n\
         L1D per core / latency            {} KB {}-way / {}-cycle\n\
         L2 shared / latency               {} KB {}-way / {}-cycle\n\
         DRAM latency                      {}-cycle\n\
         core/engine TLB entries           {} / {}\n\
         NoC                               {}x{} mesh, 1 cycle/hop, XY routing\n",
        cfg.maples,
        m.scratchpad_bytes,
        m.queues,
        m.default_entries,
        m.default_entry_bytes,
        cfg.cores,
        l1.size_bytes / 1024,
        l1.ways,
        l1.hit_latency,
        l2.size_bytes / 1024,
        l2.ways,
        l2.latency,
        cfg.dram.latency,
        cfg.cpu.tlb_entries,
        m.tlb_entries,
        cfg.mesh_width,
        cfg.mesh_height
    )
}

/// Tables 2 and 3: the evaluation configurations.
fn tables() -> Output {
    let table2 = banner(
        "Table 2 — SoC configuration (FPGA prototype equivalent)",
        "OpenPiton + Ariane, 2 cores, 1 MAPLE, Linux-style VM services",
    );
    let table3 = banner(
        "Table 3 — simulated system (prior-work comparison)",
        "identical memory timing; instruction window of 1",
    );
    let (fpga, simulated) = (SocConfig::fpga_prototype(), SocConfig::simulated_system());
    Output::text(table2 + &config_table(&fpga) + "\n" + &table3 + &config_table(&simulated))
}
