//! CLI runner: execute any workload/variant/thread combination and print
//! its statistics.
//!
//! ```text
//! cargo run --release -p maple-bench --bin run_workload -- <app> <dataset> <variant> [threads]
//!
//!   app      sdhp | spmm | spmv | bfs
//!   dataset  a label from `--list` (e.g. riscv-s, wiki, suitesparse)
//!   variant  doall | sw-dec | maple-dec | desc | sw-pref | maple-lima | droplet
//!   threads  at least 1; default 2 (1 for the prefetch variants)
//! ```
//!
//! `run_workload --list` prints the available (app, dataset) pairs. Any
//! missing, extra or malformed argument, and any thread count the kernel
//! does not run the variant on, prints usage and exits 2 before any
//! simulation runs.

use maple_bench::experiments::{app_datasets, run_case, CaseSpec};
use maple_workloads::Variant;

fn parse_variant(s: &str) -> Option<Variant> {
    Some(match s {
        "doall" => Variant::Doall,
        "sw-dec" => Variant::SwDecoupled,
        "maple-dec" => Variant::MapleDecoupled,
        "desc" => Variant::Desc,
        "sw-pref" => Variant::SwPrefetch { dist: 16 },
        "maple-lima" => Variant::MapleLima,
        "droplet" => Variant::Droplet,
        _ => return None,
    })
}

fn usage() -> ! {
    eprintln!("usage: run_workload <app> <dataset> <variant> [threads]");
    eprintln!("       run_workload --list");
    eprintln!("variants: doall sw-dec maple-dec desc sw-pref maple-lima droplet");
    eprintln!("threads: at least 1");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (app, ds, variant, threads) = match args.as_slice() {
        [flag] if flag == "--list" => {
            for (app, ds) in app_datasets() {
                println!("{app:<6} {ds}");
            }
            return;
        }
        [app, ds, variant] => (app, ds, variant, None),
        [app, ds, variant, threads] => (app, ds, variant, Some(threads)),
        _ => usage(),
    };
    let Some(variant) = parse_variant(variant) else {
        eprintln!("unknown variant `{variant}`");
        usage();
    };
    let threads = match threads {
        None => match variant {
            Variant::SwPrefetch { .. } | Variant::MapleLima => 1,
            _ => 2,
        },
        Some(t) => t
            .parse()
            .ok()
            .filter(|&t: &usize| t >= 1)
            .unwrap_or_else(|| {
                eprintln!("bad thread count `{t}`");
                usage()
            }),
    };

    let stats = run_case(&CaseSpec::new(app, ds, variant, threads)).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    println!("app       {app}");
    println!("dataset   {ds}");
    println!("variant   {}", variant.label());
    println!("threads   {threads}");
    println!("verified  {}", stats.verified);
    println!("cycles    {}", stats.cycles);
    println!("loads     {}", stats.loads);
    println!("load lat  {:.1} cycles (mean)", stats.mean_load_latency);
    let (fetches, pstall, cstall, tlb) = stats.engine;
    println!("engine    fetches={fetches} produce_stalls={pstall} consume_stalls={cstall} tlb_misses={tlb}");
    if !stats.verified {
        std::process::exit(1);
    }
}
