//! Temporary diagnostic.
use maple_workloads::bfs::Bfs;
use maple_workloads::data::Dataset;
use maple_workloads::Variant;
fn main() {
    maple_bench::cli::no_arguments("probe");
    let inst = Bfs::new(Dataset::WikiLike, 99);
    for (name, v) in [("doall", Variant::Doall), ("maple", Variant::MapleDecoupled)] {
        let s = inst.run(v, 2);
        println!("{name}: cycles={} loads={} lat={:.1}", s.cycles, s.loads, s.mean_load_latency);
        println!("  engine: fetches={} prod_stalls={} cons_stalls={} tlb_miss={}", s.engine.0, s.engine.1, s.engine.2, s.engine.3);
        for (i, c) in s.cores.iter().enumerate() {
            println!("  core{i}: insts={} mem_stall={} ({:.0}%) loads={}",
                c.instructions, c.mem_stall_cycles,
                100.0 * c.mem_stall_cycles as f64 / s.cycles as f64, c.loads);
        }
    }
}
