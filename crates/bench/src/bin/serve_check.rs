//! CI gate for multi-tenant serving: the differential-oracle grid
//! ({skipping, dense} × {clean, one recoverable chaos schedule}, plus
//! two clustered-fabric cells) through `par_map`, and the
//! engine-kill ladder cell. Prints only host-independent lines, so
//! `scripts/ci.sh` byte-diffs the output across `MAPLE_JOBS` values;
//! any isolation violation or unverified request exits nonzero.

use maple_bench::serving::serve_gate;

fn main() {
    maple_bench::cli::no_arguments("serve_check");
    match serve_gate(0x5E12E) {
        Ok(report) => println!("{report}"),
        Err(msg) => {
            eprintln!("[serve_check] SERVING ORACLE FAILURE\n{msg}");
            std::process::exit(1);
        }
    }
}
