//! Regenerates every result file under `results/` in the working
//! directory, or byte-checks them against the committed files.
//!
//! ```text
//! results [--check] [NAME...]
//! ```
//!
//! With no NAME it covers every entry of `maple_bench::figures::ENTRIES`
//! (fig08–fig15, counters, queue_sweep, ablation_maple_scaling, hops,
//! area, tables). Each NAME renders `results/NAME.txt`, plus
//! `results/NAME.json` for the figures. The simulated cases of all the
//! requested entries are simulated once, as one ordered parallel map
//! (`MAPLE_JOBS` workers), so the output is the same at every worker
//! count. Without `--check` the files are written; with it nothing is
//! written, and the run exits 1 naming the first file and line that
//! differ from the committed one. A bad argument or `MAPLE_JOBS` value
//! exits 2 before any work.

use std::fs;
use std::process::exit;

use maple_bench::experiments::simulate;
use maple_bench::figures::{Entry, ENTRIES};

fn usage() -> ! {
    let names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: results [--check] [NAME...] (NAME: {})",
        names.join(" ")
    );
    exit(2);
}

fn fail(msg: String) -> ! {
    eprintln!("results: {msg}");
    exit(1);
}

fn main() {
    let mut check = false;
    let mut entries: Vec<Entry> = Vec::new();
    for arg in std::env::args_os().skip(1) {
        match arg.to_str() {
            Some("--check") => check = true,
            Some(name) => match ENTRIES.iter().find(|e| e.name == name) {
                Some(e) => entries.push(*e),
                None => usage(),
            },
            None => usage(),
        }
    }
    maple_bench::cli::check_jobs("results");
    if entries.is_empty() {
        entries = ENTRIES.to_vec();
    }

    let requests: Vec<_> = entries.iter().map(|e| (e.cases)()).collect();
    let mut files: Vec<(String, String)> = Vec::new();
    for (e, rows) in entries.iter().zip(&simulate("results", &requests)) {
        let out = (e.render)(rows);
        files.push((format!("results/{}.txt", e.name), out.text));
        if let Some(json) = out.sidecar {
            files.push((
                format!("results/{}.json", e.name),
                json.render_pretty() + "\n",
            ));
        }
    }

    for (path, text) in &files {
        if !check {
            fs::create_dir_all("results")
                .and_then(|()| fs::write(path, text))
                .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
            continue;
        }
        let want =
            fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
        if want != *text {
            let same = want.split_inclusive('\n').zip(text.split_inclusive('\n'));
            let line = 1 + same.take_while(|(a, b)| a == b).count();
            fail(format!(
                "{path} differs from the rendered output at line {line}"
            ));
        }
    }
    let verb = if check {
        "match the committed files"
    } else {
        "written"
    };
    println!("results: {} files {verb}", files.len());
}
