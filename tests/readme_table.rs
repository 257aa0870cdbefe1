//! Keeps the README's generated tables in lockstep with the committed
//! `BENCH_maple.json`: the blocks between the
//! `BEGIN/END GENERATED: throughput-table` and `scaling-table` markers
//! must be exactly what `readme_throughput_table` and
//! `readme_scaling_table` render from the checked-in measurements.
//! `bench_summary` rewrites the blocks on every run, so a mismatch means
//! one of the two files was edited by hand.

use maple_bench::summary::{
    readme_scaling_table, readme_throughput_table, README_SCALING_BEGIN, README_SCALING_END,
    README_TABLE_BEGIN, README_TABLE_END,
};
use maple_trace::Json;
use std::path::PathBuf;

fn repo_file(name: &str) -> String {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("../..");
    path.push(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn readme_table_matches_committed_bench_json() {
    let doc = Json::parse(&repo_file("BENCH_maple.json")).expect("BENCH_maple.json parses");
    let readme = repo_file("README.md");
    let begin = readme
        .find(README_TABLE_BEGIN)
        .expect("README has the BEGIN throughput-table marker");
    let end = readme
        .find(README_TABLE_END)
        .expect("README has the END throughput-table marker");
    let block = &readme[begin + README_TABLE_BEGIN.len()..end];
    let expected = format!("\n{}", readme_throughput_table(&doc));
    assert_eq!(
        block, expected,
        "README throughput table is out of sync with BENCH_maple.json \
         (run `cargo run --release -p maple-bench --bin bench_summary` to regenerate)"
    );
}

#[test]
fn rendered_table_has_a_row_per_recorded_section() {
    // The renderer itself: every section present in the document yields
    // its pair of rows, and the speedup column derives from the
    // throughput columns.
    let doc = Json::parse(&repo_file("BENCH_maple.json")).expect("BENCH_maple.json parses");
    let table = readme_throughput_table(&doc);
    for (section, label) in [
        ("stepper", "event-horizon skipping"),
        ("serving", "multi-tenant serving"),
    ] {
        assert_eq!(
            doc.get(section).is_some(),
            table.contains(label),
            "table row presence must track the `{section}` section"
        );
    }
}

#[test]
fn readme_scaling_table_matches_committed_bench_json() {
    let doc = Json::parse(&repo_file("BENCH_maple.json")).expect("BENCH_maple.json parses");
    let readme = repo_file("README.md");
    let begin = readme
        .find(README_SCALING_BEGIN)
        .expect("README has the BEGIN scaling-table marker");
    let end = readme
        .find(README_SCALING_END)
        .expect("README has the END scaling-table marker");
    let block = &readme[begin + README_SCALING_BEGIN.len()..end];
    assert_eq!(
        block,
        format!("\n{}", readme_scaling_table(&doc)),
        "README scaling table is out of sync with BENCH_maple.json"
    );
}

#[test]
fn sub_unit_throughput_keeps_two_significant_figures() {
    let doc = Json::parse(
        r#"{"scaling": {"rows": [
            {"tiles": 64, "host_mcycles_per_sec": 3.3},
            {"tiles": 256, "host_mcycles_per_sec": 0.1408},
            {"tiles": 1024, "host_mcycles_per_sec": 0.02871}
        ]}}"#,
    )
    .expect("literal parses");
    let table = readme_scaling_table(&doc);
    for shown in ["≈ 3.3 Mcycles/s", "≈ 0.14 Mcycles/s", "≈ 0.029 Mcycles/s"] {
        assert!(table.contains(shown), "missing {shown:?} in\n{table}");
    }
}
