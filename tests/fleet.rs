//! Acceptance test for the oracle grid that used to be spread over a
//! fleet of workers: `results oracle_grid`, run on the default worker
//! count, writes exactly the committed golden `results/oracle_grid.txt`.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn oracle_grid_stdout_matches_the_committed_golden() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/oracle_grid.txt");
    let golden = fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet_oracle_grid");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_results"))
        .arg("oracle_grid")
        .current_dir(&dir)
        .env_remove("MAPLE_JOBS")
        .output()
        .expect("spawn results");
    assert!(out.status.success(), "results oracle_grid failed: {out:?}");
    let written = fs::read_to_string(dir.join("results/oracle_grid.txt"))
        .expect("results oracle_grid writes results/oracle_grid.txt");
    assert_eq!(written, golden);
}
