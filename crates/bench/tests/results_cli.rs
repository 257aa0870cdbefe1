//! The `results` driver writes and checks files relative to its working
//! directory: without `--check` they land under `results/` there,
//! byte-identical to the committed ones; `--check` then passes, writes
//! nothing, and exits 1 naming the first differing file and line once a
//! byte is flipped. (Its bad-argument contract is in `no_argument_cli`.)

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The files under `dir/results`, with their bytes.
fn results_in(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir.join("results"))
        .expect("list results/")
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.is_file())
        .map(|path| (path.clone(), fs::read(path).expect("read a result file")))
        .collect();
    files.sort();
    files
}

fn run(dir: &Path, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_results"));
    cmd.args(args).current_dir(dir).env_remove("MAPLE_JOBS");
    cmd.output().expect("spawn results")
}

#[test]
fn writes_in_the_working_directory_and_check_names_a_flipped_byte() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("results_cli");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the working directory");
    let names = ["area", "tables", "hops"];
    let out = run(&dir, &names);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = results_in(&dir);
    assert_eq!(written.len(), names.len(), "only the requested files");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (path, bytes) in &written {
        let name = path.file_name().unwrap();
        assert_eq!(*bytes, fs::read(committed.join(name)).unwrap(), "{name:?}");
    }

    let args = ["--check", "area", "tables", "hops"];
    let out = run(&dir, &args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(results_in(&dir), written, "--check must write nothing");

    let area = dir.join("results/area.txt");
    let mut bytes = fs::read(&area).unwrap();
    let at = bytes
        .iter()
        .position(|&b| b == b'%')
        .expect("a `%` in area.txt");
    bytes[at] = b'#';
    fs::write(&area, &bytes).unwrap();
    let line = 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count();
    let out = run(&dir, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let want = format!("results/area.txt differs from the rendered output at line {line}");
    assert!(stderr.contains(&want), "{stderr}");
}
