//! The command-line contract of the harness binaries: a bad argument,
//! and any `MAPLE_JOBS` value the worker-count rule rejects, is a usage
//! error, reported before the binary simulates anything or writes a
//! file.

/// Exits with code 2 and a `usage: NAME` line on stderr when the
/// process was started with any argument, or as [`check_jobs`] does;
/// returns otherwise. Call it first thing in `main`.
pub fn no_arguments(name: &str) {
    if std::env::args_os().len() > 1 {
        eprintln!("usage: {name} (takes no arguments)");
        std::process::exit(2);
    }
    check_jobs(name);
}

/// Exits with code 2 and one line naming the value when `MAPLE_JOBS`
/// is set but is not a positive integer (the rule of
/// [`maple_sim::par::try_jobs_from_env`]); returns otherwise.
pub fn check_jobs(name: &str) {
    if let Err(e) = maple_sim::par::try_jobs_from_env() {
        eprintln!("{name}: {e}");
        std::process::exit(2);
    }
}
