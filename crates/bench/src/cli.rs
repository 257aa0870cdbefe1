//! The command-line contract of the harness binaries that take no
//! arguments: any argument is a usage error, reported before the binary
//! simulates anything or writes a file.

/// Exits with code 2 and a `usage: NAME` line on stderr when the
/// process was started with any argument; returns otherwise. Call it
/// first thing in `main`.
pub fn no_arguments(name: &str) {
    if std::env::args_os().len() > 1 {
        eprintln!("usage: {name} (takes no arguments)");
        std::process::exit(2);
    }
}
