//! The property runner: seeded case generation, failure detection
//! (returned errors *and* panics), greedy shrinking, and a reproduction
//! report.

use crate::gen::Gen;
use maple_sim::par::{jobs_from_env, par_map};
use maple_sim::rng::SimRng;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, Once, OnceLock};
use std::thread::ThreadId;

/// Default number of generated cases per property. Kept moderate because
/// several properties drive full-system simulations; raise per-property
/// with [`Config::with_cases`] or globally with `MAPLE_TESTKIT_CASES`.
pub const DEFAULT_CASES: u64 = 256;

/// Fixed base so unseeded runs are deterministic in CI; the property name
/// is folded in so distinct properties explore distinct streams.
const DEFAULT_SEED: u64 = 0x4D41_504C_4521_2121; // "MAPLE!!!"

/// Runner configuration for one property.
#[derive(Debug, Clone)]
pub struct Config {
    /// Property name, printed in failure reports.
    pub name: &'static str,
    /// Number of generated cases.
    pub cases: u64,
    /// Base seed; case `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Cap on accepted shrink steps.
    pub max_shrink_rounds: u64,
    /// Cap on total candidate executions during shrinking.
    pub max_shrink_candidates: u64,
}

impl Config {
    /// Builds the default configuration for a named property.
    ///
    /// The seed defaults to a fixed constant mixed with the property name
    /// (deterministic CI); `MAPLE_TESTKIT_SEED` overrides it (decimal or
    /// `0x`-prefixed hex) to reproduce a printed failure, and
    /// `MAPLE_TESTKIT_CASES` overrides the case count.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        let seed = match env_u64("MAPLE_TESTKIT_SEED") {
            Some(s) => s,
            None => DEFAULT_SEED ^ fnv1a(name.as_bytes()),
        };
        Config {
            name,
            cases: env_u64("MAPLE_TESTKIT_CASES").unwrap_or(DEFAULT_CASES),
            seed,
            max_shrink_rounds: 1024,
            max_shrink_candidates: 4096,
        }
    }

    /// Overrides the case count (unless `MAPLE_TESTKIT_CASES` is set,
    /// which always wins so a long fuzz session needs no code edits).
    #[must_use]
    pub fn with_cases(mut self, cases: u64) -> Self {
        if std::env::var_os("MAPLE_TESTKIT_CASES").is_none() {
            self.cases = cases;
        }
        self
    }
}

fn env_u64(key: &str) -> Option<u64> {
    let raw = std::env::var(key).ok()?;
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("[maple-testkit] could not parse {key}={raw} as u64"),
    }
}

/// FNV-1a, used only to fold property names into the default seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derives the per-case seed. One splitmix-style scramble keeps adjacent
/// cases decorrelated while staying a pure function of `(base, case)`.
fn case_seed(base: u64, case: u64) -> u64 {
    let mut r = SimRng::seed(base ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
    r.next_u64()
}

/// Checks a property over generated cases; panics with a shrunk
/// counterexample and a reproduction seed on failure.
///
/// The property signals failure by returning `Err(message)` (see
/// [`tk_assert!`](crate::tk_assert)) or by panicking — both are caught,
/// so plain `assert!`/`unwrap` inside the property or the code under test
/// also count as falsifications and get shrunk.
///
/// # Panics
///
/// Panics when the property is falsified (that is the failure report).
pub fn check<G, F>(cfg: &Config, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    for case in 0..cfg.cases {
        let cs = case_seed(cfg.seed, case);
        let value = gen.generate(&mut SimRng::seed(cs));
        if let Some(first_msg) = run_case(&prop, &value) {
            falsify(cfg, gen, &prop, case, value, first_msg);
        }
    }
}

/// [`check`] with the case evaluations mapped over `MAPLE_JOBS` worker
/// threads by [`par_map`].
///
/// Each case's value is a pure function of `(seed, case index)` — the
/// generator is re-run inside the job — so parallel evaluation observes
/// exactly the cases the serial runner would. On failure, the *lowest*
/// failing case index is shrunk and reported through the same tail as
/// [`check`], so the failure report (seed, counterexample, message) is
/// identical at every worker count. The shrink descent itself stays
/// serial: each step depends on which candidate failed before it.
///
/// # Panics
///
/// Panics when the property is falsified (that is the failure report).
pub fn check_parallel<G, F>(cfg: &Config, gen: &G, prop: F)
where
    G: Gen + Sync,
    F: Fn(&G::Value) -> Result<(), String> + Sync,
{
    let prop = &prop;
    let cases: Vec<u64> = (0..cfg.cases).collect();
    let verdicts = par_map(jobs_from_env(), &cases, |&case| {
        let value = gen.generate(&mut SimRng::seed(case_seed(cfg.seed, case)));
        run_case(prop, &value)
    })
    .unwrap_or_else(|(i, e)| {
        panic!(
            "[maple-testkit] property '{}' case {i} escaped run_case: {e}",
            cfg.name
        )
    });
    // Verdicts are in case order, so "first Some" is the same case
    // the serial runner would have stopped at.
    if let Some((case, first_msg)) = verdicts
        .into_iter()
        .enumerate()
        .find_map(|(i, v)| v.map(|msg| (i as u64, msg)))
    {
        let value = gen.generate(&mut SimRng::seed(case_seed(cfg.seed, case)));
        falsify(cfg, gen, prop, case, value, first_msg);
    }
}

/// The shared failure tail of [`check`]/[`check_parallel`]: greedy
/// shrink descent, then the reproduction report as a panic.
fn falsify<G, F>(cfg: &Config, gen: &G, prop: &F, case: u64, value: G::Value, first_msg: String) -> !
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    // Greedy descent: take the first candidate that still fails,
    // restart from it, stop when no candidate fails or caps hit.
    let mut cur = value.clone();
    let mut cur_msg = first_msg.clone();
    let mut rounds = 0u64;
    let mut evals = 0u64;
    'outer: while rounds < cfg.max_shrink_rounds {
        for cand in gen.shrink(&cur) {
            if evals >= cfg.max_shrink_candidates {
                break 'outer;
            }
            evals += 1;
            if let Some(msg) = run_case(prop, &cand) {
                cur = cand;
                cur_msg = msg;
                rounds += 1;
                continue 'outer;
            }
        }
        break;
    }

    panic!(
        "[maple-testkit] property '{name}' falsified\n\
         \x20 case {case}/{cases}, base seed {seed:#018x}\n\
         \x20 reproduce with: MAPLE_TESTKIT_SEED={seed:#x} cargo test {name}\n\
         \x20 original input: {orig}\n\
         \x20 original failure: {first_msg}\n\
         \x20 shrunk input ({rounds} shrink rounds, {evals} candidate runs): {shrunk}\n\
         \x20 shrunk failure: {cur_msg}",
        name = cfg.name,
        cases = cfg.cases,
        seed = cfg.seed,
        orig = clip(&format!("{value:?}"), 2000),
        shrunk = clip(&format!("{cur:?}"), 4000),
    );
}

/// Runs the property once; `Some(message)` on failure (error or panic).
fn run_case<V, F>(prop: &F, value: &V) -> Option<String>
where
    F: Fn(&V) -> Result<(), String>,
{
    let _quiet = QuietPanics::enter();
    match panic::catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(panic_message(&*payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn clip(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let cut = (0..=max).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0);
    format!("{}… [{} bytes clipped]", &s[..cut], s.len() - cut)
}

/// Suppresses the default panic-hook backtrace spam for panics raised on
/// threads currently inside [`run_case`] — shrinking may execute hundreds
/// of intentionally-failing candidates. Panics from other threads (e.g.
/// unrelated tests in the same process) still reach the previous hook.
struct QuietPanics;

fn suppressed() -> &'static Mutex<HashSet<ThreadId>> {
    static SET: OnceLock<Mutex<HashSet<ThreadId>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

impl QuietPanics {
    fn enter() -> QuietPanics {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                let me = std::thread::current().id();
                let quiet = suppressed().lock().map(|s| s.contains(&me)).unwrap_or(false);
                if !quiet {
                    prev(info);
                }
            }));
        });
        if let Ok(mut set) = suppressed().lock() {
            set.insert(std::thread::current().id());
        }
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Ok(mut set) = suppressed().lock() {
            set.remove(&std::thread::current().id());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn passing_property_completes() {
        let cfg = Config::new("always_true").with_cases(64);
        check(&cfg, &gen::u64_any(), |_| Ok(()));
    }

    #[test]
    fn case_seeds_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..64).map(|i| case_seed(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| case_seed(1, i)).collect();
        assert_eq!(a, b);
        let distinct: std::collections::BTreeSet<&u64> = a.iter().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn failing_property_reports_and_shrinks() {
        // Falsify "no vector contains a value >= 100" and confirm the
        // report carries the seed and a fully-shrunk counterexample.
        let cfg = Config {
            name: "no_big_values",
            cases: 200,
            seed: 0x5EED,
            max_shrink_rounds: 1024,
            max_shrink_candidates: 4096,
        };
        let g = gen::vec_of(gen::u64_in(0..256), 0, 20);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            check(&cfg, &g, |v| {
                if v.iter().any(|&x| x >= 100) {
                    Err(format!("contains big value: {v:?}"))
                } else {
                    Ok(())
                }
            });
        }));
        let msg = panic_message(&*outcome.expect_err("property must be falsified"));
        assert!(msg.contains("no_big_values"), "report names the property: {msg}");
        assert!(msg.contains("0x0000000000005eed"), "report prints the seed: {msg}");
        // Greedy shrinking must reach the minimal counterexample: the
        // single-element vector [100].
        assert!(
            msg.contains("shrunk input") && msg.contains("[100]"),
            "minimal counterexample found: {msg}"
        );
    }

    #[test]
    fn shrunk_failure_reproduces_from_seed() {
        // Two runs with the same seed falsify on the identical case and
        // shrink to the identical counterexample — the reproduction
        // contract printed in every report.
        let run = || {
            let cfg = Config {
                name: "repro",
                cases: 500,
                seed: 0xABCD_EF01,
                max_shrink_rounds: 1024,
                max_shrink_candidates: 4096,
            };
            let g = gen::vec_of(gen::u64_any(), 0, 30);
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                check(&cfg, &g, |v| {
                    let sum: u64 = v.iter().fold(0, |a, &b| a.wrapping_add(b));
                    if sum % 7 == 3 {
                        Err("sum hit the bad residue".into())
                    } else {
                        Ok(())
                    }
                });
            }));
            panic_message(&*out.expect_err("must fail"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let cfg = Config {
            name: "panics_on_big",
            cases: 200,
            seed: 7,
            max_shrink_rounds: 1024,
            max_shrink_candidates: 4096,
        };
        let g = gen::u64_in(0..1000);
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            check(&cfg, &g, |&v| {
                assert!(v < 500, "value too big: {v}");
                Ok(())
            });
        }));
        let msg = panic_message(&*out.expect_err("must fail"));
        // Integer halving toward the range floor lands exactly on the
        // boundary value.
        assert!(msg.contains("500"), "shrunk to the boundary: {msg}");
    }

    #[test]
    fn parallel_runner_matches_serial_report() {
        // check and check_parallel must produce the identical failure
        // report: same falsified case, same shrunk counterexample, same
        // message — regardless of worker scheduling.
        let drive = |parallel: bool| {
            let cfg = Config {
                name: "no_big_values_par",
                cases: 200,
                seed: 0x5EED,
                max_shrink_rounds: 1024,
                max_shrink_candidates: 4096,
            };
            let g = gen::vec_of(gen::u64_in(0..256), 0, 20);
            let prop = |v: &Vec<u64>| {
                if v.iter().any(|&x| x >= 100) {
                    Err(format!("contains big value: {v:?}"))
                } else {
                    Ok(())
                }
            };
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if parallel {
                    check_parallel(&cfg, &g, prop);
                } else {
                    check(&cfg, &g, prop);
                }
            }));
            panic_message(&*out.expect_err("property must be falsified"))
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn parallel_runner_passes_clean_properties() {
        let cfg = Config::new("always_true_par").with_cases(64);
        check_parallel(&cfg, &gen::u64_any(), |_| Ok(()));
    }

    #[test]
    fn name_folding_is_deterministic_and_distinct() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        // env_u64 itself is exercised through Config::new in the selftest
        // integration test; here we only pin the name-folding hash.
        assert_eq!(fnv1a(b"queue"), fnv1a(b"queue"));
    }
}
