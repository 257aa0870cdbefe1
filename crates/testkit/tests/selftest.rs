//! End-to-end selftest of the public maple-testkit API: the example from
//! the crate docs, macro-based properties, and the environment-variable
//! reproduction contract.

use maple_testkit::{check, gen, tk_assert, tk_assert_eq, Config, Gen};

#[test]
fn doc_example_reverse_reverse_identity() {
    let vecs = gen::vec_of(gen::u64_in(0..100), 0, 16);
    check(&Config::new("reverse_reverse_id"), &vecs, |v| {
        let mut w = v.clone();
        w.reverse();
        w.reverse();
        tk_assert!(w == *v, "double reverse changed {v:?} into {w:?}");
        Ok(())
    });
}

#[test]
fn tuple_and_choice_generators_compose() {
    let g = (
        gen::u32_in(1..64),
        gen::choice(vec!["spmv", "sdhp", "bfs"]),
        gen::bools(),
    );
    check(
        &Config::new("tuple_compose").with_cases(128),
        &g,
        |(n, kernel, flag)| {
            tk_assert!(*n >= 1 && *n < 64, "n out of range: {n}");
            tk_assert!(
                ["spmv", "sdhp", "bfs"].contains(kernel),
                "bad kernel {kernel}"
            );
            let _ = flag;
            Ok(())
        },
    );
}

#[test]
fn tk_assert_eq_reports_both_values() {
    let cfg = Config {
        name: "eq_macro",
        cases: 10,
        seed: 1,
        max_shrink_rounds: 16,
        max_shrink_candidates: 64,
    };
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check(&cfg, &gen::just(41u64), |&v| {
            tk_assert_eq!(v + 1, 43, "off-by-one check");
            Ok(())
        });
    }));
    let payload = out.expect_err("must fail");
    let msg = payload
        .downcast_ref::<String>()
        .expect("report is a String payload");
    assert!(msg.contains("off-by-one check"), "{msg}");
    assert!(msg.contains("left: 42"), "{msg}");
    assert!(msg.contains("right: 43"), "{msg}");
}

/// This test owns the env-var contract, so it is the only test in the
/// binary that mutates the environment. Integration tests in this file
/// otherwise avoid `MAPLE_TESTKIT_*` to keep runs independent.
#[test]
fn env_seed_override_replays_identical_cases() {
    let gen_under = gen::vec_of(gen::u64_any(), 1, 8);
    let collect = || {
        let cfg = Config::new("env_replay");
        let seen = std::cell::RefCell::new(Vec::new());
        check(&cfg.clone().with_cases(16), &gen_under, |v| {
            seen.borrow_mut().push(v.clone());
            Ok(())
        });
        let seen = seen.into_inner();
        (cfg.seed, seen)
    };

    std::env::set_var("MAPLE_TESTKIT_SEED", "0xfeed_beef".replace('_', ""));
    let (seed_a, run_a) = collect();
    std::env::set_var("MAPLE_TESTKIT_SEED", "4276993775"); // same value, decimal
    let (seed_b, run_b) = collect();
    std::env::remove_var("MAPLE_TESTKIT_SEED");
    let (seed_c, _) = collect();

    assert_eq!(seed_a, 0xFEED_BEEF);
    assert_eq!(seed_a, seed_b, "hex and decimal parse to the same seed");
    assert_eq!(
        run_a, run_b,
        "same seed replays the identical case sequence"
    );
    assert_ne!(
        seed_c, seed_a,
        "unset env falls back to the name-derived seed"
    );
}

#[test]
fn custom_gen_impl_with_domain_shrink() {
    /// A domain-specific generator: power-of-two sizes, shrinking by
    /// halving — the pattern the workload oracles use for queue
    /// capacities and mesh dimensions.
    struct PowerOfTwo {
        max_log2: u32,
    }
    impl Gen for PowerOfTwo {
        type Value = u64;
        fn generate(&self, rng: &mut maple_testkit::SimRng) -> u64 {
            1u64 << rng.below(u64::from(self.max_log2) + 1)
        }
        fn shrink(&self, value: &u64) -> Vec<u64> {
            if *value > 1 {
                vec![value >> 1]
            } else {
                Vec::new()
            }
        }
    }

    check(
        &Config::new("pow2_in_range"),
        &PowerOfTwo { max_log2: 12 },
        |&v| {
            tk_assert!(v.is_power_of_two(), "not a power of two: {v}");
            tk_assert!(v <= 4096, "too large: {v}");
            Ok(())
        },
    );

    // And its shrink ladder terminates at 1.
    let cfg = Config {
        name: "pow2_shrink",
        cases: 50,
        seed: 99,
        max_shrink_rounds: 64,
        max_shrink_candidates: 256,
    };
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check(&cfg, &PowerOfTwo { max_log2: 12 }, |&v| {
            tk_assert!(v == 0, "never zero: {v}");
            Ok(())
        });
    }));
    let payload = out.expect_err("must fail");
    let msg = payload.downcast_ref::<String>().expect("String payload");
    assert!(
        msg.contains("shrunk input")
            && msg
                .lines()
                .any(|l| l.contains("shrunk input") && l.ends_with(": 1")),
        "halving ladder reaches the minimal power of two: {msg}"
    );
}
