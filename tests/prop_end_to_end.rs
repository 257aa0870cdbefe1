//! Property tests at the full-system level: for randomly generated
//! problem instances, every execution strategy computes exactly the host
//! reference — the model-level analogue of the paper's formal
//! verification giving confidence across the input space.

use maple_testkit::{check, gen, tk_assert, Config, SimRng};
use maple_workloads::data::{dense_vector, Csr};
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmv::Spmv;
use maple_workloads::Variant;

/// Random small CSR: `rows` rows, up to 8 nonzeros each, expanded
/// deterministically from `seed`.
fn random_csr(rows: usize, ncols: usize, seed: u64) -> Csr {
    let mut rng = SimRng::seed(seed);
    let rows_vec: Vec<Vec<(u32, u32)>> = (0..rows)
        .map(|_| {
            let nnz = rng.below(9) as usize;
            let mut cols: Vec<u32> = (0..nnz).map(|_| rng.below(ncols as u64) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            cols.into_iter()
                .map(|c| (c, 1 + rng.below(100) as u32))
                .collect()
        })
        .collect();
    Csr::from_rows(rows, ncols, &rows_vec)
}

// Full-system runs are expensive; a handful of random cases per property
// still covers empty rows, single rows, duplicate gather targets and
// skewed shapes. Shrinking the (rows, seed, vec seed) triple reduces the
// instance toward a single row built from seed zero.

#[test]
fn spmv_variants_match_reference() {
    let inputs = (gen::usize_in(1..24), gen::u64_any(), gen::u64_in(0..1000));
    let cfg = Config::new("spmv_variants_match_reference").with_cases(8);
    check(&cfg, &inputs, |&(rows, csr_seed, x_seed)| {
        let a = random_csr(rows, 1024, csr_seed);
        let x = dense_vector(1024, x_seed);
        let inst = Spmv { a, x };
        for (v, t) in [
            (Variant::Doall, 1),
            (Variant::MapleDecoupled, 2),
            (Variant::MapleLima, 1),
        ] {
            let s = inst.run(v, t);
            tk_assert!(s.verified, "{} diverged from reference", v.label());
        }
        Ok(())
    });
}

#[test]
fn sdhp_variants_match_reference() {
    let inputs = (gen::usize_in(1..16), gen::u64_any(), gen::u64_in(0..1000));
    let cfg = Config::new("sdhp_variants_match_reference").with_cases(8);
    check(&cfg, &inputs, |&(rows, csr_seed, sdhp_seed)| {
        let a = random_csr(rows, 512, csr_seed);
        let inst = Sdhp::from_sparse(&a, sdhp_seed);
        for (v, t) in [
            (Variant::Doall, 2),
            (Variant::SwDecoupled, 2),
            (Variant::Desc, 2),
        ] {
            let s = inst.run(v, t);
            tk_assert!(s.verified, "{} diverged from reference", v.label());
        }
        Ok(())
    });
}
