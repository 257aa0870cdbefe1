//! `maple-perf compare PARENT_DIR CHANGE_DIR`: the A/B verdict over the
//! `--out` files of alternating parent and change runs.
//!
//! Runs pair up by workload and seed. For every metric × workload the
//! report gives each side's median and quartiles, the share of pairs the
//! change wins, and a verdict: a gain needs the change to win at least
//! nine tenths of the pairs and the medians to differ by more than the
//! parent's quartile spread; a regression is a median worse by more than
//! the metric's bound; a spread wider than the bound leaves the metric
//! unresolved unless every change run beats every parent run. Exact
//! counters are diffed seed by seed.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use maple_trace::Json;

use crate::metrics::{self, Better};

/// One `--out` file.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, f64>,
}

fn number_map(doc: &Json, key: &str, inner: Option<&str>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Object(members)) = doc.get(key) {
        for (name, v) in members {
            let v = inner.map_or(Some(v), |k| v.get(k));
            if let Some(x) = v.and_then(Json::as_f64) {
                out.insert(name.clone(), x);
            }
        }
    }
    out
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(seed)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("seed").and_then(Json::as_u64),
        ) else {
            return Err(format!("{}: not a maple-perf --out file", path.display()));
        };
        runs.push(Run {
            workload: workload.to_string(),
            seed,
            metrics: number_map(&doc, "metrics", Some("value")),
            exact: number_map(&doc, "exact", None),
        });
    }
    if runs.is_empty() {
        return Err(format!("{} holds no .json run files", dir.display()));
    }
    // Stable: files of one seed keep their name order.
    runs.sort_by_key(|r| (r.workload.clone(), r.seed));
    Ok(runs)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method).
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The pairwise comparison of one metric × workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assessment {
    /// Pairs (i-th parent run, i-th change run) the change wins; ties
    /// count for neither side.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// `improved`, `unchanged`, `worse beyond bound` or `unresolved`.
    pub verdict: &'static str,
}

/// Compares parent and change runs of one metric. Without a bound
/// (per-layer metrics) only `improved` and `unresolved` are possible.
#[must_use]
pub fn assess(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Assessment {
    let [p1, pm, p3] = quartiles(parent);
    let [c1, cm, c3] = quartiles(change);
    // Positive when the change is better.
    let gain = |p: f64, c: f64| match better {
        Better::Higher => c - p,
        Better::Lower => p - c,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| gain(**p, **c) > 0.0)
        .count();
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    let spread = |q1: f64, q3: f64, med: f64| {
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    };
    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && gain(pm, cm) > p3 - p1 {
        "improved"
    } else if let Some(bound) = bound {
        if spread(p1, p3, pm).max(spread(c1, c3, cm)) > bound && !all_better {
            "unresolved"
        } else if pm != 0.0 && -gain(pm, cm) / pm.abs() > bound {
            "worse beyond bound"
        } else {
            "unchanged"
        }
    } else if all_better {
        "improved"
    } else {
        "unresolved"
    };
    Assessment {
        wins,
        pairs,
        verdict,
    }
}

/// Renders the comparison of the run files in `parent_dir` and
/// `change_dir`.
///
/// # Errors
///
/// Returns a message when a directory cannot be read, holds no run files,
/// or holds a file that is not a `--out` document.
pub fn compare(parent_dir: &Path, change_dir: &Path) -> Result<String, String> {
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut workloads: Vec<&str> = parent
        .iter()
        .chain(&change)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<28} {:>10} {:>24} {:>24} {:>5}  verdict",
        "workload", "metric", "unit", "parent median [q1,q3]", "change median [q1,q3]", "wins"
    );
    for w in workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == w).collect();
        let names: Vec<&'static metrics::MetricDef> = metrics::END_TO_END
            .iter()
            .chain(&metrics::PER_LAYER)
            .filter(|m| !m.exact && p.iter().chain(&c).any(|r| r.metrics.contains_key(m.name)))
            .collect();
        for m in names {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                let _ = writeln!(
                    out,
                    "{w:<14} {:<28} {:>10} missing on one side",
                    m.name, m.unit
                );
                continue;
            }
            let [p1, pm, p3] = quartiles(&pv);
            let [c1, cm, c3] = quartiles(&cv);
            let a = assess(&pv, &cv, m.better, m.bound);
            let _ = writeln!(
                out,
                "{w:<14} {:<28} {:>10} {:>24} {:>24} {:>2}/{:<2}  {}",
                m.name,
                m.unit,
                format!("{pm:.4} [{p1:.4},{p3:.4}]"),
                format!("{cm:.4} [{c1:.4},{c3:.4}]"),
                a.wins,
                a.pairs,
                a.verdict
            );
        }
        out += &exact_diff(w, &p, &c);
    }
    Ok(out)
}

/// Seed-by-seed diff of the exact counters of one workload.
fn exact_diff(workload: &str, parent: &[&Run], change: &[&Run]) -> String {
    let mut out = String::new();
    let mut seeds = BTreeSet::new();
    let mut counters = 0;
    for p in parent {
        let Some(c) = change.iter().find(|c| c.seed == p.seed) else {
            continue;
        };
        if !seeds.insert(p.seed) {
            continue;
        }
        for (name, pv) in &p.exact {
            counters += 1;
            let cv = c.exact.get(name);
            if cv != Some(pv) {
                let cv = cv.map_or("missing".to_string(), f64::to_string);
                let _ = writeln!(out, "exact {workload} seed {} {name}: {pv} -> {cv}", p.seed);
            }
        }
    }
    if out.is_empty() {
        format!(
            "exact {workload}: {counters} counters identical over {} shared seeds\n",
            seeds.len()
        )
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        let verdict = |p: &[f64], c: &[f64]| assess(p, c, Better::Lower, Some(0.1)).verdict;
        assert_eq!(verdict(&parent, &faster), "improved");
        assert_eq!(verdict(&parent, &slower), "worse beyond bound");
        assert_eq!(verdict(&parent, &parent), "unchanged");
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(verdict(&noisy, &noisy), "unresolved");
        assert_eq!(assess(&parent, &faster, Better::Lower, None).wins, 10);
    }
}
