//! `compare A B`: judge a candidate's result files against a baseline's
//! by the bounds in `BENCHMARK.json`.
//!
//! Each side is a result file or a directory (searched recursively) of
//! result files from repeated runs; medians are compared. A metric whose
//! run-to-run spread is wider than its bound is *unresolved*, not
//! unchanged — unless every candidate run beats every baseline run.

use crate::measure::median;
use crate::report::{Outcome, ResultFile};
use crate::spec::Benchmark;
use crate::workloads::WORKLOADS;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// `fail_share` may rise by this much, absolutely.
const FAIL_SHARE_SLACK: f64 = 0.005;

/// Verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Within,
    /// Better than the baseline by more than the bound.
    Better,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// The runs of one commit disagree by more than the bound.
    Unresolved,
}

/// One side of a comparison.
#[derive(Debug, Default)]
pub struct Loaded {
    pub outcomes: Vec<Outcome>,
    /// The `environment` line of every file read.
    pub environments: BTreeSet<String>,
}

/// Every outcome found under `path`: a result file, or a directory
/// searched recursively, in which every `.json` file must be one.
pub fn load(path: &Path) -> Result<Loaded, String> {
    let mut loaded = Loaded::default();
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            if entry.is_dir() || entry.extension().is_some_and(|x| x == "json") {
                let more = load(&entry)?;
                loaded.outcomes.extend(more.outcomes);
                loaded.environments.extend(more.environments);
            }
        }
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file: ResultFile = serde_json::from_str(&text)
            .map_err(|e| format!("{}: not a result file: {e}", path.display()))?;
        loaded.outcomes = file.outcomes;
        loaded.environments.insert(file.environment);
    }
    Ok(loaded)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 when unknown.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Judge candidate runs `b` against baseline runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = worse, as a share of the baseline.
    let worse = if ma == 0.0 {
        0.0
    } else if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let clean_sweep = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if spread(a).max(spread(b)) > bound && !clean_sweep {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `workload -> metric -> values over runs`, end-to-end or traced.
fn collect(outcomes: &[Outcome], trace: bool) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for o in outcomes.iter().filter(|o| o.trace == trace) {
        let metrics = out.entry(o.workload.clone()).or_default();
        for (name, m) in &o.metrics {
            metrics.entry(name.clone()).or_default().push(m.value);
        }
        if !trace {
            // A traced outcome carries `fail_share` as a metric already.
            metrics
                .entry("fail_share".to_string())
                .or_default()
                .push(o.failed as f64 / o.attempted.max(1) as f64);
        }
    }
    out
}

/// Print one row per workload × metric; `Ok(true)` if nothing regressed.
pub fn compare(a: &Path, b: &Path, spec: &Benchmark) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    if a.environments != b.environments {
        // Above all: stand-in crates on one side, published on the other.
        println!(
            "WARNING: the sides were measured in different environments and may not compare\n  \
             baseline:  {:?}\n  candidate: {:?}",
            a.environments, b.environments
        );
    }
    let (a, b) = (a.outcomes, b.outcomes);
    let mut clean = true;
    let (base, cand) = (collect(&a, false), collect(&b, false));
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound", "spread"
    );
    // Every workload of the program, also the one the driver skips.
    for w in WORKLOADS {
        let (Some(ma), Some(mb)) = (base.get(w), cand.get(w)) else {
            println!("{w:<16} (not run on both sides)");
            continue;
        };
        for e in &spec.end_to_end {
            let (Some(va), Some(vb)) = (ma.get(&e.name), mb.get(&e.name)) else {
                continue;
            };
            let verdict = judge(va, vb, e.better == "lower", e.bound);
            clean &= verdict != Verdict::Regression;
            let (x, y) = (median(va), median(vb));
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
                w,
                e.name,
                x,
                y,
                100.0 * (y - x) / x.abs().max(f64::MIN_POSITIVE),
                100.0 * e.bound,
                100.0 * spread(va).max(spread(vb)),
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Better => "better",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (runs disagree by more than the bound)",
                }
            );
        }
        // Failures are bounded absolutely, not relatively.
        let (fa, fb) = (median(&ma["fail_share"]), median(&mb["fail_share"]));
        let failed = fb > fa + FAIL_SHARE_SLACK;
        clean &= !failed;
        println!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>8} {:>7} {:>7}  {}",
            w,
            "fail_share",
            fa,
            fb,
            "",
            "+0.005",
            "",
            if failed { "REGRESSION" } else { "within bound" }
        );
    }
    // Per-layer numbers have no bound: show where a change landed.
    let (base, cand) = (collect(&a, true), collect(&b, true));
    for (workload, ma) in &base {
        let Some(mb) = cand.get(workload) else {
            continue;
        };
        println!("-- per-layer, {workload} (informative)");
        for (name, va) in ma {
            let Some(vb) = mb.get(name) else { continue };
            let (x, y) = (median(va), median(vb));
            if x != 0.0 || y != 0.0 {
                println!(
                    "   {:<34} {:>16.4} {:>16.4} {:>+8.1}%",
                    name,
                    x,
                    y,
                    100.0 * (y - x) / x.abs().max(f64::MIN_POSITIVE)
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&steady, &[100.0, 102.0, 101.0, 100.0], true, 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0, 120.0], true, 0.10),
            Verdict::Regression
        );
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], true, 0.10),
            Verdict::Better
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], false, 0.10),
            Verdict::Regression
        );
        // Runs that disagree by more than the bound resolve nothing...
        let noisy = [100.0, 140.0, 70.0, 120.0];
        assert_eq!(
            judge(&noisy, &[100.0, 100.0, 100.0, 100.0], true, 0.10),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every baseline run.
        assert_eq!(
            judge(&noisy, &[50.0, 51.0, 49.0, 50.0], true, 0.10),
            Verdict::Better
        );
    }
}
