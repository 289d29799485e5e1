//! The benchmark at `--smoke` scale (3 peers, 2 s windows, 50-operation
//! replay): every workload runs both passes and must emit exactly the
//! metric set `BENCHMARK.json` declares, with no failed operation.
//!
//! One test function on purpose: each workload checks that the process
//! returns to its thread and descriptor counts after teardown, which
//! concurrently running tests would disturb.

use planetp_perf::inputs::Inputs;
use planetp_perf::report::ContractLine;
use planetp_perf::spec::Benchmark;
use planetp_perf::workloads::{run, RunOpts, Scale, UNGATED, WORKLOADS};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// The limits the driver refuses a `BENCHMARK.json` over.
#[test]
fn benchmark_json_is_within_the_contract() {
    let spec = Benchmark::embedded();
    assert_eq!(spec.paths, ["crates/perf"]);
    assert!((1..=32).contains(&spec.command.len()));
    assert!((1..=60).contains(&spec.run_seconds));
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    // The runner has every declared workload, and knows why it has more.
    let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let gated: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|w| !UNGATED.contains(w))
        .collect();
    assert_eq!(declared, gated, "BENCHMARK.json and the runner agree");
    let mut seen = BTreeSet::new();
    for w in &spec.workloads {
        assert!(is_name(&w.name), "workload name {:?}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(seen.insert(w.name.as_str()), "{} declared twice", w.name);
    }
    for m in &spec.end_to_end {
        assert!(is_name(&m.name) && is_unit(&m.unit), "{}", m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        assert!(seen.insert(m.name.as_str()), "{} declared twice", m.name);
    }
    for m in &spec.per_layer {
        assert!(is_name(&m.name) && is_unit(&m.unit), "{}", m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        assert!(seen.insert(m.name.as_str()), "{} declared twice", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let widest = spec.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let spec = Benchmark::embedded();
    let out = std::env::temp_dir().join(format!("planetp-perf-smoke-{}", std::process::id()));
    for trace in [false, true] {
        let units: BTreeMap<&str, &str> = spec.declared(trace).into_iter().collect();
        let declared: BTreeSet<&str> = units.keys().copied().collect();
        for workload in WORKLOADS {
            let opts = RunOpts {
                seed: 5,
                window: Duration::from_secs(2),
                trace,
                scale: Scale::smoke(),
                out: out.clone(),
            };
            let result = run(workload, &opts, &spec).expect("the workload runs");
            let o = &result.outcome;
            assert!(o.valid, "{workload}: {:?}", o.notes);
            assert!(o.attempted > 0, "{workload} attempted nothing");
            assert_eq!(o.failed, 0, "{workload}: {:?}", o.notes);
            let emitted: BTreeSet<&str> = o.metrics.keys().map(String::as_str).collect();
            assert_eq!(emitted, declared, "{workload} trace={trace}");
            for (name, m) in &o.metrics {
                assert!(is_name(name), "{name}");
                assert_eq!(m.unit, units[name.as_str()], "{name}");
                assert!(m.value.is_finite(), "{workload} {name} = {}", m.value);
                // A percentile is reported only with ten samples beyond it.
                let needs = if name.ends_with("_p99_ms") && o.samples.contains_key(name) {
                    1000
                } else if name.ends_with("_p90_ms") && o.samples.contains_key(name) {
                    100
                } else {
                    0
                };
                if m.value > 0.0 {
                    let n = o.samples.get(name).copied().unwrap_or(u64::MAX);
                    assert!(n >= needs, "{workload} {name} from {n} samples");
                }
            }
            if !trace {
                // End-to-end metrics are never 0 (the driver divides).
                assert!(
                    o.metrics.values().all(|m| m.value > 0.0),
                    "{workload}: {o:?}"
                );
            }
            // The driver's line round-trips and carries the same set.
            let line: ContractLine =
                serde_json::from_str(&o.contract_line()).expect("the contract line parses");
            assert!(line.correct && line.failed == 0 && line.attempted >= 1);
            assert_eq!(line.metrics.len(), declared.len());
            assert_eq!(result.spans.is_some(), trace);
            if let Some(spans) = &result.spans {
                assert!(!spans.spans().is_empty(), "{workload} recorded no span");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn the_same_seed_generates_the_same_operations() {
    let ops = |seed: u64| {
        let inputs = Inputs::generate(seed);
        let mut ops = inputs.warm_cycle(0);
        ops.extend((0..20).map(|j| inputs.churn_publish(j, 12)));
        ops.extend((0..20).map(|j| inputs.churn_search(j, j % 7)));
        ops.extend((0..20).map(|j| inputs.durable_publish(j)));
        ops.extend((0..20).map(|j| inputs.converge_update(j, 16)));
        ops
    };
    assert_eq!(ops(11), ops(11));
    assert_ne!(ops(11), ops(12));
}
