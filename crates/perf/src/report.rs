//! What a run reports: the per-workload outcome, the driver's one-line
//! JSON contract, the human table and the result files under `--out`.

use crate::spec::Benchmark;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The result of one workload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) pass, or end-to-end (tracing off)?
    pub trace: bool,
    /// Operations issued in the measured window (plus post-window
    /// restarts and verifications where the workload has them).
    pub attempted: u64,
    /// Of those, how many errored, were refused or returned a result
    /// the oracle rejects.
    pub failed: u64,
    /// Did the run keep its own house in order (generator on time,
    /// threads and descriptors returned after teardown)?
    pub valid: bool,
    /// Set-ups built and thrown away because node 0 answered a corpus
    /// query wrongly (README, "A product defect the oracle found").
    /// Their searches are not in `attempted`: the window ran on the
    /// set-up that passed.
    #[serde(default)]
    pub setups_discarded: u32,
    /// Why not, and anything else a reader should know.
    pub notes: Vec<String>,
    /// Metric name -> value, exactly the declared set for `trace`.
    pub metrics: BTreeMap<String, Metric>,
    /// Sample counts behind the timing metrics.
    pub samples: BTreeMap<String, u64>,
}

/// The last line of standard output, as the driver reads it.
#[derive(Debug, Serialize, Deserialize)]
pub struct ContractLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// A result file: every outcome of one invocation plus what a reader
/// needs to interpret them.
#[derive(Debug, Serialize, Deserialize)]
pub struct ResultFile {
    pub benchmark: String,
    /// Where the traffic went and what the clocks are worth.
    pub environment: String,
    /// The fixed node configuration.
    pub node_config: String,
    pub outcomes: Vec<Outcome>,
}

impl Outcome {
    /// An outcome with nothing measured yet.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            valid: true,
            setups_discarded: 0,
            notes: Vec::new(),
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Were all outputs correct and the run itself valid?
    pub fn correct(&self) -> bool {
        self.valid && self.failed == 0 && self.attempted > 0
    }

    /// Mark the run invalid, saying why.
    pub fn invalidate(&mut self, why: String) {
        self.valid = false;
        self.notes.push(why);
    }

    /// Keep exactly the metrics `BENCHMARK.json` declares for this kind
    /// of pass, attaching their units. A declared metric the run did
    /// not compute is an error in the benchmark itself.
    pub fn finish(&mut self, values: BTreeMap<String, f64>, spec: &Benchmark) {
        for (name, unit) in spec.declared(self.trace) {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("`{name}` is declared but was not measured"));
            self.metrics.insert(
                name.to_string(),
                Metric {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
    }

    /// The driver's contract line.
    pub fn contract_line(&self) -> String {
        let line = ContractLine {
            correct: self.correct(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: self.metrics.clone(),
        };
        serde_json::to_string(&line).expect("the contract line serializes")
    }

    /// Every metric by name with its unit (and sample count).
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {:.0} s window, {}) attempted {} failed {} fail_share {:.4}, \
             set-ups discarded {}{}",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace {
                "per-layer pass"
            } else {
                "end-to-end pass"
            },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.setups_discarded,
            if self.valid { "" } else { " INVALID" },
        );
        for (name, m) in &self.metrics {
            match self.samples.get(name) {
                Some(n) => println!("  {name:<34} {:>16.4} {:<8} n={n}", m.value, m.unit),
                None => println!("  {name:<34} {:>16.4} {}", m.value, m.unit),
            }
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

/// One line on where the numbers come from. `run.py` says through
/// `PLANETP_PERF_CRATES` whether it built against the published
/// external crates or the stand-ins; numbers of the two do not compare.
pub fn environment_text() -> String {
    let crates = match std::env::var("PLANETP_PERF_CRATES").as_deref() {
        Ok("stand-ins") => "crates/perf/stand-ins, NOT the published ones",
        _ => "the published ones",
    };
    format!(
        "one process, all nodes on 127.0.0.1 (host loopback, no injected delay); load from at \
         most 2 client threads; {} CPUs available; fsync latency is the sandbox file system's; \
         external crates (serde, serde_json, rand, parking_lot): {crates}",
        std::thread::available_parallelism().map_or(0, usize::from)
    )
}

/// Write `outcomes` as `<dir>/<file>`.
pub fn write_results(dir: &Path, file: &str, outcomes: Vec<Outcome>) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let body = ResultFile {
        benchmark: "planetp-perf".to_string(),
        environment: environment_text(),
        node_config: crate::community::node_config_text(),
        outcomes,
    };
    let text = serde_json::to_string_pretty(&body).expect("results serialize");
    std::fs::write(dir.join(file), text)
}
