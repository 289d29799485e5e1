//! `planetp-perf run|trace|compare` — see the crate's README.md.

use planetp_perf::compare::compare;
use planetp_perf::report::{environment_text, write_results, Outcome};
use planetp_perf::spec::Benchmark;
use planetp_perf::trace::Span;
use planetp_perf::workloads::{run, RunOpts, Scale, WORKLOADS};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  planetp-perf run     [--workload W|all] [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out DIR]
  planetp-perf trace   [--workload W|all] [--seed S] [--seconds T] [--smoke] [--out DIR]
  planetp-perf compare BASELINE CANDIDATE   (result files, or directories of them)
workloads: search-warm, search-churn, publish-durable, gossip-converge";

/// `trace.json`: a result file (what `compare` reads) with every
/// recorded span added.
#[derive(Serialize)]
struct TraceFile<'a> {
    benchmark: &'static str,
    environment: String,
    node_config: String,
    outcomes: &'a [Outcome],
    spans: BTreeMap<&'a str, &'a [Span]>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/perf"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn run_command(args: Args, spec: &Benchmark) -> Result<(), String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let default_seconds = if args.smoke {
        2.0
    } else {
        spec.run_seconds as f64
    };
    let opts = RunOpts {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds.unwrap_or(default_seconds)),
        trace: args.trace,
        scale,
        out: args.out.clone(),
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    println!("planetp-perf: {}", environment_text());
    let mut results = Vec::new();
    for name in &names {
        let result = run(name, &opts, spec)?;
        result.outcome.print_table();
        results.push(result);
    }
    let outcomes: Vec<Outcome> = results.iter().map(|r| r.outcome.clone()).collect();
    if args.trace {
        write_trace(&args.out, &outcomes, &results)?;
    } else {
        write_results(&args.out, "results.json", outcomes.clone())
            .map_err(|e| format!("writing results: {e}"))?;
    }
    let _ = std::fs::remove_dir(args.out.join("data"));
    // The driver reads the last line of a single-workload run.
    if let [only] = outcomes.as_slice() {
        println!("{}", only.contract_line());
    }
    Ok(())
}

fn write_trace(
    out: &Path,
    outcomes: &[Outcome],
    results: &[planetp_perf::workloads::RunResult],
) -> Result<(), String> {
    let spans = results
        .iter()
        .filter_map(|r| Some((r.outcome.workload.as_str(), r.spans.as_ref()?.spans())))
        .collect();
    let file = TraceFile {
        benchmark: "planetp-perf",
        environment: environment_text(),
        node_config: planetp_perf::community::node_config_text(),
        outcomes,
        spans,
    };
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let text = serde_json::to_string(&file).map_err(|e| format!("trace.json: {e}"))?;
    std::fs::write(out.join("trace.json"), text).map_err(|e| format!("trace.json: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let spec = Benchmark::embedded();
    let outcome = parse(rest).and_then(|mut args| match command.as_str() {
        "run" => run_command(args, &spec),
        "trace" => {
            args.trace = true;
            run_command(args, &spec)
        }
        "compare" => match args.positional.as_slice() {
            [a, b] => match compare(Path::new(a), Path::new(b), &spec)? {
                true => Ok(()),
                false => Err("regression: a metric worsened by more than its bound".into()),
            },
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("planetp-perf: {why}");
            ExitCode::FAILURE
        }
    }
}
