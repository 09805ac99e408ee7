//! The repository's benchmark: five workloads through the crates' public
//! functions, end-to-end numbers untraced, every layer's numbers traced.
//! See `benchmark/README.md`.

mod compare;
mod corpus;
mod dist;
mod harness;
mod host;
mod prims;
mod schema;
mod serve;
mod stats;
mod tracing;
mod train;

use corpus::NetKind;
use harness::Tally;
use schema::{Metrics, Workload};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  cgdnn-benchmark [run] --workload W --seed N [--seconds S] [--trace 0|1] [--out FILE]
      one run of one workload; the last line of stdout is the result as JSON
  cgdnn-benchmark [run] --seed N [--seconds S] [--out FILE]
      every workload untraced, then one traced run; a process each
  cgdnn-benchmark compare A.jsonl B.jsonl
      hold two --out files against the bounds of BENCHMARK.json
  cgdnn-benchmark schema
      the metric names and units this build reports, one per line
workloads: train_lenet train_cifar serve_unary serve_pipelined dist_lenet";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 0.0,
        trace: None,
        out: None,
    };
    let (mut seed_given, mut seconds_given) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !seed_given {
        return Err("--seed is required: inputs are made from it".into());
    }
    if !seconds_given {
        parsed.seconds = schema::Contract::load()?.run_seconds;
    }
    Ok(parsed)
}

/// One run's result, ready to print.
struct Outcome {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

/// The untraced run: end-to-end metrics of one workload.
fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let e2e = match workload {
        Workload::TrainLenet => train::run(NetKind::Lenet, seed, seconds),
        Workload::TrainCifar => train::run(NetKind::Cifar, seed, seconds),
        Workload::ServeUnary => serve::run(serve::Mode::Unary, seed, seconds),
        Workload::ServePipelined => serve::run(serve::Mode::Pipelined, seed, seconds),
        Workload::DistLenet => dist::run(seed, seconds),
    }?;
    let mut m = Metrics::new();
    m.insert("setup_s".into(), e2e.setup_s);
    m.insert("throughput_per_s".into(), e2e.throughput_per_s);
    m.insert("latency_ms_p50".into(), e2e.latency_ms_p50);
    m.insert("peak_rss_mb".into(), host::peak_rss_mib()?);
    println!("{} ops timed over {} rounds", e2e.samples, harness::ROUNDS);
    Ok(Outcome {
        tally: e2e.tally,
        metrics: schema::collect(&schema::end_to_end(), &m)?,
    })
}

/// The traced run: every layer's metrics. Each is a property of a layer
/// on a stated input, so all are measured whatever the workload; the
/// workload named gets the long window, the untraced twin that prices the
/// tracing itself, and the Chrome trace.
fn run_traced(focus: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let plan = harness::TracePlan {
        focus,
        seconds,
        budget: Duration::from_secs_f64(seconds * 0.004),
    };
    let mut m = Metrics::new();
    let mut tally = Tally::default();
    prims::probe(seed, plan.budget, &mut m)?;
    for kind in NetKind::ALL {
        train::probe(kind, seed, &plan, &mut m, &mut tally)?;
    }
    serve::probe(seed, &plan, &mut m, &mut tally)?;
    dist::probe(seed, &plan, &mut m, &mut tally)?;
    Ok(Outcome {
        tally,
        metrics: schema::collect(&schema::per_layer(), &m)?,
    })
}

/// The result object of the driver's contract.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

/// What is about to be printed must be what `BENCHMARK.json` promises:
/// the workload, and exactly its names and units for this mode.
fn check_against_contract(
    workload: Workload,
    traced: bool,
    outcome: &Outcome,
) -> Result<(), String> {
    let contract = schema::Contract::load()?;
    if !contract.workloads.iter().any(|w| w == workload.name()) {
        return Err(format!(
            "BENCHMARK.json has no workload '{}'",
            workload.name()
        ));
    }
    let promised: Vec<(&str, &str)> = if traced {
        contract
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect()
    } else {
        contract
            .end_to_end
            .iter()
            .map(|(n, u, ..)| (n.as_str(), u.as_str()))
            .collect()
    };
    let measured: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), *u))
        .collect();
    if promised != measured {
        return Err("measured metric names or units differ from BENCHMARK.json".into());
    }
    Ok(())
}

fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let traced = args.trace.unwrap_or(false);
    let host = host::Host::detect();
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {} | {} | {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(traced),
        host.nproc,
        host.cpu_model,
        host.rustc
    );
    let outcome = if traced {
        run_traced(workload, args.seed, args.seconds)
    } else {
        run_end_to_end(workload, args.seed, args.seconds)
    }?;
    if outcome.tally.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    check_against_contract(workload, traced, &outcome)?;
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!(
        "ops_attempted {} ops_failed {}",
        outcome.tally.attempted, outcome.tally.failed
    );
    let json = result_json(&outcome);
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, {}\n",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(traced),
            host.json(),
            &json[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{json}");
    Ok(())
}

/// Every workload in a process of its own, so `peak_rss_mb` and the
/// global registries start clean for each.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Workload::ALL
        .map(|w| (w, args.trace.unwrap_or(false)))
        .to_vec();
    if args.trace.is_none() {
        runs.push((Workload::TrainLenet, true));
    }
    for (workload, traced) in runs {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            child.args(["--out", out]);
        }
        let status = child.status().map_err(|e| format!("spawning a run: {e}"))?;
        if !status.success() {
            return Err(format!(
                "{} (trace {}) exited with {status}",
                workload.name(),
                u8::from(traced)
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(a, b).and_then(|ok| {
                if ok {
                    Ok(())
                } else {
                    Err("a bound was exceeded or an operation failed".into())
                }
            }),
            _ => Err(format!("compare takes two files\n{USAGE}")),
        },
        Some("schema") => {
            // What BENCHMARK.json must list; paste from here when a metric
            // is added, since every run refuses to print past a stale file.
            for (mode, metrics) in [
                ("end_to_end", schema::end_to_end()),
                ("per_layer", schema::per_layer()),
            ] {
                for (name, unit) in metrics {
                    println!("{mode} {name} {unit}");
                }
            }
            Ok(())
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        first => {
            let rest = if first == Some("run") {
                &argv[1..]
            } else {
                &argv[..]
            };
            parse_args(rest)
                .map_err(|e| format!("{e}\n{USAGE}"))
                .and_then(|args| match args.workload {
                    Some(w) => run_one(w, &args),
                    None => run_all(&args),
                })
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cgdnn-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_driver_command_line_parses() {
        let argv: Vec<String> = "--workload serve_unary --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload, Some(Workload::ServeUnary));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, Some(true)));
        assert!(parse_args(&argv[..2]).is_err(), "a run without --seed");
        assert!(parse_args(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 10,
                failed: 1,
            },
            metrics: vec![("setup_s".into(), 0.8127, "s")],
        };
        let parsed = obs::json::parse(&result_json(&outcome)).unwrap();
        let obs::json::Value::Object(map) = &parsed else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&obs::json::Value::Bool(false)));
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
