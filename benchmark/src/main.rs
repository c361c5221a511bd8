//! `xaas-benchmark`: run one workload, the A/A test, or regenerate the golden file.

use std::process::ExitCode;
use xaas_benchmark::harness::{run_end_to_end, run_traced, Report};
use xaas_benchmark::workloads::{golden_document, Workload};

const USAGE: &str = "\
usage:
  xaas-benchmark [run] <workload> [--seed N] [--seconds S] [--trace [0|1]]
  xaas-benchmark --workload <workload> --seed N --seconds S --trace 0|1
  xaas-benchmark aa [--sets 2] [--runs 7] [--seconds S] [--seed N]
  xaas-benchmark golden            (prints golden/seed13.json)
workloads: warm_deploy cold_build disk_restart mixed_tenants
The last line of a run is its JSON result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1 (which also writes benchmark/out/trace-<workload>.json).";

/// The driver's default run length and the seed of the checked-in golden file.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 13;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: "run".to_string(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 2,
        runs: 7,
    };
    fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
        value
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{flag} needs a number"))
    }
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "run" | "aa" | "golden" => parsed.command = arg.clone(),
            "--workload" => {
                parsed.workload = Some(args.next().ok_or("--workload needs a name")?.clone())
            }
            "--seed" => parsed.seed = number(arg, args.next())?,
            "--seconds" => parsed.seconds = number(arg, args.next())?,
            "--sets" => parsed.sets = number(arg, args.next())?,
            "--runs" => parsed.runs = number(arg, args.next())?,
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` is the driver's form.
                parsed.trace = match args.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            name if !name.starts_with('-') && parsed.workload.is_none() => {
                parsed.workload = Some(name.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if parsed.sets == 0 || parsed.runs == 0 {
        return Err("--sets and --runs must be at least 1".to_string());
    }
    Ok(parsed)
}

fn print_report(report: &Report) {
    println!("env: {}", report.env);
    for metric in report.metrics.iter().chain(&report.notes) {
        println!("{:<44} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!("ops {}  ops_failed {}", report.attempted, report.failed);
    if let Some(error) = &report.first_error {
        eprintln!("first failure: {error}");
    }
    println!("{}", report.result_line());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "golden" => golden_document().map(|document| {
            println!("{document}");
            true
        }),
        "aa" => xaas_benchmark::aa::run(args.sets, args.runs, args.seconds, args.seed),
        _ => {
            let Some(workload) = args.workload.as_deref().and_then(Workload::parse) else {
                eprintln!("name one of the four workloads\n{USAGE}");
                return ExitCode::from(2);
            };
            let run = if args.trace {
                run_traced
            } else {
                run_end_to_end
            };
            run(workload, args.seed, args.seconds).map(|report| {
                print_report(&report);
                report.correct
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("xaas-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}
