//! The A/A test: run the same code as several interleaved sets and ask whether
//! the benchmark's own bounds would have called the difference a regression.
//! Every run is a process of its own (peak RSS is per process) with a seed of
//! its own (the driver varies the seed too).

use crate::platform::{median, quartiles};
use crate::workloads::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared_metrics(benchmark_json: &str) -> Result<Vec<Declared>, String> {
    let document = serde_json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let field = |entry: &Value, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an end_to_end entry lacks `{key}`"))
    };
    document
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|entry| {
            Ok(Declared {
                name: field(entry, "name")?,
                unit: field(entry, "unit")?,
                higher_is_better: field(entry, "better")? == "higher",
                bound: entry
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("BENCHMARK.json: an end_to_end entry lacks `bound`")?,
            })
        })
        .collect()
}

/// One untraced run in a child process; the metrics of its result line.
fn child_run(workload: Workload, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let run = format!("{} seed {seed}", workload.name());
    if !output.status.success() {
        return Err(format!(
            "{run} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{run} printed nothing"))?;
    let result = serde_json::parse(line).map_err(|e| format!("{run}: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or(format!("{run}: no metrics in the result line"))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
        .collect())
}

/// Run `sets` × `runs` untraced runs of every workload, interleaved run by run
/// (set 1 run 1, set 2 run 1, set 1 run 2, …), print the table, and say whether
/// every end-to-end metric's set medians agree within its bound.
pub fn run(sets: usize, runs: usize, seconds: f64, first_seed: u64) -> Result<bool, String> {
    let declared = declared_metrics(
        &std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?,
    )?;
    println!("# A/A: {sets} interleaved sets × {runs} runs of the same code\n");
    println!(
        "`xaas-benchmark aa --sets {sets} --runs {runs} --seconds {seconds}`; every run is its own \
         process with its own seed ({first_seed} + run·sets + set). `spread` is the distance \
         between the first and third quartile over the median (Python's \
         `statistics.quantiles(values, n=4)`), worst set; `worse by` is how much worse the worst \
         set median is than the best. A metric passes when `worse by` is within its bound.\n"
    );
    let mut all_agree = true;
    for workload in Workload::ALL {
        // values[set][metric] = one value per run
        let mut values: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); sets];
        for run in 0..runs {
            for (set, set_values) in values.iter_mut().enumerate() {
                let seed = first_seed + (run * sets + set) as u64;
                for (name, value) in child_run(workload, seed, seconds)? {
                    set_values.entry(name).or_default().push(value);
                }
            }
        }
        println!("## {}\n", workload.name());
        let set_headers: String = (1..=sets).map(|s| format!(" set {s} median |")).collect();
        println!("| metric | unit | better | bound |{set_headers} worse by | spread | verdict |");
        println!("|---|---|---|---|{}---|---|---|", "---|".repeat(sets));
        for metric in &declared {
            let medians: Vec<f64> = values
                .iter()
                .map(|set| median(set.get(&metric.name).map_or(&[][..], Vec::as_slice)))
                .collect::<Option<_>>()
                .ok_or(format!("no run reported {}", metric.name))?;
            let (best, worst) = if metric.higher_is_better {
                (
                    medians.iter().copied().fold(f64::MIN, f64::max),
                    medians.iter().copied().fold(f64::MAX, f64::min),
                )
            } else {
                (
                    medians.iter().copied().fold(f64::MAX, f64::min),
                    medians.iter().copied().fold(f64::MIN, f64::max),
                )
            };
            let worse_by = (worst - best).abs() / best;
            let spread = values
                .iter()
                .filter_map(|set| quartiles(set.get(&metric.name)?))
                .map(|[q1, q2, q3]| (q3 - q1) / q2)
                .fold(0.0, f64::max);
            let agrees = worse_by <= metric.bound;
            all_agree &= agrees;
            let cells: String = medians.iter().map(|m| format!(" {m:.4} |")).collect();
            println!(
                "| {} | {} | {} | {:.1}% |{cells} {:.2}% | {:.2}% | {} |",
                metric.name,
                metric.unit,
                if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                metric.bound * 100.0,
                worse_by * 100.0,
                spread * 100.0,
                if agrees { "ok" } else { "DIFFERS" },
            );
        }
        println!();
    }
    println!(
        "{}",
        if all_agree {
            "All end-to-end metrics agree within their bounds."
        } else {
            "Some end-to-end metrics differ by more than their bound between sets of the same code."
        }
    );
    Ok(all_agree)
}
