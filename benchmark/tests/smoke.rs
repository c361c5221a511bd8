//! Every workload at 1/100 of its size, outputs checked against the reference,
//! and the metric names checked against `BENCHMARK.json`.

use serde_json::Value;
use std::collections::BTreeSet;
use xaas_benchmark::harness::{end_to_end, run_traced, Report};
use xaas_benchmark::workloads::Workload;

/// 1/100 of the issue's 25-second runs.
const SECONDS: f64 = 0.25;

fn declared(section: &str) -> BTreeSet<String> {
    let document = serde_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
    document[section]
        .as_array()
        .expect("a list")
        .iter()
        .map(|entry| entry["name"].as_str().expect("a name").to_string())
        .collect()
}

fn reported(report: &Report) -> BTreeSet<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_clean(report: &Report, what: &str) {
    assert!(
        report.correct && report.failed == 0,
        "{what}: {} of {} failed: {:?}",
        report.failed,
        report.attempted,
        report.first_error
    );
    assert!(report.attempted >= 1, "{what}");
    for metric in &report.metrics {
        assert!(
            metric.value.is_finite(),
            "{what}: {} is not finite",
            metric.name
        );
    }
    let line = serde_json::parse(&report.result_line()).expect("the result line is JSON");
    assert_eq!(line["correct"].as_bool(), Some(true), "{what}");
}

#[test]
fn every_workload_runs_clean_and_reports_the_declared_metrics() {
    let names: Vec<String> = declared_workloads();
    assert_eq!(
        names,
        Workload::ALL.map(|w| w.name().to_string()),
        "BENCHMARK.json names the four workloads"
    );
    for workload in Workload::ALL {
        // Seed 13 also checks the reference against the checked-in golden file.
        // One set-up instead of the real run's three or more keeps this in seconds.
        let report = end_to_end(workload, 13, SECONDS, (1, 0.0, 1)).expect("the run sets up");
        assert_clean(&report, workload.name());
        assert_eq!(
            reported(&report),
            declared("end_to_end"),
            "{}",
            workload.name()
        );
        for metric in &report.metrics {
            assert!(
                metric.value > 0.0,
                "{}: {} is zero",
                workload.name(),
                metric.name
            );
        }
    }
}

fn declared_workloads() -> Vec<String> {
    let document = serde_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
    document["workloads"]
        .as_array()
        .expect("a list")
        .iter()
        .map(|entry| entry["name"].as_str().expect("a name").to_string())
        .collect()
}

#[test]
fn the_traced_run_reports_every_layer_and_writes_its_spans() {
    for (workload, seed) in [(Workload::WarmDeploy, 14), (Workload::DiskRestart, 15)] {
        let report = run_traced(workload, seed, SECONDS).expect("the run sets up");
        assert_clean(&report, workload.name());
        assert_eq!(
            reported(&report),
            declared("per_layer"),
            "{}",
            workload.name()
        );
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect(name)
        };
        assert_eq!(value("cache.recompute_ratio"), 0.0, "{}", workload.name());
        assert_eq!(value("analysis.denies"), 0.0);
        let shares = value("plan.share_of_latency")
            + value("executor.exec_share_of_latency")
            + value("executor.queue_share_of_latency")
            + value("client.unattributed_share");
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        if workload == Workload::DiskRestart {
            assert!(value("tier.disk_hits_per_op") > 0.0);
            assert!(value("tier.open_ms") > 0.0);
        }
        let path =
            xaas_benchmark::workloads::out_dir().join(format!("trace-{}.json", workload.name()));
        let spans = serde_json::parse(&std::fs::read_to_string(&path).expect("span file"))
            .expect("the span file is JSON");
        assert_eq!(
            spans["spans"].as_array().map(Vec::len),
            Some(value("trace.spans") as usize)
        );
        assert!(matches!(spans["seed"], Value::Number(_)));
    }
}
