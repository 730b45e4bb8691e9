//! Smoke-mode runs of every workload (tiny dataset, in-process server):
//! the output checks pass on correct outputs, every metric listed in
//! `BENCHMARK.json` is reported, and tampered expectations are counted
//! as failures.

use perfbench::report::Report;
use perfbench::{run, Config, Workload};
use serde::Value;
use std::path::PathBuf;

fn smoke(workload: Workload, tag: &str) -> Config {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let mut cfg = Config::new(workload, dir);
    cfg.smoke = true;
    cfg.seconds = 1.0;
    cfg
}

/// Metric names of one list in `BENCHMARK.json`.
fn listed(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &Value, k: &str| -> Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(key, _)| key == k))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {k}"))
    };
    field(&doc, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| field(m, "name").as_str().expect("name").to_string())
        .collect()
}

fn names(metrics: &[perfbench::report::Metric]) -> Vec<String> {
    let mut v: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
    v.sort();
    v
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn assert_clean(report: &Report, what: &str) {
    assert!(
        report.correct(),
        "{what}: failed {} of {}, problems {:?}, notes {:?}",
        report.failed,
        report.attempted,
        report.problems,
        report.notes
    );
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_listed_metrics() {
    let end_to_end = sorted(listed("end_to_end"));
    for workload in Workload::ALL {
        let report = run(&smoke(workload, &format!("{}-plain", workload.name())));
        assert_clean(&report, workload.name());
        assert_eq!(names(&report.end_to_end), end_to_end, "{}", workload.name());
        assert!(report
            .end_to_end
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let per_layer = sorted(listed("per_layer"));
    for workload in Workload::ALL {
        let mut cfg = smoke(workload, &format!("{}-trace", workload.name()));
        cfg.trace = true;
        let report = run(&cfg);
        assert_clean(&report, workload.name());
        assert_eq!(names(&report.layers), per_layer, "{}", workload.name());
        let spans =
            cfg.work_dir
                .join("traces")
                .join(format!("{}-seed{}.json", workload.name(), cfg.seed));
        assert!(spans.is_file(), "{} spans written", workload.name());
    }
}

#[test]
fn a_corrupted_digest_raises_fail_ratio() {
    for workload in [Workload::RunSmall, Workload::ResumeSmall] {
        let mut cfg = smoke(workload, &format!("{}-corrupt", workload.name()));
        cfg.corrupt = true;
        let report = run(&cfg);
        assert!(report.fail_ratio() > 0.0, "{}", workload.name());
        assert!(!report.correct());
        assert!(report.result_line(false).starts_with("{\"correct\": false"));
    }
}

#[test]
fn corrupted_replies_raise_fail_ratio() {
    for workload in [Workload::ServeLookup, Workload::ServeReload] {
        let mut cfg = smoke(workload, &format!("{}-corrupt", workload.name()));
        cfg.corrupt = true;
        let report = run(&cfg);
        assert!(
            report.fail_ratio() > 0.5,
            "{}: {}",
            workload.name(),
            report.fail_ratio()
        );
        assert!(!report.correct());
    }
}
