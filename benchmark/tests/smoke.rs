//! `--smoke`: two operations on an eighth-scale program, per workload
//! and per pass, finishing in seconds; validates the result line
//! against the metric lists and those against `../BENCHMARK.json`.

use cmo_benchmark::run::{END_TO_END, PER_LAYER};
use cmo_benchmark::workloads::Workload;
use std::process::Command;

/// Checks `line` is `{"correct": true, "attempted": 2, "failed": 0,
/// "metrics": {...}}` with exactly `metrics`, each a number and its unit.
fn check_result_line(line: &str, metrics: &[(&str, &str)]) {
    let head = "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {";
    assert!(line.starts_with(head), "{line}");
    assert!(line.ends_with("}}"), "{line}");
    let mut rest = &line[head.len()..line.len() - 2];
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let open = format!(
            "{}\"{name}\": {{\"value\": ",
            if i == 0 { "" } else { ", " }
        );
        assert!(rest.starts_with(&open), "expected {name} at `{rest}`");
        rest = &rest[open.len()..];
        let end = rest.find(',').expect("a unit follows the value");
        let value: f64 = rest[..end].parse().expect("the value is a number");
        // Differences of two timings (the overheads) may dip below zero.
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            value >= 0.0 || name.contains("overhead"),
            "{name} = {value}"
        );
        let close = format!(", \"unit\": \"{unit}\"}}");
        assert!(
            rest[end..].starts_with(&close),
            "expected {unit} at `{rest}`"
        );
        rest = &rest[end + close.len()..];
    }
    assert!(rest.is_empty(), "unlisted metrics: `{rest}`");
}

fn smoke(workload: Workload, trace: bool) -> String {
    let out_dir = format!(
        "{}/smoke-{}-{}",
        env!("CARGO_TARGET_TMPDIR"),
        workload.name(),
        u8::from(trace)
    );
    let output = Command::new(env!("CARGO_BIN_EXE_cmo-benchmark"))
        .args(["--smoke", "--seed", "7", "--workload", workload.name()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out-dir", &out_dir])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    if trace {
        let path = format!("{out_dir}/trace.{}.json", workload.name());
        let doc = std::fs::read_to_string(path).expect("the traced pass writes its spans");
        assert!(doc.contains("\"spans\": ["));
        let layer = if workload.cached() {
            "cache.build_cached"
        } else {
            "hlo.inline"
        };
        assert!(doc.contains(&format!("\"name\": \"{layer}\"")));
    }
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        check_result_line(&smoke(workload, false), &END_TO_END);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for workload in Workload::ALL {
        check_result_line(&smoke(workload, true), &PER_LAYER);
    }
}

#[test]
fn metric_and_workload_lists_match_the_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let contract = std::fs::read_to_string(path).expect("BENCHMARK.json sits above benchmark/");
    let section = |from: &str, to: &str| {
        let start = contract.find(from).expect(from);
        let end = contract[start..]
            .find(to)
            .map_or(contract.len(), |e| start + e);
        &contract[start..end]
    };
    for (key, next, metrics) in [
        ("\"end_to_end\"", "\"per_layer\"", &END_TO_END[..]),
        ("\"per_layer\"", "\n}", &PER_LAYER[..]),
    ] {
        let listed = section(key, next);
        assert_eq!(listed.matches("\"name\"").count(), metrics.len(), "{key}");
        for (name, unit) in metrics {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(listed.contains(&entry), "{key} lacks {entry}");
        }
    }
    let listed = section("\"workloads\"", "\"end_to_end\"");
    assert_eq!(listed.matches("\"name\"").count(), Workload::ALL.len());
    for workload in Workload::ALL {
        assert!(listed.contains(&format!("{{\"name\": \"{}\", ", workload.name())));
    }
}
