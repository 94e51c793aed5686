//! Telemetry determinism: the §6.2 reproducibility discipline extended
//! to the observability surface. Two builds of the same sources with
//! the same profile data and the same NAIM budget must produce
//! byte-identical JSON reports and byte-identical event traces — the
//! trace clock is simulated work, never wall time.

use cmo::{BuildOptions, NaimConfig, OptLevel, Telemetry};
use cmo_repro::harness::{compiler_for, train_profile};
use cmo_synth::{generate, SynthSpec};

/// One full +O4 +P build under a tight NAIM budget with telemetry on,
/// returning the serialized report and trace.
fn instrumented_build(seed: u64) -> (String, String) {
    let app = generate(&SynthSpec::small("telemetry", seed));
    let cc = compiler_for(&app).unwrap();
    let db = train_profile(&cc, &app.train_input).unwrap();
    let tel = Telemetry::enabled();
    let opts = BuildOptions::new(OptLevel::O4)
        .with_profile_db(db)
        .with_selectivity(40.0)
        .with_naim(NaimConfig::with_budget(24 << 10))
        .with_telemetry(tel.clone());
    let out = cc.build(&opts).unwrap();
    (out.report.to_json(), tel.render_trace())
}

#[test]
fn report_and_trace_are_byte_identical_across_runs() {
    let (report_a, trace_a) = instrumented_build(11);
    let (report_b, trace_b) = instrumented_build(11);
    assert_eq!(report_a, report_b, "JSON report must be deterministic");
    assert_eq!(trace_a, trace_b, "event trace must be deterministic");
}

#[test]
fn report_schema_is_stable() {
    let (report, _) = instrumented_build(12);
    assert!(
        report.starts_with("{\n  \"schema\": \"cmo.report.v1\""),
        "report must lead with its schema version: {report}"
    );
    // Every documented top-level section is present (see METRICS.md).
    for section in [
        "\"selection\"",
        "\"hlo\"",
        "\"loader\"",
        "\"memory\"",
        "\"llo\"",
        "\"image\"",
        "\"work\"",
        "\"phases\"",
    ] {
        assert!(report.contains(section), "missing section {section}");
    }
    // Wall time never reaches the serialized report.
    assert!(!report.contains("wall") && !report.contains("nanos"));
}

#[test]
fn trace_schema_is_stable_and_events_fire() {
    let (_, trace) = instrumented_build(13);
    let mut lines = trace.lines();
    assert_eq!(
        lines.next(),
        Some("{\"schema\":\"cmo.trace.v1\"}"),
        "trace must lead with its schema header"
    );
    // Under a tight budget with selectivity on, every event family the
    // pipeline emits should appear at least once.
    for tag in [
        "\"event\":\"pool\"",
        "\"event\":\"inline\"",
        "\"event\":\"select_site\"",
        "\"event\":\"select_module\"",
    ] {
        assert!(trace.contains(tag), "expected at least one {tag} record");
    }
    // Every record is tagged with the phase that emitted it.
    for line in lines {
        assert!(line.contains("\"work\":"), "untagged record: {line}");
        assert!(line.contains("\"phase\":"), "untagged record: {line}");
    }
}

/// The build's stages, each with the one phase it opens, in order:
/// `(name, depth)` exactly as the report lists them. The benchmark's
/// phase cross-check keys on these names.
#[test]
fn phase_timers_nest_and_cover_the_pipeline() {
    let app = generate(&SynthSpec::small("phases", 21));
    let cc = compiler_for(&app).unwrap();
    let db = train_profile(&cc, &app.train_input).unwrap();
    let selective: &[(&str, u32)] = &[
        ("link", 0),
        ("hlo", 0),
        ("hlo.select", 1),
        ("hlo.read_in", 1),
        ("hlo.ipa", 1),
        ("hlo.partition", 1),
        ("hlo.inline", 1),
        ("hlo.callgraph", 1),
        ("hlo.write_out", 1),
        ("llo", 0),
        ("link_image", 0),
    ];
    // Without a percentage there is nothing to select.
    let o4: Vec<(&str, u32)> = selective
        .iter()
        .copied()
        .filter(|&(name, _)| name != "hlo.select")
        .collect();
    let below_o4: &[(&str, u32)] = &[("link", 0), ("llo", 0), ("link_image", 0)];
    let cases = [
        (
            "+O4 +P --sel 20",
            BuildOptions::new(OptLevel::O4)
                .with_profile_db(db.clone())
                .with_selectivity(20.0),
            selective,
        ),
        (
            "+O4 +P",
            BuildOptions::new(OptLevel::O4).with_profile_db(db),
            &o4[..],
        ),
        ("+O4", BuildOptions::new(OptLevel::O4), &o4[..]),
        ("+O2", BuildOptions::o2(), below_o4),
    ];
    for (flags, opts, expected) in cases {
        let out = cc
            .build(&opts.with_telemetry(Telemetry::enabled()))
            .unwrap();
        let phases: Vec<(&str, u32)> = out
            .report
            .phases
            .iter()
            .map(|p| (p.name.as_str(), p.depth))
            .collect();
        assert_eq!(phases, expected, "{flags}");
        for phase in &out.report.phases {
            assert!(
                phase.end_work >= phase.start_work,
                "{flags}: phase {} runs backwards on the work clock",
                phase.name
            );
        }
    }
}

#[test]
fn disabled_telemetry_records_nothing() {
    let tel = Telemetry::disabled();
    assert!(!tel.is_enabled());
    let app = generate(&SynthSpec::small("silent", 3));
    let cc = compiler_for(&app).unwrap();
    let out = cc
        .build(&BuildOptions::new(OptLevel::O4).with_telemetry(tel.clone()))
        .unwrap();
    assert!(out.report.phases.is_empty());
    assert_eq!(tel.n_events(), 0);
}
