//! Smoke-size runs of every workload, with their output checks, and the
//! metric names checked against `BENCHMARK.json`.

use std::path::PathBuf;

use melissa_perfbench::bench::{self, Options};
use melissa_perfbench::check::{self, Agreement};
use melissa_perfbench::workload::{self, Size, Workload};

fn options(w: Workload, trace: bool) -> Options {
    Options {
        workload: w,
        seed: 11,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}",
            w.name(),
            u8::from(trace)
        )),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_melissa-perfbench")),
    }
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(out: &bench::Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_passes_its_output_checks_and_reports_end_to_end_metrics() {
    let want = declared("end_to_end");
    for w in Workload::ALL {
        let out = bench::run(&options(w, false));
        assert!(out.correct, "{}: {:?}", w.name(), out.problems);
        assert_eq!(out.failed, 0, "{}", w.name());
        assert!(out.attempted > 0, "{}", w.name());
        assert_eq!(names(&out), want, "{}", w.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_account_for_the_study() {
    let want = declared("per_layer");
    for w in Workload::ALL {
        let out = bench::run(&options(w, true));
        assert!(out.correct, "{}: {:?}", w.name(), out.problems);
        assert_eq!(names(&out), want, "{}", w.name());
        assert!(
            out.metrics.iter().all(|m| m.value.is_finite()),
            "{}",
            w.name()
        );
        assert!(
            out.spans.iter().any(|s| s.name == "server.ingest"),
            "{}",
            w.name()
        );
        let accounted = out.get("study.accounted_frac").expect("coverage reported");
        assert!(accounted >= 0.9, "{}: spans cover {accounted}", w.name());
        assert!(
            out.get("client.frames").expect("frames") > 0.0,
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_different_design_fails_the_output_check() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("mismatch");
    let base = workload::study_config(Workload::TubeSeq, Size::Smoke, 5, &dir).expect("study");
    let other = workload::study_config(Workload::TubeSeq, Size::Smoke, 6, &dir).expect("study");
    let a = check::reference(&base);
    let b = check::reference(&other);
    let n = base.n_groups as u64;
    check::compare(&a.results, &a.results, n, Agreement::Exact).expect("a run matches itself");
    assert!(check::compare(&b.results, &a.results, n, Agreement::Merged).is_err());
    assert!(check::compare(&a.results, &a.results, n + 1, Agreement::Exact).is_err());
    assert_ne!(check::digest(&a.results), check::digest(&b.results));
}
