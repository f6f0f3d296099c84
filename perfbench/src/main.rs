//! `melissa-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits 1 when an output check fails, 2 on bad arguments.
//!
//! `melissa-perfbench sweep <frames> <cells> <workers> <timesteps>
//! <thresholds> <quantiles>` is the child process a traced run starts to
//! time the fused sweep at a given `RAYON_NUM_THREADS`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use melissa_perfbench::bench::{self, Options};
use melissa_perfbench::layers::{self, StateShape};
use melissa_perfbench::workload::{self, Size, Workload, P};

fn usage() -> ExitCode {
    eprintln!(
        "usage: melissa-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn list(arg: &str) -> Option<Vec<f64>> {
    if arg.is_empty() {
        return Some(Vec::new());
    }
    arg.split(',').map(|v| v.parse().ok()).collect()
}

fn sweep(args: &[String]) -> ExitCode {
    let parsed = (|| {
        let [frames, cells, workers, timesteps, thresholds, quantiles] = args else {
            return None;
        };
        Some((
            PathBuf::from(frames),
            StateShape {
                cells: cells.parse().ok()?,
                workers: workers.parse().ok()?,
                p: P,
                timesteps: timesteps.parse().ok()?,
                thresholds: list(thresholds)?,
                quantiles: list(quantiles)?,
            },
        ))
    })();
    let Some((path, shape)) = parsed else {
        return usage();
    };
    match layers::read_frames(&path) {
        Ok(frames) => {
            println!("{}", layers::sweep(&frames, &shape, 0.5));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep") {
        return sweep(&args[1..]);
    }
    let mut flags = std::collections::HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return usage(),
        }
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        get("workload").and_then(Workload::parse),
        get("seed").and_then(|s| s.parse::<u64>().ok()),
        get("seconds").and_then(|s| s.parse::<f64>().ok()),
        get("trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let work_dir = workload::work_dir();
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        work_dir: work_dir.clone(),
        exe,
    };
    let out = bench::run(&opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    for note in &out.notes {
        println!("# {note}");
    }
    for problem in &out.problems {
        println!("# PROBLEM: {problem}");
    }
    if trace && !out.spans.is_empty() {
        let path = Path::new(".bench_work").join(format!("trace-{}.csv", workload.name()));
        match bench::write_spans(&path, &out.spans) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
