//! One benchmark run: timed studies for `--seconds`, output checks, and
//! — when traced — the per-layer ledger.
//!
//! An untraced run repeats the workload back to back until the time is
//! up and reports medians of the end-to-end metrics.  A traced run
//! alternates untraced and traced repetitions (their ratio is the
//! tracing overhead), takes the per-layer numbers from its first traced
//! repetition, and replays that repetition's own frames through the
//! codec, the fused sweep (at 1 and at every core's worth of threads, in
//! child processes) and the shard reduction.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use melissa::StudyResults;
use melissa_transport::LinkStatsSnapshot;

use crate::check::{self, Agreement};
use crate::host;
use crate::layers::{self, StateShape};
use crate::trace::{self, Span, NO_GROUP};
use crate::workload::{self, IngestShape, Sample, Size, Synthetic, TraceOut, Workload, P};

const MIB: f64 = 1024.0 * 1024.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs (the study design or the synthetic fields).
    pub seed: u64,
    /// Seconds to keep repeating the workload.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// Scratch directory inside the checkout (checkpoints, frames).
    pub work_dir: PathBuf,
    /// This benchmark's executable, for the sweep child processes.
    pub exe: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Groups attempted, over all repetitions.
    pub attempted: u64,
    /// Groups that failed: abandoned, restarted or failing a check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// Human-readable lines (ledger, host, notes).
    pub notes: Vec<String>,
    /// Spans of the first traced repetition.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// The named metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `v`.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// What each repetition leaves behind after its results are checked.
struct Rep {
    sample_s: [f64; 4],
    cpu_s: f64,
    payload: u64,
    group_s: Vec<f64>,
    attempted: u64,
    failures: u64,
    clock_gap_s: f64,
    digest: u64,
}

fn summarize(s: &Sample, w: Workload) -> Rep {
    let group_s = s
        .jobs
        .iter()
        .filter(|j| j.end > 0)
        .map(|j| (j.end - j.start) as f64 * 1e-9)
        .collect();
    let (failures, gap) = match &s.report {
        Some(r) => (
            r.groups_abandoned.len() as u64 + u64::from(r.group_restarts),
            s.returned_s - r.wall_time.as_secs_f64(),
        ),
        None => (0, 0.0),
    };
    Rep {
        sample_s: [s.study_s, s.setup_s, s.stream_s, s.finalize_s],
        cpu_s: s.cpu_s,
        payload: s.payload_bytes,
        group_s,
        attempted: s.jobs.len() as u64,
        failures,
        clock_gap_s: gap,
        digest: if w.sequential() {
            check::digest(&s.results)
        } else {
            0
        },
    }
}

/// The workload's measured body: one repetition, untraced or traced.
enum Body {
    /// A study, with the group job at whose start a checkpoint is asked.
    Study(Box<melissa::StudyConfig>, Option<usize>),
    /// The `ingest_replay` stream.
    Ingest(Arc<Synthetic>),
}

impl Body {
    fn run(&self, work_dir: &Path, traced: bool) -> Result<Sample, String> {
        match self {
            Body::Study(c, at) => workload::run_study(c, traced, *at),
            Body::Ingest(input) => workload::run_ingest(input, work_dir, traced),
        }
    }

    fn groups(&self) -> u64 {
        match self {
            Body::Study(c, _) => c.n_groups as u64,
            Body::Ingest(input) => input.shape().groups as u64,
        }
    }

    fn units(&self) -> usize {
        match self {
            Body::Study(c, _) => c.max_concurrent_groups,
            Body::Ingest(_) => 1,
        }
    }

    fn state_shape(&self) -> StateShape {
        match self {
            Body::Study(c, _) => StateShape {
                cells: c.solver.mesh().n_cells(),
                workers: c.server_workers,
                p: P,
                timesteps: c.solver.n_timesteps,
                thresholds: c.thresholds.clone(),
                quantiles: c.quantile_probs.clone(),
            },
            Body::Ingest(input) => {
                let cfg = workload::ingest_server_config(input.shape(), Path::new("."));
                StateShape {
                    cells: cfg.n_cells,
                    workers: cfg.n_workers,
                    p: cfg.p,
                    timesteps: cfg.n_timesteps,
                    thresholds: cfg.thresholds,
                    quantiles: cfg.quantile_probs,
                }
            }
        }
    }
}

/// Runs the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut out = Outcome::default();
    let load_start = host::load_average();
    let body = match workload::study_config(w, opts.size, opts.seed, &opts.work_dir) {
        Some(c) => Body::Study(Box::new(c), workload::checkpoint_at(w)),
        None => Body::Ingest(Arc::new(Synthetic::new(
            IngestShape::of(opts.size),
            opts.seed,
        ))),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        out.problems
            .push(format!("cannot create {}: {e}", opts.work_dir.display()));
        return out;
    }

    let started = Instant::now();
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut first: Option<StudyResults> = None;
    let mut first_traced: Option<(Sample, TraceOut)> = None;
    let mut frames_ok = true;
    let mut peak_rss = 0.0;
    loop {
        let trace_now = opts.trace && plain.len() > traced.len();
        let mut sample = match body.run(&opts.work_dir, trace_now) {
            Ok(s) => s,
            Err(e) => {
                out.problems.push(format!("run failed: {e}"));
                out.failed += body.groups();
                out.attempted += body.groups();
                break;
            }
        };
        // The first repetition runs in a fresh process, before anything
        // is kept: its high-water mark is the study's peak memory.
        if plain.is_empty() && !trace_now {
            peak_rss = host::peak_rss_mib();
        }
        if let Body::Ingest(_) = &body {
            let ingested: u64 = sample
                .results
                .workers()
                .iter()
                .map(|s| s.messages_received)
                .sum();
            frames_ok &= ingested == sample.frames_sent && sample.frames_sent > 0;
        }
        let rep = summarize(&sample, w);
        let tr = sample.spans.take();
        if trace_now {
            traced.push(rep);
            if first_traced.is_none() {
                first_traced = tr.map(|t| (sample, t));
            }
        } else {
            plain.push(rep);
            if first.is_none() {
                first = Some(sample.results);
            }
        }
        let done = started.elapsed().as_secs_f64() >= opts.seconds;
        if done && !plain.is_empty() && (!opts.trace || !traced.is_empty()) {
            break;
        }
    }
    let reps: Vec<&Rep> = plain.iter().chain(&traced).collect();
    out.attempted += reps.iter().map(|r| r.attempted).sum::<u64>();
    out.failed += reps.iter().map(|r| r.failures).sum::<u64>();

    // Output checks.
    let mut solver_s = Vec::new();
    if let Some(first) = &first {
        let checked = match &body {
            Body::Study(c, _) => {
                let reference = check::reference(c);
                solver_s = reference.solver_s.clone();
                let agreement = if w == Workload::TubeSeq {
                    Agreement::Exact
                } else {
                    Agreement::Merged
                };
                check::compare(first, &reference.results, body.groups(), agreement)
            }
            Body::Ingest(input) => {
                if frames_ok {
                    check::compare_envelope(first, |ts| input.envelope(ts), body.groups())
                } else {
                    Err("frames ingested differ from frames sent".into())
                }
            }
        };
        if let Err(e) = checked {
            out.problems.push(format!("output check: {e}"));
        }
        if w.sequential() && reps.iter().any(|r| r.digest != reps[0].digest) {
            out.problems
                .push("repetitions of an order-exact workload differ bit-wise".into());
        }
    }
    if out.failed > 0 {
        out.problems
            .push(format!("{} group failures or restarts", out.failed));
    }
    if !out.problems.is_empty() {
        out.failed = out.failed.max(1);
    }
    out.correct = out.problems.is_empty() && !plain.is_empty();

    let group_s: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.group_s.iter().copied())
        .collect();
    let med = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let study_s = med(&|r| r.sample_s[0]);
    if opts.trace {
        if let Some((sample, tr)) = &first_traced {
            let ctx = LedgerInputs {
                body: &body,
                plain_study_s: study_s,
                plain_group_p50: median(&group_s),
                traced_study_s: median(&traced.iter().map(|r| r.sample_s[0]).collect::<Vec<_>>()),
                clock_gap_s: med(&|r| r.clock_gap_s),
                solver_s: &solver_s,
                fail_frac: out.failed as f64 / out.attempted.max(1) as f64,
                group_p95: percentile(&group_s, 0.95),
                first: first.as_ref(),
                opts,
            };
            match ledger(&ctx, sample, tr) {
                Ok((metrics, notes)) => {
                    out.metrics = metrics;
                    out.notes.extend(notes);
                }
                Err(e) => {
                    out.problems.push(format!("layer replay: {e}"));
                    out.correct = false;
                }
            }
            out.spans = tr.spans.clone();
        } else {
            out.problems.push("no traced repetition completed".into());
            out.correct = false;
        }
    } else {
        let m = |name, value, unit| Metric { name, value, unit };
        // `finalize_s` is a mean: on single-shard studies it is dominated
        // by the launcher noticing completion on the server's 50 ms report
        // tick, a uniform phase the mean estimates with less spread.
        let finalize_mean =
            plain.iter().map(|r| r.sample_s[3]).sum::<f64>() / plain.len().max(1) as f64;
        out.metrics = vec![
            m("study_s", study_s, "s"),
            m("setup_s", med(&|r| r.sample_s[1]), "s"),
            m("finalize_s", finalize_mean, "s"),
            m(
                "ingest_mib_per_s",
                med(&|r| r.payload as f64 / MIB / r.sample_s[2]),
                "MiB/s",
            ),
            m("group_s_p50", median(&group_s), "s"),
            m("cpu_s", med(&|r| r.cpu_s), "s"),
            m("peak_rss_mib", peak_rss, "MiB"),
        ];
    }
    let list = |f: &dyn Fn(&Rep) -> f64| {
        let v: Vec<String> = plain.iter().map(|r| format!("{:.4}", f(r))).collect();
        v.join(",")
    };
    out.notes.push(format!(
        "repetitions: study_s=[{}] setup_s=[{}] finalize_s=[{}] cpu_s=[{}] group_p50=[{}]",
        list(&|r| r.sample_s[0]),
        list(&|r| r.sample_s[1]),
        list(&|r| r.sample_s[3]),
        list(&|r| r.cpu_s),
        list(&|r| median(&r.group_s)),
    ));
    let load_end = host::load_average();
    out.notes.push(format!(
        "host: cores={} cpu=\"{}\" load_start={:.2}/{:.2}/{:.2} load_end={:.2}/{:.2}/{:.2}",
        host::cores(),
        host::cpu_model(),
        load_start[0],
        load_start[1],
        load_start[2],
        load_end[0],
        load_end[1],
        load_end[2],
    ));
    out.notes.push(format!(
        "workload={} seed={} repetitions={} traced={} groups/rep={} wall={:.1}s",
        w.name(),
        opts.seed,
        plain.len(),
        traced.len(),
        body.groups(),
        started.elapsed().as_secs_f64()
    ));
    out
}

struct LedgerInputs<'a> {
    body: &'a Body,
    plain_study_s: f64,
    plain_group_p50: f64,
    traced_study_s: f64,
    clock_gap_s: f64,
    solver_s: &'a [f64],
    fail_frac: f64,
    group_p95: f64,
    first: Option<&'a StudyResults>,
    opts: &'a Options,
}

fn sum_dur(spans: &[&Span]) -> f64 {
    spans.iter().map(|s| s.dur()).sum::<u64>() as f64 * 1e-9
}

/// Per-group totals of the named spans' durations.
fn per_group(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == name && s.group != NO_GROUP)
    {
        *by.entry(s.group).or_insert(0) += s.dur();
    }
    by.values().map(|&ns| ns as f64 * 1e-9).collect()
}

/// Runs the fused-sweep replay in a child process with `threads`
/// parallel-runtime threads; returns nanoseconds per cell value.
fn sweep_child(
    exe: &Path,
    frames: &Path,
    shape: &StateShape,
    threads: usize,
) -> Result<f64, String> {
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let output = std::process::Command::new(exe)
        .arg("sweep")
        .arg(frames)
        .arg(shape.cells.to_string())
        .arg(shape.workers.to_string())
        .arg(shape.timesteps.to_string())
        .arg(list(&shape.thresholds))
        .arg(list(&shape.quantiles))
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .map_err(|e| format!("sweep child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "sweep child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| "sweep child printed no result".into())
}

type Ledger = (Vec<Metric>, Vec<String>);

fn ledger(ctx: &LedgerInputs, sample: &Sample, tr: &TraceOut) -> Result<Ledger, String> {
    let spans = &tr.spans;
    let named = |n: &str| spans.iter().filter(|s| s.name == n).collect::<Vec<_>>();
    let root = spans
        .iter()
        .find(|s| s.id == tr.root)
        .ok_or("no study span")?;
    let study_ns = root.dur();
    let accounted = trace::covered(spans, root.start, root.end, &["study"]);
    let study_traced_s = study_ns as f64 * 1e-9;
    let unaccounted_s = (study_ns - accounted.min(study_ns)) as f64 * 1e-9;

    // Launcher.
    let is_study = matches!(ctx.body, Body::Study(..));
    let jobs: Vec<_> = sample.jobs.iter().filter(|j| j.end > 0).collect();
    let queue_wait: Vec<f64> = jobs
        .iter()
        .map(|j| (j.start - j.submit) as f64 * 1e-9)
        .collect();
    let gaps: Vec<f64> = workload::dispatch_gaps(&sample.jobs, ctx.body.units())
        .iter()
        .map(|(from, start, _)| (start - from) as f64 * 1e-6)
        .collect();

    // Solver (no-output replay of the same design rows).
    let nooutput = median(ctx.solver_s);
    let groups = ctx.body.groups() as f64;
    let (solver_share, overhead) = if nooutput > 0.0 {
        (
            nooutput * groups / ctx.plain_study_s,
            ctx.plain_group_p50 / nooutput - 1.0,
        )
    } else {
        (0.0, 0.0)
    };

    // Client.
    let sends = named("client.send");
    let frame_bytes: Vec<f64> = sends.iter().map(|s| s.bytes as f64).collect();
    let send_s = sum_dur(&sends);
    let link: LinkStatsSnapshot = sample.link;

    // Transport codec on this run's own frames.
    let codec = layers::codec(&tr.frames, 0.3);

    // Server workers.
    let busy: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("server.") && s.name != "server.exit")
        .collect();
    let ingest = named("server.ingest");
    let busy_s = sum_dur(&busy);
    let wait_s = tr.tracer.counter("server.wait_ns") as f64 * 1e-9;
    let ingest_values = ingest.iter().map(|s| s.bytes).sum::<u64>() as f64 / 8.0;
    let ns_per_cell = sum_dur(&ingest) * 1e9 / ingest_values.max(1.0);

    // Fused sweep at 1 and at `cores` threads, on this run's frames.
    let shape = ctx.body.state_shape();
    let frames_path = ctx.opts.work_dir.join("frames.bin");
    layers::write_frames(&frames_path, &tr.frames).map_err(|e| e.to_string())?;
    let cores = host::cores();
    let sweep_1 = sweep_child(&ctx.opts.exe, &frames_path, &shape, 1)?;
    let sweep_n = sweep_child(&ctx.opts.exe, &frames_path, &shape, cores)?;
    let _ = std::fs::remove_file(&frames_path);

    // Checkpoint and shard reduction.
    let ckpt = match ctx.first {
        Some(results) => layers::checkpoint(results, &ctx.opts.work_dir.join("probe"))?,
        None => layers::Checkpoint::default(),
    };
    let (reduce, n_shards) = match ctx.body {
        Body::Study(c, _) if c.n_shards > 1 => (
            layers::reduce(&tr.frames, &shape, melissa::GroupRouter::from_config(c)),
            c.n_shards,
        ),
        _ => (layers::Reduce::default(), 1),
    };
    let tail = spans
        .iter()
        .filter(|s| s.name == "finalize.reduce" || s.name == "finalize.assemble")
        .map(|s| s.dur())
        .sum::<u64>() as f64
        * 1e-9;
    let report = sample.report.as_ref();

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m(
            "launcher.jobs",
            if is_study { jobs.len() as f64 } else { 0.0 },
            "count",
        ),
        m(
            "launcher.queue_wait_s",
            if is_study { median(&queue_wait) } else { 0.0 },
            "s",
        ),
        m(
            "launcher.dispatch_gap_ms_p50",
            if is_study { median(&gaps) } else { 0.0 },
            "ms",
        ),
        m("launcher.report_clock_gap_s", ctx.clock_gap_s, "s"),
        m("solver.nooutput_s_per_group", nooutput, "s"),
        m("solver.share", solver_share, "ratio"),
        m("solver.melissa_overhead", overhead, "ratio"),
        m("client.frames", sends.len() as f64, "count"),
        m("client.frame_bytes_p50", median(&frame_bytes), "B"),
        m(
            "client.connect_s",
            median(&per_group(spans, "client.connect")),
            "s",
        ),
        m(
            "client.send_s",
            median(&per_group(spans, "client.send")),
            "s",
        ),
        m(
            "client.send_blocked_frac",
            (link.blocked_nanos as f64 * 1e-9 / send_s.max(1e-9)).min(1.0),
            "ratio",
        ),
        m(
            "client.flush_s",
            median(&per_group(spans, "client.flush")),
            "s",
        ),
        m("transport.payload_mib", link.bytes as f64 / MIB, "MiB"),
        m("transport.wire_mib", link.wire_bytes as f64 / MIB, "MiB"),
        m(
            "transport.zip_ratio",
            link.bytes as f64 / (link.wire_bytes.max(1)) as f64,
            "ratio",
        ),
        m(
            "transport.blocked_sends",
            link.blocked_sends as f64,
            "count",
        ),
        m(
            "transport.reconnects",
            report.map_or(0.0, |r| r.transport_reconnects as f64),
            "count",
        ),
        m(
            "transport.compress_mib_per_s",
            codec.compress_mib_per_s,
            "MiB/s",
        ),
        m(
            "transport.decompress_mib_per_s",
            codec.decompress_mib_per_s,
            "MiB/s",
        ),
        m(
            "transport.breakeven_mib_per_s",
            codec.breakeven_mib_per_s(),
            "MiB/s",
        ),
        m("server.busy_s", busy_s, "s"),
        m("server.wait_s", wait_s, "s"),
        m(
            "server.busy_frac",
            busy_s / (busy_s + wait_s).max(1e-9),
            "ratio",
        ),
        m("server.ns_per_cell", ns_per_cell, "ns"),
        m("server.cpu_share", busy_s / sample.cpu_s.max(1e-9), "ratio"),
        m("sweep.ns_per_cell_1t", sweep_1, "ns"),
        m("sweep.ns_per_cell_nt", sweep_n, "ns"),
        m("sweep.scaling", sweep_1 / sweep_n.max(1e-9), "ratio"),
        m("checkpoint.pack_s", ckpt.pack_s, "s"),
        m("checkpoint.write_s", ckpt.write_s, "s"),
        m("checkpoint.mib", ckpt.mib, "MiB"),
        m(
            "checkpoint.files",
            report.map_or(0.0, |r| r.checkpoints_written as f64),
            "count",
        ),
        m("shard.reduce_s", reduce.reduce_s, "s"),
        m("shard.reduce_mib", reduce.mib, "MiB"),
        m("finalize.tail_s", tail, "s"),
        m(
            "trace.overhead_frac",
            ctx.traced_study_s / ctx.plain_study_s - 1.0,
            "ratio",
        ),
        m("study.unaccounted_s", unaccounted_s, "s"),
        m(
            "study.accounted_frac",
            accounted as f64 / study_ns.max(1) as f64,
            "ratio",
        ),
        m("group_fail_frac", ctx.fail_frac, "ratio"),
        m("group_s_p95", ctx.group_p95, "s"),
    ];

    // The ledger: self time per span name, on the traced study's clock.
    let mut notes = vec![format!(
        "ledger of the traced repetition: study {study_traced_s:.3} s, spans cover {:.1} %, \
         unaccounted {unaccounted_s:.3} s; {} shard(s), {cores} core(s)",
        100.0 * accounted as f64 / study_ns.max(1) as f64,
        n_shards,
    )];
    for (name, ns) in trace::self_time_by_name(spans) {
        if name != "study" && name != "server.exit" {
            notes.push(format!("  self {name:<22} {:>9.3} s", ns as f64 * 1e-9));
        }
    }
    Ok((metrics, notes))
}

/// Writes `spans` as CSV (`id,parent,name,start_ns,end_ns,group,thread,bytes`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,start_ns,end_ns,group,thread,bytes")?;
    for s in spans {
        let group = if s.group == NO_GROUP {
            String::new()
        } else {
            s.group.to_string()
        };
        writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            s.id, s.parent, s.name, s.start, s.end, group, s.thread, s.bytes
        )?;
    }
    out.flush()
}
