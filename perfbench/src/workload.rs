//! The four workloads and one timed run of each.
//!
//! Three workloads run a whole study through `Study::run_in`; the fourth
//! (`ingest_replay`) drives `Server::start` directly from one generator
//! thread.  Every run is timed from the caller and cut into phases at
//! boundaries seen from outside the program:
//!
//! * **setup**: the call until the first group job is submitted (design
//!   draw, frozen-flow pre-run, transport, server start-up);
//! * **stream**: the first submit until the last group job completes;
//! * **finalize**: the last completion until the results are in hand
//!   (server drain and stop, shard reduction, result and map assembly).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use melissa::protocol::Message;
use melissa::server::{Server, ServerConfig};
use melissa::{Study, StudyConfig, StudyReport, StudyResults, StudyRuntime};
use melissa_mesh::{CellRange, SlabPartition};
use melissa_scheduler::JobRunner;
use melissa_solver::UseCaseConfig;
use melissa_transport::directory::names;
use melissa_transport::{
    make_transport_with, ChannelTransport, LinkStatsSnapshot, Transport, TransportKind,
    WireCompression,
};

use crate::host;
use crate::trace::{Tracer, NO_GROUP};
use crate::wrap::{
    enter_client, leave_client, Capture, JobRecord, TimedDispatcher, TracingTransport,
};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's tube-bundle use case, in-process, one group at a time.
    TubeSeq,
    /// The same study over TCP with the `Transpose` codec and two shards.
    TubeTcpZip,
    /// Many small groups, two at a time: the control plane's share.
    ManyGroups,
    /// No solver: a generator streams synthetic fields into the server.
    IngestReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TubeSeq,
        Workload::TubeTcpZip,
        Workload::ManyGroups,
        Workload::IngestReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TubeSeq => "tube_seq",
            Workload::TubeTcpZip => "tube_tcp_zip",
            Workload::ManyGroups => "many_groups",
            Workload::IngestReplay => "ingest_replay",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs its groups one at a time (so its
    /// statistics are order-exact and repeat bit for bit).
    pub fn sequential(self) -> bool {
        matches!(self, Workload::TubeSeq | Workload::TubeTcpZip)
    }
}

/// Problem sizes: `full` is what the benchmark measures, `smoke` a small
/// shape with the same structure for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured shape.
    Full,
    /// A seconds-long shape for tests.
    Smoke,
}

/// The study configuration of a study workload (`None` for
/// `ingest_replay`, which runs no study).
pub fn study_config(w: Workload, size: Size, seed: u64, work_dir: &Path) -> Option<StudyConfig> {
    let smoke = size == Size::Smoke;
    // A repetition takes seconds; the limits let a stalled study fail the
    // run with a result well inside the run's 180 s budget.
    let mut c = StudyConfig {
        seed,
        ranks_per_simulation: 2,
        server_workers: 2,
        max_concurrent_groups: 1,
        group_timeout: Duration::from_secs(30),
        server_timeout: Duration::from_secs(30),
        wall_limit: Duration::from_secs(60),
        checkpoint_interval: Duration::from_secs(3600),
        checkpoint_dir: work_dir.join("checkpoints"),
        ..StudyConfig::default()
    };
    match w {
        Workload::TubeSeq => {
            c.n_groups = if smoke { 3 } else { 4 };
        }
        Workload::TubeTcpZip => {
            // Groups 0 and 1 route to shard 1, groups 2 and 3 to shard 0
            // under the default shard seed: both shards ingest.  Its
            // checkpoints are triggered per study (`checkpoint_at`), not
            // by the clock.
            c.n_groups = 4;
            c.transport = TransportKind::Tcp;
            c.wire_compression = WireCompression::Transpose;
            c.n_shards = 2;
        }
        Workload::ManyGroups => {
            c.solver = UseCaseConfig::tiny();
            c.n_groups = if smoke { 12 } else { 50 };
            c.max_concurrent_groups = 2;
            c.server_workers = 3;
        }
        Workload::IngestReplay => return None,
    }
    if smoke && w != Workload::ManyGroups {
        c.solver = UseCaseConfig {
            n_timesteps: 8,
            ..UseCaseConfig::tiny()
        };
    }
    Some(c)
}

/// The group job (in start order) at whose start `tube_tcp_zip` asks
/// every shard's server for a checkpoint, through the protocol's
/// `Checkpoint` message.  A clock-driven checkpoint period would make the
/// amount of checkpoint work depend on how fast the host runs the study
/// (a slow run checkpoints more often), so the benchmark fires one
/// checkpoint per study at a fixed point instead.
pub fn checkpoint_at(w: Workload) -> Option<usize> {
    (w == Workload::TubeTcpZip).then_some(2)
}

/// Shape of the `ingest_replay` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestShape {
    /// Mesh cells.
    pub cells: usize,
    /// Timesteps per group.
    pub timesteps: usize,
    /// Groups streamed.
    pub groups: usize,
    /// Server workers.
    pub workers: usize,
    /// Cells per `Data` frame before the slab split.
    pub chunk: usize,
}

impl IngestShape {
    /// The shape for `size`.
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Self {
                cells: 32_768,
                timesteps: 50,
                groups: 8,
                workers: 2,
                chunk: 4096,
            },
            Size::Smoke => Self {
                cells: 2048,
                timesteps: 5,
                groups: 3,
                workers: 2,
                chunk: 512,
            },
        }
    }
}

/// Number of varied parameters of the tube-bundle design (`p`).
pub const P: usize = 6;

/// Everything one timed run yields.
pub struct Sample {
    /// Call to results (index maps assembled).
    pub study_s: f64,
    /// Call to the study's return, before the maps are assembled.
    pub returned_s: f64,
    /// Call to first group submitted.
    pub setup_s: f64,
    /// First submit to last group completion.
    pub stream_s: f64,
    /// Last completion to results.
    pub finalize_s: f64,
    /// CPU seconds the process used during the run.
    pub cpu_s: f64,
    /// Field payload integrated.
    pub payload_bytes: u64,
    /// Group job records (submit/start/end since the call).
    pub jobs: Vec<JobRecord>,
    /// The launcher's report (`None` for `ingest_replay`).
    pub report: Option<StudyReport>,
    /// The assembled statistics.
    pub results: StudyResults,
    /// `Data` frames the generator sent (`ingest_replay` only).
    pub frames_sent: u64,
    /// Link counters toward the server's data endpoints.
    pub link: LinkStatsSnapshot,
    /// Spans, when traced.
    pub spans: Option<TraceOut>,
}

/// What a traced run recorded.
pub struct TraceOut {
    /// The tracer (spans already taken; counters still readable).
    pub tracer: Arc<Tracer>,
    /// Every span, ordered by start.
    pub spans: Vec<crate::trace::Span>,
    /// Id of the root `study` span.
    pub root: u64,
    /// Frames captured for the layer replays.
    pub frames: Vec<Bytes>,
}

/// Assembles the study's answer from the accumulators: the first- and
/// total-order Sobol' index maps of every parameter and the variance map,
/// at every timestep (the fields the paper's Figs. 7–8 show).  Returns
/// the number of map values built.
pub fn assemble_maps(results: &StudyResults) -> u64 {
    let mut values = 0u64;
    for ts in 0..results.n_timesteps() {
        for k in 0..results.dim() {
            values += std::hint::black_box(results.first_order_field(ts, k)).len() as u64;
            values += std::hint::black_box(results.total_order_field(ts, k)).len() as u64;
        }
        values += std::hint::black_box(results.variance_field(ts)).len() as u64;
    }
    values
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Groups whose frames a traced run keeps for the layer replays: the
/// lowest group id of every shard.
pub fn capture_groups(config: &StudyConfig) -> Vec<u64> {
    let router = melissa::GroupRouter::from_config(config);
    (0..config.n_shards)
        .filter_map(|k| (0..config.n_groups as u64).find(|&g| router.shard_of(g) == k))
        .collect()
}

/// Sends the protocol's `Checkpoint` message to every shard's server
/// main endpoint (each writes into its own scope's directory).
fn request_checkpoints(transport: &dyn Transport, config: &StudyConfig) {
    let scopes: Vec<String> = if config.n_shards > 1 {
        (0..config.n_shards).map(names::shard_scope).collect()
    } else {
        vec![String::new()]
    };
    for scope in scopes {
        let msg = Message::Checkpoint {
            dir: config
                .checkpoint_dir
                .join(&scope)
                .to_string_lossy()
                .into_owned(),
        };
        if let Ok(tx) = transport.connect(&names::server_main_in(&scope)) {
            let _ = tx.send(msg.encode());
        }
    }
}

/// Runs one study; `traced` records spans at every wrapped boundary, and
/// `checkpoint_at` asks the servers for a checkpoint when that group job
/// starts.
pub fn run_study(
    config: &StudyConfig,
    traced: bool,
    checkpoint_at: Option<usize>,
) -> Result<Sample, String> {
    let call = Instant::now();
    let cpu0 = host::cpu_seconds();
    let tracer = traced.then(|| Arc::new(Tracer::new(call)));
    let root = tracer.as_ref().map(|t| t.enter("study", NO_GROUP, Some(0)));
    let raw = make_transport_with(config.transport.clone(), config.wire_compression);
    let built = tracer.as_ref().map(|t| t.now());
    let capture = Arc::new(Capture::new(capture_groups(config)));
    let tracing = tracer.as_ref().map(|t| {
        Arc::new(TracingTransport::new(
            Arc::clone(&raw),
            Arc::clone(t),
            Arc::clone(&capture),
        ))
    });
    let transport: Arc<dyn Transport> = match &tracing {
        Some(t) => t.clone(),
        None => raw,
    };
    let trigger = checkpoint_at.map(|at| {
        let transport = Arc::clone(&transport);
        let config = config.clone();
        let action: Arc<dyn Fn() + Send + Sync> =
            Arc::new(move || request_checkpoints(transport.as_ref(), &config));
        (at, action)
    });
    let dispatcher = Arc::new(
        TimedDispatcher::new(
            Arc::new(JobRunner::new(config.max_concurrent_groups)),
            call,
            tracer.clone(),
            root.map_or(0, |r| r.id()),
        )
        .with_trigger(trigger),
    );
    let runtime = StudyRuntime {
        transport: Some(Arc::clone(&transport)),
        runner: Some(dispatcher.clone()),
        ..StudyRuntime::default()
    };
    let out = Study::new(config.clone()).run_in(runtime)?;
    let returned = call.elapsed().as_nanos() as u64;
    assemble_maps(&out.results);
    let ret = call.elapsed().as_nanos() as u64;
    let cpu_s = host::cpu_seconds() - cpu0;

    let jobs = dispatcher.jobs();
    let first_submit = jobs.iter().map(|j| j.submit).min().unwrap_or(ret);
    let last_end = jobs.iter().map(|j| j.end).max().unwrap_or(ret);
    let spans = match (tracer, root, tracing) {
        (Some(t), Some(root), Some(tt)) => {
            let root_id = root.id();
            t.close(root, NO_GROUP, 0);
            let built = built.unwrap_or(0);
            let first_bind = tt.first_bind().unwrap_or(first_submit);
            t.record("setup.transport", 0, built, root_id, NO_GROUP, 0);
            t.record("setup.prerun", built, first_bind, root_id, NO_GROUP, 0);
            t.record(
                "setup.server_start",
                first_bind,
                first_submit,
                root_id,
                NO_GROUP,
                0,
            );
            record_dispatch_gaps(&t, &jobs, config.max_concurrent_groups, root_id);
            let mut spans = t.take();
            let last_exit = spans
                .iter()
                .filter(|s| s.name == "server.exit")
                .map(|s| s.end)
                .max()
                .unwrap_or(last_end)
                .clamp(last_end, returned);
            let tail = if config.n_shards > 1 {
                "finalize.reduce"
            } else {
                "finalize.assemble"
            };
            t.record("finalize.drain", last_end, last_exit, root_id, NO_GROUP, 0);
            t.record(tail, last_exit, returned, root_id, NO_GROUP, 0);
            t.record("finalize.maps", returned, ret, root_id, NO_GROUP, 0);
            spans.extend(t.take());
            spans.sort_by_key(|s| (s.start, s.id));
            Some(TraceOut {
                tracer: t,
                spans,
                root: root_id,
                frames: capture.take(),
            })
        }
        _ => None,
    };
    let cells = config.solver.mesh().n_cells() as u64;
    let r = &out.report;
    let link = LinkStatsSnapshot {
        messages: r.link_messages,
        bytes: r.link_bytes,
        wire_bytes: r.link_wire_bytes,
        blocked_sends: r.blocked_sends,
        blocked_nanos: r.blocked_time.as_nanos() as u64,
    };
    Ok(Sample {
        study_s: secs(ret),
        returned_s: secs(returned),
        setup_s: secs(first_submit),
        stream_s: secs(last_end.saturating_sub(first_submit)),
        finalize_s: secs(ret.saturating_sub(last_end)),
        cpu_s,
        payload_bytes: config.n_groups as u64
            * (P as u64 + 2)
            * cells
            * config.solver.n_timesteps as u64
            * 8,
        jobs,
        report: Some(out.report),
        results: out.results,
        frames_sent: 0,
        link,
        spans,
    })
}

/// The launcher's dispatch gaps: for every job, the interval from the
/// moment it could have started (the later of its submit and a unit
/// freeing up: the study start for the first `units` jobs, else the
/// latest earlier job end) to its start.  Returns `(from, start, group)`.
pub fn dispatch_gaps(jobs: &[JobRecord], units: usize) -> Vec<(u64, u64, u64)> {
    let mut by_start: Vec<&JobRecord> = jobs.iter().filter(|j| j.end > 0).collect();
    by_start.sort_by_key(|j| j.start);
    let mut ends: Vec<u64> = Vec::new();
    let mut gaps = Vec::with_capacity(by_start.len());
    for (i, j) in by_start.iter().enumerate() {
        let freed = if i < units {
            0
        } else {
            ends.iter()
                .copied()
                .filter(|&e| e <= j.start)
                .max()
                .unwrap_or(0)
        };
        gaps.push((freed.max(j.submit).min(j.start), j.start, j.group));
        ends.push(j.end);
    }
    gaps
}

fn record_dispatch_gaps(t: &Tracer, jobs: &[JobRecord], units: usize, root: u64) {
    for (from, start, group) in dispatch_gaps(jobs, units) {
        if from < start {
            t.record("launcher.dispatch", from, start, root, group, 0);
        }
    }
}

/// The synthetic input of `ingest_replay`: smooth base fields per
/// timestep and one affine mix per `(group, role)`, all from the seed.
pub struct Synthetic {
    shape: IngestShape,
    base: Vec<Vec<f64>>,
    mix: Vec<[f64; 3]>,
}

/// SplitMix64: the seeded generator of the synthetic inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl Synthetic {
    /// Builds the inputs of `shape` from `seed`.
    pub fn new(shape: IngestShape, seed: u64) -> Self {
        let mut rng = seed ^ 0x6d65_6c69_7373_6121;
        let k1 = 1.0 + 3.0 * unit(&mut rng);
        let k2 = 2.0 + 5.0 * unit(&mut rng);
        let n = shape.cells as f64;
        let base = (0..shape.timesteps)
            .map(|ts| {
                let phase = 0.05 * ts as f64;
                (0..shape.cells)
                    .map(|i| {
                        let x = i as f64 / n;
                        (std::f64::consts::TAU * k1 * x + phase).sin()
                            * (std::f64::consts::PI * k2 * x).cos()
                    })
                    .collect()
            })
            .collect();
        let mix = (0..shape.groups * (P + 2))
            .map(|_| {
                [
                    0.5 + unit(&mut rng),
                    unit(&mut rng) - 0.5,
                    0.3 * unit(&mut rng),
                ]
            })
            .collect();
        Self { shape, base, mix }
    }

    /// The stream's shape.
    pub fn shape(&self) -> IngestShape {
        self.shape
    }

    /// The values `(group, role)` sends for `range` at `ts`.
    pub fn values(&self, group: usize, role: usize, ts: usize, range: CellRange) -> Vec<f64> {
        let [a, b, c] = self.mix[group * (P + 2) + role];
        let x = &self.base[ts][range.start..range.end()];
        let y = &self.base[(ts + 1) % self.shape.timesteps][range.start..range.end()];
        x.iter().zip(y).map(|(x, y)| a * x + b + c * y).collect()
    }

    /// The per-cell `(min, max)` envelope at `ts` of the fields sent as
    /// roles `A` and `B` (the ensemble the server's envelope tracks).
    pub fn envelope(&self, ts: usize) -> (Vec<f64>, Vec<f64>) {
        let all = CellRange {
            start: 0,
            len: self.shape.cells,
        };
        let mut lo = vec![f64::INFINITY; self.shape.cells];
        let mut hi = vec![f64::NEG_INFINITY; self.shape.cells];
        for g in 0..self.shape.groups {
            for role in 0..2 {
                for (i, v) in self.values(g, role, ts, all).into_iter().enumerate() {
                    lo[i] = lo[i].min(v);
                    hi[i] = hi[i].max(v);
                }
            }
        }
        (lo, hi)
    }
}

/// The server configuration `ingest_replay` starts.
pub fn ingest_server_config(shape: IngestShape, work_dir: &Path) -> ServerConfig {
    ServerConfig {
        scope: String::new(),
        n_workers: shape.workers,
        n_cells: shape.cells,
        p: P,
        n_timesteps: shape.timesteps,
        hwm: 64,
        group_timeout: Duration::from_secs(60),
        checkpoint_interval: Duration::from_secs(3600),
        checkpoint_dir: work_dir.join("checkpoints"),
        report_interval: Duration::from_millis(50),
        track_ci: false,
        ci_variance_floor: 1e-12,
        restore: false,
        thresholds: vec![0.5],
        quantile_probs: StudyConfig::default().quantile_probs,
        telemetry: None,
    }
}

const LINK_TIMEOUT: Duration = Duration::from_secs(30);

/// Streams every group of `input` into the server as one client would:
/// connect handshake, `Data` frames per slab chunk, flush.  With a
/// tracer, each group's handshake and link set-up is a `client.connect`
/// span.  Returns `(first-send time, per-group seconds, frames sent)`.
fn generate(
    transport: &dyn Transport,
    input: &Synthetic,
    origin: Instant,
    tracer: Option<&Tracer>,
) -> Result<(u64, Vec<f64>, u64), String> {
    let shape = input.shape;
    let mut group_s = Vec::with_capacity(shape.groups);
    let mut frames = 0u64;
    let mut first = None;
    for g in 0..shape.groups {
        let t0 = Instant::now();
        first.get_or_insert(origin.elapsed().as_nanos() as u64);
        enter_client();
        let reply_name = names::group_reply(g as u64, 0);
        let reply_rx = transport.bind(&reply_name, 4);
        let main = transport
            .connect_retry(&names::server_main(), LINK_TIMEOUT)
            .map_err(|e| e.to_string())?;
        main.send(
            Message::ConnectRequest {
                group_id: g as u64,
                instance: 0,
            }
            .encode(),
        )
        .map_err(|e| e.to_string())?;
        let reply = reply_rx
            .recv_timeout(LINK_TIMEOUT)
            .map_err(|e| format!("handshake: {e:?}"))?;
        transport.unbind(&reply_name);
        let (n_workers, n_cells) = match Message::decode(&reply) {
            Ok(Message::ConnectReply {
                n_workers, n_cells, ..
            }) => (n_workers as usize, n_cells as usize),
            other => return Err(format!("unexpected handshake reply {other:?}")),
        };
        let partition = SlabPartition::new(n_cells, n_workers);
        let links = (0..n_workers)
            .map(|w| transport.connect(&names::server_worker(w)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for ts in 0..shape.timesteps {
            for role in 0..P + 2 {
                for start in (0..n_cells).step_by(shape.chunk) {
                    let chunk = CellRange {
                        start,
                        len: shape.chunk.min(n_cells - start),
                    };
                    for (w, sub) in partition.redistribution(chunk) {
                        let frame = Message::Data {
                            group_id: g as u64,
                            instance: 0,
                            role: role as u16,
                            timestep: ts as u32,
                            start: sub.start as u64,
                            values: input.values(g, role, ts, sub),
                        }
                        .encode();
                        links[w]
                            .send_timeout(frame, LINK_TIMEOUT)
                            .map_err(|e| e.to_string())?;
                        frames += 1;
                    }
                }
            }
        }
        for link in &links {
            link.flush(LINK_TIMEOUT).map_err(|e| e.to_string())?;
        }
        let (group, connect_end) = leave_client();
        if let Some(t) = tracer.filter(|_| connect_end > 0) {
            t.record(
                "client.connect",
                t.at(t0),
                connect_end,
                Tracer::current(),
                group,
                0,
            );
        }
        group_s.push(t0.elapsed().as_secs_f64());
    }
    Ok((first.unwrap_or(0), group_s, frames))
}

/// Runs one `ingest_replay` stream; `traced` records spans.
pub fn run_ingest(input: &Arc<Synthetic>, work_dir: &Path, traced: bool) -> Result<Sample, String> {
    let shape = input.shape;
    let call = Instant::now();
    let cpu0 = host::cpu_seconds();
    let tracer = traced.then(|| Arc::new(Tracer::new(call)));
    let root = tracer.as_ref().map(|t| t.enter("study", NO_GROUP, Some(0)));
    let raw: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let built = tracer.as_ref().map(|t| t.now());
    let capture = Arc::new(Capture::new([0]));
    let transport: Arc<dyn Transport> = match &tracer {
        Some(t) => Arc::new(TracingTransport::new(
            raw,
            Arc::clone(t),
            Arc::clone(&capture),
        )),
        None => raw,
    };
    let launcher_rx = transport.bind(&names::launcher(), 1024);
    let launcher_tx = transport
        .connect(&names::launcher())
        .map_err(|e| e.to_string())?;
    let server = Server::start(
        ingest_server_config(shape, work_dir),
        Arc::clone(&transport),
        launcher_tx,
    );
    loop {
        let frame = launcher_rx
            .recv_timeout(LINK_TIMEOUT)
            .map_err(|e| format!("server never became ready: {e:?}"))?;
        if matches!(Message::decode(&frame), Ok(Message::ServerReady)) {
            break;
        }
    }
    let generator = {
        let transport = Arc::clone(&transport);
        let input = Arc::clone(input);
        let root_id = root.map_or(0, |r| r.id());
        let tracer = tracer.clone();
        std::thread::spawn(move || {
            let open = tracer
                .as_ref()
                .map(|t| t.enter("group.job", NO_GROUP, Some(root_id)));
            let out = generate(transport.as_ref(), &input, call, tracer.as_deref());
            if let (Some(t), Some(open)) = (&tracer, open) {
                t.close(open, NO_GROUP, 0);
            }
            out
        })
    };
    // Set-up ends when a server worker has taken the first frame (its
    // state is allocated and the client's handshake is done); the stream
    // ends when every worker has integrated every group.
    let shared = Arc::clone(server.shared());
    let mut generator = Some(generator);
    let mut generated = None;
    let mut wait_for = |done: &dyn Fn() -> bool| -> Result<u64, String> {
        let deadline = Instant::now() + LINK_TIMEOUT;
        while !done() {
            if let Some(h) = generator.take_if(|h| h.is_finished()) {
                let out = h.join().map_err(|_| "generator thread panicked")??;
                generated = Some(out);
            }
            if Instant::now() > deadline {
                return Err("the server did not ingest the stream in time".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(call.elapsed().as_nanos() as u64)
    };
    let first_ingest =
        wait_for(&|| !shared.running_groups().is_empty() || !shared.finished_groups().is_empty())?;
    let last_end = wait_for(&|| shared.finished_groups().len() >= shape.groups)?;
    if let Some(h) = generator {
        generated = Some(h.join().map_err(|_| "generator thread panicked")??);
    }
    let (first_send, group_s, frames_sent) = generated.ok_or("generator result lost")?;
    let link = server.data_link_stats();
    let states = server.stop();
    let results = StudyResults::from_worker_states(P, shape.timesteps, shape.cells, states);
    drop(launcher_rx);
    let returned = call.elapsed().as_nanos() as u64;
    assemble_maps(&results);
    let ret = call.elapsed().as_nanos() as u64;
    let cpu_s = host::cpu_seconds() - cpu0;

    // One pseudo job per group, back to back from the first send.
    let mut jobs = Vec::with_capacity(group_s.len());
    let mut at = first_send;
    for (g, s) in group_s.iter().enumerate() {
        let end = at + (s * 1e9) as u64;
        jobs.push(JobRecord {
            submit: at,
            start: at,
            end,
            group: g as u64,
        });
        at = end;
    }
    let spans = match (tracer, root) {
        (Some(t), Some(root)) => {
            let root_id = root.id();
            t.close(root, NO_GROUP, 0);
            t.record(
                "setup.transport",
                0,
                built.unwrap_or(0),
                root_id,
                NO_GROUP,
                0,
            );
            t.record(
                "setup.server_start",
                built.unwrap_or(0),
                first_send,
                root_id,
                NO_GROUP,
                0,
            );
            let mut spans = t.take();
            let last_exit = spans
                .iter()
                .filter(|s| s.name == "server.exit")
                .map(|s| s.end)
                .max()
                .unwrap_or(last_end)
                .clamp(last_end, returned);
            t.record("finalize.drain", last_end, last_exit, root_id, NO_GROUP, 0);
            t.record(
                "finalize.assemble",
                last_exit,
                returned,
                root_id,
                NO_GROUP,
                0,
            );
            t.record("finalize.maps", returned, ret, root_id, NO_GROUP, 0);
            spans.extend(t.take());
            spans.sort_by_key(|s| (s.start, s.id));
            Some(TraceOut {
                tracer: t,
                spans,
                root: root_id,
                frames: capture.take(),
            })
        }
        _ => None,
    };
    Ok(Sample {
        study_s: secs(ret),
        returned_s: secs(returned),
        setup_s: secs(first_ingest),
        stream_s: secs(last_end.saturating_sub(first_ingest)),
        finalize_s: secs(ret.saturating_sub(last_end)),
        cpu_s,
        payload_bytes: (shape.groups * (P + 2) * shape.cells * shape.timesteps * 8) as u64,
        jobs,
        report: None,
        results,
        frames_sent,
        link,
        spans,
    })
}

/// Directory for checkpoints and trace files inside the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()))
}
