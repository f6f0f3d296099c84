//! Melissa Launcher: study orchestration and fault supervision
//! (paper Sections 4.1.4 and 4.2).
//!
//! The launcher draws the pick-freeze design, starts Melissa Server, then
//! submits every simulation group as an independent job.  While the study
//! runs it supervises everything:
//!
//! * **unfinished groups** — the server reports groups whose inter-message
//!   gap exceeded the timeout; the launcher kills and resubmits them;
//! * **zombie groups** — jobs the scheduler sees running that never
//!   contacted the server; detected by reconciling server reports with job
//!   state, then killed and resubmitted;
//! * **server faults** — heartbeat loss triggers a full recovery: kill
//!   everything, restart the server from its last checkpoint, resubmit all
//!   unfinished groups (discard-on-replay makes over-submission safe);
//! * **retry caps** — a group failing more than `max_group_retries` times
//!   is abandoned (never replaced by a redrawn row, which would bias the
//!   statistics — paper Section 4.2.2);
//! * **convergence loopback** — optional early stop once the widest
//!   confidence interval falls below the target (Section 4.1.5).
//!
//! The supervision machinery is factored per *shard*: [`run_study_in`] runs
//! one `ShardSupervisor` over one server instance for the classic
//! single-server study, while the sharded runner ([`crate::shard`]) runs
//! one per server instance, all sharing the batch runner (the global node
//! budget), the study clock and the convergence coordination.  Each
//! supervisor owns its shard's failover completely — including the
//! checkpoint-restore server recovery — so a shard failure never stalls
//! the other shards.  A supervisor runs one method per phase of its tick
//! (inbox, handoffs, migrations, kills, server recovery, job
//! reconciliation, convergence, completion), and every way out of it —
//! success, re-homing, cancellation, wall limit or error — passes through
//! one teardown that stops its jobs and its server.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use melissa_sobol::design::PickFreeze;
use melissa_solver::injection::InjectionParams;
use melissa_solver::FrozenFlow;
use melissa_telemetry::{EventKind, Telemetry};
use melissa_transport::directory::names;
use melissa_transport::{
    make_transport_with, BoxReceiver, BoxSender, KillSwitch, LinkStatsSnapshot, LivenessTracker,
    LoadMonitor, Receiver, RecvTimeoutError, Transport,
};
use parking_lot::Mutex;

use crate::config::StudyConfig;
use crate::fault::{FaultPlan, Migration, MigrationMoves, ShardKill};
use crate::group::{run_group, GroupContext, GroupOutcome};
use crate::protocol::Message;
use crate::report::StudyReport;
use crate::server::checkpoint::read_checkpoint;
use crate::server::state::WorkerState;
use crate::server::{Server, ServerConfig, ServerShared};
use crate::shard::{GroupRouter, RoutingTable};
use crate::study::{StudyOutput, StudyResults};
use melissa_mesh::SlabPartition;
use melissa_scheduler::{Dispatcher, JobRunner};

/// The execution environment a study runs in.
///
/// The defaults reproduce the standalone launcher exactly: a fresh
/// transport built from [`StudyConfig::transport`], a private
/// [`JobRunner`] (a one-tenant fair-runner stream, FIFO) sized to
/// [`StudyConfig::max_concurrent_groups`], the flat endpoint namespace
/// and no external cancellation.  A multi-tenant service overrides all
/// four — the shared transport, a per-study [`Dispatcher`] slice of the
/// shared node pool, a `study<id>` scope isolating every endpoint name
/// and checkpoint path, and a cancel switch wired to its `cancel` RPC —
/// and the supervision machinery in between runs unchanged.
#[derive(Default)]
pub struct StudyRuntime {
    /// Transport override (`None` builds one from the configuration).
    pub transport: Option<Arc<dyn Transport>>,
    /// Group-job dispatcher override (`None` builds a private
    /// [`JobRunner`] with `max_concurrent_groups` units).
    pub runner: Option<Arc<dyn Dispatcher>>,
    /// Outer endpoint scope: every endpoint the study binds — servers,
    /// launcher inboxes, telemetry — nests under it (empty keeps the
    /// classic flat namespace).
    pub scope: String,
    /// Cooperative cancellation: once killed, every shard supervisor
    /// stops its jobs and server and the study returns a "cancelled"
    /// error.
    pub cancel: KillSwitch,
}

/// Tracking entry for one active group job.
struct ActiveJob {
    handle: melissa_scheduler::JobHandle,
    instance: u32,
    /// Submission time: the job's age in a wall-limit error.
    submitted_at: Instant,
    /// Zombie clock: held at the current time while the job is queued.
    started_at: Instant,
}

/// One group crossing an epoch fence: everything the adopting shard needs
/// to resume it — per-worker discard floors (the flush-barrier result) and
/// the instance number the replayed job will run as.
pub(crate) struct MigratedGroup {
    pub id: u64,
    /// One integration floor per server worker, in worker order: the last
    /// timestep that worker fully integrated before the fence (`-1` if
    /// none).  The target adopts these as discard-on-replay floors so the
    /// migrated instance's replay skips exactly what the source kept.
    pub floors: Vec<i64>,
    /// Instance number the target submits the replayed group job as.
    pub next_instance: u32,
}

/// One fence's handoff from a source supervisor to a target supervisor,
/// delivered through the [`Coordination`] mailboxes.  An *empty* handoff
/// (no groups) still counts toward the target's expected-handoff quota so
/// scripted targets never wait for groups that finished before the fence.
pub(crate) struct Handoff {
    pub from: usize,
    pub epoch: u64,
    pub groups: Vec<MigratedGroup>,
}

/// Cross-shard convergence coordination: every shard supervisor publishes
/// its latest convergence signals here, and the *aggregate* (max over
/// shards, each shard's CI being over fewer groups and therefore wider)
/// drives the early-stop decision for the whole study — adaptive stopping
/// works unchanged under sharding.
pub(crate) struct Coordination {
    /// Per-shard latest max CI width (∞ until the shard reports one).
    ci: Mutex<Vec<f64>>,
    /// Per-shard latest max Robbins–Monro quantile step (∞ until the
    /// shard reports one; 0 when order statistics are disabled).
    qstep: Mutex<Vec<f64>>,
    /// Per-shard finished-group counts.
    finished: Mutex<Vec<usize>>,
    /// Set once the aggregate signal crosses the target: every shard
    /// cancels its remaining groups.
    early_stop: AtomicBool,
    /// The epoch-fenced routing table shared by every supervisor and
    /// client: base group-hash assignment plus fenced per-group overrides
    /// ([`crate::shard::RoutingTable`]).
    pub(crate) routing: RoutingTable,
    /// Per-slot migration mailboxes: a fencing supervisor pushes its
    /// [`Handoff`] here and the target drains its own mailbox each
    /// supervision tick.
    mailboxes: Vec<Mutex<Vec<Handoff>>>,
}

impl Coordination {
    pub(crate) fn new(n_slots: usize, routing: RoutingTable) -> Self {
        Self {
            ci: Mutex::new(vec![f64::INFINITY; n_slots]),
            qstep: Mutex::new(vec![f64::INFINITY; n_slots]),
            finished: Mutex::new(vec![0; n_slots]),
            early_stop: AtomicBool::new(false),
            routing,
            mailboxes: (0..n_slots).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Delivers a fence's handoff to the target slot's mailbox.
    pub(crate) fn push_handoff(&self, slot: usize, handoff: Handoff) {
        self.mailboxes[slot].lock().push(handoff);
    }

    /// Drains the slot's mailbox (FIFO in push order).
    pub(crate) fn take_handoffs(&self, slot: usize) -> Vec<Handoff> {
        std::mem::take(&mut *self.mailboxes[slot].lock())
    }

    fn publish(&self, shard: usize, ci: f64, qstep: f64, finished: usize) {
        self.ci.lock()[shard] = ci;
        self.qstep.lock()[shard] = qstep;
        self.finished.lock()[shard] = finished;
    }

    /// Aggregate CI signal: the max over shards (∞ until every shard with
    /// groups has reported).
    fn max_ci(&self) -> f64 {
        self.ci.lock().iter().copied().fold(0.0, f64::max)
    }

    /// Aggregate quantile-step signal: the max over shards (∞ until every
    /// shard with groups has reported one).
    fn max_qstep(&self) -> f64 {
        self.qstep.lock().iter().copied().fold(0.0, f64::max)
    }

    fn total_finished(&self) -> usize {
        self.finished.lock().iter().sum()
    }
}

/// Everything the per-shard supervisors share: configuration, the drawn
/// design, the pre-run flow, the transport, the batch runner (global node
/// budget), the study clock and the convergence coordination.
pub(crate) struct StudyContext {
    pub config: StudyConfig,
    pub faults: FaultPlan,
    pub transport: Arc<dyn Transport>,
    pub design: PickFreeze,
    pub flow: Arc<FrozenFlow>,
    pub runner: Arc<dyn Dispatcher>,
    /// Outer endpoint scope every shard scope nests under (empty for a
    /// standalone study, `study<id>` under the daemon).
    pub outer: String,
    /// External cancellation (never killed for a standalone study).
    pub cancel: KillSwitch,
    pub coord: Coordination,
    pub p: usize,
    pub n_cells: usize,
    pub started: Instant,
    /// Supervisor slots this study runs: the `n_shards` launch-time
    /// shards, plus one joiner slot per scripted scale-out target beyond
    /// them ([`FaultPlan::n_supervisors`]).
    pub n_slots: usize,
    /// Per-slot live telemetry (empty when
    /// [`StudyConfig::telemetry`] is off): shared registry, event ring
    /// and routing-epoch gauge, all stamped against the study clock.
    pub telemetry: Vec<Arc<Telemetry>>,
}

impl StudyContext {
    /// Draws the design, runs the shared pre-run and sets up the runtime
    /// shared by all shard supervisors, inside the given [`StudyRuntime`]
    /// (the default runtime reproduces the standalone launcher; the
    /// daemon injects its shared transport and dispatcher, the study
    /// scope and the cancel switch here).
    pub(crate) fn new_in(config: StudyConfig, faults: FaultPlan, rt: StudyRuntime) -> Self {
        let transport = rt.transport.unwrap_or_else(|| {
            make_transport_with(config.transport.clone(), config.wire_compression)
        });
        let space = InjectionParams::parameter_space();
        let design = PickFreeze::generate(config.n_groups, &space, config.seed);
        let p = space.dim();
        let flow = Arc::new(config.solver.prerun());
        let n_cells = config.solver.mesh().n_cells();
        let runner: Arc<dyn Dispatcher> = rt
            .runner
            .unwrap_or_else(|| Arc::new(JobRunner::new(config.max_concurrent_groups)));
        let n_slots = faults.n_supervisors(config.n_shards);
        let routing =
            RoutingTable::new(GroupRouter::new(config.n_shards.max(1), config.shard_seed));
        let coord = Coordination::new(n_slots, routing);
        let started = Instant::now();
        // One telemetry hub per supervisor slot, all on the shared study
        // clock so cross-shard event timestamps are comparable.
        let telemetry = if config.telemetry {
            (0..n_slots)
                .map(|k| Telemetry::with_origin(k as u32, started))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            config,
            faults,
            transport,
            design,
            flow,
            runner,
            outer: rt.scope,
            cancel: rt.cancel,
            coord,
            p,
            n_cells,
            started,
            n_slots,
            telemetry,
        }
    }

    /// Slot `slot`'s telemetry hub (`None` when telemetry is disabled).
    pub(crate) fn telemetry(&self, slot: usize) -> Option<&Arc<Telemetry>> {
        self.telemetry.get(slot)
    }

    /// The server configuration of the shard in slot `slot` scoped by
    /// `scope` (the empty scope is the single-server deployment and keeps
    /// the flat checkpoint directory; shards checkpoint into per-shard
    /// subdirectories so worker files never collide).
    pub(crate) fn server_config(&self, slot: usize, scope: &str) -> ServerConfig {
        let checkpoint_dir = if scope.is_empty() {
            self.config.checkpoint_dir.clone()
        } else {
            self.config.checkpoint_dir.join(scope)
        };
        ServerConfig {
            scope: scope.to_string(),
            n_workers: self.config.server_workers,
            n_cells: self.n_cells,
            p: self.p,
            n_timesteps: self.config.solver.n_timesteps,
            hwm: self.config.hwm,
            group_timeout: self.config.group_timeout,
            checkpoint_interval: self.config.checkpoint_interval,
            checkpoint_dir,
            report_interval: Duration::from_millis(50),
            track_ci: self.config.target_ci_width.is_some(),
            ci_variance_floor: self.config.ci_variance_floor,
            restore: false,
            thresholds: self.config.thresholds.clone(),
            quantile_probs: self.config.quantile_probs.clone(),
            telemetry: self.telemetry(slot).cloned(),
        }
    }
}

/// What one shard supervisor hands back: the final worker statistics and
/// the shard's slice of the study accounting.
pub(crate) struct ShardRun {
    pub states: Vec<crate::server::state::WorkerState>,
    /// Per-shard accounting (counters, events, convergence signals);
    /// `wall_time` and assembly-level fields are filled by the caller.
    pub report: StudyReport,
}

/// Runs a complete study under the launcher's supervision, inside a
/// caller-built [`StudyRuntime`]: shared transport, injected dispatcher,
/// outer endpoint scope and external cancellation.  The default runtime
/// is the standalone launcher; the multi-tenant daemon overrides it to
/// run many isolated studies over one node pool.
pub fn run_study_in(
    config: StudyConfig,
    faults: FaultPlan,
    rt: StudyRuntime,
) -> Result<StudyOutput, String> {
    config.validate()?;
    faults.validate(config.n_shards)?;
    if config.n_shards > 1 {
        return crate::shard::run_sharded_study(config, faults, rt);
    }
    let ctx = StudyContext::new_in(config, faults, rt);
    let groups: Vec<u64> = (0..ctx.config.n_groups as u64).collect();
    let run = ShardSupervisor::run(&ctx, 0, &ctx.outer, &groups)?;

    let mut report = run.report;
    report.wall_time = ctx.started.elapsed();
    let results = StudyResults::from_worker_states(
        ctx.p,
        ctx.config.solver.n_timesteps,
        ctx.n_cells,
        run.states,
    );
    Ok(StudyOutput { results, report })
}

/// How a supervision loop ended without error.
enum Exit {
    /// Every owned group settled, or the study stopped early.
    Settled,
    /// A scripted permanent death: the shard re-homes to this slot.
    Rehome(usize),
}

/// Supervises one server instance (shard) over its group subset to
/// completion: the paper's launcher loop, run `N` times for `N` shards.
/// Each tick runs the phases in order: (1) drain the launcher inbox,
/// (1.5) adopt inbound handoffs, (2) run scripted migrations, (2.5) run
/// scripted kills, a permanent one taking the re-home exit, (3) recover a
/// dead server, (4) reconcile job states, (5) check convergence and (6)
/// test for completion.  Every exit — settled, re-homed, cancelled, out of
/// wall clock or failed — goes through [`finish`](Self::finish), which
/// stops every job and the server.
pub(crate) struct ShardSupervisor<'a> {
    ctx: &'a StudyContext,
    shard: usize,
    server_config: ServerConfig,
    launcher_rx: BoxReceiver,
    launcher_tx: BoxSender,
    /// The live server (taken only by a restart and by the teardown).
    server: Option<Server>,
    server_liveness: LivenessTracker<u32>,
    /// Load-aware supervision (the congestion-collapse fix): the loop's
    /// own timed waits measure how starved this process is, and both
    /// failure detectors (heartbeat, zombie check) stretch by that factor.
    load: LoadMonitor,
    outcomes: Arc<Mutex<HashMap<(u64, u32), GroupOutcome>>>,
    active: HashMap<u64, ActiveJob>,
    known_finished: HashSet<u64>,
    known_running: HashSet<u64>,
    /// Latest instance number of every resubmitted group.
    retries: HashMap<u64, u32>,
    abandoned: HashSet<u64>,
    /// Live ownership: shrinks when a fence migrates groups away, grows
    /// when a handoff arrives.
    owned: HashSet<u64>,
    /// Floors adopted from inbound handoffs, remembered so a later
    /// permanent death hands off at least these floors even if the local
    /// checkpoint predates the adoption.
    adopted_floors: HashMap<u64, Vec<i64>>,
    /// Scripted chaos, each a sorted queue consumed by trigger.
    kills: Vec<ShardKill>,
    kill_idx: usize,
    migrations: Vec<Migration>,
    mig_idx: usize,
    expected_handoffs: usize,
    handoffs_received: usize,
    /// Server counters carried across restarts ([`server_counters`]).
    carried: [u64; 4],
    last_ci: f64,
    last_qstep: f64,
    last_qsteps: Vec<f64>,
    early_stopped: bool,
    report: StudyReport,
    tele: Option<&'a Arc<Telemetry>>,
}

impl<'a> ShardSupervisor<'a> {
    /// Supervises slot `shard` under endpoint scope `scope` over its
    /// launch-time `groups` (increasing id order; empty for a joiner).
    pub(crate) fn run(
        ctx: &'a StudyContext,
        shard: usize,
        scope: &str,
        groups: &[u64],
    ) -> Result<ShardRun, String> {
        let mut sup = Self::new(ctx, shard, scope, groups);
        let exit = sup.supervise(groups);
        sup.finish(exit)
    }

    /// Binds the launcher inbox and starts the server (whose readiness
    /// [`supervise`](Self::supervise) awaits, inside the teardown's reach).
    fn new(ctx: &'a StudyContext, shard: usize, scope: &str, groups: &[u64]) -> Self {
        let config = &ctx.config;
        let launcher_rx = ctx.transport.bind(&names::launcher_in(scope), 1024);
        let launcher_tx = ctx
            .transport
            .connect(&names::launcher_in(scope))
            .expect("just bound");
        let mut report = StudyReport::new(config.n_groups);
        report.n_shards = config.n_shards;
        // Stamp journal events against the shared study clock, tagged with
        // this supervisor's slot, so per-shard journals merge on one axis.
        report.origin = ctx.started;
        report.shard = shard as u32;
        if shard >= config.n_shards {
            // A joiner slot: no groups at launch, everything arrives by
            // handoff (elastic scale-out).
            report.shards_joined = 1;
        }
        let server_config = ctx.server_config(shard, scope);
        let server = Server::start(
            server_config.clone(),
            Arc::clone(&ctx.transport),
            launcher_tx.clone(),
        );
        Self {
            ctx,
            shard,
            server_config,
            launcher_rx,
            launcher_tx,
            server: Some(server),
            server_liveness: LivenessTracker::new(config.server_timeout),
            load: LoadMonitor::new(),
            outcomes: Arc::new(Mutex::new(HashMap::new())),
            active: HashMap::new(),
            known_finished: HashSet::new(),
            known_running: HashSet::new(),
            retries: HashMap::new(),
            abandoned: HashSet::new(),
            owned: groups.iter().copied().collect(),
            adopted_floors: HashMap::new(),
            kills: ctx.faults.kills_for_shard(shard),
            kill_idx: 0,
            migrations: ctx.faults.migrations_from(shard),
            mig_idx: 0,
            expected_handoffs: ctx.faults.expected_handoffs(shard),
            handoffs_received: 0,
            carried: [0; 4],
            last_ci: f64::INFINITY,
            last_qstep: f64::INFINITY,
            last_qsteps: Vec::new(),
            early_stopped: false,
            report,
            tele: ctx.telemetry(shard),
        }
    }

    /// Waits for the server, submits every launch-time group once, then
    /// runs the phases each tick until the shard settles, re-homes or
    /// fails.
    fn supervise(&mut self, groups: &[u64]) -> Result<Exit, String> {
        wait_for_ready(self.launcher_rx.as_ref(), self.ctx.config.server_timeout)?;
        // In increasing id order: the runner starts a stream's jobs FIFO,
        // so this is a deterministic start order.
        for &g in groups {
            self.submit(g, 0);
        }
        // A shard with no groups still answers the convergence
        // coordination so the aggregate does not stay pinned at ∞.
        if groups.is_empty() {
            self.publish_signals();
        }
        self.server_liveness.record(0u32);
        loop {
            self.check_limits()?;
            self.refresh_gauges();
            self.drain_inbox()?;
            self.adopt_handoffs()?;
            self.run_migrations()?;
            if let Some(to) = self.run_kills() {
                return Ok(Exit::Rehome(to));
            }
            if self.recover_server()? {
                continue;
            }
            self.reconcile_jobs();
            self.check_convergence();
            if self.is_complete() {
                return Ok(Exit::Settled);
            }
        }
    }

    /// External cancellation (the daemon's `cancel` RPC) and the wall
    /// limit.
    fn check_limits(&self) -> Result<(), String> {
        if self.ctx.cancel.is_killed() {
            return Err(format!(
                "study cancelled: finished {}/{}",
                self.known_finished.len(),
                self.owned.len()
            ));
        }
        if self.ctx.started.elapsed() > self.ctx.config.wall_limit {
            return Err(self.wall_limit_error());
        }
        Ok(())
    }

    /// The wall-limit error, carrying the state that explains a stall:
    /// progress, every active job (`g<group>#<instance>`, state, age), the
    /// handoff quota, the unfired script, the epoch and the runner.
    fn wall_limit_error(&self) -> String {
        let mut jobs: Vec<(&u64, &ActiveJob)> = self.active.iter().collect();
        // Started jobs first: they are the ones holding the pool.
        jobs.sort_unstable_by_key(|(g, job)| (!job.handle.has_started(), **g));
        let listed: Vec<String> = jobs
            .iter()
            .map(|(g, job)| {
                let state = match (job.handle.is_finished(), job.handle.has_started()) {
                    (true, _) => "ended",
                    (false, true) => "running",
                    (false, false) => "queued",
                };
                let age = job.submitted_at.elapsed();
                format!("g{g}#{} {state} {age:.1?}", job.instance)
            })
            .collect();
        let runner = &self.ctx.runner;
        format!(
            "study exceeded wall limit {:?}: finished {}/{} owned, abandoned {}; \
             {} active jobs [{}]; handoffs {}/{}; unfired migrations {}, kills {}; \
             routing epoch {}; runner {} queued, {}/{} units free",
            self.ctx.config.wall_limit,
            self.known_finished.len(),
            self.owned.len(),
            self.abandoned.len(),
            jobs.len(),
            listed.join(", "),
            self.handoffs_received,
            self.expected_handoffs,
            self.migrations.len() - self.mig_idx,
            self.kills.len() - self.kill_idx,
            self.ctx.coord.routing.epoch(),
            runner.queued_jobs(),
            runner.free_units(),
            runner.total_units(),
        )
    }

    /// Control-path gauges, and the heartbeat timeout, which follows the
    /// measured scheduling delay (factor 1 on a healthy host).
    fn refresh_gauges(&self) {
        let runner = &self.ctx.runner;
        if let Some(t) = self.tele {
            let r = t.registry();
            r.gauge("runner_queue_depth").set(runner.queued_jobs());
            r.gauge("runner_free_units").set(runner.free_units() as u64);
            r.gauge("load_factor_milli")
                .set((self.load.factor() * 1000.0) as u64);
        }
        let timeout = self.load.scale(self.ctx.config.server_timeout);
        self.server_liveness.set_timeout(timeout);
    }

    /// Phase 1: handles at most one launcher-inbox message, waiting one
    /// poll period for it.
    fn drain_inbox(&mut self) -> Result<(), String> {
        let poll = Duration::from_millis(10);
        let wait_started = Instant::now();
        let frame = match self.launcher_rx.recv_timeout(poll) {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Timeout) => {
                self.load.observe(poll, wait_started.elapsed());
                return Ok(());
            }
            Err(RecvTimeoutError::Disconnected) => return Err("launcher inbox closed".into()),
        };
        match Message::decode(&frame) {
            Ok(Message::Heartbeat { .. } | Message::ServerReady) => {
                self.server_liveness.record(0u32);
            }
            Ok(Message::ServerReport {
                finished_groups,
                running_groups,
                max_ci_width,
                max_quantile_step,
                quantile_steps,
                blocked_sends,
                blocked_nanos,
            }) => {
                self.server_liveness.record(0u32);
                self.known_finished.extend(finished_groups);
                self.known_running = running_groups.into_iter().collect();
                self.last_ci = max_ci_width;
                self.last_qstep = max_quantile_step;
                self.last_qsteps = quantile_steps;
                self.publish_signals();
                // Live backpressure accounting (the Fig. 6 signal), until
                // the final rollup writes the end-of-study figures.
                self.report.blocked_sends = blocked_sends;
                self.report.blocked_time = Duration::from_nanos(blocked_nanos);
            }
            Ok(Message::GroupTimeout { group_id })
                if !self.known_finished.contains(&group_id) && self.owned.contains(&group_id) =>
            {
                self.log(EventKind::GroupTimeout { group: group_id });
                self.fail_group(group_id);
            }
            _ => {}
        }
        Ok(())
    }

    /// Phase 1.5: adopts inbound handoffs — floors first (the ban lift
    /// and discard floors must be in place before the replayed instance's
    /// first frame), then the resubmission.
    fn adopt_handoffs(&mut self) -> Result<(), String> {
        for handoff in self.ctx.coord.take_handoffs(self.shard) {
            self.handoffs_received += 1;
            if handoff.groups.is_empty() {
                continue;
            }
            let adopt_started = Instant::now();
            self.log(EventKind::GroupsAdopted {
                epoch: handoff.epoch,
                n_groups: handoff.groups.len() as u64,
                from: handoff.from as u32,
            });
            for mg in handoff.groups {
                self.adopt_floors(mg.id, &mg.floors)?;
                self.owned.insert(mg.id);
                self.adopted_floors.insert(mg.id, mg.floors);
                self.restart(mg.id, mg.next_instance);
            }
            // Persist the adoption: a transient crash right after this
            // point must restore the adopted floors, not resurrect
            // pre-fence state.
            self.server()
                .checkpoint_now(&self.server_config.checkpoint_dir);
            record_since(self.tele, "migrate_adopt_nanos", adopt_started);
        }
        Ok(())
    }

    /// Phase 2: scripted live migrations whose trigger point was reached.
    fn run_migrations(&mut self) -> Result<(), String> {
        while let Some(m) = self
            .migrations
            .get(self.mig_idx)
            .filter(|m| self.known_finished.len() >= m.after_finished_groups)
            .cloned()
        {
            self.mig_idx += 1;
            self.migrate(&m)?;
        }
        Ok(())
    }

    /// One drain-and-move under an epoch fence: stops each moving group's
    /// job, fences it out of the server and hands its final floors over.
    fn migrate(&mut self, m: &Migration) -> Result<(), String> {
        let finished_now = self.server().shared().finished_groups();
        let drain_started = Instant::now();
        let mut candidates: Vec<u64> = match &m.moves {
            MigrationMoves::Groups(gs) => gs.clone(),
            MigrationMoves::AllUnfinished => self.owned.iter().copied().collect(),
        };
        candidates.retain(|g| {
            self.owned.contains(g) && !finished_now.contains(g) && !self.abandoned.contains(g)
        });
        candidates.sort_unstable();
        let last_ts = self.ctx.config.solver.n_timesteps as i64 - 1;
        let mut moved: Vec<MigratedGroup> = Vec::new();
        for g in candidates {
            // Stop the sender first: after the join no new frames for the
            // group enter the transport, so the flush barrier fences a
            // *final* floor.
            self.stop_job(g);
            let floors = self.migrate_out(g)?;
            if floors.iter().any(|&f| f >= last_ts) {
                // Finishing filter: some worker already integrated the
                // group's last timestep — too late to move.  Re-adopt
                // locally (lifts the ban) and resubmit if any worker
                // still wants data.
                self.adopt_floors(g, &floors)?;
                self.log(EventKind::FinishedDuringFence {
                    group: g,
                    shard: self.shard as u32,
                });
                if !self.server().shared().finished_groups().contains(&g) {
                    self.restart(g, self.next_instance(g));
                }
                continue;
            }
            self.owned.remove(&g);
            self.known_running.remove(&g);
            moved.push(MigratedGroup {
                id: g,
                floors,
                next_instance: self.next_instance(g),
            });
        }
        let epoch = self.fence(m.to, &moved);
        record_since(self.tele, "migrate_drain_nanos", drain_started);
        self.log(EventKind::MigrationFence {
            epoch,
            n_groups: moved.len() as u64,
            from: self.shard as u32,
            to: m.to as u32,
        });
        // Persist the post-fence floors before anything else can fail: a
        // transient restore must never resurrect a migrated group's
        // pre-fence state.
        self.server()
            .checkpoint_now(&self.server_config.checkpoint_dir);
        self.hand_off(m.to, epoch, moved);
        if self.owned.is_empty() {
            // Drained by scale-in: neutralise the convergence signal.
            self.publish_signals();
        }
        Ok(())
    }

    /// Phase 2.5: fires the next scripted server kill once its trigger is
    /// reached — transient (crash-restore in place, phase 3) or permanent
    /// (returns the re-home target).  At most one kill fires per tick: a
    /// transient one must crash-restore before the next script entry.
    fn run_kills(&mut self) -> Option<usize> {
        let k = self
            .kills
            .get(self.kill_idx)
            .filter(|k| self.known_finished.len() >= k.after_finished_groups)?
            .clone();
        self.kill_idx += 1;
        let finished = self.known_finished.len() as u64;
        if !k.permanent {
            self.log(EventKind::ServerKillInjected { finished });
            self.server().kill.kill();
            return None;
        }
        let to = k
            .rehome_to
            .expect("validated: permanent kills name a re-home target");
        self.log(EventKind::ShardDeathInjected {
            finished,
            rehome_to: to as u32,
        });
        Some(to)
    }

    /// Phase 3: server fault recovery (per-shard failover: the restored
    /// instance rebinds the same scoped endpoints, and the routing table
    /// sends exactly this shard's unfinished groups back to it).  Returns
    /// whether the server was restarted.
    fn recover_server(&mut self) -> Result<bool, String> {
        if !self.server().kill.is_killed() && self.server_liveness.expired().is_empty() {
            return Ok(false);
        }
        self.report.server_restarts += 1;
        self.log(EventKind::ServerRestarted);
        // Kill all running jobs (their sends would hang on dead
        // endpoints), then restart the server from its checkpoint.
        self.stop_jobs();
        let crashed = self.server.take().expect("the server runs until teardown");
        for (c, n) in self
            .carried
            .iter_mut()
            .zip(server_counters(crashed.shared()))
        {
            *c += n;
        }
        crashed.abandon();
        let restore_cfg = ServerConfig {
            restore: true,
            ..self.server_config.clone()
        };
        self.server = Some(Server::start(
            restore_cfg,
            Arc::clone(&self.ctx.transport),
            self.launcher_tx.clone(),
        ));
        wait_for_ready(self.launcher_rx.as_ref(), self.ctx.config.server_timeout)?;
        self.server_liveness.record(0u32);
        // Only the restored checkpoint's bookkeeping counts now: any group
        // the launcher believed finished but the server lost since its
        // last checkpoint must be restarted too (paper Section 4.2.3: "the
        // groups considered as finished by the launcher but not the
        // server").
        self.known_finished = self
            .server()
            .shared()
            .finished_groups()
            .into_iter()
            .collect();
        self.known_running.clear();
        // Resubmit everything not finished (discard-on-replay absorbs any
        // duplicated timesteps), in sorted order over current ownership so
        // restarts after a fence stay deterministic.
        let mut unfinished: Vec<u64> = self
            .owned
            .iter()
            .copied()
            .filter(|g| !self.known_finished.contains(g) && !self.abandoned.contains(g))
            .collect();
        unfinished.sort_unstable();
        for g in unfinished {
            let instance = self.next_instance(g);
            self.log(EventKind::GroupResubmitted { group: g, instance });
            self.restart(g, instance);
        }
        Ok(true)
    }

    /// Phase 4: reconciles job states — completed, died, or zombie.
    fn reconcile_jobs(&mut self) {
        // Zombie bound, scaled by the observed scheduling delay: a slow
        // host or a queue-starved tenant stretches it, a healthy host
        // keeps 2× the nominal timeout.
        let zombie_after = self.load.scale(self.ctx.config.group_timeout * 2);
        let mut ended: Vec<u64> = Vec::new();
        let mut failed: Vec<(u64, EventKind)> = Vec::new();
        for (&g, job) in self.active.iter_mut() {
            if !job.handle.is_finished() {
                // A job still waiting its turn on a busy shared pool is
                // not silent: its zombie clock starts when it starts.
                // Past that, a job the server never heard from longer
                // than the bound is a zombie.
                let silent = !self.known_running.contains(&g) && !self.known_finished.contains(&g);
                if !job.handle.has_started() {
                    job.started_at = Instant::now();
                } else if silent && job.started_at.elapsed() > zombie_after {
                    let instance = job.instance;
                    failed.push((g, EventKind::GroupZombie { group: g, instance }));
                }
                continue;
            }
            let outcome = self.outcomes.lock().get(&(g, job.instance)).cloned();
            match outcome {
                Some(GroupOutcome::Completed { .. }) => {
                    record_since(self.tele, "group_turnaround_nanos", job.started_at);
                    ended.push(g);
                }
                Some(GroupOutcome::Died { .. }) | Some(GroupOutcome::Aborted { .. }) => {
                    let detail = format!("{outcome:?}");
                    let instance = job.instance;
                    failed.push((
                        g,
                        EventKind::GroupDied {
                            group: g,
                            instance,
                            detail,
                        },
                    ));
                }
                None => ended.push(g), // killed before recording
            }
        }
        for g in ended {
            self.active.remove(&g);
        }
        for (g, event) in failed {
            self.log(event);
            if self.known_finished.contains(&g) {
                self.active.remove(&g);
            } else {
                self.fail_group(g);
            }
        }
    }

    /// Phase 5: convergence loopback — stop early once every configured
    /// *aggregate* signal (max over shards: CI width and/or quantile step)
    /// converged, i.e. on whichever estimate is slowest.  Whichever
    /// supervisor observes the crossing flips the shared flag; all shards
    /// then cancel their remaining groups.
    fn check_convergence(&mut self) {
        let ctx = self.ctx;
        let config = &ctx.config;
        if config.target_ci_width.is_none() && config.target_quantile_step.is_none() {
            return;
        }
        let global_ci = ctx.coord.max_ci();
        let global_qstep = ctx.coord.max_qstep();
        let ci_ok = config
            .target_ci_width
            .is_none_or(|t| global_ci.is_finite() && global_ci < t);
        let qstep_ok = config
            .target_quantile_step
            .is_none_or(|t| global_qstep.is_finite() && global_qstep < t);
        if ci_ok && qstep_ok && ctx.coord.total_finished() > 0 {
            ctx.coord.early_stop.store(true, Ordering::Relaxed);
        }
        if ctx.coord.early_stop.load(Ordering::Relaxed) && !self.early_stopped {
            self.early_stopped = true;
            self.log(EventKind::EarlyStop {
                max_ci: global_ci,
                max_qstep: global_qstep,
                cancelled: self.active.len() as u64,
            });
            self.stop_jobs();
        }
    }

    /// Phase 6: completion — no job left, and either the study stopped
    /// early or every owned group settled *and* the chaos script fully
    /// played out (unfired fences would leave their targets waiting on
    /// the handoff quota forever).
    fn is_complete(&self) -> bool {
        let script_done = self.mig_idx >= self.migrations.len()
            && self.kill_idx >= self.kills.len()
            && self.handoffs_received >= self.expected_handoffs;
        let settled = self
            .known_finished
            .iter()
            .filter(|g| self.owned.contains(g))
            .count()
            + self.abandoned.len()
            >= self.owned.len();
        (self.early_stopped || (script_done && settled)) && self.active.is_empty()
    }

    /// The one teardown: stops every job, then stops the server and rolls
    /// up the report (settled), or abandons it and re-homes its lineage
    /// (permanent death) or passes the error on.
    fn finish(mut self, exit: Result<Exit, String>) -> Result<ShardRun, String> {
        self.stop_jobs();
        let server = self.server.take().expect("the server runs until teardown");
        let link = server.data_link_stats();
        let shared = Arc::clone(server.shared());
        match exit {
            Err(e) => {
                server.abandon();
                Err(e)
            }
            Ok(Exit::Settled) => {
                // An early-stopped supervisor still owes its script's
                // targets their handoff envelopes.
                self.deliver_empty_handoffs(self.ctx.coord.routing.epoch());
                let states = server.stop();
                self.report.groups_finished = self.known_finished.len();
                self.publish_signals();
                let epoch = self.ctx.coord.routing.epoch();
                Ok(self.rollup(states, &link, &shared, epoch))
            }
            Ok(Exit::Rehome(to)) => {
                server.abandon();
                Ok(self.rehome(to, &link, &shared))
            }
        }
    }

    /// The permanent-death exit: the server is gone for good, so its last
    /// checkpoint *is* its statistics lineage.  Every group not finished
    /// by every worker of that lineage is fenced to `to` with per-worker
    /// floors (checkpointed floor, raised to any floor this shard itself
    /// adopted earlier); the lineage is this slot's contribution to the
    /// study-end reduction.
    fn rehome(mut self, to: usize, link: &LinkStatsSnapshot, shared: &ServerShared) -> ShardRun {
        let ctx = self.ctx;
        let config = &ctx.config;
        // An unreadable worker checkpoint hands off cold (floor −1 ⇒ full
        // replay at the target).
        let n_workers = config.server_workers;
        let partition = SlabPartition::new(ctx.n_cells, n_workers);
        let mut lineage: Vec<WorkerState> = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            match read_checkpoint(&self.server_config.checkpoint_dir, w) {
                Ok(mut st) => {
                    st.ensure_quantiles(&config.quantile_probs);
                    lineage.push(st);
                }
                Err(e) => {
                    self.log(EventKind::CheckpointUnreadable {
                        worker: w as u32,
                        detail: e.to_string(),
                    });
                    lineage.push(WorkerState::with_stats(
                        w,
                        partition.worker_range(w),
                        ctx.p,
                        config.solver.n_timesteps,
                        &config.thresholds,
                        &config.quantile_probs,
                    ));
                }
            }
        }
        // Only groups finished by *every* worker of the lineage stay; the
        // rest re-home (a partially finished group replays its tail on the
        // target, discard floors preventing any double integration).
        let finished_everywhere: HashSet<u64> = lineage[0]
            .finished_groups()
            .iter()
            .copied()
            .filter(|g| lineage.iter().all(|s| s.finished_groups().contains(g)))
            .collect();
        let mut moving: Vec<u64> = self
            .owned
            .iter()
            .copied()
            .filter(|g| !self.abandoned.contains(g) && !finished_everywhere.contains(g))
            .collect();
        moving.sort_unstable();
        let moved: Vec<MigratedGroup> = moving
            .into_iter()
            .map(|g| MigratedGroup {
                id: g,
                floors: (0..n_workers)
                    .map(|w| {
                        let remembered = self.adopted_floors.get(&g).map_or(-1, |f| f[w]);
                        lineage[w].completed_floor(g).max(remembered)
                    })
                    .collect(),
                next_instance: self.next_instance(g),
            })
            .collect();
        let epoch = self.fence(to, &moved);
        self.report.shards_rehomed = 1;
        self.log(EventKind::ShardRehomed {
            epoch,
            n_groups: moved.len() as u64,
            from: self.shard as u32,
            to: to as u32,
        });
        self.hand_off(to, epoch, moved);
        // The rest of this shard's script will never fire.
        self.deliver_empty_handoffs(epoch);
        self.report.groups_finished = self
            .owned
            .iter()
            .filter(|g| finished_everywhere.contains(g))
            .count();
        // Neutralise the convergence signal: a dead slot must not pin the
        // aggregate at its last (stale) value or at ∞.
        let finished = self.report.groups_finished;
        ctx.coord.publish(self.shard, 0.0, 0.0, finished);
        self.rollup(lineage, link, shared, epoch)
    }

    /// The report rollup shared by the settled and re-homed exits.
    fn rollup(
        self,
        states: Vec<WorkerState>,
        link: &LinkStatsSnapshot,
        shared: &ServerShared,
        epoch: u64,
    ) -> ShardRun {
        let transport = &self.ctx.transport;
        let mut report = self.report;
        let mut abandoned: Vec<u64> = self.abandoned.into_iter().collect();
        abandoned.sort_unstable();
        report.groups_abandoned = abandoned;
        let [messages, bytes, replays, checkpoints] = server_counters(shared);
        report.data_messages = self.carried[0] + messages;
        report.data_bytes = self.carried[1] + bytes;
        report.replays_discarded = self.carried[2] + replays;
        report.checkpoints_written = self.carried[3] + checkpoints;
        report.transport = transport.backend_name().to_string();
        report.blocked_sends = link.blocked_sends;
        report.blocked_time = link.blocked_time();
        report.link_messages = link.messages;
        report.link_bytes = link.bytes;
        report.link_wire_bytes = link.wire_bytes;
        report.early_stopped = self.early_stopped;
        report.final_max_ci = self.last_ci;
        report.final_max_quantile_step = self.last_qstep;
        report.quantile_probs = self.ctx.config.quantile_probs.clone();
        report.final_quantile_steps = self.last_qsteps;
        report.transport_reconnects = transport.reconnects();
        report.routing_epoch = epoch;
        ShardRun { states, report }
    }

    /// Submits instance `instance` of group `g` and tracks its job.
    fn submit(&mut self, g: u64, instance: u32) {
        let ctx = self.ctx;
        let config = &ctx.config;
        // Sharded studies route through the epoch-fenced table *at submit
        // time*, so a group resubmitted after a fence connects to its new
        // owner.  The table speaks bare shard scopes, nested here under
        // the outer study scope (a daemon-hosted study's `study<id>`),
        // which is also the single-server study's own scope.
        let scope = if config.n_shards > 1 {
            names::scoped(&ctx.outer, &ctx.coord.routing.scope_of(g))
        } else {
            ctx.outer.clone()
        };
        let job = GroupContext {
            scope,
            group_id: g,
            instance,
            rows: ctx.design.group(g as usize).rows().to_vec(),
            solver: config.solver.clone(),
            flow: Arc::clone(&ctx.flow),
            ranks: config.ranks_per_simulation,
            transport: Arc::clone(&ctx.transport),
            timeout: config.group_timeout,
            fault: ctx.faults.group_fault(g, instance),
            link_fault: config.link_fault.clone(),
            wire_compression: config.wire_compression,
        };
        let outcomes = Arc::clone(&self.outcomes);
        let handle = ctx.runner.submit_boxed(
            1,
            Box::new(move |kill| {
                let outcome = run_group(job, kill);
                outcomes.lock().insert((g, instance), outcome);
            }),
        );
        let now = Instant::now();
        let job = ActiveJob {
            handle,
            instance,
            submitted_at: now,
            started_at: now,
        };
        self.active.insert(g, job);
    }

    /// Resubmits group `g` as `instance` (a retry, a post-crash or
    /// finishing-filter resubmission, or an adopted group's replay).
    fn restart(&mut self, g: u64, instance: u32) {
        self.retries.insert(g, instance);
        self.report.group_restarts += 1;
        self.submit(g, instance);
    }

    fn next_instance(&self, g: u64) -> u32 {
        self.retries.get(&g).copied().unwrap_or(0) + 1
    }

    /// Kills and resubmits a failed group, honouring the retry cap: past
    /// it the group is abandoned, never replaced by a redrawn row (paper
    /// Section 4.2.2).
    fn fail_group(&mut self, g: u64) {
        if self.abandoned.contains(&g) {
            return;
        }
        self.stop_job(g);
        let instance = self.next_instance(g);
        let retries = self.ctx.config.max_group_retries;
        if instance > retries {
            self.retries.insert(g, instance);
            self.abandoned.insert(g);
            self.log(EventKind::GroupAbandoned { group: g, retries });
            return;
        }
        self.log(EventKind::GroupRestarted { group: g, instance });
        self.restart(g, instance);
    }

    /// Kills one group's job, if it has one, and waits for it to end.
    fn stop_job(&mut self, g: u64) {
        if let Some(job) = self.active.remove(&g) {
            job.handle.kill.kill();
            job.handle.join();
        }
    }

    /// Kills every active job, then joins them all (every kill goes out
    /// before the first join, so the jobs wind down in parallel).
    fn stop_jobs(&mut self) {
        for job in self.active.values() {
            job.handle.kill.kill();
        }
        for (_, job) in self.active.drain() {
            job.handle.join();
        }
    }

    /// Fences `groups` over to slot `to`; returns the new routing epoch.
    fn fence(&mut self, to: usize, groups: &[MigratedGroup]) -> u64 {
        let moves: Vec<(u64, usize)> = groups.iter().map(|mg| (mg.id, to)).collect();
        let epoch = self.ctx.coord.routing.fence(&moves);
        if let Some(t) = self.tele {
            t.set_routing_epoch(epoch);
        }
        self.report.groups_migrated += groups.len() as u64;
        epoch
    }

    fn hand_off(&self, to: usize, epoch: u64, groups: Vec<MigratedGroup>) {
        let from = self.shard;
        let handoff = Handoff {
            from,
            epoch,
            groups,
        };
        self.ctx.coord.push_handoff(to, handoff);
    }

    /// Delivers an empty handoff to the target of every unfired script
    /// entry: each still counts toward its target's handoff quota.
    fn deliver_empty_handoffs(&self, epoch: u64) {
        let migration_targets = self.migrations[self.mig_idx..].iter().map(|m| m.to);
        let rehome_targets = self.kills[self.kill_idx..]
            .iter()
            .filter(|k| k.permanent)
            .filter_map(|k| k.rehome_to);
        for to in migration_targets.chain(rehome_targets) {
            self.hand_off(to, epoch, Vec::new());
        }
    }

    /// Installs group `g`'s discard floors and waits until every worker
    /// acknowledged them (the replayed instance must not start before).
    fn adopt_floors(&self, g: u64, floors: &[i64]) -> Result<(), String> {
        let server = self.server();
        server.adopt_floors(g, floors);
        poll_until(self.ctx.config.migration_timeout, || {
            server.take_adopt_acks(g).then_some(())
        })
        .ok_or_else(|| {
            format!(
                "shard {}: floor adoption for group {g} timed out",
                self.shard
            )
        })
    }

    /// Fences group `g` out of the server and waits for the flush barrier:
    /// every worker's final integration floor.
    fn migrate_out(&self, g: u64) -> Result<Vec<i64>, String> {
        let server = self.server();
        server.migrate_out(g);
        poll_until(self.ctx.config.migration_timeout, || {
            server.take_migrate_floors(g)
        })
        .ok_or_else(|| {
            format!(
                "shard {}: migration flush barrier for group {g} timed out",
                self.shard
            )
        })
    }

    /// Publishes this slot's convergence signals — neutral while it owns
    /// no groups (a joiner before its handoff, a drained source), whose
    /// idle server's infinite CI would otherwise pin the aggregate.
    fn publish_signals(&self) {
        let (ci, qstep) = if self.owned.is_empty() {
            (0.0, 0.0)
        } else {
            (self.last_ci, self.last_qstep)
        };
        let finished = self.known_finished.len();
        self.ctx.coord.publish(self.shard, ci, qstep, finished);
    }

    fn server(&self) -> &Server {
        self.server
            .as_ref()
            .expect("the server runs until teardown")
    }

    /// Journals an event and mirrors it into the live telemetry ring.
    fn log(&mut self, kind: impl Into<EventKind>) {
        let event = self.report.log(kind);
        if let Some(t) = self.tele {
            t.record_event(event);
        }
    }
}

/// Records the time since `since` into histogram `name` (a no-op when
/// telemetry is off).
fn record_since(tele: Option<&Arc<Telemetry>>, name: &str, since: Instant) {
    if let Some(t) = tele {
        t.registry()
            .histogram(name)
            .record(since.elapsed().as_nanos() as u64);
    }
}

/// A server's counters that a crash-restore would lose: data messages,
/// data bytes, replays discarded and checkpoints written.
fn server_counters(s: &ServerShared) -> [u64; 4] {
    [
        s.messages_received.load(Ordering::Relaxed),
        s.bytes_received.load(Ordering::Relaxed),
        s.replays_discarded.load(Ordering::Relaxed),
        s.checkpoints_written.load(Ordering::Relaxed),
    ]
}

/// Polls `probe` every 2 ms until it yields a value or `timeout` passes.
fn poll_until<T>(timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = probe() {
            return Some(value);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Lease timeout of the study directory: nodes renew every couple of
/// seconds (`TcpTransportConfig::node`), so a name going silent for this
/// long means its process is gone.
pub const DIRECTORY_LEASE: Duration = Duration::from_secs(10);

/// Multi-node bootstrap: starts the deployment's directory service on an
/// ephemeral loopback port and returns it together with its `host:port`.
///
/// The launcher owns the directory for the lifetime of the study and
/// hands the address to every child process — conventionally via the
/// [`MELISSA_DIRECTORY`](melissa_transport::DIRECTORY_ENV) environment
/// variable — whose `TcpNode` transports then publish and resolve every
/// scoped endpoint through it (see `examples/multinode_study.rs` for the
/// full launch sequence).
pub fn bootstrap_directory() -> Result<(melissa_transport::DirectoryServer, String), String> {
    let server = melissa_transport::DirectoryServer::bind("127.0.0.1:0", DIRECTORY_LEASE)
        .map_err(|e| format!("binding the study directory: {e}"))?;
    let addr = server.local_addr().to_string();
    Ok((server, addr))
}

/// Waits for a `ServerReady` on the launcher inbox.
fn wait_for_ready(rx: &dyn Receiver, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("server did not become ready in time".into());
        }
        match rx.recv_timeout(left) {
            Ok(frame) => {
                if let Ok(Message::ServerReady) = Message::decode(&frame) {
                    return Ok(());
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                return Err("server did not become ready in time".into())
            }
            Err(RecvTimeoutError::Disconnected) => return Err("launcher inbox closed".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty shard publishes a neutral CI once and nothing may
    /// overwrite it: a stray ∞ from a shard that never computes a CI
    /// would pin the aggregate and permanently disable early stop.
    #[test]
    fn empty_shard_neutral_signal_keeps_the_aggregate_usable() {
        let coord = Coordination::new(2, RoutingTable::new(GroupRouter::new(2, 7)));
        assert_eq!(coord.max_ci(), f64::INFINITY, "unreported shards gate");
        assert_eq!(coord.max_qstep(), f64::INFINITY, "qstep gates too");
        coord.publish(1, 0.0, 0.0, 0); // empty shard: neutral, published once
        coord.publish(0, 0.02, 0.004, 3); // busy shard converged
        assert_eq!(coord.max_ci(), 0.02);
        assert_eq!(coord.max_qstep(), 0.004);
        assert_eq!(coord.total_finished(), 3);
        assert!(!coord.early_stop.load(Ordering::Relaxed));
    }

    #[test]
    fn bootstrap_directory_serves_a_reachable_store() {
        let (server, addr) = bootstrap_directory().expect("directory bootstrap");
        let client = melissa_transport::DirectoryClient::connect(&addr).expect("dial directory");
        use melissa_transport::Directory as _;
        client.publish("server/0", "127.0.0.1:1234").unwrap();
        assert_eq!(
            client.resolve("server/0").unwrap(),
            Some("127.0.0.1:1234".into())
        );
        drop(server);
    }
}
