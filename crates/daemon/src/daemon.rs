//! The multi-tenant study daemon: a persistent service hosting many
//! concurrent studies over one shared node pool.
//!
//! [`Daemon::start`] binds two endpoints on the caller's transport:
//!
//! * [`names::daemon_ctl`] — the control plane.  Clients submit
//!   serialized [`StudyConfig`]s with a tenant id and priority and drive
//!   the study lifecycle (`status`, `cancel`, `results`) through
//!   [`crate::protocol`] request/reply frames.
//! * [`names::daemon_telemetry`] — the daemon-level aggregate snapshot
//!   ([`crate::snapshot::DaemonSnapshot`]), served over the standard
//!   scrape protocol.
//!
//! Each admitted study runs under the unchanged launcher supervision
//! machinery inside its own endpoint scope (`study<id>/…`, so routing,
//! checkpoints, telemetry and migration stay isolated per study) and
//! dispatches its groups through a per-study
//! [`StreamHandle`](melissa_scheduler::StreamHandle) into the
//! shared deficit-round-robin [`FairRunner`] pool.  The stream cap
//! equals the study's `max_concurrent_groups`, so a daemon-hosted study
//! starts its groups in exactly the order and with exactly the
//! concurrency the standalone launcher would — which is why a
//! daemon-submitted study is bit-identical to the same-seed standalone
//! run even with other tenants' studies interleaved on the pool.
//!
//! [`names::daemon_ctl`]: melissa_transport::directory::names::daemon_ctl
//! [`names::daemon_telemetry`]: melissa_transport::directory::names::daemon_telemetry

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use melissa::server::checkpoint::pack_state;
use melissa::{Study, StudyConfig, StudyRuntime};
use melissa_scheduler::FairRunner;
use melissa_telemetry::ScrapeRequest;
use melissa_transport::codec::Wire;
use melissa_transport::directory::names;
use melissa_transport::{KillSwitch, RecvTimeoutError, Transport};
use parking_lot::Mutex;

use crate::admission::{AdmissionController, TenantQuota};
use crate::protocol::{DaemonOp, DaemonReply, DaemonRequest, StudyState};
use crate::snapshot::{DaemonSnapshot, StudySnapshot, TenantSnapshot};

/// Deployment knobs for a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Node units in the shared fair-scheduler pool (concurrent group
    /// jobs across every hosted study).
    pub pool_units: usize,
    /// Studies supervised concurrently; admitted studies beyond this
    /// wait in the bounded queue.
    pub max_active_studies: usize,
    /// Wait-queue bound — a submission arriving with no active slot and
    /// a full queue is rejected (`"queue"`), never blocked.
    pub queue_cap: usize,
    /// Quota for tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, TenantQuota)>,
    /// Per-tenant fair-share weights (default 1).
    pub weights: Vec<(String, u64)>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            pool_units: 8,
            max_active_studies: 4,
            queue_cap: 16,
            default_quota: TenantQuota::default(),
            quotas: Vec::new(),
            weights: Vec::new(),
        }
    }
}

/// A finished study's stored outcome.
struct Finished {
    p: u64,
    n_timesteps: u64,
    n_cells: u64,
    groups_finished: u64,
    workers: Vec<Vec<u8>>,
    error: Option<String>,
}

/// One hosted study's shared record.
struct StudyRecord {
    id: u64,
    tenant: String,
    priority: u8,
    n_groups: usize,
    units: usize,
    state: Mutex<StudyState>,
    cancel: KillSwitch,
    /// Taken by the supervisor thread at promotion.
    config: Mutex<Option<StudyConfig>>,
    finished: Mutex<Option<Finished>>,
}

impl StudyRecord {
    fn state(&self) -> StudyState {
        *self.state.lock()
    }
}

/// A running daemon instance.  Dropping (or [`stop`](Daemon::stop)ping)
/// cancels every hosted study and joins the control loop.
pub struct Daemon {
    kill: KillSwitch,
    transport: Arc<dyn Transport>,
    ctl: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon on `transport`, binding the control and
    /// telemetry endpoints and spawning the control loop.
    pub fn start(transport: Arc<dyn Transport>, config: DaemonConfig) -> Self {
        let kill = KillSwitch::new();
        let loop_kill = kill.clone();
        let loop_transport = Arc::clone(&transport);
        let ctl = std::thread::Builder::new()
            .name("melissad-ctl".into())
            .spawn(move || control_loop(loop_transport, config, loop_kill))
            .expect("spawn daemon control loop");
        Self {
            kill,
            transport,
            ctl: Some(ctl),
        }
    }

    /// The transport the daemon serves on.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Cancels every hosted study and joins the control loop.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.kill.kill();
        if let Some(h) = self.ctl.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything the control loop owns.
struct DaemonState {
    transport: Arc<dyn Transport>,
    config: DaemonConfig,
    fair: FairRunner,
    admission: AdmissionController,
    registry: HashMap<u64, Arc<StudyRecord>>,
    queue: VecDeque<u64>,
    running: HashMap<u64, JoinHandle<()>>,
    next_id: u64,
    started_at: Instant,
    shutting_down: bool,
}

fn control_loop(transport: Arc<dyn Transport>, config: DaemonConfig, kill: KillSwitch) {
    let ctl_rx = transport.bind(&names::daemon_ctl(), 64);
    let tele_rx = transport.bind(&names::daemon_telemetry(), 64);

    let fair = FairRunner::new(config.pool_units);
    for (tenant, weight) in &config.weights {
        fair.set_weight(tenant, *weight);
    }
    let mut admission = AdmissionController::new(config.queue_cap, config.default_quota);
    for (tenant, quota) in &config.quotas {
        admission.set_quota(tenant, *quota);
    }

    let mut st = DaemonState {
        transport: Arc::clone(&transport),
        config,
        fair,
        admission,
        registry: HashMap::new(),
        queue: VecDeque::new(),
        running: HashMap::new(),
        next_id: 1,
        started_at: Instant::now(),
        shutting_down: false,
    };

    let poll = Duration::from_millis(5);
    loop {
        if kill.is_killed() {
            st.begin_shutdown();
        }
        match ctl_rx.recv_timeout(poll) {
            Ok(frame) => st.handle_ctl_frame(&frame),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        // Drain whatever else queued behind the first frame.
        while let Ok(frame) = ctl_rx.try_recv() {
            st.handle_ctl_frame(&frame);
        }
        while let Ok(frame) = tele_rx.try_recv() {
            st.handle_scrape_frame(&frame);
        }
        st.reap_finished();
        st.promote_queued();
        if st.shutting_down && st.running.is_empty() {
            break;
        }
    }
    transport.unbind(&names::daemon_ctl());
    transport.unbind(&names::daemon_telemetry());
}

impl DaemonState {
    fn handle_ctl_frame(&mut self, frame: &[u8]) {
        let mut slice: &[u8] = frame;
        let req = match DaemonRequest::decode_from(&mut slice) {
            Ok(req) => req,
            Err(_) => return, // not a control frame; drop it
        };
        let reply = self.handle_op(&req.op);
        self.send_reply(&req.reply_to, &reply);
    }

    fn handle_op(&mut self, op: &DaemonOp) -> DaemonReply {
        match op {
            DaemonOp::Submit {
                tenant,
                priority,
                config,
            } => self.handle_submit(tenant, *priority, config),
            DaemonOp::Status { study } => match self.registry.get(study) {
                Some(rec) => {
                    let groups_finished = rec
                        .finished
                        .lock()
                        .as_ref()
                        .map_or(0, |f| f.groups_finished);
                    DaemonReply::Status {
                        study: *study,
                        state: rec.state(),
                        tenant: rec.tenant.clone(),
                        groups_finished,
                        n_groups: rec.n_groups as u64,
                    }
                }
                None => DaemonReply::Error {
                    detail: format!("study {study} not found"),
                },
            },
            DaemonOp::Cancel { study } => self.handle_cancel(*study),
            DaemonOp::Results { study } => self.handle_results(*study),
            DaemonOp::Shutdown => {
                self.begin_shutdown();
                DaemonReply::ShuttingDown
            }
        }
    }

    fn handle_submit(&mut self, tenant: &str, priority: u8, config: &StudyConfig) -> DaemonReply {
        if self.shutting_down {
            return DaemonReply::Error {
                detail: "daemon is shutting down".to_string(),
            };
        }
        let units = config.max_concurrent_groups;
        let would_queue = self.running.len() >= self.config.max_active_studies;
        if let Err(resource) = self
            .admission
            .admit(tenant, config.n_groups, units, would_queue)
        {
            return DaemonReply::Rejected {
                tenant: tenant.to_string(),
                resource: resource.to_string(),
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        let rec = Arc::new(StudyRecord {
            id,
            tenant: tenant.to_string(),
            priority,
            n_groups: config.n_groups,
            units,
            state: Mutex::new(StudyState::Queued),
            cancel: KillSwitch::new(),
            config: Mutex::new(Some(config.clone())),
            finished: Mutex::new(None),
        });
        self.registry.insert(id, rec);
        self.queue.push_back(id);
        // The promotion pass right after frame handling starts it if a
        // slot is free; `would_queue` only reserved the queue slot.
        DaemonReply::Submitted { study: id }
    }

    fn handle_cancel(&mut self, study: u64) -> DaemonReply {
        let Some(rec) = self.registry.get(&study).cloned() else {
            return DaemonReply::Error {
                detail: format!("study {study} not found"),
            };
        };
        match rec.state() {
            StudyState::Queued => {
                self.queue.retain(|&id| id != study);
                *rec.state.lock() = StudyState::Cancelled;
                self.admission
                    .release(&rec.tenant, rec.n_groups, rec.units, true);
            }
            StudyState::Running => rec.cancel.kill(),
            // Terminal states: cancel is an idempotent no-op.
            _ => {}
        }
        DaemonReply::Cancelled { study }
    }

    fn handle_results(&mut self, study: u64) -> DaemonReply {
        let Some(rec) = self.registry.get(&study) else {
            return DaemonReply::Error {
                detail: format!("study {study} not found"),
            };
        };
        let state = rec.state();
        let finished = rec.finished.lock();
        match (state, finished.as_ref()) {
            (StudyState::Done, Some(f)) => DaemonReply::Results {
                p: f.p,
                n_timesteps: f.n_timesteps,
                n_cells: f.n_cells,
                groups_finished: f.groups_finished,
                workers: f.workers.clone(),
            },
            (StudyState::Failed, Some(f)) => DaemonReply::Error {
                detail: format!(
                    "study {study} failed: {}",
                    f.error.as_deref().unwrap_or("unknown error")
                ),
            },
            (StudyState::Cancelled, _) => DaemonReply::Error {
                detail: format!("study {study} was cancelled"),
            },
            _ => DaemonReply::Error {
                detail: format!("study {study} is {state}; results not ready"),
            },
        }
    }

    /// Promotes queued studies into free active slots, FIFO.  Group-level
    /// fairness across tenants is the fair scheduler's job; this is only
    /// the supervisor-thread cap.
    fn promote_queued(&mut self) {
        while !self.shutting_down && self.running.len() < self.config.max_active_studies {
            let Some(id) = self.queue.pop_front() else {
                break;
            };
            let rec = Arc::clone(&self.registry[&id]);
            let config = rec.config.lock().take().expect("queued study has a config");
            self.admission.promoted();
            *rec.state.lock() = StudyState::Running;
            let stream = self
                .fair
                .open_stream(&rec.tenant, rec.priority, rec.units.max(1));
            let fair = self.fair.clone();
            let transport = Arc::clone(&self.transport);
            let handle = std::thread::Builder::new()
                .name(format!("melissad-study{id}"))
                .spawn(move || {
                    let runtime = StudyRuntime {
                        transport: Some(transport),
                        runner: Some(Arc::new(stream.clone())),
                        scope: names::study_scope(rec.id),
                        cancel: rec.cancel.clone(),
                    };
                    let outcome = Study::new(config).run_in(runtime);
                    fair.close_stream(stream.id());
                    match outcome {
                        Ok(out) => {
                            *rec.finished.lock() = Some(Finished {
                                p: out.results.dim() as u64,
                                n_timesteps: out.results.n_timesteps() as u64,
                                n_cells: out.results.n_cells() as u64,
                                groups_finished: out.report.groups_finished as u64,
                                workers: out.results.workers().iter().map(pack_state).collect(),
                                error: None,
                            });
                            *rec.state.lock() = StudyState::Done;
                        }
                        Err(e) => {
                            let state = if rec.cancel.is_killed() {
                                StudyState::Cancelled
                            } else {
                                StudyState::Failed
                            };
                            *rec.finished.lock() = Some(Finished {
                                p: 0,
                                n_timesteps: 0,
                                n_cells: 0,
                                groups_finished: 0,
                                workers: Vec::new(),
                                error: Some(e),
                            });
                            *rec.state.lock() = state;
                        }
                    }
                })
                .expect("spawn study supervisor");
            self.running.insert(id, handle);
        }
    }

    /// Joins supervisor threads that have exited and returns their
    /// admission reservations.
    fn reap_finished(&mut self) {
        let done: Vec<u64> = self
            .running
            .iter()
            .filter(|(_, h)| h.is_finished())
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            if let Some(handle) = self.running.remove(&id) {
                let _ = handle.join();
            }
            let rec = &self.registry[&id];
            self.admission
                .release(&rec.tenant, rec.n_groups, rec.units, false);
        }
    }

    fn begin_shutdown(&mut self) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        // Queued studies are cancelled in place; running ones get their
        // kill switch and are reaped as they exit.
        while let Some(id) = self.queue.pop_front() {
            let rec = &self.registry[&id];
            *rec.state.lock() = StudyState::Cancelled;
            self.admission
                .release(&rec.tenant, rec.n_groups, rec.units, true);
        }
        for rec in self.registry.values() {
            if rec.state() == StudyState::Running {
                rec.cancel.kill();
            }
        }
    }

    fn handle_scrape_frame(&mut self, frame: &[u8]) {
        let mut slice: &[u8] = frame;
        let Ok(req) = ScrapeRequest::decode_from(&mut slice) else {
            return;
        };
        let reply = self.snapshot().encode_reply(req.format);
        if let Ok(tx) = self
            .transport
            .connect_retry(&req.reply_to, Duration::from_millis(500))
        {
            let _ = tx.send(reply);
        }
    }

    fn send_reply(&self, reply_to: &str, reply: &DaemonReply) {
        // The client binds its reply endpoint before sending, so a
        // short retry covers only directory propagation; a vanished
        // client is its own problem.
        if let Ok(tx) = self
            .transport
            .connect_retry(reply_to, Duration::from_secs(1))
        {
            let _ = tx.send(reply.to_bytes());
        }
    }

    /// Builds the daemon-level aggregate snapshot.
    fn snapshot(&self) -> DaemonSnapshot {
        let usage = self.fair.tenant_usage();
        let mut tenants: Vec<TenantSnapshot> = usage
            .into_iter()
            .map(|u| {
                let load = self.admission.load(&u.tenant);
                TenantSnapshot {
                    tenant: u.tenant,
                    weight: u.weight,
                    queued_jobs: u.queued,
                    running_jobs: u.running_jobs,
                    running_units: u.running_units,
                    dispatched_jobs: u.dispatched,
                    studies: load.studies,
                    groups_reserved: load.groups,
                    units_reserved: load.units,
                }
            })
            .collect();
        // Tenants that submitted but never dispatched a job yet still
        // deserve a row.
        for rec in self.registry.values() {
            if !tenants.iter().any(|t| t.tenant == rec.tenant) {
                let load = self.admission.load(&rec.tenant);
                tenants.push(TenantSnapshot {
                    tenant: rec.tenant.clone(),
                    weight: 1,
                    queued_jobs: 0,
                    running_jobs: 0,
                    running_units: 0,
                    dispatched_jobs: 0,
                    studies: load.studies,
                    groups_reserved: load.groups,
                    units_reserved: load.units,
                });
            }
        }
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let mut studies: Vec<StudySnapshot> = self
            .registry
            .values()
            .map(|r| StudySnapshot {
                id: r.id,
                tenant: r.tenant.clone(),
                priority: r.priority,
                state: r.state(),
                n_groups: r.n_groups as u64,
            })
            .collect();
        studies.sort_by_key(|s| s.id);
        DaemonSnapshot {
            uptime_nanos: self.started_at.elapsed().as_nanos() as u64,
            pool_units: self.fair.total_units(),
            free_units: self.fair.free_units(),
            active_studies: self.running.len(),
            max_active_studies: self.config.max_active_studies,
            queue_depth: self.admission.queue_depth(),
            queue_cap: self.admission.queue_cap(),
            admission: self.admission.stats(),
            tenants,
            studies,
        }
    }
}
