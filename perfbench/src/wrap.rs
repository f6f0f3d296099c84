//! Benchmark-side wrappers of the program's public plug-in traits.
//!
//! A study runs unchanged inside a `StudyRuntime` that carries these:
//!
//! * [`TimedDispatcher`] wraps the launcher's job dispatcher and stamps
//!   every group job's submit, start and end (always on: the end-to-end
//!   phases are cut at the first submit and the last completion);
//! * [`TracingTransport`] wraps the messaging backend for traced runs.
//!   Links a group job opens toward a `server/<w>` endpoint come back as
//!   a [`TracingSender`] (one `client.send` span per frame, one
//!   `client.flush` span per barrier), and every `server/<w>` endpoint
//!   the server binds comes back as a [`TracingReceiver`] (the worker's
//!   time from a `recv` returning to its next `recv` call is a busy span
//!   named after the frame it handled).
//!
//! Group ids come from the frame header of the `Data` frames.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use melissa_scheduler::{Dispatcher, JobHandle};
use melissa_transport::{
    api::FlushError, BoxReceiver, BoxSender, ConnectError, Disconnected, KillSwitch, LinkStats,
    LinkStatsSnapshot, Receiver, RecvTimeoutError, SendTimeoutError, Sender, Transport,
    TryRecvError,
};

use crate::trace::{Tracer, NO_GROUP};

/// Wire tags of the protocol messages the wrappers classify.
const TAG_DATA: u8 = 3;
const TAG_CHECKPOINT: u8 = 8;
const TAG_STOP: u8 = 9;
/// Bytes before the `f64` values of a `Data` frame: tag, group id,
/// instance, role, timestep, start cell and the value count.
const DATA_HEADER: usize = 1 + 8 + 4 + 2 + 4 + 8 + 8;

/// `(group id, payload bytes)` of a `Data` frame, `None` for any other.
pub fn data_header(frame: &[u8]) -> Option<(u64, u64)> {
    if frame.len() < DATA_HEADER || frame[0] != TAG_DATA {
        return None;
    }
    let group = u64::from_le_bytes(frame[1..9].try_into().expect("8 header bytes"));
    Some((group, (frame.len() - DATA_HEADER) as u64))
}

/// The worker index of a `server/<w>` endpoint name (any scope).
pub fn worker_endpoint(name: &str) -> Option<usize> {
    let (scope, w) = name.rsplit_once("server/")?;
    if !(scope.is_empty() || scope.ends_with('/')) {
        return None;
    }
    w.parse().ok()
}

/// Timestamps of one group job, in nanoseconds since the study call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobRecord {
    /// Submitted to the dispatcher.
    pub submit: u64,
    /// Granted capacity, began running (0 until then).
    pub start: u64,
    /// Work closure returned (0 until then).
    pub end: u64,
    /// Group id from the job's first `Data` frame (traced runs only).
    pub group: u64,
}

/// Per-thread context of a running group job (traced runs).
#[derive(Debug, Clone, Copy)]
struct JobCtx {
    group: u64,
    connect_end: u64,
}

thread_local! {
    static JOB: Cell<Option<JobCtx>> = const { Cell::new(None) };
}

fn job_ctx() -> Option<JobCtx> {
    JOB.with(|j| j.get())
}

fn update_job(f: impl FnOnce(&mut JobCtx)) {
    JOB.with(|j| {
        if let Some(mut ctx) = j.get() {
            f(&mut ctx);
            j.set(Some(ctx));
        }
    });
}

/// Marks the current thread as a client (group job or generator) until
/// [`leave_client`]; links it opens to server workers are traced.
pub fn enter_client() {
    JOB.with(|j| {
        j.set(Some(JobCtx {
            group: NO_GROUP,
            connect_end: 0,
        }))
    });
}

/// Ends the client context; returns `(group id, connect end)`.
pub fn leave_client() -> (u64, u64) {
    let ctx = JOB.with(|j| j.take());
    ctx.map(|c| (c.group, c.connect_end))
        .unwrap_or((NO_GROUP, 0))
}

/// An action run once, when the job with a given start rank begins.
pub type Trigger = (usize, Arc<dyn Fn() + Send + Sync>);

/// Wraps the launcher's dispatcher, stamping every job it runs.
pub struct TimedDispatcher {
    inner: Arc<dyn Dispatcher>,
    origin: Instant,
    jobs: Arc<Mutex<Vec<JobRecord>>>,
    tracer: Option<Arc<Tracer>>,
    root: u64,
    started: Arc<AtomicUsize>,
    trigger: Option<Trigger>,
}

impl TimedDispatcher {
    /// Wraps `inner`; times are taken against `origin` (the study call).
    /// With a tracer, each job records a `group.job` span caused by
    /// `root`, with a `client.connect` child from job start to the last
    /// server-worker link it opened.
    pub fn new(
        inner: Arc<dyn Dispatcher>,
        origin: Instant,
        tracer: Option<Arc<Tracer>>,
        root: u64,
    ) -> Self {
        Self {
            inner,
            origin,
            jobs: Arc::new(Mutex::new(Vec::new())),
            tracer,
            root,
            started: Arc::new(AtomicUsize::new(0)),
            trigger: None,
        }
    }

    /// Runs `trigger.1` when the `trigger.0`-th job (counting from 0 in
    /// start order) begins, before its work.
    pub fn with_trigger(mut self, trigger: Option<Trigger>) -> Self {
        self.trigger = trigger;
        self
    }

    /// The job records so far, in submission order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.jobs.lock().expect("job log poisoned").clone()
    }
}

fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

impl Dispatcher for TimedDispatcher {
    fn submit_boxed(&self, units: usize, work: Box<dyn FnOnce(&KillSwitch) + Send>) -> JobHandle {
        let submit = since(self.origin);
        let idx = {
            let mut jobs = self.jobs.lock().expect("job log poisoned");
            jobs.push(JobRecord {
                submit,
                group: NO_GROUP,
                ..JobRecord::default()
            });
            jobs.len() - 1
        };
        let jobs = Arc::clone(&self.jobs);
        let origin = self.origin;
        let tracer = self.tracer.clone();
        let root = self.root;
        let started = Arc::clone(&self.started);
        let trigger = self.trigger.clone();
        self.inner.submit_boxed(
            units,
            Box::new(move |kill| {
                let start = since(origin);
                let rank = started.fetch_add(1, Ordering::Relaxed);
                if let Some((at, action)) = &trigger {
                    if *at == rank {
                        action();
                    }
                }
                let open = tracer.as_ref().map(|t| {
                    enter_client();
                    t.enter("group.job", NO_GROUP, Some(root))
                });
                work(kill);
                let mut group = NO_GROUP;
                if let (Some(t), Some(open)) = (&tracer, open) {
                    let (g, connect_end) = leave_client();
                    group = g;
                    if connect_end > 0 {
                        t.record("client.connect", open.start(), connect_end, open.id(), g, 0);
                    }
                    t.close(open, g, 0);
                }
                let end = since(origin);
                let mut jobs = jobs.lock().expect("job log poisoned");
                jobs[idx].start = start;
                jobs[idx].end = end;
                jobs[idx].group = group;
            }),
        )
    }

    fn queued_jobs(&self) -> u64 {
        self.inner.queued_jobs()
    }

    fn free_units(&self) -> usize {
        self.inner.free_units()
    }

    fn total_units(&self) -> usize {
        self.inner.total_units()
    }
}

/// Frames of selected groups, kept for the layer replays of a traced run
/// (a `Bytes` clone shares the sender's buffer; nothing is copied).
#[derive(Debug, Default)]
pub struct Capture {
    groups: HashSet<u64>,
    frames: Mutex<Vec<Bytes>>,
}

impl Capture {
    /// Captures the `Data` frames of `groups`.
    pub fn new(groups: impl IntoIterator<Item = u64>) -> Self {
        Self {
            groups: groups.into_iter().collect(),
            frames: Mutex::new(Vec::new()),
        }
    }

    fn offer(&self, group: u64, frame: &Bytes) {
        if self.groups.contains(&group) {
            self.frames
                .lock()
                .expect("capture poisoned")
                .push(frame.clone());
        }
    }

    /// The captured frames, in send order per group.
    pub fn take(&self) -> Vec<Bytes> {
        std::mem::take(&mut *self.frames.lock().expect("capture poisoned"))
    }
}

/// A transport that traces the links it hands out.
#[derive(Debug)]
pub struct TracingTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    capture: Arc<Capture>,
    first_bind: Mutex<Option<u64>>,
}

impl TracingTransport {
    /// Wraps `inner`, recording into `tracer` and keeping the frames
    /// `capture` selects.
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>, capture: Arc<Capture>) -> Self {
        Self {
            inner,
            tracer,
            capture,
            first_bind: Mutex::new(None),
        }
    }

    /// When the first endpoint was bound (the end of the launcher's
    /// pre-run: design draw and frozen-flow solve come before it).
    pub fn first_bind(&self) -> Option<u64> {
        *self.first_bind.lock().expect("bind stamp poisoned")
    }

    fn traced(&self, name: &str, tx: BoxSender, t0: u64) -> BoxSender {
        if job_ctx().is_none() {
            return tx;
        }
        let t1 = self.tracer.now();
        self.tracer
            .record("transport.connect", t0, t1, Tracer::current(), NO_GROUP, 0);
        if worker_endpoint(name).is_none() {
            return tx;
        }
        update_job(|c| c.connect_end = t1);
        Box::new(TracingSender {
            inner: tx,
            tracer: Arc::clone(&self.tracer),
            capture: Arc::clone(&self.capture),
        })
    }
}

impl Transport for TracingTransport {
    fn bind(&self, name: &str, hwm: usize) -> BoxReceiver {
        let t0 = self.tracer.now();
        self.first_bind
            .lock()
            .expect("bind stamp poisoned")
            .get_or_insert(t0);
        let rx = self.inner.bind(name, hwm);
        self.tracer.record(
            "transport.bind",
            t0,
            self.tracer.now(),
            Tracer::current(),
            NO_GROUP,
            0,
        );
        match worker_endpoint(name) {
            Some(_) => Box::new(TracingReceiver {
                inner: rx,
                tracer: Arc::clone(&self.tracer),
                pending: Cell::new(None),
                wait_ns: Cell::new(0),
            }),
            None => rx,
        }
    }

    fn connect(&self, name: &str) -> Result<BoxSender, ConnectError> {
        let t0 = self.tracer.now();
        let tx = self.inner.connect(name)?;
        Ok(self.traced(name, tx, t0))
    }

    fn connect_retry(&self, name: &str, timeout: Duration) -> Result<BoxSender, ConnectError> {
        let t0 = self.tracer.now();
        let tx = self.inner.connect_retry(name, timeout)?;
        Ok(self.traced(name, tx, t0))
    }

    fn unbind(&self, name: &str) {
        self.inner.unbind(name)
    }

    fn bound_names(&self) -> Vec<String> {
        self.inner.bound_names()
    }

    fn link_stats(&self) -> Vec<(String, LinkStatsSnapshot)> {
        self.inner.link_stats()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }
}

/// A client data link that records a span per send and per flush.
#[derive(Debug)]
pub struct TracingSender {
    inner: BoxSender,
    tracer: Arc<Tracer>,
    capture: Arc<Capture>,
}

impl TracingSender {
    fn before_send(&self, frame: &Bytes) -> (u64, u64) {
        let group = data_header(frame).map_or(NO_GROUP, |(g, _)| g);
        if group != NO_GROUP {
            update_job(|c| {
                if c.group == NO_GROUP {
                    c.group = group;
                }
            });
            self.capture.offer(group, frame);
        }
        (group, frame.len() as u64)
    }
}

impl Sender for TracingSender {
    fn send(&self, frame: Bytes) -> Result<(), Disconnected> {
        let (group, bytes) = self.before_send(&frame);
        let open = self.tracer.enter("client.send", group, None);
        let out = self.inner.send(frame);
        self.tracer.close(open, group, bytes);
        out
    }

    fn send_timeout(&self, frame: Bytes, timeout: Duration) -> Result<(), SendTimeoutError> {
        let (group, bytes) = self.before_send(&frame);
        let open = self.tracer.enter("client.send", group, None);
        let out = self.inner.send_timeout(frame, timeout);
        self.tracer.close(open, group, bytes);
        out
    }

    fn flush(&self, timeout: Duration) -> Result<(), FlushError> {
        let group = job_ctx().map(|c| c.group).unwrap_or(NO_GROUP);
        let open = self.tracer.enter("client.flush", group, None);
        let out = self.inner.flush(timeout);
        self.tracer.close(open, group, 0);
        out
    }

    fn stats(&self) -> Arc<LinkStats> {
        self.inner.stats()
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn clone_box(&self) -> BoxSender {
        Box::new(TracingSender {
            inner: self.inner.clone_box(),
            tracer: Arc::clone(&self.tracer),
            capture: Arc::clone(&self.capture),
        })
    }
}

/// What a worker is busy with since its last `recv` returned.
#[derive(Debug, Clone, Copy)]
struct Busy {
    since: u64,
    name: &'static str,
    group: u64,
    bytes: u64,
}

/// A server-worker endpoint that records the worker's busy spans.
///
/// Busy time runs from a `recv` returning a frame to the worker's next
/// `recv` call (or to the worker dropping the endpoint after `Stop`);
/// the span is named after the frame: `server.ingest` for `Data`,
/// `server.checkpoint`, `server.stop` or `server.control`.  Time inside
/// `recv` is summed into the tracer's `server.wait_ns` counter, and a
/// zero-length `server.exit` span marks when the worker let go of the
/// endpoint.
#[derive(Debug)]
pub struct TracingReceiver {
    inner: BoxReceiver,
    tracer: Arc<Tracer>,
    pending: Cell<Option<Busy>>,
    wait_ns: Cell<u64>,
}

impl TracingReceiver {
    fn settle(&self, now: u64) {
        if let Some(b) = self.pending.take() {
            self.tracer
                .record(b.name, b.since, now, 0, b.group, b.bytes);
        }
    }

    fn observe<E>(&self, t_call: u64, out: &Result<Bytes, E>) {
        let t_ret = self.tracer.now();
        self.wait_ns.set(self.wait_ns.get() + (t_ret - t_call));
        if let Ok(frame) = out {
            let (name, group, bytes) = match frame.first() {
                Some(&TAG_DATA) => {
                    let (g, b) = data_header(frame).unwrap_or((NO_GROUP, 0));
                    ("server.ingest", g, b)
                }
                Some(&TAG_CHECKPOINT) => ("server.checkpoint", NO_GROUP, 0),
                Some(&TAG_STOP) => ("server.stop", NO_GROUP, 0),
                _ => ("server.control", NO_GROUP, 0),
            };
            self.pending.set(Some(Busy {
                since: t_ret,
                name,
                group,
                bytes,
            }));
        }
    }

    fn call(&self) -> u64 {
        let now = self.tracer.now();
        self.settle(now);
        now
    }
}

impl Receiver for TracingReceiver {
    fn recv(&self) -> Result<Bytes, Disconnected> {
        let t = self.call();
        let out = self.inner.recv();
        self.observe(t, &out);
        out
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, RecvTimeoutError> {
        let t = self.call();
        let out = self.inner.recv_timeout(timeout);
        self.observe(t, &out);
        out
    }

    fn try_recv(&self) -> Result<Bytes, TryRecvError> {
        let t = self.call();
        let out = self.inner.try_recv();
        self.observe(t, &out);
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl Drop for TracingReceiver {
    fn drop(&mut self) {
        let now = self.tracer.now();
        self.settle(now);
        self.tracer.add("server.wait_ns", self.wait_ns.get());
        self.tracer.record("server.exit", now, now, 0, NO_GROUP, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_endpoints_are_recognised_in_any_scope() {
        assert_eq!(worker_endpoint("server/3"), Some(3));
        assert_eq!(worker_endpoint("shard1/server/0"), Some(0));
        assert_eq!(worker_endpoint("server/main"), None);
        assert_eq!(worker_endpoint("group/1/0/reply"), None);
        assert_eq!(worker_endpoint("xserver/1"), None);
    }
}
