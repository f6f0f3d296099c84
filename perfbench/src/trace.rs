//! In-memory span recording and the arithmetic over recorded spans.
//!
//! A [`Tracer`] keeps every span in memory (sharded by recording thread,
//! so the ingest threads never contend on one lock) until the run ends.
//! A span names a layer boundary, carries its start and end on the
//! tracer's clock, the span that caused it (`parent`, 0 for none) and the
//! simulation group from the frame header where one exists.
//!
//! The ledger arithmetic lives here too: [`self_times`] (a span's
//! duration minus the part of its interval its children cover) and
//! [`covered`] (how much of a wall-clock window any span covers).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Group id of a span that belongs to no simulation group.
pub const NO_GROUP: u64 = u64::MAX;

const SHARDS: usize = 64;

/// One recorded span (times in nanoseconds since the tracer's origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// Layer boundary name, e.g. `client.send`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Simulation group, or [`NO_GROUP`].
    pub group: u64,
    /// Recording thread (a small per-process number).
    pub thread: u64,
    /// Bytes the span moved (frame size for sends and ingests), else 0.
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has been entered but not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
    group: u64,
}

impl Open {
    /// The span's id (children name it as their parent).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The span's start time.
    pub fn start(&self) -> u64 {
        self.start
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    shards: Vec<Mutex<Vec<Span>>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    /// A tracer whose clock reads 0 at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds from the origin to `t` (0 before the origin).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// The tracer's clock now.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// The innermost span open on this thread (0 if none).
    pub fn current() -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span on this thread, caused by `parent` (or by the
    /// innermost open span when `parent` is `None`).
    pub fn enter(&self, name: &'static str, group: u64, parent: Option<u64>) -> Open {
        let open = Open {
            id: self.fresh_id(),
            parent: parent.unwrap_or_else(Self::current),
            name,
            start: self.now(),
            group,
        };
        STACK.with(|s| s.borrow_mut().push(open.id));
        open
    }

    /// Closes a span opened on this thread, recording it with its final
    /// group id and byte count.
    pub fn close(&self, open: Open, group: u64, bytes: u64) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.truncate(pos);
            }
        });
        let end = self.now();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start: open.start,
            end,
            group: if group == NO_GROUP { open.group } else { group },
            thread: 0,
            bytes,
        });
    }

    /// Records a span whose boundaries were observed elsewhere; returns
    /// its id.
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u64,
        group: u64,
        bytes: u64,
    ) -> u64 {
        let id = self.fresh_id();
        self.push(Span {
            id,
            parent,
            name,
            start,
            end: end.max(start),
            group,
            thread: 0,
            bytes,
        });
        id
    }

    fn push(&self, mut span: Span) {
        let thread = THREAD.with(|t| *t);
        span.thread = thread;
        self.shards[thread as usize % SHARDS]
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Adds `v` to the named counter (for totals that are not intervals,
    /// such as a worker's summed wait).
    pub fn add(&self, name: &'static str, v: u64) {
        *self
            .counters
            .lock()
            .expect("a thread panicked while counting")
            .entry(name)
            .or_insert(0) += v;
    }

    /// The named counter (0 if never added to).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Takes every span recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("span shard poisoned"));
        }
        all.sort_by_key(|s| (s.start, s.id));
        all
    }
}

/// Total length of the union of half-open intervals (sorts in place).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        if b <= a {
            continue;
        }
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap one another, and may run
/// on other threads; each is clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let (a, b) = (s.start.max(p.start), s.end.min(p.end));
            if a < b {
                children.entry(p.id).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map(|c| union_len(c)).unwrap_or(0);
            (s.id, s.dur() - covered.min(s.dur()))
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += own[&s.id];
    }
    out
}

/// How much of the window `[lo, hi)` the spans not named in `exclude`
/// cover, counting overlapping spans once.
pub fn covered(spans: &[Span], lo: u64, hi: u64, exclude: &[&str]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !exclude.contains(&s.name))
        .map(|s| (s.start.max(lo), s.end.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    union_len(&mut iv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            group: NO_GROUP,
            thread: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        // root [0,100): children a [10,30) and b [20,50) overlap, c
        // [90,120) overhangs the root's end; a has a child [12,15).
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),
            span(4, 1, "c", 90, 120),
            span(5, 2, "leaf", 12, 15),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - (40 + 10));
        assert_eq!(own[&2], 20 - 3);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 3);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 50);
        // Self times of a tree whose children stay inside their parents
        // and do not overlap add up to the root's duration.
        let tidy = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 40, 70),
            span(4, 3, "leaf", 50, 60),
        ];
        let total: u64 = self_times(&tidy).values().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn coverage_counts_overlaps_once_and_clips_to_the_window() {
        let spans = vec![
            span(1, 0, "study", 0, 1000),
            span(2, 1, "x", 100, 300),
            span(3, 1, "y", 200, 400),
            span(4, 1, "z", 900, 1200),
        ];
        assert_eq!(covered(&spans, 0, 1000, &["study"]), 300 + 100);
        assert_eq!(covered(&spans, 0, 1000, &[]), 1000);
    }

    #[test]
    fn entered_spans_nest_on_their_thread() {
        let t = Tracer::new(Instant::now());
        let outer = t.enter("outer", 7, None);
        let inner = t.enter("inner", NO_GROUP, None);
        assert_eq!(Tracer::current(), inner.id());
        t.close(inner, NO_GROUP, 5);
        t.close(outer, NO_GROUP, 0);
        assert_eq!(Tracer::current(), 0);
        let spans = t.take();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.group, 7);
        assert_eq!(inner.bytes, 5);
    }
}
