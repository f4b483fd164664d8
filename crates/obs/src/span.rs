//! The [`Obs`] handle, span guards, and the per-thread trace buffers.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;

use crate::metrics::{Counter, Metrics, MetricsSnapshot, QueryKind};
use crate::sink::TraceSink;

/// Observability mode. `Off` is the default and must stay cheap enough
/// to leave enabled in release hot paths: an `Obs` built from `Off`
/// holds no allocation and every span call is a single `is_none` branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsConfig {
    /// No tracing, no metrics. One branch per span.
    #[default]
    Off,
    /// Logical clock: timestamps are ticks from an atomic counter, so
    /// identical runs produce identical traces (used to pin span-tree
    /// shape in differential tests). Span structure without wall times.
    Deterministic,
    /// Wall-clock timestamps in microseconds since the handle was
    /// created; suitable for Perfetto / `chrome://tracing` export.
    Full,
}

impl ObsConfig {
    /// Whether this mode records anything at all.
    pub fn enabled(self) -> bool {
        !matches!(self, ObsConfig::Off)
    }
}

/// Event phase, mirroring Chrome `trace_event` phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`ph: "B"`).
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
}

/// One recorded trace event. `ts` is microseconds since the owning
/// [`Obs`] handle was created in [`ObsConfig::Full`] mode, or a logical
/// tick in [`ObsConfig::Deterministic`] mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static span name (`"solve.step"`, `"portfolio.epoch"`, …).
    pub name: &'static str,
    /// Optional dynamic annotation (design name, budget, …). Only
    /// allocated when the handle is enabled.
    pub detail: Option<Box<str>>,
    /// Begin / end / instant.
    pub phase: Phase,
    /// Timestamp (µs or logical tick; see [`ObsConfig`]).
    pub ts: u64,
    /// Logical thread id, assigned per thread per handle in first-event
    /// order (a single-threaded run always uses tid 0).
    pub tid: u64,
}

/// Process-wide count of trace events ever recorded by *any* enabled
/// handle. The disabled path cannot reach the recording code, so tests
/// assert this stays flat across an `ObsConfig::Off` run to prove the
/// zero-allocation claim.
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);

/// Total trace events recorded process-wide, by any enabled handle (test
/// support: the disabled path cannot reach the recording code, so this
/// stays flat across an [`ObsConfig::Off`] run).
pub fn events_recorded_total() -> u64 {
    EVENTS_RECORDED.load(Ordering::Relaxed)
}

/// Unique ids for handle instances, so the thread-local buffer cache can
/// never confuse two handles even if an allocation address is reused.
static OBS_IDS: AtomicU64 = AtomicU64::new(1);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A per-thread event buffer. Exactly one thread ever pushes into it
/// (the owning thread), so the mutex is uncontended on the hot path; it
/// exists only so the collector can drain buffers after worker threads
/// exit (scoped portfolio threads join before the race returns).
struct ThreadBuf {
    tid: u64,
    events: Mutex<Vec<TraceEvent>>,
}

thread_local! {
    /// (handle id, buffer) cache so a thread finds its buffer without
    /// touching the handle's registry after the first event.
    static BUF_CACHE: RefCell<Vec<(u64, Weak<ThreadBuf>)>> = const { RefCell::new(Vec::new()) };
}

pub(crate) struct ObsInner {
    id: u64,
    mode: ObsConfig,
    epoch: Instant,
    tick: AtomicU64,
    next_tid: AtomicU64,
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    capacity: u64,
    pub(crate) metrics: Metrics,
}

impl ObsInner {
    fn now(&self) -> u64 {
        match self.mode {
            ObsConfig::Deterministic => self.tick.fetch_add(1, Ordering::Relaxed),
            _ => self.epoch.elapsed().as_micros() as u64,
        }
    }

    fn buf(self: &Arc<Self>) -> Arc<ThreadBuf> {
        BUF_CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            if let Some(buf) =
                cache.iter().find(|(id, _)| *id == self.id).and_then(|(_, w)| w.upgrade())
            {
                return buf;
            }
            // Drop cache entries whose handle has died before adding.
            cache.retain(|(_, w)| w.strong_count() > 0);
            let buf = Arc::new(ThreadBuf {
                tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
            });
            lock(&self.buffers).push(buf.clone());
            cache.push((self.id, Arc::downgrade(&buf)));
            buf
        })
    }

    fn record(self: &Arc<Self>, name: &'static str, detail: Option<Box<str>>, phase: Phase) {
        if self.recorded.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
        let buf = self.buf();
        let ev = TraceEvent { name, detail, phase, ts: self.now(), tid: buf.tid };
        lock(&buf.events).push(ev);
    }

    /// All events so far, concatenated per-buffer then stably sorted by
    /// timestamp (per-thread order is preserved for equal timestamps).
    fn collect(&self, drain: bool) -> Vec<TraceEvent> {
        let buffers = lock(&self.buffers);
        let mut out = Vec::new();
        for buf in buffers.iter() {
            let mut events = lock(&buf.events);
            if drain {
                out.append(&mut events);
            } else {
                out.extend(events.iter().cloned());
            }
        }
        out.sort_by_key(|e| e.ts);
        out
    }
}

/// A cheap cloneable observability handle. `Obs::off()` (the
/// [`Default`]) is a `None` internally: spans, instants, and metric
/// hooks all cost one branch and allocate nothing. An enabled handle is
/// an `Arc` around the trace collector + metrics registry, so clones
/// share one trace.
///
/// Equality compares *modes only* (handles live inside `PartialEq`
/// config structs; two configs with the same mode are interchangeable
/// for differential purposes even if their handles differ).
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Obs({:?})", self.mode())
    }
}

impl PartialEq for Obs {
    fn eq(&self, other: &Self) -> bool {
        self.mode() == other.mode()
    }
}
impl Eq for Obs {}

/// Default per-handle event capacity; past this, events are counted as
/// dropped rather than recorded (a runaway trace cannot exhaust memory).
const DEFAULT_CAPACITY: u64 = 1 << 21;

impl Obs {
    /// A recording handle in the given mode ([`ObsConfig::Off`] yields
    /// the disabled handle).
    pub fn new(config: ObsConfig) -> Self {
        Self::with_capacity(config, DEFAULT_CAPACITY)
    }

    /// [`Obs::new`] with an explicit event-capacity cap.
    pub fn with_capacity(config: ObsConfig, capacity: u64) -> Self {
        if !config.enabled() {
            return Self::off();
        }
        Obs {
            inner: Some(Arc::new(ObsInner {
                id: OBS_IDS.fetch_add(1, Ordering::Relaxed),
                mode: config,
                epoch: Instant::now(),
                tick: AtomicU64::new(0),
                next_tid: AtomicU64::new(0),
                buffers: Mutex::new(Vec::new()),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                capacity,
                metrics: Metrics::default(),
            })),
        }
    }

    /// The disabled handle: no allocation, one branch per span.
    pub fn off() -> Self {
        Obs { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The mode this handle was built with.
    pub fn mode(&self) -> ObsConfig {
        match &self.inner {
            None => ObsConfig::Off,
            Some(inner) => inner.mode,
        }
    }

    /// Open a span; it closes (records its end event) when the returned
    /// guard drops. On a disabled handle this is one branch and returns
    /// a no-op guard.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            None => Span { obs: None, name },
            Some(inner) => {
                inner.record(name, None, Phase::Begin);
                Span { obs: Some(inner.clone()), name }
            }
        }
    }

    /// [`Obs::span`] with a lazily-built annotation (the closure only
    /// runs — and the string is only allocated — when enabled).
    #[inline]
    pub fn span_with(&self, name: &'static str, detail: impl FnOnce() -> String) -> Span {
        match &self.inner {
            None => Span { obs: None, name },
            Some(inner) => {
                inner.record(name, Some(detail().into_boxed_str()), Phase::Begin);
                Span { obs: Some(inner.clone()), name }
            }
        }
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            inner.record(name, None, Phase::Instant);
        }
    }

    /// Current timestamp on this handle's clock (µs in `Full`, a fresh
    /// logical tick in `Deterministic`, always `0` when disabled). Use
    /// for latency deltas fed back into [`Obs::record_solve`].
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.now(),
        }
    }

    /// Solver profiling hook: one call per completed solve, carrying the
    /// per-query effort deltas and the learnt-DB size at solve exit.
    /// Feeds the per-kind latency/effort histograms and the effort
    /// counters.
    #[inline]
    pub fn record_solve(
        &self,
        kind: QueryKind,
        latency: u64,
        conflicts: u64,
        decisions: u64,
        propagations: u64,
        learnt_db: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner.metrics.record_solve(
                kind,
                latency,
                conflicts,
                decisions,
                propagations,
                learnt_db,
            );
        }
    }

    /// Template profiling hook: one call per `load_template`-style
    /// frame instantiation, with the clause count stamped in.
    #[inline]
    pub fn record_template_load(&self, clauses: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.record_template_load(clauses);
        }
    }

    /// Bump a monotonic counter.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(counter, delta);
        }
    }

    /// Snapshot the metrics registry (`None` when disabled).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|inner| inner.metrics.snapshot())
    }

    /// Events recorded past the capacity cap (dropped, not stored).
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
        }
    }

    /// Clone out all events recorded so far, in timestamp order.
    pub fn snapshot_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.collect(false),
        }
    }

    /// Drain all events recorded so far, in timestamp order.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.collect(true),
        }
    }

    /// Drain the handle into a self-contained [`ObsReport`] (`None` when
    /// disabled). The report owns the events + a metrics snapshot and
    /// can render itself as Chrome JSON or a summary tree.
    pub fn report(&self) -> Option<ObsReport> {
        self.inner.as_ref().map(|inner| ObsReport {
            mode: inner.mode,
            events: self.take_events(),
            metrics: inner.metrics.snapshot(),
            dropped: inner.dropped.load(Ordering::Relaxed),
        })
    }
}

/// RAII span guard returned by [`Obs::span`]; records the end event on
/// drop. The no-op variant (disabled handle) holds no allocation and
/// drops with one branch.
#[must_use = "a span records its duration when the guard drops"]
pub struct Span {
    obs: Option<Arc<ObsInner>>,
    name: &'static str,
}

impl Span {
    /// Close the span early (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = self.obs.take() {
            inner.record(self.name, None, Phase::End);
        }
    }
}

/// A drained per-handle trace: events + metrics snapshot, detached from
/// the live collector. This is what `JobReport` carries per job.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsReport {
    /// Mode the trace was recorded under.
    pub mode: ObsConfig,
    /// All events, in timestamp order.
    pub events: Vec<TraceEvent>,
    /// Metrics at drain time.
    pub metrics: MetricsSnapshot,
    /// Events lost to the capacity cap.
    pub dropped: u64,
}

impl ObsReport {
    /// Export as Chrome `trace_event` JSON (object form, loadable in
    /// Perfetto / `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        crate::sink::ChromeTrace::export(&self.events)
    }

    /// Render the aggregated human-readable span tree.
    pub fn render_tree(&self) -> String {
        let mut tree = if self.mode == ObsConfig::Deterministic {
            crate::sink::TreeRenderer::logical()
        } else {
            crate::sink::TreeRenderer::new()
        };
        for ev in &self.events {
            tree.event(ev);
        }
        tree.finish();
        tree.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let before = events_recorded_total();
        let obs = Obs::off();
        {
            let _outer = obs.span("outer");
            let _inner = obs.span_with("inner", || unreachable!("detail must stay lazy"));
            obs.instant("tick");
            obs.record_solve(QueryKind::Base, 1, 2, 3, 4, 5);
        }
        assert!(!obs.is_enabled());
        assert_eq!(obs.snapshot_events(), Vec::new());
        assert_eq!(obs.metrics(), None);
        assert_eq!(events_recorded_total(), before, "Off must not reach the recorder");
    }

    #[test]
    fn deterministic_clock_is_reproducible() {
        let run = || {
            let obs = Obs::new(ObsConfig::Deterministic);
            {
                let _a = obs.span("a");
                let _b = obs.span_with("b", || "x".to_string());
                obs.instant("i");
            }
            obs.take_events()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "logical-clock traces must be byte-identical across runs");
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].ts, 0);
        assert!(a.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn spans_nest_and_balance() {
        let obs = Obs::new(ObsConfig::Full);
        {
            let _outer = obs.span("outer");
            for _ in 0..3 {
                let _inner = obs.span("inner");
            }
        }
        let events = obs.snapshot_events();
        let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!((begins, ends), (4, 4));
        assert_eq!(events.first().map(|e| (e.name, e.phase)), Some(("outer", Phase::Begin)));
        assert_eq!(events.last().map(|e| (e.name, e.phase)), Some(("outer", Phase::End)));
    }

    #[test]
    fn capacity_cap_counts_drops() {
        let obs = Obs::with_capacity(ObsConfig::Deterministic, 4);
        for _ in 0..10 {
            obs.instant("e");
        }
        assert_eq!(obs.snapshot_events().len(), 4);
        assert_eq!(obs.dropped_events(), 6);
    }

    #[test]
    fn threads_get_distinct_tids_and_events_merge() {
        let obs = Obs::new(ObsConfig::Full);
        let _outer = obs.span("main");
        std::thread::scope(|s| {
            for _ in 0..2 {
                let obs = obs.clone();
                s.spawn(move || {
                    let _w = obs.span("worker");
                });
            }
        });
        drop(_outer);
        let events = obs.snapshot_events();
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "main + two workers");
        assert_eq!(events.len(), 6);
    }
}
