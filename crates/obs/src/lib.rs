//! # genfv-obs — unified tracing, metrics, and solve-level profiling
//!
//! The observability layer of the genfv verification stack. Every other
//! crate in the workspace depends on this one (it depends on nothing),
//! and threads a cheap cloneable [`Obs`] handle down from the service or
//! bench entry point to the individual SAT solve calls.
//!
//! ## Spans
//!
//! A [`Span`] is a named, timed region recorded as a begin/end event
//! pair into a lock-free-per-thread trace buffer (each thread owns its
//! buffer exclusively; the only shared state touched per event is a
//! relaxed atomic timestamp/capacity counter). The span hierarchy mirrors
//! the stack:
//!
//! ```text
//! job                      (service: one verification job)
//! └─ prepare               (parse → elaborate → compile)
//!    └─ opt.<stage>        (one span per netlist optimizer stage call)
//! └─ flow.<kind>           (flow1 / flow2 / baseline / combined)
//!    └─ prove              (one span per target property)
//!       └─ session.extend.{base,step}   (frame unrolls)
//!       └─ portfolio.probe → solve.probe
//!       └─ portfolio.race
//!          └─ portfolio.epoch → solve.{base,step}
//!       └─ solve.{base,step}  (individual solver calls)
//! ```
//!
//! Traces export through the [`TraceSink`] trait: a Chrome
//! `trace_event` JSON exporter ([`ChromeTrace`], loadable in Perfetto /
//! `chrome://tracing`) and a human-readable aggregated tree
//! ([`TreeRenderer`]). Callers feed them the events of
//! [`Obs::take_events`] or an [`ObsReport`].
//!
//! ## Metrics
//!
//! Monotonic [`Counter`]s plus log₂-bucketed latency/effort
//! [`AtomicHistogram`]s keyed by [`QueryKind`] (base / step / probe),
//! fed by the solver's per-solve profiling hook (conflict /
//! decision / propagation deltas, learnt-DB size, template-load sizes).
//! Snapshots ([`MetricsSnapshot`]) render in Prometheus text exposition
//! format via [`prom_counter`] / [`prom_histogram`].
//!
//! ## Modes
//!
//! * [`ObsConfig::Off`] — the default. `Obs::off()` carries no
//!   allocation at all; every span costs exactly one branch.
//! * [`ObsConfig::Deterministic`] — timestamps come from a logical
//!   clock (an atomic tick counter), so two identical runs produce
//!   byte-identical span trees. Differential suites pin trace shape in
//!   this mode.
//! * [`ObsConfig::Full`] — wall-clock timestamps (µs since the handle
//!   was created) for real profiling and Perfetto export.

#![forbid(unsafe_code)]

mod accumulate;
mod json;
mod metrics;
mod sink;
mod span;

pub use accumulate::Accumulate;
pub use json::{parse_json, validate_chrome_trace, ChromeCheck, Json};
pub use metrics::{
    prom_counter, prom_gauge, prom_histogram, AtomicHistogram, Counter, HistogramSnapshot,
    MetricsSnapshot, QueryKind, HIST_BUCKETS,
};
pub use sink::{ChromeTrace, TraceSink, TreeRenderer};
pub use span::{events_recorded_total, Obs, ObsConfig, ObsReport, Phase, Span, TraceEvent};
