//! Monotonic counters and log₂-bucketed histograms, plus Prometheus
//! text-exposition rendering helpers.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::accumulate::Accumulate;

/// Which kind of query a solve call answered. Keys the per-kind latency
/// and effort histograms, and names the solver-level span
/// (`solve.base`, `solve.step`, …).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// A base-case (reset-pinned unrolling) query.
    Base,
    /// An induction-step (free-start unrolling) query.
    #[default]
    Step,
    /// A portfolio probe (budgeted solo attempt before racing).
    Probe,
}

impl QueryKind {
    /// All kinds, in label order.
    pub const ALL: [QueryKind; 3] = [QueryKind::Base, QueryKind::Step, QueryKind::Probe];

    /// Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Base => "base",
            QueryKind::Step => "step",
            QueryKind::Probe => "probe",
        }
    }

    /// The span name the solver opens for a solve of this kind.
    pub fn solve_span(self) -> &'static str {
        match self {
            QueryKind::Base => "solve.base",
            QueryKind::Step => "solve.step",
            QueryKind::Probe => "solve.probe",
        }
    }

    fn idx(self) -> usize {
        match self {
            QueryKind::Base => 0,
            QueryKind::Step => 1,
            QueryKind::Probe => 2,
        }
    }
}

/// Monotonic counters maintained by the metrics registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Completed solve calls.
    Solves,
    /// Conflicts across all solves.
    Conflicts,
    /// Decisions across all solves.
    Decisions,
    /// Propagations across all solves.
    Propagations,
    /// Template frame instantiations (`load_template` calls).
    TemplateLoads,
    /// Clauses stamped in by template loads.
    TemplateClauses,
    /// Portfolio races escalated past the probe.
    Races,
    /// Register-correspondence miters issued (proved + refuted +
    /// budgeted out).
    SweepPairs,
    /// Registers merged by register correspondence.
    SweepMerges,
}

impl Counter {
    /// All counters, in exposition order.
    pub const ALL: [Counter; 9] = [
        Counter::Solves,
        Counter::Conflicts,
        Counter::Decisions,
        Counter::Propagations,
        Counter::TemplateLoads,
        Counter::TemplateClauses,
        Counter::Races,
        Counter::SweepPairs,
        Counter::SweepMerges,
    ];

    /// Prometheus metric name suffix (`genfv_<name>_total`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Solves => "solves",
            Counter::Conflicts => "conflicts",
            Counter::Decisions => "decisions",
            Counter::Propagations => "propagations",
            Counter::TemplateLoads => "template_loads",
            Counter::TemplateClauses => "template_clauses",
            Counter::Races => "portfolio_races",
            Counter::SweepPairs => "satsweep_pairs",
            Counter::SweepMerges => "satsweep_merges",
        }
    }

    fn idx(self) -> usize {
        match self {
            Counter::Solves => 0,
            Counter::Conflicts => 1,
            Counter::Decisions => 2,
            Counter::Propagations => 3,
            Counter::TemplateLoads => 4,
            Counter::TemplateClauses => 5,
            Counter::Races => 6,
            Counter::SweepPairs => 7,
            Counter::SweepMerges => 8,
        }
    }
}

/// Number of log₂ buckets per histogram: bucket 0 holds `v == 0`,
/// bucket `b ≥ 1` holds `2^(b-1) ≤ v < 2^b`; 2⁴⁰ µs ≈ 13 days, ample.
pub const HIST_BUCKETS: usize = 40;

/// A lock-free log₂-bucketed histogram (relaxed atomics; writers never
/// block each other).
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b` (`u64::MAX` for the last).
pub(crate) fn bucket_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl AtomicHistogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Copy out a point-in-time view.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data view of a histogram (also usable directly as a
/// single-writer histogram, e.g. the service queue-wait histogram).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (log₂ buckets; see [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty histogram with the standard bucket layout.
    pub fn new() -> Self {
        HistogramSnapshot { buckets: vec![0; HIST_BUCKETS], count: 0, sum: 0 }
    }

    /// Record one observation (non-atomic variant).
    pub fn record(&mut self, v: u64) {
        if self.buckets.len() < HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank.max(1) {
                return bucket_bound(b);
            }
        }
        bucket_bound(HIST_BUCKETS - 1)
    }
}

impl Accumulate for HistogramSnapshot {
    fn absorb(&mut self, other: &Self) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &n) in other.buckets.iter().enumerate() {
            self.buckets[b] += n;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// The live (atomic) metrics registry owned by an enabled `Obs` handle.
#[derive(Default)]
pub(crate) struct Metrics {
    counters: [AtomicU64; Counter::ALL.len()],
    solve_latency: [AtomicHistogram; QueryKind::ALL.len()],
    solve_conflicts: [AtomicHistogram; QueryKind::ALL.len()],
    learnt_db: AtomicHistogram,
    template_clauses: AtomicHistogram,
}

impl Metrics {
    pub(crate) fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.idx()].fetch_add(delta, Ordering::Relaxed);
    }

    pub(crate) fn record_solve(
        &self,
        kind: QueryKind,
        latency: u64,
        conflicts: u64,
        decisions: u64,
        propagations: u64,
        learnt_db: u64,
    ) {
        self.add(Counter::Solves, 1);
        self.add(Counter::Conflicts, conflicts);
        self.add(Counter::Decisions, decisions);
        self.add(Counter::Propagations, propagations);
        self.solve_latency[kind.idx()].record(latency);
        self.solve_conflicts[kind.idx()].record(conflicts);
        self.learnt_db.record(learnt_db);
    }

    pub(crate) fn record_template_load(&self, clauses: u64) {
        self.add(Counter::TemplateLoads, 1);
        self.add(Counter::TemplateClauses, clauses);
        self.template_clauses.record(clauses);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            solve_latency: std::array::from_fn(|i| self.solve_latency[i].snapshot()),
            solve_conflicts: std::array::from_fn(|i| self.solve_conflicts[i].snapshot()),
            learnt_db: self.learnt_db.snapshot(),
            template_clauses: self.template_clauses.snapshot(),
        }
    }
}

/// A plain-data metrics snapshot; mergeable via [`Accumulate`] so the
/// service can fold per-job snapshots into its lifetime totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed per [`Counter::ALL`].
    pub counters: [u64; Counter::ALL.len()],
    /// Solve latency histograms (µs or ticks), indexed per [`QueryKind::ALL`].
    pub solve_latency: [HistogramSnapshot; QueryKind::ALL.len()],
    /// Solve conflict-delta histograms, indexed per [`QueryKind::ALL`].
    pub solve_conflicts: [HistogramSnapshot; QueryKind::ALL.len()],
    /// Learnt-DB size at solve exit.
    pub learnt_db: HistogramSnapshot,
    /// Clauses per template load.
    pub template_clauses: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Read one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.idx()]
    }

    /// Latency histogram for one query kind.
    pub fn latency(&self, kind: QueryKind) -> &HistogramSnapshot {
        &self.solve_latency[kind.idx()]
    }

    /// Conflict-delta histogram for one query kind.
    pub fn conflicts(&self, kind: QueryKind) -> &HistogramSnapshot {
        &self.solve_conflicts[kind.idx()]
    }

    /// Render every counter and histogram in Prometheus text exposition
    /// format under the `genfv_` namespace. Latency histograms are
    /// scaled from µs to seconds per Prometheus convention.
    pub fn render_prometheus(&self, out: &mut String) {
        for c in Counter::ALL {
            prom_counter(out, &format!("genfv_{}_total", c.name()), "", self.counter(c));
        }
        for kind in QueryKind::ALL {
            prom_histogram(
                out,
                "genfv_solve_latency_seconds",
                &format!("kind=\"{}\"", kind.label()),
                self.latency(kind),
                1e-6,
            );
        }
        for kind in QueryKind::ALL {
            prom_histogram(
                out,
                "genfv_solve_conflicts",
                &format!("kind=\"{}\"", kind.label()),
                self.conflicts(kind),
                1.0,
            );
        }
        prom_histogram(out, "genfv_learnt_db_clauses", "", &self.learnt_db, 1.0);
        prom_histogram(out, "genfv_template_load_clauses", "", &self.template_clauses, 1.0);
    }
}

impl Accumulate for MetricsSnapshot {
    fn absorb(&mut self, other: &Self) {
        for (i, v) in other.counters.iter().enumerate() {
            self.counters[i] += v;
        }
        for (i, h) in other.solve_latency.iter().enumerate() {
            self.solve_latency[i].absorb(h);
        }
        for (i, h) in other.solve_conflicts.iter().enumerate() {
            self.solve_conflicts[i].absorb(h);
        }
        self.learnt_db.absorb(&other.learnt_db);
        self.template_clauses.absorb(&other.template_clauses);
    }
}

/// Append one `TYPE counter` metric in Prometheus text format.
pub fn prom_counter(out: &mut String, name: &str, labels: &str, value: u64) {
    out.push_str(&format!("# TYPE {name} counter\n"));
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Append one `TYPE gauge` metric in Prometheus text format.
pub fn prom_gauge(out: &mut String, name: &str, labels: &str, value: f64) {
    out.push_str(&format!("# TYPE {name} gauge\n"));
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Append one histogram in Prometheus text format. `scale` converts the
/// stored integer unit into the exposition unit (µs → s = `1e-6`).
/// Cumulative `_bucket` lines use the log₂ bucket upper bounds.
pub fn prom_histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    snap: &HistogramSnapshot,
    scale: f64,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (b, &n) in snap.buckets.iter().enumerate() {
        cumulative += n;
        // Skip the long flat tail: only emit buckets up to the last
        // populated one (plus +Inf below), keeping exposition compact.
        if n == 0 && snap.buckets[b..].iter().all(|&m| m == 0) {
            break;
        }
        let le = bucket_bound(b) as f64 * scale;
        out.push_str(&format!("{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}\n", snap.count));
    let sum = snap.sum as f64 * scale;
    if labels.is_empty() {
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!("{name}_count {}\n", snap.count));
    } else {
        out.push_str(&format!("{name}_sum{{{labels}}} {sum}\n"));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", snap.count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_snapshot_merges_and_quantiles() {
        let h = AtomicHistogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let mut a = h.snapshot();
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 1106);
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.count, 10);
        assert_eq!(a.sum, 2212);
        assert!(a.quantile(0.5) <= 127, "median bucket bound");
        assert!(a.quantile(1.0) >= 1000);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let mut snap = MetricsSnapshot::default();
        snap.counters[Counter::Solves.idx()] = 7;
        snap.solve_latency[QueryKind::Step.idx()].record(1500);
        let mut out = String::new();
        snap.render_prometheus(&mut out);
        assert!(out.contains("# TYPE genfv_solves_total counter"));
        assert!(out.contains("genfv_solves_total 7"));
        assert!(out.contains("genfv_solve_latency_seconds_bucket{kind=\"step\",le=\"+Inf\"} 1"));
        assert!(out.contains("genfv_solve_latency_seconds_sum{kind=\"step\"} 0.0015"));
    }
}
