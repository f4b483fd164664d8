//! The numbers: end-to-end metrics from the untraced pass, per-layer
//! metrics from both passes and the prepare replay.

use crate::drive::{Completed, JobRecord, PhaseRun};
use crate::rollup::Rollup;
use std::time::Duration;

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One pass over a workload: set-up, warm-up, and the timed phase.
pub struct Pass {
    /// Service construction plus warm-up, once per repetition.
    pub setups: Vec<Duration>,
    /// The last repetition's warm-up jobs.
    pub warmup: PhaseRun,
    /// The measured jobs.
    pub timed: PhaseRun,
    /// Process `VmHWM` after the timed phase.
    pub peak_rss_mb: f64,
}

impl Pass {
    fn completed(&self) -> impl Iterator<Item = &Completed> {
        self.timed.records.iter().filter_map(|r| r.outcome.as_ref().ok())
    }

    fn jobs(&self) -> f64 {
        self.timed.records.len() as f64
    }

    /// Completed timed jobs per second.
    pub fn jobs_per_s(&self) -> f64 {
        ratio(self.completed().count() as f64, self.timed.elapsed.as_secs_f64())
    }

    fn per_job(&self, f: impl Fn(&Completed) -> f64) -> f64 {
        ratio(self.completed().map(f).sum(), self.jobs())
    }

    fn frac(&self, f: impl Fn(&Completed) -> bool) -> f64 {
        ratio(self.completed().filter(|c| f(c)).count() as f64, self.jobs())
    }

    /// Self time of every completed timed job, summed.
    fn rollup(&self) -> Rollup {
        let mut total = Rollup::default();
        for r in self.completed().filter_map(|c| c.rollup.as_ref()) {
            total.absorb(r);
        }
        total
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile `q` of `values` in ms (0 when empty).
fn quantile_ms(mut values: Vec<Duration>, q: f64) -> f64 {
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values.get(rank.max(1) - 1).map_or(0.0, |d| ms(*d))
}

fn median_s(values: &[Duration]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2].as_secs_f64(),
        n => (v[n / 2 - 1] + v[n / 2]).as_secs_f64() / 2.0,
    }
}

fn latencies(records: &[JobRecord], f: impl Fn(&JobRecord) -> Duration) -> Vec<Duration> {
    records.iter().map(f).collect()
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let records = &pass.timed.records;
    let targets: usize = records.iter().map(|r| r.key.bundle().targets.len()).sum();
    let proven =
        pass.completed().flat_map(|c| &c.verdicts).filter(|(_, v)| v.starts_with("proven")).count();
    vec![
        m("setup_s", "s", median_s(&pass.setups)),
        m("jobs_per_s", "jobs/s", pass.jobs_per_s()),
        m("job_p50_ms", "ms", quantile_ms(latencies(records, |r| r.latency), 0.5)),
        m("job_p90_ms", "ms", quantile_ms(latencies(records, |r| r.latency), 0.9)),
        m("cpu_ms_per_job", "ms/job", ratio(ms(pass.timed.cpu), pass.jobs())),
        m("proven_frac", "fraction", ratio(proven as f64, targets as f64)),
    ]
}

/// The per-layer metrics: client-side and flow counters from the
/// untraced pass `u`, span self times from the traced pass `t`, and
/// prepare self times from the replay `prep`.
pub fn per_layer(u: &Pass, t: &Pass, prep: &Rollup) -> Vec<Metric> {
    let records = &u.timed.records;
    let fm = |f: fn(&genfv_core::FlowMetrics) -> f64| u.per_job(move |c| f(&c.metrics));
    let llm_calls = fm(|m| m.llm_calls as f64);
    let per_call = |v: f64| ratio(v, llm_calls);
    let parsed = fm(|m| m.candidates_parsed as f64);
    let rejected =
        fm(|m| (m.rejected_compile + m.rejected_false + m.rejected_not_inductive) as f64);
    let sv =
        |f: fn(&genfv_mc::SessionStats) -> u64| u.per_job(move |c| f(&c.metrics.solver) as f64);

    let spans = t.rollup();
    let span_ms = |us: u64| ratio(us as f64 / 1e3, t.jobs());
    let span_calls = |name: &str| ratio(spans.count(name) as f64, t.jobs());
    let llm_host_traced = t.per_job(|c| ms(c.llm_host));
    let prepares = prep.count("prepare") as f64;
    let prep_ms = |name: &str| ratio(prep.self_us(name) as f64 / 1e3, prepares);
    let failed = records.iter().filter(|r| r.outcome.is_err()).count() as f64;

    vec![
        // service
        m("service.admit_ms.p50", "ms", quantile_ms(latencies(records, |r| r.admit), 0.5)),
        m("service.admit_ms.p90", "ms", quantile_ms(latencies(records, |r| r.admit), 0.9)),
        m("service.run_ms.p50", "ms", quantile_ms(run_times(u), 0.5)),
        m("service.run_ms.p90", "ms", quantile_ms(run_times(u), 0.9)),
        m("service.cache_hit_frac", "fraction", u.frac(|c| c.cache_hit)),
        m("service.batched_frac", "fraction", u.frac(|c| c.batched)),
        m("failed_frac", "fraction", ratio(failed, u.jobs())),
        // Not end-to-end: glibc sometimes populates one more malloc arena
        // for the portfolio's threads, which moves the peak by ~40% on
        // deep_induction from run to run.
        m("peak_rss_mb", "MB", u.peak_rss_mb),
        // hdl + sva + ir: prepare, replayed once per cache-missing source
        m("prepare.calls", "count", prepares),
        m("prepare.self_ms_per_call", "ms/call", prep_ms("prepare")),
        m("opt.self_ms_per_call", "ms/call", prep_ms("opt")),
        m("opt.rewrite.self_ms_per_call", "ms/call", prep_ms("opt.rewrite")),
        m("opt.stuck.self_ms_per_call", "ms/call", prep_ms("opt.stuck")),
        m("opt.rebalance.self_ms_per_call", "ms/call", prep_ms("opt.rebalance")),
        m("opt.coi.self_ms_per_call", "ms/call", prep_ms("opt.coi")),
        m("opt.sweep.self_ms_per_call", "ms/call", prep_ms("opt.sweep")),
        m("opt.satsweep.self_ms_per_call", "ms/call", prep_ms("opt.satsweep")),
        // genai
        m("genai.calls_per_job", "calls/job", llm_calls),
        m("genai.host_ms_per_call", "ms/call", per_call(u.per_job(|c| ms(c.llm_host)))),
        m("genai.sim_s_per_call", "s/call", per_call(fm(|m| m.llm_latency.as_secs_f64()))),
        m("genai.prompt_tokens_per_call", "tokens/call", per_call(fm(|m| m.prompt_tokens as f64))),
        m(
            "genai.completion_tokens_per_call",
            "tokens/call",
            per_call(fm(|m| m.completion_tokens as f64)),
        ),
        m("llm_sim_s_per_job", "s/job", fm(|m| m.llm_latency.as_secs_f64())),
        // core
        m("core.candidates_per_job", "candidates/job", parsed),
        m("core.lemma_yield", "fraction", ratio(fm(|m| m.lemmas_accepted as f64), parsed)),
        m("core.rejected_frac", "fraction", ratio(rejected, parsed)),
        m("core.iterations_per_job", "iterations/job", fm(|m| m.iterations as f64)),
        m("core.proof_ms_per_job", "ms/job", fm(|m| ms(m.proof_time))),
        m(
            "flow.self_ms_per_job",
            "ms/job",
            (span_ms(spans.self_us_prefixed("flow.")) - llm_host_traced).max(0.0),
        ),
        // mc
        m("prove.self_ms_per_job", "ms/job", span_ms(spans.self_us("prove"))),
        m(
            "session.extend.base.self_ms_per_job",
            "ms/job",
            span_ms(spans.self_us("session.extend.base")),
        ),
        m(
            "session.extend.step.self_ms_per_job",
            "ms/job",
            span_ms(spans.self_us("session.extend.step")),
        ),
        m("mc.solver_calls_per_job", "calls/job", sv(|s| s.solver_calls)),
        m("mc.clean_seed_hits_per_job", "count/job", sv(|s| s.clean_seed_hits)),
        m("mc.templates_reused_per_job", "count/job", sv(|s| s.templates_reused)),
        m("mc.bitblasts_per_job", "count/job", sv(|s| s.bitblasts)),
        // portfolio
        m("portfolio.self_ms_per_job", "ms/job", span_ms(spans.self_us_prefixed("portfolio."))),
        m("portfolio.races_per_job", "count/job", sv(|s| s.portfolio_races)),
        m("portfolio.cube_splits_per_job", "count/job", sv(|s| s.cube_splits)),
        m(
            "portfolio.cubes_per_split",
            "cubes/split",
            ratio(sv(|s| s.cubes_raced), sv(|s| s.cube_splits)),
        ),
        // sat
        m("solve.base.self_ms_per_job", "ms/job", span_ms(spans.self_us("solve.base"))),
        m("solve.step.self_ms_per_job", "ms/job", span_ms(spans.self_us("solve.step"))),
        m("solve.probe.self_ms_per_job", "ms/job", span_ms(spans.self_us("solve.probe"))),
        m("solve.cube.self_ms_per_job", "ms/job", span_ms(spans.self_us("solve.cube"))),
        m("solve.base.calls_per_job", "calls/job", span_calls("solve.base")),
        m("solve.step.calls_per_job", "calls/job", span_calls("solve.step")),
        m("solve.probe.calls_per_job", "calls/job", span_calls("solve.probe")),
        m("solve.cube.calls_per_job", "calls/job", span_calls("solve.cube")),
        m("sat.conflicts_per_job", "count/job", sv(|s| s.conflicts)),
        m("sat.pool_imported_per_job", "clauses/job", sv(|s| s.pool_clauses_imported)),
        m("sat.pool_exported_per_job", "clauses/job", sv(|s| s.pool_clauses_exported)),
        m("sat.pool_hits_per_job", "count/job", sv(|s| s.pool_hits)),
        // obs
        m("obs.trace_overhead", "fraction", 1.0 - ratio(t.jobs_per_s(), u.jobs_per_s())),
        m(
            "obs.dropped_events",
            "count",
            t.completed().map(|c| c.dropped_events).sum::<u64>() as f64,
        ),
    ]
}

fn run_times(pass: &Pass) -> Vec<Duration> {
    pass.completed().map(|c| c.run_time).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(quantile_ms(v.clone(), 0.5), 5.0);
        assert_eq!(quantile_ms(v.clone(), 0.9), 9.0);
        assert_eq!(quantile_ms(v, 1.0), 10.0);
        assert_eq!(quantile_ms(Vec::new(), 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        let s = Duration::from_secs;
        assert_eq!(median_s(&[s(3), s(1), s(2)]), 2.0);
        assert_eq!(median_s(&[s(4), s(1), s(2), s(3)]), 2.5);
    }
}
