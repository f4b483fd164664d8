//! **E13 — persistent clause pool**: deep unaided induction and
//! repeat-design service traffic, cold versus pooled.
//!
//! Two sections:
//!
//! * **induction** — unaided k-induction pushed deep (`max_k` well past
//!   the default) on the lemma-hungry FIFO/ECC family, behind a portfolio
//!   with a small probe so the hard step obligations are raced. Each cell
//!   runs three
//!   sessions over the same design: **cold** (no seed — every query
//!   starts from nothing), **seed** (warm [`SessionSeed`] with the clause
//!   pool scoped off: template reuse + clean-depth skips only — the
//!   pre-pool warm start), and **pooled** (the same seed with
//!   [`PoolScope::Full`]: skipped base cases replay their learnt clauses
//!   and step queries import frame-relocated glue). The seed/pooled gap
//!   isolates what the pool itself buys on top of the older capital.
//! * **service** — repeat-traffic bursts through a warm
//!   (cache+batching) versus cold service in baseline mode, including
//!   the `mul_incr` control cell: its step search is conflict-dominated,
//!   and before clause replay the warm service ran it *slower* because
//!   skipping seeded base cases also skipped their learnt-clause warmup.
//!   The pool closes exactly that gap, so this cell is the honesty check.
//!
//! The run is differential — it **fails with exit 1** if any seeded or
//! pooled verdict diverges from its cold reference, or if the whole run
//! records zero pool hits.
//!
//! Results go to stdout and `BENCH_cube.json` (working directory, or
//! `$GENFV_BENCH_JSON`): per-cell medians over `--samples` runs
//! (default 5, `--quick` = 2). The headline is the geometric mean of
//! per-cell cold/pooled speedups.
//!
//! Run with `cargo run --release -p genfv-bench --bin e13_cube`.

use genfv_bench::ms;
use genfv_core::{CorpusMode, FlowReport, Table, TargetOutcome};
use genfv_mc::{
    CheckConfig, PoolScope, PortfolioConfig, ProofSession, ProveResult, SessionSeed, SessionStats,
};
use genfv_service::{DesignInput, JobRequest, ServiceConfig, VerificationService};
use std::time::{Duration, Instant};

/// Induction-section designs: the corpus members whose unaided step
/// searches are deep enough for the pool to have something to chew on.
const INDUCTION_DESIGNS: &[&str] = &["fifo_counters", "ecc_counter", "credit_flow", "parity_pipe"];

/// Service-section designs: capital-dominated repeat traffic plus the
/// `mul_incr` conflict-dominated control cell.
const SERVICE_DESIGNS: &[&str] = &["sync_counters_16", "div_checker", "mul_incr"];

/// How deep the induction section pushes `max_k`.
const DEEP_K: usize = 12;

fn verdict_class(res: &ProveResult) -> String {
    match res {
        ProveResult::Proven { k, .. } => format!("proven@{k}"),
        ProveResult::Falsified { at, .. } => format!("falsified@{at}"),
        ProveResult::StepFailure { k, .. } => format!("step_failure@{k}"),
        ProveResult::Unknown { .. } => "unknown".to_string(),
    }
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The deep-induction check configuration: a portfolio with a small
/// probe so conflict-heavy step obligations are raced instead of grinding
/// solo.
fn deep_config() -> CheckConfig {
    CheckConfig {
        max_k: DEEP_K,
        portfolio: Some(PortfolioConfig {
            probe_conflicts: Some(256),
            ..PortfolioConfig::default()
        }),
        ..CheckConfig::default()
    }
}

struct InductionCell {
    design: String,
    cold: Duration,
    seed_only: Duration,
    pooled: Duration,
    /// Pooled warm-run stats: the pool traffic lives here.
    stats: SessionStats,
    agree: bool,
}

/// One timed session over every target of `design` under `config`.
fn timed_session(
    design: &genfv_core::PreparedDesign,
    config: CheckConfig,
) -> (Duration, Vec<String>, SessionStats) {
    let mut session = ProofSession::new(&design.ctx, &design.ts, config);
    let t0 = Instant::now();
    let verdicts: Vec<String> =
        design.targets.iter().map(|t| verdict_class(&session.prove(&t.prop))).collect();
    (t0.elapsed(), verdicts, *session.stats())
}

fn run_induction_cell(name: &str, samples: usize) -> InductionCell {
    let bundle = genfv_designs::by_name(name).expect("benchmark design exists");
    let design = bundle.prepare().expect("prepare");
    let base = deep_config();

    let mut cold_times = Vec::new();
    let mut seed_times = Vec::new();
    let mut pooled_times = Vec::new();
    let mut agree = true;
    let mut pooled_stats = SessionStats::default();
    for _ in 0..samples {
        let (t, reference, _) = timed_session(&design, base.clone());
        cold_times.push(t);

        // Fresh seed per sample; one unmetered run populates it, then the
        // warm runs measure the repeat-traffic case.
        let seed = SessionSeed::for_design(&design.ctx, &design.ts);
        let warm = CheckConfig { seed: Some(seed.clone()), ..base.clone() };
        let (_, prime_verdicts, _) = timed_session(&design, warm.clone());
        agree &= prime_verdicts == reference;

        let no_pool = CheckConfig { clause_pool: PoolScope::Off, ..warm.clone() };
        let (t, verdicts, _) = timed_session(&design, no_pool);
        seed_times.push(t);
        agree &= verdicts == reference;

        let (t, verdicts, stats) = timed_session(&design, warm);
        pooled_times.push(t);
        agree &= verdicts == reference;
        pooled_stats = stats;
    }
    InductionCell {
        design: name.to_string(),
        cold: median(&mut cold_times),
        seed_only: median(&mut seed_times),
        pooled: median(&mut pooled_times),
        stats: pooled_stats,
        agree,
    }
}

fn flow_verdicts(report: &FlowReport) -> Vec<String> {
    report
        .targets
        .iter()
        .map(|t| match &t.outcome {
            TargetOutcome::Proven { .. } => format!("{}:proven", t.name),
            TargetOutcome::Falsified { at } => format!("{}:falsified@{at}", t.name),
            TargetOutcome::StillUnproven { .. } => format!("{}:still_unproven", t.name),
            TargetOutcome::Unknown { .. } => format!("{}:unknown", t.name),
        })
        .collect()
}

struct ServiceCell {
    design: String,
    cold: Duration,
    warm: Duration,
    pool_hits: u64,
    pool_imported: u64,
    clean_seed_hits: u64,
    agree: bool,
}

/// One burst of identical baseline jobs through a fresh single-worker
/// service (warm = default cache+batching, cold = neither).
fn burst(
    bundle: &genfv_designs::DesignBundle,
    repeats: usize,
    warm: bool,
) -> (Duration, Vec<Vec<String>>, genfv_service::ServiceStats) {
    let mut config = ServiceConfig::default()
        .with_workers(1)
        .with_queue_capacity(repeats.max(1))
        .with_mode(CorpusMode::Baseline);
    if !warm {
        config = config.with_cache_entries(0).with_batching(false);
    }
    let service = VerificationService::new(config);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..repeats)
        .map(|_| {
            let request = JobRequest::new(DesignInput::Source {
                name: bundle.name.to_string(),
                rtl: bundle.rtl.to_string(),
                spec: bundle.spec.to_string(),
                targets: bundle.targets.clone(),
            })
            .with_mode(CorpusMode::Baseline);
            service.submit(request).expect("bench submit")
        })
        .collect();
    let verdicts: Vec<_> =
        handles.into_iter().map(|h| flow_verdicts(&h.wait().expect("bench job").flow)).collect();
    let elapsed = t0.elapsed();
    let stats = service.stats();
    service.shutdown();
    (elapsed, verdicts, stats)
}

fn run_service_cell(name: &str, repeats: usize, samples: usize) -> ServiceCell {
    let bundle = genfv_designs::by_name(name).expect("benchmark design exists");
    let mut cold_times = Vec::new();
    let mut warm_times = Vec::new();
    let mut agree = true;
    let mut pool_hits = 0;
    let mut pool_imported = 0;
    let mut clean_seed_hits = 0;
    for _ in 0..samples {
        let (t, cold_verdicts, _) = burst(&bundle, repeats, false);
        cold_times.push(t);
        let reference = cold_verdicts.first().cloned().unwrap_or_default();
        agree &= cold_verdicts.iter().all(|v| *v == reference);

        let (t, verdicts, stats) = burst(&bundle, repeats, true);
        warm_times.push(t);
        agree &= verdicts.iter().all(|v| *v == reference);
        pool_hits = stats.pool_hits;
        pool_imported = stats.pool_clauses_imported;
        clean_seed_hits = stats.clean_seed_hits;
    }
    ServiceCell {
        design: name.to_string(),
        cold: median(&mut cold_times),
        warm: median(&mut warm_times),
        pool_hits,
        pool_imported,
        clean_seed_hits,
        agree,
    }
}

fn geomean(speedups: &[f64]) -> f64 {
    (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|p| args.get(p + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if quick { 2 } else { 5 })
        .max(1);
    let repeats = args
        .iter()
        .position(|a| a == "--repeats")
        .and_then(|p| args.get(p + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if quick { 3 } else { 6 })
        .max(2); // below 2 there is no repeat traffic to measure
    let only: Option<&String> =
        args.iter().position(|a| a == "--only").and_then(|p| args.get(p + 1));
    let keep = |name: &str| only.is_none_or(|o| o == name);

    let induction: Vec<InductionCell> = INDUCTION_DESIGNS
        .iter()
        .filter(|n| keep(n))
        .map(|n| run_induction_cell(n, samples))
        .collect();
    let service: Vec<ServiceCell> = SERVICE_DESIGNS
        .iter()
        .filter(|n| keep(n))
        .map(|n| run_service_cell(n, repeats, samples))
        .collect();

    println!("E13: clause pool — cold vs pooled\n");
    let mut divergent = false;
    let mut total_pool_hits = 0u64;
    let mut json_rows = Vec::new();

    let mut table = Table::new([
        "design",
        "cold",
        "seed-only",
        "pooled",
        "speedup",
        "pool gain",
        "imported",
        "hits",
        "verdicts",
    ]);
    let mut induction_speedups = Vec::new();
    for c in &induction {
        let speedup = c.cold.as_secs_f64() / c.pooled.as_secs_f64().max(1e-9);
        let pool_gain = c.seed_only.as_secs_f64() / c.pooled.as_secs_f64().max(1e-9);
        induction_speedups.push(speedup);
        divergent |= !c.agree;
        total_pool_hits += c.stats.pool_hits;
        table.row([
            c.design.clone(),
            ms(c.cold),
            ms(c.seed_only),
            ms(c.pooled),
            format!("{speedup:.2}x"),
            format!("{pool_gain:.2}x"),
            c.stats.pool_clauses_imported.to_string(),
            c.stats.pool_hits.to_string(),
            if c.agree { "identical".to_string() } else { "DIVERGED".to_string() },
        ]);
        json_rows.push(format!(
            "    {{\"section\": \"induction\", \"design\": \"{}\", \"cold_ms\": {:.3}, \
             \"seed_only_ms\": {:.3}, \"pooled_ms\": {:.3}, \"speedup\": {speedup:.3}, \
             \"pool_gain\": {pool_gain:.3}, \"pool_imported\": {}, \"pool_hits\": {}, \"verdicts_identical\": {}}}",
            c.design,
            c.cold.as_secs_f64() * 1e3,
            c.seed_only.as_secs_f64() * 1e3,
            c.pooled.as_secs_f64() * 1e3,
            c.stats.pool_clauses_imported,
            c.stats.pool_hits,
            c.agree,
        ));
    }
    println!("induction (unaided, max_k={DEEP_K}, probe=256):");
    println!("{}", table.render());
    let induction_geomean = geomean(&induction_speedups);
    println!("induction geomean (cold/pooled): {induction_geomean:.2}x\n");

    let mut table = Table::new([
        "design",
        "cold",
        "warm",
        "speedup",
        "pool hits",
        "imported",
        "clean hits",
        "verdicts",
    ]);
    let mut service_speedups = Vec::new();
    for c in &service {
        let speedup = c.cold.as_secs_f64() / c.warm.as_secs_f64().max(1e-9);
        service_speedups.push(speedup);
        divergent |= !c.agree;
        total_pool_hits += c.pool_hits;
        table.row([
            c.design.clone(),
            ms(c.cold),
            ms(c.warm),
            format!("{speedup:.2}x"),
            c.pool_hits.to_string(),
            c.pool_imported.to_string(),
            c.clean_seed_hits.to_string(),
            if c.agree { "identical".to_string() } else { "DIVERGED".to_string() },
        ]);
        json_rows.push(format!(
            "    {{\"section\": \"service\", \"design\": \"{}\", \"cold_ms\": {:.3}, \
             \"warm_ms\": {:.3}, \"speedup\": {speedup:.3}, \"pool_hits\": {}, \
             \"pool_imported\": {}, \"clean_seed_hits\": {}, \"verdicts_identical\": {}}}",
            c.design,
            c.cold.as_secs_f64() * 1e3,
            c.warm.as_secs_f64() * 1e3,
            c.pool_hits,
            c.pool_imported,
            c.clean_seed_hits,
            c.agree,
        ));
    }
    println!("service (baseline repeat traffic, {repeats} jobs/burst):");
    println!("{}", table.render());
    let service_geomean = geomean(&service_speedups);
    println!("service geomean (cold/warm): {service_geomean:.2}x");

    let all: Vec<f64> = induction_speedups.iter().chain(&service_speedups).copied().collect();
    let overall = geomean(&all);
    println!(
        "overall: geomean {overall:.2}x over {} cells ({samples} samples/cell, \
         {total_pool_hits} pool hits)",
        all.len()
    );

    let json = format!(
        "{{\n  \"experiment\": \"e13_cube\",\n  \"samples\": {samples},\n  \
         \"repeats\": {repeats},\n  \"deep_k\": {DEEP_K},\n  \
         \"overall_speedup\": {overall:.3},\n  \
         \"induction_speedup\": {induction_geomean:.3},\n  \
         \"service_speedup\": {service_geomean:.3},\n  \
         \"pool_hits\": {total_pool_hits},\n  \"cells\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path = std::env::var("GENFV_BENCH_JSON").unwrap_or_else(|_| "BENCH_cube.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");

    if divergent {
        eprintln!("FAIL: seeded or pooled verdicts diverged from the cold reference");
        std::process::exit(1);
    }
    if total_pool_hits == 0 {
        eprintln!("FAIL: the run recorded no pool hits");
        std::process::exit(1);
    }
}
