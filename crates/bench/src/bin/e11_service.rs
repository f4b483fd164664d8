//! **E11 — verification service**: warm-session cache and same-design
//! batching versus a cold service, on repeat-design traffic.
//!
//! The service's bet is that verification traffic repeats: the same
//! design comes back re-verified again and again (CI, spec tweaks, model
//! sweeps), and almost all of a small job's cost is *capital* —
//! parse/elaborate/compile, template bit-blasting, base cases — that a
//! design-hash-keyed cache can carry from one request to the next. This
//! experiment measures exactly that: for each design, a burst of
//! identical jobs is pushed through
//!
//! * a **warm** service (default configuration: LRU design cache on,
//!   same-design batching on), and
//! * a **cold** service (`with_cache_entries(0).with_batching(false)`:
//!   every job re-prepares its design and starts its sessions from
//!   nothing),
//!
//! both single-worker so the comparison is scheduling-free. Two
//! sections: **baseline** (plain k-induction; pure capital, the cache's
//! best case) and **flow2** (the full CEX-driven repair loop around it).
//! The run is differential — it **fails with exit 1** if any job's
//! verdict classes differ between warm, cold, and a direct flow call,
//! or if the warm service records no cache hits.
//!
//! Results go to stdout and `BENCH_service.json` (working directory, or
//! `$GENFV_BENCH_JSON`): per-cell medians over `--samples` service
//! bursts (default 5, `--quick` = 2) of `--repeats` jobs each. The
//! headline `overall_speedup` is the geometric mean of per-cell
//! speedups — the cells span two orders of magnitude of runtime, so a
//! total-time ratio would just re-measure the two slowest (deliberately
//! adversarial) cells; the raw cold/warm totals are reported alongside.
//!
//! Run with `cargo run --release -p genfv-bench --bin e11_service`.

use genfv_bench::ms;
use genfv_core::{
    run_baseline, run_flow2, CorpusMode, FlowConfig, FlowReport, Table, TargetOutcome,
};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_service::{DesignInput, JobRequest, ServiceConfig, VerificationService};
use std::time::{Duration, Instant};

/// Baseline-section designs: capital-dominated corpus members (encoding
/// and base cases outweigh the step search) — plus `mul_incr` as a
/// deliberately adversarial control. Its multiplier cone makes the step
/// search conflict-dominated, and skipping seeded base cases also skips
/// the learned-clause warmup those solves would have given the step
/// query, so the warm service can be slightly *slower* there. The cell
/// is not gated; it shows the size of that trade.
const BASELINE_DESIGNS: &[&str] = &[
    "sync_counters_16",
    "hamming74",
    "secded84",
    "gray_counter",
    "ring_counter",
    "div_checker",
    "mul_incr",
];

/// Flow-section designs: the lemma-hungry family (same as e8/e9/e10).
const FLOW_DESIGNS: &[&str] =
    &["sync_counters_16", "parity_pipe", "hamming74", "ecc_counter", "fifo_counters"];

const MODEL: ModelProfile = ModelProfile::GptFourTurbo;
const LLM_SEED: u64 = 42;

fn verdict_class(outcome: &TargetOutcome) -> String {
    match outcome {
        TargetOutcome::Proven { .. } => "proven".to_string(),
        TargetOutcome::Falsified { at } => format!("falsified@{at}"),
        TargetOutcome::StillUnproven { .. } => "still_unproven".to_string(),
        TargetOutcome::Unknown { .. } => "unknown".to_string(),
    }
}

fn flow_verdicts(report: &FlowReport) -> Vec<(String, String)> {
    report.targets.iter().map(|t| (t.name.clone(), verdict_class(&t.outcome))).collect()
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Cell {
    section: &'static str,
    design: String,
    cold: Duration,
    warm: Duration,
    cache_hits: u64,
    batched_jobs: u64,
    templates_reused: u64,
    clean_seed_hits: u64,
    agree: bool,
}

/// One burst: `repeats` identical jobs through a fresh single-worker
/// service. Returns the wall time (first submit to last report), the
/// per-job verdicts, and the service stats.
fn burst(
    bundle: &genfv_designs::DesignBundle,
    mode: CorpusMode,
    repeats: usize,
    warm: bool,
) -> (Duration, Vec<Vec<(String, String)>>, genfv_service::ServiceStats) {
    let mut config = ServiceConfig::default()
        .with_workers(1)
        .with_queue_capacity(repeats.max(1))
        .with_mode(mode);
    if !warm {
        config = config.with_cache_entries(0).with_batching(false);
    }
    let service = VerificationService::new(config);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..repeats)
        .map(|_| {
            let mut request = JobRequest::new(DesignInput::Source {
                name: bundle.name.to_string(),
                rtl: bundle.rtl.to_string(),
                spec: bundle.spec.to_string(),
                targets: bundle.targets.clone(),
            })
            .with_mode(mode);
            if mode.needs_model() {
                request = request.with_llm(SyntheticLlm::new(MODEL, LLM_SEED));
            }
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

fn run_cell(
    section: &'static str,
    name: &str,
    mode: CorpusMode,
    repeats: usize,
    samples: usize,
) -> Cell {
    let bundle = genfv_designs::by_name(name).expect("benchmark design exists");

    // Direct flow call: the reference verdicts every service job must hit.
    let design = bundle.prepare().expect("prepare");
    let reference = match mode {
        CorpusMode::Baseline => run_baseline(&design, &FlowConfig::default()),
        _ => run_flow2(design, &mut SyntheticLlm::new(MODEL, LLM_SEED), &FlowConfig::default()),
    };
    let reference = flow_verdicts(&reference);

    let mut cold_times = Vec::new();
    let mut warm_times = Vec::new();
    let mut agree = true;
    let mut cache_hits = 0;
    let mut batched_jobs = 0;
    let mut templates_reused = 0;
    let mut clean_seed_hits = 0;
    for _ in 0..samples {
        let (t, verdicts, _) = burst(&bundle, mode, repeats, false);
        cold_times.push(t);
        agree &= verdicts.iter().all(|v| *v == reference);

        let (t, verdicts, stats) = burst(&bundle, mode, repeats, true);
        warm_times.push(t);
        agree &= verdicts.iter().all(|v| *v == reference);
        cache_hits = stats.cache_hits;
        batched_jobs = stats.batched_jobs;
        templates_reused = stats.templates_reused;
        clean_seed_hits = stats.clean_seed_hits;
    }
    Cell {
        section,
        design: name.to_string(),
        cold: median(&mut cold_times),
        warm: median(&mut warm_times),
        cache_hits,
        batched_jobs,
        templates_reused,
        clean_seed_hits,
        agree,
    }
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

    let mut cells: Vec<Cell> = Vec::new();
    for name in BASELINE_DESIGNS {
        if keep(name) {
            cells.push(run_cell("baseline", name, CorpusMode::Baseline, repeats, samples));
        }
    }
    for name in FLOW_DESIGNS {
        if keep(name) {
            cells.push(run_cell("flow2", name, CorpusMode::Flow2, repeats, samples));
        }
    }

    let mut table = Table::new([
        "section",
        "design",
        "cold (median)",
        "warm (median)",
        "speedup",
        "hits",
        "batched",
        "tpl reuse",
        "clean hits",
        "verdicts",
    ]);
    let mut json_rows = Vec::new();
    let mut totals: std::collections::BTreeMap<&'static str, (Duration, Duration, Vec<f64>)> =
        std::collections::BTreeMap::new();
    let mut divergent = false;
    let mut total_hits = 0u64;
    for c in &cells {
        let entry = totals.entry(c.section).or_insert((Duration::ZERO, Duration::ZERO, Vec::new()));
        entry.0 += c.cold;
        entry.1 += c.warm;
        total_hits += c.cache_hits;
        let speedup = c.cold.as_secs_f64() / c.warm.as_secs_f64().max(1e-9);
        entry.2.push(speedup);
        divergent |= !c.agree;
        table.row([
            c.section.to_string(),
            c.design.clone(),
            ms(c.cold),
            ms(c.warm),
            format!("{speedup:.2}x"),
            c.cache_hits.to_string(),
            c.batched_jobs.to_string(),
            c.templates_reused.to_string(),
            c.clean_seed_hits.to_string(),
            if c.agree { "identical".to_string() } else { "DIVERGED".to_string() },
        ]);
        json_rows.push(format!(
            "    {{\"section\": \"{}\", \"design\": \"{}\", \"cold_ms\": {:.3}, \
             \"warm_ms\": {:.3}, \"speedup\": {speedup:.3}, \"cache_hits\": {}, \
             \"batched_jobs\": {}, \"templates_reused\": {}, \"clean_seed_hits\": {}, \
             \"verdicts_identical\": {}}}",
            c.section,
            c.design,
            c.cold.as_secs_f64() * 1e3,
            c.warm.as_secs_f64() * 1e3,
            c.cache_hits,
            c.batched_jobs,
            c.templates_reused,
            c.clean_seed_hits,
            c.agree,
        ));
    }

    let geomean = |speedups: &[f64]| -> f64 {
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp()
    };
    let total_cold: Duration = totals.values().map(|&(c, _, _)| c).sum();
    let total_warm: Duration = totals.values().map(|&(_, w, _)| w).sum();
    let all_speedups: Vec<f64> = totals.values().flat_map(|(_, _, s)| s.iter().copied()).collect();
    let overall = geomean(&all_speedups);
    let time_ratio = total_cold.as_secs_f64() / total_warm.as_secs_f64().max(1e-9);
    println!("E11: verification service — cold vs warm-session-cache repeat traffic\n");
    println!("{}", table.render());
    let mut section_json = Vec::new();
    println!();
    for (section, (c, w, speedups)) in &totals {
        let s = geomean(speedups);
        println!("{section}: cold {} vs warm {} → geomean {s:.2}x", ms(*c), ms(*w));
        section_json.push(format!("    \"{section}\": {s:.3}"));
    }
    println!(
        "overall: geomean {overall:.2}x over {} cells (cold {} vs warm {} total, \
         {repeats} jobs/burst, {samples} bursts/cell, {total_hits} cache hits)",
        all_speedups.len(),
        ms(total_cold),
        ms(total_warm)
    );

    let json = format!(
        "{{\n  \"experiment\": \"e11_service\",\n  \"samples\": {samples},\n  \
         \"repeats\": {repeats},\n  \"overall_speedup\": {overall:.3},\n  \
         \"total_cold_ms\": {:.3},\n  \"total_warm_ms\": {:.3},\n  \
         \"total_time_ratio\": {time_ratio:.3},\n  \
         \"cache_hits\": {total_hits},\n  \"section_speedups\": {{\n{}\n  }},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        total_cold.as_secs_f64() * 1e3,
        total_warm.as_secs_f64() * 1e3,
        section_json.join(",\n"),
        json_rows.join(",\n")
    );
    let path =
        std::env::var("GENFV_BENCH_JSON").unwrap_or_else(|_| "BENCH_service.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");

    if divergent {
        eprintln!("FAIL: service verdicts diverged from the direct flow runs");
        std::process::exit(1);
    }
    if total_hits == 0 {
        eprintln!("FAIL: warm service recorded no cache hits");
        std::process::exit(1);
    }
}
