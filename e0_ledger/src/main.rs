//! **e0_ledger** — one service-traffic benchmark with end-to-end metrics
//! and a per-layer self-time ledger.
//!
//! Seeded closed-loop clients push jobs through the public
//! `VerificationService` API (see `traffic` for the four workloads). An
//! untraced pass (`ObsConfig::Off`) yields the end-to-end metrics; a
//! traced pass (`ObsConfig::Full`) over the same job sequence yields the
//! per-layer ledger, rolled up from each job's spans into self time per
//! span name. Every run goes through the correctness gate (`gate`) and
//! exits 1 on any violation, after printing.
//!
//! ```text
//! e0_ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--ablate pool|cube|satsweep|dagwalk|rebuild] [--out PATH] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both
//! passes run. `--trace 0` runs the untraced pass only and reports the
//! end-to-end metrics; `--trace 1` runs both passes and reports the
//! per-layer metrics. Each metric prints as `<workload> <metric> <value>
//! <unit>`, the same numbers go to `--out` as JSON, and the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod drive;
mod gate;
mod ledger;
mod rollup;
mod traffic;

use drive::{peak_rss_mb, run_phase, source};
use gate::Gate;
use genfv_core::{FlowConfig, OptLevel, PreparedDesign};
use genfv_mc::{EngineMode, PoolScope, UnrollMode};
use genfv_obs::{Obs, ObsConfig};
use genfv_service::{ServiceConfig, VerificationService};
use ledger::{end_to_end, per_layer, Metric, Pass};
use rollup::{rollup, Rollup};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use traffic::{Dealer, Limit, Phase, Workload, WORKLOADS};

/// Set-up repetitions per untraced pass; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Most cache-missing sources the prepare replay re-prepares.
const REPLAY_CAP: usize = 1000;

/// One mechanism switched off (or swapped) through public configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ablation {
    /// No clause pool (`PoolScope::Off`).
    Pool,
    /// No cube-and-conquer (`cube_depth: 0`).
    Cube,
    /// SAT-sweeping on (`OptLevel::SatSweep`).
    SatSweep,
    /// DAG-walk frame encoding (`UnrollMode::DagWalk`).
    DagWalk,
    /// Fresh engines per query (`EngineMode::RebuildPerQuery`).
    Rebuild,
}

impl Ablation {
    const ALL: [Ablation; 5] =
        [Ablation::Pool, Ablation::Cube, Ablation::SatSweep, Ablation::DagWalk, Ablation::Rebuild];

    fn name(self) -> &'static str {
        match self {
            Ablation::Pool => "pool",
            Ablation::Cube => "cube",
            Ablation::SatSweep => "satsweep",
            Ablation::DagWalk => "dagwalk",
            Ablation::Rebuild => "rebuild",
        }
    }

    fn apply(self, mut flow: FlowConfig) -> FlowConfig {
        match self {
            Ablation::Pool => {
                flow.check.clause_pool = PoolScope::Off;
                flow.validate.check.clause_pool = PoolScope::Off;
                flow
            }
            Ablation::Cube => {
                let portfolios = [&mut flow.check.portfolio, &mut flow.validate.check.portfolio];
                for p in portfolios.into_iter().flatten() {
                    p.cube_depth = 0;
                }
                flow
            }
            Ablation::SatSweep => {
                let opt = flow.opt.with_level(OptLevel::SatSweep);
                flow.with_opt(opt)
            }
            Ablation::DagWalk => flow.with_unroll_mode(UnrollMode::DagWalk),
            Ablation::Rebuild => flow.with_engine(EngineMode::RebuildPerQuery),
        }
    }
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    ablate: Option<Ablation>,
    out: String,
    smoke: bool,
}

const USAGE: &str = "usage: e0_ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--ablate pool|cube|satsweep|dagwalk|rebuild] [--out PATH] [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: None,
        ablate: None,
        out: "target/e0_ledger.json".to_string(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let name = WORKLOADS.iter().find(|w| **w == v);
                args.workloads = vec![*name.ok_or_else(|| format!("unknown workload {v}"))?];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&v) {
                    return Err(format!("--seconds {v} is outside 0..=3600"));
                }
                args.seconds = v;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--ablate" => {
                let v = value()?;
                let found = Ablation::ALL.into_iter().find(|a| a.name() == v);
                args.ablate = Some(found.ok_or_else(|| format!("unknown ablation {v}"))?);
            }
            "--out" => args.out = value()?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// A service shaped for `w`, tracing in `obs` mode.
fn service(w: &Workload, flow: &FlowConfig, obs: ObsConfig) -> VerificationService {
    VerificationService::new(
        ServiceConfig::default()
            .with_workers(w.workers)
            // Never reached by closed-loop clients, so nothing is refused.
            .with_queue_capacity(64)
            .with_flow(flow.clone())
            .with_obs(obs),
    )
}

/// Set-up (service construction plus warm-up, `reps` times, each on a
/// fresh service) and the timed phase on the last one.
fn run_pass(w: &Workload, flow: &FlowConfig, obs: ObsConfig, args: &Args, reps: usize) -> Pass {
    let limit = if args.smoke {
        Limit::Jobs(if w.clients == 1 { 8 } else { 20 })
    } else {
        Limit::Time(Duration::from_secs_f64(args.seconds))
    };
    let cold = |phase| w.cold.then_some((args.seed, phase));
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Shut the previous service down before timing the next one.
        drop(last.take());
        let t0 = Instant::now();
        let svc = service(w, flow, obs);
        // One fixed warm-up order for every seed: with two workers the
        // order sets the warm-up's critical path, and set-up time should
        // not depend on the seed.
        let warm = Dealer::new(w.warmup.clone(), 0, Limit::Jobs(w.warmup.len()));
        let warmup = run_phase(&svc, warm, w.clients, cold(Phase::Warmup));
        setups.push(t0.elapsed());
        last = Some((svc, warmup));
    }
    let (svc, warmup) = last.expect("at least one set-up");
    let timed = run_phase(
        &svc,
        Dealer::new(w.deck.clone(), args.seed, limit),
        w.clients,
        cold(Phase::Timed),
    );
    let peak_rss_mb = peak_rss_mb();
    svc.shutdown();
    Pass { setups, warmup, timed, peak_rss_mb }
}

/// Re-prepares each source the traced pass prepared cold (at most
/// [`REPLAY_CAP`]) through the public `PreparedDesign::with_opt_obs`,
/// tracing parse/elaborate/compile and the optimizer passes that the
/// service's own prepare path does not trace.
fn replay_prepares(flow: &FlowConfig, traced: &Pass) -> Rollup {
    let obs = Obs::new(ObsConfig::Full);
    let mut seen = BTreeSet::new();
    let records = traced.warmup.records.iter().chain(&traced.timed.records);
    for r in records.filter(|r| r.outcome.as_ref().is_ok_and(|c| !c.cache_hit)) {
        let (name, rtl) = source(&r.key, r.nonce.as_deref());
        if seen.len() == REPLAY_CAP || !seen.insert(name.clone()) {
            continue;
        }
        let b = r.key.bundle();
        PreparedDesign::with_opt_obs(name, rtl, b.spec, &b.targets, &flow.opt, &obs)
            .expect("a source the service prepared prepares again");
    }
    rollup(&obs.take_events())
}

/// What one workload produced.
struct Report {
    label: String,
    metrics: Vec<Metric>,
    spans: Option<Rollup>,
    attempted: usize,
    failed: usize,
}

fn run_workload(w: &Workload, args: &Args, gate: &mut Gate) -> Report {
    let flow = args.ablate.map_or_else(|| w.flow.clone(), |a| a.apply(w.flow.clone()));
    let e2e = args.trace != Some(true);
    let layers = args.trace != Some(false);
    let violations_before = gate.violations.len();

    let reps = if e2e && !args.smoke { SETUP_REPS } else { 1 };
    eprintln!("[e0_ledger] {}: untraced pass", w.name);
    let untraced = run_pass(w, &flow, ObsConfig::Off, args, reps);
    gate.check_phase(w.name, &untraced.warmup.records);
    gate.check_phase(w.name, &untraced.timed.records);
    let mut metrics = if e2e { end_to_end(&untraced) } else { Vec::new() };
    let mut attempted = untraced.timed.records.len();
    let mut spans = None;

    if layers {
        eprintln!("[e0_ledger] {}: traced pass", w.name);
        let traced = run_pass(w, &flow, ObsConfig::Full, args, 1);
        gate.check_phase(w.name, &traced.warmup.records);
        gate.check_phase(w.name, &traced.timed.records);
        gate.check_passes(w.name, &untraced.timed.records, &traced.timed.records);
        let prepares = replay_prepares(&flow, &traced);
        metrics.extend(per_layer(&untraced, &traced, &prepares));
        attempted += traced.timed.records.len();
        let mut all = prepares;
        for c in traced.timed.records.iter().filter_map(|r| r.outcome.as_ref().ok()) {
            all.absorb(c.rollup.as_ref().expect("traced jobs carry a trace"));
        }
        spans = Some(all);
    }

    let label = match args.ablate {
        Some(a) => format!("{}@{}", w.name, a.name()),
        None => w.name.to_string(),
    };
    Report { label, metrics, spans, attempted, failed: gate.violations.len() - violations_before }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics<'a>(metrics: impl Iterator<Item = (String, &'a Metric)>) -> String {
    let fields: Vec<String> = metrics
        .map(|(key, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&key),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_spans(spans: &Rollup) -> String {
    let fields: Vec<String> = spans
        .by_name
        .iter()
        .map(|(n, t)| {
            format!("{}: {{\"count\": {}, \"self_us\": {}}}", json_str(n), t.count, t.self_us)
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_out(args: &Args, reports: &[Report], violations: &[String]) -> std::io::Result<()> {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"self_time\": {}}}",
                json_str(&r.label),
                r.attempted,
                r.failed,
                json_metrics(r.metrics.iter().map(|m| (m.name.to_string(), m))),
                r.spans.as_ref().map_or_else(|| "null".to_string(), json_spans),
            )
        })
        .collect();
    let violations: Vec<String> = violations.iter().map(|v| json_str(v)).collect();
    let json = format!(
        "{{\"benchmark\": \"e0_ledger\", \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \
         \"ablation\": {}, \"violations\": [{}], \"workloads\": [{}]}}\n",
        args.seed,
        args.seconds,
        args.smoke,
        args.ablate.map_or_else(|| "null".to_string(), |a| json_str(a.name())),
        violations.join(", "),
        workloads.join(", "),
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&args.out, json)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[e0_ledger] seed {} · {} s per pass · available parallelism {}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut gate = Gate::default();
    let mut reports = Vec::new();
    for name in &args.workloads {
        let w = Workload::named(name).expect("WORKLOADS names real workloads");
        let report = run_workload(&w, &args, &mut gate);
        for m in &report.metrics {
            println!("{} {} {} {}", report.label, m.name, m.value, m.unit);
        }
        reports.push(report);
    }
    gate.finish();
    for v in &gate.violations {
        eprintln!("VIOLATION: {v}");
    }
    match write_out(&args, &reports, &gate.violations) {
        Ok(()) => eprintln!("[e0_ledger] wrote {}", args.out),
        Err(e) => eprintln!("[e0_ledger] could not write {}: {e}", args.out),
    }

    let single = reports.len() == 1;
    let metrics = reports.iter().flat_map(|r| {
        r.metrics.iter().map(move |m| {
            let key = if single { m.name.to_string() } else { format!("{}/{}", r.label, m.name) };
            (key, m)
        })
    });
    let failed = gate.violations.len();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        reports.iter().map(|r| r.attempted).sum::<usize>(),
        json_metrics(metrics)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
