//! **E10 — template-stamped unrolling**: DAG-walk frame encoding versus
//! template stamping (`UnrollMode::{DagWalk, Template}`), both on the
//! incremental-session engine.
//!
//! Three workloads, all differential (the run **fails** with exit 1 if
//! any verdict diverges between the encodings):
//!
//! * **encode** — the hot path itself, isolated: warm a batch of
//!   free-start session unrollers to frame 64 (2× the deep-induction
//!   depth) over the whole corpus, finishing each with a window-guarded
//!   solver call so every stamped clause really propagates. The batch
//!   size approximates one validation gauntlet's worth of session
//!   creations — the Flow-2 loop builds a session per validation batch
//!   and per lemma-installing repair iteration, so per-session
//!   encoding cost is paid constantly. This section is where the
//!   template's one-blast-then-stamp design shows directly.
//! * **flow** — the complete Flow 2 (validation gauntlet, Houdini,
//!   target proofs, CEX-driven repair) across designs × model profiles.
//!   End-to-end these runs are CDCL-dominated, so the expected result is
//!   parity-or-better; the section keeps the aggregate honest.
//!   Induction-step counterexample *values* are solver-chosen and feed
//!   the repair prompt, so the contest compares verdict classes and
//!   falsification cycles — the observables the flows branch on.
//! * **deep** — unaided `ProofSession::prove` at `max_k` 32 (twice the
//!   e9 deep depth): every frame costs a full DAG re-walk in the
//!   reference encoding and one clause-arena stamp in template mode, and
//!   the hash-consed block is smaller, so the solver often searches less
//!   too. Unaided proofs issue identical query sequences in both modes,
//!   so verdicts (including depths and cycles) must match exactly.
//!
//! Results go to stdout and to `BENCH_unroll.json` (working directory,
//! or `$GENFV_BENCH_JSON`): per-cell medians over `--samples` runs
//! (default 5, `--quick` = 2 with a smaller encode batch), per-section
//! and overall speedups.
//!
//! Run with `cargo run --release -p genfv-bench --bin e10_template_unroll`.

use genfv_bench::ms;
use genfv_core::{run_flow2, FlowConfig, FlowReport, Table, TargetOutcome};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{CheckConfig, ProofSession, Property, ProveResult, UnrollMode, Unroller};
use std::time::{Duration, Instant};

/// Flow-workload designs: the lemma-hungry family (same as e8/e9).
const FLOW_DESIGNS: &[&str] =
    &["sync_counters_16", "parity_pipe", "hamming74", "ecc_counter", "fifo_counters"];

const MODELS: &[ModelProfile] = &[ModelProfile::GptFourTurbo, ModelProfile::LlamaThree];

/// Deep-induction designs: the arithmetic checkers (divider, multiplier
/// identities) whose frames are encoding-bound, the wide lockstep
/// counters, the parity/ECC family — and `ecc_counter` as a
/// solver-bound control whose step tail is conflict-dominated, so frame
/// encoding buys little there (the cell keeps the aggregate honest).
/// `fifo_counters` is deliberately absent: its unaided step obligations
/// blow up exponentially past k≈20 in *both* encodings (that tail is
/// e9's portfolio territory, not an encoding problem).
const DEEP_DESIGNS: &[&str] = &[
    "div_checker",
    "mul_incr",
    "mul_distrib",
    "sync_counters_16",
    "hamming74",
    "secded84",
    "offset_counters",
    "gray_counter",
    "ecc_counter",
];

/// 2× the e9 deep-induction depth: frame encoding scales linearly with
/// depth, so doubling the unroll doubles the template's advantage.
const DEEP_MAX_K: usize = 32;

/// Unroll depth of the encode section (2× the deep induction's window).
const ENCODE_FRAMES: usize = 64;

/// Sessions warmed per encode cell — roughly one validation gauntlet's
/// worth of session churn.
const ENCODE_SESSIONS: usize = 25;
const ENCODE_SESSIONS_QUICK: usize = 8;

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

fn prove_verdict(res: &ProveResult) -> String {
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

struct Cell {
    section: &'static str,
    model: String,
    design: String,
    dagwalk: Duration,
    template: Duration,
    max_frame: usize,
    agree: bool,
}

/// One encode run: warm `sessions` guarded step unrollers to
/// [`ENCODE_FRAMES`], each finished with a window-guarded solve (no
/// property asserted) so the stamped clauses must actually propagate.
/// Returns the wall time and the solve verdict (compared *between* the
/// encodings — the differential observable of this section).
fn encode_run(
    design: &genfv_core::PreparedDesign,
    mode: UnrollMode,
    sessions: usize,
) -> (Duration, bool) {
    let t0 = Instant::now();
    let mut all_sat = true;
    for _ in 0..sessions {
        let mut u = Unroller::with_mode(&design.ctx, &design.ts, false, true, mode);
        u.ensure_frame(ENCODE_FRAMES);
        let guards: Vec<_> =
            (0..=ENCODE_FRAMES).map(|k| u.frame_guard(k).expect("guarded")).collect();
        all_sat &= u.blaster_mut().solve_with_assumptions(&guards).is_sat();
    }
    (t0.elapsed(), all_sat)
}

fn run_encode_cell(name: &str, samples: usize, sessions: usize) -> Cell {
    let bundle = genfv_designs::by_name(name).expect("benchmark design exists");
    let design = bundle.prepare().expect("prepare");
    let mut dag_times = Vec::new();
    let mut tpl_times = Vec::new();
    let mut agree = true;
    for _ in 0..samples {
        let (t, dag_sat) = encode_run(&design, UnrollMode::DagWalk, sessions);
        dag_times.push(t);
        let (t, tpl_sat) = encode_run(&design, UnrollMode::Template, sessions);
        tpl_times.push(t);
        agree &= dag_sat == tpl_sat;
    }
    Cell {
        section: "encode",
        model: "-".to_string(),
        design: name.to_string(),
        dagwalk: median(&mut dag_times),
        template: median(&mut tpl_times),
        max_frame: ENCODE_FRAMES,
        agree,
    }
}

fn run_flow_cell(name: &str, model: ModelProfile, samples: usize) -> Cell {
    let bundle = genfv_designs::by_name(name).expect("benchmark design exists");
    let base = FlowConfig {
        check: CheckConfig { max_k: 6, ..Default::default() },
        max_iterations: 4,
        ..Default::default()
    };
    let mut dag_times = Vec::new();
    let mut tpl_times = Vec::new();
    let mut dag_verdicts = Vec::new();
    let mut tpl_verdicts = Vec::new();
    let mut max_frame = 0;
    for _ in 0..samples {
        let config = base.clone().with_unroll_mode(UnrollMode::DagWalk);
        let mut llm = SyntheticLlm::new(model, 42);
        let t0 = Instant::now();
        let report = run_flow2(bundle.prepare().expect("prepare"), &mut llm, &config);
        dag_times.push(t0.elapsed());
        dag_verdicts = flow_verdicts(&report);

        let config = base.clone().with_unroll_mode(UnrollMode::Template);
        let mut llm = SyntheticLlm::new(model, 42);
        let t0 = Instant::now();
        let report = run_flow2(bundle.prepare().expect("prepare"), &mut llm, &config);
        tpl_times.push(t0.elapsed());
        tpl_verdicts = flow_verdicts(&report);
        max_frame = report.metrics.solver.max_frame;
    }
    Cell {
        section: "flow",
        model: model.name().to_string(),
        design: name.to_string(),
        dagwalk: median(&mut dag_times),
        template: median(&mut tpl_times),
        max_frame,
        agree: dag_verdicts == tpl_verdicts,
    }
}

fn run_deep_cell(name: &str, samples: usize, max_k: usize) -> Cell {
    let bundle = genfv_designs::by_name(name).expect("benchmark design exists");
    let design = bundle.prepare().expect("prepare");
    let props: Vec<Property> =
        design.targets.iter().map(|t| Property::new(t.name.clone(), t.prop.ok)).collect();
    let dag_cfg = CheckConfig { max_k, unroll_mode: UnrollMode::DagWalk, ..Default::default() };
    let tpl_cfg = CheckConfig { max_k, unroll_mode: UnrollMode::Template, ..Default::default() };

    let mut dag_times = Vec::new();
    let mut tpl_times = Vec::new();
    let mut dag_verdicts = Vec::new();
    let mut tpl_verdicts = Vec::new();
    let mut max_frame = 0;
    for _ in 0..samples {
        let t0 = Instant::now();
        let mut s = ProofSession::new(&design.ctx, &design.ts, dag_cfg.clone());
        dag_verdicts = props.iter().map(|p| prove_verdict(&s.prove(p))).collect::<Vec<_>>();
        dag_times.push(t0.elapsed());

        let t0 = Instant::now();
        let mut s = ProofSession::new(&design.ctx, &design.ts, tpl_cfg.clone());
        tpl_verdicts = props.iter().map(|p| prove_verdict(&s.prove(p))).collect::<Vec<_>>();
        tpl_times.push(t0.elapsed());
        max_frame = s.stats().max_frame;
    }
    Cell {
        section: "deep",
        model: "-".to_string(),
        design: name.to_string(),
        dagwalk: median(&mut dag_times),
        template: median(&mut tpl_times),
        max_frame,
        agree: dag_verdicts == tpl_verdicts,
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
    let deep_k = args
        .iter()
        .position(|a| a == "--deep-k")
        .and_then(|p| args.get(p + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEEP_MAX_K)
        .max(1);
    let sessions = if quick { ENCODE_SESSIONS_QUICK } else { ENCODE_SESSIONS };
    let only: Option<&String> =
        args.iter().position(|a| a == "--only").and_then(|p| args.get(p + 1));
    let keep = |name: &str| only.is_none_or(|o| o == name);

    let mut cells: Vec<Cell> = Vec::new();
    for bundle in genfv_designs::all_designs().into_iter().chain(genfv_designs::datapath_designs())
    {
        if keep(bundle.name) {
            cells.push(run_encode_cell(bundle.name, samples, sessions));
        }
    }
    for &model in MODELS {
        for name in FLOW_DESIGNS {
            if keep(name) {
                cells.push(run_flow_cell(name, model, samples));
            }
        }
    }
    for name in DEEP_DESIGNS {
        if keep(name) {
            cells.push(run_deep_cell(name, samples, deep_k));
        }
    }

    let mut table = Table::new([
        "section",
        "model",
        "design",
        "dagwalk (median)",
        "template (median)",
        "speedup",
        "frames",
        "verdicts",
    ]);
    let mut json_rows = Vec::new();
    let mut totals: std::collections::BTreeMap<&'static str, (Duration, Duration)> =
        std::collections::BTreeMap::new();
    let mut divergent = false;
    for c in &cells {
        let entry = totals.entry(c.section).or_insert((Duration::ZERO, Duration::ZERO));
        entry.0 += c.dagwalk;
        entry.1 += c.template;
        let speedup = c.dagwalk.as_secs_f64() / c.template.as_secs_f64().max(1e-9);
        divergent |= !c.agree;
        table.row([
            c.section.to_string(),
            c.model.clone(),
            c.design.clone(),
            ms(c.dagwalk),
            ms(c.template),
            format!("{speedup:.2}x"),
            c.max_frame.to_string(),
            if c.agree { "identical".to_string() } else { "DIVERGED".to_string() },
        ]);
        json_rows.push(format!(
            "    {{\"section\": \"{}\", \"model\": \"{}\", \"design\": \"{}\", \
             \"dagwalk_ms\": {:.3}, \"template_ms\": {:.3}, \"speedup\": {speedup:.3}, \
             \"max_frame\": {}, \"verdicts_identical\": {}}}",
            c.section,
            c.model,
            c.design,
            c.dagwalk.as_secs_f64() * 1e3,
            c.template.as_secs_f64() * 1e3,
            c.max_frame,
            c.agree,
        ));
    }

    let total_dag: Duration = totals.values().map(|&(d, _)| d).sum();
    let total_tpl: Duration = totals.values().map(|&(_, t)| t).sum();
    let overall = total_dag.as_secs_f64() / total_tpl.as_secs_f64().max(1e-9);
    println!("E10: frame encoding — per-frame DAG walk vs template stamping\n");
    println!("{}", table.render());
    let mut section_json = Vec::new();
    println!();
    for (section, (d, t)) in &totals {
        let s = d.as_secs_f64() / t.as_secs_f64().max(1e-9);
        println!("{section}: dagwalk {} vs template {} → {s:.2}x", ms(*d), ms(*t));
        section_json.push(format!("    \"{section}\": {s:.3}"));
    }
    println!(
        "overall: dagwalk {} vs template {} → {overall:.2}x \
         ({samples} samples/cell, {sessions} sessions/encode cell, deep max_k {deep_k})",
        ms(total_dag),
        ms(total_tpl)
    );

    let json = format!(
        "{{\n  \"experiment\": \"e10_template_unroll\",\n  \"samples\": {samples},\n  \
         \"encode_sessions\": {sessions},\n  \"encode_frames\": {ENCODE_FRAMES},\n  \
         \"deep_max_k\": {deep_k},\n  \"overall_speedup\": {overall:.3},\n  \
         \"section_speedups\": {{\n{}\n  }},\n  \"cells\": [\n{}\n  ]\n}}\n",
        section_json.join(",\n"),
        json_rows.join(",\n")
    );
    let path =
        std::env::var("GENFV_BENCH_JSON").unwrap_or_else(|_| "BENCH_unroll.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");

    if divergent {
        eprintln!("FAIL: verdicts diverged between DAG-walk and template encodings");
        std::process::exit(1);
    }
}
