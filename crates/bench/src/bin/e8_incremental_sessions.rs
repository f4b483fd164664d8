//! **E8 — incremental proof sessions**: the Flow-2 repair loop with
//! rebuild-per-query engines versus persistent [`ProofSession`]s.
//!
//! Both contestants run the complete Flow 2 (validation gauntlet, Houdini
//! on the batch's session, target proofs, CEX-driven LLM repair) on
//! the same designs across all four synthetic model profiles — the
//! chattier and noisier the model, the more candidates per completion and
//! the more closely-related solver queries per design, which is exactly
//! the workload the sessions amortise. The only knob that differs between
//! the contestants is `FlowConfig::with_engine`: `RebuildPerQuery`
//! rebuilds the unrolling and a fresh solver for every logical check (the
//! pre-session architecture), `Incremental` answers everything with
//! assumptions on persistent solvers. The corpus differential suite pins
//! the two modes to identical verdicts, so the timing gap is pure
//! solver-reuse win.
//!
//! Results go to stdout as a table and to `BENCH_incremental.json`
//! (working directory, or `$GENFV_BENCH_JSON`) for the CI trajectory:
//! per-(model, design) medians over `--samples` runs (default 5,
//! `--quick` = 2) plus the aggregate speedup. The run **fails** (exit 1)
//! if any cell's verdicts diverge between the modes — the bench doubles
//! as an end-to-end differential check in CI.
//!
//! Run with `cargo run --release -p genfv-bench --bin e8_incremental_sessions`.

use genfv_bench::{experiment_config, ms};
use genfv_core::{run_flow2, FlowReport, Table, TargetOutcome};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::EngineMode;
use std::time::{Duration, Instant};

/// The benchmark family: the paper's lemma-hungry designs (many
/// candidates per completion — the chatty-model workload the sessions
/// target) plus cheap unaided designs as a floor.
const DESIGNS: &[&str] = &[
    "sync_counters_16",
    "modn_counter",
    "parity_pipe",
    "hamming74",
    "ecc_counter",
    "fifo_counters",
];

/// Every synthetic model profile, chatty and terse alike.
const MODELS: &[ModelProfile] = &[
    ModelProfile::GptFourTurbo,
    ModelProfile::GptFourO,
    ModelProfile::LlamaThree,
    ModelProfile::GeminiPro,
];

fn verdict_class(outcome: &TargetOutcome) -> &'static str {
    match outcome {
        TargetOutcome::Proven { .. } => "proven",
        TargetOutcome::Falsified { .. } => "falsified",
        TargetOutcome::StillUnproven { .. } => "still_unproven",
        TargetOutcome::Unknown { .. } => "unknown",
    }
}

fn verdicts(report: &FlowReport) -> Vec<(String, &'static str)> {
    report.targets.iter().map(|t| (t.name.clone(), verdict_class(&t.outcome))).collect()
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn run_mode(
    design: &genfv_designs::DesignBundle,
    model: ModelProfile,
    engine: EngineMode,
) -> (Duration, FlowReport) {
    let config = experiment_config().with_engine(engine);
    let mut llm = SyntheticLlm::new(model, 42);
    let t0 = Instant::now();
    let report = run_flow2(design.prepare().expect("prepare"), &mut llm, &config);
    (t0.elapsed(), report)
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

    let mut table = Table::new([
        "model",
        "design",
        "rebuild (median)",
        "incremental (median)",
        "speedup",
        "verdicts",
    ]);
    let mut json_rows = Vec::new();
    let mut total_rebuild = Duration::ZERO;
    let mut total_incremental = Duration::ZERO;
    let mut divergent = false;

    for &model in MODELS {
        let llm_name = model.name().to_string();
        for name in DESIGNS {
            let bundle = genfv_designs::by_name(name).expect("benchmark design exists");
            let mut rebuild_times = Vec::with_capacity(samples);
            let mut incremental_times = Vec::with_capacity(samples);
            let mut rebuild_verdicts = Vec::new();
            let mut incremental_verdicts = Vec::new();
            for _ in 0..samples {
                let (t, report) = run_mode(&bundle, model, EngineMode::RebuildPerQuery);
                rebuild_times.push(t);
                rebuild_verdicts = verdicts(&report);
                let (t, report) = run_mode(&bundle, model, EngineMode::Incremental);
                incremental_times.push(t);
                incremental_verdicts = verdicts(&report);
            }
            let rebuild = median(&mut rebuild_times);
            let incremental = median(&mut incremental_times);
            total_rebuild += rebuild;
            total_incremental += incremental;
            let speedup = rebuild.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
            let agree = rebuild_verdicts == incremental_verdicts;
            divergent |= !agree;
            table.row([
                llm_name.clone(),
                name.to_string(),
                ms(rebuild),
                ms(incremental),
                format!("{speedup:.2}x"),
                if agree { "identical".to_string() } else { "DIVERGED".to_string() },
            ]);
            json_rows.push(format!(
                "    {{\"model\": \"{llm_name}\", \"design\": \"{name}\", \
                 \"rebuild_ms\": {:.3}, \"incremental_ms\": {:.3}, \"speedup\": {speedup:.3}, \
                 \"verdicts_identical\": {agree}}}",
                rebuild.as_secs_f64() * 1e3,
                incremental.as_secs_f64() * 1e3,
            ));
        }
    }

    let overall = total_rebuild.as_secs_f64() / total_incremental.as_secs_f64().max(1e-9);
    println!("E8: Flow-2 repair loop — rebuild-per-query vs incremental sessions\n");
    println!("{}", table.render());
    println!(
        "\noverall: rebuild {} vs incremental {} → {overall:.2}x ({samples} samples/cell)",
        ms(total_rebuild),
        ms(total_incremental)
    );

    let json = format!(
        "{{\n  \"experiment\": \"e8_incremental_sessions\",\n  \"samples\": {samples},\n  \
         \"overall_speedup\": {overall:.3},\n  \"cells\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path =
        std::env::var("GENFV_BENCH_JSON").unwrap_or_else(|_| "BENCH_incremental.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");

    if divergent {
        eprintln!("FAIL: verdicts diverged between engine modes");
        std::process::exit(1);
    }
}
