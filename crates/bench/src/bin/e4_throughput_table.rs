//! **E4 — verification throughput** (paper Section V, main claim):
//! "the flow was able to figure out necessary helper assertions that
//! helped in faster proof for complex properties" on counters and ECC.
//!
//! Per design × target: plain k-induction vs the GenAI-augmented flow —
//! outcome, induction depth, SAT conflicts, and wall-clock proof time.
//! The "default pipeline" column is the same baseline after the default
//! prepare, whose register correspondence merges lockstep registers: a
//! target it leaves unproven and Flow 2 closes is what the LLM adds
//! beyond that cheap structural invariant.
//!
//! A target counts as improved only by its verdict and depth
//! ([`genfv_bench::improved`]): unproven → proven, or proven at a lower
//! `k`. The speedup column times targets proven either way and counts
//! toward nothing, so the summary repeats exactly on identical answers.

use genfv_bench::{experiment_config, improved, ms, outcome_cell, plain_prepare};
use genfv_core::{run_baseline, run_flow2, Table, TargetOutcome, TargetReport};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{CheckConfig, KInduction, Property};
use std::time::Instant;

fn main() {
    let config = experiment_config();
    let mut table = Table::new([
        "design",
        "target",
        "plain induction",
        "plain time",
        "default pipeline",
        "genai-augmented",
        "aug time (proof only)",
        "speedup",
    ]);

    let mut improvements = 0usize;
    let mut comparable = 0usize;
    let mut beyond_default = 0usize;
    let mut beyond_default_calls = 0usize;
    for bundle in genfv_designs::all_designs() {
        if bundle.name == "desync_counters" {
            continue;
        }
        let baseline = run_baseline(&plain_prepare(&bundle), &config);
        let default = run_baseline(&bundle.prepare().expect("prepare"), &config);
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 4004);
        let flow2 = run_flow2(plain_prepare(&bundle), &mut llm, &config);

        // For the augmented side, measure the *final* proof time with the
        // accepted lemmas installed (the recurring cost in a proof
        // regression run, where lemma generation is a one-time expense).
        let mut design = plain_prepare(&bundle);
        let lemma_exprs: Vec<_> = flow2
            .lemmas
            .iter()
            .map(|l| {
                let cand = genfv_sva::parse_assertion(&l.text).expect("lemma text parses");
                let compiled = genfv_sva::PropertyCompiler::new(&mut design.ctx, &mut design.ts)
                    .compile(&cand)
                    .expect("lemma text compiles");
                compiled.ok
            })
            .collect();

        let proven = |t: &TargetReport| matches!(t.outcome, TargetOutcome::Proven { .. });
        let only_genai = default
            .targets
            .iter()
            .zip(&flow2.targets)
            .filter(|(d, f)| !proven(d) && proven(f))
            .count();
        if only_genai > 0 {
            beyond_default += only_genai;
            beyond_default_calls += flow2.metrics.llm_calls;
        }
        let rows = baseline.targets.iter().zip(&default.targets).zip(&flow2.targets);
        for (i, ((b, d), f)) in rows.enumerate() {
            let target = &design.targets[i];
            let t0 = Instant::now();
            let prover = KInduction::new(
                &design.ctx,
                &design.ts,
                CheckConfig { max_k: 3, ..Default::default() },
            );
            let _ = prover.prove(&Property::new(target.name.clone(), target.prop.ok), &lemma_exprs);
            let aug_time = t0.elapsed();

            let plain_time = baseline.metrics.proof_time / baseline.targets.len() as u32;
            improvements += usize::from(improved(&b.outcome, &f.outcome));
            let speedup = match (&b.outcome, &f.outcome) {
                (TargetOutcome::StillUnproven { .. }, TargetOutcome::Proven { .. }) => {
                    "∞ (unproven → proven)".to_string()
                }
                (TargetOutcome::Proven { .. }, TargetOutcome::Proven { .. }) => {
                    comparable += 1;
                    let s = plain_time.as_secs_f64() / aug_time.as_secs_f64().max(1e-9);
                    format!("{s:.2}x")
                }
                _ => "-".to_string(),
            };
            table.row([
                bundle.name.to_string(),
                b.name.clone(),
                outcome_cell(&b.outcome),
                ms(plain_time),
                outcome_cell(&d.outcome),
                outcome_cell(&f.outcome),
                ms(aug_time),
                speedup,
            ]);
        }
    }

    println!("E4: verification throughput with vs without GenAI lemmas (paper Section V)\n");
    println!("{}", table.render());
    println!(
        "{improvements} target(s) improved: unproven → proven, or proven at a lower k.\n\
         {comparable} were provable either way; the speedup column times those (plain\n\
         proof time over proof time with the lemmas) and does not enter the count.\n\
         Expected shape per the paper: helpers enable otherwise-unprovable targets and\n\
         speed up the rest; absolute times differ from the paper's JasperGold testbed."
    );
    println!(
        "{beyond_default} target(s) stay unproven under the default pipeline (register\n\
         correspondence) and close only with GenAI lemmas, at {beyond_default_calls} LLM call(s)."
    );
}
