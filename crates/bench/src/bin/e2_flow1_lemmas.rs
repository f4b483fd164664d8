//! **E2 — Flow 1** (paper Fig. 1): upfront helper-assertion generation
//! from specification + RTL, across the full corpus.
//!
//! For every design the table shows the target outcomes without any help
//! and with Flow-1 lemmas, how many LLM calls Flow 1 made, and what the
//! LLM emitted and how much of it survived validation.

use genfv_bench::{experiment_config, ms, outcome_cell, plain_prepare, total_rejected};
use genfv_core::{run_baseline, run_flow1, Table};
use genfv_genai::{ModelProfile, SyntheticLlm};

fn main() {
    let config = experiment_config();
    let mut table = Table::new([
        "design",
        "target",
        "baseline",
        "flow1 (gpt-4-turbo)",
        "llm calls",
        "lemmas",
        "rejected",
        "proof time",
    ]);

    for bundle in genfv_designs::all_designs() {
        if bundle.name == "desync_counters" {
            continue; // the bug design is covered by E3/E4
        }
        let baseline = run_baseline(&plain_prepare(&bundle), &config);
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 1001);
        let flow1 = run_flow1(plain_prepare(&bundle), &mut llm, &config);
        for (b, f) in baseline.targets.iter().zip(&flow1.targets) {
            table.row([
                bundle.name.to_string(),
                b.name.clone(),
                outcome_cell(&b.outcome),
                outcome_cell(&f.outcome),
                flow1.metrics.llm_calls.to_string(),
                flow1.metrics.lemmas_accepted.to_string(),
                total_rejected(&flow1).to_string(),
                ms(flow1.metrics.proof_time),
            ]);
        }
    }

    println!("E2: Flow 1 — spec+RTL lemma generation (paper Fig. 1)\n");
    println!("{}", table.render());
    println!(
        "Expected shape: every `step fails` baseline becomes `proven k=1` once the\n\
         Flow-1 lemmas are assumed. Designs that prove unaided make no LLM call and\n\
         keep the baseline's verdict and depth: Flow 1 consults the model only where\n\
         the proof needs it. The LLM emits junk too — the `rejected` column is the\n\
         validation layer earning its keep."
    );
}
