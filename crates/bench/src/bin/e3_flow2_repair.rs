//! **E3 — Flow 2** (paper Fig. 2): CEX-driven induction repair.
//!
//! For every design whose targets fail their induction step, the table
//! reports how many LLM repair iterations the flow needed, the prompt and
//! completion token volumes, and the final outcome — including the buggy
//! design, which must short-circuit to a real counterexample without ever
//! consulting the model.

use genfv_bench::{experiment_config, ms, outcome_cell, plain_prepare, total_rejected};
use genfv_core::{run_flow2, Table};
use genfv_genai::{ModelProfile, SyntheticLlm};

fn main() {
    let config = experiment_config();
    let mut table = Table::new([
        "design",
        "target",
        "outcome",
        "iterations",
        "llm calls",
        "lemmas",
        "rejected",
        "prompt tok",
        "completion tok",
        "total time",
    ]);

    for bundle in genfv_designs::all_designs() {
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 2002);
        let report = run_flow2(plain_prepare(&bundle), &mut llm, &config);
        for t in &report.targets {
            table.row([
                bundle.name.to_string(),
                t.name.clone(),
                outcome_cell(&t.outcome),
                report.metrics.iterations.to_string(),
                report.metrics.llm_calls.to_string(),
                report.metrics.lemmas_accepted.to_string(),
                total_rejected(&report).to_string(),
                report.metrics.prompt_tokens.to_string(),
                report.metrics.completion_tokens.to_string(),
                ms(report.metrics.total_time),
            ]);
        }
    }

    println!("E3: Flow 2 — CEX-driven induction repair (paper Fig. 2)\n");
    println!("{}", table.render());
    println!(
        "Expected shape: lemma-hungry designs close after 1-2 repair iterations;\n\
         unaided-provable designs close with zero LLM calls; the seeded bug\n\
         (desync_counters) is reported as a reachable counterexample without any\n\
         LLM involvement — real bugs must never be 'repaired'."
    );
}
