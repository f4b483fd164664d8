//! **E6 — ablations** on the flow's design choices:
//!
//! (a) Houdini joint filtering on/off — how many lemmas are lost when
//!     individually-non-inductive candidates cannot team up;
//! (b) CEX in the prompt (Flow 2) vs spec-only (Flow 1) — what the
//!     counterexample buys;
//! (c) hallucination-rate sweep — how much junk the validation layer
//!     absorbs before throughput degrades (soundness never does).

use genfv_bench::{experiment_config, plain_prepare, total_rejected};
use genfv_core::{run_flow1, run_flow2, FlowConfig, Table};
use genfv_genai::{ModelProfile, SyntheticLlm};

fn main() {
    ablation_houdini();
    ablation_cex_in_prompt();
    ablation_hallucination_sweep();
}

fn ablation_houdini() {
    println!("E6a: Houdini joint induction on/off\n");
    let mut table = Table::new(["design", "houdini", "lemmas accepted", "targets closed"]);
    for bundle in genfv_designs::lemma_hungry_designs() {
        for use_houdini in [true, false] {
            let config = FlowConfig { use_houdini, ..experiment_config() };
            let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 6006);
            let report = run_flow2(plain_prepare(&bundle), &mut llm, &config);
            table.row([
                bundle.name.to_string(),
                if use_houdini { "on" } else { "off" }.to_string(),
                report.metrics.lemmas_accepted.to_string(),
                format!(
                    "{}/{}",
                    report.targets.iter().filter(|t| t.outcome.is_proven()).count(),
                    report.targets.len()
                ),
            ]);
        }
    }
    println!("{}", table.render());
}

fn ablation_cex_in_prompt() {
    println!("\nE6b: CEX-guided (Flow 2) vs spec-only (Flow 1) lemma generation\n");
    let mut table = Table::new(["design", "flow", "llm calls", "lemmas", "targets closed"]);
    for bundle in genfv_designs::lemma_hungry_designs() {
        let config = experiment_config();
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 7007);
        let f1 = run_flow1(plain_prepare(&bundle), &mut llm, &config);
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 7007);
        let f2 = run_flow2(plain_prepare(&bundle), &mut llm, &config);
        for (label, r) in [("flow1 (spec+RTL)", &f1), ("flow2 (RTL+CEX)", &f2)] {
            table.row([
                bundle.name.to_string(),
                label.to_string(),
                r.metrics.llm_calls.to_string(),
                r.metrics.lemmas_accepted.to_string(),
                format!(
                    "{}/{}",
                    r.targets.iter().filter(|t| t.outcome.is_proven()).count(),
                    r.targets.len()
                ),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Expected shape: both flows usually close the corpus, but Flow 2 needs the\n\
         LLM only on actual failures, while Flow 1 pays one prompt per design up front."
    );
}

fn ablation_hallucination_sweep() {
    println!("\nE6c: hallucination-rate sweep (gpt-4-turbo base profile)\n");
    let mut table = Table::new([
        "hallucination rate",
        "targets closed",
        "lemmas",
        "rejected candidates",
        "repair iterations",
    ]);
    let corpus = genfv_designs::lemma_hungry_designs();
    for rate in [0.0, 0.1, 0.25, 0.5, 0.75] {
        let mut closed = 0usize;
        let mut total = 0usize;
        let mut lemmas = 0usize;
        let mut rejected = 0usize;
        let mut iterations = 0usize;
        for bundle in &corpus {
            let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 8008)
                .with_error_rates(rate, rate / 4.0);
            let report = run_flow2(plain_prepare(bundle), &mut llm, &experiment_config());
            total += report.targets.len();
            closed += report.targets.iter().filter(|t| t.outcome.is_proven()).count();
            lemmas += report.metrics.lemmas_accepted;
            rejected += total_rejected(&report) + report.metrics.candidates_unparseable;
            iterations += report.metrics.iterations;
        }
        table.row([
            format!("{:.0}%", rate * 100.0),
            format!("{closed}/{total}"),
            lemmas.to_string(),
            rejected.to_string(),
            iterations.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Expected shape: rising junk costs retries and rejections first and closures\n\
         last; no configuration can make a false lemma land (soundness is structural)."
    );
}
