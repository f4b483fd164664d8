//! **E5 — model-quality comparison** (paper Section V): "the quality of
//! generated assertions was much better in the case of LLMs from OpenAI
//! such as GPT-4-Turbo and GPT-4o compared to Llama or Gemini".
//!
//! Runs Flow 2 with each emulated profile over the lemma-hungry corpus,
//! across several seeds, and reports per-model aggregates: targets closed,
//! parse-level validity of emitted assertions, lemma acceptance rate, and
//! hallucination (disproven/phantom) rate.

use genfv_bench::{experiment_config, plain_prepare};
use genfv_core::{run_flow2, Table};
use genfv_genai::{ModelProfile, SyntheticLlm};

const SEEDS: [u64; 3] = [11, 22, 33];

fn main() {
    let corpus = genfv_designs::lemma_hungry_designs();
    let config = experiment_config();

    let mut table = Table::new([
        "model",
        "targets closed",
        "valid assertion rate",
        "lemma acceptance",
        "hallucination rate",
        "llm calls",
        "mean proof time",
    ]);

    println!(
        "E5: model comparison over {} designs × {} seeds (paper Section V)\n",
        corpus.len(),
        SEEDS.len()
    );

    let mut closed_by_model: Vec<(ModelProfile, usize, usize)> = Vec::new();
    for profile in ModelProfile::ALL {
        let mut targets_total = 0usize;
        let mut targets_closed = 0usize;
        let mut parsed = 0usize;
        let mut unparseable = 0usize;
        let mut accepted = 0usize;
        let mut hallucinated = 0usize; // phantom signals + false invariants
        let mut calls = 0usize;
        let mut proof_time = std::time::Duration::ZERO;
        let mut runs = 0u32;

        for bundle in &corpus {
            for seed in SEEDS {
                let mut llm = SyntheticLlm::new(profile, seed);
                let report = run_flow2(plain_prepare(bundle), &mut llm, &config);
                targets_total += report.targets.len();
                targets_closed += report.targets.iter().filter(|t| t.outcome.is_proven()).count();
                parsed += report.metrics.candidates_parsed;
                unparseable += report.metrics.candidates_unparseable;
                accepted += report.metrics.lemmas_accepted;
                hallucinated += report.metrics.rejected_compile + report.metrics.rejected_false;
                calls += report.metrics.llm_calls;
                proof_time += report.metrics.proof_time;
                runs += 1;
            }
        }

        let emitted = parsed + unparseable;
        let valid_rate = if emitted > 0 { parsed as f64 / emitted as f64 } else { 1.0 };
        let accept_rate = if parsed > 0 { accepted as f64 / parsed as f64 } else { 0.0 };
        let halluc_rate = if emitted > 0 { hallucinated as f64 / emitted as f64 } else { 0.0 };
        closed_by_model.push((profile, targets_closed, targets_total));
        table.row([
            profile.name().to_string(),
            format!("{targets_closed}/{targets_total}"),
            format!("{:.0}%", valid_rate * 100.0),
            format!("{:.0}%", accept_rate * 100.0),
            format!("{:.0}%", halluc_rate * 100.0),
            calls.to_string(),
            format!("{:.1}ms", proof_time.as_secs_f64() * 1e3 / runs as f64),
        ]);
    }

    println!("{}", table.render());

    // Check the paper's qualitative ordering mechanically.
    let closed = |p: ModelProfile| {
        closed_by_model.iter().find(|(q, _, _)| *q == p).map(|(_, c, _)| *c).unwrap_or(0)
    };
    let gpt_best = closed(ModelProfile::GptFourTurbo).min(closed(ModelProfile::GptFourO));
    let weak_best = closed(ModelProfile::LlamaThree).max(closed(ModelProfile::GeminiPro));
    println!(
        "ordering check: min(GPT profiles) = {gpt_best} targets vs max(Llama/Gemini) = {weak_best} \
         — paper expects GPT ≥ weak: {}",
        if gpt_best >= weak_best { "HOLDS" } else { "VIOLATED" }
    );
}
