//! Bringing your own model: the flows are generic over the one-method
//! [`LanguageModel`] trait, so a production deployment would implement it
//! with an HTTP client for a hosted LLM. This example implements two
//! custom models — a minimal rule-based one and a wrapper that filters
//! another model's output — and runs the paper's Flow 2 with them.
//!
//! Run with: `cargo run --example custom_model`

use genfv::genai::{Completion, LanguageModel, Prompt, PromptSections};
use genfv::prelude::*;
use std::time::Duration;

/// A tiny rule-based "model": it greps the prompt's RTL for register
/// declarations of equal width and proposes pairwise equality — roughly
/// the first thing a human formal engineer tries on lockstep designs.
struct RuleBasedModel;

impl LanguageModel for RuleBasedModel {
    fn name(&self) -> &str {
        "rule-based"
    }

    fn complete(&mut self, prompt: &Prompt) -> Completion {
        let sections = PromptSections::parse(&prompt.user);
        let mut text = String::from("Heuristic suggestions:\n\n");
        if let Some(rtl) = &sections.rtl {
            // Extremely naive register-name scraping: `output logic [..] a, b`.
            let mut groups: Vec<Vec<String>> = Vec::new();
            for line in rtl.lines() {
                if let Some(idx) = line.find(']') {
                    let rest = &line[idx + 1..];
                    let names: Vec<String> = rest
                        .trim_end_matches(");")
                        .split(',')
                        .map(|t| t.trim().trim_end_matches(';').to_string())
                        .filter(|t| {
                            !t.is_empty()
                                && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                        })
                        .collect();
                    if names.len() >= 2 {
                        groups.push(names);
                    }
                }
            }
            let mut i = 0;
            for group in groups {
                for pair in group.windows(2) {
                    text.push_str(&format!(
                        "property rule_{i};\n  {} == {};\nendproperty\n\n",
                        pair[0], pair[1]
                    ));
                    i += 1;
                }
            }
        }
        Completion {
            text,
            prompt_tokens: prompt.token_estimate(),
            completion_tokens: 40,
            latency: Duration::from_millis(1),
        }
    }
}

/// A wrapper model: delegates to an inner model and censors any completion
/// line mentioning a blocklisted signal (e.g. company-confidential names
/// must never round-trip through an external API — a realistic deployment
/// concern the trait boundary makes trivial).
struct FilteredModel<M> {
    inner: M,
    blocklist: Vec<&'static str>,
    name: String,
}

impl<M: LanguageModel> LanguageModel for FilteredModel<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn complete(&mut self, prompt: &Prompt) -> Completion {
        let mut completion = self.inner.complete(prompt);
        completion.text = completion
            .text
            .lines()
            .filter(|l| !self.blocklist.iter().any(|b| l.contains(b)))
            .collect::<Vec<_>>()
            .join("\n");
        completion
    }
}

fn main() -> Result<(), Error> {
    let bundle = genfv::designs::by_name("sync_counters_16").expect("corpus");
    // Plain k-induction (`OptLevel::None`), so the models have something
    // to repair: the default prepare merges the lockstep counters and
    // proves the target before any model is asked.
    let plain = OptConfig::default().with_level(OptLevel::None);

    println!("=== Flow 2 with a hand-rolled rule-based model ===");
    let mut model = RuleBasedModel;
    let report = run_flow2(bundle.prepare_with(&plain)?, &mut model, &FlowConfig::default());
    println!("{}", genfv::core::render_report(&report));
    assert!(report.all_proven(), "equality heuristic suffices for lockstep counters");

    println!("=== Same flow through a filtering wrapper ===");
    let mut filtered = FilteredModel {
        inner: SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
        blocklist: vec!["[31]"], // censor bit-31 relations, keep the rest
        name: "gpt-4-turbo+filter".to_string(),
    };
    let report = run_flow2(bundle.prepare_with(&plain)?, &mut filtered, &FlowConfig::default());
    println!("{}", genfv::core::render_report(&report));
    assert!(report.all_proven());
    Ok(())
}
