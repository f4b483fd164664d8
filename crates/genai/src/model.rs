//! Language-model abstraction and the synthetic model implementations.
//!
//! [`LanguageModel`] is the only interface the verification flows see: a
//! prompt goes in, a text [`Completion`] comes out. [`SyntheticLlm`]
//! implements it offline: the prompt text is re-parsed, the invariant miner
//! proposes candidates, and a [`ModelProfile`] shapes what actually gets
//! emitted — coverage (which pattern families the "model" knows), ranking
//! noise, hallucination and syntax-error rates, candidate budget, and
//! verbosity. The four shipped profiles are calibrated so the quality
//! ordering reported in the paper's Section V (GPT-4-Turbo ≈ GPT-4o >
//! Llama ≈ Gemini) emerges from the same end-to-end pipeline a real
//! integration would run.

use crate::hallucinate::{corrupt, pick_corruption};
use crate::miner::{mine, CandidateInvariant, Family, MinerConfig};
use crate::prompt::{Prompt, PromptSections};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A model completion.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The raw text returned by the model.
    pub text: String,
    /// Prompt size in (estimated) tokens.
    pub prompt_tokens: usize,
    /// Completion size in (estimated) tokens.
    pub completion_tokens: usize,
    /// Simulated latency, derived from token counts and the profile's
    /// tokens-per-second figure (no real sleeping happens).
    pub latency: Duration,
}

/// Anything that can complete a prompt.
///
/// The flows in `genfv-core` are generic over this trait, so a network
/// client for a real provider could be dropped in without touching them.
pub trait LanguageModel {
    /// Stable model identifier (used in reports).
    fn name(&self) -> &str;

    /// Completes a prompt.
    fn complete(&mut self, prompt: &Prompt) -> Completion;
}

/// Emulated provider model profiles.
///
/// Parameters are calibrated to reproduce the *relative ordering* observed
/// in the paper's results (OpenAI models produced notably better helper
/// assertions than Llama or Gemini) — see the crate docs for the
/// substitution argument.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ModelProfile {
    /// Emulates GPT-4-Turbo: full pattern coverage, rare hallucinations.
    GptFourTurbo,
    /// Emulates GPT-4o: full coverage, slightly chattier, rare errors.
    GptFourO,
    /// Emulates a Llama-3-class open model: narrower pattern knowledge,
    /// frequent hallucinations and syntax slips.
    LlamaThree,
    /// Emulates a Gemini-class model: middling coverage and noise.
    GeminiPro,
}

impl ModelProfile {
    /// All profiles, in the order used by the comparison experiment (E5).
    pub const ALL: [ModelProfile; 4] = [
        ModelProfile::GptFourTurbo,
        ModelProfile::GptFourO,
        ModelProfile::LlamaThree,
        ModelProfile::GeminiPro,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelProfile::GptFourTurbo => "gpt-4-turbo",
            ModelProfile::GptFourO => "gpt-4o",
            ModelProfile::LlamaThree => "llama-3-70b",
            ModelProfile::GeminiPro => "gemini-pro",
        }
    }

    fn params(self) -> ProfileParams {
        match self {
            ModelProfile::GptFourTurbo => ProfileParams {
                families: &Family::ALL,
                hallucination_rate: 0.05,
                syntax_error_rate: 0.02,
                ranking_noise: 0.15,
                max_candidates: 8,
                tokens_per_second: 35.0,
                chatty: false,
            },
            ModelProfile::GptFourO => ProfileParams {
                families: &Family::ALL,
                hallucination_rate: 0.07,
                syntax_error_rate: 0.02,
                ranking_noise: 0.2,
                max_candidates: 8,
                tokens_per_second: 70.0,
                chatty: false,
            },
            ModelProfile::LlamaThree => ProfileParams {
                // Narrow pattern knowledge: misses offsets, one-hot,
                // parity, and the hard Functional (pipeline) family.
                families: &[Family::Equality, Family::Bound, Family::Constant],
                hallucination_rate: 0.28,
                syntax_error_rate: 0.12,
                ranking_noise: 0.9,
                max_candidates: 5,
                tokens_per_second: 45.0,
                chatty: true,
            },
            ModelProfile::GeminiPro => ProfileParams {
                families: &[Family::Equality, Family::Offset, Family::Bound],
                hallucination_rate: 0.22,
                syntax_error_rate: 0.08,
                ranking_noise: 0.7,
                max_candidates: 6,
                tokens_per_second: 55.0,
                chatty: true,
            },
        }
    }
}

struct ProfileParams {
    families: &'static [Family],
    hallucination_rate: f64,
    syntax_error_rate: f64,
    ranking_noise: f64,
    max_candidates: usize,
    tokens_per_second: f64,
    chatty: bool,
}

/// The deterministic offline LLM.
///
/// ```
/// use genfv_genai::{SyntheticLlm, ModelProfile, Prompt, LanguageModel};
///
/// let rtl = "module m (input clk, rst, output logic [3:0] a, b);\n\
///            always_ff @(posedge clk) begin\n\
///            if (rst) begin a <= '0; b <= '0; end\n\
///            else begin a <= a + 4'd1; b <= b + 4'd1; end end endmodule";
/// let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
/// let completion = llm.complete(&Prompt::flow1("lockstep counters", rtl, &[]));
/// assert!(completion.text.contains("property"));
/// ```
#[derive(Debug)]
pub struct SyntheticLlm {
    profile: ModelProfile,
    rng: SmallRng,
    miner_config: MinerConfig,
    display_name: String,
    /// Ablation overrides (experiment E6): replace the profile's
    /// hallucination / syntax-error rates.
    rate_override: Option<(f64, f64)>,
}

impl SyntheticLlm {
    /// Creates a model with the given profile and seed.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        SyntheticLlm {
            profile,
            rng: SmallRng::seed_from_u64(seed ^ 0x5EED_11AA),
            miner_config: MinerConfig { seed, ..Default::default() },
            display_name: profile.name().to_string(),
            rate_override: None,
        }
    }

    /// The profile backing this instance.
    pub fn profile(&self) -> ModelProfile {
        self.profile
    }

    /// Overrides the miner configuration (sampling effort).
    pub fn with_miner_config(mut self, config: MinerConfig) -> Self {
        self.miner_config = config;
        self
    }

    /// Overrides the hallucination and syntax-error rates (used by the
    /// E6 hallucination-sweep ablation); the display name records it.
    pub fn with_error_rates(mut self, hallucination: f64, syntax_error: f64) -> Self {
        self.rate_override = Some((hallucination, syntax_error));
        self.display_name =
            format!("{}+h{:.2}s{:.2}", self.profile.name(), hallucination, syntax_error);
        self
    }

    fn params(&self) -> ProfileParams {
        let mut p = self.profile.params();
        if let Some((h, s)) = self.rate_override {
            p.hallucination_rate = h;
            p.syntax_error_rate = s;
        }
        p
    }

    fn select_candidates(&mut self, mut cands: Vec<CandidateInvariant>) -> Vec<CandidateInvariant> {
        let params = self.params();
        // Coverage: drop families the model "does not know".
        cands.retain(|c| params.families.contains(&c.family));
        // Ranking noise.
        for c in &mut cands {
            c.score += self.rng.gen_range(-params.ranking_noise..=params.ranking_noise);
        }
        cands.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        cands.truncate(params.max_candidates);
        cands
    }

    fn render_completion(&mut self, prompt: &Prompt, cands: &[CandidateInvariant]) -> String {
        let params = self.params();
        let mut text = String::new();
        if params.chatty {
            text.push_str(
                "Sure! I analyzed the RTL you provided. Here are some helper assertions that \
                 should assist the formal proof. Let me know if you need more!\n\n",
            );
        } else {
            text.push_str("Helper assertions derived from the design:\n\n");
        }
        if cands.is_empty() {
            text.push_str(
                "I could not identify reliable invariants for this design. Consider providing \
                 more context about the intended behaviour.\n",
            );
            return text;
        }
        for (i, c) in cands.iter().enumerate() {
            let mut body = c.text.clone();
            if let Some(kind) =
                pick_corruption(&mut self.rng, params.hallucination_rate, params.syntax_error_rate)
            {
                body = corrupt(&body, kind, &mut self.rng);
            }
            let reason = match prompt.kind {
                crate::prompt::FlowKind::SpecAndRtl => {
                    "// Invariant suggested by the specification and RTL structure."
                }
                crate::prompt::FlowKind::InductionFailure => {
                    "// Rules out the unreachable start state seen in the CEX."
                }
            };
            text.push_str(&format!(
                "{reason}\nproperty genai_{}_{};\n  {};\nendproperty\n\n",
                c.family.label(),
                i,
                body
            ));
            if params.chatty && i == 0 {
                text.push_str("This first one is the most important invariant I found.\n\n");
            }
        }
        text
    }
}

impl LanguageModel for SyntheticLlm {
    fn name(&self) -> &str {
        &self.display_name
    }

    fn complete(&mut self, prompt: &Prompt) -> Completion {
        let sections = PromptSections::parse(&prompt.user);
        let cands = match mine(&sections, &self.miner_config) {
            Ok(c) => self.select_candidates(c),
            Err(_) => Vec::new(), // mimic a model confronted with garbage
        };
        let text = self.render_completion(prompt, &cands);
        let prompt_tokens = prompt.token_estimate();
        let completion_tokens = text.len().div_ceil(4);
        let params = self.params();
        let latency = Duration::from_secs_f64(completion_tokens as f64 / params.tokens_per_second);
        Completion { text, prompt_tokens, completion_tokens, latency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genfv_sva::parse_assertions;

    const SYNC: &str = r#"
module sync_counters (input clk, rst, output logic [7:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 8'b0;
      count2 <= 8'b0;
    end else begin
      count1++;
      count2++;
    end
  end
endmodule
"#;

    #[test]
    fn gpt_profile_emits_parseable_lockstep_helper() {
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 1);
        let completion = llm.complete(&Prompt::flow1("lockstep counters, always equal", SYNC, &[]));
        let assertions = parse_assertions(&completion.text);
        assert!(!assertions.is_empty());
        // The paper's helper must be among them for the strong profile.
        let texts: Vec<String> = assertions.iter().filter_map(|a| a.name.clone()).collect();
        assert!(texts.iter().any(|t| t.starts_with("genai_")), "{texts:?}");
        assert!(completion.completion_tokens > 10);
        assert!(completion.prompt_tokens > 50);
    }

    #[test]
    fn completion_is_deterministic_per_seed() {
        let p = Prompt::flow1("spec", SYNC, &[]);
        let a = SyntheticLlm::new(ModelProfile::LlamaThree, 9).complete(&p);
        let b = SyntheticLlm::new(ModelProfile::LlamaThree, 9).complete(&p);
        assert_eq!(a.text, b.text);
        let c = SyntheticLlm::new(ModelProfile::LlamaThree, 10).complete(&p);
        assert_ne!(a.text, c.text, "different seed, different sampling");
    }

    #[test]
    fn weak_profiles_emit_more_junk_on_average() {
        // Across several seeds, the Llama profile must produce strictly
        // more unparseable-or-phantom assertions than GPT-4-Turbo.
        let p = Prompt::flow1("two equal counters", SYNC, &[]);
        let count_valid = |profile: ModelProfile| -> usize {
            let mut valid = 0;
            for seed in 0..12u64 {
                let completion = SyntheticLlm::new(profile, seed).complete(&p);
                valid += parse_assertions(&completion.text).len();
            }
            valid
        };
        let gpt = count_valid(ModelProfile::GptFourTurbo);
        let llama = count_valid(ModelProfile::LlamaThree);
        assert!(gpt > llama, "gpt parseable assertions ({gpt}) must exceed llama ({llama})");
    }

    #[test]
    fn garbage_rtl_yields_apologetic_completion() {
        let mut llm = SyntheticLlm::new(ModelProfile::GptFourO, 3);
        let completion = llm.complete(&Prompt::flow1("spec", "not verilog at all (", &[]));
        assert!(completion.text.contains("could not identify"));
        assert!(parse_assertions(&completion.text).is_empty());
    }

    #[test]
    fn latency_scales_with_tokens() {
        let p = Prompt::flow1("spec", SYNC, &[]);
        let c = SyntheticLlm::new(ModelProfile::GptFourTurbo, 5).complete(&p);
        assert!(c.latency.as_secs_f64() > 0.0);
    }
}
