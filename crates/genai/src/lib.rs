//! # genfv-genai — synthetic generative-AI stack
//!
//! The paper sends (1) specification + RTL, or (2) RTL + induction-step
//! counterexample, to a hosted LLM and parses helper assertions out of the
//! reply. This crate reproduces that pipeline without a network:
//!
//! * [`Prompt`] renders the exact artefacts the paper's Figs. 1 and 2 send
//!   (spec, fenced RTL, failing property, CEX waveform + final values);
//! * [`LanguageModel`] is the provider interface (prompt in, text out);
//! * [`SyntheticLlm`] implements it deterministically: the prompt text is
//!   **re-parsed** ([`PromptSections`]), an invariant [`miner`] analyzes
//!   the recovered design (seeded random simulation + RTL structure +
//!   CEX-guided filtering), and a [`ModelProfile`] shapes the output —
//!   pattern-family coverage, ranking noise, hallucination and
//!   syntax-error injection ([`hallucinate`]), candidate budget,
//!   verbosity;
//! * completions are ordinary prose-with-code text; downstream flows
//!   extract assertions with `genfv_sva::parse_assertions`, exactly as
//!   they would from GPT-4 output.
//!
//! The four profiles (GPT-4-Turbo, GPT-4o, Llama-3, Gemini) are calibrated
//! so the paper's Section-V quality ordering is reproduced *end to end* —
//! including the overhead of rejecting junk — rather than asserted.
//!
//! ## Why the substitution preserves the measurable claims
//!
//! * **Same interface, same artefacts.** The flows see the model only
//!   through [`LanguageModel`]: prompt text in, completion text out. The
//!   synthetic model gets no side channel to the design; it recovers the
//!   spec, RTL and counterexample from the rendered prompt, so prompt
//!   construction is exercised exactly as with a hosted model.
//! * **The verdicts do not trust the model.** Every completion goes
//!   through the same assertion parser and the same validation (compile,
//!   BMC sanity check, induction or Houdini) that GPT-4 output would
//!   face, and only proven lemmas are ever assumed. Hallucinated
//!   signals, syntax slips and false invariants therefore cost
//!   validation work but can never change a verdict.
//! * **What is measured is the verification side.** The paper's claims
//!   are that helper assertions let k-induction close (proven targets,
//!   induction depth), and what the extra proof and validation work
//!   costs. Both depend only on *which* candidates a completion
//!   contains, and the miner proposes the families the paper shows the
//!   LLM producing (e.g. the lockstep-counter equality of Listing 1).
//! * **What it does not preserve.** The profiles' relative quality is a
//!   calibrated input, not a finding: nothing here says which hosted
//!   model is better. LLM latency is simulated
//!   ([`Completion::latency`]) and reported apart from host time, and
//!   the miner is deterministic per seed, so run-to-run model variance
//!   is not measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hallucinate;
pub mod miner;
pub mod model;
pub mod prompt;

pub use miner::{mine, CandidateInvariant, Family, MineError, MinerConfig};
pub use model::{Completion, LanguageModel, ModelProfile, SyntheticLlm};
pub use prompt::{FlowKind, Prompt, PromptSections};
