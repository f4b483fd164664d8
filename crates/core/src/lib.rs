//! # genfv-core — GenAI-augmented induction-based formal verification
//!
//! The primary contribution of the reproduced paper, as a library:
//!
//! * [`run_flow1`] — paper Fig. 1: an LLM reads the specification and the
//!   RTL and proposes helper assertions; proven ones become assumptions
//!   that accelerate/enable the target-property proofs.
//! * [`run_flow2`] — paper Fig. 2: when a k-induction step fails, the CEX
//!   waveform plus the RTL are rendered into a prompt; the LLM's candidate
//!   invariants are validated and the proof retried, in a bounded repair
//!   loop.
//! * [`run_combined`] — both, the way the paper uses them: Flow 1's
//!   upfront lemmas, then Flow 2's repair loop for what still fails.
//! * [`run_baseline`] — k-induction with no LLM, for with/without
//!   comparisons. On a design prepared at [`OptLevel::None`] it is the
//!   paper's plain k-induction. The default prepare ([`OptLevel::Full`])
//!   first merges lockstep registers by register correspondence, which
//!   already proves the paper's Listing-1 counters at k=1.
//!
//! Every GenAI flow asks the LLM only where the proof needs it. Flow 2
//! prompts on an induction-step failure. Flow 1 and Combined first prove
//! every target unaided, as [`run_baseline`] does; when each target is
//! proven or falsified they report exactly those outcomes with no LLM
//! call, and otherwise run Fig. 1 over all targets. At the default prepare
//! 16 of the 21 corpus designs settle unaided, so only the other five
//! consult the model.
//!
//! Each flow is a short composition of private stages on one run state
//! (see the [`flows`] module docs for which flow calls which stage).
//!
//! **Soundness boundary.** Model output is untrusted text. Candidates are
//! parsed ([`genfv_sva::parse_assertions`]), compiled (phantom signals
//! rejected), BMC-sanity-checked (false invariants rejected with a
//! counterexample), and finally proven by induction — individually or
//! jointly via [`houdini()`] — before they may strengthen any proof. A
//! hallucinated assertion can waste time but can never taint a result,
//! mechanising the paper's "analyze the output from the LLM before using
//! it productively" guidance.
//!
//! **Incremental proof sessions.** Every stage of the gauntlet runs on
//! persistent [`genfv_mc::ProofSession`]s rather than engines rebuilt per
//! query: [`validate_batch`] compiles a whole candidate batch onto one
//! design clone and answers every candidate's checks on one session, on
//! the caller's thread, then runs the Houdini fixpoint — hypothesis
//! activation, batched obligations, retraction of falsified candidates,
//! deferred base cases (cache hits by then) — on that same session.
//! Standalone [`houdini()`] reports the hypotheses in the final proof's
//! assumption core ([`HoudiniResult::carried`]), and the flows prove
//! targets on shared sessions wherever the design is stable. The
//! pre-session architecture survives behind
//! [`genfv_mc::EngineMode::RebuildPerQuery`]
//! (selectable through [`ValidateConfig::engine`] or
//! [`FlowConfig::with_engine`]) as the reference for the corpus
//! differential suite (`session_differential.rs` in `genfv-designs`); both
//! modes produce identical verdicts, the incremental one just gets there
//! without re-bit-blasting (`e0_ledger --ablate rebuild` prices the
//! difference on service traffic). Solver-reuse counters surface in
//! [`FlowMetrics::solver`].
//!
//! **Portfolio solving and corpus scheduling.** Any session query can be
//! answered by racing jittered solver configurations on clones of the
//! loaded clause database ([`FlowConfig::with_portfolio`], implemented in
//! `genfv-portfolio`, checked against single-solver sessions by
//! `portfolio_differential.rs` in `genfv-designs`), and whole design
//! corpora distribute over the persistent worker pool of the
//! `genfv-service` crate's `VerificationService` (each job runs the flow
//! its [`CorpusMode`] names; `genfv_service::run_corpus` is the
//! synchronous wrapper, configured by a `genfv_service::ServiceConfig`) —
//! each job keeping the long-lived sessions the flows already use, with
//! reports stitched back in submission order independent of scheduling.
//!
//! **Builder convention.** Configuration structs ([`FlowConfig`],
//! [`OptConfig`], `genfv_service::ServiceConfig`, …) start from
//! [`Default::default`] and are refined with chainable consuming `with_*`
//! methods —
//! `ServiceConfig::default().with_workers(4).with_mode(CorpusMode::Baseline)`.
//! Fields stay `pub`: plain-data configs without builders
//! ([`ValidateConfig`], `genfv_mc::CheckConfig`) take struct-literal
//! updates.
//!
//! **Typed errors.** Every fallible entry point returns
//! [`enum@Error`] — parse / design / compile / service variants carrying
//! the design and target names — instead of `Box<dyn std::error::Error>`.
//!
//! ```no_run
//! use genfv_core::{PreparedDesign, run_flow2, FlowConfig};
//! use genfv_genai::{SyntheticLlm, ModelProfile};
//!
//! let design = PreparedDesign::new(
//!     "sync_counters",
//!     RTL,
//!     "Two counters incremented in lockstep; they always hold equal values.",
//!     &[("equal_count".into(), "&count1 |-> &count2".into())],
//! )?;
//! let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
//! let report = run_flow2(design, &mut llm, &FlowConfig::default());
//! assert!(report.all_proven());
//! # const RTL: &str = "";
//! # Ok::<(), genfv_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod error;
pub mod flows;
pub mod houdini;
pub mod report;
pub mod validate;

pub use design::{PreparedDesign, Target};
// Re-exported so downstream crates (service, bench) can configure and
// report the prepare-time optimization pipeline without depending on
// `genfv-ir` directly.
pub use error::{Error, ServiceError};
pub use flows::{
    run_baseline, run_combined, run_flow1, run_flow2, CorpusMode, FlowConfig, FlowMetrics,
    FlowReport, TargetOutcome, TargetReport,
};
pub use genfv_ir::{OptConfig, OptLevel, OptStats};
pub use genfv_obs::{Accumulate, Obs, ObsConfig, ObsReport};
pub use houdini::{houdini, validate_batch, HoudiniResult};
pub use report::{render_events, render_report, summarize_targets, Table};
pub use validate::{
    install_lemma, validate_candidate, Candidate, Lemma, ValidateConfig, ValidationOutcome,
};
