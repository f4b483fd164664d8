//! # genfv — Generative-AI-augmented induction-based formal verification
//!
//! A from-scratch Rust reproduction of *"Generative AI Augmented
//! Induction-based Formal Verification"* (Kumar & Gadde, IEEE SOCC 2024,
//! arXiv:2407.18965): k-induction hardware model checking in which an LLM
//! proposes helper assertions (lemmas) — upfront from the specification
//! and RTL (paper Fig. 1), and reactively from induction-step
//! counterexamples (paper Fig. 2).
//!
//! This facade crate re-exports the whole stack:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sat`] | `genfv-sat` | CDCL SAT solver (watched literals, VSIDS, 1UIP, Luby, LBD, assumptions) |
//! | [`ir`] | `genfv-ir` | bitvector values, hash-consed word-level IR, transition systems, simulator, bit-blaster |
//! | [`hdl`] | `genfv-hdl` | Verilog-subset frontend (lexer → parser → elaborator) |
//! | [`sva`] | `genfv-sva` | SVA-subset assertions: parser, monitor compiler, renderer |
//! | [`mc`] | `genfv-mc` | BMC + k-induction with lemma support, CEX traces, waveforms, VCD |
//! | [`genai`] | `genfv-genai` | prompts, `LanguageModel` trait, synthetic model profiles, invariant miner |
//! | [`core`] | `genfv-core` | the paper's flows: validation gauntlet, Houdini, Flow 1/Flow 2 |
//! | [`designs`] | `genfv-designs` | the evaluation corpus (counters + ECC + FIFO designs) |
//! | [`service`] | `genfv-service` | verification as a service: typed requests, streaming results, warm-session cache |
//! | [`obs`] | `genfv-obs` | tracing spans, metrics, Chrome-trace export, Prometheus exposition |
//!
//! ## The paper in five lines
//!
//! ```
//! use genfv::prelude::*;
//!
//! let design = genfv::designs::by_name("sync_counters_16").unwrap().prepare()?;
//! let mut llm = SyntheticLlm::new(ModelProfile::GptFourTurbo, 42);
//! let report = run_flow2(design, &mut llm, &FlowConfig::default());
//! assert!(report.all_proven());
//! # Ok::<(), genfv::prelude::Error>(())
//! ```
//!
//! ## As a service
//!
//! ```
//! use genfv::prelude::*;
//!
//! let service = VerificationService::new(ServiceConfig::default().with_workers(1));
//! let bundle = genfv::designs::by_name("ring_counter").unwrap();
//! let handle = service.submit(
//!     JobRequest::new(DesignInput::Prepared(Box::new(bundle.prepare()?)))
//!         .with_mode(CorpusMode::Baseline),
//! )?;
//! let report = handle.wait()?;
//! assert!(report.flow.all_proven());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use genfv_core as core;
pub use genfv_designs as designs;
pub use genfv_genai as genai;
pub use genfv_hdl as hdl;
pub use genfv_ir as ir;
pub use genfv_mc as mc;
pub use genfv_obs as obs;
pub use genfv_sat as sat;
pub use genfv_service as service;
pub use genfv_sva as sva;

/// The items most applications need.
///
/// The quickstart in the repository README compiles against this module
/// alone — the `prelude_is_sufficient` doc-test below pins that, so any
/// new public type an example leans on must be added here.
///
/// ```
/// // prelude_is_sufficient: the full quickstart, prelude-only imports.
/// use genfv::prelude::*;
///
/// let design = PreparedDesign::new(
///     "toggle",
///     "module toggle (input clk, rst, output logic q);\n  always_ff @(posedge clk) begin\n    if (rst) q <= 1'b0;\n    else q <= ~q;\n  end\nendmodule\n",
///     "a toggle flip-flop",
///     &[("tauto".into(), "q == q".into())],
/// )?;
///
/// // Direct flow call...
/// let report = run_baseline(&design, &FlowConfig::default().with_unroll_mode(UnrollMode::Template));
/// assert!(report.all_proven());
///
/// // ...the corpus runner...
/// let config = ServiceConfig::default().with_workers(1).with_mode(CorpusMode::Baseline);
/// let reports = run_corpus(
///     &[design.clone()],
///     |i| SyntheticLlm::new(ModelProfile::GptFourTurbo, i as u64),
///     &config,
/// );
/// assert!(reports[0].all_proven());
///
/// // ...and the service front end, with typed errors throughout.
/// let service = VerificationService::new(ServiceConfig::default().with_workers(1));
/// let handle = service
///     .submit(JobRequest::new(DesignInput::Prepared(Box::new(design))).with_mode(CorpusMode::Baseline))
///     .map_err(|r| r.error)?;
/// let report: JobReport = handle.wait()?;
/// assert!(report.flow.all_proven());
/// let stats: ServiceStats = service.stats();
/// assert_eq!(stats.completed, 1);
/// # Ok::<(), Error>(())
/// ```
pub mod prelude {
    pub use genfv_core::{
        run_baseline, run_flow1, run_flow2, CorpusMode, Error, FlowConfig, FlowReport, OptConfig,
        OptLevel, PreparedDesign, ServiceError, TargetOutcome,
    };
    pub use genfv_genai::{LanguageModel, ModelProfile, Prompt, SyntheticLlm};
    pub use genfv_ir::{BitVecValue, Context, Simulator, TransitionSystem};
    pub use genfv_mc::{
        bmc, render_final_bits, render_waveform, CheckConfig, EngineMode, KInduction, Property,
        ProveResult, Trace, UnrollMode,
    };
    pub use genfv_obs::{Obs, ObsConfig, ObsReport};
    pub use genfv_service::{
        run_corpus, DesignInput, JobEvent, JobHandle, JobId, JobReport, JobRequest, ServiceConfig,
        ServiceStats, SubmitRejected, VerificationService,
    };
    pub use genfv_sva::{parse_assertion, parse_assertions, PropertyCompiler};
}
