//! # genfv-bench — the experiment harness
//!
//! One binary per experiment (run with
//! `cargo run --release -p genfv-bench --bin <name>`). E1–E7 reproduce
//! the paper's tables and figures with the synthetic LLM of
//! `genfv-genai` (its crate docs give the substitution argument); E14
//! gates tracing overhead:
//!
//! | binary | experiment | paper artefact |
//! |---|---|---|
//! | `e1_paper_example` | E1 | Listings 1-3 + Fig. 3 |
//! | `e2_flow1_lemmas` | E2 | Fig. 1 flow |
//! | `e3_flow2_repair` | E3 | Fig. 2 flow |
//! | `e4_throughput_table` | E4 | Section V: "faster proof for complex properties" |
//! | `e5_model_comparison` | E5 | Section V: GPT-4-class > Llama/Gemini |
//! | `e6_ablations` | E6 | validation-layer ablations |
//! | `e7_k_sweep` | E7 | Section II-A: lemmas lower the induction depth |
//! | `e14_obs` | E14 | observability overhead gate (Off vs Full tracing) |
//!
//! E1–E7 prepare every design through [`plain_prepare`], at
//! `OptLevel::None`: the paper's baseline is plain k-induction, and the
//! default prepare's register correspondence would already close the
//! lockstep designs the paper repairs with the LLM. E4 prints the default
//! pipeline's verdict in a column of its own.
//!
//! The `trace` binary is not an experiment: it runs one design/flow with
//! full tracing and writes a Perfetto-loadable `trace.json` plus a
//! human-readable span tree (see `scripts/trace.sh`).
//!
//! Throughput is measured in one place, the `e0_ledger` benchmark at the
//! repository root, over service traffic with a per-layer self-time
//! ledger; `e0_ledger --ablate <mechanism>` prices one mechanism at a
//! time. The verdict gates of the retired A-vs-B harnesses (E8–E12, E15)
//! live on in the differential suites under `crates/designs/tests` and
//! `crates/service/tests`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use genfv_core::{FlowConfig, FlowReport, OptConfig, OptLevel, PreparedDesign, TargetOutcome};
use genfv_designs::DesignBundle;
use genfv_mc::CheckConfig;
use std::time::Duration;

/// Prepares `bundle` for the paper's plain k-induction: the system
/// exactly as elaborated (`OptLevel::None`).
pub fn plain_prepare(bundle: &DesignBundle) -> PreparedDesign {
    bundle.prepare_with(&OptConfig::default().with_level(OptLevel::None)).expect("prepare")
}

/// The flow configuration shared by all experiments: small max-k so that
/// "needs lemmas" designs genuinely fail unaided, matching how a formal
/// engineer caps proof depth in practice.
pub fn experiment_config() -> FlowConfig {
    FlowConfig {
        check: CheckConfig { max_k: 3, ..Default::default() },
        max_iterations: 4,
        ..Default::default()
    }
}

/// Formats a [`TargetOutcome`] for table cells.
pub fn outcome_cell(outcome: &TargetOutcome) -> String {
    match outcome {
        TargetOutcome::Proven { k, lemmas_used } => {
            if *lemmas_used > 0 {
                format!("proven k={k} ({lemmas_used} lemmas)")
            } else {
                format!("proven k={k}")
            }
        }
        TargetOutcome::Falsified { at } => format!("BUG at cycle {at}"),
        TargetOutcome::StillUnproven { k, .. } => format!("step fails @k={k}"),
        TargetOutcome::Unknown { .. } => "unknown".to_string(),
    }
}

/// Whether `augmented` improves on `plain` for one target: it goes from
/// unproven to proven, or proves at a strictly lower `k`. Verdicts and
/// depths decide alone, so a pair with the same verdict and depth is never
/// an improvement, whatever its proof times (E4 prints those beside the
/// count).
pub fn improved(plain: &TargetOutcome, augmented: &TargetOutcome) -> bool {
    match (plain, augmented) {
        (TargetOutcome::Proven { k: plain_k, .. }, TargetOutcome::Proven { k, .. }) => k < plain_k,
        (
            TargetOutcome::StillUnproven { .. } | TargetOutcome::Unknown { .. },
            TargetOutcome::Proven { .. },
        ) => true,
        _ => false,
    }
}

/// Formats a duration compactly for table cells.
pub fn ms(d: Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1e3)
}

/// Sums rejected-candidate counts from a report.
pub fn total_rejected(report: &FlowReport) -> usize {
    report.metrics.rejected_compile
        + report.metrics.rejected_false
        + report.metrics.rejected_not_inductive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_cells_render() {
        assert_eq!(
            outcome_cell(&TargetOutcome::Proven { k: 1, lemmas_used: 2 }),
            "proven k=1 (2 lemmas)"
        );
        assert_eq!(outcome_cell(&TargetOutcome::Proven { k: 3, lemmas_used: 0 }), "proven k=3");
        assert_eq!(outcome_cell(&TargetOutcome::Falsified { at: 4 }), "BUG at cycle 4");
    }

    #[test]
    fn improvement_follows_verdicts_and_depths() {
        let proven = |k, lemmas_used| TargetOutcome::Proven { k, lemmas_used };
        let unproven = TargetOutcome::StillUnproven {
            k: 3,
            trace: Box::new(genfv_mc::Trace {
                property: "t".to_string(),
                kind: genfv_mc::TraceKind::InductionStep,
                steps: Vec::new(),
            }),
        };
        // Same verdict and depth: never improved. Timings are not an input.
        assert!(!improved(&proven(2, 0), &proven(2, 3)));
        assert!(!improved(&unproven, &unproven));
        assert!(!improved(
            &TargetOutcome::Falsified { at: 4 },
            &TargetOutcome::Falsified { at: 4 }
        ));
        // Unproven → proven, or a strictly lower depth.
        assert!(improved(&unproven, &proven(1, 2)));
        assert!(improved(&proven(2, 0), &proven(1, 1)));
        // A deeper proof or a lost one is no improvement.
        assert!(!improved(&proven(1, 0), &proven(2, 1)));
        assert!(!improved(&proven(1, 0), &unproven));
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.0ms");
    }
}
