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

use genfv_core::{FlowConfig, FlowReport, TargetOutcome};
use genfv_mc::CheckConfig;
use std::time::Duration;

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
    fn ms_formats() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.0ms");
    }
}
