//! Shared pieces of the flow-level differential suites
//! (`session_differential`, `portfolio_differential`,
//! `template_differential`).

use genfv_core::TargetOutcome;
use genfv_designs::DesignBundle;

/// The designs the flow-level differential tests run end to end: the
/// lemma-hungry family (many candidates per completion, many closely
/// related solver queries per design) plus two cheap unaided designs as a
/// floor.
pub fn flow_designs() -> Vec<DesignBundle> {
    let mut designs = genfv_designs::lemma_hungry_designs();
    for name in ["parity_pipe", "hamming74"] {
        designs.push(genfv_designs::by_name(name).expect("corpus design exists"));
    }
    designs
}

/// The observable a flow's *verdict* rests on. Induction-step
/// counterexample values are solver-chosen and feed the repair prompt, so
/// lemma texts and proof depths may legitimately differ between two
/// configurations that decide the same formulas; verdict classes — and the
/// deterministic cycle of a real falsification — may not.
pub fn outcome_class(outcome: &TargetOutcome) -> String {
    match outcome {
        TargetOutcome::Proven { .. } => "proven".to_string(),
        TargetOutcome::Falsified { at } => format!("falsified@{at}"),
        TargetOutcome::StillUnproven { .. } => "still_unproven".to_string(),
        TargetOutcome::Unknown { .. } => "unknown".to_string(),
    }
}
