//! Differential suite: a [`SessionSeed`] must never change a verdict.
//!
//! A seed carries the shared step-direction template and the clean depths
//! earlier sessions proved from reset; no learnt clause crosses a session
//! boundary. A warm seeded session therefore differs from a cold one only
//! by the base cases it skips and by stamping from the seed's template,
//! so the observable contract is: a seeded run answers every query the
//! same as an unseeded one. Base-direction SAT models are not unique — a
//! warm base solver that skipped queries may find a different (equally
//! valid) counterexample — so the verdict checks pin everything the flows
//! branch on (verdict class, proof depth `k`, violation cycle, trace
//! length) and leave per-signal values free, mirroring
//! `session_differential.rs`. Step-direction models are pinned exactly.
//!
//! Each design runs three ways: a cold seeded session (publishes clean
//! depths into the shared seed), a warm seeded session over the same
//! seed (skips the published base cases — the interesting run), and an
//! unseeded control. All three must agree on every target.

use genfv_mc::{BmcResult, CheckConfig, ProofSession, ProveResult, SessionSeed};

fn assert_prove_eq(warm: &ProveResult, control: &ProveResult, what: &str) {
    match (warm, control) {
        (ProveResult::Proven { k: a, .. }, ProveResult::Proven { k: b, .. }) => {
            assert_eq!(a, b, "proof depth diverged on {what}");
        }
        (
            ProveResult::Falsified { at: a, trace: ta, .. },
            ProveResult::Falsified { at: b, trace: tb, .. },
        ) => {
            assert_eq!(a, b, "violation cycle diverged on {what}");
            assert_eq!(ta.steps.len(), tb.steps.len(), "trace length diverged on {what}");
        }
        (
            ProveResult::StepFailure { k: a, trace: ta, .. },
            ProveResult::StepFailure { k: b, trace: tb, .. },
        ) => {
            assert_eq!(a, b, "step-failure depth diverged on {what}");
            assert_eq!(ta.steps.len(), tb.steps.len(), "step CEX length diverged on {what}");
        }
        (ProveResult::Unknown { reason: a, .. }, ProveResult::Unknown { reason: b, .. }) => {
            assert_eq!(a, b, "unknown reason diverged on {what}");
        }
        (a, b) => panic!("prove verdict diverged on {what}: seeded {a:?} vs unseeded {b:?}"),
    }
}

fn assert_bmc_eq(warm: &BmcResult, control: &BmcResult, what: &str) {
    match (warm, control) {
        (BmcResult::Clean { depth: a, .. }, BmcResult::Clean { depth: b, .. }) => {
            assert_eq!(a, b, "clean depth diverged on {what}");
        }
        (
            BmcResult::Falsified { at: a, trace: ta, .. },
            BmcResult::Falsified { at: b, trace: tb, .. },
        ) => {
            assert_eq!(a, b, "violation cycle diverged on {what}");
            assert_eq!(ta.steps.len(), tb.steps.len(), "trace length diverged on {what}");
        }
        (a, b) => panic!("BMC verdict diverged on {what}: seeded {a:?} vs unseeded {b:?}"),
    }
}

fn check_config() -> CheckConfig {
    CheckConfig { max_k: 4, ..Default::default() }
}

/// K-induction over the whole corpus: cold seeded, warm seeded, unseeded
/// control — identical verdicts.
#[test]
fn seeded_prove_matches_unseeded_on_corpus() {
    let mut seed_hits = 0u64;
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let seed = SessionSeed::for_design(&design.ctx, &design.ts);
        let control = check_config();
        let seeded = CheckConfig { seed: Some(seed), ..control.clone() };

        // Cold seeded run: publishes its clean depths when it drops.
        let cold_res: Vec<_> = {
            let mut cold = ProofSession::new(&design.ctx, &design.ts, seeded.clone());
            design.targets.iter().map(|t| cold.prove(&t.prop)).collect()
        };
        let mut warm = ProofSession::new(&design.ctx, &design.ts, seeded);
        let mut ctrl = ProofSession::new(&design.ctx, &design.ts, control);
        for (target, cold_r) in design.targets.iter().zip(&cold_res) {
            let what = format!("{}::{}", bundle.name, target.name);
            let warm_r = warm.prove(&target.prop);
            let ctrl_r = ctrl.prove(&target.prop);
            assert_prove_eq(cold_r, &ctrl_r, &what);
            assert_prove_eq(&warm_r, &ctrl_r, &what);
        }
        seed_hits += warm.stats().clean_seed_hits;
        assert_eq!(ctrl.stats().clean_seed_hits, 0, "{}: control was seeded", bundle.name);
    }
    assert!(seed_hits > 0, "warm sessions must actually skip seeded base cases");
}

/// BMC over the same three-way split: the warm run's base cases are
/// skipped from the seed's clean depths.
#[test]
fn seeded_bmc_matches_unseeded_on_corpus() {
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let seed = SessionSeed::for_design(&design.ctx, &design.ts);
        let control = check_config();
        let seeded = CheckConfig { seed: Some(seed), ..control.clone() };

        let cold_res: Vec<_> = {
            let mut cold = ProofSession::new(&design.ctx, &design.ts, seeded.clone());
            design.targets.iter().map(|t| cold.bmc_check(&t.prop, 8)).collect()
        };
        let mut warm = ProofSession::new(&design.ctx, &design.ts, seeded);
        let mut ctrl = ProofSession::new(&design.ctx, &design.ts, control);
        for (target, cold_r) in design.targets.iter().zip(&cold_res) {
            let what = format!("{}::{}", bundle.name, target.name);
            let warm_r = warm.bmc_check(&target.prop, 8);
            let ctrl_r = ctrl.bmc_check(&target.prop, 8);
            assert_bmc_eq(cold_r, &ctrl_r, &what);
            assert_bmc_eq(&warm_r, &ctrl_r, &what);
        }
    }
}

/// A warm seeded session's step solver sees exactly what a cold one
/// sees, so its step-failure traces are *bit-identical* to an unseeded
/// run's, not just class-equal — the property the LLM flows rely on for
/// reproducible prompts, Houdini witnesses and lemma texts.
#[test]
fn seeded_step_models_match_cold_exactly() {
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let seed = SessionSeed::for_design(&design.ctx, &design.ts);
        let control = check_config();
        let seeded = CheckConfig { seed: Some(seed), ..control.clone() };

        // Populate the seed's template and clean depths.
        {
            let mut cold = ProofSession::new(&design.ctx, &design.ts, seeded.clone());
            for t in &design.targets {
                let _ = cold.prove(&t.prop);
            }
        }
        let mut warm = ProofSession::new(&design.ctx, &design.ts, seeded);
        let mut ctrl = ProofSession::new(&design.ctx, &design.ts, control);
        for target in &design.targets {
            let warm_r = warm.prove(&target.prop);
            let ctrl_r = ctrl.prove(&target.prop);
            let what = format!("{}::{}", bundle.name, target.name);
            assert_prove_eq(&warm_r, &ctrl_r, &what);
            if let (
                ProveResult::StepFailure { trace: tw, .. },
                ProveResult::StepFailure { trace: tc, .. },
            ) = (&warm_r, &ctrl_r)
            {
                assert_eq!(tw.steps, tc.steps, "seeding changed a step model on {what}");
            }
        }
    }
}
