//! Differential suite: template-stamped unrolling must be observationally
//! identical to the DAG-walk (reference) encoding across the corpus.
//!
//! [`UnrollMode::Template`] encodes the transition relation once and
//! instantiates frames by literal renaming (hash-consed, polarity-aware
//! clause blocks stamped through `Solver::load_template`);
//! [`UnrollMode::DagWalk`] is the original per-frame Tseitin walk, kept
//! precisely so this suite can pin the equivalence. SAT models are not
//! unique between different CNFs, so per-signal trace *values* may differ;
//! everything the flows branch on — verdict class, induction depth,
//! violation cycle, trace length — is asserted equal, plus the frame-0
//! values of reset-initialised state signals on BMC counterexamples
//! (those are pinned by the encoding, not chosen by the solver).

use genfv_core::{run_flow2, FlowConfig};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{BmcResult, CheckConfig, ProofSession, ProveResult, UnrollMode};

mod common;

fn cfg(mode: UnrollMode) -> CheckConfig {
    CheckConfig { max_k: 4, unroll_mode: mode, ..Default::default() }
}

fn assert_prove_eq(tpl: &ProveResult, dag: &ProveResult, what: &str) {
    match (tpl, dag) {
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
        (a, b) => panic!("prove verdict diverged on {what}: template {a:?} vs dagwalk {b:?}"),
    }
}

/// Every target of every corpus design, proven through one session per
/// mode: verdict classes, depths, and counterexample cycles must match.
#[test]
fn template_prove_matches_dagwalk_on_corpus() {
    let mut targets_checked = 0;
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut tpl_session = ProofSession::new(&design.ctx, &design.ts, cfg(UnrollMode::Template));
        let mut dag_session = ProofSession::new(&design.ctx, &design.ts, cfg(UnrollMode::DagWalk));
        for target in &design.targets {
            let t = tpl_session.prove(&target.prop);
            let d = dag_session.prove(&target.prop);
            assert_prove_eq(&t, &d, &format!("{}::{}", bundle.name, target.name));
            targets_checked += 1;
        }
        assert_eq!(
            tpl_session.stats().bitblasts,
            1,
            "{}: template mode keeps the one-blast discipline",
            bundle.name
        );
    }
    assert!(targets_checked >= 10, "the corpus should contribute real targets");
}

/// BMC over the same split, including frame-0 model agreement on SAT:
/// reset-initialised state signals are pinned by both encodings, so their
/// cycle-0 trace values must be byte-identical (and equal to the reset
/// value), whatever model the solver picked.
#[test]
fn template_bmc_matches_dagwalk_on_corpus() {
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut tpl_session = ProofSession::new(&design.ctx, &design.ts, cfg(UnrollMode::Template));
        let mut dag_session = ProofSession::new(&design.ctx, &design.ts, cfg(UnrollMode::DagWalk));
        for target in &design.targets {
            let what = format!("{}::{}", bundle.name, target.name);
            let t = tpl_session.bmc_check(&target.prop, 8);
            let d = dag_session.bmc_check(&target.prop, 8);
            match (&t, &d) {
                (BmcResult::Clean { depth: a, .. }, BmcResult::Clean { depth: b, .. }) => {
                    assert_eq!(a, b, "clean depth diverged on {what}");
                }
                (
                    BmcResult::Falsified { at: a, trace: ta, .. },
                    BmcResult::Falsified { at: b, trace: tb, .. },
                ) => {
                    assert_eq!(a, b, "violation cycle diverged on {what}");
                    assert_eq!(ta.steps.len(), tb.steps.len(), "trace length diverged on {what}");
                    // Frame-0 model equality for pinned state signals.
                    for (name, expr) in design.ts.signals() {
                        let Some(state) = design.ts.find_state(*expr) else { continue };
                        let Some(init) = state.init else { continue };
                        let Some(reset) = design.ctx.const_value(init) else { continue };
                        let va = ta.steps[0].get(name);
                        let vb = tb.steps[0].get(name);
                        assert_eq!(va, vb, "frame-0 value of {name} diverged on {what}");
                        assert_eq!(
                            va,
                            Some(reset),
                            "frame-0 value of {name} must be the reset value on {what}"
                        );
                    }
                }
                (a, b) => {
                    panic!("BMC verdict diverged on {what}: template {a:?} vs dagwalk {b:?}")
                }
            }
        }
    }
}

/// Guarded hypotheses over selector literals: facts guarded at a frame,
/// queried under different windows, then retired — the activation
/// discipline must behave identically on stamped frames. The last query
/// opens a 64-frame free-start window with no fact in force, so every
/// stamped clause of a deep unrolling must propagate.
#[test]
fn selector_guarded_facts_match_across_modes() {
    for bundle in genfv_designs::all_designs().into_iter().chain(genfv_designs::datapath_designs())
    {
        let design = bundle.prepare().expect("corpus designs prepare");
        let Some(target) = design.targets.first() else { continue };
        let fact = target.prop.ok;
        let what = format!("{}::{}", bundle.name, target.name);

        let run = |mode: UnrollMode| -> Vec<bool> {
            let mut s = ProofSession::new(&design.ctx, &design.ts, cfg(mode));
            let sel = s.new_selector();
            s.guard_fact(sel, 2, fact);
            let l2 = s.literal(2, fact);
            let l3 = s.literal(3, fact);
            let mut verdicts = Vec::new();
            // Guarded fact active: ¬fact@2 must contradict the selector.
            verdicts.push(s.solve_under(false, 2, &[sel, !l2]).is_sat());
            // Without the selector the fact is free.
            verdicts.push(s.solve_under(false, 2, &[!l2]).is_sat());
            // A wider window with the fact assumed at 2, queried at 3.
            verdicts.push(s.solve_under(false, 3, &[sel, !l3]).is_sat());
            // Retired: the selector no longer forces anything.
            s.retire_selector(sel);
            verdicts.push(s.solve_under(false, 2, &[sel, !l2]).is_sat());
            // A deep window: 64 stamped frames, every frame guard active.
            verdicts.push(s.solve_under(false, 64, &[]).is_sat());
            verdicts
        };
        assert_eq!(
            run(UnrollMode::Template),
            run(UnrollMode::DagWalk),
            "selector discipline diverged on {what}"
        );
    }
}

/// The datapath (multiplier-identity) designs are the template's
/// showcase workload and live outside the flow corpus; pin their unaided
/// proofs across modes explicitly.
#[test]
fn datapath_designs_match_across_modes() {
    for bundle in genfv_designs::datapath_designs() {
        let design = bundle.prepare().expect("datapath designs prepare");
        let mut tpl_session = ProofSession::new(&design.ctx, &design.ts, cfg(UnrollMode::Template));
        let mut dag_session = ProofSession::new(&design.ctx, &design.ts, cfg(UnrollMode::DagWalk));
        for target in &design.targets {
            let t = tpl_session.prove(&target.prop);
            let d = dag_session.prove(&target.prop);
            assert_prove_eq(&t, &d, &format!("{}::{}", bundle.name, target.name));
            assert!(t.is_proven(), "{}::{} should prove unaided", bundle.name, target.name);
        }
    }
}

/// Lemmas installed mid-session (after frames already exist) must scope
/// identically: install the first target as a lemma once proven, then
/// re-check the remaining targets.
#[test]
fn lemma_installation_matches_across_modes() {
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        if design.targets.len() < 2 {
            continue;
        }
        let run = |mode: UnrollMode| -> Vec<String> {
            let mut s = ProofSession::new(&design.ctx, &design.ts, cfg(mode));
            let mut verdicts = Vec::new();
            let first = &design.targets[0];
            let r = s.prove(&first.prop);
            if r.is_proven() {
                s.add_lemma(first.prop.ok);
            }
            verdicts.push(format!("{}:{}", first.name, verdict_tag(&r)));
            for target in &design.targets[1..] {
                let r = s.prove(&target.prop);
                verdicts.push(format!("{}:{}", target.name, verdict_tag(&r)));
            }
            verdicts
        };
        assert_eq!(
            run(UnrollMode::Template),
            run(UnrollMode::DagWalk),
            "lemma-carrying session diverged on {}",
            bundle.name
        );
    }
}

fn verdict_tag(r: &ProveResult) -> String {
    match r {
        ProveResult::Proven { k, .. } => format!("proven@{k}"),
        ProveResult::Falsified { at, .. } => format!("falsified@{at}"),
        ProveResult::StepFailure { k, .. } => format!("step_failure@{k}"),
        ProveResult::Unknown { .. } => "unknown".to_string(),
    }
}

/// Unaided proofs at `max_k` 32, where every frame costs a full DAG
/// re-walk in the reference encoding and one clause-arena stamp in
/// template mode. Unaided proofs issue identical query sequences in both
/// modes, so verdicts — depths and cycles included — must match exactly.
/// The designs are the encoding-bound arithmetic checkers, the wide
/// lockstep counters and the parity/ECC family, with `ecc_counter` as a
/// solver-bound control. `fifo_counters` is left out: its unaided step
/// obligations blow up past k≈20 in both encodings, which is the
/// portfolio's territory, not the encoding's.
#[test]
fn deep_prove_matches_dagwalk() {
    const DEEP: [&str; 9] = [
        "div_checker",
        "mul_incr",
        "mul_distrib",
        "sync_counters_16",
        "hamming74",
        "secded84",
        "offset_counters",
        "gray_counter",
        "ecc_counter",
    ];
    let deep = |mode| CheckConfig { max_k: 32, unroll_mode: mode, ..Default::default() };
    for name in DEEP {
        let design = genfv_designs::by_name(name).expect("exists").prepare().expect("prepares");
        let mut tpl_session =
            ProofSession::new(&design.ctx, &design.ts, deep(UnrollMode::Template));
        let mut dag_session = ProofSession::new(&design.ctx, &design.ts, deep(UnrollMode::DagWalk));
        for target in &design.targets {
            let t = tpl_session.prove(&target.prop);
            let d = dag_session.prove(&target.prop);
            assert_prove_eq(&t, &d, &format!("{name}::{} (max_k 32)", target.name));
        }
    }
}

/// Flow 2 end to end (validation gauntlet, Houdini, target proofs,
/// CEX-driven repair) in both unroll modes, under a terse and a chatty
/// model: identical verdict classes and identical falsification cycles
/// for every target.
#[test]
fn flow2_verdicts_identical_across_unroll_modes() {
    for profile in [ModelProfile::GptFourTurbo, ModelProfile::LlamaThree] {
        for bundle in common::flow_designs() {
            let template = run_flow2(
                bundle.prepare().expect("corpus designs prepare"),
                &mut SyntheticLlm::new(profile, 42),
                &FlowConfig::default().with_unroll_mode(UnrollMode::Template),
            );
            let dagwalk = run_flow2(
                bundle.prepare().expect("corpus designs prepare"),
                &mut SyntheticLlm::new(profile, 42),
                &FlowConfig::default().with_unroll_mode(UnrollMode::DagWalk),
            );
            assert_eq!(template.targets.len(), dagwalk.targets.len());
            for (tt, td) in template.targets.iter().zip(&dagwalk.targets) {
                assert_eq!(tt.name, td.name);
                assert_eq!(
                    common::outcome_class(&tt.outcome),
                    common::outcome_class(&td.outcome),
                    "flow outcome diverged on {}::{} under {profile:?}",
                    bundle.name,
                    tt.name
                );
            }
        }
    }
}
