//! Differential suite: [`ProofSession`] answers must be identical to
//! rebuild-per-query (fresh-engine) runs across the whole designs corpus.
//!
//! The session engine (`genfv_mc::ProofSession`, one persistent solver and
//! one bit-blast per design, assumption-scoped queries) and the reference
//! engine (`genfv_mc::rebuild`, fresh unrollers and solvers per check)
//! must agree on every observable: verdict class, induction depth `k`,
//! counterexample cycle, and trace length. SAT models are not unique, so
//! per-signal trace *values* may differ between engines; everything the
//! flows branch on is pinned here, plus the frame-0 values of
//! reset-initialised state on BMC counterexamples (pinned by the encoding,
//! not chosen by the solver).
//!
//! The two engines also differ in frame encoding. A session stamps its
//! induction-step frames from a one-time `genfv_ir::Template` blast; the
//! reference engine DAG-walks every frame. So the corpus tests (datapath
//! designs included), the selector-window queries against
//! `common::fresh_window` and the deep proofs at `max_k` 32 are also the
//! gate on template stamping.
//!
//! The session engine is the only one the flows run, so the tests at the
//! bottom hold the flows to the reference engine directly: the validation
//! gauntlet against `common::reference_gauntlet` on identical candidate
//! pools, and every answer of complete Flow 1, Flow 2 and Combined runs
//! re-checked by `common::recheck_flow` — the accepted lemmas prove, and
//! each verdict reproduces at its reported depth or cycle.

use genfv_core::{
    run_baseline, run_combined, run_flow1, run_flow2, validate_batch, Candidate, FlowConfig,
    FlowReport, OptConfig, OptLevel, PreparedDesign, TargetOutcome, ValidateConfig,
};
use genfv_genai::{LanguageModel, ModelProfile, SyntheticLlm};
use genfv_mc::{
    bmc_rebuild, prove_all_rebuild, prove_rebuild, BmcResult, CheckConfig, KInduction,
    ProofSession, ProveResult,
};
use genfv_sva::parse_assertion;

mod common;

fn assert_bmc_eq(session: &BmcResult, rebuild: &BmcResult, what: &str) {
    match (session, rebuild) {
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
        (a, b) => panic!("BMC verdict diverged on {what}: session {a:?} vs rebuild {b:?}"),
    }
}

fn assert_prove_eq(session: &ProveResult, rebuild: &ProveResult, what: &str) {
    match (session, rebuild) {
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
        (a, b) => panic!("prove verdict diverged on {what}: session {a:?} vs rebuild {b:?}"),
    }
}

/// Every target of every corpus design, datapath designs included: one
/// persistent session per design (frames and learnt clauses shared across
/// its targets) versus fresh engines per target.
#[test]
fn session_prove_matches_rebuild_on_corpus() {
    let config = CheckConfig { max_k: 4, ..Default::default() };
    let mut targets_checked = 0;
    for bundle in common::full_corpus() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut session = ProofSession::new(&design.ctx, &design.ts, config.clone());
        for target in &design.targets {
            let s = session.prove(&target.prop);
            let r = prove_rebuild(&design.ctx, &design.ts, &target.prop, &[], &config);
            assert_prove_eq(&s, &r, &format!("{}::{}", bundle.name, target.name));
            targets_checked += 1;
        }
        assert_eq!(session.stats().bitblasts, 1, "{}: one bit-blast per design", bundle.name);
    }
    assert!(targets_checked >= 10, "the corpus should contribute real targets");
}

/// BMC over the same persistent-vs-fresh split. On a counterexample,
/// every state signal with a constant reset value holds that value at
/// cycle 0 in both traces, whatever model the solvers picked.
#[test]
fn session_bmc_matches_rebuild_on_corpus() {
    let config = CheckConfig::default();
    let mut falsified = 0;
    for bundle in common::full_corpus() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut session = ProofSession::new(&design.ctx, &design.ts, config.clone());
        for target in &design.targets {
            let what = format!("{}::{}", bundle.name, target.name);
            let s = session.bmc_check(&target.prop, 8);
            let r = bmc_rebuild(&design.ctx, &design.ts, &target.prop, &[], 8, &config);
            assert_bmc_eq(&s, &r, &what);
            let (BmcResult::Falsified { trace: ts, .. }, BmcResult::Falsified { trace: tr, .. }) =
                (&s, &r)
            else {
                continue;
            };
            falsified += 1;
            for (name, expr) in design.ts.signals() {
                let Some(state) = design.ts.find_state(*expr) else { continue };
                let Some(reset) = state.init.and_then(|init| design.ctx.const_value(init)) else {
                    continue;
                };
                assert_eq!(
                    ts.steps[0].get(name),
                    Some(reset),
                    "session frame 0 of {name} on {what}"
                );
                assert_eq!(
                    tr.steps[0].get(name),
                    Some(reset),
                    "rebuild frame 0 of {name} on {what}"
                );
            }
        }
    }
    assert!(falsified > 0, "the corpus should contribute BMC counterexamples");
}

/// Guarded hypotheses over selector literals on the stamped step
/// direction: a fact guarded at frame 2, queried under different windows,
/// then retired. The last query opens a 64-frame free-start window with
/// no fact in force, so every stamped clause of a deep unrolling must
/// propagate. Each answer equals a fresh DAG-walked window's with the
/// facts in force asserted (`common::fresh_window`).
#[test]
fn selector_windows_match_a_fresh_window() {
    let config = CheckConfig { max_k: 4, ..Default::default() };
    for bundle in common::full_corpus() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let Some(target) = design.targets.first() else { continue };
        let fact = target.prop.ok;
        let what = format!("{}::{}", bundle.name, target.name);
        let fresh = |window, facts: &[_], violated: &[_]| {
            common::fresh_window(&design.ctx, &design.ts, window, facts, violated)
        };

        let mut s = ProofSession::new(&design.ctx, &design.ts, config.clone());
        let sel = s.new_selector();
        s.guard_fact(sel, 2, fact);
        let l2 = s.literal(2, fact);
        let l3 = s.literal(3, fact);
        // Guarded fact active: ¬fact@2 contradicts the selector.
        let active = s.solve_under(false, 2, &[sel, !l2]).is_sat();
        assert_eq!(active, fresh(2, &[(2, fact)], &[(2, fact)]), "active fact on {what}");
        // Without the selector the fact is free.
        let free = s.solve_under(false, 2, &[!l2]).is_sat();
        assert_eq!(free, fresh(2, &[], &[(2, fact)]), "inactive fact on {what}");
        // A wider window with the fact assumed at 2, queried at 3.
        let wider = s.solve_under(false, 3, &[sel, !l3]).is_sat();
        assert_eq!(wider, fresh(3, &[(2, fact)], &[(3, fact)]), "wider window on {what}");
        // Retired: the selector can no longer be assumed, and the fact is
        // free again.
        s.retire_selector(sel);
        assert!(s.solve_under(false, 2, &[sel, !l2]).is_unsat(), "retired selector on {what}");
        let retired = s.solve_under(false, 2, &[!l2]).is_sat();
        assert_eq!(retired, fresh(2, &[], &[(2, fact)]), "retired fact on {what}");
        // A deep window: 64 stamped frames, every frame guard active.
        let deep = s.solve_under(false, 64, &[]).is_sat();
        assert_eq!(deep, fresh(64, &[], &[]), "64-frame window on {what}");
    }
}

/// Unaided proofs at `max_k` 32, where the reference walks the DAG for
/// every frame and the session stamps each step frame. Verdicts — depths
/// and cycles included — must match. The designs are the encoding-bound
/// arithmetic checkers, the wide lockstep counters and the parity/ECC
/// family, with `ecc_counter` as a solver-bound control. `fifo_counters`
/// is left out: its unaided step obligations blow up past k≈20 in both
/// encodings, which is the portfolio's territory, not the encoding's.
#[test]
fn deep_session_prove_matches_rebuild() {
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
    let config = CheckConfig { max_k: 32, ..Default::default() };
    for name in DEEP {
        let design = genfv_designs::by_name(name).expect("exists").prepare().expect("prepares");
        let mut session = ProofSession::new(&design.ctx, &design.ts, config.clone());
        for target in &design.targets {
            let s = session.prove(&target.prop);
            let r = prove_rebuild(&design.ctx, &design.ts, &target.prop, &[], &config);
            assert_prove_eq(&s, &r, &format!("{name}::{} (max_k 32)", target.name));
        }
    }
}

/// The chained assume-guarantee batch (`prove_all`) on one session versus
/// the rebuild batch: identical per-property verdicts, so the incremental
/// chaining installs exactly the lemmas the rebuild chaining assumes.
#[test]
fn prove_all_matches_rebuild_on_corpus() {
    let config = CheckConfig { max_k: 4, ..Default::default() };
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let props: Vec<_> = design.targets.iter().map(|t| t.prop.clone()).collect();
        let prover = KInduction::new(&design.ctx, &design.ts, config.clone());
        let s = prover.prove_all(&props, &[]);
        let r = prove_all_rebuild(&design.ctx, &design.ts, &props, &[], &config);
        assert_eq!(s.len(), r.len());
        for ((sr, rr), target) in s.iter().zip(&r).zip(&design.targets) {
            assert_prove_eq(sr, rr, &format!("{}::{}", bundle.name, target.name));
        }
    }
}

fn candidate(name: &str, text: &str) -> Candidate {
    let assertion = parse_assertion(text).expect("candidate parses");
    Candidate { name: name.to_string(), text: text.to_string(), assertion }
}

/// The whole validation gauntlet (every candidate of a batch and then
/// Houdini on one shared session) against the reference gauntlet on
/// fresh engines, over identical candidate pools from every model
/// profile: per-candidate outcomes — including the exact `k` of every
/// `ProvenInductive` and the exact cycle of every `FalseByBmc` — must be
/// equal. The hallucinating profiles put compile rejects and false
/// candidates into the shared session next to the accepted ones.
#[test]
fn validate_batch_outcomes_identical_across_engines() {
    let config = ValidateConfig::default();
    let mut candidates_checked = 0;
    let mut rejected = 0;
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut pools: Vec<(String, Vec<Candidate>)> = ModelProfile::ALL
            .iter()
            .map(|&profile| (format!("{profile:?}"), common::corpus_candidates(&bundle, profile)))
            .collect();
        if bundle.name == "sync_counters" {
            // A false candidate twice in one batch: both copies compile to
            // one `ok` expression, and the session must reject the second
            // copy as it rejected the first (`count1` reaches 49 at cycle
            // 49, beyond the BMC depth, so only induction can judge it).
            let twice = candidate("le_48", "count1 <= 32'd48");
            pools.push(("a repeated candidate".to_string(), vec![twice.clone(), twice]));
        }
        for (source, candidates) in pools {
            let what = format!("{} under {source}", bundle.name);
            let (acc_s, out_s, _) = validate_batch(&design, &[], &candidates, &config, true);
            let (acc_r, out_r) =
                common::reference_gauntlet(&design, &[], &candidates, &config, true);
            assert_eq!(acc_s, acc_r, "accepted sets diverged on {what}");
            assert_eq!(out_s, out_r, "validation outcomes diverged on {what}");
            candidates_checked += candidates.len();
            rejected += out_s.iter().filter(|o| !o.is_proven()).count();
        }
    }
    assert!(candidates_checked >= 20, "the corpus should contribute real candidate pools");
    assert!(rejected > 0, "the batches should mix rejected and accepted candidates");
}

/// Two targets that compile to one `ok` expression share the session of
/// `run_baseline`. The first proof attempt extends the property's step
/// guard past k=1; the second attempt must not reuse that guard, or its
/// k=1 step query assumes the very frame it asks about and proves a false
/// property. `count1` reaches 49 at cycle 49, beyond `max_k`, so both
/// targets end unproven, at the depth where fresh engines fail the step.
#[test]
fn duplicate_targets_share_one_baseline_verdict() {
    let bundle = genfv_designs::by_name("sync_counters").expect("corpus design");
    let targets = [("le_48", "count1 <= 32'd48"), ("ge_48", "32'd48 >= count1")]
        .map(|(name, sva)| (name.to_string(), sva.to_string()));
    let design = PreparedDesign::new(bundle.name, bundle.rtl, bundle.spec, &targets)
        .expect("sync_counters prepares");
    let config = FlowConfig::default();
    let report = run_baseline(&design, &config);
    for (target, reported) in design.targets.iter().zip(&report.targets) {
        let reference = prove_rebuild(&design.ctx, &design.ts, &target.prop, &[], &config.check);
        match (&reported.outcome, &reference) {
            (TargetOutcome::StillUnproven { k, .. }, ProveResult::StepFailure { k: r, .. }) => {
                assert_eq!(k, r, "{}: step-failure depth", target.name)
            }
            (session, rebuild) => {
                panic!("{}: session {session:?}, rebuild {rebuild:?}", target.name)
            }
        }
    }
}

/// One of the flows under test.
type Flow = fn(PreparedDesign, &mut dyn LanguageModel, &FlowConfig) -> FlowReport;

/// Runs `flow` on every flow design under every model profile at the
/// default prepare, on the lemma-hungry designs at `OptLevel::None`
/// (plain induction, where most runs need lemmas) under one profile, and
/// on the seeded-bug design (so a falsification is re-checked too), and
/// re-checks every answer on the reference engine. Returns how many runs
/// there were and how many of them carried lemmas (26 of 49 for each
/// flow when this was written), so that a caller can tell the lemma
/// checks were not vacuous.
fn recheck_matrix(flow: Flow) -> (usize, usize) {
    let config = FlowConfig::default();
    let plain = OptConfig::default().with_level(OptLevel::None);
    let mut runs: Vec<(genfv_designs::DesignBundle, OptConfig, ModelProfile)> = Vec::new();
    for profile in ModelProfile::ALL {
        for bundle in common::flow_designs() {
            runs.push((bundle, OptConfig::default(), profile));
        }
    }
    for bundle in genfv_designs::lemma_hungry_designs() {
        runs.push((bundle, plain, ModelProfile::GptFourTurbo));
    }
    let buggy = genfv_designs::by_name("desync_counters").expect("corpus design");
    runs.push((buggy, OptConfig::default(), ModelProfile::GptFourTurbo));
    let mut with_lemmas = 0;
    for (bundle, opt, profile) in &runs {
        let prepare = || bundle.prepare_with(opt).expect("corpus designs prepare");
        let report = flow(prepare(), &mut SyntheticLlm::new(*profile, 42), &config);
        common::recheck_flow(prepare(), &report, &config);
        with_lemmas += usize::from(!report.lemmas.is_empty());
    }
    (runs.len(), with_lemmas)
}

/// Flow 1 end to end: every answer — the accepted lemmas, each target's
/// verdict with its depth, lemma count or cycle — holds on the reference
/// engine.
#[test]
fn flow1_identical_across_engines() {
    let (runs, with_lemmas) = recheck_matrix(run_flow1);
    assert!(with_lemmas * 3 >= runs, "{with_lemmas} of {runs} runs carry lemmas");
}

/// The full Flow-2 repair loop, under every model profile (the chattier
/// and noisier the model, the more candidates per completion and the more
/// closely related queries per design), re-checked answer by answer on
/// the reference engine.
#[test]
fn flow2_verdict_classes_identical_across_engines() {
    let (runs, with_lemmas) = recheck_matrix(run_flow2);
    assert!(with_lemmas * 3 >= runs, "{with_lemmas} of {runs} runs carry lemmas");
}

/// Combined (Flow 1's upfront lemmas, then Flow 2's repairs), re-checked
/// answer by answer on the reference engine.
#[test]
fn combined_answers_hold_on_the_reference_engine() {
    let (runs, with_lemmas) = recheck_matrix(run_combined);
    assert!(with_lemmas * 3 >= runs, "{with_lemmas} of {runs} runs carry lemmas");
}
