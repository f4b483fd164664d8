//! Differential suite: [`ProofSession`] answers must be identical to
//! rebuild-per-query (fresh-engine) runs across the whole designs corpus.
//!
//! The session engine (`genfv_mc::ProofSession`, one persistent solver and
//! one bit-blast per design, assumption-scoped queries) and the reference
//! engine (`genfv_mc::rebuild`, fresh unrollers and solvers per check)
//! must agree on every observable: verdict class, induction depth `k`,
//! counterexample cycle, and trace length. SAT models are not unique, so
//! per-signal trace *values* may differ between engines; everything the
//! flows branch on is pinned here.
//!
//! The flow-level tests at the bottom run the complete Flow-1 and Flow-2
//! loops (validation gauntlet on one session per candidate batch, Houdini
//! on that same session, target proofs) in both engine modes and require
//! identical verdicts and identical accepted-lemma sets — the acceptance
//! criterion for the incremental-session work.

use genfv_core::{
    run_baseline, run_flow1, run_flow2, validate_batch, Candidate, FlowConfig, PreparedDesign,
    TargetOutcome, ValidateConfig,
};
use genfv_genai::{LanguageModel, ModelProfile, Prompt, SyntheticLlm};
use genfv_mc::{
    bmc_rebuild, prove_all_rebuild, prove_rebuild, BmcResult, CheckConfig, EngineMode, KInduction,
    ProofSession, ProveResult,
};
use genfv_sva::{parse_assertion, parse_assertions};

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

/// Every target of every corpus design: one persistent session per design
/// (frames and learnt clauses shared across its targets) versus fresh
/// engines per target.
#[test]
fn session_prove_matches_rebuild_on_corpus() {
    let config = CheckConfig { max_k: 4, ..Default::default() };
    let mut targets_checked = 0;
    for bundle in genfv_designs::all_designs() {
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

/// BMC over the same persistent-vs-fresh split.
#[test]
fn session_bmc_matches_rebuild_on_corpus() {
    let config = CheckConfig::default();
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut session = ProofSession::new(&design.ctx, &design.ts, config.clone());
        for target in &design.targets {
            let s = session.bmc_check(&target.prop, 8);
            let r = bmc_rebuild(&design.ctx, &design.ts, &target.prop, &[], 8, &config);
            assert_bmc_eq(&s, &r, &format!("{}::{}", bundle.name, target.name));
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

fn assert_outcome_eq(a: &TargetOutcome, b: &TargetOutcome, what: &str) {
    match (a, b) {
        (
            TargetOutcome::Proven { k: ka, lemmas_used: la },
            TargetOutcome::Proven { k: kb, lemmas_used: lb },
        ) => {
            assert_eq!(ka, kb, "proof depth diverged on {what}");
            assert_eq!(la, lb, "lemma count diverged on {what}");
        }
        (TargetOutcome::Falsified { at: aa }, TargetOutcome::Falsified { at: ab }) => {
            assert_eq!(aa, ab, "violation cycle diverged on {what}");
        }
        (
            TargetOutcome::StillUnproven { k: ka, .. },
            TargetOutcome::StillUnproven { k: kb, .. },
        ) => {
            assert_eq!(ka, kb, "final step depth diverged on {what}");
        }
        (TargetOutcome::Unknown { reason: ra }, TargetOutcome::Unknown { reason: rb }) => {
            assert_eq!(ra, rb, "unknown reason diverged on {what}");
        }
        (a, b) => panic!("flow outcome diverged on {what}: incremental {a:?} vs rebuild {b:?}"),
    }
}

fn candidate(name: &str, text: &str) -> Candidate {
    let assertion = parse_assertion(text).expect("candidate parses");
    Candidate { name: name.to_string(), text: text.to_string(), assertion }
}

/// The deterministic Flow-1 candidate pool of a design under `profile`
/// (the prompt depends only on spec + RTL + targets, so both engine modes
/// see the byte-identical completion).
fn corpus_candidates(
    bundle: &genfv_designs::DesignBundle,
    profile: ModelProfile,
) -> Vec<Candidate> {
    let targets: Vec<String> = bundle.targets.iter().map(|(_, sva)| sva.clone()).collect();
    let prompt = Prompt::flow1(bundle.spec, bundle.rtl, &targets);
    let mut llm = SyntheticLlm::new(profile, 42);
    let completion = llm.complete(&prompt);
    parse_assertions(&completion.text)
        .into_iter()
        .enumerate()
        .map(|(i, assertion)| {
            let name = assertion.name.clone().unwrap_or_else(|| format!("candidate_{i}"));
            let text = genfv_sva::render_prop_body(&assertion.body);
            Candidate { name, text, assertion }
        })
        .collect()
}

/// The whole validation gauntlet (every candidate of a batch and then
/// Houdini on one shared session) over identical candidate pools from
/// every model profile: per-candidate outcomes — including the exact `k`
/// of every `ProvenInductive` and the exact cycle of every `FalseByBmc` —
/// must be equal in both engine modes. The hallucinating profiles put
/// compile rejects and false candidates into the shared session next to
/// the accepted ones.
#[test]
fn validate_batch_outcomes_identical_across_engines() {
    let incremental_cfg = ValidateConfig::default();
    let rebuild_cfg =
        ValidateConfig { engine: EngineMode::RebuildPerQuery, ..ValidateConfig::default() };
    let mut candidates_checked = 0;
    let mut rejected = 0;
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let mut pools: Vec<(String, Vec<Candidate>)> = ModelProfile::ALL
            .iter()
            .map(|&profile| (format!("{profile:?}"), corpus_candidates(&bundle, profile)))
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
            let (acc_i, out_i, _) =
                validate_batch(&design, &[], &candidates, &incremental_cfg, true);
            let (acc_r, out_r, _) = validate_batch(&design, &[], &candidates, &rebuild_cfg, true);
            assert_eq!(acc_i, acc_r, "accepted sets diverged on {what}");
            assert_eq!(out_i, out_r, "validation outcomes diverged on {what}");
            candidates_checked += candidates.len();
            rejected += out_i.iter().filter(|o| !o.is_proven()).count();
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
/// targets end unproven in both engine modes.
#[test]
fn duplicate_targets_share_one_baseline_verdict() {
    let bundle = genfv_designs::by_name("sync_counters").expect("corpus design");
    let targets = [("le_48", "count1 <= 32'd48"), ("ge_48", "32'd48 >= count1")]
        .map(|(name, sva)| (name.to_string(), sva.to_string()));
    let design = PreparedDesign::new(bundle.name, bundle.rtl, bundle.spec, &targets)
        .expect("sync_counters prepares");
    let incremental = run_baseline(&design, &FlowConfig::default());
    let rebuild =
        run_baseline(&design, &FlowConfig::default().with_engine(EngineMode::RebuildPerQuery));
    for (ti, tr) in incremental.targets.iter().zip(&rebuild.targets) {
        assert!(
            matches!(ti.outcome, TargetOutcome::StillUnproven { .. }),
            "{}: {:?}",
            ti.name,
            ti.outcome
        );
        assert_outcome_eq(&ti.outcome, &tr.outcome, &ti.name);
    }
}

/// Flow 1 end to end: its prompt carries no counterexample, so the two
/// engine modes run on byte-identical completions and must agree on
/// everything — target verdicts (with depths and lemma counts) and the
/// accepted-lemma list itself.
#[test]
fn flow1_identical_across_engines() {
    for bundle in genfv_designs::lemma_hungry_designs() {
        let incremental = run_flow1(
            bundle.prepare().expect("corpus designs prepare"),
            &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
            &FlowConfig::default(),
        );
        let rebuild = run_flow1(
            bundle.prepare().expect("corpus designs prepare"),
            &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
            &FlowConfig::default().with_engine(EngineMode::RebuildPerQuery),
        );
        assert_eq!(incremental.targets.len(), rebuild.targets.len());
        for (ti, tr) in incremental.targets.iter().zip(&rebuild.targets) {
            assert_eq!(ti.name, tr.name);
            assert_outcome_eq(&ti.outcome, &tr.outcome, &format!("{}::{}", bundle.name, ti.name));
        }
        let lemmas_i: Vec<&str> = incremental.lemmas.iter().map(|l| l.text.as_str()).collect();
        let lemmas_r: Vec<&str> = rebuild.lemmas.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(lemmas_i, lemmas_r, "accepted lemmas diverged on {}", bundle.name);
        assert!(
            incremental.metrics.solver.bitblasts > 0,
            "incremental mode must report session reuse on {}",
            bundle.name
        );
    }
}

/// The full Flow-2 repair loop in both engine modes, under every model
/// profile: the chattier and noisier the model, the more candidates per
/// completion and the more closely related queries per design. Flow 2's
/// prompts embed induction-step counterexamples, and SAT models are not
/// unique — the two engines legitimately show the LLM different (equally
/// valid) CEXs, so the *candidate pools* may differ. What is semantically
/// determined, and pinned here, is the verdict: which targets end up
/// proven / falsified / unproven, and the exact cycle of any real
/// counterexample.
#[test]
fn flow2_verdict_classes_identical_across_engines() {
    for profile in ModelProfile::ALL {
        for bundle in common::flow_designs() {
            let what = format!("{} under {profile:?}", bundle.name);
            let incremental = run_flow2(
                bundle.prepare().expect("corpus designs prepare"),
                &mut SyntheticLlm::new(profile, 42),
                &FlowConfig::default(),
            );
            let rebuild = run_flow2(
                bundle.prepare().expect("corpus designs prepare"),
                &mut SyntheticLlm::new(profile, 42),
                &FlowConfig::default().with_engine(EngineMode::RebuildPerQuery),
            );
            assert_eq!(incremental.targets.len(), rebuild.targets.len());
            assert_eq!(
                incremental.all_proven(),
                rebuild.all_proven(),
                "overall verdict diverged on {what}"
            );
            for (ti, tr) in incremental.targets.iter().zip(&rebuild.targets) {
                assert_eq!(ti.name, tr.name);
                assert_eq!(
                    common::outcome_class(&ti.outcome),
                    common::outcome_class(&tr.outcome),
                    "verdict diverged on {what}::{}",
                    ti.name
                );
            }
            assert_eq!(
                rebuild.metrics.solver.solver_calls, 0,
                "rebuild mode must not touch the session counters on {what}"
            );
        }
    }
}
