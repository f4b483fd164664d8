//! Shared pieces of the differential suites (`session_differential`,
//! `houdini_differential`, `portfolio_differential`): the flow designs,
//! verdict classes, and the reference checks on the rebuild-per-query
//! engine (`genfv_mc::rebuild`, fresh DAG-walked unrollers and solvers
//! per check) that the session engine the flows run is held to.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use genfv_core::{
    Candidate, FlowConfig, FlowReport, PreparedDesign, TargetOutcome, ValidateConfig,
    ValidationOutcome,
};
use genfv_designs::DesignBundle;
use genfv_genai::{Completion, LanguageModel, ModelProfile, Prompt, SyntheticLlm};
use genfv_ir::{Context, ExprRef, TransitionSystem};
use genfv_mc::{
    bmc_rebuild, prove_rebuild, BmcResult, CheckConfig, Property, ProveResult, Unroller,
};
use genfv_sat::{Lit, SolveResult};
use genfv_sva::{parse_assertion, parse_assertions, PropertyCompiler};

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

/// A model that answers every prompt with the same completion `text`.
pub struct Canned {
    name: &'static str,
    text: &'static str,
}

/// A [`Canned`] model.
pub fn canned(name: &'static str, text: &'static str) -> Canned {
    Canned { name, text }
}

impl LanguageModel for Canned {
    fn name(&self) -> &str {
        self.name
    }

    fn complete(&mut self, _prompt: &Prompt) -> Completion {
        Completion {
            text: self.text.to_string(),
            prompt_tokens: 0,
            completion_tokens: 0,
            latency: std::time::Duration::ZERO,
        }
    }
}

/// Every design bundle: the flow corpus plus the datapath designs.
pub fn full_corpus() -> Vec<DesignBundle> {
    genfv_designs::all_designs().into_iter().chain(genfv_designs::datapath_designs()).collect()
}

/// The reference for one step-direction session query over frames
/// `0..=window`: a fresh DAG-walked free-start unrolling of `window + 1`
/// frames with every constraint asserted, each `(frame, expr)` of `facts`
/// asserted, and a violation of each `(frame, expr)` of `violated`
/// assumed. Returns whether that is satisfiable.
pub fn fresh_window(
    ctx: &Context,
    ts: &TransitionSystem,
    window: usize,
    facts: &[(usize, ExprRef)],
    violated: &[(usize, ExprRef)],
) -> bool {
    let mut unroller = Unroller::new(ctx, ts, false);
    unroller.ensure_frame(window);
    for &(frame, fact) in facts {
        let l = unroller.lit_at(frame, fact);
        unroller.blaster_mut().assert_lit(l);
    }
    let bad: Vec<Lit> = violated.iter().map(|&(frame, ok)| !unroller.lit_at(frame, ok)).collect();
    unroller.blaster_mut().solve_with_assumptions(&bad).is_sat()
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

/// The deterministic Flow-1 candidate pool of a design under `profile`,
/// parsed exactly as the flows parse a completion.
pub fn corpus_candidates(bundle: &DesignBundle, profile: ModelProfile) -> Vec<Candidate> {
    let targets: Vec<String> = bundle.targets.iter().map(|(_, sva)| sva.clone()).collect();
    let prompt = Prompt::flow1(bundle.spec, bundle.rtl, &targets);
    let completion = SyntheticLlm::new(profile, 42).complete(&prompt);
    parse_assertions(&completion.text)
        .into_iter()
        .enumerate()
        .map(|(i, assertion)| {
            let name = assertion.name.clone().unwrap_or_else(|| format!("candidate_{i}"));
            let unnamed = genfv_sva::Assertion { name: None, ..assertion.clone() };
            let text = genfv_sva::render_assertion(&unnamed);
            Candidate { name, text, assertion }
        })
        .collect()
}

/// Compiles every candidate onto one clone of the design, in input order
/// (monitor state only reads design signals, so candidates cannot change
/// each other's verdicts). Returns the clone and each candidate's property
/// or the compiler's message.
fn compile_on_clone(
    design: &PreparedDesign,
    candidates: &[Candidate],
) -> (Context, TransitionSystem, Vec<Result<Property, String>>) {
    let mut ctx = design.ctx.clone();
    let mut ts = design.ts.clone();
    let mut pc = PropertyCompiler::new(&mut ctx, &mut ts);
    let compiled = candidates
        .iter()
        .map(|cand| {
            pc.compile(&cand.assertion)
                .map(|c| Property::new(cand.name.clone(), c.ok))
                .map_err(|e| e.to_string())
        })
        .collect();
    (ctx, ts, compiled)
}

/// The classic Houdini loop on the reference engine: a standalone
/// [`bmc_rebuild`] run per candidate base case first, then the step
/// fixpoint at k = 1 with a fresh [`Unroller`] (full re-bit-blast,
/// brand-new solver) per strengthening iteration, lemmas asserted rather
/// than activated, and one solver query per alive candidate per sweep.
/// Houdini's fixpoint (the unique maximal mutually-inductive subset of the
/// base-clean candidates) is canonical, so `genfv_core`'s single-session
/// Houdini must accept exactly these indices into `candidates`.
pub fn reference_houdini(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidates: &[Candidate],
    config: &ValidateConfig,
) -> Vec<usize> {
    let (ctx, ts, compiled) = compile_on_clone(design, candidates);
    let exprs: Vec<Option<ExprRef>> =
        compiled.iter().map(|res| res.as_ref().ok().map(|p| p.ok)).collect();

    let mut alive: Vec<usize> = Vec::new();
    for (i, res) in compiled.iter().enumerate() {
        let Ok(prop) = res else { continue };
        if bmc_rebuild(&ctx, &ts, prop, proven_lemmas, config.bmc_depth, &config.check).is_clean() {
            alive.push(i);
        }
    }

    loop {
        if alive.is_empty() {
            break;
        }
        let mut unroller = Unroller::new(&ctx, &ts, false);
        unroller.ensure_frame(1);
        for &l in proven_lemmas {
            let l0 = unroller.lit_at(0, l);
            unroller.blaster_mut().assert_lit(l0);
            let l1 = unroller.lit_at(1, l);
            unroller.blaster_mut().assert_lit(l1);
        }
        let lits0: Vec<_> = alive
            .iter()
            .map(|&i| unroller.lit_at(0, exprs[i].expect("alive implies compiled")))
            .collect();
        let lits1: Vec<_> = alive
            .iter()
            .map(|&i| unroller.lit_at(1, exprs[i].expect("alive implies compiled")))
            .collect();

        let mut dropped_any = false;
        let mut still_alive = alive.clone();
        for (pos, _) in alive.iter().enumerate() {
            if !still_alive.contains(&alive[pos]) {
                continue;
            }
            let mut assumptions = Vec::with_capacity(lits0.len() + 1);
            for (p, &l0) in lits0.iter().enumerate() {
                if still_alive.contains(&alive[p]) {
                    assumptions.push(l0);
                }
            }
            assumptions.push(!lits1[pos]);
            match unroller.blaster_mut().solve_with_assumptions(&assumptions) {
                SolveResult::Sat => {
                    let model_false: Vec<usize> = alive
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| {
                            still_alive.contains(&alive[p])
                                && unroller.blaster().solver().value(lits1[p]) == Some(false)
                        })
                        .map(|(_, &i)| i)
                        .collect();
                    still_alive.retain(|i| !model_false.contains(i));
                    dropped_any = true;
                }
                SolveResult::Unsat => {}
                SolveResult::Unknown => {
                    still_alive.retain(|&i| i != alive[pos]);
                    dropped_any = true;
                }
            }
        }
        alive = still_alive;
        if !dropped_any {
            break;
        }
    }
    alive
}

/// The validation gauntlet of `genfv_core::validate_batch` on the
/// reference engine: per candidate, compile, then [`bmc_rebuild`] to the
/// sanity depth, then [`prove_rebuild`]; with `use_houdini`, the parked
/// candidates and those proven alone go to [`reference_houdini`], and a
/// parked survivor counts as proven at k = 1. Returns the accepted indices
/// and every candidate's outcome.
pub fn reference_gauntlet(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidates: &[Candidate],
    config: &ValidateConfig,
    use_houdini: bool,
) -> (Vec<usize>, Vec<ValidationOutcome>) {
    let (ctx, ts, compiled) = compile_on_clone(design, candidates);
    let mut outcomes: Vec<ValidationOutcome> = compiled
        .iter()
        .map(|res| {
            let prop = match res {
                Ok(prop) => prop,
                Err(e) => return ValidationOutcome::CompileRejected(e.clone()),
            };
            let sanity =
                bmc_rebuild(&ctx, &ts, prop, proven_lemmas, config.bmc_depth, &config.check);
            if let BmcResult::Falsified { at, .. } = sanity {
                return ValidationOutcome::FalseByBmc { at };
            }
            match prove_rebuild(&ctx, &ts, prop, proven_lemmas, &config.check) {
                ProveResult::Proven { k, .. } => ValidationOutcome::ProvenInductive { k },
                ProveResult::Falsified { at, .. } => ValidationOutcome::FalseByBmc { at },
                ProveResult::StepFailure { .. } => ValidationOutcome::NotInductiveAlone,
                ProveResult::Unknown { reason, .. } => ValidationOutcome::Unknown(reason),
            }
        })
        .collect();
    let parked = |o: &ValidationOutcome| *o == ValidationOutcome::NotInductiveAlone;
    if use_houdini && outcomes.iter().any(parked) {
        let pool: Vec<usize> = (0..outcomes.len())
            .filter(|&i| outcomes[i].is_proven() || parked(&outcomes[i]))
            .collect();
        let members: Vec<Candidate> = pool.iter().map(|&i| candidates[i].clone()).collect();
        for p in reference_houdini(design, proven_lemmas, &members, config) {
            if parked(&outcomes[pool[p]]) {
                outcomes[pool[p]] = ValidationOutcome::ProvenInductive { k: 1 };
            }
        }
    }
    let accepted = (0..outcomes.len()).filter(|&i| outcomes[i].is_proven()).collect();
    (accepted, outcomes)
}

/// Re-checks every answer of a flow `report` on the reference engine.
/// `design` is a fresh prepare of the design the flow ran on, and
/// `config` the flow's configuration. The report's lemmas are compiled
/// onto it from their texts, in install order (a text keeps the whole
/// assertion but its name, `disable iff` included).
/// Then:
///
/// * the lemmas, conjoined, prove by [`prove_rebuild`] within the
///   validation `max_k`, so each is an invariant;
/// * `Proven { k, lemmas_used }` proves at exactly `k` under the first
///   `lemmas_used` lemmas;
/// * `Falsified { at }` has its first violation at cycle `at` from reset;
/// * `StillUnproven { k }` fails the same way with no lemmas and `max_k`
///   set to `k`: no violation in the `k` cycles its base cases covered
///   (cycles `0..k`), a failing step at every depth up to `k` (fewer
///   assumptions fail wherever more did), and a step counterexample as
///   long as the reported one;
/// * no run ends `Unknown`: the tests set no budget.
///
/// Lemmas are never assumed for a counterexample: a real one needs none.
pub fn recheck_flow(mut design: PreparedDesign, report: &FlowReport, config: &FlowConfig) {
    let run = format!("{} under {}", report.design, report.model);
    let lemmas: Vec<ExprRef> = report
        .lemmas
        .iter()
        .map(|lemma| {
            let assertion = parse_assertion(&lemma.text).expect("lemma text parses");
            let mut pc = PropertyCompiler::new(&mut design.ctx, &mut design.ts);
            pc.compile(&assertion).expect("lemma text compiles").ok
        })
        .collect();
    let conjoined = (lemmas.split_first())
        .map(|(&first, rest)| rest.iter().fold(first, |all, &l| design.ctx.and(all, l)));
    let (ctx, ts) = (&design.ctx, &design.ts);
    if let Some(all) = conjoined {
        let res =
            prove_rebuild(ctx, ts, &Property::new("lemmas", all), &[], &config.validate.check);
        assert!(res.is_proven(), "{run}: the accepted lemmas do not prove together: {res:?}");
    }
    assert_eq!(report.targets.len(), design.targets.len(), "{run}: one report per target");
    for (target, reported) in design.targets.iter().zip(&report.targets) {
        let what = format!("{run}::{}", target.name);
        assert_eq!(reported.name, target.name, "{what}: reports follow the target order");
        match &reported.outcome {
            &TargetOutcome::Proven { k, lemmas_used } => {
                assert!(lemmas_used <= lemmas.len(), "{what}: {lemmas_used} lemmas used");
                let used = &lemmas[..lemmas_used];
                match prove_rebuild(ctx, ts, &target.prop, used, &config.check) {
                    ProveResult::Proven { k: reference, .. } => {
                        assert_eq!(reference, k, "{what}: proof depth")
                    }
                    other => panic!("{what}: reported proven at k={k}, reference {other:?}"),
                }
            }
            &TargetOutcome::Falsified { at } => {
                match bmc_rebuild(ctx, ts, &target.prop, &[], at, &config.check) {
                    BmcResult::Falsified { at: reference, .. } => {
                        assert_eq!(reference, at, "{what}: violation cycle")
                    }
                    other => panic!("{what}: reported falsified at {at}, reference {other:?}"),
                }
            }
            TargetOutcome::StillUnproven { k, trace } => {
                let check = CheckConfig { max_k: *k, ..config.check.clone() };
                match prove_rebuild(ctx, ts, &target.prop, &[], &check) {
                    ProveResult::StepFailure { k: reference, trace: cex, .. } => {
                        assert_eq!(reference, *k, "{what}: step-failure depth");
                        assert_eq!(cex.steps.len(), trace.steps.len(), "{what}: step CEX length");
                    }
                    other => panic!("{what}: reported unproven at k={k}, reference {other:?}"),
                }
            }
            TargetOutcome::Unknown { reason } => panic!("{what}: unknown ({reason})"),
        }
    }
}
