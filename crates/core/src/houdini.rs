//! Houdini-style joint inductive filtering, and the batch validator that
//! feeds it.
//!
//! Individually non-inductive candidates can still be *mutually* inductive
//! (each one's step case needs the others as hypotheses). The classic
//! Houdini algorithm finds the unique maximal inductive subset of a
//! candidate conjunction: repeatedly drop every candidate falsified in
//! some step-case model until the remainder is inductive. Combined with a
//! base-case (BMC) check per candidate, every survivor is a proven
//! invariant and may be used as a lemma.
//!
//! ## Incremental architecture
//!
//! [`validate_batch`] compiles the whole candidate batch onto **one**
//! design clone and opens **one** [`genfv_mc::ProofSession`] (one
//! bit-blast, one persistent solver per direction) on the caller's thread.
//! Every candidate's BMC sanity check and induction attempt runs there in
//! input order, and then the Houdini fixpoint over the stragglers runs on
//! that same session:
//!
//! * each candidate's frame-0 hypothesis hangs off a *selector literal*
//!   (`sel → cand@0`); the iteration assumes the selectors of the alive
//!   set, and dropping a falsified candidate just retires its selector —
//!   no re-bit-blast, and the solver keeps everything it has learnt;
//! * each iteration checks **all** frame-1 obligations in a single query
//!   through a violation-witness literal (`w → ⋁ ¬candᵢ@1`): UNSAT means
//!   the alive set is inductive (fixpoint, and the assumption core names
//!   the hypotheses that carried the proof); SAT yields a model whose
//!   false obligations are exactly the candidates to drop;
//! * base cases ([`genfv_mc::ProofSession::first_violation`], frame by frame
//!   with early exit over the same session) are **deferred** until the step
//!   fixpoint stabilises and run only for its survivors; a base drop
//!   re-enters the fixpoint. The classic base-first formulation and this
//!   order converge to the same set — the greatest jointly-inductive
//!   subset of the base-clean candidates — but the deferred order keeps
//!   the solver at two frames for the bulk of the sweeps and never pays
//!   deep unrolling for candidates the fixpoint kills anyway. Inside
//!   [`validate_batch`] every pool member already passed BMC sanity on
//!   the session, so these checks are clean-depth cache hits with no
//!   solve.
//!
//! Sharing one session is sound: monitor state only reads design signals,
//! and every outcome is fixed by the logic rather than by solver state
//! (first violating cycle, least closing `k`, step SAT/UNSAT, and the
//! unique greatest fixpoint whatever order Houdini drops candidates in).
//!
//! [`houdini()`] runs the same fixpoint standalone on a fresh clone and
//! session; its solver-reuse counters are returned in
//! [`HoudiniResult::session`].
//!
//! The classic formulation (a fresh engine per strengthening iteration,
//! base cases first) is not library code: the differential tests in
//! `genfv-designs` keep it as the reference both entry points must match.

use crate::design::PreparedDesign;
use crate::validate::{
    check_on_session, compile_on_clone, Candidate, ValidateConfig, ValidationOutcome,
};
use genfv_ir::ExprRef;
use genfv_mc::{ProofSession, Property, SessionStats};
use genfv_sat::SolveResult;

/// Result of a Houdini run.
#[derive(Clone, Debug, Default)]
pub struct HoudiniResult {
    /// Indices (into the input slice) of candidates in the maximal
    /// mutually-inductive subset.
    pub accepted: Vec<usize>,
    /// Number of strengthening iterations performed.
    pub iterations: usize,
    /// Solver queries issued (assumption-based, on the one session).
    pub solver_calls: usize,
    /// Solver-reuse statistics: `session.bitblasts` is 1 for any run with
    /// candidates, however many iterations the fixpoint takes.
    pub session: SessionStats,
    /// Indices (into the input slice) of the hypotheses whose selectors
    /// appeared in the assumption core of the final fixpoint-establishing
    /// UNSAT sweep — the candidates that actually *carried* the joint
    /// induction proof. A subset of `accepted`; empty when the pool died
    /// entirely.
    pub carried: Vec<usize>,
}

/// Compiled expressions of `compiled`, `None` for compile rejects.
fn exprs_of(compiled: &[Result<Property, String>]) -> Vec<Option<ExprRef>> {
    compiled.iter().map(|res| res.as_ref().ok().map(|p| p.ok)).collect()
}

/// Runs Houdini over `candidates` on a clone of the design.
///
/// `proven_lemmas` are assumed throughout. Candidates that fail to compile
/// or fail the base case are dropped. The returned indices refer to the
/// input slice.
pub fn houdini(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidates: &[Candidate],
    config: &ValidateConfig,
) -> HoudiniResult {
    if candidates.is_empty() {
        return HoudiniResult::default();
    }
    let (ctx, ts, compiled) = compile_on_clone(design, candidates);
    // The one bit-blast of this run.
    let mut session = ProofSession::new(&ctx, &ts, config.check.clone());
    session.add_lemmas(proven_lemmas);
    let mut result = houdini_on_session(&mut session, &exprs_of(&compiled), config.bmc_depth);
    result.solver_calls = session.stats().solver_calls as usize;
    result.session = *session.stats();
    result
}

/// The Houdini fixpoint on an open session whose design already contains
/// every compiled candidate. `exprs[i]` is candidate `i`'s invariant, or
/// `None` to leave it out of the pool; the returned indices refer to
/// `exprs`. Base cases run to `bmc_depth`. The session and its counters
/// belong to the caller, so `solver_calls` and `session` stay unset.
pub(crate) fn houdini_on_session(
    session: &mut ProofSession<'_>,
    exprs: &[Option<ExprRef>],
    bmc_depth: usize,
) -> HoudiniResult {
    let mut result = HoudiniResult::default();
    // Work order: the 2-frame step fixpoint runs *first* over every
    // compiled candidate, and the (deeper-unrolling) base cases are only
    // checked for fixpoint survivors; any base drop re-enters the
    // fixpoint. This converges to the classic base-first answer — the
    // final set is the greatest jointly-inductive subset of the base-clean
    // candidates, every intermediate fixpoint contains it, and base
    // verdicts are per-candidate — while keeping the solver small during
    // the bulk of the sweeps and skipping bounded-reachability work for
    // candidates that die in the fixpoint anyway.
    let mut alive: Vec<usize> = (0..exprs.len()).filter(|&i| exprs[i].is_some()).collect();

    // Selector-guarded hypotheses at frame 0, batched obligations at
    // frame 1.
    let mut selectors: Vec<Option<genfv_sat::Lit>> = vec![None; exprs.len()];
    let mut obligations: Vec<Option<genfv_sat::Lit>> = vec![None; exprs.len()];
    for &i in &alive {
        let e = exprs[i].expect("alive implies compiled");
        let sel = session.new_selector();
        session.guard_fact(sel, 0, e);
        selectors[i] = Some(sel);
        obligations[i] = Some(session.literal(1, e));
    }
    let mut base_checked: Vec<bool> = vec![false; exprs.len()];

    'outer: loop {
        result.iterations += 1;
        if alive.is_empty() {
            break;
        }
        let batch: Vec<(usize, ExprRef)> =
            alive.iter().map(|&i| (1, exprs[i].expect("alive"))).collect();
        let witness = session.new_violation_witness(&batch);
        let mut assumptions: Vec<genfv_sat::Lit> =
            alive.iter().map(|&i| selectors[i].expect("alive has selector")).collect();
        assumptions.push(witness);
        let res = session.solve_under(false, 1, &assumptions);
        // Each witness is for one iteration only; retire it so later
        // models are not forced to satisfy a stale disjunction.
        session.retire_selector(witness);
        match res {
            SolveResult::Unsat => {
                // Fixpoint w.r.t. the step case: every obligation holds
                // under the alive hypotheses. The assumption core names
                // the hypotheses that actually carried the proof — record
                // them (the final fixpoint's core is what gets reported).
                let core = session.last_core().to_vec();
                result.carried = alive
                    .iter()
                    .copied()
                    .filter(|&i| selectors[i].is_some_and(|s| core.contains(&s)))
                    .collect();
                // Now pay for the deferred base cases; any drop re-enters
                // the fixpoint.
                if !base_check_survivors(
                    session,
                    &mut alive,
                    &mut selectors,
                    &mut base_checked,
                    exprs,
                    bmc_depth,
                ) {
                    break 'outer;
                }
            }
            SolveResult::Sat => {
                // Drop every candidate falsified at frame 1 in this model
                // (standard Houdini acceleration) by flipping selectors.
                let model_false: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|&i| {
                        session.value(obligations[i].expect("alive has obligation")) == Some(false)
                    })
                    .collect();
                debug_assert!(!model_false.is_empty());
                for &i in &model_false {
                    session.retire_selector(selectors[i].take().expect("alive"));
                }
                alive.retain(|i| !model_false.contains(i));
            }
            SolveResult::Unknown => {
                // Budget pressure: fall back to per-candidate obligations
                // for this iteration, dropping any that stay unknown —
                // the classic loop's conservative behaviour.
                let mut dropped_any = false;
                let snapshot = alive.clone();
                for &i in &snapshot {
                    if !alive.contains(&i) {
                        continue;
                    }
                    let mut asm: Vec<genfv_sat::Lit> =
                        alive.iter().map(|&j| selectors[j].expect("alive has selector")).collect();
                    asm.push(!obligations[i].expect("alive has obligation"));
                    match session.solve_under(false, 1, &asm) {
                        SolveResult::Unsat => {}
                        SolveResult::Sat => {
                            let model_false: Vec<usize> = alive
                                .iter()
                                .copied()
                                .filter(|&j| {
                                    session.value(obligations[j].expect("alive")) == Some(false)
                                })
                                .collect();
                            for &j in &model_false {
                                session.retire_selector(selectors[j].take().expect("alive"));
                            }
                            alive.retain(|j| !model_false.contains(j));
                            dropped_any = true;
                        }
                        SolveResult::Unknown => {
                            session.retire_selector(selectors[i].take().expect("alive"));
                            alive.retain(|&j| j != i);
                            dropped_any = true;
                        }
                    }
                }
                if !dropped_any
                    && !base_check_survivors(
                        session,
                        &mut alive,
                        &mut selectors,
                        &mut base_checked,
                        exprs,
                        bmc_depth,
                    )
                {
                    // The fixpoint closed through per-candidate queries,
                    // not a recorded batched sweep: any earlier core was
                    // computed under a since-shrunk hypothesis set.
                    result.carried.clear();
                    break 'outer;
                }
            }
        }
    }

    result.accepted = alive;
    // A base-case drop after the last recorded fixpoint can invalidate
    // core members; keep `carried` a subset of the survivors.
    result.carried.retain(|i| result.accepted.contains(i));
    result
}

/// Runs the bounded-reachability base case for every alive candidate that
/// has not had one yet ([`ProofSession::first_violation`], frame by frame
/// with early exit, all on the session's persistent base solver),
/// retiring and removing the violated ones. Returns whether anything was
/// dropped (in which case the step fixpoint must re-run without the
/// dropped hypotheses).
fn base_check_survivors(
    session: &mut ProofSession<'_>,
    alive: &mut Vec<usize>,
    selectors: &mut [Option<genfv_sat::Lit>],
    base_checked: &mut [bool],
    exprs: &[Option<ExprRef>],
    depth: usize,
) -> bool {
    let mut dropped = false;
    let snapshot = alive.clone();
    for &i in &snapshot {
        if base_checked[i] {
            continue;
        }
        base_checked[i] = true;
        let e = exprs[i].expect("alive implies compiled");
        if session.first_violation(e, depth).is_some() {
            session.retire_selector(selectors[i].take().expect("alive has selector"));
            alive.retain(|&j| j != i);
            dropped = true;
        }
    }
    dropped
}

/// Validates a candidate batch: individual induction first, then Houdini
/// over the stragglers. Returns `(accepted_indices, outcomes, stats)`,
/// the last being the solver-reuse statistics of the batch.
///
/// Every candidate is compiled onto one design clone, and one
/// [`ProofSession`] with `proven_lemmas` installed answers each
/// candidate's BMC sanity check and induction attempt, in input order, on
/// the caller's thread (the clone, the compile and these checks sit
/// inside a `flow.validate` span). When
/// `use_houdini` is set and some candidates were parked, the Houdini
/// fixpoint then runs on that same session (inside a `flow.houdini`
/// span), so the whole batch costs one bit-blast.
pub fn validate_batch(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidates: &[Candidate],
    config: &ValidateConfig,
    use_houdini: bool,
) -> (Vec<usize>, Vec<ValidationOutcome>, SessionStats) {
    if candidates.is_empty() {
        return (Vec::new(), Vec::new(), SessionStats::default());
    }
    let obs = &config.check.obs;
    let validate_span = obs.span("flow.validate");
    let (ctx, ts, compiled) = compile_on_clone(design, candidates);
    let mut session = ProofSession::new(&ctx, &ts, config.check.clone());
    session.add_lemmas(proven_lemmas);
    let mut outcomes: Vec<ValidationOutcome> = compiled
        .iter()
        .map(|res| match res {
            Err(e) => ValidationOutcome::CompileRejected(e.clone()),
            Ok(prop) => check_on_session(&mut session, prop, config),
        })
        .collect();
    drop(validate_span);

    // Houdini pools the parked stragglers with the individually proven
    // candidates, which mutual induction may need as hypotheses. It only
    // adds: a candidate proven alone stays accepted whatever the fixpoint
    // says.
    let parked = |o: &ValidationOutcome| *o == ValidationOutcome::NotInductiveAlone;
    if use_houdini && outcomes.iter().any(parked) {
        let _span = obs.span("flow.houdini");
        let mut exprs = vec![None; compiled.len()];
        for (i, outcome) in outcomes.iter().enumerate() {
            if outcome.is_proven() || parked(outcome) {
                exprs[i] = compiled[i].as_ref().ok().map(|p| p.ok);
            }
        }
        for i in houdini_on_session(&mut session, &exprs, config.bmc_depth).accepted {
            if parked(&outcomes[i]) {
                outcomes[i] = ValidationOutcome::ProvenInductive { k: 1 };
            }
        }
    }
    let accepted = (0..outcomes.len()).filter(|&i| outcomes[i].is_proven()).collect();
    (accepted, outcomes, *session.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_candidate;
    use genfv_obs::{Obs, ObsConfig, QueryKind};
    use genfv_sva::parse_assertion;

    fn cand(text: &str) -> Candidate {
        Candidate {
            name: format!("c_{}", text.len()),
            text: text.to_string(),
            assertion: parse_assertion(text).unwrap(),
        }
    }

    /// Two counters where neither bound is inductive alone but the pair is:
    /// a and b increment in lockstep mod 4 using each other's values.
    /// Prepared for plain induction (`OptLevel::None`): at the default,
    /// register correspondence merges `a` and `b`, and every bound here
    /// proves alone.
    fn mutually_inductive_design() -> PreparedDesign {
        let rtl = r#"
module pair (input clk, rst, output logic [3:0] a, b);
  always_ff @(posedge clk) begin
    if (rst) begin a <= 4'd0; b <= 4'd0; end
    else begin a <= b + 4'd1; b <= a + 4'd1; end
  end
endmodule
"#;
        let plain = crate::OptConfig::default().with_level(crate::OptLevel::None);
        PreparedDesign::with_opt("pair", rtl, "mutual counters", &[], &plain).unwrap()
    }

    const SYNC: &str = r#"
module sync_counters (input clk, rst, output logic [7:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 8'b0;
      count2 <= 8'b0;
    end else begin
      count1++;
      count2++;
    end
  end
endmodule
"#;

    #[test]
    fn houdini_keeps_mutually_inductive_pair() {
        let d = mutually_inductive_design();
        // a == b is inductive alone here; craft a genuinely mutual pair:
        // p1: a == b, p2: &a |-> &b. p2 needs p1.
        let cands = vec![cand("a == b"), cand("&a |-> &b")];
        let res = houdini(&d, &[], &cands, &Default::default());
        assert_eq!(res.accepted, vec![0, 1], "both survive jointly");
    }

    #[test]
    fn houdini_drops_false_members() {
        let d = mutually_inductive_design();
        let cands = vec![
            cand("a == b"),
            cand("a != b"),   // false from reset: base case kills it
            cand("a < 4'd3"), // false eventually
        ];
        let res = houdini(&d, &[], &cands, &Default::default());
        assert_eq!(res.accepted, vec![0]);
    }

    #[test]
    fn houdini_drops_non_inductive_junk_but_keeps_core() {
        let d = mutually_inductive_design();
        let cands = vec![
            cand("&a |-> &b"), // needs a==b, which is absent: dropped
        ];
        let res = houdini(&d, &[], &cands, &Default::default());
        assert!(res.accepted.is_empty(), "alone it is not inductive: {res:?}");
    }

    #[test]
    fn validate_batch_combines_individual_and_houdini() {
        let d = mutually_inductive_design();
        let cands = vec![
            cand("a == b"),          // proves alone
            cand("&a |-> &b"),       // proves only via Houdini with #0
            cand("a == b_typo_sig"), // compile reject
            cand("a != b"),          // false
        ];
        let (accepted, outcomes, _) = validate_batch(&d, &[], &cands, &Default::default(), true);
        assert_eq!(accepted, vec![0, 1]);
        assert!(matches!(outcomes[2], ValidationOutcome::CompileRejected(_)));
        assert!(matches!(outcomes[3], ValidationOutcome::FalseByBmc { .. }));
    }

    #[test]
    fn incremental_houdini_bitblasts_once() {
        let d = mutually_inductive_design();
        // A mix that exercises the base case, a strengthening drop, and
        // the UNSAT fixpoint — every phase on the one session.
        let cands = vec![cand("a == b"), cand("&a |-> &b"), cand("a < 4'd3")];
        let res = houdini(&d, &[], &cands, &Default::default());
        let s = res.session;
        assert_eq!(s.bitblasts, 1, "the whole run must bit-blast exactly once");
        assert!(s.solver_calls >= 2, "base cases + at least one sweep");
        assert_eq!(
            s.rebuilds_avoided,
            s.solver_calls - 1,
            "every query after the first reuses the loaded solver"
        );
        assert_eq!(res.solver_calls as u64, s.solver_calls);
        assert!(s.selectors_created >= 2, "hypothesis selectors + witnesses");
        assert!(s.clauses_retained > 0, "clause capital carried between queries");
        assert_eq!(res.accepted, vec![0, 1]);
    }

    #[test]
    fn validate_batch_without_houdini_parks_stragglers() {
        let d = mutually_inductive_design();
        let cands = vec![cand("a == b"), cand("&a |-> &b")];
        let (accepted, outcomes, _) = validate_batch(&d, &[], &cands, &Default::default(), false);
        assert_eq!(accepted, vec![0]);
        assert_eq!(outcomes[1], ValidationOutcome::NotInductiveAlone);
    }

    /// Individual checks and the Houdini fixpoint of one batch share one
    /// clone and one session: one bit-blast in all, and Houdini's deferred
    /// base cases are answered from the clean depths BMC sanity recorded.
    #[test]
    fn validate_batch_bitblasts_once() {
        let d = mutually_inductive_design();
        let cands = vec![cand("a == b"), cand("&a |-> &b"), cand("a < 4'd3"), cand("a != b")];
        let run = |use_houdini: bool| {
            let mut config = ValidateConfig::default();
            config.check.obs = Obs::new(ObsConfig::Deterministic);
            let (accepted, _, stats) = validate_batch(&d, &[], &cands, &config, use_houdini);
            let metrics = config.check.obs.metrics().expect("obs enabled");
            (accepted, stats, metrics.latency(QueryKind::Base).count)
        };
        let (accepted, stats, base_calls) = run(true);
        assert_eq!(accepted, vec![0, 1], "the pair needs Houdini");
        assert_eq!(stats.bitblasts, 1, "one session for the whole batch");
        assert_eq!(stats.rebuilds_avoided, stats.solver_calls - 1);

        // The same batch without the Houdini stage issues exactly as many
        // base-case solves: the fixpoint's base checks all hit the cache.
        let (alone, alone_stats, alone_base_calls) = run(false);
        assert_eq!(alone, vec![0]);
        assert_eq!(alone_stats.bitblasts, 1);
        assert_eq!(base_calls, alone_base_calls, "deferred base cases hit the clean-depth cache");
    }

    /// The batch answers exactly what a fresh clone and session per
    /// candidate answer, and its accepted set is standalone Houdini's
    /// fixpoint plus the candidates proven alone.
    #[test]
    fn batch_matches_per_candidate() {
        let design = PreparedDesign::new("sync", SYNC, "spec", &[]).unwrap();
        let candidates = vec![
            cand("count1 == count2"),
            cand("count1 != count2"),
            cand("count1 == phantom"),
            cand("&count1 |-> &count2"),
            cand("count2 == count1"),
            cand("count1 < 8'd5"),
        ];
        let config = ValidateConfig::default();
        let per_candidate: Vec<ValidationOutcome> =
            candidates.iter().map(|c| validate_candidate(&design, &[], c, &config)).collect();
        let (_, batch, _) = validate_batch(&design, &[], &candidates, &config, false);
        assert_eq!(batch, per_candidate);

        let (accepted, _, _) = validate_batch(&design, &[], &candidates, &config, true);
        let mut expected = houdini(&design, &[], &candidates, &config).accepted;
        expected.extend((0..candidates.len()).filter(|&i| per_candidate[i].is_proven()));
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(accepted, expected);
        assert_eq!(accepted, vec![0, 3, 4]);
    }

    #[test]
    fn batch_empty_and_single_inputs() {
        let design = PreparedDesign::new("sync", SYNC, "spec", &[]).unwrap();
        let config = ValidateConfig::default();
        let (accepted, outcomes, stats) = validate_batch(&design, &[], &[], &config, true);
        assert!(accepted.is_empty() && outcomes.is_empty());
        assert_eq!(stats.bitblasts, 0, "an empty batch opens no session");
        let (accepted, outcomes, _) =
            validate_batch(&design, &[], &[cand("count1 == count2")], &config, true);
        assert_eq!(accepted, vec![0]);
        assert!(outcomes[0].is_proven());
    }
}
