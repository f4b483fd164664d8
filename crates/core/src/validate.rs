//! Candidate-lemma validation.
//!
//! Nothing an LLM produces is trusted (paper Section VI: "one must be aware
//! of the limitations of using GenAI especially for artificial
//! hallucinations"). Every candidate assertion passes through this
//! gauntlet before it may strengthen a proof:
//!
//! 1. **parse** — already done by `genfv_sva::parse_assertions` upstream;
//! 2. **compile** — binds signals; phantom references die here;
//! 3. **BMC sanity** — a bounded search for a *reachable* violation;
//!    candidates that are simply false die here;
//! 4. **induction** — the candidate must prove (given already-accepted
//!    lemmas); candidates that are plausibly true but not inductive are
//!    parked for the Houdini pool rather than rejected.
//!
//! Validation works on clones of the design so rejected candidates leave
//! no residue (monitor registers) in the real transition system.

use crate::design::PreparedDesign;
use genfv_ir::{Context, ExprRef, TransitionSystem};
use genfv_mc::{CheckConfig, ProofSession, Property, ProveResult};
use genfv_sva::{Assertion, PropertyCompiler};

/// Why (or how) a candidate survived or died.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationOutcome {
    /// The assertion references unknown signals or has type errors.
    CompileRejected(String),
    /// A reachable counterexample exists within the sanity bound: the
    /// candidate is false.
    FalseByBmc {
        /// Cycle of the violation.
        at: usize,
    },
    /// Proven invariant (inductive at depth `k` given prior lemmas).
    ProvenInductive {
        /// Depth at which the step case closed.
        k: usize,
    },
    /// Looks true (no bounded CEX) but does not prove by itself; eligible
    /// for joint (Houdini) induction.
    NotInductiveAlone,
    /// Resource budget expired; treated as rejection.
    Unknown(String),
}

impl ValidationOutcome {
    /// Whether the candidate was proven on its own.
    pub fn is_proven(&self) -> bool {
        matches!(self, ValidationOutcome::ProvenInductive { .. })
    }
}

/// A candidate assertion (text + parsed form).
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Generated property name (for reports).
    pub name: String,
    /// Raw boolean/temporal source text.
    pub text: String,
    /// Parsed assertion.
    pub assertion: Assertion,
}

/// A validated, accepted lemma.
#[derive(Clone, Debug)]
pub struct Lemma {
    /// Name for reports.
    pub name: String,
    /// Source text (as emitted by the model).
    pub text: String,
    /// Compiled 1-bit invariant over the *main* design context.
    pub expr: ExprRef,
}

/// Validation configuration.
#[derive(Clone, Debug)]
pub struct ValidateConfig {
    /// BMC sanity depth for false-candidate detection.
    pub bmc_depth: usize,
    /// Induction settings for candidate proofs.
    pub check: CheckConfig,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        ValidateConfig { bmc_depth: 10, check: CheckConfig { max_k: 4, ..Default::default() } }
    }
}

/// Validates one candidate against a clone of the design.
///
/// `proven_lemmas` (expressions over the design context) are assumed
/// during both the BMC sanity check and the induction attempt — sound,
/// since they are already proven invariants.
///
/// The BMC sanity check and the induction attempt share one incremental
/// [`ProofSession`]: the design is bit-blasted once per candidate (it used to
/// be three times — BMC, base unroller, step unroller).
pub fn validate_candidate(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidate: &Candidate,
    config: &ValidateConfig,
) -> ValidationOutcome {
    // Work on clones so rejected candidates leave no monitor residue.
    let mut ctx = design.ctx.clone();
    let mut ts = design.ts.clone();
    let compiled = {
        let mut pc = PropertyCompiler::new(&mut ctx, &mut ts);
        match pc.compile(&candidate.assertion) {
            Ok(c) => c,
            Err(e) => return ValidationOutcome::CompileRejected(e.to_string()),
        }
    };
    let prop = Property::new(candidate.name.clone(), compiled.ok);
    let mut session = ProofSession::new(&ctx, &ts, config.check.clone());
    session.add_lemmas(proven_lemmas);
    check_on_session(&mut session, &prop, config)
}

/// Compiles every candidate onto one clone of the design, in input order.
/// Returns the clone and, index-aligned with `candidates`, each compiled
/// property or the compiler's message.
///
/// Sharing the clone is sound because monitor state only reads design
/// signals and feeds nothing back: one candidate's monitors cannot change
/// another's verdict. Compilation finishes before any session is opened
/// on the clone, so every monitor unrolls with the frames.
pub(crate) fn compile_on_clone(
    design: &PreparedDesign,
    candidates: &[Candidate],
) -> (Context, TransitionSystem, Vec<Result<Property, String>>) {
    let mut ctx = design.ctx.clone();
    let mut ts = design.ts.clone();
    let compiled = {
        let mut pc = PropertyCompiler::new(&mut ctx, &mut ts);
        candidates
            .iter()
            .map(|cand| {
                pc.compile(&cand.assertion)
                    .map(|c| Property::new(cand.name.clone(), c.ok))
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    (ctx, ts, compiled)
}

/// The validation gauntlet steps 3 and 4 (BMC sanity, then induction with
/// prior lemmas assumed) on an existing session whose design already
/// contains the compiled property. Shared by [`validate_candidate`] and
/// [`crate::houdini::validate_batch`], which runs a whole batch on one
/// session.
pub(crate) fn check_on_session(
    session: &mut ProofSession<'_>,
    prop: &Property,
    config: &ValidateConfig,
) -> ValidationOutcome {
    // BMC sanity: reachable violation ⇒ the candidate is false. The
    // trace-free reachability form suffices (validation only reports the
    // cycle), and its UNSAT answers are cached by the session so the
    // induction attempt's base cases are already discharged.
    if let Some(at) = session.first_violation(prop.ok, config.bmc_depth) {
        return ValidationOutcome::FalseByBmc { at };
    }
    match session.prove(prop) {
        ProveResult::Proven { k, .. } => ValidationOutcome::ProvenInductive { k },
        ProveResult::Falsified { at, .. } => ValidationOutcome::FalseByBmc { at },
        ProveResult::StepFailure { .. } => ValidationOutcome::NotInductiveAlone,
        ProveResult::Unknown { reason, .. } => ValidationOutcome::Unknown(reason),
    }
}

/// Compiles an accepted candidate onto the *main* design (mutating it) and
/// returns the lemma record.
///
/// # Errors
/// Returns the compiler error message if compilation unexpectedly fails
/// (it succeeded on the clone, so this indicates a bug).
pub fn install_lemma(design: &mut PreparedDesign, candidate: &Candidate) -> Result<Lemma, String> {
    let mut pc = PropertyCompiler::new(&mut design.ctx, &mut design.ts);
    let compiled = pc.compile(&candidate.assertion).map_err(|e| e.to_string())?;
    Ok(Lemma { name: candidate.name.clone(), text: candidate.text.clone(), expr: compiled.ok })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genfv_sva::parse_assertion;

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

    /// The lockstep counters prepared for plain induction
    /// (`OptLevel::None`): at the default, register correspondence merges
    /// them and no candidate here is left non-inductive.
    fn design() -> PreparedDesign {
        let plain = crate::OptConfig::default().with_level(crate::OptLevel::None);
        PreparedDesign::with_opt("sync_counters", SYNC, "lockstep counters", &[], &plain).unwrap()
    }

    fn candidate(text: &str) -> Candidate {
        Candidate {
            name: "cand".to_string(),
            text: text.to_string(),
            assertion: parse_assertion(text).unwrap(),
        }
    }

    #[test]
    fn good_lemma_proves() {
        let d = design();
        let out = validate_candidate(&d, &[], &candidate("count1 == count2"), &Default::default());
        assert_eq!(out, ValidationOutcome::ProvenInductive { k: 1 });
    }

    #[test]
    fn phantom_signal_compile_rejected() {
        let d = design();
        let out =
            validate_candidate(&d, &[], &candidate("count1 == count2_reg"), &Default::default());
        assert!(matches!(out, ValidationOutcome::CompileRejected(_)), "{out:?}");
    }

    #[test]
    fn false_candidate_caught_by_bmc() {
        let d = design();
        // count1 != count2 is false from reset (both zero).
        let out = validate_candidate(&d, &[], &candidate("count1 != count2"), &Default::default());
        assert_eq!(out, ValidationOutcome::FalseByBmc { at: 0 });
    }

    #[test]
    fn false_later_candidate_caught_by_deeper_bmc() {
        let d = design();
        // count1 < 5 fails at cycle 5.
        let out = validate_candidate(&d, &[], &candidate("count1 < 8'd5"), &Default::default());
        assert_eq!(out, ValidationOutcome::FalseByBmc { at: 5 });
    }

    #[test]
    fn true_but_not_inductive_is_parked() {
        let d = design();
        // The paper's target: true, passes BMC, fails induction alone.
        let out =
            validate_candidate(&d, &[], &candidate("&count1 |-> &count2"), &Default::default());
        assert_eq!(out, ValidationOutcome::NotInductiveAlone);
    }

    #[test]
    fn lemma_assumption_upgrades_candidate() {
        let mut d = design();
        // Prove equality first, install it, then the implication proves.
        let eq = candidate("count1 == count2");
        assert!(validate_candidate(&d, &[], &eq, &Default::default()).is_proven());
        let lemma = install_lemma(&mut d, &eq).unwrap();
        let out = validate_candidate(
            &d,
            &[lemma.expr],
            &candidate("&count1 |-> &count2"),
            &Default::default(),
        );
        assert!(out.is_proven(), "{out:?}");
    }

    #[test]
    fn validation_leaves_no_residue() {
        let d = design();
        let states_before = d.ts.states().len();
        let _ = validate_candidate(
            &d,
            &[],
            &candidate("$past(count1) <= count1 || count1 == 8'd0"),
            &Default::default(),
        );
        assert_eq!(d.ts.states().len(), states_before, "clone-based validation");
    }
}
