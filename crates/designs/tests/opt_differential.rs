//! Differential suite: the prepare-time optimization pipeline must never
//! change what the flows conclude.
//!
//! Every design is prepared twice — at `OptLevel::None` (the system
//! exactly as elaborated) and at the default `OptLevel::Full` — and
//! driven through the same checks. The pipeline's passes split into two
//! soundness classes:
//!
//! * **semantics-preserving** (rewriting, rebalancing, sweep, COI under
//!   the full constraint/signal support closure): every reachable trace
//!   projects identically onto the surviving observables, so BMC
//!   verdicts, falsification cycles, and proof classes must be *equal*;
//! * **strengthening** (stuck-at register folding substitutes a proven
//!   invariant `x == c`; register correspondence substitutes a proven
//!   `r == s` for a lockstep pair): unreachable induction-step
//!   counterexamples can disappear, so an optimized proof may close at a
//!   *smaller* k — or close where the baseline stalled — but never the
//!   reverse, and never with a different counterexample cycle.
//!
//! `assert_no_regression` encodes exactly that order: optimized verdicts
//! must match the baseline or improve on it, and any real falsification
//! must land on the identical cycle.

use genfv_core::{
    run_baseline, run_flow1, run_flow2, FlowConfig, OptConfig, OptLevel, PreparedDesign,
    TargetOutcome,
};
use genfv_designs::DesignBundle;
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{BmcResult, CheckConfig, ProofSession, ProveResult, UnrollMode};

fn baseline_prep(bundle: &DesignBundle) -> PreparedDesign {
    bundle.prepare_with(&OptConfig::default().with_level(OptLevel::None)).expect("baseline prepare")
}

fn optimized_prep(bundle: &DesignBundle) -> PreparedDesign {
    bundle.prepare().expect("optimized prepare")
}

fn cfg(mode: UnrollMode) -> CheckConfig {
    CheckConfig { max_k: 4, unroll_mode: mode, ..Default::default() }
}

/// Optimized-vs-baseline verdict discipline: equal, or improved in the
/// strengthening direction only.
fn assert_no_regression(base: &ProveResult, opt: &ProveResult, what: &str) {
    match (base, opt) {
        (ProveResult::Proven { k: kb, .. }, ProveResult::Proven { k: ko, .. }) => {
            assert!(ko <= kb, "optimization raised the proof depth on {what}: {kb} -> {ko}");
        }
        (
            ProveResult::Falsified { at: a, trace: ta, .. },
            ProveResult::Falsified { at: b, trace: tb, .. },
        ) => {
            assert_eq!(a, b, "violation cycle diverged on {what}");
            assert_eq!(ta.steps.len(), tb.steps.len(), "trace length diverged on {what}");
        }
        // Strengthening: a baseline stall may close under optimization.
        (ProveResult::StepFailure { .. }, ProveResult::Proven { .. })
        | (ProveResult::Unknown { .. }, ProveResult::Proven { .. })
        | (ProveResult::StepFailure { .. }, ProveResult::StepFailure { .. })
        | (ProveResult::Unknown { .. }, ProveResult::Unknown { .. }) => {}
        (b, o) => panic!("verdict diverged on {what}: baseline {b:?} vs optimized {o:?}"),
    }
}

fn full_corpus() -> Vec<DesignBundle> {
    genfv_designs::all_designs().into_iter().chain(genfv_designs::datapath_designs()).collect()
}

/// Induction proofs across the whole corpus (datapath included), in both
/// unroll modes: the optimized netlist must prove everything the
/// elaborated one proves, at no greater depth, with identical
/// counterexamples.
#[test]
fn optimized_proofs_never_regress_on_corpus() {
    for mode in [UnrollMode::Template, UnrollMode::DagWalk] {
        for bundle in full_corpus() {
            let base = baseline_prep(&bundle);
            let opt = optimized_prep(&bundle);
            let mut base_session = ProofSession::new(&base.ctx, &base.ts, cfg(mode));
            let mut opt_session = ProofSession::new(&opt.ctx, &opt.ts, cfg(mode));
            for (bt, ot) in base.targets.iter().zip(&opt.targets) {
                assert_eq!(bt.name, ot.name);
                let b = base_session.prove(&bt.prop);
                let o = opt_session.prove(&ot.prop);
                assert_no_regression(&b, &o, &format!("{}::{} ({mode:?})", bundle.name, bt.name));
            }
        }
    }
}

/// BMC is pure reachable-trace semantics — no strengthening is possible,
/// so clean depths and falsification cycles must be *equal*.
#[test]
fn optimized_bmc_is_identical_on_corpus() {
    for bundle in full_corpus() {
        let base = baseline_prep(&bundle);
        let opt = optimized_prep(&bundle);
        let mut base_session = ProofSession::new(&base.ctx, &base.ts, cfg(UnrollMode::Template));
        let mut opt_session = ProofSession::new(&opt.ctx, &opt.ts, cfg(UnrollMode::Template));
        for (bt, ot) in base.targets.iter().zip(&opt.targets) {
            let what = format!("{}::{}", bundle.name, bt.name);
            let b = base_session.bmc_check(&bt.prop, 8);
            let o = opt_session.bmc_check(&ot.prop, 8);
            match (&b, &o) {
                (BmcResult::Clean { depth: a, .. }, BmcResult::Clean { depth: c, .. }) => {
                    assert_eq!(a, c, "clean depth diverged on {what}");
                }
                (
                    BmcResult::Falsified { at: a, trace: ta, .. },
                    BmcResult::Falsified { at: c, trace: tc, .. },
                ) => {
                    assert_eq!(a, c, "violation cycle diverged on {what}");
                    assert_eq!(ta.steps.len(), tc.steps.len(), "trace length diverged on {what}");
                }
                (b, o) => panic!("BMC diverged on {what}: baseline {b:?} vs optimized {o:?}"),
            }
        }
    }
}

/// The observable a flow verdict rests on. Induction-step counterexample
/// values are solver-chosen and feed the repair prompt, so lemma texts
/// and proof depths may legitimately differ between the two netlists;
/// verdict classes — and the deterministic cycle of a real falsification
/// — may not, except in the strengthening direction.
fn outcome_ok(base: &TargetOutcome, opt: &TargetOutcome, what: &str) {
    match (base, opt) {
        (TargetOutcome::Proven { .. }, TargetOutcome::Proven { .. }) => {}
        (TargetOutcome::Falsified { at: a }, TargetOutcome::Falsified { at: b }) => {
            assert_eq!(a, b, "falsification cycle diverged on {what}");
        }
        (TargetOutcome::StillUnproven { .. }, TargetOutcome::Proven { .. })
        | (TargetOutcome::Unknown { .. }, TargetOutcome::Proven { .. })
        | (TargetOutcome::StillUnproven { .. }, TargetOutcome::StillUnproven { .. })
        | (TargetOutcome::Unknown { .. }, TargetOutcome::Unknown { .. }) => {}
        (b, o) => panic!("flow outcome diverged on {what}: baseline {b:?} vs optimized {o:?}"),
    }
}

/// Plain k-induction (`run_baseline`) end to end over the full corpus:
/// the flow-level report must show no regression.
#[test]
fn baseline_flow_verdicts_never_regress() {
    for bundle in full_corpus() {
        let flow_cfg = FlowConfig::default();
        let base = run_baseline(&baseline_prep(&bundle), &flow_cfg);
        let opt = run_baseline(&optimized_prep(&bundle), &flow_cfg);
        assert_eq!(base.targets.len(), opt.targets.len());
        assert!(opt.opt.rounds >= 1, "{}: optimized report carries opt stats", bundle.name);
        assert_eq!(base.opt.rounds, 0, "{}: baseline report shows no opt rounds", bundle.name);
        for (bt, ot) in base.targets.iter().zip(&opt.targets) {
            assert_eq!(bt.name, ot.name);
            outcome_ok(&bt.outcome, &ot.outcome, &format!("{}::{}", bundle.name, bt.name));
        }
    }
}

/// Flow 1 (spec-reading lemma generation) on the lemma-hungry designs:
/// same verdict classes with the same synthetic model.
#[test]
fn flow1_verdicts_never_regress() {
    for bundle in genfv_designs::lemma_hungry_designs() {
        let flow_cfg = FlowConfig::default();
        let base = run_flow1(
            baseline_prep(&bundle),
            &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
            &flow_cfg,
        );
        let opt = run_flow1(
            optimized_prep(&bundle),
            &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
            &flow_cfg,
        );
        assert_eq!(base.targets.len(), opt.targets.len());
        for (bt, ot) in base.targets.iter().zip(&opt.targets) {
            assert_eq!(bt.name, ot.name);
            outcome_ok(&bt.outcome, &ot.outcome, &format!("{}::{}", bundle.name, bt.name));
        }
    }
}

/// Flow 2 (CEX-driven repair) on the lemma-hungry designs, in both
/// unroll modes: the full gauntlet — validation, Houdini, repair loop —
/// over the optimized netlist must reach verdicts no worse than over the
/// elaborated one.
#[test]
fn flow2_verdicts_never_regress() {
    for mode in [UnrollMode::Template, UnrollMode::DagWalk] {
        for bundle in genfv_designs::lemma_hungry_designs() {
            let flow_cfg = FlowConfig::default().with_unroll_mode(mode);
            let base = run_flow2(
                baseline_prep(&bundle),
                &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
                &flow_cfg,
            );
            let opt = run_flow2(
                optimized_prep(&bundle),
                &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
                &flow_cfg,
            );
            assert_eq!(base.targets.len(), opt.targets.len());
            for (bt, ot) in base.targets.iter().zip(&opt.targets) {
                assert_eq!(bt.name, ot.name);
                outcome_ok(
                    &bt.outcome,
                    &ot.outcome,
                    &format!("{}::{} ({mode:?})", bundle.name, bt.name),
                );
            }
        }
    }
}

/// Warm-capital isolation: a seed built over the optimized netlist must
/// not be adoptable by a session over the unoptimized one prepared from
/// the very same sources (and vice versa) — the opt-level salt keeps the
/// fingerprints apart even when hash-consing happens to give both
/// layouts the same shape. On the datapath designs the layouts diverge
/// anyway (a register is merged away), so the unsalted cross-`matches`
/// must fail too: each seed here carries the salt it was built with.
#[test]
fn opt_level_salts_isolate_session_seeds() {
    use genfv_mc::SessionSeed;
    for bundle in genfv_designs::datapath_designs() {
        let base = baseline_prep(&bundle);
        let opt = optimized_prep(&bundle);
        let base_seed = SessionSeed::for_design_salted(&base.ctx, &base.ts, base.opt.level.salt());
        let opt_seed = SessionSeed::for_design_salted(&opt.ctx, &opt.ts, opt.opt.level.salt());
        assert!(base_seed.matches(&base.ctx, &base.ts));
        assert!(opt_seed.matches(&opt.ctx, &opt.ts));
        assert!(!base_seed.matches(&opt.ctx, &opt.ts), "{}", bundle.name);
        assert!(!opt_seed.matches(&base.ctx, &base.ts), "{}", bundle.name);
    }
}

/// The pipeline must pay for itself where it was built to: on every
/// datapath design the per-frame CNF (the transition template with the
/// targets as extra roots, the cost every stamped frame pays) has fewer
/// variables and fewer clauses at `OptLevel::Full` than at
/// `OptLevel::None`. This is the "datapath CNF must shrink" gate of the
/// retired `e12_opt` harness. Factoring makes the two product registers
/// step in lockstep, and register correspondence merges them, one state
/// fewer (`mul_incr` 648 → 279 clauses, `mul_distrib` 928 → 330).
#[test]
fn full_opt_shrinks_datapath_cnf() {
    use genfv_ir::Template;
    let cnf = |p: &PreparedDesign| {
        let roots: Vec<_> = p.targets.iter().map(|t| t.prop.ok).collect();
        let t = Template::build_with(&p.ctx, &p.ts, &roots);
        (t.num_vars(), t.num_clauses())
    };
    for bundle in genfv_designs::datapath_designs() {
        let full = bundle
            .prepare_with(&OptConfig::default().with_level(OptLevel::Full))
            .expect("full prepare");
        let base = baseline_prep(&bundle);
        let stats = &full.opt_stats;
        assert!(stats.nodes_merged > 0, "{}: register correspondence merges", bundle.name);
        assert!(stats.pairs_proved > 0, "{}: merges come from proved pairs", bundle.name);
        assert!(
            full.ts.states().len() < base.ts.states().len(),
            "{}: register correspondence collapses the shadow register",
            bundle.name
        );
        let (bv, bc) = cnf(&base);
        let (fv, fc) = cnf(&full);
        assert!(fv < bv, "{}: Full must drop template variables ({bv} -> {fv})", bundle.name);
        assert!(fc < bc, "{}: Full must drop template clauses ({bc} -> {fc})", bundle.name);
    }
}

/// Elaboration is deterministic: every design prepared twice in one
/// process, at every optimization level, yields the same layout
/// fingerprint, as `SessionSeed::fingerprint` documents for identical
/// sources. Without the ordered branch maps in the elaborator, mux nodes
/// were interned in hash order and unoptimized layouts differed.
#[test]
fn identical_sources_share_a_fingerprint() {
    use genfv_mc::SessionSeed;
    for bundle in full_corpus() {
        for level in [OptLevel::None, OptLevel::Full, OptLevel::SatSweep] {
            let fingerprint = || {
                let d = bundle.prepare_with(&OptConfig::default().with_level(level)).unwrap();
                SessionSeed::fingerprint(&d.ctx, &d.ts)
            };
            assert_eq!(fingerprint(), fingerprint(), "{} at {level:?}", bundle.name);
        }
    }
}
